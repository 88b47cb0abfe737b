"""Tests for :mod:`repro.verify.concurrency`: shared-state analysis.

Each rule (REPRO013 unlocked shared-state writes, REPRO015 fork-unsafe
capture) must detect at least three distinct seeded violations, pragma escapes must work, interprocedural lock propagation
must not false-positive on the guarded-entry / unguarded-helper
layering the engine caches use, and the analyzer must run clean over
the repo's own ``src/`` tree after the remediation.
"""

from pathlib import Path

import pytest

from repro.verify.concurrency import CONCURRENCY_RULES, shared_state_inventory
from repro.verify.markers import SHARED_REGISTRY, concurrent_entry, shared_state
from repro.verify.passes import analyze, check_source

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def codes(source: str, path: str = "example.py") -> list:
    return [f.code for f in check_source("concurrency", source, Path(path))]


def findings(source: str, path: str = "example.py") -> list:
    return check_source("concurrency", source, Path(path))


SHARED_PREAMBLE = (
    "import threading\n"
    "from repro.verify.markers import concurrent_entry, shared_state\n"
)


def shared_class(body: str, decorator: str = '@shared_state(lock="_lock")') -> str:
    return (
        SHARED_PREAMBLE
        + f"{decorator}\n"
        + "class Box:\n"
        + "    def __init__(self):\n"
        + "        self._lock = threading.RLock()\n"
        + "        self.items = []\n"
        + "        self.count = 0\n"
        + body
    )


# ----------------------------------------------------------------------
# REPRO013: unlocked writes to shared state
# ----------------------------------------------------------------------


class TestUnlockedWrites:
    def test_unlocked_attribute_rebind(self):
        source = shared_class(
            "    @concurrent_entry\n"
            "    def reset(self):\n"
            "        self.items = []\n"
        )
        assert codes(source) == ["REPRO013"]

    def test_unlocked_augassign(self):
        source = shared_class(
            "    @concurrent_entry\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
        )
        assert codes(source) == ["REPRO013"]

    def test_unlocked_mutator_call(self):
        source = shared_class(
            "    @concurrent_entry\n"
            "    def push(self, item):\n"
            "        self.items.append(item)\n"
        )
        assert codes(source) == ["REPRO013"]

    def test_unlocked_subscript_write(self):
        source = shared_class(
            "    @concurrent_entry\n"
            "    def tag(self):\n"
            "        self.items[0] = None\n"
        )
        assert codes(source) == ["REPRO013"]

    def test_locked_write_is_clean(self):
        source = shared_class(
            "    @concurrent_entry\n"
            "    def push(self, item):\n"
            "        with self._lock:\n"
            "            self.items.append(item)\n"
            "            self.count += 1\n"
        )
        assert codes(source) == []

    def test_custom_lock_name(self):
        source = (
            SHARED_PREAMBLE
            + '@shared_state(lock="_mu")\n'
            + "class Box:\n"
            + "    def __init__(self):\n"
            + "        self._mu = threading.RLock()\n"
            + "        self.count = 0\n"
            + "    @concurrent_entry\n"
            + "    def good(self):\n"
            + "        with self._mu:\n"
            + "            self.count += 1\n"
            + "    @concurrent_entry\n"
            + "    def bad(self):\n"
            + "        self.count += 1\n"
        )
        found = findings(source)
        assert [f.code for f in found] == ["REPRO013"]
        assert "self._mu" in found[0].message

    def test_bare_decorator_defaults_to_lock(self):
        source = (
            SHARED_PREAMBLE
            + "@shared_state\n"
            + "class Box:\n"
            + "    def __init__(self):\n"
            + "        self._lock = threading.RLock()\n"
            + "        self.count = 0\n"
            + "    @concurrent_entry\n"
            + "    def bump(self):\n"
            + "        self.count += 1\n"
        )
        assert codes(source) == ["REPRO013"]

    def test_init_is_exempt(self):
        # __init__ writes without the lock by design: the object is not
        # shared while it is being constructed.
        source = shared_class(
            "    @concurrent_entry\n"
            "    def noop(self):\n"
            "        return self.count\n"
        )
        assert codes(source) == []

    def test_undecorated_class_is_ignored(self):
        source = (
            SHARED_PREAMBLE
            + "class Box:\n"
            + "    def __init__(self):\n"
            + "        self.count = 0\n"
            + "    def bump(self):\n"
            + "        self.count += 1\n"
        )
        assert codes(source) == []

    def test_pragma_escape(self):
        source = shared_class(
            "    @concurrent_entry\n"
            "    def reset(self):\n"
            "        self.items = []  # repro-lint: disable=REPRO013\n"
        )
        assert codes(source) == []

    def test_async_entry_method_flagged(self):
        # async entry points mutate the same shared dicts; the class
        # collector must not skip AsyncFunctionDef members.
        source = shared_class(
            "    @concurrent_entry\n"
            "    async def areset(self):\n"
            "        self.items = []\n"
        )
        assert codes(source) == ["REPRO013"]

    def test_mutator_through_subscript_chain(self):
        # self.items[0].append(...) is still a write to self.items.
        source = shared_class(
            "    @concurrent_entry\n"
            "    def touch(self):\n"
            "        self.items[0].append(1)\n"
        )
        assert codes(source) == ["REPRO013"]


class TestLockPropagation:
    """Interprocedural-within-class reachability (the engine layering)."""

    def test_helper_called_under_lock_is_clean(self):
        source = shared_class(
            "    @concurrent_entry\n"
            "    def push(self, item):\n"
            "        with self._lock:\n"
            "            self._store(item)\n"
            "    def _store(self, item):\n"
            "        self.items.append(item)\n"
        )
        assert codes(source) == []

    def test_helper_called_outside_lock_is_flagged(self):
        source = shared_class(
            "    @concurrent_entry\n"
            "    def push(self, item):\n"
            "        self._store(item)\n"
            "    def _store(self, item):\n"
            "        self.items.append(item)\n"
        )
        found = findings(source)
        assert [f.code for f in found] == ["REPRO013"]
        assert "_store" in found[0].message

    def test_transitive_unlocked_chain(self):
        source = shared_class(
            "    @concurrent_entry\n"
            "    def push(self, item):\n"
            "        self._a(item)\n"
            "    def _a(self, item):\n"
            "        self._b(item)\n"
            "    def _b(self, item):\n"
            "        self.items.append(item)\n"
        )
        assert codes(source) == ["REPRO013"]

    def test_unreachable_helper_is_not_flagged(self):
        source = shared_class(
            "    @concurrent_entry\n"
            "    def noop(self):\n"
            "        return self.count\n"
            "    def maintenance(self):\n"
            "        self.items = []\n"
        )
        assert codes(source) == []

    def test_nested_function_does_not_inherit_lock(self):
        # A closure runs later, on an arbitrary thread: holding the lock
        # at definition time proves nothing about call time.
        source = shared_class(
            "    @concurrent_entry\n"
            "    def push(self, item):\n"
            "        with self._lock:\n"
            "            def later():\n"
            "                self.items.append(item)\n"
            "            return later\n"
        )
        assert codes(source) == ["REPRO013"]


class TestModuleGlobals:
    def test_global_rebind(self):
        source = (
            "from repro.verify.markers import concurrent_entry\n"
            "TOTAL = 0\n"
            "@concurrent_entry\n"
            "def bump():\n"
            "    global TOTAL\n"
            "    TOTAL += 1\n"
        )
        assert codes(source) == ["REPRO013"]

    def test_global_subscript_write(self):
        source = (
            "from repro.verify.markers import concurrent_entry\n"
            "CACHE = {}\n"
            "@concurrent_entry\n"
            "def put(k, v):\n"
            "    CACHE[k] = v\n"
        )
        assert codes(source) == ["REPRO013"]

    def test_global_mutator_reached_through_helper(self):
        source = (
            "from repro.verify.markers import concurrent_entry\n"
            "EVENTS = []\n"
            "@concurrent_entry\n"
            "def record(e):\n"
            "    _push(e)\n"
            "def _push(e):\n"
            "    EVENTS.append(e)\n"
        )
        assert codes(source) == ["REPRO013"]

    def test_unmarked_function_writing_global_is_ignored(self):
        source = (
            "CACHE = {}\n"
            "def put(k, v):\n"
            "    CACHE[k] = v\n"
        )
        assert codes(source) == []

    def test_global_read_is_clean(self):
        source = (
            "from repro.verify.markers import concurrent_entry\n"
            "LIMIT = 10\n"
            "@concurrent_entry\n"
            "def check(n):\n"
            "    return n < LIMIT\n"
        )
        assert codes(source) == []

    def test_global_attribute_write(self):
        source = (
            "from repro.verify.markers import concurrent_entry\n"
            "CONFIG = make_config()\n"
            "@concurrent_entry\n"
            "def set_mode(m):\n"
            "    CONFIG.mode = m\n"
        )
        assert codes(source) == ["REPRO013"]

    def test_annotated_global_is_tracked(self):
        source = (
            "from repro.verify.markers import concurrent_entry\n"
            "CACHE: dict = {}\n"
            "@concurrent_entry\n"
            "def put(k, v):\n"
            "    CACHE[k] = v\n"
        )
        assert codes(source) == ["REPRO013"]

    def test_imported_name_augmented_at_module_level_is_tracked(self):
        # `FLAGS` enters the module-global set only through the
        # module-level AugAssign; the import itself is not a binding
        # the tracker records.
        source = (
            "from repro.verify.markers import concurrent_entry\n"
            "from settings import FLAGS\n"
            "FLAGS += ['dev']\n"
            "@concurrent_entry\n"
            "def toggle(name):\n"
            "    FLAGS.append(name)\n"
        )
        assert codes(source) == ["REPRO013"]

    def test_async_entry_function_flagged(self):
        source = (
            "from repro.verify.markers import concurrent_entry\n"
            "TOTAL = 0\n"
            "@concurrent_entry\n"
            "async def bump():\n"
            "    global TOTAL\n"
            "    TOTAL += 1\n"
        )
        assert codes(source) == ["REPRO013"]


# ----------------------------------------------------------------------
# REPRO015: fork-unsafe capture into process pools
# ----------------------------------------------------------------------

POOL_PREAMBLE = (
    "from concurrent.futures import ProcessPoolExecutor\n"
    "import threading\n"
)


class TestForkCapture:
    def test_ships_lock_carrier_argument(self):
        source = (
            POOL_PREAMBLE
            + "class Carrier:\n"
            + "    def __init__(self):\n"
            + "        self._lock = threading.RLock()\n"
            + "def run(items):\n"
            + "    c = Carrier()\n"
            + "    with ProcessPoolExecutor() as pool:\n"
            + "        pool.submit(len, c)\n"
        )
        assert codes(source) == ["REPRO015"]

    def test_submits_bound_method_of_carrier(self):
        source = (
            POOL_PREAMBLE
            + "class Carrier:\n"
            + "    def __init__(self):\n"
            + "        self._lock = threading.RLock()\n"
            + "    def work(self, item):\n"
            + "        return item\n"
            + "    def fan_out(self, items):\n"
            + "        with ProcessPoolExecutor() as pool:\n"
            + "            pool.submit(self.work, items)\n"
        )
        found = findings(source)
        assert [f.code for f in found] == ["REPRO015"]
        assert "self.work" in found[0].message

    def test_submits_bound_method_of_carrier_local(self):
        source = (
            POOL_PREAMBLE
            + "class Carrier:\n"
            + "    def __init__(self):\n"
            + "        self._lock = threading.RLock()\n"
            + "    def work(self, item):\n"
            + "        return item\n"
            + "def run(items):\n"
            + "    c = Carrier()\n"
            + "    with ProcessPoolExecutor() as pool:\n"
            + "        pool.submit(c.work, items)\n"
        )
        found = findings(source)
        assert [f.code for f in found] == ["REPRO015"]
        assert "submits bound method 'c.work' of Carrier" in found[0].message

    def test_pool_bound_by_assignment(self):
        # `pool = ProcessPoolExecutor()` (no with-block) must register
        # the local as a pool handle too.
        source = (
            POOL_PREAMBLE
            + "class Carrier:\n"
            + "    def __init__(self):\n"
            + "        self._lock = threading.RLock()\n"
            + "def run(items):\n"
            + "    c = Carrier()\n"
            + "    pool = ProcessPoolExecutor()\n"
            + "    pool.submit(len, c)\n"
        )
        assert codes(source) == ["REPRO015"]

    def test_capture_inside_async_function(self):
        source = (
            POOL_PREAMBLE
            + "class Carrier:\n"
            + "    def __init__(self):\n"
            + "        self._lock = threading.RLock()\n"
            + "async def run(items):\n"
            + "    c = Carrier()\n"
            + "    with ProcessPoolExecutor() as pool:\n"
            + "        pool.submit(len, c)\n"
        )
        assert codes(source) == ["REPRO015"]

    def test_ships_unsafe_attribute(self):
        source = (
            POOL_PREAMBLE
            + "class Carrier:\n"
            + "    def __init__(self):\n"
            + "        self._lock = threading.RLock()\n"
            + "    def fan_out(self, items):\n"
            + "        with ProcessPoolExecutor() as pool:\n"
            + "            pool.submit(len, self._lock)\n"
        )
        assert codes(source) == ["REPRO015"]

    def test_shared_state_class_always_carries_its_lock(self):
        source = (
            POOL_PREAMBLE
            + "from repro.verify.markers import shared_state\n"
            + '@shared_state(lock="_lock")\n'
            + "class Cache:\n"
            + "    def __init__(self):\n"
            + "        self._lock = threading.RLock()\n"
            + "def run(items):\n"
            + "    cache = Cache()\n"
            + "    with ProcessPoolExecutor() as pool:\n"
            + "        pool.map(len, items)\n"
            + "        pool.submit(len, cache)\n"
        )
        assert codes(source) == ["REPRO015"]

    def test_transitive_carrier_composition(self):
        # Wrapper holds a Carrier which holds a lock: the fixpoint pass
        # must mark Wrapper unsafe too.
        source = (
            POOL_PREAMBLE
            + "class Carrier:\n"
            + "    def __init__(self):\n"
            + "        self._lock = threading.RLock()\n"
            + "class Wrapper:\n"
            + "    def __init__(self):\n"
            + "        self.inner = Carrier()\n"
            + "def run(items):\n"
            + "    w = Wrapper()\n"
            + "    with ProcessPoolExecutor() as pool:\n"
            + "        pool.submit(len, w)\n"
        )
        assert codes(source) == ["REPRO015"]

    def test_plain_data_argument_is_clean(self):
        source = (
            POOL_PREAMBLE
            + "def run(items):\n"
            + "    with ProcessPoolExecutor() as pool:\n"
            + "        pool.submit(len, items)\n"
        )
        assert codes(source) == []

    def test_thread_pool_is_exempt(self):
        # Thread pools share memory and pickle nothing.
        source = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "import threading\n"
            "class Carrier:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "def run(items):\n"
            "    c = Carrier()\n"
            "    with ThreadPoolExecutor() as pool:\n"
            "        pool.submit(len, c)\n"
        )
        assert codes(source) == []

    def test_pragma_escape(self):
        source = (
            POOL_PREAMBLE
            + "class Carrier:\n"
            + "    def __init__(self):\n"
            + "        self._lock = threading.RLock()\n"
            + "def run(items):\n"
            + "    c = Carrier()\n"
            + "    with ProcessPoolExecutor() as pool:\n"
            + "        pool.submit(len, c)  # repro-lint: disable=REPRO015\n"
        )
        assert codes(source) == []


# ----------------------------------------------------------------------
# Inventory + runtime markers
# ----------------------------------------------------------------------


class TestInventoryAndMarkers:
    def test_inventory_reports_effect_sets(self, tmp_path):
        module = tmp_path / "box.py"
        module.write_text(
            shared_class(
                "    @concurrent_entry\n"
                "    def push(self, item):\n"
                "        with self._lock:\n"
                "            self.items.append(item)\n"
                "    def peek(self):\n"
                "        return self.items\n"
            )
        )
        inventory = shared_state_inventory([tmp_path])
        (key,) = inventory
        assert key.endswith("box.py::Box")
        methods = inventory[key]
        assert methods["push"]["entry"] is True
        assert methods["push"]["writes"] == ["items"]
        assert methods["push"]["unlocked_writes"] == 0
        assert methods["peek"]["entry"] is False
        assert "items" in methods["peek"]["reads"]

    def test_inventory_method_order_is_sorted(self, tmp_path):
        # Definition order is deliberately non-alphabetical; the
        # inventory must normalise it for stable docs/report diffs.
        module = tmp_path / "box.py"
        module.write_text(
            shared_class(
                "    def zpop(self):\n"
                "        return self.items\n"
                "    def apeek(self):\n"
                "        return self.count\n"
            )
        )
        inventory = shared_state_inventory([tmp_path])
        (key,) = inventory
        methods = list(inventory[key])
        assert methods == sorted(methods)

    def test_markers_register_and_stamp(self):
        @shared_state(lock="_mu")
        class Probe:
            def __init__(self):
                self.value = 0

        assert Probe.__shared_lock__ == "_mu"
        key = f"{Probe.__module__}.{Probe.__qualname__}"
        assert SHARED_REGISTRY[key] == "_mu"

        @concurrent_entry
        def entry():
            return 1

        assert entry.__concurrent_entry__ is True
        assert entry() == 1

    def test_engine_classes_are_registered(self):
        # The remediated hot-path classes must appear in the runtime
        # registry the race hammer iterates.
        import repro.engine.cache  # noqa: F401 - registration side effect
        import repro.observability.live  # noqa: F401
        import repro.observability.metrics  # noqa: F401

        registered = set(SHARED_REGISTRY)
        for name in (
            "repro.engine.plan.CompiledChainPlan",
            "repro.engine.cache.PlanCache",
            "repro.observability.live.TelemetryHub",
            "repro.observability.live.StreamingJsonlSink",
            "repro.observability.metrics.MetricsRegistry",
            "repro.observability.metrics.Histogram",
        ):
            assert name in registered, name


# ----------------------------------------------------------------------
# Repo gate
# ----------------------------------------------------------------------


class TestRepoClean:
    def test_src_tree_is_clean(self):
        found, checked = analyze([SRC], ["concurrency"])["concurrency"]
        assert checked > 50
        assert found == [], [f.render() for f in found]

    def test_rule_table_is_complete(self):
        # The pool rules (REPRO006-REPRO008) live here too.
        assert set(CONCURRENCY_RULES) == {
            "REPRO006", "REPRO007", "REPRO008",
            "REPRO013", "REPRO015",
        }

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            check_source("concurrency", "def broken(:\n", Path("bad.py"))
