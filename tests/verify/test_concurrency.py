"""Tests for :mod:`repro.verify.concurrency`: shared-state analysis.

REPRO013 (unlocked shared-state writes) must detect at least three
distinct seeded violations, pragma escapes must work, interprocedural
lock propagation
must not false-positive on the guarded-entry / unguarded-helper
layering the engine caches use, and the analyzer must run clean over
the repo's own ``src/`` tree after the remediation.
"""

from pathlib import Path

import pytest

from repro.verify.concurrency import CONCURRENCY_RULES
from repro.verify.lint import Surface, module_name
from repro.verify.passes import analyze, check_source

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def codes(source: str, path: str = "example.py", **declared) -> list:
    return [f.code for f in findings(source, path, **declared)]


def findings(
    source: str, path: str = "example.py", shared=None, entries=()
) -> list:
    """Run the pass with ``shared`` (class -> lock attribute) and
    ``entries`` (``name`` / ``Class.name``) declared for the module."""
    module = module_name(Path(path))
    surface = Surface(
        shared_state={f"{module}.{cls}": lock for cls, lock in (shared or {}).items()},
        concurrent_entries=frozenset(f"{module}.{name}" for name in entries),
    )
    return check_source("concurrency", source, Path(path), surface)


SHARED_PREAMBLE = "import threading\n"

#: The shared class :func:`shared_class` builds, with its lock.
BOX = {"Box": "_lock"}


def shared_class(body: str) -> str:
    return (
        SHARED_PREAMBLE
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
            "    def reset(self):\n"
            "        self.items = []\n"
        )
        assert codes(source, shared=BOX, entries=("Box.reset",)) == ["REPRO013"]

    def test_unlocked_augassign(self):
        source = shared_class(
            "    def bump(self):\n"
            "        self.count += 1\n"
        )
        assert codes(source, shared=BOX, entries=("Box.bump",)) == ["REPRO013"]

    def test_unlocked_mutator_call(self):
        source = shared_class(
            "    def push(self, item):\n"
            "        self.items.append(item)\n"
        )
        assert codes(source, shared=BOX, entries=("Box.push",)) == ["REPRO013"]

    def test_unlocked_subscript_write(self):
        source = shared_class(
            "    def tag(self):\n"
            "        self.items[0] = None\n"
        )
        assert codes(source, shared=BOX, entries=("Box.tag",)) == ["REPRO013"]

    def test_locked_write_is_clean(self):
        source = shared_class(
            "    def push(self, item):\n"
            "        with self._lock:\n"
            "            self.items.append(item)\n"
            "            self.count += 1\n"
        )
        assert codes(source, shared=BOX, entries=("Box.push",)) == []

    def test_custom_lock_name(self):
        source = (
            SHARED_PREAMBLE
            + "class Box:\n"
            + "    def __init__(self):\n"
            + "        self._mu = threading.RLock()\n"
            + "        self.count = 0\n"
            + "    def good(self):\n"
            + "        with self._mu:\n"
            + "            self.count += 1\n"
            + "    def bad(self):\n"
            + "        self.count += 1\n"
        )
        found = findings(
            source, shared={"Box": "_mu"}, entries=("Box.good", "Box.bad")
        )
        assert [f.code for f in found] == ["REPRO013"]
        assert "self._mu" in found[0].message

    def test_bare_decorator_defaults_to_lock(self):
        source = (
            SHARED_PREAMBLE
            + "class Box:\n"
            + "    def __init__(self):\n"
            + "        self._lock = threading.RLock()\n"
            + "        self.count = 0\n"
            + "    def bump(self):\n"
            + "        self.count += 1\n"
        )
        assert codes(source, shared=BOX, entries=("Box.bump",)) == ["REPRO013"]

    def test_init_is_exempt(self):
        # __init__ writes without the lock by design: the object is not
        # shared while it is being constructed.
        source = shared_class(
            "    def noop(self):\n"
            "        return self.count\n"
        )
        assert codes(source, shared=BOX, entries=("Box.noop",)) == []

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
            "    def reset(self):\n"
            "        self.items = []  # repro-lint: disable=REPRO013\n"
        )
        assert codes(source, shared=BOX, entries=("Box.reset",)) == []

    def test_async_entry_method_flagged(self):
        # async entry points mutate the same shared dicts; the class
        # collector must not skip AsyncFunctionDef members.
        source = shared_class(
            "    async def areset(self):\n"
            "        self.items = []\n"
        )
        assert codes(source, shared=BOX, entries=("Box.areset",)) == ["REPRO013"]

    def test_mutator_through_subscript_chain(self):
        # self.items[0].append(...) is still a write to self.items.
        source = shared_class(
            "    def touch(self):\n"
            "        self.items[0].append(1)\n"
        )
        assert codes(source, shared=BOX, entries=("Box.touch",)) == ["REPRO013"]


class TestLockPropagation:
    """Interprocedural-within-class reachability (the engine layering)."""

    def test_helper_called_under_lock_is_clean(self):
        source = shared_class(
            "    def push(self, item):\n"
            "        with self._lock:\n"
            "            self._store(item)\n"
            "    def _store(self, item):\n"
            "        self.items.append(item)\n"
        )
        assert codes(source, shared=BOX, entries=("Box.push",)) == []

    def test_helper_called_outside_lock_is_flagged(self):
        source = shared_class(
            "    def push(self, item):\n"
            "        self._store(item)\n"
            "    def _store(self, item):\n"
            "        self.items.append(item)\n"
        )
        found = findings(source, shared=BOX, entries=("Box.push",))
        assert [f.code for f in found] == ["REPRO013"]
        assert "_store" in found[0].message

    def test_transitive_unlocked_chain(self):
        source = shared_class(
            "    def push(self, item):\n"
            "        self._a(item)\n"
            "    def _a(self, item):\n"
            "        self._b(item)\n"
            "    def _b(self, item):\n"
            "        self.items.append(item)\n"
        )
        assert codes(source, shared=BOX, entries=("Box.push",)) == ["REPRO013"]

    def test_unreachable_helper_is_not_flagged(self):
        source = shared_class(
            "    def noop(self):\n"
            "        return self.count\n"
            "    def maintenance(self):\n"
            "        self.items = []\n"
        )
        assert codes(source, shared=BOX, entries=("Box.noop",)) == []

    def test_nested_function_does_not_inherit_lock(self):
        # A closure runs later, on an arbitrary thread: holding the lock
        # at definition time proves nothing about call time.
        source = shared_class(
            "    def push(self, item):\n"
            "        with self._lock:\n"
            "            def later():\n"
            "                self.items.append(item)\n"
            "            return later\n"
        )
        assert codes(source, shared=BOX, entries=("Box.push",)) == ["REPRO013"]


class TestModuleGlobals:
    def test_global_rebind(self):
        source = (
            "TOTAL = 0\n"
            "def bump():\n"
            "    global TOTAL\n"
            "    TOTAL += 1\n"
        )
        assert codes(source, entries=("bump",)) == ["REPRO013"]

    def test_global_subscript_write(self):
        source = (
            "CACHE = {}\n"
            "def put(k, v):\n"
            "    CACHE[k] = v\n"
        )
        assert codes(source, entries=("put",)) == ["REPRO013"]

    def test_global_mutator_reached_through_helper(self):
        source = (
            "EVENTS = []\n"
            "def record(e):\n"
            "    _push(e)\n"
            "def _push(e):\n"
            "    EVENTS.append(e)\n"
        )
        assert codes(source, entries=("record",)) == ["REPRO013"]

    def test_unmarked_function_writing_global_is_ignored(self):
        source = (
            "CACHE = {}\n"
            "def put(k, v):\n"
            "    CACHE[k] = v\n"
        )
        assert codes(source) == []

    def test_global_read_is_clean(self):
        source = (
            "LIMIT = 10\n"
            "def check(n):\n"
            "    return n < LIMIT\n"
        )
        assert codes(source, entries=("check",)) == []

    def test_global_attribute_write(self):
        source = (
            "CONFIG = make_config()\n"
            "def set_mode(m):\n"
            "    CONFIG.mode = m\n"
        )
        assert codes(source, entries=("set_mode",)) == ["REPRO013"]

    def test_annotated_global_is_tracked(self):
        source = (
            "CACHE: dict = {}\n"
            "def put(k, v):\n"
            "    CACHE[k] = v\n"
        )
        assert codes(source, entries=("put",)) == ["REPRO013"]

    def test_imported_name_augmented_at_module_level_is_tracked(self):
        # `FLAGS` enters the module-global set only through the
        # module-level AugAssign; the import itself is not a binding
        # the tracker records.
        source = (
            "from settings import FLAGS\n"
            "FLAGS += ['dev']\n"
            "def toggle(name):\n"
            "    FLAGS.append(name)\n"
        )
        assert codes(source, entries=("toggle",)) == ["REPRO013"]

    def test_async_entry_function_flagged(self):
        source = (
            "TOTAL = 0\n"
            "async def bump():\n"
            "    global TOTAL\n"
            "    TOTAL += 1\n"
        )
        assert codes(source, entries=("bump",)) == ["REPRO013"]


# ----------------------------------------------------------------------
# Repo gate
# ----------------------------------------------------------------------


class TestRepoClean:
    def test_src_tree_is_clean(self):
        found, checked = analyze([SRC], ["concurrency"])["concurrency"]
        assert checked > 50
        assert found == [], [f.render() for f in found]

    def test_rule_table_is_complete(self):
        assert set(CONCURRENCY_RULES) == {"REPRO013"}

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            check_source("concurrency", "def broken(:\n", Path("bad.py"))
