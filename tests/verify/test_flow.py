"""Tests for the process-pool hygiene rules (REPRO006-REPRO008) of
:mod:`repro.verify.concurrency` — the ``flow`` section of ``repro analyze``.

Includes the two seeded-regression acceptance tests from the issue:
a module-global append inside a batch worker must trip REPRO006, and a
lambda capturing a Tracer submitted from ``solve_many`` must trip
REPRO007 — both injected into the *real* ``engine/batch.py`` source so
the checks track the code they are meant to guard.
"""

from pathlib import Path

from repro.verify.passes import analyze, check_source

REPO = Path(__file__).resolve().parents[2]
BATCH = REPO / "src" / "repro" / "engine" / "batch.py"
FLOW_TARGETS = [
    BATCH,
    REPO / "src" / "repro" / "desim" / "parallel.py",
    REPO / "src" / "repro" / "desim" / "distributed.py",
]


def codes(source: str, path: str = "src/repro/engine/example.py") -> list:
    return [f.code for f in check_source("flow", source, Path(path))]


POOL_PREAMBLE = "from concurrent.futures import ProcessPoolExecutor\n"


def submit(worker_def: str, call: str = "pool.submit(work, 1)") -> str:
    """A minimal module: a worker, a pool, one submission."""
    return (
        POOL_PREAMBLE
        + worker_def
        + "\ndef run(items):\n"
        + "    with ProcessPoolExecutor() as pool:\n"
        + f"        return list({call})\n"
    )


class TestRepro006GlobalMutation:
    def test_global_statement_rebind(self):
        src = submit(
            "COUNT = 0\n"
            "def work(x):\n"
            "    global COUNT\n"
            "    COUNT += 1\n"
            "    return x\n"
        )
        assert codes(src) == ["REPRO006"]

    def test_mutator_method_on_module_global(self):
        src = submit(
            "RESULTS = []\n"
            "def work(x):\n"
            "    RESULTS.append(x)\n"
            "    return x\n"
        )
        assert codes(src) == ["REPRO006"]

    def test_subscript_write_on_module_global(self):
        src = submit(
            "CACHE = {}\n"
            "def work(x):\n"
            "    CACHE[x] = x\n"
            "    return x\n"
        )
        assert codes(src) == ["REPRO006"]

    def test_mutation_in_transitively_reached_helper(self):
        src = submit(
            "SEEN = set()\n"
            "def record(x):\n"
            "    SEEN.add(x)\n"
            "def work(x):\n"
            "    record(x)\n"
            "    return x\n"
        )
        assert codes(src) == ["REPRO006"]

    def test_local_mutation_is_fine(self):
        src = submit(
            "def work(x):\n"
            "    results = []\n"
            "    results.append(x)\n"
            "    return results\n"
        )
        assert codes(src) == []

    def test_read_of_module_global_is_fine(self):
        src = submit(
            "LIMIT = 10\n"
            "def work(x):\n"
            "    return min(x, LIMIT)\n"
        )
        assert codes(src) == []

    def test_thread_pool_exempt(self):
        src = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "RESULTS = []\n"
            "def work(x):\n"
            "    RESULTS.append(x)\n"
            "def run(items):\n"
            "    with ThreadPoolExecutor() as pool:\n"
            "        return list(pool.map(work, items))\n"
        )
        assert codes(src) == []

    def test_pragma_suppresses(self):
        src = submit(
            "RESULTS = []\n"
            "def work(x):\n"
            "    RESULTS.append(x)  # repro-lint: disable=REPRO006\n"
            "    return x\n"
        )
        assert codes(src) == []


class TestRepro007Unpicklable:
    def test_lambda_submission(self):
        src = submit("def work(x):\n    return x\n", "pool.map(lambda x: work(x), [1])")
        assert codes(src) == ["REPRO007"]

    def test_lambda_capturing_unpicklable_mentions_capture(self):
        src = (
            POOL_PREAMBLE
            + "from repro.observability.spans import Tracer\n"
            + "def work(x, t):\n    return x\n"
            + "def run(items):\n"
            + "    tracer = Tracer()\n"
            + "    with ProcessPoolExecutor() as pool:\n"
            + "        return list(pool.map(lambda p: work(p, tracer), items))\n"
        )
        findings = check_source("flow", src, Path("src/repro/engine/example.py"))
        assert [f.code for f in findings] == ["REPRO007"]
        assert "tracer" in findings[0].message

    def test_nested_function_submission(self):
        src = (
            POOL_PREAMBLE
            + "def run(items):\n"
            + "    def work(x):\n"
            + "        return x\n"
            + "    with ProcessPoolExecutor() as pool:\n"
            + "        return list(pool.map(work, items))\n"
        )
        assert codes(src) == ["REPRO007"]

    def test_unpicklable_argument(self):
        src = (
            POOL_PREAMBLE
            + "from threading import Lock\n"
            + "def work(x, lock):\n    return x\n"
            + "def run(items):\n"
            + "    lock = Lock()\n"
            + "    with ProcessPoolExecutor() as pool:\n"
            + "        return [pool.submit(work, i, lock) for i in items]\n"
        )
        assert codes(src) == ["REPRO007"]

    def test_module_level_function_is_fine(self):
        src = submit("def work(x):\n    return x\n", "pool.map(work, [1, 2])")
        assert codes(src) == []


class TestRepro008UnseededRandom:
    def test_random_draw_in_worker(self):
        src = submit(
            "import random\n"
            "def work(x):\n"
            "    return x + random.random()\n"
        )
        assert codes(src) == ["REPRO008"]

    def test_numpy_random_draw_in_worker(self):
        src = submit(
            "import numpy as np\n"
            "def work(x):\n"
            "    return x + np.random.rand()\n"
        )
        assert codes(src) == ["REPRO008"]

    def test_seeded_worker_is_fine(self):
        src = submit(
            "import random\n"
            "def work(x):\n"
            "    random.seed(x)\n"
            "    return x + random.random()\n"
        )
        assert codes(src) == []

    def test_local_rng_instance_is_fine(self):
        src = submit(
            "import random\n"
            "def work(x):\n"
            "    rng = random.Random(x)\n"
            "    return x + rng.random()\n"
        )
        assert codes(src) == []


class TestRealTree:
    def test_flow_targets_are_clean(self):
        findings, checked = analyze(FLOW_TARGETS, ["flow"])["flow"]
        assert checked == len(FLOW_TARGETS)
        assert findings == [], [f.render() for f in findings]

    def test_src_tree_is_clean(self):
        findings, checked = analyze([REPO / "src"], ["flow"])["flow"]
        assert checked > 50
        assert findings == [], [f.render() for f in findings]


class TestSeededRegressions:
    """The issue's acceptance mutations, injected into the real batch.py."""

    def _source(self) -> str:
        return BATCH.read_text()

    def test_module_global_append_in_worker_caught(self):
        # Mutation (b): the pool worker appends every answered group to
        # a module-level list — state that silently diverges per process.
        original = "    return _worker_engine()._solve_group(task)"
        mutated = (
            "    answered = _worker_engine()._solve_group(task)\n"
            "    _SEEN_RESULTS.append(answered)\n"
            "    return answered"
        )
        source = self._source()
        assert original in source
        source = source.replace(original, mutated) + "\n_SEEN_RESULTS: list = []\n"
        findings = check_source("flow", source, BATCH)
        assert "REPRO006" in [f.code for f in findings]
        message = next(f.message for f in findings if f.code == "REPRO006")
        assert "_SEEN_RESULTS" in message

    def test_lambda_capturing_tracer_caught(self):
        # Mutation (c): solve_many submits a closure over a live Tracer
        # instead of the module-level group worker.
        source = self._source()
        pool_line = (
            "            with ProcessPoolExecutor(max_workers=batch.workers)"
            " as pool:"
        )
        map_call = "pool.map(_solve_task, tasks)"
        assert pool_line in source and map_call in source
        source = source.replace(
            pool_line,
            "            from repro.observability.spans import Tracer\n"
            "            tracer = Tracer()\n" + pool_line,
        )
        source = source.replace(
            map_call, "pool.map(lambda t: _solve_task(t, tracer), tasks)"
        )
        findings = check_source("flow", source, BATCH)
        assert "REPRO007" in [f.code for f in findings]
        message = next(f.message for f in findings if f.code == "REPRO007")
        assert "lambda" in message
