"""Differential fuzz of the TEMP_S sweep and structure-build implementations.

Four implementations of Algorithm 4.1's sweep must agree bit for bit
(``float.hex`` equality on every weight, equal cut lists):

- the native kernel (``_sweep.c``) behind :func:`kernels.temps_sweep`;
- the Python fallback behind the same function (forced by patching the
  loader, so the fallback keeps its own test and mutation coverage);
- :func:`kernels.sweep_min_cut` called directly on ``.tolist()`` columns;
- the pure-Python reference :func:`bandwidth_min`.

Where every feasible cut weighs ``inf`` the sweeps return ``inf`` and
the solvers built on them (the reference, the engine) raise
:class:`OptimumOverflowError` instead.

Both sweep modes are covered: cut-capable (reduced-edge columns with
their edge index) and weight-only (``reduced_class_arrays`` columns,
``edge_index=None``).  The whole structure build behind
:func:`kernels.structure_sweep` is checked the same way: the native
entry, the NumPy composition and the reference must give equal ``p``,
``r``, stability-interval end, cut and weight.  The chains are adversarial: all-equal and
small-integer weights (W ties), zero edge weights, n = 1, r = 0,
K = max weight, and tiny (1e-300, subnormal) and overflow-adjacent
(1e308) weights.
"""

import hashlib
import math
import os
import platform
import subprocess
import tempfile

import pytest

np = pytest.importorskip("numpy")

from repro.core.bandwidth import bandwidth_min
from repro.core.feasibility import OptimumOverflowError
from repro.core.prime_subpaths import compute_prime_structure
from repro.engine import PartitionEngine, kernels, native
from repro.graphs.chain import Chain


def _hex(value):
    return float(value).hex()


def _chains():
    """(name, chain, bounds) triples, each bound feasible for its chain."""
    rng = np.random.default_rng(20261017)
    cases = []

    def add(name, alpha, beta, extra=()):
        chain = Chain(list(alpha), list(beta))
        wmax = chain.max_vertex_weight()
        total = chain.prefix_weights()[-1]  # K >= chain weight: r = 0
        bounds = [wmax, 1.5 * wmax, 2.0 * wmax, 3.0 * wmax, total, *extra]
        bounds = sorted({b for b in bounds if math.isfinite(b) and b >= wmax})
        cases.append((name, chain, bounds))

    add("single_task", [5.0], [])
    add("two_tasks", [3.0, 4.0], [2.0])
    for n in (2, 5, 17):
        add(f"all_equal_{n}", [1.0] * n, [1.0] * (n - 1))
    add("all_equal_zero_edges", [2.0] * 9, [0.0] * 8)
    for seed in range(12):
        n = int(rng.integers(2, 40))
        alpha = rng.integers(1, 4, n).astype(float)
        beta = rng.integers(0, 3, n - 1).astype(float)
        add(f"small_int_{seed}", alpha, beta)
    for seed in range(4):
        n = int(rng.integers(2, 30))
        alpha = rng.integers(1, 6, n) * 1e-300
        beta = rng.integers(0, 4, n - 1) * 1e-300
        add(f"tiny_{seed}", alpha, beta)
    add("subnormal_edges", [1e-300] * 6, [5e-324, 1e-323, 0.0, 5e-324, 2e-323])
    for seed in range(4):
        n = int(rng.integers(2, 12))
        alpha = rng.integers(1, 4, n) * 4e307
        beta = rng.integers(0, 5, n - 1) * 4e307
        add(f"huge_{seed}", alpha, beta, extra=(1.7e308,))
    add("overflow_prefix", [1e308] * 3, [1.0, 2.0], extra=(1.5e308,))
    add("overflow_cut_sum", [1e308] * 5, [1e308, 1.7e308, 1e308, 1.7e308])
    return cases


CASES = _chains()
IDS = [name for name, _, _ in CASES]


@pytest.fixture(params=["native", "fallback"])
def sweep_mode(request, monkeypatch):
    """Run a test once on the native kernel and once on the fallback."""
    if request.param == "fallback":
        monkeypatch.setattr(native, "load_sweep", lambda: None)
        assert not kernels.native_sweep_loaded()
    elif not kernels.native_sweep_loaded():
        pytest.skip("native TEMP_S sweep unavailable (no gcc?)")
    return request.param


def _reference(chain, bound):
    """The reference's ``(cut, weight)``, or ``(None, inf)`` when it
    raises :class:`OptimumOverflowError`."""
    try:
        ref = bandwidth_min(chain, bound)
    except OptimumOverflowError:
        return None, math.inf
    return ref.cut_indices, ref.weight


def _cut_columns(chain, bound):
    prefix = kernels.prefix_array(chain)
    first, last = kernels.prime_windows(prefix, bound)
    lo, hi = kernels.membership_intervals(first, last - 1, chain.num_edges)
    return kernels.reduced_edge_arrays(kernels.beta_array(chain), lo, hi)


def _class_columns(chain, bound):
    prefix = kernels.prefix_array(chain)
    first, last = kernels.prime_windows(prefix, bound)
    return kernels.reduced_class_arrays(
        kernels.beta_array(chain), first, last, chain.num_edges
    )


@pytest.mark.parametrize("name, chain, bounds", CASES, ids=IDS)
def test_cut_sweep_matches_every_implementation(sweep_mode, name, chain, bounds):
    for bound in bounds:
        ref_cut, ref_weight = _reference(chain, bound)
        columns = _cut_columns(chain, bound)
        cut, weight = kernels.temps_sweep(*columns)
        py_cut, py_weight = kernels.sweep_min_cut(*(c.tolist() for c in columns))
        assert cut == py_cut, (name, bound)
        assert ref_cut is None or cut == ref_cut, (name, bound)
        assert _hex(weight) == _hex(py_weight) == _hex(ref_weight), (name, bound)
        assert type(weight) is float and all(type(j) is int for j in cut)


@pytest.mark.parametrize("name, chain, bounds", CASES, ids=IDS)
def test_weight_only_sweep_matches_reference(sweep_mode, name, chain, bounds):
    for bound in bounds:
        _, ref_weight = _reference(chain, bound)
        cut, weight = kernels.temps_sweep(None, *_class_columns(chain, bound))
        assert cut == []
        assert _hex(weight) == _hex(ref_weight), (name, bound)


@pytest.mark.parametrize("name, chain, bounds", CASES, ids=IDS)
def test_engine_matches_reference(sweep_mode, name, chain, bounds):
    # solve() takes the plan's cut build; solve_sweep() its weight-only
    # build (one engine, so later bounds also meet the structure memo).
    engine = PartitionEngine()
    for bound in bounds:
        ref_cut, ref_weight = _reference(chain, bound)
        if ref_cut is None:
            with pytest.raises(OptimumOverflowError):
                PartitionEngine().solve(chain, bound)
            with pytest.raises(OptimumOverflowError):
                engine.solve_sweep(chain, [bound])
            continue
        result = PartitionEngine().solve(chain, bound)
        swept = engine.solve_sweep(chain, [bound])[0]
        assert result.cut_indices == ref_cut, (name, bound)
        assert _hex(result.weight) == _hex(ref_weight), (name, bound)
        assert _hex(swept) == _hex(ref_weight), (name, bound)


def test_native_and_fallback_agree_on_synthetic_columns(monkeypatch):
    """Column shapes no chain produces: coverage gaps, repeated first
    primes, zero and equal weights, both modes."""
    if not kernels.native_sweep_loaded():
        pytest.skip("native TEMP_S sweep unavailable (no gcc?)")
    rng = np.random.default_rng(7)
    batches = []
    for _ in range(300):
        r = int(rng.integers(0, 12))
        firsts, lasts = [], []
        fp = int(rng.integers(0, 2))
        lp = fp + int(rng.integers(0, 3))
        for _ in range(r):
            if firsts and (fp, lp) == (firsts[-1], lasts[-1]):
                lp += 1
            firsts.append(fp)
            lasts.append(lp)
            fp += int(rng.integers(0, 4))
            lp = max(lp, fp) + int(rng.integers(0, 3))
        weights = rng.integers(0, 4, r).astype(float)
        index = np.arange(r, dtype=np.int64) * 3 + 1
        batches.append((index, weights, np.asarray(firsts), np.asarray(lasts)))
    native_out = [kernels.temps_sweep(*b) for b in batches]
    native_w = [kernels.temps_sweep(None, *b[1:]) for b in batches]
    monkeypatch.setattr(native, "load_sweep", lambda: None)
    for b, got, got_w in zip(batches, native_out, native_w):
        cut, weight = kernels.temps_sweep(*b)
        assert got[0] == cut and _hex(got[1]) == _hex(weight)
        assert got_w == ([], got[1])


def test_columns_must_align():
    with pytest.raises(ValueError):
        kernels.temps_sweep(None, [1.0, 2.0], [0], [0, 1])
    with pytest.raises(ValueError):
        kernels.temps_sweep(None, [1.0, 2.0], [0, 1], [0])
    with pytest.raises(ValueError):
        kernels.temps_sweep([0], [1.0, 2.0], [0, 1], [0, 1])
    with pytest.raises(ValueError):
        kernels.temps_sweep(None, [[1.0]], [[0]], [[0]])


class TestLoader:
    """Build, cache key, atomic replace and fallback of the native loader."""

    def test_cache_key_follows_source(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        a = native.library_path(b"int x;")
        assert a == native.library_path(b"int x;")
        assert a != native.library_path(b"int y;")
        assert a.parent == tmp_path / "repro"

    def test_library_path_is_unchanged(self, tmp_path, monkeypatch):
        # The key names the machine by os.uname().machine, which is
        # platform.machine() on POSIX, so cached libraries keep their path.
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        source = native.SOURCE.read_bytes()
        key = hashlib.sha256(
            source + "\0".join(native.CFLAGS).encode() + platform.machine().encode()
        ).hexdigest()[:16]
        assert native.library_path(source) == tmp_path / "repro" / f"_sweep-{key}.so"

    def test_unwritable_cache_falls_back_to_tempdir(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        private = tmp_path / "tmp" / f"repro-{os.getuid()}"
        assert native.cache_dir() == private
        assert private.stat().st_mode & 0o777 == 0o700

    def test_fresh_build_is_loaded_and_leaves_no_temp_files(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        if native.load_sweep.__wrapped__() is None:
            pytest.skip("native TEMP_S sweep unavailable (no gcc?)")
        built = list((tmp_path / "repro").iterdir())
        assert [p.suffix for p in built] == [".so"]
        # A second load reuses the cached library instead of rebuilding.
        mtime = built[0].stat().st_mtime_ns
        assert native.load_sweep.__wrapped__() is not None
        assert built[0].stat().st_mtime_ns == mtime

    def test_missing_source_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "SOURCE", tmp_path / "absent.c")
        assert native.load_sweep.__wrapped__() is None

    def test_compile_error_falls_back_and_cleans_up(self, tmp_path, monkeypatch):
        source = tmp_path / "broken.c"
        source.write_text('#error "refuse to build"\n')
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(native, "SOURCE", source)
        assert native.load_sweep.__wrapped__() is None
        assert list((tmp_path / "cache" / "repro").iterdir()) == []

    def test_missing_compiler_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-DUNCACHED",))

        def no_gcc(*args, **kwargs):
            raise FileNotFoundError("gcc")

        monkeypatch.setattr(subprocess, "run", no_gcc)
        assert native.load_sweep.__wrapped__() is None

    def test_compile_failure_is_the_only_error_caught(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-DUNCACHED",))

        def failing(*args, **kwargs):
            raise subprocess.CalledProcessError(1, "gcc")

        monkeypatch.setattr(subprocess, "run", failing)
        assert native.load_sweep.__wrapped__() is None

        def crashing(*args, **kwargs):
            raise RuntimeError("not a build failure")

        monkeypatch.setattr(subprocess, "run", crashing)
        with pytest.raises(RuntimeError):
            native.load_sweep.__wrapped__()


# ----------------------------------------------------------------------
# The fused structure build: kernels.structure_sweep
# ----------------------------------------------------------------------
def _near_window_bounds(chain, count, rng):
    """Bounds on and one ulp either side of window weights of ``chain``
    (prefix differences, as every implementation computes them)."""
    prefix = chain.prefix_weights()
    n = chain.num_tasks
    wmax = chain.max_vertex_weight()
    out = []
    for _ in range(count):
        a = int(rng.integers(0, n))
        b = int(rng.integers(a, n))
        w = prefix[b + 1] - prefix[a]
        out.extend([w, math.nextafter(w, math.inf), math.nextafter(w, -math.inf)])
    return [k for k in out if math.isfinite(k) and k >= wmax]


def _fused_cases():
    """(name, chain, bounds): the adversarial chains of ``CASES`` plus
    tenth- and half-integer chains probed within an ulp of their window
    weights, and chains whose prefix overflows to inf (and nan gaps)."""
    rng = np.random.default_rng(20261019)
    cases = list(CASES)

    def add(name, alpha, beta, extra=()):
        chain = Chain(alpha, beta)
        wmax = chain.max_vertex_weight()
        total = chain.total_weight()
        bounds = [wmax, 1.5 * wmax, total, 2.0 * total, *extra,
                  *_near_window_bounds(chain, 12, rng)]
        bounds = sorted({k for k in bounds if math.isfinite(k) and k >= wmax})
        cases.append((name, chain, bounds))

    add("n1", [0.7], [])
    add("n2", [0.1, 0.2], [0.3])
    add("n2_equal", [2.5, 2.5], [0.0])
    add("all_equal_tenths", [0.1] * 40, [0.1] * 39)
    for seed in range(10):
        n = int(rng.integers(2, 60))
        unit = (0.1, 0.5)[seed % 2]
        add(f"grid_{unit}_{seed}", (rng.integers(1, 30, n) * unit).tolist(),
            (rng.integers(0, 10, n - 1) * unit).tolist())
    for seed in range(4):
        n = int(rng.integers(3, 20))
        add(f"overflow_{seed}", (rng.integers(1, 9, n) * 2e307).tolist(),
            (rng.integers(0, 9, n - 1) * 2e307).tolist(), extra=(1.79e308,))
    return cases


FUSED = _fused_cases()
FUSED_IDS = [name for name, _, _ in FUSED]


def _reference_structure(chain, bound):
    """``(cut, weight, p, r, valid_until)`` from the pure-Python
    reference; ``(None, inf, ...)`` when it raises OptimumOverflowError."""
    structure = compute_prime_structure(chain, bound)
    weights = [prime.weight for prime in structure.primes]
    valid_until = min((w for w in weights if w == w), default=math.inf)
    cut, weight = _reference(chain, bound)
    return cut, weight, structure.p, structure.r, valid_until


def _fused_runs(chain, bound):
    prefix, beta = kernels.prefix_array(chain), kernels.beta_array(chain)
    return (kernels.structure_sweep(prefix, beta, bound, True),
            kernels.structure_sweep(prefix, beta, bound, False))


@pytest.mark.parametrize("name, chain, bounds", FUSED, ids=FUSED_IDS)
def test_fused_structure_matches_fallback_and_reference(monkeypatch, name, chain, bounds):
    if not kernels.native_sweep_loaded():
        pytest.skip("native TEMP_S sweep unavailable (no gcc?)")
    native_runs = [_fused_runs(chain, bound) for bound in bounds]
    monkeypatch.setattr(native, "load_sweep", lambda: None)
    for bound, (with_cut, weight_only) in zip(bounds, native_runs):
        ref_cut, ref_weight, ref_p, ref_r, ref_until = _reference_structure(chain, bound)
        fb_cut, fb_weight_only = _fused_runs(chain, bound)
        for got in (with_cut, weight_only, fb_cut, fb_weight_only):
            cut, weight, p, r, valid_until = got
            assert (p, r) == (ref_p, ref_r), (name, bound)
            assert _hex(valid_until) == _hex(ref_until), (name, bound)
            assert _hex(weight) == _hex(ref_weight), (name, bound)
            assert type(weight) is float and type(valid_until) is float
        assert with_cut[0] == fb_cut[0], (name, bound)
        assert ref_cut is None or with_cut[0] == ref_cut, (name, bound)
        assert weight_only[0] == fb_weight_only[0] == (None if ref_p else [])


def test_fused_structure_rejects_misshapen_buffers():
    prefix = np.array([0.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        kernels.structure_sweep(prefix, np.array([1.0, 2.0]), 5.0, True)
    with pytest.raises(ValueError):
        kernels.structure_sweep(np.array([0.0]), np.array([]), 5.0, True)
    with pytest.raises(ValueError):
        kernels.structure_sweep(prefix[:, None], np.array([1.0]), 5.0, True)


def test_fingerprint_is_unchanged():
    # Digests of the stdlib struct.pack form: a fingerprint is a cache
    # key across processes and releases, so its bytes must not move.
    assert Chain([4, 3, 5, 2, 6], [7, 1, 9, 2]).fingerprint() == (
        "c3f41caf74b425e73d98756ca893b695")
    assert Chain([1.0], []).fingerprint() == "8981caa803abe702697ec233fbc017b7"
    assert Chain(np.array([4.0, 3, 5, 2, 6]), (7, 1, 9, 2)).fingerprint() == (
        "c3f41caf74b425e73d98756ca893b695")
