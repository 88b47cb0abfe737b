"""Build and load the native Algorithm 4.1 kernels (``_sweep.c``) through ctypes.

The one shared library has three entries: ``temps_sweep``, the TEMP_S
sweep over reduced-edge columns; ``structure_sweep``, which builds a
query's whole prime structure from a chain's prefix and beta buffers and
sweeps it in the same call (see :func:`repro.engine.kernels.structure_sweep`);
and ``chain_freeze``, the one pass that validates a
:class:`~repro.graphs.chain.Chain`'s weights and writes its prefix.
This module imports only the standard library, so the chain (a
foundation type) can load it without loading the engine.

The C source ships next to this module.  The first chain or sweep of a
process compiles it with the system ``gcc`` into a per-user cache
directory — ``${XDG_CACHE_HOME:-~/.cache}/repro/``, or the owner-only
``<tempdir>/repro-<uid>/`` when that cannot be created — under a file
name keyed on the SHA-256 of the
source, the compiler flags and the machine architecture, so a changed
source or a different host never loads a stale library.  The compiler
writes a private temporary name that :func:`os.replace` then moves into
place, so concurrent processes never ``dlopen`` a half-written file.

Nothing happens at import.  :func:`load_sweep` builds (once per cache
key) and loads (once per process) on first call and returns the ctypes
library with its entries typed, or ``None`` when ``gcc`` is missing,
the compile fails (for instance on a target with excess floating-point
precision, which the source refuses with ``#error``) or ``dlopen``
fails; callers then use the NumPy structure build and the pure-Python
sweep in :mod:`repro.engine.kernels`, and the chain's stdlib freeze.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
from pathlib import Path
from typing import Any, Optional

__all__ = ["CFLAGS", "SOURCE", "cache_dir", "library_path", "load_sweep"]

#: The kernel's C source, located next to this module (it ships as
#: package data in non-editable installs).
SOURCE = Path(__file__).with_name("_sweep.c")

#: No fast-math and no contraction into fused multiply-adds: the kernel
#: must round every operation exactly as the Python sweep does.
CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")


def cache_dir() -> Path:
    """The directory compiled kernels are cached in (created if absent)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    preferred = Path(base, "repro")
    try:
        preferred.mkdir(parents=True, exist_ok=True)
        return preferred
    except OSError:
        import tempfile

        # The temp directory is shared: a per-user, owner-only directory
        # keeps other users from planting the library this process loads.
        fallback = Path(tempfile.gettempdir(), f"repro-{os.getuid()}")
        fallback.mkdir(mode=0o700, exist_ok=True)
        if fallback.stat().st_uid != os.getuid():
            raise OSError(f"{fallback} is owned by another user")
        return fallback


def library_path(source: bytes) -> Path:
    """Cache path of the shared library built from ``source``."""
    key = hashlib.sha256()
    key.update(source)
    key.update("\0".join(CFLAGS).encode())
    key.update(os.uname().machine.encode())  # platform.machine() on POSIX
    return cache_dir() / f"_sweep-{key.hexdigest()[:16]}.so"


def _build(source: bytes, target: Path) -> None:
    """Compile ``source`` to ``target`` atomically (temp name + replace).

    The bytes are piped to ``gcc`` rather than re-read from disk, so the
    library always matches the source its cache key was computed from.
    A failed compile raises ``OSError``, as a missing ``gcc`` does.
    """
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    try:
        try:
            subprocess.run(
                ["gcc", *CFLAGS, "-x", "c", "-o", tmp, "-"],
                input=source,
                check=True,
                capture_output=True,
            )
        except subprocess.CalledProcessError as exc:
            raise OSError(f"gcc exited with status {exc.returncode}") from exc
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.lru_cache(maxsize=None)
def load_sweep() -> Optional[Any]:
    """The native library (entries ``temps_sweep``, ``structure_sweep``
    and ``chain_freeze``), or ``None`` to use Python.

    Memoized: the build or load is attempted once per process, and a
    failure is not retried.
    """
    try:
        source = SOURCE.read_bytes()
        target = library_path(source)
        if not target.exists():
            _build(source, target)
        lib = ctypes.CDLL(str(target))
        sweep, structure, freeze = lib.temps_sweep, lib.structure_sweep, lib.chain_freeze
    except (OSError, AttributeError):
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    sweep.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, ctypes.POINTER(ctypes.c_double)]
    structure.argtypes = [i64, ptr, ptr, ctypes.c_double, ptr,
                          ctypes.POINTER(ctypes.c_double), ctypes.POINTER(i64)]
    freeze.argtypes = [i64, ptr, ptr, ptr]
    sweep.restype = structure.restype = i64
    freeze.restype = ctypes.c_double
    return lib
