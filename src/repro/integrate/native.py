"""The compiled DOPRI5 + trilinear pool kernel.

``_pool_kernel.c`` runs :func:`~repro.integrate.pooled.advance_pool`'s
lockstep rounds for :class:`~repro.integrate.dopri5.Dopri5` in C, bit for
bit like the NumPy reference path.  It is built with the system ``gcc``
on first use and loaded with :mod:`ctypes`; no build step, no extension
module.

* **Lazy.**  Nothing is compiled or loaded at import; the first
  :func:`kernel` call does it (once per process).
* **Cache.**  The shared object lives under ``$XDG_CACHE_HOME/repro/``
  (default ``~/.cache/repro/``), named by a hash of the source, the
  compiler flags and the compiler version, so an edit or a compiler
  upgrade builds a new file.  Each build writes a unique temporary name
  and ``os.replace``-s it into place, so concurrent processes never load
  a half-written file.  A cached file that fails to load is rebuilt
  once.
* **Fallback.**  Without ``gcc``, without NumPy's ufunc loop API
  (NumPy < 1.24), or when a build or load fails, :func:`kernel` returns
  ``None`` and ``advance_pool`` runs the NumPy path (a failure is warned
  about once).
* **``pow``.**  The step controller raises ``err`` to ``-1/5``.  libm's
  ``pow`` and NumPy's SIMD power loop disagree in the last bit for a few
  percent of inputs, so the kernel calls NumPy's own float64 power loop
  through the pointer that ``np.power._get_strided_loop`` exposes.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from repro.integrate import dopri5 as _d5
from repro.integrate.base import Integrator
from repro.integrate.config import IntegratorConfig

SOURCE = Path(__file__).with_name("_pool_kernel.c")
COMPILER = "gcc"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: ``Params`` in the C source: the per-call fields, then the per-problem
#: ones (cached: see ``_problem_params``).
_CALL = struct.Struct("<6q")
_PROBLEM = struct.Struct("<4q22d")
_NO_LIMIT = (1 << 63) - 1

_TABLEAU = np.array([
    _d5.A21, _d5.A31, _d5.A32, _d5.A41, _d5.A42, _d5.A43,
    _d5.A51, _d5.A52, _d5.A53, _d5.A54,
    _d5.A61, _d5.A62, _d5.A63, _d5.A64, _d5.A65,
    _d5.B1, _d5.B3, _d5.B4, _d5.B5, _d5.B6,
    _d5.E1, _d5.E3, _d5.E4, _d5.E5, _d5.E6, _d5.E7,
], dtype=np.float64)


class _CallInfo(ctypes.Structure):
    """NumPy's ``numpy_1.24_ufunc_call_info`` capsule payload."""

    _fields_ = [("strided_loop", ctypes.c_void_p),
                ("context", ctypes.c_void_p),
                ("auxdata", ctypes.c_void_p),
                ("requires_pyapi", ctypes.c_bool),
                ("no_floatingpoint_errors", ctypes.c_bool)]


def cache_dir() -> Path:
    """Where compiled kernels are kept."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro"


def _power_loop() -> Optional[tuple]:
    """``(capsule, loop, context, auxdata)`` of NumPy's float64 power
    loop, or ``None`` when NumPy does not expose it.  The capsule owns
    the other three and must outlive every call through them."""
    try:
        f8 = np.dtype(np.float64)
        _, capsule = np.power._resolve_dtypes_and_context((f8, f8, f8))
        np.power._get_strided_loop(capsule)
    except (AttributeError, TypeError, ValueError):
        return None
    get = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                            ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    info = _CallInfo.from_address(
        get(capsule, b"numpy_1.24_ufunc_call_info"))
    if info.requires_pyapi or not info.strided_loop:
        return None
    return capsule, info.strided_loop, info.context, info.auxdata


def _library_path(cc: str) -> Path:
    version = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, check=True).stdout
    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), " ".join(FLAGS).encode(),
                 version.encode()):
        key.update(part)
        key.update(b"\0")
    return cache_dir() / f"pool_kernel-{key.hexdigest()[:20]}.so"


def _build(cc: str, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                               dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                       capture_output=True, check=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _address(a: np.ndarray) -> int:
    """Data address of a writable C-contiguous array (cheaper than
    ``a.ctypes.data``, which builds a helper object per call)."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


@functools.lru_cache(maxsize=32)
def _problem_params(cfg, rtol: float, atol: float, order: int,
                    domain, decomposition) -> bytes:
    """The per-problem tail of ``Params`` (fixed across a run's calls)."""
    return _PROBLEM.pack(
        *decomposition.blocks_per_axis, cfg.max_steps, *domain.lo,
        *domain.hi, *decomposition.domain.lo,
        *decomposition._block_size.tolist(), rtol, atol, cfg.safety,
        cfg.shrink_limit, cfg.grow_limit, cfg.h_min, cfg.h_max,
        cfg.h_min * (1.0 + 1e-12), cfg.min_speed, -1.0 / order)


class NativeKernel:
    """A loaded kernel library."""

    def __init__(self, lib: ctypes.CDLL, power: tuple) -> None:
        self._lib = lib
        self._power = power  # keeps NumPy's loop data alive
        vp, i64 = ctypes.c_void_p, ctypes.c_int64
        lib.pk_init.restype = None
        lib.pk_init.argtypes = [vp, vp, vp, vp]
        lib.pk_init(_TABLEAU.ctypes.data, *power[1:])
        lib.pk_advance.restype = i64
        lib.pk_advance.argtypes = [ctypes.c_char_p, ctypes.c_char_p, i64,
                                   vp, vp, vp, i64]
        lib.pk_adapt_h.restype = None
        lib.pk_adapt_h.argtypes = [ctypes.c_char_p, i64, vp, vp, vp]
        self._advance = lib.pk_advance

    @staticmethod
    def params(dims, cfg, integrator, domain, decomposition,
               n_slots: int, round_limit: Optional[int],
               max_rounds: int) -> bytes:
        """The packed ``Params`` struct for one call."""
        return _CALL.pack(
            *dims, n_slots,
            _NO_LIMIT if round_limit is None else round_limit,
            max_rounds) + _problem_params(
                cfg, integrator.rtol, integrator.atol, integrator.order,
                domain, decomposition)

    def advance(self, params: bytes, table: bytes, f: np.ndarray,
                n: np.ndarray, verts: np.ndarray) -> int:
        """Run the rounds in place on ``f`` / ``n``, writing vertices to
        ``verts``; returns the attempted step count (see
        ``pk_advance``)."""
        k = len(f)
        if (f.shape != (k, 5) or n.shape != (k, 6) or verts.ndim != 2
                or verts.shape[1] != 3 or f.dtype != np.float64
                or n.dtype != np.int64 or verts.dtype != np.float64):
            raise ValueError("malformed pool kernel state arrays")
        return self._advance(params, table, k, _address(f), _address(n),
                             _address(verts), len(verts))

    def adapt_h(self, h: np.ndarray, err: np.ndarray, order: int,
                cfg) -> np.ndarray:
        """:meth:`Integrator.adapt_h` computed by the kernel's controller."""
        h = np.ascontiguousarray(h, dtype=np.float64)
        err = np.ascontiguousarray(err, dtype=np.float64)
        if h.ndim != 1 or err.shape != h.shape:
            raise ValueError("h and err must be matching 1-D arrays")
        out = np.empty_like(h)
        params = _CALL.pack(0, 0, 0, 0, 0, 0) + _PROBLEM.pack(
            0, 0, 0, 0, *([0.0] * 14), cfg.safety, cfg.shrink_limit,
            cfg.grow_limit, cfg.h_min, cfg.h_max, 0.0, 0.0, -1.0 / order)
        self._lib.pk_adapt_h(params, len(h), _address(h), _address(err),
                             _address(out))
        return out


_UNSET = object()
_kernel: object = _UNSET


def _load() -> Optional[NativeKernel]:
    power = _power_loop()
    cc = shutil.which(COMPILER)
    if power is None or cc is None:
        return None
    try:
        path = _library_path(cc)
        if not path.exists():
            _build(cc, path)
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            _build(cc, path)  # damaged cached file: rebuild once
            lib = ctypes.CDLL(str(path))
        kern = NativeKernel(lib, power)
    except (OSError, subprocess.SubprocessError) as exc:
        warnings.warn(f"compiled pool kernel unavailable ({exc}); "
                      "using the NumPy path", RuntimeWarning, stacklevel=3)
        return None
    # The power loop is NumPy's private API: confirm the kernel's step
    # controller still reproduces Integrator.adapt_h before using it, on
    # errors whose step factor no clamp hides (libm pow fails this).
    err = np.geomspace(1e-4, 1e3, 2048)
    h = np.full_like(err, 1e-3)
    cfg = IntegratorConfig()
    if not np.array_equal(kern.adapt_h(h, err, 5, cfg),
                          Integrator.adapt_h(h, err, 5, cfg)):
        warnings.warn("compiled pool kernel disagrees with NumPy's step "
                      "controller; using the NumPy path", RuntimeWarning,
                      stacklevel=3)
        return None
    return kern


def kernel() -> Optional[NativeKernel]:
    """The process's compiled kernel, built and loaded on first call;
    ``None`` when unavailable (the NumPy path is used instead)."""
    global _kernel
    if _kernel is _UNSET:
        _kernel = _load()
    return _kernel  # type: ignore[return-value]
