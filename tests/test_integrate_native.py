"""The compiled pool kernel's build cache, loading and step controller.

Trajectory equivalence with the NumPy path is pinned in
``test_kernel_equivalence.py``.
"""

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.integrate import native
from repro.integrate.base import Integrator
from repro.integrate.config import IntegratorConfig

SRC = Path(native.__file__).resolve().parents[2]
HAVE_GCC = shutil.which(native.COMPILER) is not None
needs_gcc = pytest.mark.skipif(not HAVE_GCC, reason="no gcc on PATH")

LOAD = ("from repro.integrate import native\n"
        "assert native.kernel() is not None\n")


@needs_gcc
def test_native_kernel_loads_when_gcc_on_path():
    """With a compiler present the kernel must load: otherwise the
    equivalence tests would silently test only the NumPy fallback."""
    assert native.kernel() is not None


def test_kernel_controller_equals_adapt_h_bit_for_bit():
    """``err`` log-uniform over [1e-100, 1e3] (plus edge values), under
    configs that between them hit every clamp."""
    kern = native.kernel()
    if kern is None:
        pytest.skip("compiled pool kernel unavailable")
    rng = np.random.default_rng(2024)
    err = 10.0 ** rng.uniform(-100.0, 3.0, 200_000)
    err[:6] = [0.0, 1e-100, 1e-101, 1.0, 1e3, 5e-324]
    h = 10.0 ** rng.uniform(-11.0, 0.0, err.size)
    clamps = set()
    for cfg in (IntegratorConfig(),
                IntegratorConfig(safety=0.8, shrink_limit=0.5,
                                 grow_limit=1.5),
                IntegratorConfig(h_min=1e-4, h_init=1e-3, h_max=1e-2)):
        got = kern.adapt_h(h, err, 5, cfg)
        ref = Integrator.adapt_h(h, err, 5, cfg)
        assert got.tobytes() == ref.tobytes()
        raw = cfg.safety * np.maximum(err, 1e-100) ** -0.2
        for name, hit in (("shrink", raw < cfg.shrink_limit),
                          ("grow", raw > cfg.grow_limit),
                          ("h_min", ref == cfg.h_min),
                          ("h_max", ref == cfg.h_max)):
            if hit.any():
                clamps.add(name)
    assert clamps == {"shrink", "grow", "h_min", "h_max"}


def _env(cache_root):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_root))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _built(cache_root):
    return sorted((Path(cache_root) / "repro").iterdir())


@needs_gcc
def test_concurrent_builds_leave_one_complete_library(tmp_path):
    procs = [subprocess.Popen([sys.executable, "-c", LOAD],
                              env=_env(tmp_path)) for _ in range(2)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    files = _built(tmp_path)
    assert len(files) == 1 and files[0].suffix == ".so"


@needs_gcc
def test_truncated_cached_library_is_rebuilt(tmp_path):
    subprocess.run([sys.executable, "-c", LOAD], env=_env(tmp_path),
                   check=True, timeout=120)
    (lib,) = _built(tmp_path)
    size = lib.stat().st_size
    lib.write_bytes(lib.read_bytes()[:64])
    subprocess.run([sys.executable, "-W", "error", "-c", LOAD],
                   env=_env(tmp_path), check=True, timeout=120)
    assert _built(tmp_path) == [lib]
    assert lib.stat().st_size == size


@needs_gcc
def test_unloadable_library_falls_back_with_one_warning(tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_kernel", native._UNSET)
    lib = native._library_path(shutil.which(native.COMPILER))
    lib.parent.mkdir(parents=True)
    lib.write_bytes(b"not a shared object")
    builds = []

    def failing_build(cc, path):
        builds.append(path)
        raise subprocess.CalledProcessError(1, cc)

    monkeypatch.setattr(native, "_build", failing_build)
    with pytest.warns(RuntimeWarning, match="NumPy path"):
        assert native.kernel() is None
    assert builds == [lib]  # one rebuild attempt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.kernel() is None  # decided once per process


def test_no_compiler_means_numpy_path(monkeypatch):
    monkeypatch.setattr(native, "_kernel", native._UNSET)
    monkeypatch.setattr(native, "COMPILER", "no-such-compiler-repro")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.kernel() is None
