"""Bit-exactness guards for the hot-path kernels.

The advection compute stack (the compiled DOPRI5 pool kernel, the fused
:class:`PoolSampler`, workspace DOPRI5) is pure optimization: every
simulated result must be bit-for-bit what the straightforward NumPy
implementation produces.  These tests pin that contract from four
angles:

* a **golden-trajectory** fixture recorded before the overhaul, replayed
  on both paths,
* the fused sampler against a **naive reference** implementation,
* the **compiled kernel** against the NumPy path: status, steps, ``h``,
  ``time``, ``block_id``, vertices and call results, over batch sizes,
  round budgets, crossings and every outcome,
* **fresh-pool-per-call** against reusing one pool object.

Regenerating ``tests/data/golden_pool_trajectories.npz`` (only needed if
the *simulated* semantics intentionally change) re-runs the three cases
below at the same configs and stores seeds plus final state and
geometry; see ``_replay``'s driver loop for the exact schedule::

    PYTHONPATH=src python tests/data/make_golden_pool_trajectories.py
"""

import contextlib

import numpy as np
import pytest

from repro.fields import SupernovaField, UniformField, sample_field
from repro.fields.library import RigidRotationField, SinkField
from repro.integrate import native
from repro.integrate.config import IntegratorConfig
from repro.integrate.dopri5 import Dopri5
from repro.integrate.fixed import make_integrator
from repro.integrate.pooled import BlockPool, advance_pool
from repro.integrate.streamline import Status, make_streamlines
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "golden_pool_trajectories.npz"

CASES = {
    "rot_dopri5": dict(
        field="rot", counts=(4, 4, 4), dims=(8, 8, 8),
        integ=lambda: Dopri5(1e-5, 1e-7),
        cfg=IntegratorConfig(max_steps=220, h_max=0.03,
                             rtol=1e-5, atol=1e-7)),
    "astro_dopri5": dict(
        field="astro", counts=(8, 8, 8), dims=(8, 8, 8),
        integ=lambda: Dopri5(1e-5, 1e-7),
        cfg=IntegratorConfig(max_steps=300, h_max=0.045,
                             rtol=1e-5, atol=1e-7)),
    "rot_rk4": dict(
        field="rot", counts=(4, 4, 4), dims=(8, 8, 8),
        integ=lambda: make_integrator("rk4"),
        cfg=IntegratorConfig(max_steps=150, h_max=0.02)),
}


def _make_field(name):
    if name == "rot":
        return RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    return SupernovaField()


def _replay(case, seeds, fresh_pool_per_call=False):
    """Advance ``seeds`` to completion; returns lines + final state."""
    field = _make_field(case["field"])
    dec = Decomposition(field.domain, case["counts"], case["dims"])
    blocks = list(sample_field(field, dec).values())
    pool = BlockPool(blocks)
    integ = case["integ"]()
    lines = make_streamlines(seeds)
    for line in lines:
        line.block_id = int(dec.locate(line.position))
    active = list(lines)
    for _ in range(400):
        if not active:
            break
        if fresh_pool_per_call:
            pool = BlockPool(blocks)
        res = advance_pool(active, pool, field.domain, dec, integ,
                           case["cfg"], round_limit=24)
        active = res.in_pool + list(res.exited)
    return lines


def _state(lines):
    return {
        "status": np.array([l.status.value for l in lines]),
        "steps": np.array([l.steps for l in lines]),
        "h": np.array([l.h for l in lines]),
        "time": np.array([l.time for l in lines]),
        "pos": np.stack([l.position for l in lines]),
        "verts": np.concatenate([l.vertices() for l in lines]),
        "vcounts": np.array([l.n_vertices for l in lines]),
    }


# --------------------------------------------------------------------- #
# Golden trajectories (recorded with the pre-overhaul kernels)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trajectories_bit_identical(name):
    gold = np.load(GOLDEN)
    lines = _replay(CASES[name], gold[f"{name}_seeds"])
    for key, val in _state(lines).items():
        ref = gold[f"{name}_{key}"]
        assert ref.shape == val.shape, (name, key)
        assert np.array_equal(ref, val), \
            f"{name}:{key} diverged from pre-overhaul kernels"


# --------------------------------------------------------------------- #
# One pool object reused across calls vs a fresh BlockPool every call
# --------------------------------------------------------------------- #
def test_cached_pool_equals_fresh_pool_per_call():
    rng = np.random.default_rng(7)
    seeds = rng.uniform(-0.85, 0.85, size=(19, 3))
    case = CASES["rot_dopri5"]
    cached = _state(_replay(case, seeds))
    fresh = _state(_replay(case, seeds, fresh_pool_per_call=True))
    for key in cached:
        assert np.array_equal(cached[key], fresh[key]), key


# --------------------------------------------------------------------- #
# Fused sampler vs naive reference
# --------------------------------------------------------------------- #
def _naive_sample(pool, slots, pts):
    """The original straight-line trilinear implementation."""
    nx, ny, nz = pool.dims
    g = (pts - pool.lo[slots]) * pool.scale[slots]
    g = np.minimum(g, pool.node_max)
    g = np.maximum(g, 0.0)
    icell = g.astype(np.int64)
    icell = np.minimum(
        icell, np.array([nx - 2, ny - 2, nz - 2], dtype=np.int64))
    t = g - icell
    s = 1.0 - t
    sx, sy, sz = s[:, 0], s[:, 1], s[:, 2]
    tx, ty, tz = t[:, 0], t[:, 1], t[:, 2]
    # ((x * y) * z) grouping, corners in z-fastest order.
    w = np.stack([
        (sx * sy) * sz, (sx * sy) * tz, (sx * ty) * sz, (sx * ty) * tz,
        (tx * sy) * sz, (tx * sy) * tz, (tx * ty) * sz, (tx * ty) * tz,
    ], axis=1)
    base = (icell[:, 0] * (ny * nz) + icell[:, 1] * nz + icell[:, 2]
            + pool.slot_base[slots])
    idx = base[:, None] + pool.offsets[None, :]
    corners = pool.flat[idx]
    return np.einsum("ke,kec->kc", w, corners)


@pytest.fixture(scope="module")
def sampler_pool():
    field = RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    dec = Decomposition(field.domain, (2, 2, 2), (5, 5, 5))
    pool = BlockPool(list(sample_field(field, dec).values()))
    return dec, pool


@pytest.mark.parametrize("k", [1, 2, 4, 33])
def test_fused_sampler_matches_naive(sampler_pool, k):
    dec, pool = sampler_pool
    rng = np.random.default_rng(k)
    pts = rng.uniform(-0.99, 0.99, size=(k, 3))
    slots = np.array([pool.slot_of[int(b)]
                      for b in dec.locate_many(pts)], dtype=np.int64)
    f = pool.sampler().bind(slots)
    assert np.array_equal(f(pts), _naive_sample(pool, slots, pts))


def test_fused_sampler_degenerate_and_boundary_points(sampler_pool):
    """Nodes, faces, corners, and clipped out-of-block points.

    These land exactly on cell boundaries (degenerate weights 0/1) and
    past the clip limits, the paths where truncation vs floor and clip
    ordering could silently diverge.
    """
    dec, pool = sampler_pool
    pts = np.array([
        [0.0, 0.0, 0.0],        # interior block corner (face ownership)
        [-1.0, -1.0, -1.0],     # domain corner
        [1.0, 1.0, 1.0],        # top domain corner (clamped last cell)
        [0.5, 0.0, -0.25],      # on an interior face
        [-0.5, -0.5, -0.5],     # block center, exact node
        [0.999999999, 0.0, 0.0],
    ])
    slots = np.array([pool.slot_of[int(b)]
                      for b in dec.locate_many(pts)], dtype=np.int64)
    f = pool.sampler().bind(slots)
    assert np.array_equal(f(pts), _naive_sample(pool, slots, pts))
    # Points outside their bound block's box: the sampler clips into the
    # block (same value as the reference clip).
    far = pts + 3.7
    assert np.array_equal(f(far), _naive_sample(pool, slots, far))


def test_sampler_out_buffer_matches_fresh(sampler_pool):
    dec, pool = sampler_pool
    rng = np.random.default_rng(99)
    pts = rng.uniform(-0.9, 0.9, size=(6, 3))
    slots = np.array([pool.slot_of[int(b)]
                      for b in dec.locate_many(pts)], dtype=np.int64)
    f = pool.sampler().bind(slots)
    buf = np.full((6, 3), np.nan)
    res = f(pts, out=buf)
    assert res is buf
    assert np.array_equal(buf, f(pts))


# --------------------------------------------------------------------- #
# Compiled kernel vs NumPy path
# --------------------------------------------------------------------- #
@contextlib.contextmanager
def _numpy_path():
    """Force advance_pool onto the NumPy path (as without a compiler)."""
    saved = native.kernel
    native.kernel = lambda: None
    try:
        yield
    finally:
        native.kernel = saved


@pytest.fixture(scope="module")
def on_both():
    """``run(fn)`` -> ``(fn() on the compiled kernel, fn() on the NumPy
    path)``.  Skips where the kernel cannot be built; CI cannot skip it
    silently (``test_native_kernel_loads_when_gcc_on_path``)."""
    if native.kernel() is None:
        pytest.skip("compiled pool kernel unavailable")

    def run(fn):
        got = fn()
        with _numpy_path():
            ref = fn()
        return got, ref
    return run


def _full_state(lines, results=()):
    state = _state(lines)
    state["block_id"] = np.array([l.block_id for l in lines])
    for i, res in enumerate(results):
        state[f"result{i}"] = np.array(
            [res.attempted_steps, res.accepted_steps]
            + [l.sid for l in res.in_pool] + [-1]
            + [l.sid for l in res.exited] + [-1]
            + [l.sid for l in res.terminated])
    return state


def _assert_same(got, ref):
    assert got.keys() == ref.keys()
    for key in ref:
        assert got[key].dtype == ref[key].dtype, key
        assert got[key].shape == ref[key].shape, key
        assert got[key].tobytes() == ref[key].tobytes(), key


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trajectories_numpy_path(name):
    gold = np.load(GOLDEN)
    with _numpy_path():
        lines = _replay(CASES[name], gold[f"{name}_seeds"])
    for key, val in _state(lines).items():
        assert np.array_equal(gold[f"{name}_{key}"], val), (name, key)


@pytest.mark.parametrize("k", [1, 2, 4, 5, 32, 257])
def test_native_rounds_match_numpy_path(on_both, k):
    rng = np.random.default_rng(k + 40)
    seeds = rng.uniform(-0.9, 0.9, size=(k, 3))
    got, ref = on_both(
        lambda: _full_state(_replay(CASES["astro_dopri5"], seeds)))
    _assert_same(got, ref)


def _replay_occupied(case, seeds, round_limit):
    """Advance with pools of only the blocks the active lines occupy, as
    the workers build them: a crossing into an occupied block switches
    slots inside the call, any other crossing exits the pool."""
    field = _make_field(case["field"])
    dec = Decomposition(field.domain, case["counts"], case["dims"])
    blocks = sample_field(field, dec)
    integ = case["integ"]()
    lines = make_streamlines(seeds)
    for line in lines:
        line.block_id = int(dec.locate(line.position))
    active = list(lines)
    results = []
    switches = 0
    while active:
        before = {l.sid: l.block_id for l in active}
        pool = BlockPool([blocks[b] for b in sorted(before.values())])
        res = advance_pool(active, pool, field.domain, dec, integ,
                           case["cfg"], round_limit=round_limit)
        for l in res.in_pool + res.terminated:
            now = int(dec.locate(l.position))
            switches += now >= 0 and now != before[l.sid]
        results.append(res)
        active = res.in_pool + res.exited
    exits = sum(len(res.exited) for res in results)
    return _full_state(lines, results), exits, switches


@pytest.mark.parametrize("case", ["rot_dopri5", "astro_dopri5"])
def test_in_pool_and_pool_exit_crossings_match(on_both, case):
    seeds = np.random.default_rng(3).uniform(-0.4, 0.4, size=(24, 3))
    got, ref = on_both(lambda: _replay_occupied(CASES[case], seeds, 16))
    _assert_same(got[0], ref[0])
    assert got[1:] == ref[1:]
    exits, switches = got[1:]
    assert exits > 0
    if case == "rot_dopri5":  # lines orbit through each other's blocks
        assert switches > 0


def _rot_call(seeds, **limits):
    """One advance_pool call of ``seeds`` on the full rot_dopri5 pool;
    returns ``(lines, call)`` where ``call()`` advances them again."""
    case = CASES["rot_dopri5"]
    field = _make_field(case["field"])
    dec = Decomposition(field.domain, case["counts"], case["dims"])
    pool = BlockPool(list(sample_field(field, dec).values()))
    lines = make_streamlines(seeds)
    for line in lines:
        line.block_id = int(dec.locate(line.position))

    def call(**more):
        return advance_pool(lines, pool, field.domain, dec,
                            case["integ"](), case["cfg"],
                            **{**limits, **more})
    return lines, call


@pytest.mark.parametrize("round_limit", [0, 1, 7, None])
def test_round_limit_matches(on_both, round_limit):
    seeds = np.random.default_rng(11).uniform(-0.9, 0.9, size=(5, 3))

    def run():
        lines, call = _rot_call(seeds, round_limit=round_limit)
        return _full_state(lines, [call()])

    got, ref = on_both(run)
    _assert_same(got, ref)
    if round_limit == 0:
        assert got["result0"][0] == 0  # no step attempted


def test_max_rounds_error_matches(on_both):
    seeds = np.random.default_rng(5).uniform(-0.9, 0.9, size=(3, 3))

    def run():
        lines, call = _rot_call(seeds, max_rounds=3)
        with pytest.raises(RuntimeError, match="exceeded 3 rounds"):
            call()
        untouched = _full_state(lines)
        # A round budget within max_rounds stops short of the error.
        res = call(round_limit=3)
        assert len(res.in_pool) == 3
        return untouched, _full_state(lines, [res])

    got, ref = on_both(run)
    for g, r in zip(got, ref):
        _assert_same(g, r)
    assert list(got[0]["steps"]) == [0, 0, 0]


STATUS_CASES = {
    # name: (field, seed, cfg, pool of the seed's block only, expected)
    "out_of_bounds": (
        lambda: UniformField(velocity=(1.0, 0.3, 0.0),
                             domain=Bounds.cube(0.0, 1.0)),
        [0.8, 0.5, 0.5], IntegratorConfig(max_steps=500, h_max=0.05),
        False, Status.OUT_OF_BOUNDS),
    "max_steps": (
        lambda: RigidRotationField(domain=Bounds.cube(-1.0, 1.0)),
        [0.5, 0.1, 0.1], IntegratorConfig(max_steps=40, h_max=0.02),
        False, Status.MAX_STEPS),
    "zero_velocity": (
        lambda: SinkField(domain=Bounds.cube(-1.0, 1.0)),
        [0.05, 0.05, 0.05],
        IntegratorConfig(max_steps=5000, min_speed=1e-4, h_max=0.1),
        False, Status.ZERO_VELOCITY),
    "step_underflow": (
        lambda: RigidRotationField(domain=Bounds.cube(-1.0, 1.0)),
        [0.5, 0.1, 0.1],
        IntegratorConfig(rtol=1e-14, atol=1e-14, h_min=0.5, h_init=0.5,
                         h_max=0.5),
        False, Status.STEP_UNDERFLOW),
    "exited": (
        lambda: RigidRotationField(domain=Bounds.cube(-1.0, 1.0)),
        [0.5, 0.1, 0.1], IntegratorConfig(max_steps=2000, h_max=0.02),
        True, Status.ACTIVE),
}


@pytest.mark.parametrize("name", sorted(STATUS_CASES))
def test_every_outcome_matches(on_both, name):
    make_field, seed, cfg, own_block_only, expected = STATUS_CASES[name]

    def run():
        field = make_field()
        dec = Decomposition(field.domain, (2, 2, 2), (6, 6, 6))
        blocks = sample_field(field, dec)
        jitter = np.array([[0.0, 0.0, 0.0], [0.01, -0.02, 0.0],
                           [-0.015, 0.0, 0.01]])
        lines = make_streamlines(np.asarray(seed) + jitter)
        for line in lines:
            line.block_id = int(dec.locate(line.position))
        if own_block_only:
            pool = BlockPool([blocks[lines[0].block_id]])
            lines = [l for l in lines if l.block_id in pool.slot_of]
        else:
            pool = BlockPool(list(blocks.values()))
        res = advance_pool(lines, pool, field.domain, dec,
                           Dopri5(cfg.rtol, cfg.atol), cfg)
        return _full_state(lines, [res])

    got, ref = on_both(run)
    _assert_same(got, ref)
    assert expected.value in set(got["status"])
    if name == "exited":
        assert got["result0"][-1] == -1  # nothing terminated: all exited


# --------------------------------------------------------------------- #
# Batched locate
# --------------------------------------------------------------------- #
def test_locate_many_matches_scalar_locate():
    field = RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    dec = Decomposition(field.domain, (3, 2, 4), (4, 4, 4))
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.4, 1.4, size=(64, 3))  # includes outside points
    batched = dec.locate_many(pts)
    for p, bid in zip(pts, batched):
        assert int(dec.locate(p)) == int(bid)


def test_locate_many_boundaries():
    field = RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    dec = Decomposition(field.domain, (2, 2, 2), (4, 4, 4))
    pts = np.array([
        [0.0, 0.0, 0.0],     # interior faces -> higher-indexed block
        [1.0, 1.0, 1.0],     # top corner stays in the last block
        [-1.0, -1.0, -1.0],  # bottom corner in block 0
        [1.0000001, 0.0, 0.0],  # outside
    ])
    bids = dec.locate_many(pts)
    assert bids[0] == 7
    assert bids[1] == 7
    assert bids[2] == 0
    assert bids[3] == -1
