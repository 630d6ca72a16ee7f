"""Property-based tests (hypothesis) on core data structures/invariants."""

from types import SimpleNamespace

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.core import messages as msg
from repro.core.base import owner_of_block, partition_contiguous
from repro.core.config import HybridConfig
from repro.fields import UniformField, sample_field
from repro.fields.library import (ABCFlowField, RigidRotationField,
                                  SaddleField, SinkField, SourceField)
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from repro.mesh.interpolate import trilinear
from repro.integrate.base import Integrator
from repro.integrate.config import IntegratorConfig
from repro.integrate.dopri5 import Dopri5
from repro.integrate.pooled import BlockPool, advance_pool
from repro.integrate.streamline import make_streamlines
from repro.storage.cache import LRUBlockCache
from tests.test_kernel_equivalence import (  # compiled-vs-NumPy harness
    _assert_same, _full_state, on_both)
from tests.test_master_unit import make_master


# --------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------- #
@given(n_items=st.integers(1, 2000), n_parts=st.integers(1, 128))
def test_partition_exact_cover(n_items, n_parts):
    total = 0
    prev_end = 0
    for part in range(n_parts):
        r = partition_contiguous(n_items, n_parts, part)
        assert r.start == prev_end
        prev_end = r.stop
        total += len(r)
    assert prev_end == n_items
    assert total == n_items


@given(n_blocks=st.integers(1, 600), n_ranks=st.integers(1, 600))
def test_owner_is_consistent_with_partition(n_blocks, n_ranks):
    for bid in range(0, n_blocks, max(1, n_blocks // 17)):
        owner = owner_of_block(bid, n_blocks, n_ranks)
        assert bid in partition_contiguous(n_blocks, n_ranks, owner)


# --------------------------------------------------------------------- #
# Bounds / decomposition
# --------------------------------------------------------------------- #
coords = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


@given(lo=st.tuples(coords, coords, coords),
       size=st.tuples(st.floats(0.1, 10), st.floats(0.1, 10),
                      st.floats(0.1, 10)),
       u=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
def test_bounds_normalize_roundtrip(lo, size, u):
    b = Bounds.from_arrays(lo, np.asarray(lo) + np.asarray(size))
    p = b.denormalized(np.asarray(u))
    assert b.contains(p)
    back = b.normalized(p)
    assert np.allclose(back, u, atol=1e-9)


@given(bx=st.integers(1, 6), by=st.integers(1, 6), bz=st.integers(1, 6),
       u=st.tuples(st.floats(0, 1, exclude_max=True),
                   st.floats(0, 1, exclude_max=True),
                   st.floats(0, 1, exclude_max=True)))
def test_locate_agrees_with_block_bounds(bx, by, bz, u):
    dec = Decomposition(Bounds.cube(0.0, 1.0), (bx, by, bz), (2, 2, 2))
    p = np.asarray(u)
    bid = int(dec.locate(p))
    assert bid >= 0
    assert dec.info(bid).bounds.contains(p)


# --------------------------------------------------------------------- #
# Interpolation
# --------------------------------------------------------------------- #
@given(seed=st.integers(0, 10_000),
       k=st.integers(1, 20))
@settings(max_examples=40)
def test_trilinear_within_data_range(seed, k):
    rng = np.random.default_rng(seed)
    data = rng.uniform(-3, 3, size=(4, 5, 3, 2))
    pts = rng.uniform(size=(k, 3))
    out = trilinear(data, pts)
    assert np.all(out >= data.min() - 1e-9)
    assert np.all(out <= data.max() + 1e-9)
    assert np.all(np.isfinite(out))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30)
def test_trilinear_reproduces_affine(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = rng.uniform(-2, 2, size=4)
    xs = np.linspace(0, 1, 4)
    gx, gy, gz = np.meshgrid(xs, xs, xs, indexing="ij")
    data = (a * gx + b * gy + c * gz + d)[..., None]
    pts = rng.uniform(size=(10, 3))
    expect = a * pts[:, 0] + b * pts[:, 1] + c * pts[:, 2] + d
    assert np.allclose(trilinear(data, pts)[:, 0], expect, atol=1e-10)


# --------------------------------------------------------------------- #
# Step controller
# --------------------------------------------------------------------- #
@given(h=st.floats(1e-8, 0.2), err=st.floats(0.0, 1e6),
       order=st.integers(1, 5))
def test_adapt_h_always_within_bounds(h, err, order):
    cfg = IntegratorConfig()
    out = Integrator.adapt_h(np.array([h]), np.array([err]), order, cfg)
    assert cfg.h_min <= out[0] <= cfg.h_max
    assert np.isfinite(out[0])


@given(h=st.floats(1e-6, 0.1))
def test_adapt_h_monotone_in_error(h):
    cfg = IntegratorConfig()
    errs = np.array([0.01, 0.5, 2.0, 50.0])
    out = Integrator.adapt_h(np.full(4, h), errs, 5, cfg)
    assert np.all(np.diff(out) <= 1e-15)  # larger error -> smaller h


# --------------------------------------------------------------------- #
# LRU cache
# --------------------------------------------------------------------- #
class _FakeBlock:
    def __init__(self, bid):
        self.block_id = bid


@given(capacity=st.integers(1, 8),
       ops=st.lists(st.integers(0, 15), min_size=1, max_size=60))
def test_lru_invariants(capacity, ops):
    cache = LRUBlockCache(capacity)
    for bid in ops:
        if cache.get(bid) is None:
            cache.put(_FakeBlock(bid))  # type: ignore[arg-type]
        # Invariants after every operation:
        assert len(cache) <= capacity
        assert cache.loads - cache.purges == len(cache)
        assert 0.0 <= cache.block_efficiency <= 1.0
        ids = cache.resident_ids
        assert len(ids) == len(set(ids))


@given(capacity=st.integers(1, 6),
       ops=st.lists(st.integers(0, 9), min_size=5, max_size=40))
def test_lru_most_recent_always_resident(capacity, ops):
    cache = LRUBlockCache(capacity)
    for bid in ops:
        if cache.get(bid) is None:
            cache.put(_FakeBlock(bid))  # type: ignore[arg-type]
        assert bid in cache  # the just-touched block is never evicted


# --------------------------------------------------------------------- #
# Hybrid master's slave records
# --------------------------------------------------------------------- #
SLAVES = (1, 2, 3)
BLOCKS = range(8)
_block_counts = st.dictionaries(st.sampled_from(BLOCKS), st.integers(0, 6),
                                max_size=6)
_master_ops = st.lists(st.one_of(
    st.tuples(st.just("status"), st.sampled_from(SLAVES), _block_counts,
              st.frozensets(st.sampled_from(BLOCKS), max_size=4),
              st.integers(0, 5)),
    st.tuples(st.just("assign"), st.sampled_from(SLAVES),
              st.sampled_from(BLOCKS)),
    st.tuples(st.just("load"), st.sampled_from(SLAVES),
              st.sampled_from(BLOCKS)),
    st.tuples(st.just("send_force"), st.sampled_from(SLAVES),
              st.sampled_from(SLAVES), st.sampled_from(BLOCKS)),
    st.tuples(st.just("try_assign"), st.sampled_from(SLAVES)),
), min_size=1, max_size=40)


def _drain(gen):
    """Run a master instruction generator outside the engine (its
    simulated sends are priced but never delivered)."""
    for _ in gen:
        pass


@settings(max_examples=150, deadline=None)
@given(ops=_master_ops, locality_bias=st.booleans())
def test_slave_record_bookkeeping(ops, locality_bias):
    """The maintained ``total_lines`` and ``waiting_blocks()`` agree with
    a from-scratch recomputation after any sequence of status reports
    and master instructions."""
    pool = {b: [(10 * b + i, np.zeros(3)) for i in range(5)]
            for b in BLOCKS}
    m = make_master(pool=pool, slaves=SLAVES, config=HybridConfig(
        assignment_quantum=2, overload_limit=12, load_threshold=3,
        locality_bias=locality_bias, duplication_budget=2))
    for op in ops:
        kind, rank = op[0], op[1]
        rec = m.records[rank]
        if kind == "status":
            _, _, counts, loaded, advanceable = op
            status = msg.SlaveStatus(
                slave=rank, lines_by_block=counts,
                loaded_blocks=tuple(sorted(loaded)),
                advanceable=advanceable, terminated_delta=0)
            _drain(m._process([SimpleNamespace(src=rank, payload=status)]))
        elif kind == "assign":
            if m.pool.get(op[2]):
                _drain(m._emit_assign(rec, op[2]))
        elif kind == "load":
            _drain(m._emit_load(rec, op[2]))
        elif kind == "send_force":
            _drain(m._emit_send_force(rec, m.records[op[2]], op[3]))
        else:
            m.needs_work.add(rank)
            _drain(m._try_assign(rank))
        for r in m.records.values():
            counts = r.lines_by_block
            assert r.total_lines == sum(counts.values()) + r.advanceable
            expected = sorted(((c, b) for b, c in counts.items()
                               if c > 0 and b not in r.loaded),
                              key=lambda cb: (-cb[0], cb[1]))
            assert r.waiting_blocks() == expected
        assert m.pool_size() == sum(len(v) for v in m.pool.values())


# --------------------------------------------------------------------- #
# Compiled pool kernel vs NumPy path
# --------------------------------------------------------------------- #
LIBRARY_FIELDS = [
    lambda d: UniformField(velocity=(0.7, -0.4, 0.2), domain=d),
    lambda d: RigidRotationField(domain=d),
    lambda d: SaddleField(domain=d),
    lambda d: SinkField(domain=d),
    lambda d: SourceField(domain=d),
    lambda d: ABCFlowField(domain=d),
]


@settings(max_examples=30, deadline=None)
@given(which=st.integers(0, len(LIBRARY_FIELDS) - 1),
       picks=st.lists(st.tuples(*[st.integers(0, 4)] * 3,
                                st.sampled_from([0.0, 1e-13, -1e-13])),
                      min_size=1, max_size=6))
def test_native_matches_numpy_on_library_fields(on_both, which, picks):
    """Seeds on block faces, edges and corners (and a hair off them)
    of a 2x2x2 decomposition, on occupied-block pools."""
    domain = Bounds.cube(-1.0, 1.0)
    field = LIBRARY_FIELDS[which](domain)
    dec = Decomposition(domain, (2, 2, 2), (5, 5, 5))
    blocks = sample_field(field, dec)
    seeds = np.array([[-1.0 + 0.5 * i + eps, -1.0 + 0.5 * j,
                       -1.0 + 0.5 * k + eps] for i, j, k, eps in picks])
    seeds = seeds[dec.locate_many(seeds) >= 0]
    assume(len(seeds))
    cfg = IntegratorConfig(max_steps=60, h_max=0.05)

    def run():
        lines = make_streamlines(seeds)
        for line in lines:
            line.block_id = int(dec.locate(line.position))
        active = list(lines)
        results = []
        while active:
            pool = BlockPool([blocks[b] for b in
                              sorted({l.block_id for l in active})])
            res = advance_pool(active, pool, domain, dec, Dopri5(), cfg,
                               round_limit=9)
            results.append(res)
            active = res.in_pool + res.exited
        return _full_state(lines, results)

    got, ref = on_both(run)
    _assert_same(got, ref)
