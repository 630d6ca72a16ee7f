"""Pooled multi-block advection: the production compute kernel.

``advance_pool`` advances *every* active streamline resident in a set of
loaded blocks — together, in lockstep rounds — until each terminates or
crosses out of the loaded set.  This matches the paper's workers ("each
processor integrates all streamlines to the edge of the loaded blocks"):
particles that cross between two *loaded* blocks keep advancing inside
the kernel (slot switch), never bouncing back to the per-rank scheduler.
A one-block pool is the single-block case (``integrate_single``).

Two implementations of the rounds give bit-identical results:

* the **compiled kernel** (:mod:`repro.integrate.native`,
  ``_pool_kernel.c``) runs DOPRI5 per particle in C — sampling, stages,
  error norm, step controller, classification and slot switching — and
  returns each particle's vertices already grouped.  Batches here are
  tiny (most calls advance 4 or fewer lines, the regime "A Guide to
  Particle Advection Performance" names per-step cost the first term
  of), so compiled steps beat any batching of NumPy calls;
* the **NumPy path** (:func:`_numpy_rounds`) is the reference, the
  fallback when no compiler is available, and the only path for other
  integrators.  :class:`PoolSampler` is its fused trilinear gather over
  the pool's stacked data: one index gather, one ``einsum`` weight
  reduction, every intermediate written into preallocated workspaces.

A :class:`BlockPool` is a slot table of block data addresses and
geometry, cheap enough that workers build one per advect call over the
blocks their current lines occupy; the NumPy path's stacked copies are
built only when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.integrate import native
from repro.integrate.base import Integrator, fast_einsum
from repro.integrate.config import IntegratorConfig
from repro.integrate.dopri5 import Dopri5
from repro.integrate.streamline import Status, Streamline
from repro.mesh.block import SLOT_ROW, Block
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from repro.mesh.interpolate import corner_offsets

_CODE_ACTIVE = 0
_CODE_EXITED = 1
_CODE_TO_STATUS = {
    2: Status.OUT_OF_BOUNDS,
    3: Status.MAX_STEPS,
    4: Status.ZERO_VELOCITY,
    5: Status.STEP_UNDERFLOW,
}


class PoolSampler:
    """Fused trilinear velocity sampler over a :class:`BlockPool`.

    One sampler serves any batch size: :meth:`bind` fixes the per-particle
    slot assignment (gathering each particle's block origin/scale/base
    offset into reused buffers), after which the instance is a
    ``VelocityFn`` whose every evaluation runs a minimal-op kernel —
    a single corner gather plus one ``einsum`` weight reduction, with all
    intermediates written into preallocated workspaces.

    Every array view the kernel touches (workspace slices, the broadcast
    shapes feeding the weight products, the reshaped weight tensor) is
    built once per batch size and memoized: an integrator calls the bound
    sampler 7 times per round with the same ``k``, and compaction revisits
    the same sizes across rounds, so ``__call__`` itself performs only
    ufunc/gather calls — no view construction, no allocation.

    The computation is bit-for-bit identical to the straightforward
    per-call NumPy implementation (same clipping, truncation, and
    multiply/accumulate orders); only allocation and call count differ.

    Integrators detect :attr:`writes_out` and pass ``out=`` stage buffers,
    making a full Runge-Kutta step allocation-free.
    """

    #: Protocol flag for :meth:`Integrator.eval_velocity`.
    writes_out = True

    def __init__(self, pool: "BlockPool") -> None:
        self.pool = pool
        nx, ny, nz = pool.dims
        self._cell_max = np.array([nx - 2, ny - 2, nz - 2], dtype=np.int64)
        self._axis_strides = np.array([ny * nz, nz, 1], dtype=np.int64)
        self._flat = pool.flat
        self._node_max = pool.node_max
        self._offsets_row = pool.offsets[None, :]
        self._cap = 0
        self._k = 0
        self._views: Dict[int, tuple] = {}
        self._b: Optional[tuple] = None

    def _reserve(self, k: int) -> None:
        """Grow workspaces to hold batches of up to ``k`` particles."""
        if k <= self._cap:
            return
        cap = max(k, 2 * self._cap)
        self._cap = cap
        self._lo = np.empty((cap, 3), dtype=np.float64)
        self._scale = np.empty((cap, 3), dtype=np.float64)
        self._base0 = np.empty(cap, dtype=np.int64)
        self._g = np.empty((cap, 3), dtype=np.float64)
        self._icell = np.empty((cap, 3), dtype=np.int64)
        # st[:, 0, :] holds (sx, sy, sz), st[:, 1, :] holds (tx, ty, tz).
        self._st = np.empty((cap, 2, 3), dtype=np.float64)
        self._m1 = np.empty((cap, 2, 2), dtype=np.float64)
        self._w = np.empty((cap, 8), dtype=np.float64)
        self._base = np.empty(cap, dtype=np.int64)
        self._idx = np.empty((cap, 8), dtype=np.int64)
        self._corners = np.empty((cap, 8, 3), dtype=np.float64)
        self._views = {}  # old views point into the replaced buffers

    def _bundle(self, k: int) -> tuple:
        """The memoized view bundle for batch size ``k``."""
        st = self._st[:k]
        m1 = self._m1[:k]
        w = self._w[:k]
        base = self._base[:k]
        return (
            self._lo[:k], self._scale[:k], self._base0[:k],
            self._g[:k], self._icell[:k],
            st[:, 1, :], st[:, 0, :],                 # t, s
            st[:, :, 0, None], st[:, None, :, 1],     # weight factors x, y
            m1, m1[:, :, :, None], st[:, None, None, :, 2],  # xy, z
            w.reshape(k, 2, 2, 2), w,
            base, base[:, None],
            self._idx[:k], self._corners[:k],
        )

    def bind(self, slots: np.ndarray) -> "PoolSampler":
        """Fix the per-particle slot assignment for subsequent calls.

        Gathers each particle's block parameters into reused buffers;
        returns ``self`` so ``sampler.bind(slots)`` can be passed straight
        to an integrator.
        """
        k = len(slots)
        self._reserve(k)
        self._k = k
        b = self._views.get(k)
        if b is None:
            b = self._views[k] = self._bundle(k)
        self._b = b
        pool = self.pool
        np.take(pool.lo, slots, axis=0, out=b[0], mode="clip")
        np.take(pool.scale, slots, axis=0, out=b[1], mode="clip")
        np.take(pool.slot_base, slots, out=b[2], mode="clip")
        return self

    def __call__(self, points: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """Interpolated velocities at ``points`` (``(k, 3)``, matching the
        bound slot count).  ``out`` receives the result when given."""
        k = self._k
        if len(points) != k:
            raise ValueError(
                f"sampler bound to {k} slots, got {len(points)} points")
        (lo, scale, base0, g, icell, t, s, wfx, wfy, m1, m1z, wfz,
         w4, w, base, base_col, idx, corners) = self._b
        if out is None:
            out = np.empty((k, 3), dtype=np.float64)

        # Continuous node coordinates, clipped: ((p - lo) * scale) in
        # [0, node_max].
        np.subtract(points, lo, out=g)
        np.multiply(g, scale, out=g)
        np.minimum(g, self._node_max, out=g)
        np.maximum(g, 0.0, out=g)

        # Cell index: truncation == astype(int64) for the clipped g >= 0,
        # then clamp to the last cell.
        np.copyto(icell, g, casting="unsafe")
        np.minimum(icell, self._cell_max, out=icell)

        # Fractional offsets t and their complements s = 1 - t.
        np.subtract(g, icell, out=t)
        np.subtract(1.0, t, out=s)

        # w[c] = {s,t}x * {s,t}y * {s,t}z via two broadcasted products;
        # grouping matches the scalar form ((x*y) * z), corner order
        # matches corner_offsets (z fastest, then y, then x).
        np.multiply(wfx, wfy, out=m1)
        np.multiply(m1z, wfz, out=w4)

        # Flat base index of each particle's cell within its slot
        # (matmul == the explicit (ix*ny + iy)*nz + iz integer arithmetic).
        np.matmul(icell, self._axis_strides, out=base)
        np.add(base, base0, out=base)
        np.add(base_col, self._offsets_row, out=idx)
        self._flat.take(idx, axis=0, out=corners, mode="clip")

        # Single weighted reduction (bit-identical to multiply + sum).
        return fast_einsum("ke,kec->kc", w, corners, out=out)


#: NumPy view of one :attr:`BlockPool.table` row (``Block.slot_row``).
SLOT_DTYPE = np.dtype([
    ("data", "<u8"), ("block_id", "<i8"), ("lo", "<f8", (3,)),
    ("scale", "<f8", (3,)), ("block_lo", "<f8", (3,)),
    ("block_hi", "<f8", (3,))])
assert SLOT_DTYPE.itemsize == SLOT_ROW.size


class BlockPool:
    """The same-shaped loaded blocks one :func:`advance_pool` call may
    sample, as a slot table.

    Slot ``i`` is ``blocks[i]``.  :attr:`table` packs one row per slot
    (its data address, block id, sampling origin and scale, and bounds;
    see ``Block.slot_row``) for the compiled kernel, so building a pool
    copies no block data.  The stacked arrays the NumPy path gathers from
    (:attr:`flat`, :attr:`lo`, ...) are built on first use.  Pools hold
    their blocks and are immutable (block data is never mutated in
    place).
    """

    def __init__(self, blocks: Sequence[Block]) -> None:
        blocks = list(blocks)
        if not blocks:
            raise ValueError("BlockPool needs at least one block")
        dims = blocks[0]._dims
        for b in blocks:
            if b._dims != dims:
                raise ValueError(
                    "all pool blocks must share node dims; got "
                    f"{b._dims} vs {dims}")
        self.blocks = blocks
        self.dims = dims
        self.slot_of: Dict[int, int] = {
            b.block_id: i for i, b in enumerate(blocks)}
        self.table = b"".join([b.slot_row for b in blocks])
        self.node_max = blocks[0]._node_max
        self._sampler: Optional[PoolSampler] = None

    def __len__(self) -> int:
        return len(self.blocks)

    @cached_property
    def slots(self) -> np.ndarray:
        """:attr:`table` as a structured array (``SLOT_DTYPE``)."""
        return np.frombuffer(self.table, dtype=SLOT_DTYPE)

    @cached_property
    def lo(self) -> np.ndarray:
        return self.slots["lo"]

    @cached_property
    def scale(self) -> np.ndarray:
        return self.slots["scale"]

    @cached_property
    def block_lo(self) -> np.ndarray:
        return self.slots["block_lo"]

    @cached_property
    def block_hi(self) -> np.ndarray:
        return self.slots["block_hi"]

    @cached_property
    def flat(self) -> np.ndarray:
        """Every slot's node data stacked, slot ``i`` from
        ``slot_base[i]``."""
        return np.concatenate([b._flat for b in self.blocks], axis=0)

    @cached_property
    def slot_base(self) -> np.ndarray:
        nx, ny, nz = self.dims
        return np.arange(len(self.blocks), dtype=np.int64) * (nx * ny * nz)

    @cached_property
    def offsets(self) -> np.ndarray:
        return corner_offsets(self.dims[1], self.dims[2])

    def sampler(self) -> PoolSampler:
        """The pool's persistent fused sampler (workspaces survive across
        rounds; rebind per round with :meth:`PoolSampler.bind`)."""
        if self._sampler is None:
            self._sampler = PoolSampler(self)
        return self._sampler

    def sampler_for(self, slots: np.ndarray) -> PoolSampler:
        """Velocity function for a fixed per-particle slot assignment.

        Returns a dedicated bound :class:`PoolSampler` (a fresh instance,
        so callers can hold several simultaneously).
        """
        return PoolSampler(self).bind(np.asarray(slots, dtype=np.int64))


@dataclass
class PoolResult:
    """Outcome of one :func:`advance_pool` call."""

    attempted_steps: int = 0
    accepted_steps: int = 0
    #: Active streamlines that left the loaded set; ``line.block_id`` is
    #: their (valid) destination block.
    exited: List[Streamline] = field(default_factory=list)
    terminated: List[Streamline] = field(default_factory=list)
    #: Active streamlines still inside the pool when the round budget ran
    #: out; ``line.block_id`` names their current (pool) block.
    in_pool: List[Streamline] = field(default_factory=list)


def advance_pool(streamlines: Sequence[Streamline], pool: BlockPool,
                 domain: Bounds, decomposition: Decomposition,
                 integrator: Integrator, cfg: IntegratorConfig,
                 max_rounds: Optional[int] = None,
                 round_limit: Optional[int] = None) -> PoolResult:
    """Advance streamlines until each terminates or leaves the pool.

    Every streamline's ``block_id`` must name a block in the pool and its
    position must lie inside that block.

    ``round_limit`` caps the number of lockstep rounds in this call;
    leftover active particles come back in ``result.in_pool`` so callers
    can interleave message handling (the simulated-time analogue of the
    paper's per-streamline loop iteration checking for messages).
    ``max_rounds`` (default ``4 * cfg.max_steps + 64``) bounds them too,
    but exceeding it raises ``RuntimeError``: the step controller is not
    converging.

    DOPRI5 runs the compiled kernel when it is available
    (:mod:`repro.integrate.native`); other integrators, and DOPRI5
    without a compiler, run the NumPy path.  Both give bit-identical
    results.
    """
    lines = list(streamlines)
    result = PoolResult()
    if not lines:
        return result
    if max_rounds is None:
        max_rounds = 4 * cfg.max_steps + 64
    budget = max(0, max_rounds if round_limit is None
                 else min(round_limit, max_rounds))

    # Per-particle state: f holds x, y, z, h, time; n holds steps, slot,
    # fresh (no geometry yet: the seed is the first vertex), code, exit
    # block id, and the vertex count of this call.
    slot_of = pool.slot_of
    h_min, h_max = cfg.h_min, cfg.h_max
    frows = []
    nrows = []
    n_fresh = 0
    vert_cap = 0
    for s in lines:
        if s.status is not Status.ACTIVE:
            raise ValueError(f"streamline {s.sid} is not active "
                             f"({s.status.value})")
        slot = slot_of.get(s.block_id)
        if slot is None:
            raise ValueError(f"streamline {s.sid}: block {s.block_id} "
                             "is not in the pool")
        fresh = not s.segments
        h = s.h if s.h > 0 else cfg.h_init
        if h < h_min:  # np.clip(h, h_min, h_max), passing NaN through
            h = h_min
        elif h > h_max:
            h = h_max
        x, y, z = s.position.tolist()
        frows.append((x, y, z, h, s.time))
        nrows.append((s.steps, slot, fresh, _CODE_ACTIVE, -3, 0))
        n_fresh += fresh
        vert_cap += fresh + min(budget, max(1, cfg.max_steps - s.steps))
    f = np.array(frows, dtype=np.float64)
    n = np.array(nrows, dtype=np.int64)

    kern = native.kernel() if type(integrator) is Dopri5 else None
    if kern is not None:
        verts = np.empty((max(vert_cap, 1), 3), dtype=np.float64)
        params = kern.params(pool.dims, cfg, integrator, domain,
                             decomposition, len(pool), round_limit,
                             max_rounds)
        attempted = kern.advance(params, pool.table, f, n, verts)
        if attempted == -1:
            raise RuntimeError(
                f"advance_pool exceeded {max_rounds} rounds; "
                "step controller is not converging")
        if attempted < 0:
            raise AssertionError("pool kernel vertex buffer overflow")
    else:
        verts, attempted = _numpy_rounds(
            pool, domain, decomposition, integrator, cfg, f, n,
            max_rounds, round_limit)

    nrows = n.tolist()
    n_verts = sum(row[5] for row in nrows)
    if n_verts < len(verts):
        verts = verts[:n_verts].copy()
    result.attempted_steps = attempted
    result.accepted_steps = n_verts - n_fresh

    start = 0
    positions = f[:, :3].copy()
    for s, p, (_, _, _, hv, tv), (steps, slot, _, code, exit_bid, count) \
            in zip(lines, positions, f.tolist(), nrows):
        if count:
            s.append_segment(verts[start:start + count])
            start += count
        s.position = p
        s.h = hv
        s.time = tv
        s.steps = steps
        if code == _CODE_ACTIVE:
            s.block_id = pool.blocks[slot].block_id
            result.in_pool.append(s)
        elif code == _CODE_EXITED:
            s.block_id = exit_bid
            result.exited.append(s)
        else:
            s.terminate(_CODE_TO_STATUS[code])
            result.terminated.append(s)
    return result


def _numpy_rounds(pool: BlockPool, domain: Bounds,
                  decomposition: Decomposition, integrator: Integrator,
                  cfg: IntegratorConfig, f: np.ndarray, n: np.ndarray,
                  max_rounds: int, round_limit: Optional[int]
                  ) -> "tuple[np.ndarray, int]":
    """:func:`advance_pool`'s rounds as batched NumPy arrays.

    The reference implementation, and the only one for integrators other
    than DOPRI5.  Updates ``f`` / ``n`` in place like the compiled kernel
    and returns ``(vertices grouped by particle, attempted steps)``.
    """
    k = len(f)
    # The batch arrays already satisfy the integrator's contract;
    # validation is hoisted here so the round loop can use the prepared
    # fast path.
    pos, h = Integrator.validate_batch(f[:, :3], f[:, 3])
    time = f[:, 4]
    steps = n[:, 0]
    slot = n[:, 1]
    codes = n[:, 3]
    exit_bid = n[:, 4]

    fresh = np.flatnonzero(n[:, 2])
    geom_idx: List[np.ndarray] = [fresh]
    geom_pos: List[np.ndarray] = [pos[fresh]]

    dlo = domain.lo_array
    dhi = domain.hi_array
    h_min_edge = cfg.h_min * (1.0 + 1e-12)
    sampler = pool.sampler()
    attempted = 0

    alive = np.arange(k, dtype=np.int64)
    rounds = 0
    while len(alive):
        if round_limit is not None and rounds >= round_limit:
            break
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                f"advance_pool exceeded {max_rounds} rounds; "
                "step controller is not converging")
        a_slot = slot[alive]
        vel = sampler.bind(a_slot)
        p = pos[alive]
        hh = h[alive]

        new_p, err = integrator.attempt_steps_prepared(vel, p, hh)
        attempted += len(alive)
        if integrator.adaptive:
            accept = err <= 1.0
        else:
            accept = np.ones(len(alive), dtype=bool)

        delta = new_p - p
        disp2 = fast_einsum("kc,kc->k", delta, delta)
        stagnant = accept & (disp2 < (cfg.min_speed * hh) ** 2)
        underflow = (~accept) & (hh <= h_min_edge)

        acc_idx = alive[accept]
        if len(acc_idx):
            accepted_pos = new_p[accept]
            pos[acc_idx] = accepted_pos
            time[acc_idx] += hh[accept]
            steps[acc_idx] += 1
            geom_idx.append(acc_idx)
            geom_pos.append(accepted_pos)

        h[alive] = Integrator.adapt_h(hh, err, integrator.order, cfg)

        # Classification (highest wins: stagnant > underflow > domain
        # exit > budget > block exit).  Particles that stepped out of
        # their block but into another *pool* block switch slots and keep
        # going.
        p_now = pos[alive]
        out_domain = ((p_now < dlo) | (p_now > dhi)).any(axis=1)
        out_block = ((p_now < pool.block_lo[a_slot])
                     | (p_now > pool.block_hi[a_slot])).any(axis=1)
        hit_budget = steps[alive] >= cfg.max_steps

        code = np.zeros(len(alive), dtype=np.int64)
        code = np.where(accept & out_block, _CODE_EXITED, code)
        code = np.where(accept & hit_budget, 3, code)
        code = np.where(accept & out_domain, 2, code)
        code = np.where(underflow, 5, code)
        code = np.where(stagnant, 4, code)

        crossing = code == _CODE_EXITED
        if crossing.any():
            local = np.flatnonzero(crossing)
            cross_global = alive[local]
            bids = decomposition.locate_many(pos[cross_global])
            new_slots = np.array(
                [pool.slot_of.get(int(b), -1) for b in bids],
                dtype=np.int64)
            stay = new_slots >= 0
            slot[cross_global[stay]] = new_slots[stay]
            code[local[stay]] = _CODE_ACTIVE
            leave = ~stay
            exit_bid[cross_global[leave]] = bids[leave]

        stopped = code != _CODE_ACTIVE
        if stopped.any():
            codes[alive[stopped]] = code[stopped]
            alive = alive[~stopped]

    # Group the vertices by particle (one stable sort keeps each
    # particle's chronological order).
    all_idx = np.concatenate(geom_idx)
    order = np.argsort(all_idx, kind="stable")
    n[:, 5] = np.bincount(all_idx, minlength=k)
    return np.concatenate(geom_pos)[order], attempted
