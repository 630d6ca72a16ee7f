"""A loaded block: metadata plus node-centred vector data.

Blocks are produced by the :class:`~repro.storage.store.BlockStore` (which
models reading them from the parallel filesystem) and held in per-rank LRU
caches.  Data is a ``(nx, ny, nz, 3)`` float64 array of node-centred vectors;
neighbouring blocks share their boundary nodes so interpolation is continuous
across faces without ghost layers (ghost support exists for algorithms that
want one-cell overlap).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import BlockInfo
from repro.mesh.interpolate import corner_offsets, trilinear, trilinear_nodes

#: Layout of :attr:`Block.slot_row`: data address, block id, sampling
#: origin and scale (node coordinates are ``(p - lo) * scale``), and the
#: block bounds' lo and hi corners.
SLOT_ROW = struct.Struct("<Qq12d")


@dataclass
class Block:
    """One resident block of vector data."""

    info: BlockInfo
    data: np.ndarray  # (nx, ny, nz, 3) node-centred vectors
    ghost_layers: int = 0

    def __post_init__(self) -> None:
        expected = self.info.node_dims
        g = self.ghost_layers
        want = tuple(n + 2 * g for n in expected) + (3,)
        if self.data.shape != want:
            raise ValueError(
                f"block {self.info.block_id}: data shape {self.data.shape} "
                f"!= expected {want} (node_dims={expected}, ghost={g})")
        if self.data.dtype != np.float64:
            raise ValueError(f"block data must be float64, "
                             f"got {self.data.dtype}")
        # Precompute the affine map point -> continuous node coordinates
        # and a flat view of the data: the velocity sampler runs inside
        # every Runge-Kutta stage, so it must be lean.
        sb = self.sample_bounds
        dims = self.data.shape[:3]
        size = sb.hi_array - sb.lo_array
        self._lo = sb.lo_array
        self._node_scale = (np.asarray(dims, dtype=np.float64) - 1.0) / size
        self._node_max = np.asarray(dims, dtype=np.float64) - 1.0
        self._flat = np.ascontiguousarray(self.data).reshape(-1, 3)
        self._dims = (int(dims[0]), int(dims[1]), int(dims[2]))
        self._offsets = corner_offsets(self._dims[1], self._dims[2])

    @cached_property
    def slot_row(self) -> bytes:
        """This block's row of a ``BlockPool`` slot table (``SLOT_ROW``).

        It holds the address of :attr:`_flat` in this process, so it is
        dropped when the block is pickled.
        """
        return SLOT_ROW.pack(
            self._flat.ctypes.data, self.block_id, *self._lo,
            *self._node_scale, *self.info.bounds.lo_array,
            *self.info.bounds.hi_array)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("slot_row", None)
        return state

    @property
    def block_id(self) -> int:
        return self.info.block_id

    @property
    def bounds(self) -> Bounds:
        return self.info.bounds

    @property
    def sample_bounds(self) -> Bounds:
        """Bounds of the stored samples, including ghost layers."""
        if self.ghost_layers == 0:
            return self.info.bounds
        spacing = self.info.bounds.size / (
            np.asarray(self.info.node_dims, dtype=float) - 1.0)
        margin = spacing * self.ghost_layers
        lo = self.info.bounds.lo_array - margin
        hi = self.info.bounds.hi_array + margin
        return Bounds.from_arrays(lo, hi)

    @property
    def nbytes_actual(self) -> int:
        """Real in-process memory of the data array."""
        return int(self.data.nbytes)

    def velocity(self, points: np.ndarray) -> np.ndarray:
        """Trilinear sample of the vector field at ``points``.

        ``points`` has shape ``(k, 3)`` (or ``(3,)``); points epsilon
        outside :attr:`sample_bounds` clamp to the boundary values.
        Returns ``(k, 3)`` (or ``(3,)``).
        """
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        if single:
            pts = pts.reshape(1, 3)
        f = (pts - self._lo) * self._node_scale
        np.minimum(f, self._node_max, out=f)
        np.maximum(f, 0.0, out=f)
        out = trilinear_nodes(self._flat, self._dims, self._offsets,
                              f[:, 0], f[:, 1], f[:, 2])
        return out[0] if single else out

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Mask of points inside this block's (non-ghost) bounds."""
        return self.info.bounds.contains(points)
