"""Serial reference integration (no simulator, no parallel algorithm).

Two uses:

* validating the distributed algorithms — every algorithm must produce the
  same curves as this reference, because parallelization must not change
  the numerics (only *where* each block-resident stretch is computed);
* examples that just want streamline geometry for a picture.

``integrate_single`` runs one curve at a time across the block-decomposed
dataset: locate the containing block, advance within it via the same
:func:`~repro.integrate.pooled.advance_pool` kernel the parallel
algorithms use (on a one-block pool), hop to the block the curve exits
into, repeat.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.fields.base import VectorField
from repro.fields.sampling import sample_block
from repro.integrate.base import Integrator
from repro.integrate.config import IntegratorConfig
from repro.integrate.dopri5 import Dopri5
from repro.integrate.pooled import BlockPool, advance_pool
from repro.integrate.streamline import Status, Streamline, make_streamlines
from repro.mesh.block import Block
from repro.mesh.decomposition import Decomposition


def integrate_single(field: VectorField, decomposition: Decomposition,
                     seeds: np.ndarray,
                     cfg: Optional[IntegratorConfig] = None,
                     integrator: Optional[Integrator] = None,
                     blocks: Optional[Dict[int, Block]] = None
                     ) -> List[Streamline]:
    """Integrate streamlines serially over a block-decomposed field.

    Parameters
    ----------
    field:
        The analytic field; blocks are sampled from it on first touch
        unless ``blocks`` provides them.
    decomposition:
        Block layout of the domain.
    seeds:
        ``(k, 3)`` seed points.  Seeds outside the domain produce
        streamlines terminated immediately with ``OUT_OF_BOUNDS``.
    blocks:
        Optional pre-sampled blocks (shared with callers to avoid
        re-sampling in tests).

    Returns
    -------
    The finished streamlines, in seed order.
    """
    cfg = cfg or IntegratorConfig()
    integrator = integrator or Dopri5(rtol=cfg.rtol, atol=cfg.atol)
    cache: Dict[int, Block] = blocks if blocks is not None else {}
    lines = make_streamlines(seeds)

    for line in lines:
        bid = int(decomposition.locate(line.position))
        if bid < 0:
            line.terminate(Status.OUT_OF_BOUNDS)
            continue
        line.block_id = bid
        while line.status is Status.ACTIVE:
            # An exit leaves block_id naming the (in-domain) block the
            # curve crossed into.
            block = cache.get(line.block_id)
            if block is None:
                block = sample_block(field,
                                     decomposition.info(line.block_id))
                cache[line.block_id] = block
            advance_pool([line], BlockPool([block]), decomposition.domain,
                         decomposition, integrator, cfg)
    return lines
