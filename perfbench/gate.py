"""Correctness gate applied to every pass of the benchmark.

A run that fails any check here counts as failed.  Simulated runs are
checked against three references:

* the other algorithms of the same pass: every streamline id must have
  the same status, the same step count and bit-identical vertices;
* a serial re-integration of a fixed sample of seeds with
  ``integrate_single``, bit for bit;
* the first pass: the simulated wall clock, messages sent and blocks
  loaded of each algorithm must not change between passes;

and, at the canonical seed, the committed ``BENCH_20260806.json``
entries.  Sweep outcomes are checked entry by entry against
``BENCH_20260806_all.json``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

#: Fields of a committed bench entry that an untraced, recorder-off run
#: must reproduce exactly.
BENCH_FIELDS = ("wall_clock", "io_time", "comm_time", "block_efficiency")

#: Every this-many-th seed is re-integrated serially.
SERIAL_STRIDE = 25

#: The sweep entry whose expected status is the simulated OOM.
OOM_PROBE_SUFFIX = "-oomprobe"


def same_line(a: Any, b: Any) -> bool:
    """Same status, step count and bit-identical vertices."""
    return (a.status == b.status and a.steps == b.steps
            and np.array_equal(a.vertices(), b.vertices()))


def mismatched_lines(lines: Sequence[Any], reference: Sequence[Any],
                     sids: Optional[Sequence[int]] = None) -> List[int]:
    """Streamline ids whose curve differs from ``reference``.

    ``reference[i]`` is compared with the line of id ``sids[i]`` (all
    ids in order when ``sids`` is None)."""
    if sids is None:
        sids = range(len(reference))
        if len(lines) != len(reference):
            return [-1]
    return [sid for sid, ref in zip(sids, reference)
            if sid >= len(lines) or lines[sid].sid != sid
            or not same_line(lines[sid], ref)]


def sim_signature(result: Any) -> tuple:
    return (result.status, result.wall_clock, result.messages_sent,
            result.blocks_loaded)


def run_errors(result: Any, pass_reference: Optional[Any],
               serial: Sequence[Any], first_pass: Optional[tuple],
               committed: Optional[Mapping[str, Any]]) -> List[str]:
    """Reasons one simulated run fails the gate (empty when it passes).

    ``pass_reference`` is the run of the pass's first algorithm (None
    for that run itself), ``first_pass`` the :func:`sim_signature` of the
    same algorithm's run in the first pass, ``committed`` the BENCH entry
    at the canonical seed."""
    errors: List[str] = []
    if result.status != "ok":
        return [f"status {result.status}"]
    lines = result.streamlines
    if pass_reference is None:
        bad = mismatched_lines(lines, serial,
                               range(0, len(lines), SERIAL_STRIDE))
        if bad:
            errors.append(f"serial reference differs on ids {bad[:5]}")
    else:
        bad = mismatched_lines(lines, pass_reference.streamlines)
        if bad:
            errors.append(f"{len(bad)} curves differ from "
                          f"{pass_reference.algorithm}")
    if first_pass is not None and sim_signature(result) != first_pass:
        errors.append("simulated clock/messages/blocks changed "
                      "between passes")
    if committed is not None:
        for name in BENCH_FIELDS:
            if getattr(result, name) != committed.get(name):
                errors.append(f"{name} {getattr(result, name)!r} != "
                              f"committed {committed.get(name)!r}")
    return errors


def canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def sweep_errors(outcome: Any, committed: Mapping[str, str]) -> List[str]:
    """Reasons one sweep outcome fails the gate.

    ``committed`` maps run names to the canonical JSON of the committed
    entry.  The OOM probe passes only with status ``oom``."""
    from repro.obs import jsonable

    name = outcome.spec.name
    if outcome.failed:
        return [f"{outcome.status}: {outcome.error.strip()[-200:]}"]
    entry = jsonable(outcome.payload)
    want = "oom" if name.endswith(OOM_PROBE_SUFFIX) else "ok"
    errors = []
    status = entry.get("status") if isinstance(entry, dict) else None
    if status != want:
        errors.append(f"status {status!r}, expected {want!r}")
    if canonical_json(entry) != committed.get(name):
        errors.append("entry differs from the committed snapshot")
    return errors


def committed_sweep(path) -> Dict[str, str]:
    with open(path, encoding="utf-8") as f:
        runs = json.load(f)["runs"]
    return {name: canonical_json(entry) for name, entry in runs.items()}
