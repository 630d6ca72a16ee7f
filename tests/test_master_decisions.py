"""Pin the hybrid master's instruction stream.

End-of-run metrics can stay equal while the master's decisions drift
(two different assignment orders may happen to produce the same totals),
so these tests hash the master's full decision trace instead: every
``assign``, ``load_rule``, ``send_force`` and ``send_hint`` event with
its simulated time, rank and fields.  A change to the master rules or
their bookkeeping that is meant to be a pure speed-up must leave every
digest unchanged.

Each problem runs with both rule orders: the default locality-biased one
and the literal §4.3 order (``locality_bias=False``), which exercises
Send_force, the N_L load rule and Send_hint far more often.
"""

import hashlib
import json

import pytest

from repro.analysis.scenarios import make_problem, scenario_machine
from repro.core.config import HybridConfig
from repro.core.driver import run_streamlines
from repro.sim.trace import Trace

DECISIONS = ("assign", "load_rule", "send_force", "send_hint")

# (seeding, ranks, slaves_per_master, locality_bias) -> sha256 of the
# decision stream at scale 0.1.  Sparse on 64 ranks with W = 15 runs
# 4 masters; dense on 8 ranks runs one.
EXPECTED = {
    ("sparse", 64, 15, True):
        "dfb53fc33d569ca0525c9a9bdf00a73b53ffa4fd01c6cc4e267028ba791703ed",
    ("dense", 8, 32, True):
        "d8115cf9cf35ab604eab273952985b5bde74c389e9ef3431b8f31d68d722c024",
    ("sparse", 64, 15, False):
        "c4e9d5ef7265240e229aa393c7ef49a1f8eb8efc5dfc9b97b7d057f673362c51",
    ("dense", 8, 32, False):
        "e866b261fa1fe004621c4ecaa94941e2e7e4dd0eb3144b11e7c4a81465024c48",
}


def decision_digest(seeding, ranks, slaves_per_master, locality_bias):
    cfg = HybridConfig(slaves_per_master=slaves_per_master,
                       locality_bias=locality_bias)
    trace = Trace(enabled=True)
    run_streamlines(make_problem("astro", seeding, 0.1), algorithm="hybrid",
                    machine=scenario_machine(ranks), hybrid=cfg,
                    trace=trace)
    h = hashlib.sha256()
    kinds = set()
    for rec in trace:
        if rec.event in DECISIONS:
            kinds.add(rec.event)
            h.update(json.dumps(rec.as_dict(), sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest(), kinds


@pytest.mark.parametrize("key", sorted(EXPECTED), ids=lambda k: "-".join(
    map(str, k)))
def test_master_decision_stream_is_pinned(key):
    digest, kinds = decision_digest(*key)
    assert kinds == set(DECISIONS)  # every rule actually fires
    assert digest == EXPECTED[key]
