"""Behaviour fence for every buffer policy on both substrates.

The golden replay digest covers GMP on the fluid substrate only.  These
fingerprints pin short runs of each queueing policy — GMP's
per-destination queues, plain 802.11's shared FIFO, 2PP's per-flow
queues and the shared backpressure queue — on the fluid and DCF
substrates, plus scale300: dispatched events, buffer and MAC drops and
a digest of the per-flow rates.  They were recorded before the
per-packet path stopped building packets for refused offers, so any
change to what a run simulates shows here.
"""

import hashlib

import pytest

from repro.scenarios.runner import run_scenario
from repro.scenarios.sweep import SCENARIO_FACTORIES

FINGERPRINTS = [
    # scenario, protocol, substrate, seconds, events, buffer drops,
    # MAC drops, sha256 prefix of the per-flow rates
    ("figure3", "gmp", "fluid", 20.0, 31940, 0, 0, "d78be9a8849085b9"),
    ("figure3", "gmp", "dcf", 2.0, 18573, 0, 0, "3574e2ccb874d3bb"),
    ("figure3", "802.11", "fluid", 20.0, 49001, 1964, 0, "9c6a62dfbb98eee5"),
    ("figure3", "802.11", "dcf", 2.0, 21393, 782, 0, "8d63b8d96626eb14"),
    ("figure3", "2pp", "fluid", 20.0, 9748, 0, 0, "04e97b12c62acc3a"),
    ("figure3", "2pp", "dcf", 2.0, 15211, 0, 0, "4021af641b14ab28"),
    ("figure3", "backpressure-shared", "fluid", 20.0, 49001, 0, 0, "9c6a62dfbb98eee5"),
    ("figure3", "backpressure-shared", "dcf", 2.0, 18572, 0, 0, "3574e2ccb874d3bb"),
    ("scale300", "gmp", "fluid", 2.0, 14501, 0, 0, "2ee406f3e701d778"),
]


@pytest.mark.parametrize(
    "scenario, protocol, substrate, seconds, events, buffer_drops, mac_drops, rates",
    FINGERPRINTS,
    ids=[f"{row[0]}-{row[1]}-{row[2]}" for row in FINGERPRINTS],
)
def test_run_matches_its_fingerprint(
    scenario, protocol, substrate, seconds, events, buffer_drops, mac_drops, rates
):
    result = run_scenario(
        SCENARIO_FACTORIES[scenario](),
        protocol=protocol,
        substrate=substrate,
        duration=seconds,
        seed=1,
    )
    flow_rates = "|".join(f"{flow}:{rate!r}" for flow, rate in sorted(result.flow_rates.items()))
    assert result.extras["events_processed"] == events
    assert (result.buffer_drops, result.mac_drops) == (buffer_drops, mac_drops)
    assert hashlib.sha256(flow_rates.encode()).hexdigest()[:16] == rates
