"""Behaviour fence for every buffer policy on both substrates.

The golden replay digest covers GMP on the fluid substrate only.  These
fingerprints pin short runs of each queueing policy — GMP's
per-destination queues, plain 802.11's shared FIFO, 2PP's per-flow
queues and the shared backpressure queue — on the fluid and DCF
substrates, plus scale300: dispatched events, buffer and MAC drops and
a digest of the per-flow rates.  They were recorded before the
per-packet path stopped building packets for refused offers, so any
change to what a run simulates shows here.

Every row also pins the L0 replay digest (every dispatched event's
time, priority, tag and handler name).  The DCF digests were recorded
before DCF timers re-keyed their events in place and the channel
replayed per-sender delivery plans; the fluid ones before source ticks
drew Poisson gaps from a block and refilled their token bucket once
per tick.  The disrupted rows add flow churn — Poisson arrivals whose
flows send Poisson, on/off or Pareto on/off traffic — and, on the
``churn-faults`` rows, link loss and a crash / recover: the paths that
pause, resume and stop sources, cancel all seven DCF timers and abort
frames in flight.
"""

import hashlib

import pytest

from repro.churn.spec import ChurnSpec, replace
from repro.faults.spec import parse_fault_spec
from repro.scenarios.runner import run_scenario
from repro.scenarios.sweep import SCENARIO_FACTORIES
from repro.sim.replay import ReplaySanitizer

CHURN = ChurnSpec(rate=1.0, mean_hold=2.0, max_flows=4)

DISRUPTIONS = {
    None: {},
    "churn-faults": {
        "churn": CHURN,
        "faults": parse_fault_spec(
            "degrade:2-3@1:loss=0.3;restore:2-3@2;crash:1@3;recover:1@4"
        ),
    },
    "churn-onoff": {"churn": replace(CHURN, traffic="onoff")},
    "churn-pareto-onoff": {"churn": replace(CHURN, traffic="pareto-onoff")},
}

FINGERPRINTS = [
    # scenario, protocol, substrate, seconds, disruption, events, buffer
    # drops, MAC drops, sha256 prefix of the per-flow rates, replay
    # digest prefix
    ("figure3", "gmp", "fluid", 20.0, None, 31940, 0, 0, "d78be9a8849085b9", "4979c31d4f01541d"),
    ("figure3", "gmp", "fluid", 20.0, "churn-faults", 39826, 0, 43, "d46926bc40de33a4", "6ae981973a7b3f7d"),
    ("figure3", "gmp", "fluid", 20.0, "churn-onoff", 38710, 0, 0, "babcf5308383e26b", "4c491bfc46560fe5"),
    ("figure3", "gmp", "fluid", 20.0, "churn-pareto-onoff", 48676, 0, 0, "5e6099b276407323", "9ad97e93a6c5b7dc"),
    ("figure3", "gmp", "dcf", 2.0, None, 18573, 0, 0, "3574e2ccb874d3bb", "ca997a36321778d0"),
    ("figure3", "gmp", "dcf", 5.0, "churn-faults", 43593, 0, 40, "a1af3bb1fef80f0c", "4c13e66f71bfe871"),
    ("figure3", "802.11", "fluid", 20.0, None, 49001, 1964, 0, "9c6a62dfbb98eee5", "0a9a44c5b676fd32"),
    ("figure3", "802.11", "dcf", 2.0, None, 21393, 782, 0, "8d63b8d96626eb14", "6b449e11c7e1d677"),
    ("figure3", "2pp", "fluid", 20.0, None, 9748, 0, 0, "04e97b12c62acc3a", "42eb32a932888ad0"),
    ("figure3", "2pp", "dcf", 2.0, None, 15211, 0, 0, "4021af641b14ab28", "3b5df51c6697488b"),
    ("figure3", "backpressure-shared", "fluid", 20.0, None, 49001, 0, 0, "9c6a62dfbb98eee5", "0a9a44c5b676fd32"),
    ("figure3", "backpressure-shared", "dcf", 2.0, None, 18572, 0, 0, "3574e2ccb874d3bb", "dd7b3dbc578cdcbf"),
    ("scale300", "gmp", "fluid", 2.0, None, 14501, 0, 0, "2ee406f3e701d778", "30da0b02d53170f9"),
]


@pytest.mark.parametrize(
    "scenario, protocol, substrate, seconds, disruption, events, buffer_drops, "
    "mac_drops, rates, replay",
    FINGERPRINTS,
    ids=[
        f"{row[0]}-{row[1]}-{row[2]}" + (f"-{row[4]}" if row[4] else "")
        for row in FINGERPRINTS
    ],
)
def test_run_matches_its_fingerprint(
    scenario,
    protocol,
    substrate,
    seconds,
    disruption,
    events,
    buffer_drops,
    mac_drops,
    rates,
    replay,
):
    sanitizer = ReplaySanitizer(journal_limit=0)
    result = run_scenario(
        SCENARIO_FACTORIES[scenario](),
        protocol=protocol,
        substrate=substrate,
        duration=seconds,
        seed=1,
        sanitizer=sanitizer,
        **DISRUPTIONS[disruption],
    )
    flow_rates = "|".join(f"{flow}:{rate!r}" for flow, rate in sorted(result.flow_rates.items()))
    assert result.extras["events_processed"] == events
    assert (result.buffer_drops, result.mac_drops) == (buffer_drops, mac_drops)
    assert hashlib.sha256(flow_rates.encode()).hexdigest()[:16] == rates
    assert sanitizer.hexdigest()[:16] == replay
    if disruption:
        assert result.extras["churn"].arrivals > 0
    if disruption == "churn-faults":
        assert len(result.extras["faults"]) == 4
