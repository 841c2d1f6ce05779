"""Whole-run differential: polling the backlogged set == polling every
node.

A fluid round asks only the nodes that may hold a packet (entered on
``notify_backlog``, dropped once proven empty).  The wrapper below
re-polls *every* attached node the way the round used to, each round of
a real run, and requires the same ``(link, demand)`` vector and the
same idle verdict — through crashes, recoveries and flows grafted onto
nodes that had gone quiet.
"""

from repro.churn.spec import ChurnSpec
from repro.faults.spec import parse_fault_spec
from repro.mac.fluid import FluidMac
from repro.scenarios.figures import figure3
from repro.scenarios.runner import run_scenario
from repro.scenarios.scale import scale300


def poll_every_node(mac: FluidMac):
    """The ``(link, demand)`` vector and idle verdict of a round that
    polls every attached node."""
    down, interval, capacity = mac._down, mac.round_interval, mac.capacity_pps
    quantized = []
    for node_id in sorted(mac._services):
        if node_id in down:
            continue
        for a_link, count in mac._services[node_id].eligible_links().items():
            if count > 0 and a_link[1] not in down:
                demand = count / interval
                if demand > capacity and mac.system.memberships.get(a_link):
                    demand = capacity
                quantized.append((a_link, demand))
    idle = not quantized and all(
        services.has_pending is not None and not services.has_pending()
        for services in mac._services.values()
    )
    return quantized, idle


class PollAudit:
    """Checks every round against the full poll; remembers which nodes
    each round had in the backlogged set."""

    def __init__(self, monkeypatch):
        self.members: list[frozenset[int]] = []
        self.macs: list[FluidMac] = []
        solve = FluidMac._allocate_quantized

        def checked(mac, quantized):
            # Called right after the round's polling pass, before any
            # packet moves.
            if mac not in self.macs:
                self.macs.append(mac)
            assert (quantized, mac._idle) == poll_every_node(mac)
            self.members.append(frozenset(mac._backlogged))
            return solve(mac, quantized)

        monkeypatch.setattr(FluidMac, "_allocate_quantized", checked)

    def rejoined(self) -> set[int]:
        """Nodes that left the backlogged set and later came back."""
        seen: set[int] = set()
        left: set[int] = set()
        back: set[int] = set()
        for members in self.members:
            left |= seen - members
            back |= left & members
            seen |= members
        return back


def test_backlogged_polling_equals_full_polling_on_churned_faulted_figure3(
    monkeypatch,
):
    audit = PollAudit(monkeypatch)
    result = run_scenario(
        figure3(),
        protocol="gmp",
        substrate="fluid",
        duration=30.0,
        seed=1,
        churn=ChurnSpec(rate=0.5, mean_hold=4.0, max_flows=4),
        faults=parse_fault_spec(
            "degrade:2-3@4:loss=0.3,cap=120;restore:2-3@9;crash:1@12;recover:1@18"
        ),
    )
    (mac,) = audit.macs
    assert len(audit.members) + mac.rounds_skipped == 1500
    assert result.extras["churn"].arrivals > 0

    # The crashed node was drained, proven empty and dropped; it came
    # back when it recovered (its sources resumed).
    assert 1 in audit.rejoined() and 1 in audit.members[-1]

    # A churned flow was grafted onto a node that had left the set.
    starts = {
        result.extras["flow_paths"][flow_id][0][0]
        for flow_id in result.flow_lifetimes
    }
    assert starts & (audit.rejoined() - {1})
    # Pure sinks hold nothing and are not polled.
    assert min(len(members) for members in audit.members) < len(mac._services)


def test_backlogged_polling_equals_full_polling_on_four_seconds_of_scale300(
    monkeypatch,
):
    audit = PollAudit(monkeypatch)
    run_scenario(
        scale300(),
        protocol="gmp",
        substrate="fluid",
        duration=4.0,
        seed=1,
        churn=ChurnSpec(rate=2.0, mean_hold=1.0, start=1.0),
    )
    (mac,) = audit.macs
    # 4 sim-s of 20 ms rounds; the round due at t = 4.0 is past the end.
    assert len(audit.members) == 199 and mac.rounds_skipped == 0
    # The round is sized by traffic: all 300 nodes are looked at once
    # (nothing is known before), then only the ones left holding packets.
    assert max(len(members) for members in audit.members) < 100
    assert audit.rejoined()
