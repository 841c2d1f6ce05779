"""Tests for the fault-injection subsystem (schedule, spec, fault kinds,
per-layer hooks, and the invariant audit)."""

import pytest

from repro.errors import (
    ConfigError,
    FaultError,
    InvariantError,
    MacError,
    ProtocolError,
)
from repro.faults import (
    ControlLoss,
    FaultSchedule,
    LinkDegrade,
    NodeCrash,
    NodeRecover,
    PacketLossBurst,
    parse_fault_spec,
)
from repro.flows.flow import Flow
from repro.flows.traffic import CbrSource
from repro.mac.channel import Channel
from repro.scenarios.spec import RunSpec
from repro.sim.kernel import Simulator
from repro.topology.network import Topology

from helpers import FAST


def figure3_run(**fields):
    """The Figure-3 chain run ``fields`` describe."""
    return RunSpec(scenario="figure3", **fields).run()


# --- schedule validation ------------------------------------------------------


def test_schedule_orders_events_by_time():
    schedule = FaultSchedule(
        [NodeRecover(at=40.0, node=1), NodeCrash(at=20.0, node=1)]
    )
    assert [type(e).__name__ for e in schedule] == ["NodeCrash", "NodeRecover"]


def test_schedule_rejects_negative_time():
    with pytest.raises(FaultError):
        FaultSchedule([NodeCrash(at=-1.0, node=1)])


def test_schedule_rejects_overlapping_crash_windows():
    with pytest.raises(FaultError, match="already down"):
        FaultSchedule([NodeCrash(at=1.0, node=2), NodeCrash(at=2.0, node=2)])


def test_schedule_rejects_recover_without_crash():
    with pytest.raises(FaultError, match="without a preceding crash"):
        FaultSchedule([NodeRecover(at=5.0, node=0)])


def test_schedule_rejects_degrade_with_no_effect():
    with pytest.raises(FaultError, match="loss_rate and/or capacity"):
        FaultSchedule([LinkDegrade(at=1.0, link=(0, 1))])


def test_schedule_rejects_bad_probabilities_and_windows():
    with pytest.raises(FaultError):
        FaultSchedule([LinkDegrade(at=1.0, link=(0, 1), loss_rate=1.5)])
    with pytest.raises(FaultError):
        FaultSchedule([ControlLoss(at=5.0, until=5.0, drop_prob=0.5)])
    with pytest.raises(FaultError):
        FaultSchedule([PacketLossBurst(at=2.0, until=1.0, link=(0, 1), loss_rate=0.5)])


# --- spec parsing --------------------------------------------------------------


def test_parse_full_spec():
    schedule = parse_fault_spec(
        "crash:1@20; recover:1@40; degrade:2-3@10:loss=0.5,cap=120; "
        "restore:2-3@15; ctrl:0.5@10-30; burst:0-1@12-18:loss=0.9"
    )
    kinds = [type(e).__name__ for e in schedule.in_order()]
    assert kinds == [
        "LinkDegrade",
        "ControlLoss",
        "PacketLossBurst",
        "LinkRestore",
        "NodeCrash",
        "NodeRecover",
    ]
    degrade = schedule.in_order()[0]
    assert degrade.link == (2, 3)
    assert degrade.loss_rate == 0.5
    assert degrade.capacity_pps == 120.0


@pytest.mark.parametrize(
    "spec",
    [
        "",
        "crash:1",
        "crash:x@5",
        "explode:1@5",
        "degrade:2-3@10",
        "degrade:2-3@10:gain=2",
        "ctrl:0.5@10",
        "burst:2-3@10-20:cap=5",
    ],
)
def test_parse_rejects_malformed_specs(spec):
    with pytest.raises(FaultError):
        parse_fault_spec(spec)


# --- fault effects + per-layer behavior ---------------------------------------


def test_crash_and_recover_on_fluid_substrate():
    result = figure3_run(
        protocol="gmp",
        substrate="fluid",
        duration=12.0,
        **FAST,
        faults="crash:1@4;recover:1@8",
        seed=3,
    )
    log = result.extras["faults"]
    assert [entry[0] for entry in log] == [4.0, 8.0]
    # Flow 2 sources at the crashed node: it delivers nothing while the
    # node is down but comes back after recovery.
    series = result.interval_rates[2]
    assert series[5] == 0.0  # interval [5, 6): node down
    assert sum(series[9:]) > 0.0  # recovered
    # The audit ran strictly (fluid) and passed.
    assert result.extras["invariants"].ok


def test_stale_nodes_are_exactly_the_crash_notified_set(monkeypatch):
    from repro.core.protocol import GmpProtocol

    seen = []
    boundary = GmpProtocol._on_boundary

    def recording_boundary(self):
        seen.append((self.sim.now, self.stale_nodes()))
        boundary(self)

    monkeypatch.setattr(GmpProtocol, "_on_boundary", recording_boundary)
    figure3_run(
        protocol="gmp", substrate="fluid", duration=12.0,
        **FAST, faults="crash:1@4.2;recover:1@8.2", seed=3,
    )  # fmt: skip
    assert len(seen) > 20
    for now, stale in seen:
        assert stale == ({1} if 4.2 <= now < 8.2 else set()), now


def test_crash_loses_queued_packets_and_accounts_them():
    result = figure3_run(
        protocol="gmp",
        substrate="fluid",
        duration=6.0,
        **FAST,
        faults="crash:1@4",
        seed=3,
    )
    crash_losses = result.extras["crash_losses"]
    assert 1 in crash_losses and sum(crash_losses[1].values()) > 0
    assert result.extras["invariants"].ok


def test_capacity_degrade_rejected_on_dcf():
    with pytest.raises(FaultError, match="capacity"):
        figure3_run(
            protocol="gmp", substrate="dcf", duration=5.0, seed=0, faults="degrade:1-2@1:cap=50"
        )


def test_control_loss_requires_gmp():
    with pytest.raises(FaultError, match="GMP"):
        figure3_run(
            protocol="802.11", substrate="dcf", duration=5.0, seed=0, faults="ctrl:0.5@1-2"
        )


def test_fault_targeting_unknown_node_rejected():
    with pytest.raises(FaultError, match="unknown node 99"):
        figure3_run(protocol="gmp", substrate="fluid", duration=5.0, seed=0,
                    **FAST, faults="crash:99@1")  # fmt: skip


def test_control_loss_drops_requests():
    # The window ends off the period grid so its clearing event cannot
    # race the final period boundary (validate_within caps it at the
    # run's end).
    result = figure3_run(
        protocol="gmp",
        substrate="fluid",
        duration=10.2,
        **FAST,
        faults="ctrl:1@0-10.2",
        seed=1,
    )
    # Every computed request was lost in transit.
    assert result.extras["control_requests_dropped"] > 0
    assert result.extras["requests_issued"] == 0


def test_link_loss_burst_reduces_delivery_on_fluid():
    base = figure3_run(protocol="gmp", substrate="fluid", duration=8.0, **FAST, seed=2)
    lossy = figure3_run(
        protocol="gmp", substrate="fluid", duration=8.0, **FAST, seed=2,
        faults="burst:2-3@1-8:loss=0.8",
    )  # fmt: skip
    # The final hop carries every flow; an 80% loss must show up.
    assert sum(lossy.flow_rates.values()) < 0.7 * sum(base.flow_rates.values())
    assert lossy.extras["invariants"].ok


def test_channel_link_loss_validation():
    sim = Simulator()
    topology = Topology()
    topology.add_nodes([(0.0, 0.0), (100.0, 0.0)])
    channel = Channel(sim, topology)
    with pytest.raises(MacError):
        channel.set_link_loss(0, 1, 1.5)
    channel.set_link_loss(0, 1, 0.25)
    channel.set_link_loss(0, 1, 0.0)  # removes cleanly


def test_stack_crash_guards_double_transitions():
    result = figure3_run(
        protocol="gmp", substrate="fluid", duration=4.0, seed=0,
        **FAST, faults="crash:1@2;recover:1@3",
    )  # fmt: skip
    assert result.extras["invariants"].ok


def test_traffic_source_pause_resume_idempotent():
    sim = Simulator()
    flow = Flow(flow_id=1, source=0, destination=1, desired_rate=100.0)
    admitted = []
    source = CbrSource(sim, flow, lambda packet: admitted.append(packet) or True)
    source.start()
    sim.run(until=0.1)
    count = len(admitted)
    assert count > 0
    source.pause()
    source.pause()  # idempotent
    sim.run(until=0.2)
    assert len(admitted) == count  # nothing offered while paused
    source.resume()
    source.resume()  # idempotent
    sim.run(until=0.3)
    assert len(admitted) > count


def test_stack_crash_recover_error_paths():
    result = figure3_run(
        protocol="gmp", substrate="fluid", duration=2.0, seed=0, **FAST, faults="crash:1@1"
    )
    assert result.extras["invariants"].ok


# --- invariant audit ------------------------------------------------------------


def test_invariant_audit_balances_on_clean_fluid_run():
    result = RunSpec(
        scenario="figure3", protocol="gmp", substrate="fluid", duration=6.0, seed=0, **FAST
    ).run(check_invariants=True)
    report = result.extras["invariants"]
    assert report.ok
    for audit in report.flows.values():
        assert audit.residual == 0
        assert audit.injected > 0


def test_invariant_audit_detects_imbalance():
    result = figure3_run(protocol="gmp", substrate="fluid", duration=4.0, seed=0, **FAST)
    report = result.extras["invariants"]
    assert report.ok
    # Sabotage one ledger: the report must notice and check() must raise.
    report.flows[1].delivered += 7
    assert not report.ok
    assert any("residual" in text for text in report.violations())
    with pytest.raises(InvariantError, match="flow 1"):
        report.check()


def test_invariant_audit_relaxed_on_dcf():
    result = figure3_run(protocol="802.11", substrate="dcf", duration=3.0, seed=0)
    report = result.extras["invariants"]
    assert report.strict is False
    assert report.ok  # sign checks still apply


def test_gmp_protocol_control_loss_validation():
    # drop_prob range is validated at the schedule layer already;
    # exercise the protocol-level guard directly.
    result = figure3_run(
        protocol="gmp", substrate="fluid", duration=2.0, seed=0, **FAST, faults="ctrl:0.5@0-1"
    )
    assert result.extras["invariants"].ok


def test_double_crash_without_recover_is_schedule_error():
    with pytest.raises(FaultError):
        FaultSchedule(
            [NodeCrash(at=1.0, node=1), NodeCrash(at=2.0, node=1)]
        )


def test_protocol_rejects_unknown_node_notifications():
    from repro.core.protocol import GmpProtocol  # noqa: F401  (API presence)

    result = figure3_run(
        protocol="gmp", substrate="fluid", duration=2.0, seed=0,
        **FAST, faults="crash:2@0.5;recover:2@1",
    )  # fmt: skip
    assert [text for _t, text in result.extras["faults"]]


def test_interval_rates_cover_whole_run():
    result = figure3_run(
        protocol="gmp", substrate="fluid", duration=6.0, seed=0, **FAST, rate_interval=1.0
    )
    assert result.rate_interval == 1.0
    for series in result.interval_rates.values():
        assert len(series) == 6


def test_sub_second_fault_run_defaults_rate_interval_to_its_duration():
    """The implicit 1 s sampling window shrinks to a shorter run instead
    of failing a range check on a value the caller never set.  (The
    fault drops nothing: an empty schedule has no DSL text.)"""
    run = dict(protocol="gmp", substrate="fluid", duration=0.5, seed=0, faults="ctrl:0@0-0.5")
    result = figure3_run(**run)
    assert result.rate_interval == 0.5
    assert result.interval_bounds == [0.5]
    with pytest.raises(ConfigError, match="rate_interval 1.0 must lie within"):
        figure3_run(**run, rate_interval=1.0)


def test_stack_crash_twice_raises():
    from repro.buffers.backpressure import OracleGate
    from repro.buffers.queues import PerDestinationBuffer
    from repro.mac.fluid import FluidMac
    from repro.stack import NodeStack

    sim = Simulator()
    topology = Topology()
    topology.add_nodes([(0.0, 0.0), (100.0, 0.0)])
    mac = FluidMac(sim, topology)
    gate = OracleGate(lambda neighbor, dest: True)
    stack = NodeStack(
        sim, 0,
        PerDestinationBuffer(0, lambda dest: dest, gate),
        mac,
    )
    stack.attach()
    stack.crash()
    with pytest.raises(ProtocolError):
        stack.crash()
    stack.recover()
    with pytest.raises(ProtocolError):
        stack.recover()


# --- window-overlap and run-duration validation --------------------------------


def test_schedule_rejects_overlapping_control_loss_windows():
    with pytest.raises(FaultError, match="overlapping control-loss"):
        FaultSchedule(
            [
                ControlLoss(at=10.0, until=20.0, drop_prob=0.5),
                ControlLoss(at=15.0, until=25.0, drop_prob=0.9),
            ]
        )


def test_schedule_rejects_overlapping_bursts_on_one_link():
    # The same physical link in either direction is one target.
    with pytest.raises(FaultError, match="overlapping loss-burst"):
        FaultSchedule(
            [
                PacketLossBurst(at=5.0, until=12.0, link=(0, 1), loss_rate=0.5),
                PacketLossBurst(at=10.0, until=15.0, link=(1, 0), loss_rate=0.5),
            ]
        )


def test_schedule_allows_disjoint_and_cross_target_windows():
    FaultSchedule(
        [
            ControlLoss(at=10.0, until=20.0, drop_prob=0.5),
            ControlLoss(at=20.0, until=30.0, drop_prob=0.9),  # back-to-back ok
            PacketLossBurst(at=12.0, until=18.0, link=(0, 1), loss_rate=0.5),
            PacketLossBurst(at=12.0, until=18.0, link=(1, 2), loss_rate=0.5),
        ]
    )


def test_validate_within_rejects_late_events():
    schedule = parse_fault_spec("crash:1@20;recover:1@40")
    schedule.validate_within(40.0)  # at == duration is allowed
    with pytest.raises(FaultError, match="beyond the run"):
        schedule.validate_within(30.0)
    windowed = parse_fault_spec("ctrl:0.5@10-35")
    with pytest.raises(FaultError, match="extends past"):
        windowed.validate_within(30.0)


def test_runner_rejects_faults_past_the_run_end():
    with pytest.raises(FaultError, match="beyond the run"):
        figure3_run(
            protocol="gmp",
            substrate="fluid",
            duration=10.0,
            seed=1,
            **FAST,
            faults="crash:1@20;recover:1@40",
        )
