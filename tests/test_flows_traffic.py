"""Tests for traffic sources driving the simulation kernel."""

import pytest

from repro.errors import FlowError
from repro.flows.flow import Flow
from repro.flows.traffic import CbrSource, OnOffSource, PoissonSource
from repro.sim.kernel import Simulator


def make_flow(rate=100.0):
    return Flow(flow_id=1, source=0, destination=1, desired_rate=rate)


def run_source(source_cls, duration=2.0, admit=None, rate_limit=None, **kwargs):
    sim = Simulator(seed=1)
    flow = make_flow()
    accepted = []
    admit = admit or (lambda packet: accepted.append(packet) or True)
    source = source_cls(sim, flow, admit, **kwargs)
    if rate_limit is not None:
        source.set_rate_limit(rate_limit)
    source.start()
    sim.run(until=duration)
    return source, accepted


def test_cbr_generates_at_desired_rate():
    source, accepted = run_source(CbrSource, duration=2.0)
    # 100 pps over 2 s: one tick at t=0 plus one every 10 ms.
    assert len(accepted) == pytest.approx(200, abs=2)
    assert source.admitted == len(accepted)
    assert source.rejected == 0


def test_cbr_respects_rate_limit():
    source, accepted = run_source(CbrSource, duration=2.0, rate_limit=25.0)
    assert len(accepted) == pytest.approx(50, abs=3)
    assert source.limited > 0


def test_rate_limit_can_be_raised_mid_run():
    sim = Simulator(seed=1)
    flow = make_flow(rate=100.0)
    accepted = []
    source = CbrSource(sim, flow, lambda packet: accepted.append(packet) or True)
    source.set_rate_limit(10.0)
    source.start()
    sim.run(until=1.0)
    low_phase = len(accepted)
    source.set_rate_limit(100.0)
    sim.run(until=2.0)
    high_phase = len(accepted) - low_phase
    assert low_phase == pytest.approx(10, abs=2)
    assert high_phase == pytest.approx(100, abs=3)


def test_removing_rate_limit_restores_desired_rate():
    sim = Simulator(seed=1)
    flow = make_flow(rate=100.0)
    count = [0]

    def admit(_packet):
        count[0] += 1
        return True

    source = CbrSource(sim, flow, admit)
    source.set_rate_limit(10.0)
    source.start()
    sim.run(until=1.0)
    source.set_rate_limit(None)
    assert source.rate_limit is None
    sim.run(until=2.0)
    assert count[0] == pytest.approx(110, abs=4)


def test_rejected_packets_are_counted_not_admitted():
    source, _ = run_source(CbrSource, duration=1.0, admit=lambda packet: False)
    assert source.admitted == 0
    assert source.rejected == pytest.approx(100, abs=2)


def test_on_generate_hook_sees_admitted_packets():
    sim = Simulator(seed=1)
    flow = make_flow()
    stamped = []
    source = CbrSource(
        sim, flow, lambda packet: True, on_generate=lambda packet: stamped.append(packet)
    )
    source.start()
    sim.run(until=0.5)
    assert len(stamped) == source.admitted > 0


def test_source_cannot_start_twice():
    sim = Simulator()
    source = CbrSource(sim, make_flow(), lambda packet: True)
    source.start()
    with pytest.raises(FlowError):
        source.start()


def test_set_rate_limit_rejects_non_positive():
    sim = Simulator()
    source = CbrSource(sim, make_flow(), lambda packet: True)
    with pytest.raises(FlowError):
        source.set_rate_limit(0.0)


def test_poisson_mean_rate_close_to_desired():
    source, accepted = run_source(PoissonSource, duration=10.0)
    assert len(accepted) == pytest.approx(1000, rel=0.15)


def test_poisson_is_reproducible_across_runs():
    _, first = run_source(PoissonSource, duration=3.0)
    _, second = run_source(PoissonSource, duration=3.0)
    assert [p.created_at for p in first] == [p.created_at for p in second]


def test_onoff_long_run_rate_close_to_desired():
    source, accepted = run_source(OnOffSource, duration=60.0)
    assert len(accepted) == pytest.approx(60 * 100, rel=0.35)


def test_onoff_rejects_bad_parameters():
    sim = Simulator()
    with pytest.raises(FlowError):
        OnOffSource(sim, make_flow(), lambda packet: True, mean_on=0.0)


def test_packets_carry_flow_metadata():
    _, accepted = run_source(CbrSource, duration=0.1)
    packet = accepted[0]
    assert packet.flow_id == 1
    assert packet.source == 0
    assert packet.destination == 1
    assert packet.size_bytes == 1024


def test_refused_offer_builds_no_packet_and_skips_admit():
    def admit(packet):
        raise AssertionError("the probe refused: admit must not be called")

    source, _ = run_source(CbrSource, duration=1.0, admit=admit, room=lambda f, d: False)
    assert source.admitted == 0
    assert source.generated == source.rejected == pytest.approx(100, abs=2)


def test_probe_is_asked_with_the_flow_and_its_destination():
    asked = []
    source, accepted = run_source(
        CbrSource, duration=0.05, room=lambda f, d: asked.append((f, d)) or True
    )
    assert asked == [(1, 1)] * len(accepted) and source.admitted == len(accepted) > 0


def test_source_slot_survives_pause_resume_stop():
    # pending_events excludes tombstones: it counts the armed tick slots.
    sim = Simulator(seed=1)
    source = CbrSource(sim, make_flow(rate=100.0), lambda packet: True)
    source.start()
    sim.run(until=0.5)
    assert sim.pending_events == 1
    source.pause()
    source.pause()
    offered = source.generated
    sim.run(until=1.0)
    assert source.generated == offered and sim.pending_events == 0
    source.resume()
    source.resume()
    assert sim.pending_events == 1
    sim.run(until=1.5)
    # One armed slot: 50 offers in 0.5 s, not 100.
    assert source.generated - offered == pytest.approx(50, abs=1)
    source.stop()
    offered = source.generated
    sim.run(until=2.0)
    assert source.generated == offered and sim.pending_events == 0


def test_resume_while_the_cancelled_slot_is_still_queued():
    sim = Simulator(seed=1)
    source = CbrSource(sim, make_flow(rate=100.0), lambda packet: True)
    source.start()
    sim.run(until=0.105)
    # The cancelled slot stays in the heap as a tombstone: resume at the
    # same instant must arm a fresh event, not re-arm the tombstone.
    source.pause()
    source.resume()
    assert sim.pending_events == 1
    offered = source.generated
    sim.run(until=0.5)
    assert source.generated - offered == pytest.approx(40, abs=1)


def test_departure_during_a_crash_stays_departed():
    sim = Simulator(seed=1)
    source = CbrSource(sim, make_flow(rate=100.0), lambda packet: True)
    source.start()
    sim.run(until=0.5)
    source.pause()  # the source node crashes
    source.stop()  # the flow departs while it is down
    source.resume()  # the node recovers
    offered = source.generated
    sim.run(until=1.0)
    assert source.stopped and source.generated == offered and sim.pending_events == 0
