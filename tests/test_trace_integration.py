"""Trace integration: DCF frames reach the telemetry event log when asked."""

import json

from repro.mac.dcf import DcfMac
from repro.scenarios.spec import RunSpec
from repro.sim.kernel import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.exporters import write_chrome_trace
from repro.topology.network import Topology

from helpers import SaturatedSender


def _saturated_pair(telemetry):
    topology = Topology()
    topology.add_nodes([(0.0, 0.0), (200.0, 0.0)])
    sim = Simulator(seed=1, telemetry=telemetry)
    mac = DcfMac(sim, topology)
    sender = SaturatedSender(0, {1: 1})
    sink = SaturatedSender(1, {})
    mac.attach_node(0, sender.services())
    mac.attach_node(1, sink.services())
    mac.start()
    sim.run(until=0.2)
    return mac


def test_channel_tx_traces_collected_when_enabled():
    telemetry = Telemetry(trace_categories=["channel.tx"], event_limit=500)
    mac = _saturated_pair(telemetry)
    records = telemetry.events_in("channel.tx")
    assert records, "transmissions must be traced"
    # One event per frame put on the air, until the bound.
    assert len(records) + telemetry.events_dropped == mac.channel.frames_sent
    kinds = {record.fields["frame"].split()[0] for record in records}
    assert {"rts", "cts", "data", "ack"} <= kinds


def test_traces_disabled_by_default():
    # Telemetry on, but no run asked for the per-frame category.
    telemetry = Telemetry()
    _saturated_pair(telemetry)
    assert telemetry.events_in("channel.tx") == []


def test_each_dcf_drop_is_one_chrome_trace_instant(tmp_path):
    # A lossy link forces retry-limit drops; with the mac.* categories
    # opted in as well, each drop must still export once.
    telemetry = Telemetry(trace_categories=["mac.*"])
    RunSpec(
        scenario="figure3",
        protocol="802.11",
        substrate="dcf",
        duration=3.0,
        seed=1,
        faults="degrade:2-3@0.5:loss=1.0",
    ).run(telemetry=telemetry)
    drops = sum(c.value for c in telemetry.registry.instruments("mac.drops"))
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), telemetry)
    instants = [
        event
        for event in json.loads(path.read_text(encoding="utf-8"))["traceEvents"]
        if event["ph"] == "i" and event["name"] == "mac.drop"
    ]
    assert drops > 0
    assert len(instants) == drops


def test_same_seed_runs_in_one_process_label_frames_alike():
    # Packets are numbered per run, so a second identical run in the same
    # process traces the same data-frame labels (f<flow>#<seq>).
    def frame_labels():
        telemetry = Telemetry(trace_categories=["channel.tx"])
        RunSpec(
            scenario="figure3", protocol="gmp", substrate="dcf", duration=1.0, seed=1
        ).run(telemetry=telemetry)
        return [event.fields["frame"] for event in telemetry.events_in("channel.tx")]

    first = frame_labels()
    assert any("#" in label for label in first)
    assert frame_labels() == first
