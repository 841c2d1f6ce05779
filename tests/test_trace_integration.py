"""Trace integration: the DCF emits filtered structured traces."""

import json

from repro.faults.spec import parse_fault_spec
from repro.mac.dcf import DcfMac
from repro.scenarios.figures import figure3
from repro.scenarios.runner import run_scenario
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceCollector
from repro.telemetry import Telemetry
from repro.telemetry.exporters import write_chrome_trace
from repro.topology.network import Topology

from helpers import SaturatedSender


def test_channel_tx_traces_collected_when_enabled():
    topology = Topology()
    topology.add_nodes([(0.0, 0.0), (200.0, 0.0)])
    trace = TraceCollector(categories=["channel.tx"], limit=500)
    sim = Simulator(seed=1, trace=trace)
    mac = DcfMac(sim, topology)
    sender = SaturatedSender(0, {1: 1})
    sink = SaturatedSender(1, {})
    mac.attach_node(0, sender.services())
    mac.attach_node(1, sink.services())
    mac.start()
    sim.run(until=0.2)
    records = trace.records("channel.tx")
    assert records, "transmissions must be traced"
    kinds = {record.fields["frame"].split()[0] for record in records}
    assert {"rts", "cts", "data", "ack"} <= kinds


def test_traces_disabled_by_default():
    topology = Topology()
    topology.add_nodes([(0.0, 0.0), (200.0, 0.0)])
    sim = Simulator(seed=1)
    mac = DcfMac(sim, topology)
    sender = SaturatedSender(0, {1: 1})
    sink = SaturatedSender(1, {})
    mac.attach_node(0, sender.services())
    mac.attach_node(1, sink.services())
    mac.start()
    sim.run(until=0.2)
    assert len(sim.trace) == 0


def test_each_dcf_drop_is_one_chrome_trace_instant(tmp_path):
    # A lossy link forces retry-limit drops; with both telemetry and a
    # mac.* trace collector on, each drop must still export once.
    telemetry = Telemetry(enabled=True)
    trace = TraceCollector(categories=["mac.*"])
    run_scenario(
        figure3(),
        protocol="802.11",
        substrate="dcf",
        duration=3.0,
        seed=1,
        faults=parse_fault_spec("degrade:2-3@0.5:loss=1.0"),
        telemetry=telemetry,
        trace=trace,
    )
    drops = sum(c.value for c in telemetry.registry.instruments("mac.drops"))
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), telemetry, trace=trace)
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
        trace = TraceCollector(categories=["channel.tx"])
        run_scenario(
            figure3(), protocol="gmp", substrate="dcf", duration=1.0, seed=1, trace=trace
        )
        return [record.fields["frame"] for record in trace.records("channel.tx")]

    first = frame_labels()
    assert any("#" in label for label in first)
    assert frame_labels() == first
