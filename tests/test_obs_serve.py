"""Service mode: command queue, controller, journal round-trip, the
HTTP plane, and the replay-determinism contract (a served session's
``commands.jsonl`` reproduces the identical digest + event count)."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.churn.spec import ChurnSpec
from repro.errors import ConfigError
from repro.faults.schedule import (
    ControlLoss,
    LinkDegrade,
    NodeCrash,
    PacketLossBurst,
)
from repro.obs.serve import (
    AppliedCommand,
    CommandQueue,
    ServeConfig,
    ServeController,
    fault_event_from_args,
    load_journal,
    replay_session,
    serve_main,
    serve_session,
)
from repro.scenarios.runner import run_scenario
from repro.scenarios.sweep import SCENARIO_FACTORIES
from repro.sim.replay import ReplaySanitizer


# ---------------------------------------------------------------- queue


def test_command_queue_orders_and_drains():
    queue = CommandQueue()
    assert queue.submit("add_flow", {"source": 0}) == 1
    assert queue.submit("fault", {"kind": "crash"}) == 2
    assert len(queue) == 2
    drained = queue.drain()
    assert [(seq, op) for seq, op, _ in drained] == [
        (1, "add_flow"),
        (2, "fault"),
    ]
    assert len(queue) == 0
    assert queue.drain() == []
    # Sequence numbers keep counting across drains.
    assert queue.submit("shutdown", {}) == 3


def test_command_queue_copies_args():
    queue = CommandQueue()
    args = {"source": 0}
    queue.submit("add_flow", args)
    args["source"] = 99
    assert queue.drain()[0][2] == {"source": 0}


# ---------------------------------------------------------------- fault vocabulary


def test_fault_event_from_args_kinds():
    crash = fault_event_from_args({"kind": "crash", "node": 3}, 5.0)
    assert isinstance(crash, NodeCrash) and crash.node == 3 and crash.at == 5.0
    degrade = fault_event_from_args(
        {"kind": "degrade", "link": [1, 2], "loss": 0.2}, 1.0
    )
    assert isinstance(degrade, LinkDegrade)
    assert degrade.link == (1, 2) and degrade.loss_rate == 0.2
    assert degrade.capacity_pps is None
    ctrl = fault_event_from_args({"kind": "ctrl", "drop": 0.5, "for": 3.0}, 2.0)
    assert isinstance(ctrl, ControlLoss) and ctrl.until == 5.0
    burst = fault_event_from_args(
        {"kind": "burst", "link": [0, 1], "loss": 1.0, "for": 2.0}, 4.0
    )
    assert isinstance(burst, PacketLossBurst) and burst.until == 6.0


def test_fault_event_from_args_rejects_garbage():
    with pytest.raises(ConfigError):
        fault_event_from_args({"kind": "meteor"}, 0.0)
    with pytest.raises(ConfigError):
        fault_event_from_args({"kind": "degrade", "link": [1, 2]}, 0.0)
    with pytest.raises(ConfigError):
        fault_event_from_args({"kind": "restore", "link": [1]}, 0.0)


# ---------------------------------------------------------------- controller


def test_controller_validates_interval_and_replay_submit():
    with pytest.raises(ConfigError):
        ServeController(interval=0.0)
    replaying = ServeController(script=[])
    with pytest.raises(ConfigError):
        replaying.submit("shutdown", {})


# ---------------------------------------------------------------- live control + replay determinism


def _run_with_controller(controller, duration=8.0):
    return run_scenario(
        SCENARIO_FACTORIES["figure3"](),
        protocol="gmp",
        substrate="fluid",
        duration=duration,
        seed=1,
        sanitizer=ReplaySanitizer(),
        control=controller,
    )


def test_live_commands_apply_and_replay_reproduces_digest():
    records = []
    controller = ServeController(interval=0.5, journal=records.append)
    # Pre-submitted commands all land at the first monitor tick; the
    # journaled tick time is what makes the replay exact.
    controller.submit("add_flow", {"source": 0, "destination": 3, "weight": 2.0})
    controller.submit("fault", {"kind": "degrade", "link": [0, 1], "loss": 0.1})
    controller.submit("remove_flow", {"flow_id": 2})
    result = _run_with_controller(controller)

    assert len(controller.applied) == 3
    grafted = controller.applied[0]
    assert grafted.result == {"flow_id": 4}
    # The apply-time-assigned id is canonicalized into the journaled args.
    assert grafted.args["flow_id"] == 4
    assert controller.applied[1].result["applied"].startswith("degrade")
    assert controller.applied[2].result == {"removed": 2}
    assert all(r["record"] == "command" for r in records)
    report = result.extras["control_report"]
    assert report.arrivals == 1 and report.departures == 1

    # Replay: identical digest and event count, from the journal alone.
    script = [
        AppliedCommand(seq=r["seq"], t=r["t"], op=r["op"], args=r["args"])
        for r in records
    ]
    replayer = ServeController(interval=0.5, script=script)
    replayed = _run_with_controller(replayer)
    assert (
        replayed.extras["replay_digest"] == result.extras["replay_digest"]
    )
    assert (
        replayed.extras["events_processed"]
        == result.extras["events_processed"]
    )
    assert len(replayer.applied) == 3


def test_failed_command_journals_error_and_run_survives():
    controller = ServeController(interval=0.5)
    controller.submit("add_flow", {"source": 0, "destination": 99})
    controller.submit("remove_flow", {"flow_id": 77})
    controller.submit("fault", {"kind": "meteor"})
    result = _run_with_controller(controller, duration=4.0)
    assert result.extras["events_processed"] > 0
    errors = [c.result.get("error", "") for c in controller.applied]
    assert len(errors) == 3
    assert "ChurnError" in errors[0]
    assert "ChurnError" in errors[1]
    assert "ConfigError" in errors[2]


def test_shutdown_command_stops_early():
    controller = ServeController(interval=0.5)
    controller.submit("shutdown", {})
    result = _run_with_controller(controller, duration=1000.0)
    # The first tick lands well before the nominal duration.
    assert controller.applied[0].t < 10.0
    assert result.extras["events_processed"] > 0


def test_idle_controller_runs_are_deterministic():
    """Attaching a controller switches the runner to its dynamic
    (command-driven) assembly — a different but fully deterministic
    event sequence.  Two idle served runs must agree bit-for-bit;
    the batch (no-control) golden digest is covered by the replay
    sanitizer tier-1 tests."""
    first = _run_with_controller(ServeController(interval=0.5))
    second = _run_with_controller(ServeController(interval=0.5))
    assert (
        first.extras["replay_digest"] == second.extras["replay_digest"]
    )
    assert (
        first.extras["events_processed"]
        == second.extras["events_processed"]
    )


# ---------------------------------------------------------------- session parity


class _TickRecorder:
    """A health-monitor stand-in: keeps the snapshot callable the runner
    binds and, at every monitor tick, takes one snapshot through it and
    one through the control plane's view of the same session."""

    interval = 1.0

    def __init__(self, controller):
        self.controller = controller
        self.ticks = []

    def bind(self, sim, snapshot):
        self.snapshot = snapshot
        sim.attach_monitor(self)

    def on_tick(self, now):
        session = self.controller.handle
        live = tuple(sorted(flow.flow_id for flow in session.flows))
        self.ticks.append((now, live, self.snapshot(), session.partial_result()))

    def finalize(self, now):
        return None


def test_session_snapshot_matches_result_and_shares_one_reference():
    """The health tick, the HTTP plane and the end-of-run collection
    read one measurement and one cached maxmin reference."""
    controller = ServeController(interval=1.0)
    recorder = _TickRecorder(controller)
    duration = 12.0
    result = run_scenario(
        SCENARIO_FACTORIES["figure3"](),
        protocol="gmp",
        substrate="fluid",
        duration=duration,
        seed=1,
        churn=ChurnSpec(rate=0.5, mean_hold=3.0, traffic="cbr"),
        rate_interval=1.0,
        health=recorder,
        control=controller,
    )
    assert result.extras["churn"].arrivals > 0

    # The snapshot of the monitors' final tick, at t = duration, is the
    # returned result as far as anything is measured mid-run.
    now, _live, health_snap, _plane_snap = recorder.ticks[-1]
    assert now == duration
    assert health_snap.flow_rates == result.flow_rates
    assert health_snap.interval_rates == result.interval_rates
    assert health_snap.interval_bounds == result.interval_bounds
    assert health_snap.flow_lifetimes == result.flow_lifetimes

    # One cached reference object, whoever asks, for as long as the
    # live flow set stays what it was.
    previous = None
    resolved = 0
    for _now, live, health_snap, plane_snap in recorder.ticks:
        solution = health_snap.extras["maxmin_solution"]
        assert plane_snap.extras["maxmin_solution"] is solution
        assert health_snap.extras["maxmin_reference"] == solution.rates
        if previous is not None and previous[0] == live:
            assert solution is previous[1]
        else:
            resolved += 1
        previous = (live, solution)
    assert 1 < resolved < len(recorder.ticks)  # churn changed the set, not every tick


# ---------------------------------------------------------------- journal round-trip


def test_load_journal_round_trip(tmp_path):
    path = tmp_path / "commands.jsonl"
    lines = [
        {"record": "serve_header", "version": 1, "scenario": "figure3"},
        {
            "record": "command",
            "seq": 2,
            "t": 1.5,
            "op": "fault",
            "args": {"kind": "crash", "node": 1},
            "result": {},
        },
        {
            "record": "command",
            "seq": 1,
            "t": 0.5,
            "op": "add_flow",
            "args": {"source": 0, "destination": 3},
            "result": {"flow_id": 4},
        },
        {"record": "serve_close", "t": 8.0, "events": 10, "digest": "ab"},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    header, commands, close = load_journal(str(path))
    assert header["scenario"] == "figure3"
    assert [c.seq for c in commands] == [1, 2]  # sorted by seq
    assert commands[0].t == 0.5
    assert close["digest"] == "ab"


def test_load_journal_requires_header(tmp_path):
    path = tmp_path / "bare.jsonl"
    path.write_text(
        json.dumps(
            {"record": "command", "seq": 1, "t": 0.5, "op": "shutdown",
             "args": {}}
        )
        + "\n"
    )
    with pytest.raises(ConfigError):
        load_journal(str(path))


# ---------------------------------------------------------------- HTTP end-to-end


def _http(method, url, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.read()


def _get_json(url, retries=200):
    """GET tolerating the 503 window before the sim thread binds."""
    for _ in range(retries):
        try:
            status, raw = _http("GET", url)
            return json.loads(raw)
        except urllib.error.HTTPError as error:
            if error.code != 503:
                raise
            time.sleep(0.05)
    raise AssertionError(f"{url} stayed 503")


def test_served_session_http_and_replay_match(tmp_path):
    session_dir = tmp_path / "session"
    config = ServeConfig(
        scenario="figure3",
        substrate="fluid",
        duration=60.0,
        seed=1,
        pace=None,
        port=0,
        session_dir=str(session_dir),
        health=True,
    )
    ready = threading.Event()
    port_box = {}

    def on_ready(port):
        port_box["port"] = port
        ready.set()

    failures = []

    def driver():
        try:
            assert ready.wait(30)
            base = f"http://127.0.0.1:{port_box['port']}"
            status = _get_json(base + "/status")
            assert status["scenario"] == "figure3"
            assert status["events"] >= 0
            code, _ = _http(
                "POST",
                base + "/flows",
                {"source": 0, "destination": 3, "desired_rate": 300.0},
            )
            assert code == 202
            code, _ = _http(
                "POST",
                base + "/faults",
                {"kind": "degrade", "link": [1, 2], "loss": 0.3},
            )
            assert code == 202
            # Wait until the graft is visible live.
            for _ in range(200):
                flows = _get_json(base + "/flows")
                if any(f["flow_id"] == 4 and f["live"] for f in flows):
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("grafted flow never went live")
            metrics_status, metrics_raw = _http("GET", base + "/metrics")
            assert metrics_status == 200
            assert metrics_raw.decode().startswith("# TYPE repro_")
            health = _get_json(base + "/health")
            assert health["enabled"] is True
            assert isinstance(_get_json(base + "/alerts"), list)
            detail = _get_json(base + "/flows/1")
            assert detail["flow_id"] == 1
            assert "bottleneck_clique" in detail
            with pytest.raises(urllib.error.HTTPError) as missing:
                _http("GET", base + "/flows/999")
            assert missing.value.code == 404
            # Control bodies validate at apply time (a bad fault kind
            # journals an error, it doesn't 4xx) — but a body that is
            # not a JSON object is rejected at the HTTP layer.
            with pytest.raises(urllib.error.HTTPError) as bad:
                _http("POST", base + "/faults", [1, 2])
            assert bad.value.code == 400
            code, _ = _http("DELETE", base + "/flows/4")
            assert code == 202
            code, _ = _http("POST", base + "/shutdown")
            assert code == 202
        except Exception as error:  # pragma: no cover - surfaced below
            failures.append(error)

    thread = threading.Thread(target=driver, daemon=True)
    thread.start()
    manifest = serve_session(config, ready=on_ready, emit=lambda _: None)
    thread.join(timeout=60)
    assert not failures, failures[0]

    assert manifest["commands_applied"] >= 4
    assert manifest["events"] > 0
    assert manifest["replay_digest"]
    assert (session_dir / "manifest.json").exists()

    report = replay_session(
        str(session_dir / "commands.jsonl"), emit=lambda _: None
    )
    assert report["matches"] is True
    assert report["events"] == manifest["events"]
    assert report["digest"] == manifest["replay_digest"]


# ---------------------------------------------------------------- CLI


def test_serve_main_replay_exit_codes(tmp_path, capsys):
    session_dir = tmp_path / "cli-session"
    controller = ServeController(interval=0.5)
    controller.submit("add_flow", {"source": 0, "destination": 3})
    # Produce a journal via a (headless) served session: no commands
    # beyond the pre-submitted graft, tiny duration, ephemeral port.
    config = ServeConfig(
        scenario="figure3",
        substrate="fluid",
        duration=5.0,
        seed=1,
        port=0,
        session_dir=str(session_dir),
        health=False,
    )
    serve_session(config, emit=lambda _: None)
    journal = session_dir / "commands.jsonl"

    assert serve_main(["--replay", str(journal)]) == 0

    # Corrupt the recorded digest: replay must fail with exit 1.
    lines = journal.read_text().splitlines()
    tampered = []
    for line in lines:
        record = json.loads(line)
        if record.get("record") == "serve_close":
            record["digest"] = "0" * 64
        tampered.append(json.dumps(record))
    journal.write_text("\n".join(tampered) + "\n")
    assert serve_main(["--replay", str(journal)]) == 1
    capsys.readouterr()


def test_serve_main_rejects_unknown_scenario(tmp_path, capsys):
    assert (
        serve_main(
            ["not-a-scenario", "--session-dir", str(tmp_path / "x")]
        )
        == 2
    )
    assert "unknown scenario" in capsys.readouterr().out
