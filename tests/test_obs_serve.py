"""Service mode: command queue, controller, journal round-trip, the
HTTP plane, and the replay-determinism contract (a served session's
``commands.jsonl`` reproduces the identical digest + event count)."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigError, FaultError
from repro.faults.schedule import (
    ControlLoss,
    LinkDegrade,
    LinkRestore,
    NodeCrash,
    NodeRecover,
    PacketLossBurst,
)
from repro.faults.spec import fault_from_json, fault_from_text
from repro.obs.serve import (
    AppliedCommand,
    CommandQueue,
    ServeConfig,
    ServeController,
    load_journal,
    replay_session,
    serve_main,
    serve_session,
)
from repro.scenarios.spec import RunSpec
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


#: Each kind's text entry and ``POST /faults`` body, the body applied
#: at t=2: a window's ``for`` is its ``until`` minus 2.
SPELLINGS = [
    ("crash:3@2", {"kind": "crash", "node": 3}, NodeCrash(at=2.0, node=3)),
    ("recover:3@2", {"kind": "recover", "node": 3}, NodeRecover(at=2.0, node=3)),
    (
        "degrade:1-2@2:loss=0.2,cap=120",
        {"kind": "degrade", "link": [1, 2], "loss": 0.2, "cap": 120},
        LinkDegrade(at=2.0, link=(1, 2), loss_rate=0.2, capacity_pps=120.0),
    ),
    (
        "degrade:1-2@2:cap=50",
        {"kind": "degrade", "link": [1, 2], "cap": 50},
        LinkDegrade(at=2.0, link=(1, 2), capacity_pps=50.0),
    ),
    ("restore:1-2@2", {"kind": "restore", "link": [1, 2]}, LinkRestore(at=2.0, link=(1, 2))),
    (
        "ctrl:0.5@2-5",
        {"kind": "ctrl", "drop": 0.5, "for": 3.0},
        ControlLoss(at=2.0, until=5.0, drop_prob=0.5),
    ),
    (
        "burst:0-1@2-6:loss=1",
        {"kind": "burst", "link": [0, 1], "loss": 1.0, "for": 4},
        PacketLossBurst(at=2.0, until=6.0, link=(0, 1), loss_rate=1.0),
    ),
]

#: Entries and bodies the one builder refuses on both paths: per kind,
#: an ill-typed, a missing and an out-of-range field (the body at t=2).
REFUSED = [
    ("crash:x@2", {"kind": "crash", "node": "x"}),
    ("crash:1.5@2", {"kind": "crash", "node": 1.5}),
    ("crash:@2", {"kind": "crash"}),
    ("recover:[1]@2", {"kind": "recover", "node": [1]}),
    ("recover:@2", {"kind": "recover", "node": None}),
    ("degrade:1-2@2:loss=abc", {"kind": "degrade", "link": [1, 2], "loss": "abc"}),
    ("degrade:1@2:loss=0.1", {"kind": "degrade", "link": [1], "loss": 0.1}),
    ("degrade:1-2@2", {"kind": "degrade", "link": [1, 2]}),
    ("degrade:1-2@2:loss=5", {"kind": "degrade", "link": [1, 2], "loss": 5.0}),
    ("degrade:1-2@2:cap=0", {"kind": "degrade", "link": [1, 2], "cap": 0}),
    ("restore:a-b@2", {"kind": "restore", "link": ["a", "b"]}),
    ("restore:@2", {"kind": "restore"}),
    ("ctrl:x@2-5", {"kind": "ctrl", "drop": "x", "for": 3}),
    ("ctrl:0.5@2", {"kind": "ctrl", "drop": 0.5}),
    ("ctrl:@2-5", {"kind": "ctrl", "for": 3}),
    ("ctrl:2@2-5", {"kind": "ctrl", "drop": 2.0, "for": 3}),
    ("ctrl:0.5@2-2", {"kind": "ctrl", "drop": 0.5, "for": 0}),
    ("burst:0-1@2-x:loss=0.5", {"kind": "burst", "link": [0, 1], "loss": 0.5, "for": "x"}),
    ("burst:0-1@2-6", {"kind": "burst", "link": [0, 1], "for": 4}),
    ("burst:0-1@2-6:loss=1.5", {"kind": "burst", "link": [0, 1], "loss": 1.5, "for": 4}),
]


def test_fault_event_from_args_kinds():
    """The text entry and the body of each kind build one equal event,
    under the kind's own kernel tag."""
    assert {text.partition(":")[0] for text, _body, _event in SPELLINGS} == {
        "crash", "recover", "degrade", "restore", "ctrl", "burst",
    }  # fmt: skip
    for text, body, event in SPELLINGS:
        assert fault_from_text(text) == event, text
        assert fault_from_json(body, 2.0) == event, body
        assert event.tag == f"fault.{body['kind']}"


def test_fault_event_from_args_rejects_garbage():
    assert {text.partition(":")[0] for text, _body in REFUSED} == {
        "crash", "recover", "degrade", "restore", "ctrl", "burst",
    }  # fmt: skip
    for text, body in REFUSED:
        with pytest.raises(FaultError):
            fault_from_text(text)
        with pytest.raises(FaultError):
            fault_from_json(body, 2.0)
    # An unknown kind is a bad command, like an unknown op.
    with pytest.raises(ConfigError):
        fault_from_json({"kind": "meteor"}, 0.0)
    with pytest.raises(ConfigError):
        fault_from_json({"kind": ["crash"]}, 0.0)
    with pytest.raises(FaultError):
        fault_from_text("meteor:1@2")


# ---------------------------------------------------------------- controller


def test_controller_validates_interval_and_replay_submit():
    with pytest.raises(ConfigError):
        ServeController(interval=0.0)
    replaying = ServeController(script=[])
    with pytest.raises(ConfigError):
        replaying.submit("shutdown", {})


# ---------------------------------------------------------------- live control + replay determinism


def _run_with_controller(controller, duration=8.0):
    return RunSpec(
        scenario="figure3", protocol="gmp", substrate="fluid", duration=duration, seed=1
    ).run(sanitizer=ReplaySanitizer(), control=controller)


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


def _fault_state(session):
    """What a fault acts on: the MAC's impairments and radios, each
    stack's liveness, queue and crash ledger, each source's pause and
    GMP's distrust and control-loss window."""
    mac = session.mac
    hooks = getattr(mac, "channel", mac)
    radios = {node_id: (node.down, node._state) for node_id, node in getattr(mac, "_nodes", {}).items()}
    gmp = session.gmp
    return (
        sorted(hooks._down), dict(hooks._link_loss), dict(getattr(mac, "_fault_caps", {})), radios,
        {node_id: (stack.alive, stack.buffer.backlog(), dict(stack.crash_losses))
         for node_id, stack in session.stacks.items()},
        {flow_id: source.paused for flow_id, source in session.sources.items()},
        None if gmp is None
        else (gmp.stale_nodes(), gmp._control_drop_prob, gmp._control_drop_until),
    )  # fmt: skip


class _StateProbe(ServeController):
    """Records, per command, whether the state a fault acts on moved
    while the command was applied."""

    def __init__(self, **fields):
        super().__init__(**fields)
        self.moved = []

    def _apply(self, seq, now, op, args):
        before = _fault_state(self.handle)
        super()._apply(seq, now, op, args)
        self.moved.append(_fault_state(self.handle) != before)


@pytest.mark.parametrize(
    "protocol, substrate, refused",
    [
        (
            "gmp", "fluid",
            [{"kind": "crash", "node": 1},  # a second crash
             {"kind": "recover", "node": 2},  # a live node
             {"kind": "degrade", "link": [0, 1], "loss": 5.0}],
        ),
        (
            "802.11", "dcf",
            [{"kind": "crash", "node": 1},
             {"kind": "degrade", "link": [1, 2], "cap": 50},  # DCF caps nothing
             {"kind": "ctrl", "drop": 0.5, "for": 1.0}],  # no GMP
        ),
    ],
)  # fmt: skip
def test_a_live_fault_the_schedule_would_refuse_changes_nothing(protocol, substrate, refused):
    """A live fault meets the checks a scheduled one meets: each
    refusal is a journaled FaultError, raised before any layer moved."""
    controller = _StateProbe(interval=0.5)
    controller.submit("fault", {"kind": "crash", "node": 1})
    for body in refused:
        controller.submit("fault", body)
    RunSpec(
        scenario="figure3", protocol=protocol, substrate=substrate, duration=2.0, seed=1
    ).run(control=controller)
    results = [command.result for command in controller.applied]
    assert results[0]["applied"].startswith("crash node 1")
    for body, result in zip(refused, results[1:]):
        assert result.get("error", "").startswith("FaultError"), (body, result)
    assert controller.moved == [True] + [False] * len(refused)


def _script(*commands):
    """A replay script: ``(tick time, op, args)`` per command."""
    return [
        AppliedCommand(seq=seq, t=t, op=op, args=args)
        for seq, (t, op, args) in enumerate(commands, start=1)
    ]


BURST_1_2 = {"kind": "burst", "link": [1, 2], "loss": 0.5, "for": 2.0}
#: On the same link as BURST_1_2, spelled the other way round: its
#: window [1, 4) overlaps [0.5, 2.5), whose restore would clear it.
BURST_2_1 = {"kind": "burst", "link": [2, 1], "loss": 0.5, "for": 3.0}


OVERLAP = "FaultError: overlapping loss-burst (1-2) windows: [0.5, 2.5) and [1, 4)"
BURST_LOG = ["degrade link 1-2 (loss=0.5)", "restore link 1-2"]


@pytest.mark.parametrize(
    "faults, commands, error, log",
    [
        ("burst:1-2@0.5-2.5:loss=0.5", [(1.0, "fault", BURST_2_1)], OVERLAP, BURST_LOG),
        (None, [(0.5, "fault", BURST_1_2), (1.0, "fault", BURST_2_1)], OVERLAP, BURST_LOG),
        (
            "crash:1@1;recover:1@2",
            [(0.5, "fault", {"kind": "crash", "node": 1})],
            "FaultError: node 1 crashes at t=1 while already down",
            ["crash node 1 (0 in-flight packets lost)", "recover node 1"],
        ),
    ],
    ids=["live-after-scheduled", "live-after-live", "live-before-scheduled-crash"],
)  # fmt: skip
def test_a_live_fault_conflicting_with_another_fault_is_refused(faults, commands, error, log):
    """A live fault meets the schedule's cross-event checks (windows
    overlapping on one target, crash/recover pairing) against the run's
    other faults, scheduled or live; the refusal is journaled, and the
    session replays from its journal to the same digests."""
    spec = RunSpec(
        scenario="figure3", protocol="gmp", substrate="fluid", duration=5.0, seed=1,
        faults=faults,
    )
    controller = ServeController(interval=0.5, script=_script(*commands))
    result = spec.run(sanitizer=ReplaySanitizer(), control=controller)
    *accepted, refused = controller.applied
    assert all("applied" in command.result for command in accepted)
    assert refused.result["error"].startswith(error)
    assert [text for _, text in result.extras["faults"]] == log

    replayer = ServeController(interval=0.5, script=list(controller.applied))
    replayed = spec.run(sanitizer=ReplaySanitizer(), control=replayer)
    for digest in ("replay_digest", "observable_digest"):
        assert replayed.extras[digest] == result.extras[digest]
    assert [command.result for command in replayer.applied] == [
        command.result for command in controller.applied
    ]


#: Bodies that must be refused as commands, not abort the run.
MALFORMED = [
    ("/faults", {"kind": "crash"}),
    ("/faults", {"kind": "crash", "node": "x"}),
    ("/faults", {"kind": "degrade", "link": [0, 1], "loss": "abc"}),
    ("/flows", {"source": 0}),
]


def test_malformed_commands_are_journaled_and_the_session_replays(tmp_path):
    session_dir = tmp_path / "session"
    spec = RunSpec(scenario="figure3", substrate="fluid", duration=600.0, seed=1)
    config = ServeConfig(pace=50.0, port=0, session_dir=str(session_dir), health=False)
    ready = threading.Event()
    port_box = {}
    failures = []

    def on_ready(port):
        port_box["port"] = port
        ready.set()

    def driver():
        try:
            assert ready.wait(30)
            base = f"http://127.0.0.1:{port_box['port']}"
            for path, body in MALFORMED:
                assert _http("POST", base + path, body)[0] == 202
            assert _http("POST", base + "/shutdown")[0] == 202
        except Exception as error:  # pragma: no cover - surfaced below
            failures.append(error)

    thread = threading.Thread(target=driver, daemon=True)
    thread.start()
    manifest = serve_session(spec, config, ready=on_ready, emit=lambda _: None)
    thread.join(timeout=60)
    assert not failures, failures[0]

    _header, commands, close = load_journal(str(session_dir / "commands.jsonl"))
    assert close is not None and manifest["events"] == close["events"]
    errors = [command.result["error"] for command in commands if command.op != "shutdown"]
    assert len(errors) == len(MALFORMED)
    assert all(error.startswith(("ConfigError", "FaultError")) for error in errors), errors
    report = replay_session(str(session_dir / "commands.jsonl"), emit=lambda _: None)
    assert report["matches"] is True
    assert report["events"] == manifest["events"]
    assert report["digest"] == manifest["replay_digest"]
    assert report["observable_digest"] == manifest["observable_digest"]


def test_flow_commands_pass_only_the_given_fields():
    """A graft takes Flow's defaults for every field it leaves out."""
    from repro.flows.flow import Flow

    controller = ServeController(interval=0.5)
    controller.submit("add_flow", {"source": 0, "destination": 3, "weight": 2.0})
    _run_with_controller(controller, duration=2.0)
    flow = controller.handle.all_flows[4]
    assert (flow.weight, flow.desired_rate, flow.packet_bytes) == (
        2.0, Flow.desired_rate, Flow.packet_bytes,
    )  # fmt: skip


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
    """A health-monitor stand-in: keeps the session it is bound to and,
    at every monitor tick, takes one snapshot through it and one
    through the control plane's view of the same session."""

    interval = 1.0

    def __init__(self, controller):
        self.controller = controller
        self.ticks = []

    def bind(self, session):
        self.session = session

    def on_tick(self, now):
        session = self.controller.handle
        live = tuple(sorted(flow.flow_id for flow in session.flows))
        self.ticks.append((now, live, self.session.partial_result(), session.partial_result()))

    def on_abort(self, now, error):
        pass

    def close(self, session):
        pass


def test_session_snapshot_matches_result_and_shares_one_reference():
    """The health tick, the HTTP plane and the end-of-run collection
    read one measurement and one cached maxmin reference."""
    controller = ServeController(interval=1.0)
    recorder = _TickRecorder(controller)
    duration = 12.0
    result = RunSpec(
        scenario="figure3",
        protocol="gmp",
        substrate="fluid",
        duration=duration,
        seed=1,
        churn="poisson:rate=0.5,mean_hold=3,traffic=cbr",
        rate_interval=1.0,
    ).run(monitors=[recorder], control=controller)
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
        {
            "record": "serve_header",
            "version": 3,
            "spec": RunSpec(scenario="figure3").to_json(),
            "command_interval": 0.25,
        },
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
        {"record": "serve_close", "t": 8.0, "events": 10, "digest": "ab",
         "observable_digest": "cd"},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    header, commands, close = load_journal(str(path))
    assert RunSpec.from_json(header["spec"]) == RunSpec(scenario="figure3")
    assert [c.seq for c in commands] == [1, 2]  # sorted by seq
    assert commands[0].t == 0.5
    assert close["digest"] == "ab"
    assert close["observable_digest"] == "cd"


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


def test_load_journal_rejects_a_version_1_journal(tmp_path):
    # Version 1 spelled the run out field by field in the header.
    path = tmp_path / "v1.jsonl"
    path.write_text(
        json.dumps(
            {"record": "serve_header", "version": 1, "scenario": "figure3",
             "protocol": "gmp", "substrate": "fluid", "duration": 5.0,
             "seed": 1, "traffic": "cbr", "command_interval": 0.25}
        )
        + "\n"
    )
    with pytest.raises(ConfigError, match="version 1"):
        load_journal(str(path))
    assert serve_main(["--replay", str(path)]) == 2


def test_load_journal_rejects_a_version_2_journal(tmp_path):
    # Version 2 closed with an L0 digest that folded handler names.
    path = tmp_path / "v2.jsonl"
    path.write_text(
        json.dumps(
            {"record": "serve_header", "version": 2,
             "spec": RunSpec(scenario="figure3").to_json(),
             "command_interval": 0.25}
        )
        + "\n"
    )
    with pytest.raises(ConfigError, match="version 2"):
        load_journal(str(path))
    assert serve_main(["--replay", str(path)]) == 2


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
    spec = RunSpec(scenario="figure3", substrate="fluid", duration=60.0, seed=1)
    config = ServeConfig(
        pace=None,
        port=0,
        session_dir=str(session_dir),
        metrics_out=str(session_dir / "metrics.jsonl"),
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
            for _ in range(200):
                flows = _get_json(base + "/flows")
                if any(f["flow_id"] == 4 and not f["live"] for f in flows):
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("grafted flow never retired")
            # The reference covers the live flows only: a retired flow
            # has none, and is not desire-limited for lack of one.
            retired = _get_json(base + "/flows/4")
            assert retired["reference_rate"] is None
            assert retired["desire_limited"] is False
            code, _ = _http("POST", base + "/shutdown")
            assert code == 202
        except Exception as error:  # pragma: no cover - surfaced below
            failures.append(error)

    thread = threading.Thread(target=driver, daemon=True)
    thread.start()
    manifest = serve_session(spec, config, ready=on_ready, emit=lambda _: None)
    thread.join(timeout=60)
    assert not failures, failures[0]

    assert manifest["commands_applied"] >= 4
    assert manifest["events"] > 0
    assert manifest["replay_digest"]
    assert (session_dir / "manifest.json").exists()
    streamed = (session_dir / "metrics.jsonl").read_text().splitlines()
    assert json.loads(streamed[-1])["record"] == "stream_close"

    report = replay_session(
        str(session_dir / "commands.jsonl"), emit=lambda _: None
    )
    assert report["matches"] is True
    assert report["events"] == manifest["events"]
    assert report["digest"] == manifest["replay_digest"]
    assert report["observable_digest"] == manifest["observable_digest"]


def test_controller_validates_pace():
    for pace in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="pace"):
            ServeController(pace=pace)


def test_paced_session_bounds_wall_time_and_keeps_the_run(tmp_path):
    """The controller paces at command-tick granularity: a run of D
    sim-s at pace P takes at least (D - command_interval) / P wall
    seconds, and dispatches exactly what the free-running session does."""
    duration, pace = 2.0, 4.0
    spec = RunSpec(scenario="figure3", substrate="fluid", duration=duration, seed=1)
    manifests = {}
    for name, paced in (("free", None), ("paced", pace)):
        config = ServeConfig(
            pace=paced, port=0, session_dir=str(tmp_path / name), health=False
        )
        manifests[name] = serve_session(spec, config, emit=lambda _: None)
    paced_run = manifests["paced"]
    assert paced_run["wall_seconds"] >= (duration - ServeConfig.command_interval) / pace
    for key in ("replay_digest", "observable_digest", "events"):
        assert paced_run[key] == manifests["free"][key], key


def test_wall_seconds_stop_when_the_run_returns(tmp_path, monkeypatch):
    """The manifest times the run, not the HTTP plane's shutdown."""
    from http.server import ThreadingHTTPServer

    shutdown = ThreadingHTTPServer.shutdown

    def slow_shutdown(server):
        time.sleep(1.0)
        shutdown(server)

    monkeypatch.setattr(ThreadingHTTPServer, "shutdown", slow_shutdown)
    spec = RunSpec(scenario="figure3", substrate="fluid", duration=1.0, seed=1)
    config = ServeConfig(port=0, session_dir=str(tmp_path / "s"), health=False)
    started = time.monotonic()
    manifest = serve_session(spec, config, emit=lambda _: None)
    assert time.monotonic() - started >= 1.0  # the slow shutdown did run
    assert manifest["wall_seconds"] < 1.0


# ---------------------------------------------------------------- CLI


def test_serve_main_replay_exit_codes(tmp_path, capsys):
    session_dir = tmp_path / "cli-session"
    controller = ServeController(interval=0.5)
    controller.submit("add_flow", {"source": 0, "destination": 3})
    # Produce a journal via a (headless) served session: no commands
    # beyond the pre-submitted graft, tiny duration, ephemeral port.
    spec = RunSpec(scenario="figure3", substrate="fluid", duration=5.0, seed=1)
    config = ServeConfig(port=0, session_dir=str(session_dir), health=False)
    serve_session(spec, config, emit=lambda _: None)
    journal = session_dir / "commands.jsonl"

    assert serve_main(["--replay", str(journal)]) == 0

    # Corrupt either recorded digest: replay must fail with exit 1.
    original = journal.read_text()
    for key in ("digest", "observable_digest"):
        tampered = []
        for line in original.splitlines():
            record = json.loads(line)
            if record.get("record") == "serve_close":
                record[key] = "0" * 64
            tampered.append(json.dumps(record))
        journal.write_text("\n".join(tampered) + "\n")
        assert serve_main(["--replay", str(journal)]) == 1, key
    capsys.readouterr()


def test_serve_main_rejects_unknown_scenario(tmp_path, capsys):
    assert (
        serve_main(
            ["not-a-scenario", "--session-dir", str(tmp_path / "x")]
        )
        == 2
    )
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--substrate", "--traffic", "--protocol"])
def test_serve_main_rejects_a_bogus_run_flag_before_the_session(tmp_path, flag):
    session_dir = tmp_path / "S"
    with pytest.raises(SystemExit) as exit_info:
        serve_main(
            ["figure3", flag, "bogus", "--port", "0",
             "--session-dir", str(session_dir), "--duration", "1"]
        )
    assert exit_info.value.code == 2
    assert not session_dir.exists()


def test_serve_main_rejects_a_bad_spec_before_the_session(tmp_path, capsys):
    session_dir = tmp_path / "S"
    code = serve_main(
        ["figure3", "--duration", "-1", "--port", "0",
         "--session-dir", str(session_dir)]
    )
    assert code == 2
    assert "duration" in capsys.readouterr().err
    assert not session_dir.exists()


@pytest.mark.parametrize("flag", ["--pace", "--command-interval"])
def test_serve_main_rejects_a_bad_pacing_flag_before_the_session(tmp_path, capsys, flag):
    session_dir = tmp_path / "p0"
    code = serve_main(["figure3", flag, "0", "--port", "0", "--session-dir", str(session_dir)])
    assert code == 2
    assert "must be positive" in capsys.readouterr().err
    assert not session_dir.exists()
