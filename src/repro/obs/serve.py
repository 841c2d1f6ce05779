# simcheck: allow-file[DET001] service-mode wall-clock reads are
# operator-facing (events/s gauges, session manifest timing); nothing
# read here ever feeds the simulation.
"""Service mode: host a paced run behind a live HTTP control plane.

``python -m repro serve figure3 --pace 20`` boots one scenario inside
a persistent process: the simulation runs on the main thread (throttled
to ``pace`` simulated seconds per wall second, or free-running), while
a stdlib :class:`http.server.ThreadingHTTPServer` answers read
endpoints (``/status``, ``/metrics``, ``/health``, ``/alerts``,
``/flows``, ``/flows/<id>``) and accepts control commands
(``POST /flows``, ``DELETE /flows/<id>``, ``POST /faults``,
``POST /shutdown``).

**Determinism by construction.**  HTTP threads never touch simulation
state: a control request only enqueues a command on the
:class:`ServeController`'s thread-safe queue and returns ``202`` with
the command's sequence number.  The controller is a kernel
:class:`~repro.sim.kernel.RunMonitor`; at each monitor tick — a
deterministic function of the simulated clock — it drains the queue on
the *simulation* thread, applies each command through the run's
:class:`~repro.scenarios.runner.Session` (flow graft/retire via
the churn engine, faults via the injector, graceful stop), and
journals the applied command with its tick time to ``commands.jsonl``.
Because tick times and application order are recorded, ``python -m
repro serve --replay commands.jsonl`` re-runs the session headless,
re-applies every command at the identical simulated instant, and must
reproduce the identical replay digest and dispatched-event count — the
journal's ``serve_close`` record carries both for self-verification.

Wall-clock pacing (:meth:`Simulator.run`'s ``pace``) only ever sleeps,
so the digest is invariant across pace settings, including the
free-running replay.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigError, ReproError
from repro.faults.schedule import (
    ControlLoss,
    FaultEvent,
    LinkDegrade,
    LinkRestore,
    NodeCrash,
    NodeRecover,
    PacketLossBurst,
)
from repro.obs.health import HealthMonitor, jsonl_delivery
from repro.obs.sinks import SqliteSink
from repro.obs.stream import StreamPublisher
from repro.sim.replay import ReplaySanitizer
from repro.telemetry import Telemetry

JOURNAL_VERSION = 1


# --- fault command vocabulary ---------------------------------------------------


def fault_event_from_args(args: dict[str, Any], now: float) -> FaultEvent:
    """Build the :class:`FaultEvent` a ``POST /faults`` body describes,
    anchored at simulated time ``now``.

    Kinds: ``crash``/``recover`` (``node``), ``degrade`` (``link``,
    ``loss`` and/or ``cap``), ``restore`` (``link``), ``ctrl``
    (``drop``, ``for`` seconds), ``burst`` (``link``, ``loss``,
    ``for`` seconds).  Windowed kinds measure ``for`` from the moment
    of application, which is the journaled tick time — so a replayed
    window is identical.
    """

    def link_of(value: Any) -> tuple[int, int]:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"fault link must be [i, j]: {value!r}")
        return (int(value[0]), int(value[1]))

    kind = args.get("kind")
    if kind == "crash":
        return NodeCrash(at=now, node=int(args["node"]))
    if kind == "recover":
        return NodeRecover(at=now, node=int(args["node"]))
    if kind == "degrade":
        loss = args.get("loss")
        cap = args.get("cap")
        if loss is None and cap is None:
            raise ConfigError("degrade needs 'loss' and/or 'cap'")
        return LinkDegrade(
            at=now,
            link=link_of(args["link"]),
            loss_rate=float(loss) if loss is not None else None,
            capacity_pps=float(cap) if cap is not None else None,
        )
    if kind == "restore":
        return LinkRestore(at=now, link=link_of(args["link"]))
    if kind == "ctrl":
        return ControlLoss(
            at=now,
            drop_prob=float(args["drop"]),
            until=now + float(args["for"]),
        )
    if kind == "burst":
        return PacketLossBurst(
            at=now,
            link=link_of(args["link"]),
            loss_rate=float(args["loss"]),
            until=now + float(args["for"]),
        )
    raise ConfigError(
        f"unknown fault kind {kind!r}; pick from "
        "crash/recover/degrade/restore/ctrl/burst"
    )


# --- the command queue ----------------------------------------------------------


class CommandQueue:
    """Thread-safe FIFO of ``(seq, op, args)`` control commands.

    HTTP worker threads :meth:`submit`; the simulation thread
    :meth:`drain`s at monitor ticks.  Sequence numbers are assigned at
    submission under the lock, so journal order is submission order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._items: list[tuple[int, str, dict[str, Any]]] = []
        self._next_seq = 1

    def submit(self, op: str, args: dict[str, Any]) -> int:
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            self._items.append((seq, op, dict(args)))
            return seq

    def drain(self) -> list[tuple[int, str, dict[str, Any]]]:
        with self._lock:
            items, self._items = self._items, []
            return items

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


# --- the controller (a kernel run monitor) --------------------------------------


@dataclass
class AppliedCommand:
    """One command the controller applied, as journaled."""

    seq: int
    t: float
    op: str
    args: dict[str, Any]
    result: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "record": "command",
            "seq": self.seq,
            "t": self.t,
            "op": self.op,
            "args": self.args,
            "result": self.result,
        }


class ServeController:
    """Applies queued control commands at kernel monitor ticks.

    Live mode (``script=None``): commands arrive via :meth:`submit`
    from any thread; each tick drains the queue, applies the commands
    in submission order through the bound
    :class:`~repro.scenarios.runner.Session`, and appends one
    journal line per command.  A command that fails (unknown flow,
    invalid fault, ...) journals its error string instead of raising —
    a bad request must not kill the session.

    Replay mode (``script`` = the journal's command records): no queue,
    no journal writes; each tick applies every scripted command whose
    recorded tick time has been reached, in sequence order.  Tick
    times are deterministic functions of the event sequence, so the
    replayed commands land at the identical simulated instants and the
    run reproduces the live session's digest.
    """

    def __init__(
        self,
        *,
        interval: float = 0.25,
        journal: Callable[[dict[str, Any]], None] | None = None,
        script: list[AppliedCommand] | None = None,
    ) -> None:
        if interval <= 0:
            raise ConfigError(f"command interval must be positive: {interval}")
        self._interval = interval
        self._journal = journal
        self._script = script
        self._script_index = 0
        self.queue = CommandQueue()
        self.applied: list[AppliedCommand] = []
        self.sim: Any = None
        self.handle: Any = None
        self.ticks = 0
        self.last_tick = 0.0
        self.ended_at: float | None = None
        self.aborted: str | None = None
        self._wall_last = 0.0
        self._events_last = 0
        self.events_per_sec = 0.0

    @property
    def interval(self) -> float:
        return self._interval

    def bind(self, sim: Any, handle: Any) -> None:
        """Called by the runner with its ``Session`` as ``handle``."""
        self.sim = sim
        self.handle = handle
        self._wall_last = time.monotonic()
        sim.attach_monitor(self)

    def submit(self, op: str, args: dict[str, Any]) -> int:
        """Enqueue a command from any thread; returns its sequence
        number (the journal key)."""
        if self._script is not None:
            raise ConfigError("replay controller does not accept live commands")
        return self.queue.submit(op, args)

    # --- tick-context application ---------------------------------------------

    def on_tick(self, now: float) -> None:
        self.ticks += 1
        self.last_tick = now
        wall = time.monotonic()
        if wall > self._wall_last:
            events = self.sim.events_processed
            self.events_per_sec = (events - self._events_last) / (
                wall - self._wall_last
            )
            self._events_last = events
            self._wall_last = wall
        if self._script is not None:
            while self._script_index < len(self._script):
                command = self._script[self._script_index]
                if command.t > now:
                    break
                self._script_index += 1
                self._apply(command.seq, now, command.op, command.args)
            return
        for seq, op, args in self.queue.drain():
            self._apply(seq, now, op, args)

    def on_abort(self, now: float, error: BaseException) -> None:
        self.aborted = f"{type(error).__name__}: {error}"
        if self._journal is not None:
            self._journal(
                {"record": "serve_abort", "t": now, "error": self.aborted}
            )

    def finalize(self, now: float) -> None:
        """Called by the runner after ``sim.run`` returns."""
        self.ended_at = now

    def _apply(
        self, seq: int, now: float, op: str, args: dict[str, Any]
    ) -> None:
        canonical = dict(args)
        try:
            result = self._dispatch(op, canonical, now)
        except ReproError as error:
            result = {"error": f"{type(error).__name__}: {error}"}
        applied = AppliedCommand(
            seq=seq, t=now, op=op, args=canonical, result=result
        )
        self.applied.append(applied)
        if self._journal is not None:
            self._journal(applied.to_json())

    def _dispatch(
        self, op: str, args: dict[str, Any], now: float
    ) -> dict[str, Any]:
        handle = self.handle
        if op == "add_flow":
            flow = handle.add_flow(
                int(args["source"]),
                int(args["destination"]),
                flow_id=(
                    int(args["flow_id"]) if args.get("flow_id") is not None
                    else None
                ),
                weight=float(args.get("weight", 1.0)),
                desired_rate=float(args.get("desired_rate", 800.0)),
                packet_bytes=int(args.get("packet_bytes", 1024)),
            )
            # Canonicalize the assigned id into the journaled args so a
            # replay grafts the identical flow even though its id was
            # chosen at apply time.
            args["flow_id"] = flow.flow_id
            return {"flow_id": flow.flow_id}
        if op == "remove_flow":
            handle.remove_flow(int(args["flow_id"]))
            return {"removed": int(args["flow_id"])}
        if op == "fault":
            event = fault_event_from_args(args, now)
            return {"applied": handle.inject_fault(event)}
        if op == "shutdown":
            handle.stop()
            return {"stopped_at": now}
        raise ConfigError(f"unknown control op {op!r}")


# --- the session journal --------------------------------------------------------


class SessionJournal:
    """Append-only ``commands.jsonl`` writer (one JSON object per
    line, flushed per write so a killed session keeps every applied
    command)."""

    def __init__(self, path: str, header: dict[str, Any]) -> None:
        self.path = str(path)
        self._handle = open(self.path, "w", encoding="utf-8")
        self.write(
            {"record": "serve_header", "version": JOURNAL_VERSION, **header}
        )

    def write(self, record: dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


def load_journal(
    path: str,
) -> tuple[dict[str, Any], list[AppliedCommand], dict[str, Any] | None]:
    """Read a ``commands.jsonl`` back: (header, commands, close record
    or None when the session died before closing)."""
    header: dict[str, Any] | None = None
    commands: list[AppliedCommand] = []
    close: dict[str, Any] | None = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("record")
            if kind == "serve_header":
                header = record
            elif kind == "command":
                commands.append(
                    AppliedCommand(
                        seq=int(record["seq"]),
                        t=float(record["t"]),
                        op=str(record["op"]),
                        args=dict(record["args"]),
                        result=dict(record.get("result", {})),
                    )
                )
            elif kind == "serve_close":
                close = record
    if header is None:
        raise ConfigError(f"{path} has no serve_header record")
    commands.sort(key=lambda command: command.seq)
    return header, commands, close


# --- session orchestration ------------------------------------------------------


@dataclass
class ServeConfig:
    """Everything one served session needs (also journaled, so a
    replay can rebuild the identical run)."""

    scenario: str = "figure3"
    protocol: str = "gmp"
    substrate: str = "fluid"
    duration: float = 3600.0
    seed: int = 1
    traffic: str = "cbr"
    pace: float | None = None
    command_interval: float = 0.25
    host: str = "127.0.0.1"
    port: int = 0
    session_dir: str = "serve-session"
    stream_db: bool = False
    stream_interval: float = 1.0
    health: bool = True
    health_interval: float = 1.0

    def run_kwargs(self) -> dict[str, Any]:
        """The :func:`run_scenario` kwargs that shape the event
        sequence (everything a replay must reproduce exactly)."""
        return {
            "protocol": self.protocol,
            "substrate": self.substrate,
            "duration": self.duration,
            "seed": self.seed,
            "traffic": self.traffic,
        }

    def header(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "substrate": self.substrate,
            "duration": self.duration,
            "seed": self.seed,
            "traffic": self.traffic,
            "pace": self.pace,
            "command_interval": self.command_interval,
        }


def serve_session(
    config: ServeConfig,
    *,
    ready: Callable[[int], None] | None = None,
    emit: Callable[[str], None] = print,
) -> dict[str, Any]:
    """Run one served session to completion; returns the manifest.

    The HTTP plane comes up first (``ready(port)`` fires once it
    listens — with ``port=0`` the OS picks a free one), then the
    simulation runs on the calling thread until the scenario duration
    elapses or a ``POST /shutdown`` command lands.  On the way out the
    run finalizes exactly like a batch run (stream sinks flushed and
    closed, final health sweep), the journal gains its ``serve_close``
    digest record, and ``manifest.json`` summarizes the session.
    """
    import os

    from repro.obs.httpapi import make_server
    from repro.scenarios.runner import run_scenario
    from repro.scenarios.sweep import scenario_factory

    scenario = scenario_factory(config.scenario)()
    os.makedirs(config.session_dir, exist_ok=True)
    journal_path = os.path.join(config.session_dir, "commands.jsonl")
    alerts_path = os.path.join(config.session_dir, "alerts.jsonl")
    journal = SessionJournal(journal_path, config.header())
    controller = ServeController(
        interval=config.command_interval, journal=journal.write
    )

    telemetry = Telemetry(enabled=True)
    sanitizer = ReplaySanitizer()
    stream = None
    sink = None
    if config.stream_db:
        sink = SqliteSink(os.path.join(config.session_dir, "stream.db"))
        stream = StreamPublisher(
            telemetry, [sink], interval=config.stream_interval
        )
    health = None
    if config.health:
        health = HealthMonitor(
            config.health_interval, deliveries=[jsonl_delivery(alerts_path)]
        )

    server, server_thread = make_server(controller, config.host, config.port)
    port = server.server_address[1]
    emit(f"serving {config.scenario} on http://{config.host}:{port}")
    if ready is not None:
        ready(port)

    wall_start = time.monotonic()
    error_text: str | None = None
    result = None
    try:
        result = run_scenario(
            scenario,
            telemetry=telemetry,
            sanitizer=sanitizer,
            stream=stream,
            health=health,
            control=controller,
            pace=config.pace,
            **config.run_kwargs(),
        )
    except ReproError as error:
        error_text = f"{type(error).__name__}: {error}"
    finally:
        server.shutdown()
        server_thread.join(timeout=5.0)
        server.server_close()

    manifest: dict[str, Any] = {
        **config.header(),
        "http_port": port,
        "wall_seconds": time.monotonic() - wall_start,
        "commands_applied": len(controller.applied),
        "journal": journal_path,
    }
    if result is not None:
        digest = result.extras["replay_digest"]
        events = result.extras["events_processed"]
        journal.write(
            {
                "record": "serve_close",
                "t": result.duration if controller.ended_at is None
                else controller.ended_at,
                "events": events,
                "digest": digest,
                "commands": len(controller.applied),
            }
        )
        manifest.update(
            {
                "ended_at": controller.ended_at,
                "events": events,
                "replay_digest": digest,
                "flows_measured": len(result.flow_rates),
                "alerts": (
                    len(result.extras["health"].alerts())
                    if "health" in result.extras
                    else 0
                ),
            }
        )
    else:
        manifest["error"] = error_text
    journal.close()
    if sink is not None:
        sink.close()
    manifest_path = os.path.join(config.session_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    manifest["manifest"] = manifest_path
    if error_text is not None:
        raise ConfigError(f"served session failed: {error_text}")
    return manifest


def replay_session(
    journal_path: str, *, emit: Callable[[str], None] = print
) -> dict[str, Any]:
    """Re-run a served session headless from its command journal.

    Rebuilds the scenario from the journal header, applies every
    journaled command at its recorded tick time, and compares the
    resulting replay digest + event count against the journal's
    ``serve_close`` record.  Returns a report dict with ``matches``
    (None when the original session never closed cleanly).
    """
    from repro.scenarios.runner import run_scenario
    from repro.scenarios.sweep import scenario_factory

    header, commands, close = load_journal(journal_path)
    config = ServeConfig(
        scenario=str(header["scenario"]),
        protocol=str(header["protocol"]),
        substrate=str(header["substrate"]),
        duration=float(header["duration"]),
        seed=int(header["seed"]),
        traffic=str(header.get("traffic", "cbr")),
        command_interval=float(header.get("command_interval", 0.25)),
    )
    scenario = scenario_factory(config.scenario)()
    controller = ServeController(
        interval=config.command_interval, script=commands
    )
    sanitizer = ReplaySanitizer()
    result = run_scenario(
        scenario,
        sanitizer=sanitizer,
        control=controller,
        **config.run_kwargs(),
    )
    digest = result.extras["replay_digest"]
    events = result.extras["events_processed"]
    report: dict[str, Any] = {
        "digest": digest,
        "events": events,
        "commands_applied": len(controller.applied),
        "commands_journaled": len(commands),
        "matches": None,
    }
    if close is not None:
        report["expected_digest"] = close["digest"]
        report["expected_events"] = close["events"]
        report["matches"] = (
            digest == close["digest"] and events == close["events"]
        )
    status = {True: "MATCH", False: "MISMATCH", None: "no close record"}[
        report["matches"]
    ]
    emit(
        f"replay: {report['commands_applied']}/{len(commands)} commands, "
        f"{events} events, digest {digest[:16]}... [{status}]"
    )
    return report


# --- CLI ------------------------------------------------------------------------


def serve_main(argv: list[str] | None = None) -> int:
    """``python -m repro serve`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Host a paced simulation behind a live HTTP observability "
            "and control plane, or replay a served session's command "
            "journal."
        ),
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario name (figure*/scale*); omit with --replay",
    )
    parser.add_argument("--replay", metavar="JOURNAL", default=None)
    parser.add_argument("--protocol", default="gmp")
    parser.add_argument("--substrate", default="fluid")
    parser.add_argument("--duration", type=float, default=3600.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traffic", default="cbr")
    parser.add_argument(
        "--pace",
        type=float,
        default=None,
        help="max simulated seconds per wall second (default: free-run)",
    )
    parser.add_argument("--command-interval", type=float, default=0.25)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument("--session-dir", default="serve-session")
    parser.add_argument(
        "--stream-db",
        action="store_true",
        help="stream telemetry into <session-dir>/stream.db",
    )
    parser.add_argument("--no-health", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.replay is not None:
            report = replay_session(args.replay)
            if report["matches"] is False:
                return 1
            return 0
        if args.scenario is None:
            parser.error("a scenario name (or --replay) is required")
        config = ServeConfig(
            scenario=args.scenario,
            protocol=args.protocol,
            substrate=args.substrate,
            duration=args.duration,
            seed=args.seed,
            traffic=args.traffic,
            pace=args.pace,
            command_interval=args.command_interval,
            host=args.host,
            port=args.port,
            session_dir=args.session_dir,
            stream_db=args.stream_db,
            health=not args.no_health,
        )
        manifest = serve_session(config)
    except ReproError as error:
        print(f"error: {error}")
        return 2
    print(
        f"session closed: {manifest.get('events', '?')} events, "
        f"{manifest['commands_applied']} commands, "
        f"manifest at {manifest['manifest']}"
    )
    return 0
