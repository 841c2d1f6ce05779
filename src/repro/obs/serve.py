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
the command's sequence number.  The controller is the run's
``control`` :class:`~repro.scenarios.runner.RunMonitor`; at each tick — a
deterministic function of the simulated clock — it drains the queue on
the *simulation* thread, applies each command through the run's
:class:`~repro.scenarios.runner.Session` (flow graft/retire via
the churn engine, faults via the injector, graceful stop), and
journals the applied command with its tick time to ``commands.jsonl``.
The journal opens with a ``serve_header`` record holding the run's
:class:`~repro.scenarios.spec.RunSpec` and the command interval.
Because tick times and application order are recorded, ``python -m
repro serve --replay commands.jsonl`` rebuilds that spec, re-runs the
session headless, re-applies every command at the identical simulated
instant, and must reproduce the identical event digest (L0), observable
digest (L1) and dispatched-event count — the journal's ``serve_close``
record carries all three for self-verification.

The controller also paces the run to the wall clock, at command-tick
granularity; it only ever sleeps, so the digest is invariant across
pace settings, including the free-running replay.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
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
from repro.obs.stream import StreamPublisher
from repro.scenarios.spec import RunSpec, add_run_flags, spec_from_args
from repro.sim.replay import ReplaySanitizer
from repro.telemetry import Telemetry

#: Version 3: the run as a :class:`RunSpec` under ``"spec"``, closed by L0 and L1.
JOURNAL_VERSION = 3


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


# --- the controller (the run's control monitor) ---------------------------------


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
    """Applies queued control commands at monitor ticks, and paces the
    run to the wall clock.

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

    Pacing (``pace`` simulated seconds per wall second, None to run
    free): each tick, once its commands are applied, sleeps until the
    wall time since :meth:`bind` reaches ``now / pace``.  It only
    sleeps, so the run is the same at every pace.
    """

    def __init__(
        self,
        *,
        interval: float = 0.25,
        pace: float | None = None,
        journal: Callable[[dict[str, Any]], None] | None = None,
        script: list[AppliedCommand] | None = None,
    ) -> None:
        if not 0 < interval < math.inf:
            raise ConfigError(
                f"command interval must be positive and finite: {interval}"
            )
        if pace is not None and not 0 < pace < math.inf:
            raise ConfigError(f"pace must be positive and finite: {pace}")
        self.interval = interval
        self.pace = pace
        self.journal = journal
        self._script = script
        self._script_index = 0
        self.queue = CommandQueue()
        self.applied: list[AppliedCommand] = []
        self.handle: Any = None
        self.ticks = 0
        self.last_tick = 0.0
        self.ended_at: float | None = None
        self.aborted: str | None = None
        self._stopped = False
        self._wall_origin = 0.0  # when the run, bound at t=0, starts
        self._wall_last = 0.0
        self._events_last = 0
        self.events_per_sec = 0.0

    def submit(self, op: str, args: dict[str, Any]) -> int:
        """Enqueue a command from any thread; returns its sequence
        number (the journal key)."""
        if self._script is not None:
            raise ConfigError("replay controller does not accept live commands")
        return self.queue.submit(op, args)

    # --- RunMonitor hooks -------------------------------------------------------

    def bind(self, session: Any) -> None:
        """Steer ``session`` (a :class:`~repro.scenarios.runner.Session`)."""
        self.handle = session
        self._wall_origin = self._wall_last = time.monotonic()

    def on_tick(self, now: float) -> None:
        self.ticks += 1
        self.last_tick = now
        wall = time.monotonic()
        if wall > self._wall_last:
            events = self.handle.events_processed
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
        else:
            for seq, op, args in self.queue.drain():
                self._apply(seq, now, op, args)
        if self.pace is not None and not self._stopped:
            lag = self._wall_origin + now / self.pace - time.monotonic()
            if lag > 0:
                time.sleep(lag)

    def on_abort(self, now: float, error: BaseException) -> None:
        self.aborted = f"{type(error).__name__}: {error}"
        if self.journal is not None:
            self.journal(
                {"record": "serve_abort", "t": now, "error": self.aborted}
            )

    def close(self, session: Any) -> None:
        self.ended_at = session.now

    # --- tick-context application ---------------------------------------------

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
        if self.journal is not None:
            self.journal(applied.to_json())

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
            self._stopped = True
            return {"stopped_at": now}
        raise ConfigError(f"unknown control op {op!r}")


# --- the session journal --------------------------------------------------------


class SessionJournal:
    """Append-only ``commands.jsonl`` writer (one JSON object per
    line, flushed per write so a killed session keeps every applied
    command)."""

    def __init__(self, path: str, header: dict[str, Any]) -> None:
        self._handle = open(path, "w", encoding="utf-8")
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
    if header.get("version") != JOURNAL_VERSION:
        raise ConfigError(
            f"{path} is a version {header.get('version')} journal; this "
            f"build replays version {JOURNAL_VERSION}"
        )
    commands.sort(key=lambda command: command.seq)
    return header, commands, close


# --- session orchestration ------------------------------------------------------


@dataclass
class ServeConfig:
    """How one served session is hosted: pacing, the command cadence,
    the HTTP plane and what the session directory receives.  The run
    itself is a :class:`~repro.scenarios.spec.RunSpec`."""

    pace: float | None = None
    command_interval: float = 0.25
    host: str = "127.0.0.1"
    port: int = 0
    session_dir: str = "serve-session"
    metrics_out: str | None = None
    health: bool = True


def serve_session(
    spec: RunSpec,
    config: ServeConfig,
    *,
    ready: Callable[[int], None] | None = None,
    emit: Callable[[str], None] = print,
) -> dict[str, Any]:
    """Run one served session to completion; returns the manifest.

    The HTTP plane comes up first (``ready(port)`` fires once it
    listens — with ``port=0`` the OS picks a free one), then ``spec``
    runs on the calling thread until its duration elapses or a ``POST
    /shutdown`` command lands.  On the way out the
    run finalizes exactly like a batch run (the ``metrics_out`` stream
    closed, final health sweep), the journal gains its ``serve_close``
    digest record, and ``manifest.json`` summarizes the session.
    """
    import os

    from repro.obs.httpapi import make_server

    header = {
        "spec": spec.to_json(),
        "command_interval": config.command_interval,
        "pace": config.pace,
    }
    # The controller validates the pacing flags: a bad one leaves no
    # session directory behind.
    controller = ServeController(interval=config.command_interval, pace=config.pace)
    os.makedirs(config.session_dir, exist_ok=True)
    journal_path = os.path.join(config.session_dir, "commands.jsonl")
    alerts_path = os.path.join(config.session_dir, "alerts.jsonl")
    journal = SessionJournal(journal_path, header)
    controller.journal = journal.write

    telemetry = Telemetry()
    sanitizer = ReplaySanitizer()
    stream = None
    if config.metrics_out is not None:
        stream = StreamPublisher(telemetry, config.metrics_out)
    health = None
    if config.health:
        health = HealthMonitor(deliveries=[jsonl_delivery(alerts_path)])
    monitors = [monitor for monitor in (stream, health) if monitor is not None]

    server, server_thread = make_server(
        controller, config.host, config.port, health=health, stream=stream
    )
    port = server.server_address[1]
    emit(f"serving {spec.scenario} on http://{config.host}:{port}")
    if ready is not None:
        ready(port)

    wall_start = time.monotonic()
    error_text: str | None = None
    result = None
    try:
        result = spec.run(
            telemetry=telemetry,
            sanitizer=sanitizer,
            monitors=monitors,
            control=controller,
        )
    except ReproError as error:
        error_text = f"{type(error).__name__}: {error}"
    finally:
        wall_seconds = time.monotonic() - wall_start
        server.shutdown()
        server_thread.join(timeout=5.0)
        server.server_close()

    manifest: dict[str, Any] = {
        **header,
        "http_port": port,
        "wall_seconds": wall_seconds,
        "commands_applied": len(controller.applied),
        "journal": journal_path,
    }
    if result is not None:
        digest = result.extras["replay_digest"]
        observable = result.extras["observable_digest"]
        events = result.extras["events_processed"]
        journal.write(
            {
                "record": "serve_close",
                "t": result.duration if controller.ended_at is None
                else controller.ended_at,
                "events": events,
                "digest": digest,
                "observable_digest": observable,
                "commands": len(controller.applied),
            }
        )
        manifest.update(
            {
                "ended_at": controller.ended_at,
                "events": events,
                "replay_digest": digest,
                "observable_digest": observable,
                "flows_measured": len(result.flow_rates),
                "alerts": len(health.alerts()) if health is not None else 0,
            }
        )
    else:
        manifest["error"] = error_text
    journal.close()
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

    Rebuilds the run from the journal header's spec, applies every
    journaled command at its recorded tick time, and compares the
    resulting L0 and L1 digests + event count against the journal's
    ``serve_close`` record.  Returns a report dict with ``matches``
    (None when the original session never closed cleanly).

    Raises:
        ConfigError: on a journal of another version or a malformed
            spec.
    """
    header, commands, close = load_journal(journal_path)
    controller = ServeController(
        interval=float(header.get("command_interval", 0.25)), script=commands
    )
    sanitizer = ReplaySanitizer()
    result = RunSpec.from_json(header.get("spec")).run(
        sanitizer=sanitizer, control=controller
    )
    measured = {
        "digest": result.extras["replay_digest"],
        "observable_digest": result.extras["observable_digest"],
        "events": result.extras["events_processed"],
    }
    report: dict[str, Any] = {
        **measured,
        "commands_applied": len(controller.applied),
        "commands_journaled": len(commands),
        "matches": None,
    }
    if close is not None:
        report.update({f"expected_{key}": close.get(key) for key in measured})
        report["matches"] = all(close.get(key) == measured[key] for key in measured)
    status = {True: "MATCH", False: "MISMATCH", None: "no close record"}[
        report["matches"]
    ]
    emit(
        f"replay: {report['commands_applied']}/{len(commands)} commands, "
        f"{report['events']} events, L0 digest {report['digest'][:16]}..., "
        f"L1 digest {report['observable_digest'][:16]}... [{status}]"
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
    add_run_flags(
        parser,
        ("protocol", "substrate", "duration", "seed", "traffic"),
        duration=3600.0,
    )
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
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="stream telemetry metrics + events as JSONL to PATH while "
        "the session runs",
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
        spec = spec_from_args(args)
        config = ServeConfig(
            pace=args.pace,
            command_interval=args.command_interval,
            host=args.host,
            port=args.port,
            session_dir=args.session_dir,
            metrics_out=args.metrics_out,
            health=not args.no_health,
        )
        manifest = serve_session(spec, config)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"session closed: {manifest.get('events', '?')} events, "
        f"{manifest['commands_applied']} commands, "
        f"manifest at {manifest['manifest']}"
    )
    return 0
