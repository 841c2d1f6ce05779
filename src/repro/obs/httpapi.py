"""The HTTP plane of service mode: stdlib-only routing and handlers.

One :class:`http.server.ThreadingHTTPServer` fronts a live
:class:`~repro.obs.serve.ServeController`.  Read endpoints inspect the
run directly (plain attribute reads of live state — safe under the
GIL, with a bounded retry for the rare ``RuntimeError`` when a dict is
resized mid-iteration); control endpoints only *enqueue* commands and
answer ``202 Accepted`` with the command's sequence number — the
simulation thread applies them at the next monitor tick (see
:mod:`repro.obs.serve` for the determinism story).

Endpoints:

====== ==================== ==========================================
Method Path                 Meaning
====== ==================== ==========================================
GET    ``/status``          sim time, events/s, queue depth, streams
GET    ``/metrics``         Prometheus text exposition (live registry)
GET    ``/health``          health-monitor probe state + alert counts
GET    ``/alerts``          full alert log
GET    ``/flows``           every flow with live measured rate
GET    ``/flows/<id>``      per-flow explainer (bottleneck clique,
                            dominant GMP condition, reference gap)
POST   ``/flows``           enqueue a flow arrival
DELETE ``/flows/<id>``      enqueue a flow departure
POST   ``/faults``          enqueue a fault (crash/degrade/ctrl/...)
POST   ``/shutdown``        enqueue a graceful stop
====== ==================== ==========================================
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.errors import ConfigError, ReproError

#: Attempts for reads racing the simulation thread's dict mutations.
_READ_RETRIES = 3


class Unavailable(Exception):
    """The resource exists but cannot be served right now (503)."""


class NotFound(Exception):
    """No such resource (404)."""


def _with_retries(read: Callable[[], Any]) -> Any:
    for attempt in range(_READ_RETRIES):
        try:
            return read()
        except RuntimeError:
            # Dict resized during iteration: the sim thread got between
            # us and the data.  Transient by nature — retry.
            if attempt == _READ_RETRIES - 1:
                raise
    raise AssertionError("unreachable")


class ServeApi:
    """Route table + handlers, separated from the socket machinery so
    tests can drive it without a listening server.  ``health`` and
    ``stream`` are the session's monitors (None when it runs without)."""

    def __init__(self, controller: Any, *, health: Any = None, stream: Any = None) -> None:
        self.controller = controller
        self.health_monitor = health
        self.stream = stream

    # --- helpers ---------------------------------------------------------------

    def _handle(self) -> Any:
        handle = self.controller.handle
        if handle is None:
            raise Unavailable("simulation still starting")
        return handle

    # --- read endpoints --------------------------------------------------------

    def status(self) -> dict[str, Any]:
        controller = self.controller
        handle = self._handle()
        payload = {
            **handle.run_info(),
            "t": handle.now,
            "events": handle.events_processed,
            "events_per_sec_wall": controller.events_per_sec,
            "queue_depth": handle.queue_depth,
            "commands_applied": len(controller.applied),
            "commands_pending": len(controller.queue),
            "controller_ticks": controller.ticks,
            "last_tick": controller.last_tick,
        }
        if self.stream is not None:
            payload["stream"] = {
                "flushes": self.stream.flushes,
                "records_streamed": self.stream.records_streamed,
            }
        return payload

    def metrics_text(self) -> str:
        from repro.telemetry.exporters import render_metrics_prometheus

        telemetry = self._handle().telemetry
        if telemetry is None:
            raise Unavailable("this session has no telemetry")
        return _with_retries(lambda: render_metrics_prometheus(telemetry))

    def health(self) -> dict[str, Any]:
        health = self.health_monitor
        if health is None:
            return {"enabled": False}
        alerts = _with_retries(health.alerts)
        return {
            "enabled": True,
            "ticks": health.ticks,
            "interval": health.interval,
            "alerts": len(alerts),
            "raised_total": sum(alert.count for alert in alerts),
            "probes": sorted({alert.probe for alert in alerts}),
        }

    def alerts(self) -> list[dict[str, Any]]:
        health = self.health_monitor
        if health is None:
            return []
        return _with_retries(
            lambda: [alert.to_json() for alert in health.alerts()]
        )

    def flows(self) -> list[dict[str, Any]]:
        return _with_retries(self._handle().flows_summary)

    def flow_detail(self, flow_id: int) -> dict[str, Any]:
        from repro.fidelity.explain import explain_flow

        def read() -> dict[str, Any]:
            result = self._handle().partial_result()
            if flow_id not in result.flow_rates:
                raise NotFound(f"no flow {flow_id} in this run")
            return explain_flow(result, flow_id).to_json()

        return _with_retries(read)

    # --- control endpoints -----------------------------------------------------

    def submit(self, op: str, args: dict[str, Any]) -> dict[str, Any]:
        seq = self.controller.submit(op, args)
        return {"accepted": True, "op": op, "seq": seq}


def _flow_id_of(path: str) -> int | None:
    tail = path[len("/flows/"):]
    try:
        return int(tail)
    except ValueError:
        return None


class _Handler(BaseHTTPRequestHandler):
    api: ServeApi  # injected by make_server

    # Quiet by default: one log line per request on stderr would swamp
    # the operator console the daemon shares.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # --- plumbing --------------------------------------------------------------

    def _send(
        self, status: int, payload: Any, content_type: str = "application/json"
    ) -> None:
        body = (
            payload
            if isinstance(payload, bytes)
            else json.dumps(payload, sort_keys=True).encode("utf-8")
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def _body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ConfigError("request body must be a JSON object")
        return data

    def _guarded(self, respond: Callable[[], None]) -> None:
        try:
            respond()
        except Unavailable as error:
            self._error(503, str(error))
        except NotFound as error:
            self._error(404, str(error))
        except (ConfigError, ReproError, ValueError, KeyError) as error:
            self._error(400, f"{type(error).__name__}: {error}")
        except RuntimeError:
            self._error(503, "live state busy; retry")

    # --- methods ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        api = self.api
        path = self.path.split("?", 1)[0].rstrip("/") or "/"

        def respond() -> None:
            if path == "/status":
                self._send(200, api.status())
            elif path == "/metrics":
                self._send(
                    200,
                    api.metrics_text().encode("utf-8"),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/health":
                self._send(200, api.health())
            elif path == "/alerts":
                self._send(200, api.alerts())
            elif path == "/flows":
                self._send(200, api.flows())
            elif path.startswith("/flows/"):
                flow_id = _flow_id_of(path)
                if flow_id is None:
                    self._error(400, f"bad flow id in {path!r}")
                else:
                    self._send(200, api.flow_detail(flow_id))
            else:
                self._error(404, f"no such endpoint {path!r}")

        self._guarded(respond)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        api = self.api
        path = self.path.split("?", 1)[0].rstrip("/")

        def respond() -> None:
            if path == "/flows":
                self._send(202, api.submit("add_flow", self._body()))
            elif path == "/faults":
                self._send(202, api.submit("fault", self._body()))
            elif path == "/shutdown":
                self._send(202, api.submit("shutdown", {}))
            else:
                self._error(404, f"no such endpoint {path!r}")

        self._guarded(respond)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        api = self.api
        path = self.path.split("?", 1)[0].rstrip("/")

        def respond() -> None:
            if path.startswith("/flows/"):
                flow_id = _flow_id_of(path)
                if flow_id is None:
                    self._error(400, f"bad flow id in {path!r}")
                else:
                    self._send(
                        202, api.submit("remove_flow", {"flow_id": flow_id})
                    )
            else:
                self._error(404, f"no such endpoint {path!r}")

        self._guarded(respond)


def make_server(
    controller: Any, host: str, port: int, *, health: Any = None, stream: Any = None
) -> tuple[ThreadingHTTPServer, threading.Thread]:
    """Start the HTTP plane on a daemon thread; returns the live
    server (``server.server_address[1]`` is the bound port — pass
    ``port=0`` to let the OS pick) and its thread.  Call
    ``server.shutdown()`` then join the thread to stop it."""
    api = ServeApi(controller, health=health, stream=stream)
    handler = type("BoundHandler", (_Handler,), {"api": api})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    # A short poll interval lets ``server.shutdown()`` return promptly
    # once a session ends (the default waits up to half a second).
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-serve-http",
        daemon=True,
    )
    thread.start()
    return server, thread
