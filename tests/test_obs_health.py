"""In-run health monitor: alert dedup/cooldown, delivery hooks, silence
on a clean run, and mid-run detection on an injected fault run."""

import json

import pytest

from repro.errors import ConfigError, SimulationError
from repro.faults import FaultSchedule, NodeCrash, NodeRecover
from repro.fidelity.anomaly import detect_anomalies
from repro.flows.flow import Flow, FlowSet
from repro.obs import (
    AlertLog,
    HealthMonitor,
    console_delivery,
    jsonl_delivery,
    webhook_delivery,
)
from repro.scenarios.figures import Scenario, figure3
from repro.scenarios.runner import run_scenario
from repro.telemetry import Telemetry
from repro.topology.builders import chain_topology

from helpers import random_scenario


# ---------------------------------------------------------------- alert log


def test_alert_log_dedups_and_gates_redelivery_on_cooldown():
    delivered = []
    log = AlertLog(deliveries=[delivered.append])

    log.raise_alert(10.0, "starved_flow", "warning", {"flow": "1"}, "m1")
    log.raise_alert(12.0, "starved_flow", "warning", {"flow": "1"}, "m2")
    log.raise_alert(21.0, "starved_flow", "warning", {"flow": "1"}, "m3")

    assert len(log) == 1
    alert = log.alerts()[0]
    assert alert.count == 3
    assert alert.first_seen == 10.0 and alert.last_seen == 21.0
    assert alert.message == "m3"
    # First occurrence delivers immediately; the t=12 repeat is inside
    # the cooldown, the t=21 repeat is past it.
    assert alert.deliveries == 2
    assert len(delivered) == 2


def test_alert_log_separates_label_sets_and_escalates_severity():
    log = AlertLog()
    log.raise_alert(10.0, "queue_divergence", "warning", {"node": "1"}, "a")
    log.raise_alert(10.0, "queue_divergence", "warning", {"node": "2"}, "b")
    assert len(log) == 2

    log.raise_alert(11.0, "queue_divergence", "critical", {"node": "1"}, "worse")
    log.raise_alert(12.0, "queue_divergence", "warning", {"node": "1"}, "calmer")
    # Critical sticks: a later warning-level repeat does not demote.
    assert log.alerts()[0].severity == "critical"


def test_alert_log_render_clean_and_with_alerts():
    log = AlertLog()
    assert log.render() == "health: clean (no alerts)"
    log.raise_alert(5.0, "event_rate_stall", "critical", {}, "went quiet")
    rendered = log.render()
    assert "1 alert(s)" in rendered
    assert "[critical] event_rate_stall" in rendered


# ---------------------------------------------------------------- deliveries


def test_console_delivery_writes_rendered_line():
    lines = []
    log = AlertLog(deliveries=[console_delivery(write=lines.append)])
    log.raise_alert(5.0, "starved_flow", "warning", {"flow": "2"}, "flow 2 starved")
    assert lines and lines[0].startswith("health alert [warning] starved_flow")


def test_jsonl_delivery_appends_durable_lines(tmp_path):
    path = tmp_path / "alerts.jsonl"
    log = AlertLog(deliveries=[jsonl_delivery(str(path))])
    log.raise_alert(5.0, "starved_flow", "warning", {"flow": "2"}, "starved")
    log.raise_alert(6.0, "queue_divergence", "warning", {"node": "1"}, "queues")
    payloads = [json.loads(line) for line in path.read_text().splitlines()]
    assert [p["probe"] for p in payloads] == ["starved_flow", "queue_divergence"]
    assert payloads[0]["first_seen"] == 5.0


def test_webhook_delivery_stub_collects_posts():
    posted = []
    hook = webhook_delivery("http://ops/alerts", post=lambda url, p: posted.append(url))
    log = AlertLog(deliveries=[hook])
    log.raise_alert(
        5.0, "condition_flapping", "warning", {"link": "0->1"}, "flapping"
    )
    assert hook.sent[0][0] == "http://ops/alerts"
    assert hook.sent[0][1]["probe"] == "condition_flapping"
    assert posted == ["http://ops/alerts"]


# ---------------------------------------------------------------- config


def test_health_monitor_validates_config():
    for interval in (0.0, -1.0):
        with pytest.raises(ConfigError):
            HealthMonitor(interval)
    assert HealthMonitor(0.5).interval == 0.5


# ---------------------------------------------------------------- clean run


def test_clean_run_raises_no_alerts():
    telemetry = Telemetry()
    health = HealthMonitor(deliveries=[])
    result = run_scenario(
        figure3(),
        protocol="gmp",
        substrate="fluid",
        duration=40.0,
        seed=1,
        rate_interval=1.0,
        telemetry=telemetry,
        health=health,
    )
    log = result.extras["health"]
    assert log is health.log
    assert log.alerts() == []
    assert health.ticks > 30  # ticked throughout, not just at the end


# ---------------------------------------------------------------- fault run


def _crash_scenario():
    return Scenario(
        name="crash",
        topology=chain_topology(4),
        flows=FlowSet(
            [
                Flow(flow_id=1, source=0, destination=3, desired_rate=40.0),
                Flow(flow_id=2, source=2, destination=3, desired_rate=40.0),
            ]
        ),
        notes="",
    )


def test_crash_run_alerts_mid_run_with_dedup():
    duration = 40.0
    telemetry = Telemetry()
    hook = webhook_delivery("http://ops/alerts", post=lambda url, payload: None)
    health = HealthMonitor(deliveries=[hook])
    result = run_scenario(
        _crash_scenario(),
        protocol="gmp",
        substrate="fluid",
        duration=duration,
        seed=7,
        capacity_pps=400.0,
        rate_interval=1.0,
        telemetry=telemetry,
        health=health,
        faults=FaultSchedule(
            [NodeCrash(at=12.0, node=1), NodeRecover(at=27.0, node=1)]
        ),
    )
    alerts = result.extras["health"].alerts()
    assert alerts, "injected crash must be flagged"
    flagged = alerts[0]
    # Raised mid-run (timestamped well before the run ended), and the
    # persisting condition deduplicated into one alert that repeated.
    assert flagged.first_seen < duration
    assert flagged.count >= 1
    raised_total = sum(alert.count for alert in alerts)
    assert raised_total > len(alerts), "persisting conditions should dedup"
    # Deliveries were cooldown-gated, not one per raise.
    assert 0 < len(hook.sent) < raised_total


def test_live_alerts_are_a_prefix_of_the_end_of_run_scan():
    """The live schedule scans the end-of-run windows cut at ``now``,
    so every (detector, labels) it raised is also an end-of-run
    finding."""
    health = HealthMonitor(deliveries=[])
    result = run_scenario(
        _crash_scenario(),
        protocol="gmp",
        substrate="fluid",
        duration=40.0,
        seed=7,
        capacity_pps=400.0,
        rate_interval=1.0,
        telemetry=Telemetry(),
        health=health,
        faults=FaultSchedule(
            [NodeCrash(at=12.0, node=1), NodeRecover(at=27.0, node=1)]
        ),
    )
    live = {
        (alert.probe, tuple(sorted(alert.labels.items())))
        for alert in health.alerts()
    }
    final = {
        (finding.detector, tuple(sorted(finding.labels.items())))
        for finding in detect_anomalies(result).findings
    }
    assert {probe for probe, _ in live} >= {"starved_flow", "queue_divergence"}
    assert live <= final


# ---------------------------------------------------------------- stall


@pytest.mark.parametrize("seed", [20, 27])
def test_event_rate_stall_fires_when_the_run_goes_quiet(seed):
    # On these random networks the queues drain 20-25 s in, and the
    # event rate over the last 5 s falls below a quarter of the run's
    # mean rate before that window.
    health = HealthMonitor(deliveries=[])
    run_scenario(
        random_scenario(seed),
        protocol="gmp",
        substrate="fluid",
        duration=30.0,
        seed=1,
        telemetry=Telemetry(),
        health=health,
    )
    stalls = [a for a in health.alerts() if a.probe == "event_rate_stall"]
    assert len(stalls) == 1
    assert stalls[0].severity == "critical"
    assert stalls[0].labels == {}
    assert "event rate fell to" in stalls[0].message


# ---------------------------------------------------------------- abort


def test_watchdog_abort_raises_critical_alert():
    telemetry = Telemetry()
    health = HealthMonitor(deliveries=[])
    with pytest.raises(SimulationError):
        run_scenario(
            figure3(),
            protocol="gmp",
            substrate="fluid",
            duration=30.0,
            seed=1,
            telemetry=telemetry,
            health=health,
            max_events=5000,
        )
    alerts = health.alerts()
    assert [a.probe for a in alerts] == ["watchdog_abort"]
    assert alerts[0].severity == "critical"
    assert "max_events" in alerts[0].message


# ---------------------------------------------------------------- webhook HTTP


class _WebhookFixture:
    """Local HTTP endpoint that records POSTs and can be told to fail
    the first N requests with a 500."""

    def __init__(self, fail_first=0):
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        self.received = []
        self.fail_remaining = fail_first
        fixture = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length)
                if fixture.fail_remaining > 0:
                    fixture.fail_remaining -= 1
                    self.send_response(500)
                    self.end_headers()
                    return
                fixture.received.append(json.loads(body))
                self.send_response(200)
                self.end_headers()

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/alerts"
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.thread.join(timeout=5)
        self.server.server_close()


@pytest.fixture
def webhook_server():
    fixture = _WebhookFixture()
    yield fixture
    fixture.close()


def _raise_one(hook, probe="starved_flow"):
    log = AlertLog(deliveries=[hook])
    log.raise_alert(5.0, probe, "warning", {"flow": "2"}, "starved")
    return log


def test_webhook_posts_alert_json_over_http(webhook_server):
    hook = webhook_delivery(webhook_server.url)
    _raise_one(hook)
    assert hook.delivered == 1
    assert hook.failed == 0
    assert hook.attempts == 1
    assert webhook_server.received[0]["probe"] == "starved_flow"
    assert webhook_server.received[0]["severity"] == "warning"


def test_webhook_retries_transient_failures_then_delivers():
    fixture = _WebhookFixture(fail_first=2)
    try:
        hook = webhook_delivery(fixture.url, retries=2, backoff=0.01)
        _raise_one(hook)
        assert hook.delivered == 1
        assert hook.failed == 0
        assert hook.attempts == 3
        assert len(fixture.received) == 1
    finally:
        fixture.close()


def test_webhook_exhausted_retries_hit_dead_letter(tmp_path):
    fixture = _WebhookFixture(fail_first=99)
    dead = tmp_path / "dead.jsonl"
    try:
        hook = webhook_delivery(
            fixture.url, retries=1, backoff=0.01, dead_letter=str(dead)
        )
        _raise_one(hook)
        assert hook.delivered == 0
        assert hook.failed == 1
        assert hook.attempts == 2
        records = [
            json.loads(line) for line in dead.read_text().splitlines()
        ]
        assert len(records) == 1
        assert records[0]["url"] == fixture.url
        assert "HTTP" in records[0]["error"] or "500" in records[0]["error"]
        assert records[0]["alert"]["probe"] == "starved_flow"
    finally:
        fixture.close()


def test_webhook_unreachable_host_fails_without_raising(tmp_path):
    dead = tmp_path / "dead.jsonl"
    # A connection refusal (nothing listens on the port) must degrade
    # to a dead-letter record, never an exception into the run.
    hook = webhook_delivery(
        "http://127.0.0.1:9/alerts",
        retries=0,
        backoff=0.0,
        timeout=0.5,
        dead_letter=str(dead),
    )
    _raise_one(hook)
    assert hook.delivered == 0
    assert hook.failed == 1
    assert dead.exists()


def test_webhook_validates_config():
    with pytest.raises(ConfigError):
        webhook_delivery("http://x", timeout=0.0)
    with pytest.raises(ConfigError):
        webhook_delivery("http://x", retries=-1)
    with pytest.raises(ConfigError):
        webhook_delivery("http://x", backoff=-0.1)
