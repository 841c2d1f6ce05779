"""In-run health monitor: alert dedup/cooldown, delivery hooks, silence
on a clean run, and mid-run detection on an injected fault run."""

import json

import pytest

from repro.errors import SimulationError
from repro.obs import (
    AlertLog,
    HealthMonitor,
    console_delivery,
    jsonl_delivery,
)
from repro.obs.health import LIVE_DETECTORS
from repro.scenarios.spec import LITERAL, RunSpec
from repro.telemetry import Telemetry

from helpers import random_scenario


# ---------------------------------------------------------------- alert log


def test_alert_log_dedups_and_gates_redelivery_on_cooldown():
    delivered = []
    log = AlertLog(deliveries=[delivered.append])

    log.raise_alert(10.0, "starved_flow", "warning", {"flow": "1"}, "m1")
    log.raise_alert(12.0, "starved_flow", "warning", {"flow": "1"}, "m2")
    log.raise_alert(21.0, "starved_flow", "warning", {"flow": "1"}, "m3")

    (alert,) = log.alerts()
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
    assert len(log.alerts()) == 2

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


# ---------------------------------------------------------------- clean run


def test_clean_run_raises_no_alerts():
    telemetry = Telemetry()
    health = HealthMonitor(deliveries=[])
    result = RunSpec(
        scenario="figure3",
        protocol="gmp",
        substrate="fluid",
        duration=40.0,
        seed=1,
        rate_interval=1.0,
    ).run(telemetry=telemetry, monitors=[health])
    assert "health" not in result.extras  # the caller holds the monitor
    assert health.alerts() == []
    assert health.ticks > 30  # ticked throughout, not just at the end


# ---------------------------------------------------------------- fault run


#: The 4-node chain with flows 0->3 and 2->3 at 40 pkt/s; relay 1
#: crashes at 12 s and recovers at 27 s.
CRASH = dict(
    scenario=LITERAL,
    topology={
        "nodes": [[0.0, 0.0], [200.0, 0.0], [400.0, 0.0], [600.0, 0.0]],
        "flows": [[0, 3, 1.0, 40.0], [2, 3, 1.0, 40.0]],
    },
    faults="crash:1@12;recover:1@27",
)


def test_crash_run_alerts_mid_run_with_dedup():
    duration = 40.0
    telemetry = Telemetry()
    delivered = []
    health = HealthMonitor(deliveries=[delivered.append])
    RunSpec(
        **CRASH,
        protocol="gmp",
        substrate="fluid",
        duration=duration,
        seed=7,
        capacity_pps=400.0,
        rate_interval=1.0,
    ).run(telemetry=telemetry, monitors=[health])
    alerts = health.alerts()
    assert alerts, "injected crash must be flagged"
    flagged = alerts[0]
    # Raised mid-run (timestamped well before the run ended), and the
    # persisting condition deduplicated into one alert that repeated.
    assert flagged.first_seen < duration
    assert flagged.count >= 1
    raised_total = sum(alert.count for alert in alerts)
    assert raised_total > len(alerts), "persisting conditions should dedup"
    # Deliveries were cooldown-gated, not one per raise.
    assert 0 < len(delivered) < raised_total


def test_live_alerts_are_a_prefix_of_the_end_of_run_scan():
    """The live schedule scans the whole-run windows cut at ``now``,
    so every (detector, labels) it raised is also a finding of the
    same detectors over the finished run (``until=None``)."""
    health = HealthMonitor(deliveries=[])
    result = RunSpec(
        **CRASH,
        protocol="gmp",
        substrate="fluid",
        duration=40.0,
        seed=7,
        capacity_pps=400.0,
        rate_interval=1.0,
    ).run(telemetry=Telemetry(), monitors=[health])
    live = {
        (alert.probe, tuple(sorted(alert.labels.items())))
        for alert in health.alerts()
    }
    final = {
        (alert.probe, tuple(sorted(alert.labels.items())))
        for detector in LIVE_DETECTORS
        for alert in detector(result, until=None)
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
    RunSpec(
        **random_scenario(seed), protocol="gmp", substrate="fluid", duration=30.0, seed=1
    ).run(telemetry=Telemetry(), monitors=[health])
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
        RunSpec(
            scenario="figure3", protocol="gmp", substrate="fluid", duration=30.0, seed=1
        ).run(telemetry=telemetry, monitors=[health], max_events=5000)
    alerts = health.alerts()
    assert [a.probe for a in alerts] == ["watchdog_abort"]
    assert alerts[0].severity == "critical"
    assert "max_events" in alerts[0].message
