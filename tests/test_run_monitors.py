"""The Session's one monitor path: every monitor in ``monitors`` (and
``control``) is bound after assembly, ticked by the kernel, told of an
error the run raises, and closed after a clean run."""

import inspect

import pytest

from repro.errors import SimulationError
from repro.obs import HealthMonitor, ServeController, StreamPublisher
from repro.scenarios.runner import RunMonitor
from repro.scenarios.spec import RunSpec
from repro.telemetry import Telemetry


class _Recorder:
    """Logs every hook it receives, in order, into a shared list."""

    interval = 1.0

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def bind(self, session):
        self.log.append((self.name, "bind", session.now))

    def on_tick(self, now):
        self.log.append((self.name, "tick", now))

    def on_abort(self, now, error):
        self.log.append((self.name, "abort", str(error)))

    def close(self, session):
        self.log.append((self.name, "close", session.now))


@pytest.mark.parametrize(
    "monitor",
    [
        StreamPublisher(Telemetry(), "unopened.jsonl"),
        HealthMonitor(),
        ServeController(),
    ],
    ids=lambda monitor: type(monitor).__name__,
)
def test_every_monitor_implements_the_one_protocol(monitor):
    assert monitor.interval > 0
    for name in ("bind", "on_tick", "on_abort", "close"):
        declared = inspect.signature(getattr(RunMonitor, name))
        implemented = inspect.signature(getattr(type(monitor), name))
        assert list(implemented.parameters) == list(declared.parameters), name


def _spec(duration=5.0):
    return RunSpec(scenario="figure3", substrate="fluid", duration=duration, seed=1)


def test_monitors_are_bound_ticked_and_closed_in_list_order():
    log = []
    telemetry = Telemetry()
    closed_after_finalize = []

    class _FinalizeProbe(_Recorder):
        def close(self, session):
            super().close(session)
            # The run header lands in run_info after telemetry.finalize;
            # a monitor closes after both.
            closed_after_finalize.append(
                telemetry.run_info.get("scenario") == "figure3"
            )

    _spec().run(
        telemetry=telemetry,
        monitors=[_Recorder("a", log), _FinalizeProbe("b", log)],
    )
    assert log[:2] == [("a", "bind", 0.0), ("b", "bind", 0.0)]
    ticks = [entry for entry in log if entry[1] == "tick"]
    # One tick per whole-second crossing, at the first event past it;
    # at each instant the monitors tick in list order.
    times = [now for name, _, now in ticks if name == "a"]
    assert len(times) >= 4
    assert [int(now) for now in times] == list(range(1, len(times) + 1))
    assert [name for name, _, _ in ticks] == ["a", "b"] * len(times)
    assert log[-2:] == [("a", "close", 5.0), ("b", "close", 5.0)]
    assert closed_after_finalize == [True]


def test_watchdog_abort_notifies_monitors_before_raising():
    # Every monitor in the list sees the abort once, in list order, and
    # none is closed: the error propagates after the last hook.
    log = []
    monitors = [_Recorder(name, log) for name in ("a", "b", "c")]
    with pytest.raises(SimulationError, match="max_events"):
        _spec(duration=30.0).run(monitors=monitors, max_events=5000)
    aborts = [entry for entry in log if entry[1] == "abort"]
    assert [name for name, _, _ in aborts] == ["a", "b", "c"]
    assert all("max_events" in message for _, _, message in aborts)
    assert not [entry for entry in log if entry[1] == "close"]


def test_failing_abort_hook_never_masks_the_watchdog():
    class ExplodingMonitor(_Recorder):
        def on_abort(self, now, error):
            raise RuntimeError("flush failed")

    log = []
    monitors = [ExplodingMonitor("boom", log), _Recorder("after", log)]
    with pytest.raises(SimulationError, match="max_events"):
        _spec(duration=30.0).run(monitors=monitors, max_events=5000)
    # The hook after the failing one still ran.
    assert [entry[0] for entry in log if entry[1] == "abort"] == ["after"]
