"""Unit and property tests for backpressure gates and fullness meter."""

from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.backpressure import OracleGate, OverhearingGate
from repro.buffers.occupancy import FullnessMeter
from repro.errors import BufferError_, ConfigError


class TestOverhearingGate:
    def test_unknown_state_is_optimistic(self):
        gate = OverhearingGate()
        assert gate.allows(3, 7, now=0.0)
        assert gate.known_state(3, 7) is None

    def test_full_state_blocks(self):
        gate = OverhearingGate(stale_timeout=1.0)
        gate.update(3, {7: False}, now=0.0)
        assert not gate.allows(3, 7, now=0.5)
        assert gate.known_state(3, 7) is False

    def test_free_state_allows(self):
        gate = OverhearingGate()
        gate.update(3, {7: True}, now=0.0)
        assert gate.allows(3, 7, now=0.0)

    def test_update_reads_the_overheard_map_without_writing_it(self):
        # The map is the frame's own, shared by every receiver: through a
        # read-only view any write would raise.
        states = {7: False, 8: True}
        gate = OverhearingGate()
        gate.update(3, MappingProxyType(states), now=0.0)
        assert states == {7: False, 8: True}
        assert gate.known_state(3, 7) is False and gate.known_state(3, 8) is True

    def test_stale_full_state_stops_blocking(self):
        gate = OverhearingGate(stale_timeout=0.1)
        gate.update(3, {7: False}, now=0.0)
        assert not gate.allows(3, 7, now=0.05)
        assert gate.allows(3, 7, now=0.2), "paper: stop waiting after a while"

    def test_newer_update_overrides(self):
        gate = OverhearingGate(stale_timeout=10.0)
        gate.update(3, {7: False}, now=0.0)
        gate.update(3, {7: True}, now=1.0)
        assert gate.allows(3, 7, now=1.0)

    def test_states_are_per_neighbor_and_destination(self):
        gate = OverhearingGate(stale_timeout=10.0)
        gate.update(3, {7: False}, now=0.0)
        assert gate.allows(4, 7, now=0.0)
        assert gate.allows(3, 8, now=0.0)

    def test_counters(self):
        gate = OverhearingGate(stale_timeout=10.0)
        gate.update(3, {7: False}, now=0.0)
        verdicts = [gate.allows(3, 7, now=0.0), gate.allows(4, 4, now=0.0)]
        assert verdicts.count(False) == 1
        assert verdicts.count(True) == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            OverhearingGate(stale_timeout=0.0)


def test_oracle_gate_delegates():
    state = {"free": True}
    gate = OracleGate(lambda neighbor, dest: state["free"])
    assert gate.allows(1, 2, now=0.0)
    state["free"] = False
    assert not gate.allows(1, 2, now=0.0)


class TestFullnessMeter:
    def test_initially_zero(self):
        meter = FullnessMeter()
        assert meter.fraction_full(10.0) == 0.0

    def test_full_interval_measured(self):
        meter = FullnessMeter()
        meter.set_full(2.0, True)
        meter.set_full(6.0, False)
        assert meter.fraction_full(10.0) == pytest.approx(0.4)

    def test_open_full_interval_counted(self):
        meter = FullnessMeter()
        meter.set_full(5.0, True)
        assert meter.fraction_full(10.0) == pytest.approx(0.5)

    def test_reset_starts_new_window_preserving_state(self):
        meter = FullnessMeter()
        meter.set_full(0.0, True)
        meter.reset(10.0)
        # Still full: the whole new window counts.
        assert meter.fraction_full(15.0) == pytest.approx(1.0)

    def test_idempotent_transitions(self):
        meter = FullnessMeter()
        meter.set_full(0.0, True)
        meter.set_full(1.0, True)  # no-op
        meter.set_full(2.0, False)
        meter.set_full(3.0, False)  # no-op
        assert meter.fraction_full(4.0) == pytest.approx(0.5)

    def test_time_travel_rejected(self):
        meter = FullnessMeter()
        meter.set_full(5.0, True)
        with pytest.raises(BufferError_):
            meter.set_full(4.0, False)

    @settings(max_examples=50, deadline=None)
    @given(
        transitions=st.lists(
            st.tuples(st.floats(min_value=0.01, max_value=1.0), st.booleans()),
            min_size=1,
            max_size=30,
        )
    )
    def test_fraction_always_in_unit_interval(self, transitions):
        meter = FullnessMeter()
        now = 0.0
        for delta, is_full in transitions:
            now += delta
            meter.set_full(now, is_full)
        fraction = meter.fraction_full(now + 0.5)
        assert 0.0 <= fraction <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        durations=st.lists(
            st.floats(min_value=0.01, max_value=2.0), min_size=2, max_size=20
        )
    )
    def test_alternating_fraction_matches_sum(self, durations):
        """Alternating full/unfull intervals: Ω equals summed full time."""
        meter = FullnessMeter()
        now = 0.0
        full_time = 0.0
        state = True
        for duration in durations:
            meter.set_full(now, state)
            if state:
                full_time += duration
            now += duration
            state = not state
        meter.set_full(now, state)
        expected = full_time / now
        assert meter.fraction_full(now) == pytest.approx(expected, abs=1e-9)
