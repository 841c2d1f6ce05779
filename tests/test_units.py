"""Unit tests for unit conversions."""

import pytest

from repro.units import (
    MBPS,
    MICROSECONDS,
    MILLISECONDS,
    bits,
    packets_per_second,
    transmission_time,
)


def test_time_constants():
    assert MILLISECONDS == 1e-3
    assert MICROSECONDS == 1e-6


def test_bits():
    assert bits(1) == 8
    assert bits(1024) == 8192


def test_transmission_time():
    # 1024 bytes at 11 Mbps.
    assert transmission_time(1024, 11 * MBPS) == pytest.approx(8192 / 11e6)
    with pytest.raises(ValueError):
        transmission_time(10, 0)


def test_packets_per_second_roundtrip():
    rate_bps = 800 * bits(1024)
    assert rate_bps == pytest.approx(800 * 8192)
    assert packets_per_second(rate_bps, 1024) == pytest.approx(800)
    with pytest.raises(ValueError):
        packets_per_second(1e6, 0)
