"""Unit tests for PHY timing."""

import pytest

from repro.errors import ConfigError
from repro.mac.phy import (
    DEFAULT_PHY,
    PhyProfile,
)
from repro.units import MBPS, MICROSECONDS

#: Classic 11 Mbps DSSS with the long PLCP preamble (192 us) and 1 Mbps
#: control frames: a second profile to check the timing arithmetic on.
PHY_80211B_LONG = PhyProfile(
    data_rate=11.0 * MBPS,
    basic_rate=1.0 * MBPS,
    preamble=192 * MICROSECONDS,
)


def test_difs_is_sifs_plus_two_slots():
    phy = DEFAULT_PHY
    assert phy.difs == pytest.approx(phy.sifs + 2 * phy.slot_time)


def test_eifs_exceeds_difs():
    for phy in (DEFAULT_PHY, PHY_80211B_LONG):
        assert phy.eifs > phy.difs
        assert phy.eifs == pytest.approx(phy.sifs + phy.ack_duration + phy.difs)


def test_long_preamble_durations():
    phy = PHY_80211B_LONG
    # RTS: 192 us preamble + 20 bytes at 1 Mbps = 192 + 160 us.
    assert phy.rts_duration == pytest.approx(352 * MICROSECONDS)
    assert phy.cts_duration == pytest.approx(304 * MICROSECONDS)
    assert phy.ack_duration == pytest.approx(304 * MICROSECONDS)


def test_short_preamble_durations():
    phy = DEFAULT_PHY
    # RTS: 96 us preamble + 20 bytes at 2 Mbps = 96 + 80 us.
    assert phy.rts_duration == pytest.approx(176 * MICROSECONDS)
    assert phy.cts_duration == pytest.approx(152 * MICROSECONDS)


def test_data_duration_scales_with_payload():
    phy = DEFAULT_PHY
    small = phy.data_duration(100)
    large = phy.data_duration(1024)
    assert large > small
    # 1024-byte payload + 28-byte header at 11 Mbps plus preamble.
    expected = 96e-6 + (1052 * 8) / 11e6
    assert large == pytest.approx(expected)


def test_exchange_duration_composition():
    phy = DEFAULT_PHY
    expected = (
        phy.rts_duration
        + phy.cts_duration
        + phy.data_duration(1024)
        + phy.ack_duration
        + 3 * phy.sifs
    )
    assert phy.exchange_duration(1024) == pytest.approx(expected)


def test_saturation_rate_plausible_for_paper_setup():
    # The paper's clique throughput is in the hundreds of packets/s at
    # 11 Mbps with 1024-byte packets.
    rate = DEFAULT_PHY.saturation_rate(1024)
    assert 400 < rate < 800
    # More contenders means less average backoff per exchange.
    assert DEFAULT_PHY.saturation_rate(1024, contenders=3) > rate


def test_cw_after_retries_doubles_and_caps():
    phy = DEFAULT_PHY
    assert phy.cw_after_retries(0) == 31
    assert phy.cw_after_retries(1) == 63
    assert phy.cw_after_retries(2) == 127
    assert phy.cw_after_retries(10) == phy.cw_max


def test_profile_validation():
    with pytest.raises(ConfigError):
        PhyProfile(data_rate=0.0, basic_rate=1e6, preamble=1e-4)
    with pytest.raises(ConfigError):
        PhyProfile(
            data_rate=1e6, basic_rate=1e6, preamble=1e-4, cw_min=64, cw_max=32
        )
