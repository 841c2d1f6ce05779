"""Unit tests for virtual networks and link classification."""

import pytest

from repro.core.classification import (
    LinkType,
    buffer_is_saturated,
    classify_link,
)
from repro.core.virtual import GrandVirtualNetwork
from repro.errors import ProtocolError
from repro.flows.flow import Flow, FlowSet
from repro.routing.link_state import link_state_routes
from repro.topology.builders import chain_topology


def build_gvn():
    chain = chain_topology(5)
    routes = link_state_routes(chain)
    flows = FlowSet(
        [
            Flow(flow_id=1, source=0, destination=4),
            Flow(flow_id=2, source=2, destination=4),
            Flow(flow_id=3, source=1, destination=0),
        ]
    )
    return GrandVirtualNetwork(routes, flows), flows


def test_destinations():
    gvn, _ = build_gvn()
    assert gvn.destinations() == [0, 4]


def test_virtual_links_per_destination():
    gvn, _ = build_gvn()
    assert gvn.virtual_links(4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert gvn.virtual_links(0) == [(1, 0)]


def test_serves_and_served_destinations():
    gvn, _ = build_gvn()
    assert gvn.serves(2, 4)
    assert not gvn.serves(3, 0)
    assert gvn.served_destinations(1) == [0, 4]
    assert gvn.served_destinations(4) == [4]


def test_upstream_and_downstream():
    gvn, _ = build_gvn()
    assert gvn.upstream_neighbors(3, 4) == frozenset({2})
    assert gvn.upstream_neighbors(0, 4) == frozenset()
    assert gvn.downstream_neighbor(2, 4) == 3
    assert gvn.downstream_neighbor(4, 4) is None


def test_local_flows():
    gvn, _ = build_gvn()
    assert gvn.local_flows(0, 4) == [1]
    assert gvn.local_flows(2, 4) == [2]
    assert gvn.local_flows(3, 4) == []


def test_flows_on_virtual_link():
    # Flow 1 alone uses (0, 1) and (1, 2); flows 1 and 2 share (2, 3)
    # and (3, 4), so those outlive flow 1's departure.
    gvn, flows = build_gvn()
    assert gvn.remove_flow(flows.get(1)) == [((0, 1), 4), ((1, 2), 4)]
    assert gvn.virtual_links(4) == [(2, 3), (3, 4)]


def test_flow_links_and_nodes_on_path():
    gvn, _ = build_gvn()
    assert gvn.flow_links(2) == [(2, 3), (3, 4)]
    assert gvn.flow_links(1) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    with pytest.raises(ProtocolError):
        gvn.flow_links(42)


def test_all_virtual_links():
    gvn, _ = build_gvn()
    pairs = gvn.all_virtual_links()
    assert (((1, 0)), 0) in pairs
    assert len(pairs) == 5


@pytest.mark.parametrize(
    "up,down,expected",
    [
        (False, False, LinkType.UNSATURATED),
        (False, True, LinkType.UNSATURATED),
        (True, False, LinkType.BANDWIDTH_SATURATED),
        (True, True, LinkType.BUFFER_SATURATED),
    ],
)
def test_classify_link(up, down, expected):
    assert classify_link(up, down) is expected


def test_buffer_saturation_threshold():
    assert buffer_is_saturated(0.26, threshold=0.25)
    assert not buffer_is_saturated(0.25, threshold=0.25)
    assert not buffer_is_saturated(0.0, threshold=0.25)
