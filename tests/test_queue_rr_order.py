"""The per-flow oracle's round-robin ordering and waterfill edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.fluid import waterfill_links
from repro.topology.builders import chain_topology
from repro.topology.cliques import maximal_cliques
from repro.topology.contention import ContentionGraph

from helpers import _rr_order


class TestRrOrder:
    def test_no_last_served_sorted(self):
        assert _rr_order([3, 1, 2], None) == [1, 2, 3]

    def test_continues_after_last(self):
        assert _rr_order([1, 2, 3], 2) == [3, 1, 2]

    def test_wraps_at_end(self):
        assert _rr_order([1, 2, 3], 3) == [1, 2, 3]

    def test_unknown_last_falls_back(self):
        assert _rr_order([1, 2, 3], 9) == [1, 2, 3]

    @settings(max_examples=50, deadline=None)
    @given(
        keys=st.sets(st.integers(min_value=0, max_value=50), min_size=1, max_size=10),
        last=st.integers(min_value=0, max_value=50),
    )
    def test_permutation_property(self, keys, last):
        order = _rr_order(keys, last)
        assert sorted(order) == sorted(keys)
        if last in keys and len(keys) > 1:
            assert order[-1] == last


class TestWaterfillEdges:
    def setup_method(self):
        chain = chain_topology(3, spacing=200.0)
        self.cliques = maximal_cliques(ContentionGraph(chain))

    def test_single_link_gets_min_of_demand_and_capacity(self):
        alloc = waterfill_links({(0, 1): 40.0}, self.cliques, capacity=100.0)
        assert alloc[(0, 1)] == pytest.approx(40.0)
        alloc = waterfill_links({(0, 1): 400.0}, self.cliques, capacity=100.0)
        assert alloc[(0, 1)] == pytest.approx(100.0)

    def test_reverse_direction_links_share_clique(self):
        # (0,1) and (1,0) are separate directed links but the same
        # wireless link: both consume the clique.
        alloc = waterfill_links(
            {(0, 1): 1000.0, (1, 0): 1000.0}, self.cliques, capacity=100.0
        )
        assert alloc[(0, 1)] + alloc[(1, 0)] == pytest.approx(100.0)
        assert alloc[(0, 1)] == pytest.approx(alloc[(1, 0)])

    def test_zero_capacity_cap(self):
        alloc = waterfill_links(
            {(0, 1): 10.0}, self.cliques, capacity=100.0, rate_caps={(0, 1): 0.0001}
        )
        assert alloc[(0, 1)] <= 0.0001 + 1e-9
