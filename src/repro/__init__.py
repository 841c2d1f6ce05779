"""repro — reproduction of "Achieving Global End-to-End Maxmin in
Multihop Wireless Networks" (ICDCS 2008).

The package implements the paper's GMP protocol and every substrate it
depends on: a discrete-event kernel, a packet-level IEEE 802.11 DCF
simulator, buffer-based backpressure, link classification over virtual
networks, and the 802.11/2PP baselines used in the evaluation.

Quickstart: a run is a :class:`RunSpec`::

    from repro import RunSpec

    result = RunSpec(scenario="figure3", protocol="gmp", duration=60.0, seed=1).run()
    for flow_id, rate in sorted(result.flow_rates.items()):
        print(flow_id, rate)
"""

from repro.core import GmpConfig, GmpProtocol
from repro.errors import ReproError
from repro.flows import Flow, FlowSet
from repro.scenarios import RunResult, RunSpec
from repro.topology import Topology, chain_topology, grid_topology, random_topology

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "Flow",
    "FlowSet",
    "GmpConfig",
    "GmpProtocol",
    "RunResult",
    "RunSpec",
    "Topology",
    "chain_topology",
    "grid_topology",
    "random_topology",
    "__version__",
]
