"""The four benchmark workloads and what is read off a finished run.

Only public entry points are used: ``SCENARIO_FACTORIES``,
``run_scenario`` and (for the accuracy reference)
``weighted_maxmin_rates``.  Imports of ``repro`` happen inside the
functions so the parent process, which only orchestrates children,
never loads the library.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

#: figure3 fault script of the dynamic workload; times are in simulated
#: seconds of the full-length run and scale with ``--quick``.
FAULT_TEMPLATE = (
    "degrade:2-3@{0:g}:loss=0.3,cap=120;restore:2-3@{1:g};"
    "crash:1@{2:g};recover:1@{3:g};ctrl:0.5@{4:g}-{5:g}"
)
FAULT_TIMES = (20.0, 50.0, 60.0, 80.0, 90.0, 120.0)

#: The dynamic workload's churn draw is pinned to this run seed (see
#: :func:`run_kwargs`).
PINNED_CHURN_SEED = 1

#: Real seconds one pass may spend inside ``Simulator.run`` before the
#: kernel watchdog fails it (a pass takes 5-13 s here).
WALL_DEADLINE_S = 40.0


@dataclass(frozen=True)
class Workload:
    """One set of inputs.

    Attributes:
        name: the name in ``BENCHMARK.json``.
        why: why the workload exists (one line, also in the JSON).
        scenario: key into ``SCENARIO_FACTORIES``.
        substrate: ``"fluid"`` or ``"dcf"``.
        duration: simulated seconds of the full-length run.
        dynamic: Poisson flow churn plus the fault script.
    """

    name: str
    why: str
    scenario: str
    substrate: str
    duration: float
    dynamic: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig3_fluid_static",
            why=(
                "per-packet path (sim, buffers, flows, stack, core) on a "
                "fixed flow set; 2 ms set-up and the allocation memo always "
                "hits, so topology and solver work must not move it"
            ),
            scenario="figure3",
            substrate="fluid",
            duration=600.0,
        ),
        Workload(
            name="fig3_fluid_dynamic",
            why=(
                "same layers under Poisson flow churn and faults: flows "
                "grafted/retired, memo invalidated, batches re-injected; "
                "shows a static-path gain that costs the dynamic path"
            ),
            scenario="figure3",
            substrate="fluid",
            duration=150.0,
            dynamic=True,
        ),
        Workload(
            name="fig3_dcf_gmp",
            why=(
                "packet-level DCF: mac.dcf and mac.channel dominate and the "
                "fluid solver is unused, so solver work must not move it "
                "and DCF work moves only it"
            ),
            scenario="figure3",
            substrate="dcf",
            duration=60.0,
        ),
        Workload(
            name="scale300_fluid",
            why=(
                "300-node city scale: set-up is clique enumeration, the "
                "FluidMac membership pre-warm and routing; the run is "
                "mac.fluid rounds; proxy for the excluded scale1000"
            ),
            scenario="scale300",
            substrate="fluid",
            duration=20.0,
        ),
    )
}


def run_kwargs(workload: Workload, seed: int, *, quick: bool) -> dict[str, Any]:
    """Keyword arguments for ``run_scenario``, made from ``seed``.

    ``seed`` is the run seed (source start jitter, DCF backoff, loss
    draws) on the three workloads with a fixed flow set.  On the
    dynamic workload the churn draw is a function of the run seed too,
    and which flows arrive moves host time and ``throughput_u`` by an
    inter-quartile 12-17 % across draws, so there the run seed stays
    :data:`PINNED_CHURN_SEED` and ``seed`` shifts the phase of the
    arrival process in 10 ms steps instead; seed 1 is phase 0.
    """
    from repro.churn.spec import ChurnSpec
    from repro.faults.spec import parse_fault_spec

    scale = 0.1 if quick else 1.0
    kwargs: dict[str, Any] = {
        "protocol": "gmp",
        "substrate": workload.substrate,
        "duration": workload.duration * scale,
        "seed": seed,
        "wall_deadline": WALL_DEADLINE_S,
    }
    if workload.dynamic:
        kwargs["seed"] = PINNED_CHURN_SEED
        kwargs["churn"] = ChurnSpec(
            rate=0.5,
            mean_hold=8.0,
            max_flows=8,
            start=((seed - 1) % 100) / 100.0,
        )
        kwargs["faults"] = parse_fault_spec(
            FAULT_TEMPLATE.format(*(t * scale for t in FAULT_TIMES))
        )
    return kwargs


def reference_rates(scenario: Any) -> tuple[dict[int, float], float]:
    """Centralized weighted maxmin rates of the scenario's own flows
    (the accuracy reference) and the seconds the solve took."""
    import time

    from repro.analysis.maxmin_reference import weighted_maxmin_rates
    from repro.mac.phy import DEFAULT_PHY
    from repro.routing.link_state import link_state_routes
    from repro.topology.cliques import maximal_cliques
    from repro.topology.contention import ContentionGraph

    routes = link_state_routes(scenario.topology)
    cliques = maximal_cliques(ContentionGraph(scenario.topology))
    packet_bytes = max(flow.packet_bytes for flow in scenario.flows)
    capacity = DEFAULT_PHY.saturation_rate(packet_bytes, contenders=3)
    start = time.perf_counter()
    solution = weighted_maxmin_rates(scenario.flows, routes, cliques, capacity)
    return dict(solution.rates), time.perf_counter() - start


def simulated_metrics(scenario: Any, result: Any) -> dict[str, float]:
    """The simulated end-to-end numbers of one run.

    ``imm`` and ``min_flow_rate`` range over the scenario's own flows:
    a churned flow that arrives in the last second has rate 0 whatever
    the protocol does, which is not starvation.
    """
    from repro.analysis.fairness import maxmin_fairness_index

    rates = [result.flow_rates[flow.flow_id] for flow in scenario.flows]
    return {
        "throughput_u": result.effective_throughput,
        "imm": maxmin_fairness_index(rates),
        "min_flow_rate": min(rates),
    }


def maxmin_gap(scenario: Any, result: Any, reference: dict[int, float]) -> float:
    """Largest relative distance of a scenario flow from its reference."""
    return max(
        abs(result.flow_rates[flow.flow_id] - reference[flow.flow_id])
        / reference[flow.flow_id]
        for flow in scenario.flows
    )


def sim_digest(result: Any) -> str:
    """sha256 over everything simulated that the benchmark reads: per-
    flow rates, dispatched events, buffer and MAC drops.  Must repeat
    exactly for a fixed seed, traced or not."""
    parts = [f"{flow_id}:{rate!r}" for flow_id, rate in sorted(result.flow_rates.items())]
    parts.append(f"events:{result.extras['events_processed']}")
    parts.append(f"drops:{result.buffer_drops}:{result.mac_drops}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()
