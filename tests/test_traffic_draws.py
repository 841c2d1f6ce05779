"""The source tick's draw and token paths against the ones they replace.

``PoissonSource`` draws its gaps ``GAP_BLOCK`` at a time from a stream
it resolves once; the oracle (``tests/helpers.py``) looks the stream up
and makes one scalar draw per gap.  A sized numpy draw fills its array
element by element with the scalar sampler, so the tick times must be
the same floats, across block boundaries, through pause / resume /
stop, with two sources drawing from one registry, and the registry
must create its streams in the same order.

A tick takes its token and its next-token time from one
``TokenBucket.take`` refill, where it used to call ``try_consume`` and
then ``next_available`` at the same ``now``; those two calls are the
reference bucket in ``tests/helpers.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.flow import Flow
from repro.flows.traffic import GAP_BLOCK, PoissonSource
from repro.sim.kernel import Simulator

from helpers import ReferenceTokenBucket, ScalarPoissonSource

TICKS = st.sampled_from([1, 2, GAP_BLOCK - 1, GAP_BLOCK, GAP_BLOCK + 1, 3 * GAP_BLOCK])

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("ticks"), st.integers(0, 1), TICKS),
        st.tuples(st.sampled_from(["pause", "resume", "stop"]), st.integers(0, 1)),
        st.tuples(st.just("limit"), st.integers(0, 1), st.sampled_from([None, 90.0, 700.0])),
        st.tuples(st.just("idle"), st.sampled_from([0.0, 0.013, 0.5])),
    ),
    max_size=12,
)


def _replay(source_cls, rates, steps, seed):
    """Drive two sources of ``source_cls`` on one simulator through
    ``steps``; return each one's tick times and the registry's stream
    names after every step."""
    sim = Simulator(seed=seed)
    times: list[list[float]] = [[], []]
    wanted = [0, 0]

    def admit_for(index):
        def admit(packet):
            times[index].append(packet.created_at)
            if len(times[index]) == wanted[index]:
                sim.stop()
            return True

        return admit

    # Stream traffic before the sources: the registry's order must not
    # depend on when a source first draws relative to other consumers.
    sim.rng.stream("runner.start_jitter")
    sources = [
        source_cls(sim, Flow(index + 1, 0, 1, desired_rate=rate), admit_for(index))
        for index, rate in enumerate(rates)
    ]
    # Started in the other order than they first tick: a stream is
    # created at a source's first gap, not when it starts.
    sources[1].start(offset=0.001)
    sources[0].start(offset=0.0)
    names = []
    for step in steps:
        kind = step[0]
        if kind == "ticks":
            _kind, index, count = step
            wanted[index] = len(times[index]) + count
            # A paused or stopped source never gets there: stop anyway.
            sim.run(until=sim.now + 4.0 * count / rates[index] + 0.1)
            wanted[index] = 0
        elif kind == "idle":
            sim.run(until=sim.now + step[1])
        elif kind == "limit":
            sources[step[1]].set_rate_limit(step[2])
        else:
            getattr(sources[step[1]], kind)()
        names.append(sim.rng.names())
    return times, names


@settings(max_examples=60, deadline=None)
@given(
    rates=st.tuples(
        st.sampled_from([100.0, 800.0, 1234.5]), st.sampled_from([50.0, 800.0])
    ),
    steps=STEPS,
    seed=st.integers(0, 3),
)
def test_block_draws_tick_exactly_where_scalar_draws_did(rates, steps, seed):
    block = _replay(PoissonSource, rates, steps, seed)
    scalar = _replay(ScalarPoissonSource, rates, steps, seed)
    assert block == scalar


def test_block_draws_cross_several_block_boundaries():
    steps = [("ticks", 0, 3 * GAP_BLOCK + 5), ("pause", 1), ("ticks", 0, GAP_BLOCK + 1)]
    block_times, block_names = _replay(PoissonSource, (800.0, 800.0), steps, 1)
    scalar_times, scalar_names = _replay(ScalarPoissonSource, (800.0, 800.0), steps, 1)
    assert len(block_times[0]) == 4 * GAP_BLOCK + 6
    assert block_times == scalar_times and block_names == scalar_names
    assert block_names[-1] == [
        "runner.start_jitter",
        "traffic.poisson.f1",
        "traffic.poisson.f2",
    ]


@settings(max_examples=100, deadline=None)
@given(
    rate=st.floats(min_value=0.5, max_value=2000.0),
    burst=st.sampled_from([1.0, 1.5, 4.0]),
    steps=st.lists(
        st.tuples(
            st.sampled_from([0.0, 1e-9, 0.0004, 0.003, 0.25]),
            st.one_of(st.none(), st.floats(min_value=0.5, max_value=2000.0)),
        ),
        min_size=1,
        max_size=80,
    ),
)
def test_one_refill_take_equals_consume_then_next_available(rate, burst, steps):
    one = ReferenceTokenBucket(rate, burst=burst)
    two = ReferenceTokenBucket(rate, burst=burst)
    now = 0.0
    for gap, new_rate in steps:
        now += gap
        if new_rate is not None:
            one.set_rate(new_rate, now)
            two.set_rate(new_rate, now)
        assert one.take(now) == (two.try_consume(now), two.next_available(now))
        assert one.tokens(now) == two.tokens(now)
