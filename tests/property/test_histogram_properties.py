"""Property-based tests for the hybrid histogram and the registry.

The batch engine merges per-worker histogram payloads back into one
registry, and workers finish in nondeterministic order — so the merged
summary is only trustworthy if it is a pure function of the observed
*multiset*.  On arbitrary shardings (including shards big enough to
spill into log buckets): merge order never changes a bit of the
summary, and merging shards is indistinguishable from one process
observing everything itself.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.metrics import EXACT_LIMIT, Histogram, MetricsRegistry

# Magnitudes spanning many octaves, plus exact zeros and negatives —
# every bucketing regime (pos/neg/zero) participates.
observation = st.one_of(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    st.just(0.0),
    st.floats(min_value=-1e3, max_value=-1e-3, allow_nan=False,
              allow_infinity=False),
)


def _multiset(payload):
    """Order-free view of a histogram payload.

    Exact payloads are insertion-ordered verbatim lists — the *multiset*
    is the deterministic part, not the order.  Bucketed payloads are
    dicts and already canonical.
    """
    return sorted(payload) if isinstance(payload, list) else payload


@st.composite
def shard(draw):
    """One worker's observations; sometimes big enough to spill."""
    values = draw(st.lists(observation, min_size=1, max_size=30))
    if draw(st.booleans()):
        # Replicate past EXACT_LIMIT so this shard ships a bucketed
        # payload, without asking hypothesis for 500+ distinct floats.
        values = values * (EXACT_LIMIT // len(values) + 2)
    return values


class TestMergeDeterminism:
    @settings(max_examples=50, deadline=None)
    @given(shards=st.lists(shard(), min_size=2, max_size=4),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_merge_order_invariance_bit_identical(self, shards, seed):
        payloads = []
        for values in shards:
            h = Histogram("m")
            for value in values:
                h.observe(value)
            payloads.append(h.to_payload())

        in_order = Histogram("m")
        for payload in payloads:
            in_order.merge(payload)

        shuffled = Histogram("m")
        permuted = list(payloads)
        random.Random(seed).shuffle(permuted)
        for payload in permuted:
            shuffled.merge(payload)

        # Bit-identical, not approx: fsum is correctly rounded and
        # bucket state is a pure function of the observed multiset.
        assert in_order.summary() == shuffled.summary()
        assert _multiset(in_order.to_payload()) == _multiset(
            shuffled.to_payload()
        )

    @settings(max_examples=50, deadline=None)
    @given(shards=st.lists(shard(), min_size=2, max_size=4))
    def test_merged_shards_match_single_process(self, shards):
        merged = Histogram("m")
        for values in shards:
            worker = Histogram("m")
            for value in values:
                worker.observe(value)
            merged.merge(worker.to_payload())

        single = Histogram("m")
        for values in shards:
            for value in values:
                single.observe(value)

        assert merged.exact == single.exact
        assert merged.summary() == single.summary()
        assert _multiset(merged.to_payload()) == _multiset(
            single.to_payload()
        )

    @settings(max_examples=30, deadline=None)
    @given(shards=st.lists(shard(), min_size=2, max_size=3),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_registry_records_bit_identical_across_merge_orders(
        self, shards, seed
    ):
        # The cross-process path the engine actually uses: worker
        # registries serialize to payloads, the parent merges them,
        # records() feeds the trace file.
        def build(order):
            registry = MetricsRegistry()
            for values in order:
                worker = MetricsRegistry()
                for value in values:
                    worker.histogram("batch.query_latency_s").observe(value)
                worker.counter("queries").inc(len(values))
                registry.merge(worker.to_payload())
            return registry.records()

        permuted = list(shards)
        random.Random(seed).shuffle(permuted)
        assert build(shards) == build(permuted)
