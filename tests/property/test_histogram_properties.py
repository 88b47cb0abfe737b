"""Property-based tests for the hybrid histogram.

A histogram's summary is only trustworthy if it is a pure function of
the observed *multiset*: threads and pool workers report events in
nondeterministic order.  On arbitrary observation lists (including ones
big enough to spill into log buckets), the order of observation never
changes a bit of the summary or of the bucket counts.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.metrics import EXACT_LIMIT, Histogram

# Magnitudes spanning many octaves, plus exact zeros and negatives —
# every bucketing regime (pos/neg/zero) participates.
observation = st.one_of(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    st.just(0.0),
    st.floats(min_value=-1e3, max_value=-1e-3, allow_nan=False,
              allow_infinity=False),
)


@st.composite
def observations(draw):
    """Observed values; sometimes enough of them to spill."""
    values = draw(st.lists(observation, min_size=1, max_size=30))
    if draw(st.booleans()):
        # Replicate past EXACT_LIMIT so the histogram spills to buckets,
        # without asking hypothesis for 500+ distinct floats.
        values = values * (EXACT_LIMIT // len(values) + 2)
    return values


def _state(histogram):
    """Order-free state: the sorted values while exact (they are kept in
    insertion order), the bucket counts once spilled."""
    if histogram.exact:
        return sorted(histogram.values)
    return histogram._zero, histogram._pos, histogram._neg


class TestObservationOrder:
    @settings(max_examples=50, deadline=None)
    @given(values=observations(),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_shuffled_order_is_bit_identical(self, values, seed):
        in_order = Histogram("h", values)
        permuted = list(values)
        random.Random(seed).shuffle(permuted)
        shuffled = Histogram("h", permuted)

        # Bit-identical, not approx: fsum is correctly rounded and
        # bucket state is a pure function of the observed multiset.
        assert in_order.exact == shuffled.exact == (len(values) <= EXACT_LIMIT)
        assert in_order.summary() == shuffled.summary()
        assert _state(in_order) == _state(shuffled)
