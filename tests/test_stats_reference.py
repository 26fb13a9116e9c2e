"""Bit-exact agreement of the counted exact Wilcoxon path with the enumeration.

``reference_stats.wilcoxon_exact`` enumerates all 2^n sign assignments;
``hdpbench.stats.wilcoxon_signed_rank`` counts them by doubled rank sum.
Every comparison uses ``==``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_stats as ref
from hdpbench import stats

# few distinct values give tied |differences| and zero differences
TIED = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
WIDE = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def paired(draw):
    n = draw(st.integers(1, stats._EXACT_LIMIT))
    values = draw(st.sampled_from([TIED, WIDE, TIED | WIDE]))
    x = draw(st.lists(values, min_size=n, max_size=n))
    # some pairs are equal, so their zero differences are dropped
    y = [a if draw(st.booleans()) and draw(st.booleans()) else draw(values) for a in x]
    return x, y


@settings(max_examples=500)
@given(paired())
@example(([1.0], [0.0]))
@example(([1.0, 2.0], [1.0, 2.0]))  # all differences zero
@example(([1.0, -1.0, 2.0, -2.0], [0.0, 0.0, 0.0, 0.0]))  # tied magnitudes, both signs
@example(([1.0] * 12, [0.0] * 12))  # one 12-way tie
@example(([float(v) for v in range(1, 13)], [0.0] * 12))
@example(([float(v) for v in range(1, 13)], [0.0] * 6 + [20.0] * 6))
def test_exact_wilcoxon_equals_enumeration(case):
    x, y = case
    got = stats.wilcoxon_signed_rank(x, y)
    want = ref.wilcoxon_exact(x, y)
    assert got == want
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
