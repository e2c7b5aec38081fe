"""numpy as the oracle of the pure-Python statistics (repro.stats).

``derive_seed``/``derive_seeds`` and ``summarize`` reproduce numpy's
``SeedSequence`` spawning and its ``mean``/``std``/``percentile`` without
importing numpy, so that replaying a stored campaign never loads it.  These
properties hold them to numpy's own code: any seed or summary that moves by
one bit would re-key or re-render every stored campaign.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.scenarios.spec import MAX_NUM_RUNS
from repro.stats.montecarlo import derive_seed, derive_seeds
from repro.stats.summary import summarize


def numpy_seed(entropy: int, index: int) -> int:
    """The seed derivation as it was written against numpy."""
    sequence = np.random.SeedSequence(entropy=entropy, spawn_key=(index,))
    return int(sequence.generate_state(1, dtype=np.uint64)[0] >> 1)


def numpy_summary(values: list[float]) -> tuple:
    """``summarize`` as it was written against numpy, as its field tuple."""
    data = np.asarray(list(values), dtype=float)
    with np.errstate(over="ignore"):  # squared deviations of 1e300 overflow
        d1, q1, med, q3, d9 = np.percentile(data, [10.0, 25.0, 50.0, 75.0, 90.0])
        mean = float(min(max(data.mean(), data.min()), data.max()))
        std = float(data.std(ddof=0))
    return (
        int(data.size), mean, std, float(data.min()), float(d1), float(q1),
        float(med), float(q3), float(d9), float(data.max()),
    )


def spread(n: int) -> list[float]:
    """``n`` deterministic values over seven decades, for the size examples."""
    return [(k * 0.6180339887498949) % 1.0 * 10.0 ** (k % 7 - 3) for k in range(n)]


@settings(max_examples=300, deadline=None)
@given(entropy=st.integers(0, 2**256 - 1), index=st.integers(0, 2**33))
@example(entropy=0, index=0)
@example(entropy=2**32 - 1, index=1)
@example(entropy=2**32, index=2**32)
@example(entropy=2**128, index=2**33)
@example(entropy=2**128 + 1, index=7)  # five entropy words: past the 4-word pool
def test_derive_seed_is_numpys_seed_sequence(entropy, index):
    assert derive_seed(entropy, index) == numpy_seed(entropy, index)


@settings(max_examples=50, deadline=None)
@given(entropy=st.integers(0, 2**256 - 1), num_runs=st.integers(1, 12))
@example(entropy=2018, num_runs=12)
def test_derive_seeds_is_numpys_seed_sequence(entropy, num_runs):
    seeds = derive_seeds(entropy, num_runs)
    assert seeds == [numpy_seed(entropy, index) for index in range(num_runs)]
    assert seeds.base_entropy == entropy


def test_a_negative_base_seed_is_refused():
    with pytest.raises(AnalysisError, match="non-negative"):
        derive_seeds(-1, 2)
    with pytest.raises(AnalysisError, match="non-negative"):
        derive_seed(0, -1)


#: Finite floats up to 1e300 in magnitude, subnormals included; ``+ 0.0``
#: turns -0.0 into 0.0, the one value whose order numpy leaves arbitrary.
_FINITE = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.1, 0.2, 0.3, 1.0, 5e-324]),
).map(lambda value: value + 0.0)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_FINITE, min_size=1, max_size=300))
@example(values=spread(1))
@example(values=spread(2))
@example(values=spread(7))
@example(values=spread(8))  # the first blocked sum
@example(values=spread(9))
@example(values=spread(16))
@example(values=spread(17))
@example(values=spread(128))  # the last unsplit block
@example(values=spread(129))
@example(values=spread(130))  # halves split at 64, the multiple of 8 below 65
@example(values=spread(8193))  # one past numpy's buffer size
@example(values=spread(MAX_NUM_RUNS))
@example(values=[5.83321493915412e-210] * 3)  # the mean rounds past the extrema
def test_summarize_is_numpys_summary(values):
    observed = astuple(summarize(values))
    assert list(map(repr, observed)) == list(map(repr, numpy_summary(values)))
