"""Seeded helpers: the weighted draws consume ``Generator.choice``'s stream."""

import numpy as np
import pytest

from repro.rng import weighted_choice, weighted_sample_distinct


def twin_generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestWeightedDraws:
    def test_weighted_choice_is_generator_choice(self):
        ours, numpys = twin_generators(3)
        p = np.random.default_rng(0).dirichlet(np.full(12, 0.3))
        for _ in range(200):
            assert weighted_choice(ours, p) == numpys.choice(len(p), p=p)
        assert ours.bit_generator.state == numpys.bit_generator.state

    @pytest.mark.parametrize("with_cdf", [False, True])
    def test_distinct_sample_is_generator_choice_through_redraws(self, with_cdf):
        ours, numpys = twin_generators(4)
        p = np.array([0.6, 0.0, 0.25, 0.1, 0.05])  # skewed: duplicates are common
        cdf = np.cumsum(p) / np.cumsum(p)[-1] if with_cdf else None
        for size in [1, 2, 3, 4] * 50:
            got = weighted_sample_distinct(ours, p, size, cdf=cdf)
            want = numpys.choice(len(p), size=size, replace=False, p=p)
            assert got.tolist() == want.tolist()
            assert got.dtype == want.dtype
        assert ours.bit_generator.state == numpys.bit_generator.state
        assert p[0] == 0.6  # the caller's vector is not the one zeroed

    def test_more_than_the_positive_entries_raises(self):
        with pytest.raises(ValueError):
            weighted_sample_distinct(np.random.default_rng(0), np.array([0.5, 0.5, 0.0]), 3)
