"""Seed derivation: its range, its label hashing and its generators."""

import numpy as np
import pytest

from rainmax.seeding import derive_rng, derive_seed


class TestDeriveSeed:
    def test_seeds_are_63_bit_and_label_paths_distinct(self):
        seeds = [derive_seed(123, "tcvm", "gumbel", b) for b in range(300)]
        assert all(0 <= s < 2**63 for s in seeds)
        assert len(set(seeds)) == 300
        assert derive_seed(123, "tcvm", "gumbel") not in seeds

    def test_equal_values_with_different_reprs_stay_distinct(self):
        seeds = [derive_seed(9, 1), derive_seed(9, 1.0), derive_seed(9, True)]
        assert len(set(seeds)) == 3

    def test_rng_is_numpys_generator_of_the_seed(self):
        got = derive_rng(29, "tcvm", "weibull").random(40)
        want = np.random.default_rng([derive_seed(29, "tcvm", "weibull")]).random(40)
        np.testing.assert_array_equal(got, want)

    def test_negative_master_rejected(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 2\*\*128\), got -1"):
            derive_seed(-1, "tcvm")

    def test_master_of_more_than_16_bytes_rejected(self):
        # the master seed is hashed as 16 big-endian bytes
        assert derive_seed(2**128 - 1, "tcvm") >= 0
        with pytest.raises(ValueError, match=rf"lie in \[0, 2\*\*128\), got {2**128}$"):
            derive_seed(2**128, "tcvm")
