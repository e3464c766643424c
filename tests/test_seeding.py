"""Seed derivation: its range, its label hashing and its generators."""

import hashlib

import numpy as np
import pytest

from rainmax.seeding import derive_rng, derive_seed


class TestDeriveSeed:
    @pytest.mark.parametrize(
        "master, labels, seed",
        [
            (0, (), 2681726611888514743),
            (29, ("gof", "Salto"), 1647118846621960045),
            (29, ("tcvm", "weibull", 7, 1), 5343092110045960095),
            (2**128 - 1, ("stage1",), 5167071945052199581),
            (1, (1.0, None), 8597265130794871936),
        ],
    )
    def test_seed_is_the_documented_hash(self, master, labels, seed):
        # the blake2s-64 digest of the master's 16 big-endian bytes and of
        # each label's blake2s-64 digest of its repr, shifted right by one;
        # the literals pin every seed the outputs were made with
        h = hashlib.blake2s(master.to_bytes(16, "big"), digest_size=8)
        for label in labels:
            h.update(hashlib.blake2s(repr(label).encode(), digest_size=8).digest())
        assert derive_seed(master, *labels) == int.from_bytes(h.digest(), "big") >> 1 == seed

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
