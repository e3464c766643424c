"""Seed derivation and the array-stepped replicate streams, with numpy's own
generators as the oracle."""

import numpy as np
import pytest

from rainmax.seeding import derive_seed, derive_seeds, stream_uniforms

# 2**32 is where SeedSequence's entropy goes from one uint32 word to two
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]


def _numpy_streams(seeds, n):
    return np.stack([np.random.default_rng([s]).random(n) for s in seeds])


class TestStreamUniforms:
    @pytest.mark.parametrize("n", [1, 33, 1000])
    def test_equals_default_rng_bit_for_bit(self, n):
        rng = np.random.default_rng(20260)
        seeds = EDGE_SEEDS + rng.integers(0, 2**63, size=2000).tolist()
        got = stream_uniforms(seeds, n)
        assert got.shape == (len(seeds), n)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, _numpy_streams(seeds, n))

    def test_derived_seeds_and_the_top_of_the_range(self):
        seeds = derive_seeds(29, ("tcvm", "weibull"), range(50)) + [2**64 - 1]
        np.testing.assert_array_equal(stream_uniforms(seeds, 40), _numpy_streams(seeds, 40))

    def test_row_order_follows_seed_order(self):
        seeds = [5, 2**40 + 3, 17]
        forward = stream_uniforms(seeds, 8)
        np.testing.assert_array_equal(stream_uniforms(seeds[::-1], 8), forward[::-1])

    @pytest.mark.parametrize("bad", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_raises(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            stream_uniforms([3, bad], 5)


class TestDeriveSeeds:
    @pytest.mark.parametrize(
        "labels, lasts",
        [
            (("tcvm", "gumbel"), range(300)),
            ((7, 11), [0, 5, 2**40]),
            ((("gof", "Prado"), "stage1"), ["a", ("b", 2), 3]),
            ((), range(20)),
        ],
    )
    def test_equals_derive_seed_loop(self, labels, lasts):
        lasts = list(lasts)
        expected = [derive_seed(123, *labels, last) for last in lasts]
        assert derive_seeds(123, labels, lasts) == expected
        assert all(0 <= s < 2**63 for s in expected)

    def test_equal_values_with_different_reprs_stay_distinct(self):
        seeds = [derive_seed(9, 1), derive_seed(9, 1.0), derive_seed(9, True)]
        assert len(set(seeds)) == 3
        assert derive_seeds(9, (), [1, 1.0, True]) == seeds

    def test_negative_master_rejected(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 2\*\*128\), got -1"):
            derive_seeds(-1, ("tcvm",), range(3))
        with pytest.raises(ValueError, match=r"lie in \[0, 2\*\*128\), got -1"):
            derive_seed(-1, "tcvm")

    def test_master_of_more_than_16_bytes_rejected(self):
        # the master seed is hashed as 16 big-endian bytes
        assert derive_seed(2**128 - 1, "tcvm") >= 0
        with pytest.raises(ValueError, match=rf"lie in \[0, 2\*\*128\), got {2**128}$"):
            derive_seed(2**128, "tcvm")
        with pytest.raises(ValueError, match=r"lie in \[0, 2\*\*128\)"):
            derive_seeds(2**128, ("tcvm",), range(3))
