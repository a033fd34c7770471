import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpvfl import numerics
from dpvfl.errors import ArgumentError
from dpvfl.mechanism import clip_norm
from dpvfl.numerics import (
    Rng,
    as_matrix,
    pair_firsts,
    pair_indices,
    pairwise_distances,
)


def per_row_distances(batch):
    """Reference: one row's distances to every later row at a time."""
    return np.concatenate([
        np.sqrt(np.einsum("ij,ij->i", batch[j + 1:] - batch[j], batch[j + 1:] - batch[j]))
        for j in range(batch.shape[0] - 1)
    ])


class TestAsMatrix:
    """The input guard of every kernel, called directly and through clip_norm."""

    @pytest.mark.parametrize("entry, name", [
        (as_matrix, "matrix"),
        (lambda values: clip_norm(values, 1.0), "batch"),
    ], ids=["direct", "clip_norm"])
    @pytest.mark.parametrize("values, message", [
        ([1.0, 2.0], r"must be 2-D, got shape \(2,\)"),
        ([[[1.0]]], r"must be 2-D, got shape \(1, 1, 1\)"),
        ([[1.0, np.nan]], "contains non-finite entries"),
        ([[np.inf], [0.0]], "contains non-finite entries"),
    ])
    def test_refusals_name_the_input(self, entry, name, values, message):
        with pytest.raises(ArgumentError, match=f"^{name} {message}$"):
            entry(values)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).normal(0, 1, (4, 4))
        b = Rng(123).normal(0, 1, (4, 4))
        npt.assert_array_equal(a, b)

    def test_split_is_deterministic_and_independent(self):
        a = Rng(7).split("noise", 1).normal(0, 1, (8,))
        b = Rng(7).split("noise", 1).normal(0, 1, (8,))
        c = Rng(7).split("noise", 2).normal(0, 1, (8,))
        npt.assert_array_equal(a, b)
        assert not np.allclose(a, c)

    def test_split_does_not_consume_parent(self):
        parent = Rng(5)
        before = Rng(5).normal(0, 1, (3,))
        parent.split("child")
        npt.assert_array_equal(parent.normal(0, 1, (3,)), before)

    def test_generator_is_built_on_the_first_draw(self):
        stream = Rng(7).split("round", 3)
        assert "_gen" not in vars(stream)
        sequence = np.random.SeedSequence(entropy=7, spawn_key=stream.path)
        expected = np.random.Generator(np.random.Philox(sequence)).normal(0, 1, (5,))
        npt.assert_array_equal(stream.normal(0, 1, (5,)), expected)
        assert "_gen" in vars(stream)

    def test_rejects_bad_seed_and_path(self):
        with pytest.raises(ArgumentError):
            Rng(-1)
        with pytest.raises(ArgumentError):
            Rng(0).split(-3)


class TestPairwiseDistances:
    def test_3_4_5_triangle(self):
        npt.assert_allclose(pairwise_distances([[0, 0], [3, 4]]), [5.0])

    def test_unit_simplex(self):
        d = pairwise_distances([[0, 0], [1, 0], [0, 1]])
        npt.assert_allclose(np.sort(d), [1.0, 1.0, math.sqrt(2)])

    def test_matches_bruteforce_over_ordered_pairs(self):
        rng = Rng(3)
        batch = rng.normal(0, 1, (10, 4))
        d = pairwise_distances(batch)
        assert d.size == 45
        brute = max(
            np.linalg.norm(batch[j] - batch[k])
            for j in range(10)
            for k in range(10)
            if j != k
        )
        assert abs(d.max() - brute) < 1e-12

    def test_needs_two_rows(self):
        with pytest.raises(ArgumentError):
            pairwise_distances([[1.0, 2.0]])

    @pytest.mark.parametrize("n", [4, 5, 60, 100])
    @pytest.mark.parametrize("duplicate", [False, True])
    def test_bit_equal_to_per_row_loop(self, n, duplicate):
        batch = Rng(n).normal(0, 1, (n, 16))
        if duplicate:
            batch[n // 2] = batch[1]
        d = pairwise_distances(batch)
        assert np.array_equal(d, per_row_distances(batch))
        assert np.count_nonzero(d == 0.0) == int(duplicate)

    @pytest.mark.parametrize("n", [2, 3, 60, 100, 240])
    def test_bit_equal_to_triu_gather(self, n):
        batch = Rng(n).normal(0, 1, (n, 16))
        j_idx, k_idx = np.triu_indices(n, k=1)
        diff = batch[k_idx] - batch[j_idx]
        assert np.array_equal(pairwise_distances(batch),
                              np.sqrt(np.einsum("ij,ij->i", diff, diff)))

    @pytest.mark.parametrize("n", [2, 3, 60])
    def test_pair_firsts_is_the_j_gather(self, n):
        batch = Rng(n).normal(0, 1, (n, 5))
        j_idx = pair_indices(n)[0]
        assert np.array_equal(pair_firsts(batch), batch[j_idx])
        start, stop = n // 3, n - 1
        assert np.array_equal(pair_firsts(batch, start, stop),
                              batch[j_idx[(j_idx >= start) & (j_idx < stop)]])

    @pytest.mark.parametrize("block", [1, 16, 100, 1000])
    @pytest.mark.parametrize("n", [2, 7, 60])
    def test_blocks_give_the_same_bits(self, monkeypatch, n, block):
        batch = Rng(n).normal(0, 1, (n, 16))
        whole = pairwise_distances(batch)
        monkeypatch.setattr(numerics, "PAIR_BLOCK_ENTRIES", block)
        assert np.array_equal(pairwise_distances(batch), whole)

    def test_large_batch_allocates_one_block_at_a_time(self):
        batch = Rng(5).normal(0, 1, (240, 16))
        pair_indices(240)  # cached index arrays are not per-call memory
        tracemalloc.start()
        try:
            d = pairwise_distances(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The output, one block's differences and first rows, a little slack.
        assert peak <= d.nbytes + 2 * 8 * numerics.PAIR_BLOCK_ENTRIES + 2**16

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_symmetry_and_triangle_inequality(self, seed):
        batch = Rng(seed).normal(0, 1, (3, 5))
        a, b, c = pairwise_distances(batch)  # (0,1), (0,2), (1,2)
        assert a <= b + c + 1e-12
        assert b <= a + c + 1e-12
        assert c <= a + b + 1e-12
        flipped = pairwise_distances(batch[::-1])
        npt.assert_allclose(np.sort(flipped), np.sort([a, b, c]), atol=1e-12)
