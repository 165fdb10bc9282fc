import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflecount import (
    DegenerateInputError,
    ParameterError,
    RandomSource,
    TaggedMessage,
    derive_params,
    dlap_variance,
    encode_real,
    run_histogram,
    run_real_sum,
    split_budget,
)
from shufflecount import protocol
from shufflecount.composition import (
    BETA,
    bit_weights,
    decode_bits,
    dump_tagged,
    histogram_trials,
    message_bits,
    real_sum_params,
    real_sum_trials,
    tag_bits,
)
from shufflecount.protocol import Contribution, estimate_trials


def _padded_only(bits, params, rng, trials=None):
    """``draw_counts`` with every input kept and no noise or flooding."""
    shape = bits.shape if trials is None else (trials, bits.shape[-1])
    pad = np.full(shape, params.pad_count)
    return Contribution(pad + bits, pad, 0, 0, 0)


class TestSplitBudget:
    def test_single_instance_gets_everything(self):
        assert split_budget(1.3, 1).tolist() == [1.3]

    def test_two_way_split_closed_form(self):
        parts = split_budget(1.0, 2)
        assert parts[0] == pytest.approx(1.0 / (1.0 + BETA), rel=1e-12)
        assert parts[1] == pytest.approx(BETA / (1.0 + BETA), rel=1e-12)
        assert parts[0] == pytest.approx(0.6135117904356906, rel=1e-10)

    @given(
        eps=st.floats(min_value=1e-3, max_value=8.0),
        k=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_parts_sum_to_budget_and_never_exceed_it(self, eps, k):
        parts = split_budget(eps, k)
        total = math.fsum(parts)
        assert total <= eps
        assert abs(total - eps) <= 1e-12 * max(1.0, eps)
        assert np.all(parts > 0.0)
        assert np.all(np.diff(parts) < 0.0) or k == 1

    def test_ratio_between_consecutive_parts(self):
        parts = split_budget(2.0, 6)
        ratios = parts[1:] / parts[:-1]
        assert np.allclose(ratios, BETA, rtol=1e-12)


class TestEncodeReal:
    def test_zero_encodes_to_zero_bits(self):
        assert encode_real(0.0, 6, RandomSource(0)).tolist() == [0] * 6

    def test_half_is_exact_at_one_bit(self):
        rng = RandomSource(1)
        for _ in range(50):
            assert encode_real(0.5, 1, rng).tolist() == [1]

    def test_one_clamps_to_largest_representable(self):
        assert encode_real(1.0, 3, RandomSource(2)).tolist() == [1, 1, 1]

    def test_decode_inverts_exact_values(self):
        rng = RandomSource(3)
        for v in (0.0, 0.25, 0.375, 0.875):
            assert decode_bits(encode_real(v, 3, rng)) == v

    @pytest.mark.parametrize("x", [0.1, 0.3, 0.57, 0.9])
    def test_unbiased_on_non_representable_values(self, x):
        rng = RandomSource(4)
        trials = 20_000
        decoded = np.array(
            [decode_bits(encode_real(x, 8, rng)) for _ in range(trials)]
        )
        se = decoded.std(ddof=1) / math.sqrt(trials)
        assert abs(decoded.mean() - x) <= 3.0 * se

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            encode_real(1.2, 4, RandomSource(0))
        with pytest.raises(ParameterError):
            encode_real(-0.1, 4, RandomSource(0))


class TestTagging:
    def test_tag_bits_and_message_bits(self):
        assert tag_bits(1) == 0
        assert message_bits(1) == 1
        assert tag_bits(2) == 1
        assert tag_bits(8) == 3
        assert message_bits(10) == 5

    def test_tagged_message_validation(self):
        TaggedMessage(3, 1)
        with pytest.raises(ParameterError):
            TaggedMessage(0, 0)
        with pytest.raises(ParameterError):
            TaggedMessage(-1, 1)

    def test_dump_format(self):
        text = dump_tagged(np.array([0, 2, 1]), np.array([1, -1, 1]))
        assert text == "0,+1\n2,-1\n1,+1\n"
        assert dump_tagged(np.array([]), np.array([])) == ""

    @pytest.mark.parametrize(
        "tags,signs",
        [
            ([0, 1], [1]), ([0], [1, -1]), ([0], [5]), ([0], [0]), ([-1], [1]),
            ([1.7, 2.2], [1.0, -1.0]), ([0], [0.5]),
        ],
    )
    def test_dump_rejects_malformed_messages(self, tags, signs):
        with pytest.raises(ParameterError):
            dump_tagged(np.array(tags), np.array(signs))

    def test_per_tag_counts_are_permutation_invariant(self):
        gen = np.random.default_rng(9)
        tags = gen.integers(0, 5, size=400)
        signs = gen.choice([-1, 1], size=400).astype(np.int64)
        base = np.zeros(5, dtype=np.int64)
        np.add.at(base, tags, signs)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(400)
            counts = np.zeros(5, dtype=np.int64)
            np.add.at(counts, tags[perm], signs[perm])
            assert np.array_equal(counts, base)


class TestRealSumParams:
    def test_all_instances_share_top_level_drop_prob(self):
        instances = real_sum_params(1.0, 0.5, 10, 1000)
        q = 0.1 * 0.5 * dlap_variance(1.0) / 1000
        assert all(inst.drop_prob == pytest.approx(q, rel=1e-14) for inst in instances)
        budgets = split_budget(1.0, 10)
        for inst, eps_j in zip(instances, budgets):
            assert inst.epsilon == pytest.approx(eps_j, rel=1e-14)
            assert inst.noise_epsilon == pytest.approx(0.995 * eps_j, rel=1e-12)

    def test_budget_safety(self):
        instances = real_sum_params(1.0, 0.5, 10, 1000)
        assert math.fsum(inst.epsilon for inst in instances) <= 1.0

    def test_single_bit_matches_counting_derivation(self):
        inst = real_sum_params(1.0, 0.5, 1, 500)[0]
        assert inst == derive_params(1.0, 0.5, 500)

    def test_degenerate_bit_names_its_index(self):
        # at n=100 the bit-8 budget 0.00927 drops below 1/n first
        with pytest.raises(DegenerateInputError, match="bit 8"):
            real_sum_params(1.0, 0.5, 10, 100)


class TestRunRealSum:
    def test_exact_sum_when_noise_is_zeroed(self, monkeypatch):
        monkeypatch.setattr(protocol, "draw_counts", _padded_only)
        xs = [0.0, 0.125, 0.25, 0.5, 0.625, 0.875, 1.0 - 2**-3, 0.375]
        run = run_real_sum(xs, 2.0, 0.5, 3, RandomSource(7), fidelity="message")
        assert run.estimate == pytest.approx(sum(xs), abs=1e-12)

    def test_message_run_deterministic_given_seed(self):
        xs = [0.25, 0.75, 0.5, 1.0]
        a = run_real_sum(xs, 4.0, 0.5, 2, RandomSource(17), fidelity="message")
        b = run_real_sum(xs, 4.0, 0.5, 2, RandomSource(17), fidelity="message")
        assert a == b

    def test_all_zero_inputs_give_zero_mean_noise(self):
        xs = np.zeros(200)
        ests = real_sum_trials(xs, 1.0, 0.5, 4, 3000, RandomSource(8), "law")
        se = ests.std(ddof=1) / math.sqrt(ests.size)
        assert abs(ests.mean()) <= 3.0 * se

    def test_message_and_law_fidelities_agree_on_error_scale(self):
        xs = RandomSource(90).generator.random(40)
        law = real_sum_trials(xs, 2.0, 0.5, 3, 400, RandomSource(91), "law")
        counts = real_sum_trials(xs, 2.0, 0.5, 3, 400, RandomSource(92), "counts")
        truth = xs.sum()
        mse_law = np.mean((law - truth) ** 2)
        mse_counts = np.mean((counts - truth) ** 2)
        pooled_se = math.sqrt(
            np.var((law - truth) ** 2, ddof=1) / 400
            + np.var((counts - truth) ** 2, ddof=1) / 400
        )
        assert abs(mse_law - mse_counts) <= 4.0 * pooled_se

    def test_rmse_within_coarse_target(self):
        # coarse sanity bound: RMSE at eps=1 stays below 10/eps
        xs = RandomSource(93).generator.random(1000)
        ests = real_sum_trials(xs, 1.0, 0.5, 10, 300, RandomSource(94), "law")
        rmse = math.sqrt(np.mean((ests - xs.sum()) ** 2))
        assert rmse <= 10.0

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            run_real_sum([0.5, 1.4], 1.0, 0.5, 3, RandomSource(0))
        with pytest.raises(ParameterError):
            run_real_sum([], 1.0, 0.5, 3, RandomSource(0))

    @pytest.mark.parametrize("fidelity", ["message", "counts", "law"])
    def test_trials_reject_out_of_range_inputs(self, fidelity):
        for xs in ([5.0, 0.5], [-0.1, 0.5], [math.nan, 0.5], []):
            with pytest.raises(ParameterError):
                real_sum_trials(xs, 1.0, 0.5, 1, 10, RandomSource(0), fidelity)


class TestHistogram:
    def test_bucket_validation(self):
        with pytest.raises(ParameterError):
            run_histogram([0, 1, 9], 8, 1.0, 0.5, RandomSource(0), "law")
        with pytest.raises(ParameterError):
            run_histogram([0, -1], 8, 1.0, 0.5, RandomSource(0), "law")

    @pytest.mark.parametrize("fidelity", ["message", "counts", "law"])
    def test_trials_reject_out_of_range_values(self, fidelity):
        for xs in ([0, 1, 8], [0, -1], []):
            with pytest.raises(ParameterError):
                histogram_trials(xs, 8, 1.0, 0.5, 10, RandomSource(0), fidelity)

    def test_instance_budget_is_half(self):
        run = run_histogram([0, 1, 2, 3] * 50, 4, 1.0, 0.5, RandomSource(1), "law")
        assert run.instance.epsilon == pytest.approx(0.5)
        assert run.instance == derive_params(0.5, 0.5, 200)

    def test_single_bucket_with_zeroed_noise_recovers_count(self, monkeypatch):
        monkeypatch.setattr(protocol, "draw_counts", _padded_only)
        run = run_histogram([0] * 37, 1, 1.0, 0.5, RandomSource(2), "message")
        assert run.estimates == (37,)

    def test_uniform_data_total_is_nearly_unbiased(self):
        xs = [i % 8 for i in range(500)]
        ests = histogram_trials(xs, 8, 1.0, 0.5, 150, RandomSource(3), "counts")
        totals = ests.sum(axis=1).astype(np.float64)
        q = derive_params(0.5, 0.5, 500).drop_prob
        expected_total = 500 * (1.0 - q)
        se = totals.std(ddof=1) / math.sqrt(totals.size)
        assert abs(totals.mean() - expected_total) <= 3.0 * se
        # and the drop bias is within sampling error of the raw total too
        assert abs(totals.mean() - 500.0) <= 3.0 * se + 500.0 * q

    def test_bucket_mse_matches_counting_law(self):
        xs = [i % 4 for i in range(120)]
        inst = derive_params(0.5, 0.5, 120)
        ests = histogram_trials(xs, 4, 1.0, 0.5, 400, RandomSource(4), "counts")
        law = dlap_variance(inst.noise_epsilon) + 30 * inst.drop_prob * (
            1.0 - inst.drop_prob
        ) + (30 * inst.drop_prob) ** 2
        for b in range(4):
            sq = (ests[:, b] - 30.0) ** 2
            se = sq.std(ddof=1) / math.sqrt(sq.size)
            assert abs(sq.mean() - law) <= 3.0 * se


def test_bit_weights_are_place_values():
    assert bit_weights(3).tolist() == [0.5, 0.25, 0.125]


def test_real_sum_chunk_holds_one_byte_per_bit():
    # one chunk of message trials holds its rounding bits, one byte each,
    # beside one instance's draws: six more bits may add at most two bytes
    # per user-trial each
    n, trials = 256, 1024
    xs = np.random.default_rng(3).random(n)
    peaks = {}
    for n_bits in (2, 8):
        tracemalloc.start()
        try:
            real_sum_trials(xs, 2.0, 0.5, n_bits, trials, RandomSource(1), "message")
            peaks[n_bits] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] - peaks[2] <= 2 * 6 * n * trials


def test_message_trials_hold_no_per_user_total():
    # one chunk of message trials at n = 1024: a second instance adds its
    # rounding bits (1 MiB), not a (trials, n) per-user message total
    n = 1024
    trials = protocol.CHUNK_ELEMENTS // (4 * n)
    xs = np.random.default_rng(3).random(n)
    real_sum_trials(xs, 2.0, 0.5, 1, 4, RandomSource(1), "message")  # warm up
    peaks = {}
    for n_bits in (1, 2):
        tracemalloc.start()
        try:
            real_sum_trials(xs, 2.0, 0.5, n_bits, trials, RandomSource(1), "message")
            peaks[n_bits] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2] <= peaks[1] + 2 * 2**20


def test_message_trials_with_zeroed_noise_return_the_counts(monkeypatch):
    # chunks of two trials (8 users): five trials end in a partial chunk
    monkeypatch.setattr(protocol, "draw_counts", _padded_only)
    monkeypatch.setattr(protocol, "CHUNK_ELEMENTS", 64)
    rng = RandomSource(6)
    ests = estimate_trials(5, 3, derive_params(1.0, 0.5, 8), 5, rng, "message")
    assert ests.tolist() == [3] * 5
    # values on the 3-bit grid round to themselves
    xs = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]
    sums = real_sum_trials(xs, 8.0, 0.5, 3, 5, rng, "message")
    assert sums.tolist() == [sum(xs)] * 5
    buckets = [0, 3, 1, 3, 3, 0, 2, 3]
    hists = histogram_trials(buckets, 4, 8.0, 0.5, 5, rng, "message")
    assert hists.tolist() == [[2, 1, 1, 4]] * 5
