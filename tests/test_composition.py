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
    derive_params,
    dlap_variance,
    run_histogram,
    run_real_sum,
    split_budget,
)
from shufflecount import protocol
from shufflecount.composition import (
    BETA,
    _bit_sums,
    bit_weights,
    histogram_trials,
    message_bits,
    real_sum_params,
    real_sum_trials,
    tag_bits,
)
from shufflecount.protocol import estimate_trials

from oracles import decode_bits, encode_real


def _padded_stages(ones, m, params, rng, fidelity, trials=None):
    """``protocol._stages`` with every input kept and no noise or flooding."""
    ones = np.broadcast_to(ones, (trials,))
    if fidelity != "message":
        return ones
    padded = np.full(trials, params.pad_count * m)
    return padded + ones, padded


def _zero_noise(monkeypatch):
    monkeypatch.setattr(protocol, "_stages", _padded_stages)


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
        assert tag_bits(2**53 + 1) == 54  # log2 rounds 2**53 + 1 down to 2**53

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
        _zero_noise(monkeypatch)
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
        ests = real_sum_trials(xs, 1.0, 0.5, 4, 3000, RandomSource(8), "counts")
        se = ests.std(ddof=1) / math.sqrt(ests.size)
        assert abs(ests.mean()) <= 3.0 * se

    def test_message_and_counts_fidelities_agree_on_error_scale(self):
        xs = RandomSource(90).generator.random(40)
        message = real_sum_trials(xs, 2.0, 0.5, 3, 400, RandomSource(91), "message")
        counts = real_sum_trials(xs, 2.0, 0.5, 3, 400, RandomSource(92), "counts")
        truth = xs.sum()
        mse_message = np.mean((message - truth) ** 2)
        mse_counts = np.mean((counts - truth) ** 2)
        pooled_se = math.sqrt(
            np.var((message - truth) ** 2, ddof=1) / 400
            + np.var((counts - truth) ** 2, ddof=1) / 400
        )
        assert abs(mse_message - mse_counts) <= 4.0 * pooled_se

    def test_rmse_within_coarse_target(self):
        # coarse sanity bound: RMSE at eps=1 stays below 10/eps
        xs = RandomSource(93).generator.random(1000)
        ests = real_sum_trials(xs, 1.0, 0.5, 10, 300, RandomSource(94), "counts")
        rmse = math.sqrt(np.mean((ests - xs.sum()) ** 2))
        assert rmse <= 10.0

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            run_real_sum([0.5, 1.4], 1.0, 0.5, 3, RandomSource(0))
        with pytest.raises(ParameterError):
            run_real_sum([], 1.0, 0.5, 3, RandomSource(0))

    @pytest.mark.parametrize("fidelity", protocol.FIDELITIES)
    def test_trials_reject_out_of_range_inputs(self, fidelity):
        for xs in ([5.0, 0.5], [-0.1, 0.5], [math.nan, 0.5], []):
            with pytest.raises(ParameterError):
                real_sum_trials(xs, 1.0, 0.5, 1, 10, RandomSource(0), fidelity)


class TestHistogram:
    def test_bucket_validation(self):
        with pytest.raises(ParameterError):
            run_histogram([0, 1, 9], 8, 1.0, 0.5, RandomSource(0), "counts")
        with pytest.raises(ParameterError):
            run_histogram([0, -1], 8, 1.0, 0.5, RandomSource(0), "counts")

    @pytest.mark.parametrize("fidelity", protocol.FIDELITIES)
    def test_trials_reject_out_of_range_values(self, fidelity):
        for xs in ([0, 1, 8], [0, -1], []):
            with pytest.raises(ParameterError):
                histogram_trials(xs, 8, 1.0, 0.5, 10, RandomSource(0), fidelity)

    def test_instance_budget_is_half(self):
        run = run_histogram([0, 1, 2, 3] * 50, 4, 1.0, 0.5, RandomSource(1), "counts")
        assert run.instance.epsilon == pytest.approx(0.5)
        assert run.instance == derive_params(0.5, 0.5, 200)

    def test_single_bucket_with_zeroed_noise_recovers_count(self, monkeypatch):
        _zero_noise(monkeypatch)
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
    # one chunk of message trials counts its rounding bits one position at a
    # time: six more bits may add at most two bytes per user-trial each
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


@pytest.mark.parametrize("n_bits", range(1, 9))
def test_bit_sums_match_the_count_nonzero_form(n_bits):
    # the per-position count_nonzero and stack that _bit_sums replaced, on the
    # same rounding draws, is its reference
    xs = np.random.default_rng(n_bits).random(300)
    xs[:2] = 0.0, 1.0
    got = _bit_sums(xs, n_bits)(RandomSource(8), 5)
    scale = 1 << n_bits
    v = np.floor(xs * scale + RandomSource(8).generator.random((5, xs.size)))
    v = np.minimum(v, scale - 1).astype(np.min_scalar_type(scale - 1))
    want = np.stack(
        [np.count_nonzero(v & (1 << (n_bits - 1 - k)), axis=1) for k in range(n_bits)], axis=-1
    )
    assert got.dtype == want.dtype and got.shape == want.shape == (5, n_bits)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fidelity", protocol.FIDELITIES)
def test_single_runs_are_trial_zero_on_the_same_stream(fidelity):
    xs = np.random.default_rng(4).random(40)
    run = run_real_sum(xs, 2.0, 0.5, 3, RandomSource(5), fidelity)
    (estimate,) = real_sum_trials(xs, 2.0, 0.5, 3, 1, RandomSource(5), fidelity)
    instances = real_sum_params(2.0, 0.5, 3, xs.size)
    sums, totals = protocol.run_trials(
        _bit_sums(xs, 3), instances, 1, RandomSource(5), fidelity
    )
    assert run.estimate == estimate
    assert run.bit_counts == tuple(sums[0])
    assert run.total_messages == (None if totals is None else totals[0])
    assert (run.total_messages is None) == (fidelity != "message")

    buckets = np.random.default_rng(6).integers(0, 4, 40)
    hist = run_histogram(buckets, 4, 2.0, 0.5, RandomSource(7), fidelity)
    (counts,) = histogram_trials(buckets, 4, 2.0, 0.5, 1, RandomSource(7), fidelity)
    sums, totals = protocol.run_trials(
        np.bincount(buckets, minlength=4), [hist.instance] * 4, 1, RandomSource(7), fidelity
    )
    assert hist.estimates == tuple(counts) == tuple(sums[0])
    assert hist.total_messages == (None if totals is None else totals[0])
    assert (hist.total_messages is None) == (fidelity != "message")


@pytest.mark.parametrize("fidelity", protocol.FIDELITIES)
def test_histogram_holds_no_per_user_indicator(fidelity):
    # the buckets enter the engine as their counts: an (n, B) int64 indicator
    # matrix would hold 41 MB at n = 20 000 and B = 256
    xs = np.arange(20_000) % 256
    histogram_trials(xs, 256, 1.0, 0.5, 4, RandomSource(1), fidelity)  # warm up
    tracemalloc.start()
    try:
        ests = histogram_trials(xs, 256, 1.0, 0.5, 4, RandomSource(1), fidelity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ests.shape == (4, 256)
    assert peak <= 2**20


@pytest.mark.parametrize("fidelity", ["counts"])
def test_summed_trials_memory_does_not_grow_with_trials(fidelity):
    # the rounding draw of all trials at once would hold about 17 bytes per
    # user and trial: 65 MiB at 4000 trials, 259 MiB at 16000
    xs = np.random.default_rng(3).random(1000)
    real_sum_trials(xs, 2.0, 0.5, 4, 4, RandomSource(1), fidelity)  # warm up
    peaks = {}
    for trials in (4000, 16000):
        tracemalloc.start()
        try:
            real_sum_trials(xs, 2.0, 0.5, 4, trials, RandomSource(1), fidelity)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16000] <= peaks[4000] + 4 * 2**20


def test_message_trials_with_zeroed_noise_return_the_counts(monkeypatch):
    # chunks of two trials (8 users): five trials end in a partial chunk
    _zero_noise(monkeypatch)
    monkeypatch.setattr(protocol, "CHUNK_ELEMENTS", 64)
    rng = RandomSource(6)
    ests = estimate_trials(3, derive_params(1.0, 0.5, 8), 5, rng, "message")
    assert ests.tolist() == [3] * 5
    # values on the 3-bit grid round to themselves
    xs = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]
    sums = real_sum_trials(xs, 8.0, 0.5, 3, 5, rng, "message")
    assert sums.tolist() == [sum(xs)] * 5
    buckets = [0, 3, 1, 3, 3, 0, 2, 3]
    hists = histogram_trials(buckets, 4, 8.0, 0.5, 5, rng, "message")
    assert hists.tolist() == [[2, 1, 1, 4]] * 5
