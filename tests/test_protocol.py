import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from shufflecount import protocol
from shufflecount import (
    Contribution,
    ParameterError,
    ProtocolParams,
    RandomSource,
    View,
    analyze,
    derive_params,
    dlap_variance,
    minimal_params,
    randomize,
    run_counting,
    sample_estimate,
    shuffle,
    view_of,
)
from shufflecount.audit import (
    DatasetSummary,
    _binom_logpmf,
    crossvalidate_views,
    exact_mean_messages,
    gof_integer_samples,
)
from shufflecount.dist import geo_success_prob, poi_logpmf, sample_nb
from shufflecount.protocol import (
    CHUNK_ELEMENTS,
    FIDELITIES,
    draw_counts,
    estimate_trials,
    message_count_trials,
    run_trials,
    signed_sums,
    simulate_views,
)

REFERENCE = minimal_params(1.0, 0.5, 0.01, 100)
#: SHA-256 of the seeded draws of test_stream_layout_pins_the_seeded_draws at
#: protocol.STREAM_LAYOUT 3
STREAM_DIGEST = "34b15d4c10493f3073d23d0cdee0ef22bfdcbcafaddfadd3bd2f783d39a5d0eb"


def _loose_params(q=0.2, n=4):
    # small, not necessarily feasible: randomizer laws do not need feasibility
    return ProtocolParams(
        n_users=n, epsilon=1.0, noise_epsilon=0.5,
        drop_prob=q, pad_count=3, flood_mean=8.0,
    )


class TestRandomize:
    def test_vanishing_drop_prob_always_padded(self):
        params = _loose_params(q=1e-12)
        rng = RandomSource(1)
        for _ in range(200):
            c = randomize(1, params, rng)
            assert (c.input_plus, c.input_minus) == (4, 3)

    def test_drop_frequency_matches_q(self):
        params = _loose_params(q=0.2)
        rng = RandomSource(2)
        trials = 100_000
        dropped = sum(
            randomize(0, params, rng).input_minus == 0 for _ in range(trials)
        )
        se = math.sqrt(0.2 * 0.8 / trials)
        assert abs(dropped / trials - 0.2) <= 3.0 * se

    def test_flood_marginal_matches_divided_poisson(self):
        params = _loose_params()
        rng = RandomSource(3)
        draws = np.array(
            [randomize(0, params, rng).flood for _ in range(60_000)]
        )
        mean = params.flood_mean / params.n_users
        result = gof_integer_samples(draws, lambda k: poi_logpmf(mean, k))
        assert result.pvalue >= 1e-3

    def test_rejects_non_bits(self):
        with pytest.raises(ParameterError):
            randomize(2, _loose_params(), RandomSource(0))


class TestShuffleAnalyze:
    def test_empty_input(self):
        msgs, view = shuffle([], RandomSource(0))
        assert msgs.size == 0
        assert view == View(0, 0)
        assert analyze(view) == 0

    def test_view_is_seed_independent(self):
        contribs = [Contribution(2, 1, 0, 3, 4), Contribution(0, 0, 5, 0, 1)]
        m1, v1 = shuffle(contribs, RandomSource(10))
        m2, v2 = shuffle(contribs, RandomSource(11))
        assert v1 == v2 == View(2 + 5 + 4 + 1, 1 + 3 + 4 + 1)
        assert view_of(m1) == view_of(m2) == v1
        assert not np.array_equal(m1, m2)  # orderings differ on 21 messages

    def test_noiseless_hand_example(self):
        # inputs (1, 1, 0) with pad 5, no drops, no noise: view (17, 15) -> 2
        contribs = [
            Contribution(6, 5, 0, 0, 0),
            Contribution(6, 5, 0, 0, 0),
            Contribution(5, 5, 0, 0, 0),
        ]
        _, view = shuffle(contribs, RandomSource(1))
        assert view == View(17, 15)
        assert analyze(view) == 2

    def test_analyze_is_signed_count_difference(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            plus, minus = map(int, gen.integers(0, 1000, size=2))
            assert analyze(View(plus, minus)) == plus - minus

    def test_permutation_invariance(self):
        gen = np.random.default_rng(6)
        for case in range(100):
            plus, minus = map(int, gen.integers(0, 200, size=2))
            msgs = np.repeat(np.array([1, -1], dtype=np.int8), [plus, minus])
            baseline = analyze(view_of(msgs))
            for seed in (0, 1):
                permuted = np.random.default_rng((case, seed)).permutation(msgs)
                assert analyze(view_of(permuted)) == baseline

    def test_shuffle_permutes_plus_then_minus_messages(self):
        contribs = [Contribution(2, 1, 0, 3, 4), Contribution(0, 0, 5, 0, 1)]
        msgs, view = shuffle(contribs, RandomSource(12))
        signs = np.repeat(np.array([1, -1], dtype=np.int8), [12, 9])
        expected = RandomSource(12).generator.permutation(signs)
        assert msgs.dtype == np.int8
        assert np.array_equal(msgs, expected)


class TestWireFormat:
    def test_view_rejects_other_symbols(self):
        with pytest.raises(ParameterError):
            view_of(np.array([1, 0, -1]))

    @pytest.mark.parametrize(
        "msgs",
        [np.array([True, True]), np.array([1.0, -1.0]), ["1", "-1"]],
        ids=["bool", "float", "str"],
    )
    def test_view_rejects_non_integer_messages(self, msgs):
        with pytest.raises(ParameterError):
            view_of(msgs)

    def test_view_of_no_messages_is_empty(self):
        # the view of a zero-message dump, whatever dtype the empty array has
        for msgs in ([], np.array([], dtype=np.int8), shuffle([], RandomSource(0))[0]):
            assert view_of(msgs) == View(0, 0)


class TestRunCounting:
    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            run_counting([1, 0], REFERENCE, RandomSource(0))

    def test_rejects_infeasible_params(self):
        bad = ProtocolParams(2, 1.0, 0.5, 0.01, 1, 127.0)
        with pytest.raises(ParameterError):
            run_counting([1, 0], bad, RandomSource(0))

    def test_deterministic_given_seed(self):
        # the same bits as a list and as the uint8 array the CLI passes
        xs = [1] * 30 + [0] * 70
        a = run_counting(xs, REFERENCE, RandomSource(99))
        for bits in (xs, np.array(xs, dtype=np.uint8)):
            b = run_counting(bits, REFERENCE, RandomSource(99))
            assert (a.estimate, a.view) == (b.estimate, b.view)
            assert np.array_equal(a.messages_per_user, b.messages_per_user)

    def test_decomposition_identity(self):
        # estimate equals the input part plus the noise part; flooding cancels
        xs = [1] * 40 + [0] * 60
        rng = RandomSource(12)
        c = draw_counts(np.array(xs), REFERENCE, rng)
        view = View(int(c.plus_count.sum()), int(c.minus_count.sum()))
        input_part = int((c.input_plus - c.input_minus).sum())
        noise_part = int((c.noise_plus - c.noise_minus).sum())
        assert analyze(view) == input_part + noise_part
        run = run_counting(xs, REFERENCE, RandomSource(12))
        assert run.estimate == analyze(view)

    def test_all_zeros_estimate_is_discrete_laplace(self):
        params = minimal_params(1.0, 0.5, 0.01, 50)
        ests = estimate_trials(50, 0, params, 40_000, RandomSource(21), "counts")
        target = dlap_variance(params.noise_epsilon)
        sq = ests.astype(np.float64) ** 2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - target) <= 3.0 * se

    def test_single_user_near_zero_drop(self):
        # n=1 with vanishing drop probability: estimate - x is discrete Laplace
        params = ProtocolParams(1, 1.0, 0.5, 1e-9, 40, 600.0)
        ests = estimate_trials(0, 1, params, 40_000, RandomSource(22), "counts")
        errors = (ests - 1).astype(np.float64)
        se_mean = errors.std(ddof=1) / math.sqrt(errors.size)
        assert abs(errors.mean()) <= 3.0 * se_mean
        sq = errors**2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - dlap_variance(0.5)) <= 3.0 * se


class TestEstimateTrials:
    def test_fidelities_agree_on_moments(self):
        params = minimal_params(1.0, 0.5, 0.05, 60)
        by_fidelity = {
            fid: estimate_trials(20, 40, params, 20_000, RandomSource(30), fid)
            for fid in ("message", "counts", "law")
        }
        drift = 40 * params.drop_prob
        var = dlap_variance(0.5) + 40 * params.drop_prob * (1 - params.drop_prob)
        for fid, ests in by_fidelity.items():
            err = (ests - 40).astype(np.float64)
            se = err.std(ddof=1) / math.sqrt(err.size)
            assert abs(err.mean() + drift) <= 3.0 * se, fid
            sq_se = (err**2).std(ddof=1) / math.sqrt(err.size)
            assert abs((err**2).mean() - (var + drift**2)) <= 3.0 * sq_se, fid

    def test_sample_estimate_matches_law_path(self):
        params = minimal_params(1.0, 0.5, 0.1, 30)
        direct = sample_estimate(25, params, RandomSource(32), size=10_000)
        trials = estimate_trials(5, 25, params, 10_000, RandomSource(32), "law")
        assert np.array_equal(np.asarray(direct), trials)


class TestSimulateViews:
    def test_moments_match_closed_form(self):
        params = minimal_params(1.0, 0.5, 0.01, 3)
        v_plus, v_minus = simulate_views(2, 1, params, 150_000, RandomSource(41))
        keep = 1.0 - params.drop_prob
        mean_plus = keep * (3 * params.pad_count + 1) + (
            math.exp(-0.5) / -math.expm1(-0.5)
        ) + params.flood_mean
        se = v_plus.std(ddof=1) / math.sqrt(v_plus.size)
        assert abs(v_plus.mean() - mean_plus) <= 3.0 * se
        diff = v_plus - v_minus
        # signed difference is the estimate: mean = kept ones
        se_d = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean() - keep) <= 3.0 * se_d

    def test_memory_is_that_of_the_noise_draw(self):
        # the noise shares take 16 bytes per user and trial and the scattered
        # summands about 10 here, and the drops are one count per trial;
        # holding per-user input or total arrays as well would add 16 or more
        params = minimal_params(1.0, 0.5, 0.1, 3)
        trials = 100_000
        tracemalloc.start()
        try:
            simulate_views(1, 2, params, trials, RandomSource(42))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * trials * params.n_users

    def test_memory_is_bounded_beyond_one_chunk(self):
        # two chunks: one chunk's draws under the bound above, plus the two
        # int64 outputs; one unchunked draw would hold twice the draws
        params = minimal_params(1.0, 0.5, 0.1, 3)
        rows = CHUNK_ELEMENTS // (2 * params.n_users)
        trials = 2 * rows
        tracemalloc.start()
        try:
            v_plus, _ = simulate_views(1, 2, params, trials, RandomSource(43))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v_plus.shape == (trials,)
        assert peak <= 40 * rows * params.n_users + 16 * trials


def test_message_count_trials_mean():
    counts = message_count_trials(1, REFERENCE, 20_000, RandomSource(50))
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - exact_mean_messages(REFERENCE, 1)) <= 3.0 * se


class TestEngine:
    def test_draw_counts_matches_scalar_randomize_moments(self):
        params = _loose_params(q=0.2)
        trials = 20_000
        vec = draw_counts(np.array([0, 1]), params, RandomSource(60), trials)
        rng = RandomSource(61)
        for x in (0, 1):
            ref = [randomize(x, params, rng) for _ in range(trials)]
            for field in ("plus_count", "minus_count"):
                a = getattr(vec, field)[:, x].astype(np.float64)
                b = np.array([getattr(c, field) for c in ref], dtype=np.float64)
                se = math.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
                assert abs(a.mean() - b.mean()) <= 3.0 * se, (x, field)
                da, db = (a - a.mean()) ** 2, (b - b.mean()) ** 2
                se = math.sqrt(da.var(ddof=1) / trials + db.var(ddof=1) / trials)
                assert abs(da.mean() - db.mean()) <= 3.0 * se, (x, field)

    @pytest.mark.parametrize("q", [0.01, 0.5])
    def test_drops_are_independent_per_user_and_trial(self, q):
        # 200 000 cells: Generator.choice places 1 % of them through a hash
        # set and half of them through a partial shuffle of every cell
        m, trials = 400, 500
        c = draw_counts(np.zeros(m), _loose_params(q=q, n=m), RandomSource(68), trials)
        dropped = c.input_minus == 0
        kept = m - np.count_nonzero(dropped, axis=1)
        result = gof_integer_samples(kept, lambda k: _binom_logpmf(m, 1.0 - q, k))
        assert result.pvalue >= 1e-3
        per_user = np.count_nonzero(dropped, axis=0)
        result = gof_integer_samples(per_user, lambda k: _binom_logpmf(trials, q, k))
        assert result.pvalue >= 1e-3

    def test_no_drop_draws_only_the_binomial(self):
        class Recorder:
            def __init__(self, gen):
                self.gen, self.calls = gen, []

            def __getattr__(self, name):
                self.calls.append(name)
                return getattr(self.gen, name)

        # at q = 0 draw_counts places no drop: the binomial is its only
        # draw before the noise shares and the flooding
        params = _loose_params(q=0.0, n=6)
        rng, twin = RandomSource(69), RandomSource(69)
        rng._generator = Recorder(rng.generator)
        c = draw_counts(np.zeros(6, dtype=np.int64), params, rng, 3)
        twin.generator.binomial(18, 0.0)
        sample_nb(1.0 / 6, geo_success_prob(params.noise_epsilon), twin, size=(3, 12))
        twin.generator.poisson(params.flood_mean / 6, (3, 6))
        assert np.all(c.input_minus == params.pad_count)
        assert rng.generator.calls[0] == "binomial"
        assert "choice" not in rng.generator.calls
        assert rng.generator.gen.bit_generator.state == twin.generator.bit_generator.state

    def test_run_counting_is_the_one_instance_pooled_run(self):
        # the view of a counting run is the pool of draw_counts on its stream
        xs = [1] * 30 + [0] * 70
        run = run_counting(xs, REFERENCE, RandomSource(62))
        c = draw_counts(np.array(xs), REFERENCE, RandomSource(62))
        assert run.view == View(c.plus_count.sum(), c.minus_count.sum())
        assert run.estimate == analyze(run.view)
        assert np.array_equal(run.messages_per_user, c.message_count)

    def test_pooled_shuffle_holds_one_byte_per_message(self):
        params = derive_params(1.0, 0.5, 100)
        xs = [1] * 50 + [0] * 50
        tracemalloc.start()
        try:
            run = run_counting(xs, params, RandomSource(64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        messages = sum(run.messages_per_user)
        assert messages > 2_000_000
        assert peak <= messages + 2**21

    def test_counts_fidelity_memory_is_bounded(self):
        # four chunks' worth of noise shares; one unchunked draw would hold
        # at least 16 bytes per share (gamma rates plus Poisson counts)
        n = 1024
        trials = 4 * CHUNK_ELEMENTS // (2 * n)
        params = minimal_params(1.0, 0.5, 0.01, n)
        tracemalloc.start()
        try:
            ests = estimate_trials(0, n, params, trials, RandomSource(65), "counts")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ests.shape == (trials,)
        assert peak <= 32 * CHUNK_ELEMENTS

    def test_message_fidelity_memory_is_bounded(self):
        # three chunks of message trials; one per-user draw holds 10 bytes
        # per element (shares, flooding and input blocks), so one unchunked
        # draw would hold 30 * CHUNK_ELEMENTS bytes
        n = 1024
        trials = 3 * CHUNK_ELEMENTS // (4 * n)
        params = minimal_params(1.0, 0.5, 0.01, n)
        tracemalloc.start()
        try:
            ests = estimate_trials(0, n, params, trials, RandomSource(66), "message")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ests.shape == (trials,)
        assert peak <= 16 * CHUNK_ELEMENTS

    @pytest.mark.parametrize(
        ("fidelity", "per_trial", "bound"), [("message", 4, 12), ("counts", 2, 1)]
    )
    def test_one_chunk_sums_its_draws_over_users(self, fidelity, per_trial, bound):
        # one chunk at n = 1024, in bytes per user and trial, once every draw
        # is summed over users as it is made and the noise shares go straight
        # into per-trial totals; per-user arrays held 56 (message) and 16
        # (counts)
        n = 1024
        trials = CHUNK_ELEMENTS // (per_trial * n)
        params = minimal_params(1.0, 0.5, 0.01, n)
        estimate_trials(0, n, params, 4, RandomSource(67), fidelity)  # warm up
        tracemalloc.start()
        try:
            estimate_trials(0, n, params, trials, RandomSource(67), fidelity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n * trials

    def test_message_chunk_holds_no_per_user_draw(self):
        # one message chunk at n = 1024 and q = 0.01, in bytes per user and
        # trial: the drops and the flooding are one count per trial, and the
        # noise shares are summed over users as they are drawn
        n = 1024
        trials = CHUNK_ELEMENTS // (4 * n)
        params = minimal_params(1.0, 0.5, 0.01, n)
        estimate_trials(0, n, params, 4, RandomSource(70), "message")  # warm up
        tracemalloc.start()
        try:
            estimate_trials(0, n, params, trials, RandomSource(70), "message")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * trials


class TestDealtShuffle:
    """A batch draws nothing after the instances' stages; :func:`shuffle` is uniform."""

    @pytest.mark.parametrize("k", [1, 64])
    def test_pooled_run_draws_only_the_randomizer(self, k):
        # a one-trial message batch is each instance's stages in turn, and
        # nothing after: no shuffle of the pool
        params = _loose_params(q=0.2, n=6)
        ones = np.random.default_rng(75).integers(0, 7, k)
        rng, twin = RandomSource(76), RandomSource(76)
        sums, totals = run_trials(ones, [params] * k, 1, rng, "message")
        plus, minus = np.array(
            [protocol._stages(ones[j], 6, params, twin, "message", 1) for j in range(k)]
        ).transpose(1, 2, 0)
        assert rng.generator.bit_generator.state == twin.generator.bit_generator.state
        assert np.array_equal(sums, plus - minus)
        assert np.array_equal(totals, (plus + minus).sum(axis=1))

    @pytest.mark.parametrize("rounded", [False, True], ids=["fixed", "rounded"])
    @pytest.mark.parametrize("k", [1, 64])
    def test_batched_runs_sum_the_per_user_draws(self, monkeypatch, k, rounded):
        # 6 users: the rounding comes in chunks of three trials and the noise
        # shares in chunks of six, so seven trials end in partial chunks of
        # both; inputs are a fixed vector of ones or per-bit sums drawn per
        # chunk. The twin draws the rounding, then per instance the dropped
        # ones and zeros and the flooding total of all seven trials, then the
        # noise shares per user, and sums them
        monkeypatch.setattr(protocol, "CHUNK_ELEMENTS", 72)
        instances = [_loose_params(q=0.1 + 0.2 * (j % 3), n=6) for j in range(k)]
        fixed = np.random.default_rng(77).integers(0, 7, k)

        def rounding(rng, rows):
            return (rng.generator.random((rows, 6, k)) < 0.3).sum(axis=1)

        inputs = rounding if rounded else fixed
        rng, twin = RandomSource(78), RandomSource(78)
        sums, totals = run_trials(inputs, instances, 7, rng, "message")
        gen = twin.generator
        if rounded:
            ones = np.concatenate([rounding(twin, rows) for rows in (3, 3, 1)])
        else:
            ones = np.broadcast_to(fixed, (7, k))
        plus, minus = np.empty((2, 7, k), dtype=np.int64)
        for j, inst in enumerate(instances):
            kept = ones[:, j] - gen.binomial(ones[:, j], inst.drop_prob)
            users = kept + 6 - ones[:, j] - gen.binomial(6 - ones[:, j], inst.drop_prob)
            flood = gen.poisson(inst.flood_mean, 7)
            p = geo_success_prob(inst.noise_epsilon)
            noise = np.concatenate(
                [sample_nb(1.0 / 6, p, twin, size=(rows, 12)) for rows in (6, 1)]
            )
            plus[:, j] = inst.pad_count * users + kept + noise[:, :6].sum(axis=1) + flood
            minus[:, j] = inst.pad_count * users + noise[:, 6:].sum(axis=1) + flood
        assert rng.generator.bit_generator.state == gen.bit_generator.state
        assert np.array_equal(sums, plus - minus)
        assert np.array_equal(totals, (plus + minus).sum(axis=1))

    def test_batched_totals_match_the_per_user_moments(self):
        # the per-trial flooding total has the law of the per-user sum: the
        # message totals of a batch match those of per-user draw_counts
        params = _loose_params(q=0.2, n=6)
        bits = np.array([1, 0, 1, 1, 0, 0])
        trials = 20_000
        _, batched = run_trials([3], [params], trials, RandomSource(79), "message")
        per_user = draw_counts(bits, params, RandomSource(80), trials).message_count
        a, b = batched.astype(np.float64), per_user.sum(axis=1).astype(np.float64)
        se = math.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
        assert abs(a.mean() - b.mean()) <= 3.0 * se
        da, db = (a - a.mean()) ** 2, (b - b.mean()) ** 2
        se = math.sqrt(da.var(ddof=1) / trials + db.var(ddof=1) / trials)
        assert abs(da.mean() - db.mean()) <= 3.0 * se

    def test_stream_layout_pins_the_seeded_draws(self):
        # a message batch of two instances over two chunks of noise shares, a
        # counts batch, a single run, a view simulation and a batch of one
        # user's message counts; a change that moves any seeded draw changes
        # the digest, and must bump protocol.STREAM_LAYOUT with it
        n = 512
        params = minimal_params(1.0, 0.5, 0.01, n)
        ones = [256, 171]  # users i with i % 2 == 0 and with i % 3 == 0
        rows = CHUNK_ELEMENTS // (2 * n)
        sums, totals = run_trials(ones, [params] * 2, rows + 3, RandomSource(90), "message")
        counts, _ = run_trials(ones, [params] * 2, 5, RandomSource(91), "counts")
        run = run_counting(np.arange(n) % 2 ^ 1, params, RandomSource(92))
        views = simulate_views(n - 171, 171, params, 7, RandomSource(93))
        messages = message_count_trials(1, params, 9, RandomSource(94))
        digest = hashlib.sha256()
        for values in (
            sums, totals, counts, [run.estimate, *run.messages_per_user], *views, messages
        ):
            digest.update(np.asarray(values, dtype=np.int64).tobytes())
        assert (protocol.STREAM_LAYOUT, digest.hexdigest()) == (3, STREAM_DIGEST)

    def test_position_and_run_statistics_match_a_full_shuffle(self):
        plus, minus, draws, bins = 15_000, 5_000, 400, 10
        keys_gen, full_rng = np.random.default_rng(71), RandomSource(72)
        rows = {"keys": [], "full": []}
        for _ in range(draws):
            # reference: a uniform arrangement by sorting i.i.d. random keys
            ref = (np.argsort(keys_gen.random(plus + minus)) < plus).view(np.uint8)
            msgs, _ = shuffle([Contribution(plus, minus, 0, 0, 0)], full_rng)
            for name, codes in (("keys", ref), ("full", (msgs > 0).view(np.uint8))):
                assert np.count_nonzero(codes) == plus
                # the plus count of each tenth of the sequence, and runs
                where = np.add.reduceat(codes, np.arange(0, codes.size, codes.size // bins))
                runs = 1 + np.count_nonzero(codes[1:] != codes[:-1])
                longest = max(len(list(g)) for _, g in itertools.groupby(codes.tolist()))
                rows[name].append([*where, runs, longest])
        keys, full = (np.array(rows[k], dtype=np.float64) for k in ("keys", "full"))
        se = np.sqrt(keys.var(axis=0, ddof=1) / draws + full.var(axis=0, ddof=1) / draws)
        assert np.all(np.abs(keys.mean(axis=0) - full.mean(axis=0)) <= 3.0 * se)
        # both match the uniform arrangement's expected number of runs
        n = plus + minus
        mean = 1 + 2 * plus * minus / n
        var = 2 * plus * minus * (2 * plus * minus - n) / (n**2 * (n - 1))
        for table in (keys, full):
            assert abs(table[:, bins].mean() - mean) <= 3.0 * math.sqrt(var / draws)

    def test_pooled_run_memory_is_flat_in_the_pool(self):
        pools = []
        for n in (100, 1500):
            params = derive_params(1.0, 0.5, n)
            bits = (np.arange(n) < n // 2).astype(np.int64)
            tracemalloc.start()
            try:
                run = run_counting(bits, params, RandomSource(74))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2**21, n
            pools.append(run.view.plus_count + run.view.minus_count)
        assert pools[0] > 2_000_000
        assert pools[1] >= 4 * pools[0]


class TestValidation:
    def test_sample_estimate_rejects_more_ones_than_users(self):
        params = minimal_params(1.0, 0.5, 0.1, 30)
        with pytest.raises(ParameterError):
            sample_estimate(100, params, RandomSource(0))
        with pytest.raises(ParameterError):
            sample_estimate(-1, params, RandomSource(0))

    def test_estimate_trials_rejects_negative_counts(self):
        params = minimal_params(1.0, 0.5, 0.1, 30)
        for fidelity in ("message", "counts", "law"):
            with pytest.raises(ParameterError):
                estimate_trials(-5, 35, params, 10, RandomSource(0), fidelity)
            with pytest.raises(ParameterError):
                simulate_views(-5, 35, params, 10, RandomSource(0))

    def test_run_trials_takes_one_count_of_ones_per_instance(self):
        params = minimal_params(1.0, 0.5, 0.1, 3)
        for ones, k in (([1, 2], 1), ([1], 2)):
            with pytest.raises(ParameterError):
                run_trials(ones, [params] * k, 2, RandomSource(0), "counts")

    @pytest.mark.parametrize("trials", [0, -1])
    def test_batches_reject_fewer_than_one_trial(self, trials):
        params = minimal_params(1.0, 0.5, 0.1, 3)
        with pytest.raises(ParameterError):
            simulate_views(1, 2, params, trials, RandomSource(0))
        with pytest.raises(ParameterError):
            message_count_trials(1, params, trials, RandomSource(0))
        with pytest.raises(ParameterError):
            crossvalidate_views(DatasetSummary(1, 2), params, trials, RandomSource(0))
        for fidelity in ("message", "counts", "law"):
            with pytest.raises(ParameterError):
                estimate_trials(1, 2, params, trials, RandomSource(0), fidelity)

    @pytest.mark.parametrize(
        "trials",
        [2.5, True, np.bool_(True), None, "3"],
        ids=["float", "bool", "numpy-bool", "none", "str"],
    )
    def test_trials_must_be_a_whole_number(self, trials):
        params = minimal_params(1.0, 0.5, 0.1, 3)
        entry_points = [
            lambda t: simulate_views(1, 2, params, t, RandomSource(0))[0],
            lambda t: message_count_trials(1, params, t, RandomSource(0)),
            lambda t: signed_sums(2, params, RandomSource(0), "counts", size=t),
            *(
                lambda t, f=f: estimate_trials(1, 2, params, t, RandomSource(0), f)
                for f in FIDELITIES
            ),
        ]
        for call in entry_points:
            with pytest.raises(ParameterError):
                call(trials)
            assert call(np.int64(2)).shape == (2,)
        # signed_sums draws only the counts and law fidelities
        for fidelity in ("message", "bogus"):
            with pytest.raises(ParameterError):
                signed_sums(2, params, RandomSource(0), fidelity, size=2)
