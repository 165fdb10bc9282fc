import hashlib
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from shufflecount import protocol
from shufflecount import (
    ParameterError,
    ProtocolParams,
    RandomSource,
    View,
    analyze,
    derive_params,
    dlap_variance,
    minimal_params,
    run_counting,
)
from shufflecount.audit import (
    DatasetSummary,
    _binom_logpmf,
    exact_mean_messages,
)
from shufflecount.dist import geo_success_prob, poi_logpmf
from shufflecount.protocol import (
    CHUNK_ELEMENTS,
    FIDELITIES,
    Contribution,
    estimate_trials,
    message_count_trials,
    randomize,
    run_trials,
    shuffle,
    simulate_views,
)

from oracles import (
    crossvalidate_views,
    geo_logpmf,
    gof_integer_samples,
    sample_estimate,
    view_of,
)

REFERENCE = minimal_params(1.0, 0.5, 0.01, 100)
#: SHA-256 of the seeded draws of test_stream_layout_pins_the_seeded_draws at
#: protocol.STREAM_LAYOUT 6
STREAM_DIGEST = "946f3abe91dc17cb12799a864a3d1b40e2b3508c1df35278cabb32363db70a5b"


def _loose_params(q=0.2, n=4):
    # small, not necessarily feasible: randomizer laws do not need feasibility
    return ProtocolParams(
        n_users=n, epsilon=1.0, noise_epsilon=0.5,
        drop_prob=q, pad_count=3, flood_mean=8.0,
    )


@pytest.fixture
def unchecked(monkeypatch):
    # run_counting checks feasibility first; the laws under test do not need it
    monkeypatch.setattr(protocol, "require_feasible", lambda params: None)


class Recorder:
    """A generator that records the name, result size and arguments of every draw."""

    def __init__(self, gen):
        self.gen, self.calls = gen, []

    def __getattr__(self, name):
        method = getattr(self.gen, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, np.size(out), args))
            return out

        return draw

    @property
    def names(self):
        return [name for name, _, _ in self.calls]


def _recorded(seed):
    """A seeded source whose generator records its draws, and an untouched twin."""
    rng, twin = RandomSource(seed), RandomSource(seed)
    rng._generator = Recorder(rng.generator)
    return rng, twin


#: Peak traced bytes per trial of a batch over all n users, whatever n is: a
#: counts batch holds 40.3 at its peak (five int64: the kept ones, and the
#: geometric pair before and after its shift by one) and a message batch 72.3
#: (nine), measured with numpy 2.4 at 8192 trials
COUNTS_BYTES_PER_TRIAL = 42
MESSAGE_BYTES_PER_TRIAL = 74


def _batch_peak(fidelity, n, trials, seed):
    """Peak traced bytes of an :func:`estimate_trials` batch over ``n`` users, warmed up."""
    params = minimal_params(1.0, 0.5, 0.01, n)
    estimate_trials(n, params, 4, RandomSource(seed), fidelity)
    tracemalloc.start()
    try:
        ests = estimate_trials(n, params, trials, RandomSource(seed), fidelity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ests.shape == (trials,)
    return peak


def _estimate_logpmf(ones, params, k):
    """Log-PMF at ``k`` of the estimate ``ones - Binomial(ones, q) + DLap(noise_epsilon)``.

    The kept ones are Binomial(ones, 1 - q), and the discrete Laplace has PMF
    ``tanh(a / 2) e^{-a |d|}``.
    """
    a = params.noise_epsilon
    kept = np.arange(ones + 1)
    log_kept = _binom_logpmf(ones, 1.0 - params.drop_prob, kept)
    d = np.asarray(k)[..., None] - kept
    return logsumexp(log_kept + math.log(math.tanh(a / 2.0)) - a * np.abs(d), axis=-1)


def _dropped_users(run, params):
    # with a pad far above every user's noise shares and flooding, a user is
    # dropped exactly when it sends fewer than 2 pad messages
    return run.messages_per_user < 2 * params.pad_count


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
        (plus, minus), (dropped, _, _, noise) = protocol._stages(
            40, 100, REFERENCE, RandomSource(12), "message", 1, per_user=True
        )
        input_part = 40 - int(dropped[0])  # each kept one sends pad + 1 and pad
        noise_part = int(noise[0, 0] - noise[0, 1])
        assert plus[0] - minus[0] == input_part + noise_part
        run = run_counting(xs, REFERENCE, RandomSource(12))
        assert run.estimate == analyze(run.view) == input_part + noise_part

    def test_all_zeros_estimate_is_discrete_laplace(self):
        params = minimal_params(1.0, 0.5, 0.01, 50)
        ests = estimate_trials(0, params, 40_000, RandomSource(21), "counts")
        target = dlap_variance(params.noise_epsilon)
        sq = ests.astype(np.float64) ** 2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - target) <= 3.0 * se

    def test_single_user_near_zero_drop(self):
        # n=1 with vanishing drop probability: estimate - x is discrete Laplace
        params = ProtocolParams(1, 1.0, 0.5, 1e-9, 40, 600.0)
        ests = estimate_trials(1, params, 40_000, RandomSource(22), "counts")
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
            fid: estimate_trials(40, params, 20_000, RandomSource(30), fid)
            for fid in FIDELITIES
        }
        drift = 40 * params.drop_prob
        var = dlap_variance(0.5) + 40 * params.drop_prob * (1 - params.drop_prob)
        for fid, ests in by_fidelity.items():
            err = (ests - 40).astype(np.float64)
            se = err.std(ddof=1) / math.sqrt(err.size)
            assert abs(err.mean() + drift) <= 3.0 * se, fid
            sq_se = (err**2).std(ddof=1) / math.sqrt(err.size)
            assert abs((err**2).mean() - (var + drift**2)) <= 3.0 * sq_se, fid

    @pytest.mark.parametrize("sampler", [*FIDELITIES, "sample_estimate"])
    def test_estimates_follow_the_closed_form_law(self, sampler):
        # both fidelities, and the closed-form sampler of tests/oracles.py,
        # against the exact PMF of ones - Binomial(ones, q) + DLap(eta),
        # shifted onto the non-negative integers
        params = minimal_params(1.0, 0.5, 0.3, 30)
        if sampler == "sample_estimate":
            ests = sample_estimate(25, params, RandomSource(32), size=50_000)
        else:
            ests = estimate_trials(25, params, 50_000, RandomSource(32), sampler)
        low = int(ests.min())
        result = gof_integer_samples(
            ests - low, lambda k: _estimate_logpmf(25, params, k + low)
        )
        assert result.pvalue >= 1e-3


class TestSimulateViews:
    def test_moments_match_closed_form(self):
        params = minimal_params(1.0, 0.5, 0.01, 3)
        v_plus, v_minus = simulate_views(1, params, 150_000, RandomSource(41))
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
        # each side's noise is one geometric per trial, so at 10**6 users,
        # where per-user noise shares would take 16 bytes per user and
        # trial, a batch peaks at the message stages' bytes per trial
        params = minimal_params(1.0, 0.5, 0.1, 10**6)
        trials = 100_000
        tracemalloc.start()
        try:
            simulate_views(params.n_users // 2, params, trials, RandomSource(42))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= MESSAGE_BYTES_PER_TRIAL * trials

    def test_memory_is_bounded_beyond_one_chunk(self):
        # a batch is not chunked: its peak is the message stages' bytes per
        # trial, at any number of trials
        params = minimal_params(1.0, 0.5, 0.1, 3)
        trials = 100_000
        tracemalloc.start()
        try:
            v_plus, _ = simulate_views(2, params, trials, RandomSource(43))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v_plus.shape == (trials,)
        assert peak <= MESSAGE_BYTES_PER_TRIAL * trials


def test_message_count_trials_mean():
    counts = message_count_trials(1, REFERENCE, 20_000, RandomSource(50))
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - exact_mean_messages(REFERENCE, 1)) <= 3.0 * se


class TestEngine:
    def test_run_counting_matches_scalar_randomize_moments(self, unchecked):
        # each user's message count has the law of the scalar randomizer's
        params = _loose_params(q=0.2, n=2)
        trials = 20_000
        rng = RandomSource(60)
        vec = np.array([run_counting([0, 1], params, rng).messages_per_user for _ in range(trials)])
        rng = RandomSource(61)
        for x in (0, 1):
            a = vec[:, x].astype(np.float64)
            b = np.array(
                [randomize(x, params, rng).message_count for _ in range(trials)], dtype=np.float64
            )
            se = math.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
            assert abs(a.mean() - b.mean()) <= 3.0 * se, x
            da, db = (a - a.mean()) ** 2, (b - b.mean()) ** 2
            se = math.sqrt(da.var(ddof=1) / trials + db.var(ddof=1) / trials)
            assert abs(da.mean() - db.mean()) <= 3.0 * se, x

    @pytest.mark.parametrize("q", [0.01, 0.5])
    def test_drops_are_independent_per_user_and_trial(self, unchecked, q):
        # 500 runs of 400 users holding a zero; Generator.choice places each
        # run's drops through a partial shuffle of its 400 zeros
        m, trials = 400, 500
        params = replace(_loose_params(q=q, n=m), pad_count=10**6)
        rng, bits = RandomSource(68), np.zeros(m, dtype=np.int64)
        dropped = np.array(
            [_dropped_users(run_counting(bits, params, rng), params) for _ in range(trials)]
        )
        kept = m - np.count_nonzero(dropped, axis=1)
        result = gof_integer_samples(kept, lambda k: _binom_logpmf(m, 1.0 - q, k))
        assert result.pvalue >= 1e-3
        per_user = np.count_nonzero(dropped, axis=0)
        result = gof_integer_samples(per_user, lambda k: _binom_logpmf(trials, q, k))
        assert result.pvalue >= 1e-3

    @pytest.mark.parametrize("q", [0.01, 0.5])
    def test_dropped_users_are_the_stage_drop_counts(self, unchecked, q):
        # 15 000 ones and 15 000 zeros: Generator.choice places 1 % of each
        # through a hash set and half of each through a partial shuffle
        n = 30_000
        params = replace(_loose_params(q=q, n=n), pad_count=10**6)
        bits = np.arange(n) % 2
        run = run_counting(bits, params, RandomSource(81))
        _, (dropped_ones, dropped_zeros, _, _) = protocol._stages(
            n // 2, n, params, RandomSource(81), "message", 1, per_user=True
        )
        dropped = _dropped_users(run, params)
        assert np.count_nonzero(dropped & (bits == 1)) == dropped_ones[0] > 0
        assert np.count_nonzero(dropped & (bits == 0)) == dropped_zeros[0] > 0
        assert run.messages_per_user.sum() == run.view.plus_count + run.view.minus_count

    def test_no_drop_draws_only_the_binomial(self, unchecked):
        # at q = 0 run_counting places no drop: the stage binomials are its
        # only drop draws, and no choice follows them; the twin then places
        # the flooding and each side's noise total, table by table
        params = _loose_params(q=0.0, n=6)
        rng, twin = _recorded(69)
        run = run_counting(np.zeros(6, dtype=np.int64), params, rng)
        _, (*_, flood, noise) = protocol._stages(0, 6, params, twin, "message", 1, per_user=True)
        gen = twin.generator
        gen.multinomial(flood[0], np.full(6, 1 / 6))
        tables = 0
        for left in noise[0]:
            while left:
                left -= gen.integers(1, left + 1)
                tables += 1
        gen.integers(0, 6, tables)
        assert np.all(run.messages_per_user >= 2 * params.pad_count)
        assert rng.generator.names[:2] == ["binomial", "binomial"]
        assert "choice" not in rng.generator.names
        assert rng.generator.gen.bit_generator.state == twin.generator.bit_generator.state

    def test_flooding_is_placed_by_one_multinomial(self):
        # count-large's parameters: about 1.3 million flooding pairs on 500
        # users take one multinomial draw, never one draw per pair
        params = derive_params(1.0, 0.5, 500)
        rng, _ = _recorded(83)
        run = run_counting(np.arange(500) % 2, params, rng)
        calls = rng.generator.calls
        assert run.view.minus_count > 10**6
        assert [name for name, _, _ in calls].count("multinomial") == 1
        assert sum(size for name, size, _ in calls if name != "multinomial") < 500

    def test_run_counting_is_the_one_instance_pooled_run(self):
        # a counting run's estimate and view are those of the one-trial
        # batch at the same seed, draw for draw, and its users' message
        # counts add up to the view
        for n in (1, 2, 3, 50, 500, 5000):
            for params in (derive_params(1.0, 0.5, n), minimal_params(1.0, 0.5, 0.2, n)):
                for seed in range(10):
                    bits = np.random.default_rng((n, seed)).integers(0, 2, n)
                    ones = int(bits.sum())
                    run = run_counting(bits, params, RandomSource(seed))
                    est = estimate_trials(ones, params, 1, RandomSource(seed))
                    views = simulate_views(ones, params, 1, RandomSource(seed))
                    assert run.estimate == est[0], (n, seed)
                    assert run.view == View(*(int(v[0]) for v in views)), (n, seed)
                    total = run.messages_per_user.sum()
                    assert total == run.view.plus_count + run.view.minus_count, (n, seed)

    def test_run_counting_memory_per_user(self):
        # n = 10**6 at derived parameters, in bytes per user: the noise shares
        # (16), the counts and the multinomial's probabilities (8 each); the
        # per-user input and total arrays it once held came to 56
        n = 10**6
        params = derive_params(1.0, 0.5, n)
        bits = (np.arange(n) < n // 2).astype(np.uint8)
        run_counting(bits[:1000], derive_params(1.0, 0.5, 1000), RandomSource(84))  # warm up
        tracemalloc.start()
        try:
            run_counting(bits, params, RandomSource(84))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * n

    def test_binomial_of_a_scalar_count_is_the_same_draw(self):
        # numpy's binomial takes a Python int far faster than a one-element
        # array, and draws the same value and leaves the same state either way
        for seed in range(200):
            for n in (0, 3, 57, 10**3, 10**6):
                for q in (0.001, 0.01, 0.3, 0.7):
                    gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
                    assert gen.binomial(np.array([n]), q, size=1) == twin.binomial(n, q, size=1)
                    assert gen.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_one_trial_draws_its_drops_from_a_scalar_count(self, fidelity):
        # a one-trial batch over per-bit sums hands its stages a Python int
        params = minimal_params(1.0, 0.5, 0.2, 6)
        rng, twin = _recorded(85)
        sums, _ = run_trials(lambda rng, rows: np.full((rows, 2), 3), [params] * 2, 1, rng, fidelity)
        binomials = [args for name, _, args in rng.generator.calls if name == "binomial"]
        assert binomials and all(type(args[0]) is int for args in binomials)
        assert np.array_equal(sums, run_trials([3, 3], [params] * 2, 1, twin, fidelity)[0])

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
        # one per-user int64 draw would add 8 KiB per trial at n = 1024
        trials = 8192
        assert _batch_peak("counts", 1024, trials, 65) <= COUNTS_BYTES_PER_TRIAL * trials

    def test_message_fidelity_memory_is_bounded(self):
        trials = 8192
        assert _batch_peak("message", 1024, trials, 66) <= MESSAGE_BYTES_PER_TRIAL * trials

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_batch_memory_does_not_grow_with_n(self, fidelity):
        # the same peak over 10 users as over 10**7
        peaks = [_batch_peak(fidelity, n, 8192, 67) for n in (10, 10**7)]
        assert peaks[0] == peaks[1]

    def test_message_chunk_holds_no_per_user_draw(self):
        # a message batch at n = 10**7: one byte per user would be 10 MB,
        # and the bound is 606 KB
        trials = 8192
        assert _batch_peak("message", 10**7, trials, 70) <= MESSAGE_BYTES_PER_TRIAL * trials


def _dirichlet_multinomial_logpmf(n, shares):
    """Log-PMF of Dirichlet-multinomial(total; 1/n, ..., 1/n) at the ``n`` rows of ``shares``.

    The shapes sum to 1, so the factor ``total! Gamma(1) / Gamma(total + 1)`` is 1.
    """
    shares = np.asarray(shares, dtype=np.float64)
    a = 1.0 / n
    return (gammaln(shares + a) - gammaln(shares + 1.0) - gammaln(a)).sum(axis=0)


class TestNoiseTotals:
    """Each trial draws a side's noise total, and :func:`run_counting` places it on users."""

    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_noise_totals_are_geometric(self, n):
        # the n users' NB(1/n, p) shares of a side pool to one Geometric(p)
        params = minimal_params(1.0, 0.5, 0.01, n)
        p = geo_success_prob(params.noise_epsilon)
        _, (*_, noise) = protocol._stages(
            0, n, params, RandomSource(86), "message", 200_000, per_user=True
        )
        for side in noise.T:
            assert gof_integer_samples(side, lambda k: geo_logpmf(p, k)).pvalue >= 1e-3

    @pytest.mark.parametrize("side", [0, 1], ids=["plus", "minus"])
    def test_placed_noise_is_dirichlet_multinomial(self, unchecked, monkeypatch, side):
        # given a side's total g, the shares of n users are Dirichlet-multinomial
        # (g; 1/n, ..., 1/n); with no drop and no flooding, run_counting
        # places a fixed total on 3 users, and each outcome is coded as
        # share_0 * (g + 1) + share_1
        n, g, runs = 3, 6, 40_000
        params = _loose_params(q=0.0, n=n)
        zero, noise = np.zeros(1, dtype=np.int64), np.zeros((1, 2), dtype=np.int64)
        noise[0, side] = g
        monkeypatch.setattr(
            protocol, "_stages", lambda *args, **kwargs: ((zero, zero), (zero, zero, zero, noise))
        )
        rng, bits = RandomSource(87), np.zeros(n, dtype=np.int64)
        shares = np.array(
            [run_counting(bits, params, rng).messages_per_user for _ in range(runs)]
        ) - 2 * params.pad_count
        assert np.all(shares.sum(axis=1) == g)

        def logpmf(codes):
            first, second = np.divmod(codes, g + 1)
            out = np.full(codes.shape, -np.inf)
            on = first + second <= g
            out[on] = _dirichlet_multinomial_logpmf(
                n, [first[on], second[on], g - first[on] - second[on]]
            )
            return out

        codes = shares[:, 0] * (g + 1) + shares[:, 1]
        assert gof_integer_samples(codes, logpmf).pvalue >= 1e-3

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_batch_draws_do_not_grow_with_n(self, fidelity):
        # a batch over 10**7 users makes the same generator calls, by name and
        # size, as one over 10: a few draws per trial, none per user
        calls = []
        for n in (10, 10**7):
            params = minimal_params(1.0, 0.5, 0.01, n)
            rng, _ = _recorded(88)
            run_trials([n // 2, n // 3], [params] * 2, 5, rng, fidelity)
            simulate_views(n - n // 2, params, 5, rng)
            calls.append([(name, size) for name, size, _ in rng.generator.calls])
        assert calls[0] == calls[1]


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
    def test_batched_runs_draw_the_geometric_pair(self, monkeypatch, k, rounded):
        # 6 users: the rounding comes in chunks of three trials, so seven
        # trials end in a partial chunk; inputs are a fixed vector of ones or
        # per-bit sums drawn per chunk. The twin draws the rounding, then per
        # instance the dropped ones and zeros, the flooding total and the
        # plus and minus noise totals of all seven trials, one geometric each
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
            noise = gen.geometric(geo_success_prob(inst.noise_epsilon), (7, 2)) - 1
            plus[:, j] = inst.pad_count * users + kept + noise[:, 0] + flood
            minus[:, j] = inst.pad_count * users + noise[:, 1] + flood
        assert rng.generator.bit_generator.state == gen.bit_generator.state
        assert np.array_equal(sums, plus - minus)
        assert np.array_equal(totals, (plus + minus).sum(axis=1))

    def test_batched_totals_match_the_per_user_moments(self):
        # the per-trial flooding total has the law of the per-user sum: the
        # message totals of a batch match those of the scalar randomizer
        # summed over the users
        params = _loose_params(q=0.2, n=6)
        bits = [1, 0, 1, 1, 0, 0]
        trials = 20_000
        _, batched = run_trials([3], [params], trials, RandomSource(79), "message")
        rng = RandomSource(80)
        per_user = [sum(randomize(x, params, rng).message_count for x in bits) for _ in range(trials)]
        a, b = batched.astype(np.float64), np.array(per_user, dtype=np.float64)
        se = math.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
        assert abs(a.mean() - b.mean()) <= 3.0 * se
        da, db = (a - a.mean()) ** 2, (b - b.mean()) ** 2
        se = math.sqrt(da.var(ddof=1) / trials + db.var(ddof=1) / trials)
        assert abs(da.mean() - db.mean()) <= 3.0 * se

    def test_stream_layout_pins_the_seeded_draws(self):
        # a message batch of two instances, a counts batch, a single run, a
        # view simulation and a batch of one user's message counts; a change
        # that moves any seeded draw changes the digest, and must bump
        # protocol.STREAM_LAYOUT with it
        n = 512
        params = minimal_params(1.0, 0.5, 0.01, n)
        ones = [256, 171]  # users i with i % 2 == 0 and with i % 3 == 0
        rows = CHUNK_ELEMENTS // (2 * n)
        sums, totals = run_trials(ones, [params] * 2, rows + 3, RandomSource(90), "message")
        counts, _ = run_trials(ones, [params] * 2, 5, RandomSource(91), "counts")
        run = run_counting(np.arange(n) % 2 ^ 1, params, RandomSource(92))
        views = simulate_views(171, params, 7, RandomSource(93))
        messages = message_count_trials(1, params, 9, RandomSource(94))
        digest = hashlib.sha256()
        for values in (
            sums, totals, counts, [run.estimate, *run.messages_per_user], *views, messages
        ):
            digest.update(np.asarray(values, dtype=np.int64).tobytes())
        assert (protocol.STREAM_LAYOUT, digest.hexdigest()) == (6, STREAM_DIGEST)

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
        # and counts of ones above n_users
        params = minimal_params(1.0, 0.5, 0.1, 30)
        for ones in (-5, 35):
            for fidelity in FIDELITIES:
                with pytest.raises(ParameterError):
                    estimate_trials(ones, params, 10, RandomSource(0), fidelity)
            with pytest.raises(ParameterError):
                simulate_views(ones, params, 10, RandomSource(0))

    def test_crossvalidate_views_takes_a_dataset_of_n_users(self):
        params = minimal_params(1.0, 0.5, 0.1, 3)
        for ds in (DatasetSummary(1, 1), DatasetSummary(2, 2)):
            with pytest.raises(ParameterError, match="n_users"):
                crossvalidate_views(ds, params, 10, RandomSource(0))

    def test_run_trials_takes_one_count_of_ones_per_instance(self):
        params = minimal_params(1.0, 0.5, 0.1, 3)
        for ones, k in (([1, 2], 1), ([1], 2)):
            with pytest.raises(ParameterError):
                run_trials(ones, [params] * k, 2, RandomSource(0), "counts")

    def test_run_trials_takes_instances_of_one_user_count(self):
        # no instance, or instances over 10 and 1000 users
        with pytest.raises(ParameterError):
            run_trials([], [], 1, RandomSource(1), "counts")
        instances = [derive_params(1.0, 0.5, 10), derive_params(1.0, 0.5, 1000)]
        with pytest.raises(ParameterError, match="n_users"):
            run_trials([5, 5], instances, 2, RandomSource(1), "counts")

    @pytest.mark.parametrize("trials", [0, -1])
    def test_batches_reject_fewer_than_one_trial(self, trials):
        params = minimal_params(1.0, 0.5, 0.1, 3)
        with pytest.raises(ParameterError):
            simulate_views(2, params, trials, RandomSource(0))
        with pytest.raises(ParameterError):
            message_count_trials(1, params, trials, RandomSource(0))
        with pytest.raises(ParameterError):
            crossvalidate_views(DatasetSummary(1, 2), params, trials, RandomSource(0))
        for fidelity in FIDELITIES:
            with pytest.raises(ParameterError):
                estimate_trials(2, params, trials, RandomSource(0), fidelity)

    @pytest.mark.parametrize(
        "trials",
        [2.5, True, np.bool_(True), None, "3"],
        ids=["float", "bool", "numpy-bool", "none", "str"],
    )
    def test_trials_must_be_a_whole_number(self, trials):
        params = minimal_params(1.0, 0.5, 0.1, 3)
        entry_points = [
            lambda t: simulate_views(2, params, t, RandomSource(0))[0],
            lambda t: message_count_trials(1, params, t, RandomSource(0)),
            *(
                lambda t, f=f: estimate_trials(2, params, t, RandomSource(0), f)
                for f in FIDELITIES
            ),
        ]
        for call in entry_points:
            with pytest.raises(ParameterError):
                call(trials)
            assert call(np.int64(2)).shape == (2,)
