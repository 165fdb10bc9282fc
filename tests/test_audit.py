import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from shufflecount import (
    AuditInconclusiveError,
    DatasetSummary,
    ParameterError,
    ProtocolParams,
    RandomSource,
    check_geo_ratio,
    check_poi_ratio,
    crossvalidate_views,
    divergence_audit,
    dlap_variance,
    exact_mean_messages,
    exact_mse,
    exact_view_logpmf,
    measure_comm,
    measure_mse,
    minimal_params,
    view_logpmf_grid,
)
from shufflecount import audit
from shufflecount.audit import (
    MIN_EXPECTED,
    GofResult,
    RatioCheck,
    _binom_logpmf,
    _grid_bounds,
    _lumped_chisquare,
    gof_integer_samples,
    max_log_ratio,
    messages_bound,
    mse_bound,
)
from shufflecount.dist import geo_logpmf, geo_success_prob, poi_logpmf, sample_nb


def _reference(n, q=0.01):
    return ProtocolParams(
        n_users=n, epsilon=1.0, noise_epsilon=0.5,
        drop_prob=q, pad_count=17, flood_mean=127.0,
    )


class TestExactViewLogpmf:
    def test_single_user_origin_hand_expansion(self):
        # one zero-input user, pad >= 1: only the dropped branch reaches (0, 0)
        params = ProtocolParams(
            n_users=1, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=0.01, pad_count=3, flood_mean=0.25,
        )
        ds = DatasetSummary(zeros=1, ones=0)
        p = geo_success_prob(0.5)
        expected = math.log(0.01) - 0.25 + 2.0 * math.log(p)
        assert exact_view_logpmf(ds, params, 0, 0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_off_support(self):
        params = _reference(2)
        ds = DatasetSummary(zeros=1, ones=1)
        assert exact_view_logpmf(ds, params, -1, 5) == -math.inf

    def test_grid_agrees_with_point_evaluation(self):
        params = _reference(3)
        ds = DatasetSummary(zeros=2, ones=1)
        grid = view_logpmf_grid(ds, params, 250, 250)
        gen = np.random.default_rng(0)
        for _ in range(25):
            i, j = map(int, gen.integers(0, 251, size=2))
            assert grid[i, j] == pytest.approx(
                exact_view_logpmf(ds, params, i, j), rel=1e-10, abs=1e-12
            )

    def test_normalization(self):
        params = _reference(3)
        for ds in (DatasetSummary(2, 1), DatasetSummary(3, 0)):
            grid = view_logpmf_grid(ds, params, 400, 400)
            mass = math.exp(logsumexp(grid))
            assert 1.0 - 1e-9 <= mass <= 1.0 + 1e-12


def _per_shift_grid(ds, params, i_max, j_max):
    """Reference view grid: one 2-D logaddexp per participation pair (a0, a1).

    The flood-plus-noise grid ``2 log p - eta (a + b) + C[min(a, b)]`` is
    built once and added, shifted by ``(m pad + a1, m pad)``, for every pair
    of nonzero weight.
    """
    eta = params.noise_epsilon
    w = np.arange(min(i_max, j_max) + 1)
    cumulative = np.logaddexp.accumulate(
        w * (math.log(params.flood_mean) + 2.0 * eta)
        - params.flood_mean
        - gammaln(w + 1)
    )
    a = np.arange(i_max + 1)[:, None]
    b = np.arange(j_max + 1)[None, :]
    base = (
        2.0 * math.log(geo_success_prob(eta))
        - eta * (a + b)
        + cumulative[np.minimum(a, b)]
    )
    keep = 1.0 - params.drop_prob
    lw0 = _binom_logpmf(ds.zeros, keep, np.arange(ds.zeros + 1))
    lw1 = _binom_logpmf(ds.ones, keep, np.arange(ds.ones + 1))
    acc = np.full((i_max + 1, j_max + 1), -math.inf)
    for a0 in range(ds.zeros + 1):
        for a1 in range(ds.ones + 1):
            lw = lw0[a0] + lw1[a1]
            u = (a0 + a1) * params.pad_count + a1
            v = (a0 + a1) * params.pad_count
            if lw == -math.inf or u > i_max or v > j_max:
                continue
            block = acc[u:, v:]
            np.logaddexp(block, lw + base[: i_max + 1 - u, : j_max + 1 - v], out=block)
    return acc


class TestViewGrid:
    @pytest.mark.parametrize("q", [0.0, 0.01, 0.3])
    @pytest.mark.parametrize("pad", [1, 3, 17])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 127.0])
    def test_matches_per_shift_reference(self, q, pad, lam):
        n = 4
        params = ProtocolParams(
            n_users=n, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=q, pad_count=pad, flood_mean=lam,
        )
        for ones in (0, 1, 2, n):
            ds = DatasetSummary(zeros=n - ones, ones=ones)
            for i_max, j_max in ((40, 90), (90, 40), (0, 0), (5, 2)):
                grid = view_logpmf_grid(ds, params, i_max, j_max)
                ref = _per_shift_grid(ds, params, i_max, j_max)
                assert grid.shape == ref.shape
                assert np.array_equal(np.isneginf(grid), np.isneginf(ref))
                finite = np.isfinite(ref)
                assert np.all(np.isfinite(grid) == finite)
                if finite.any():
                    assert np.max(np.abs(grid[finite] - ref[finite])) <= 1e-9

    def test_with_one_grid_memory(self):
        # the audit-oracle grid of the reference set at n = 20 may hold the
        # grid, one staircase term and its mask, and 1-D arrays, but no
        # second float grid beside them
        params = _reference(20)
        ds = DatasetSummary(zeros=19, ones=1)
        view_logpmf_grid(ds, params, 5, 5)  # imports outside the trace
        tracemalloc.start()
        try:
            grid = view_logpmf_grid(ds, params, 614, 594)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * grid.nbytes


def _grid_audit(
    n_users, params, coverage=1.0 - 1e-9, mass_floor=1e-30, tolerance=1e-6,
    grid_cap=4096,
):
    """Reference divergence audit over the two full view grids.

    Builds ``view_logpmf_grid`` for ``(1, 0, ..., 0)`` and ``(0, ..., 0)``
    and takes masses, support, mass-floor mask and sup cell by cell.
    """
    tail = (1.0 - coverage) / 8.0
    if 1.0 - tail == 1.0:
        raise AuditInconclusiveError("coverage beyond floating point")
    i_max, j_max = _grid_bounds(params, n_users, tail)
    if max(i_max, j_max) > grid_cap:
        raise AuditInconclusiveError("grid cap")
    lf_x = view_logpmf_grid(DatasetSummary(n_users - 1, 1), params, i_max, j_max)
    lf_xp = view_logpmf_grid(DatasetSummary(n_users, 0), params, i_max, j_max)
    mass_x = float(np.exp(lf_x).sum())
    mass_xp = float(np.exp(lf_xp).sum())
    if min(mass_x, mass_xp) < coverage:
        raise AuditInconclusiveError("grid mass")
    inf_x = np.isneginf(lf_x)
    inf_xp = np.isneginf(lf_xp)
    support_mismatch = bool(np.any(inf_x != inf_xp))
    mask = ((lf_x >= math.log(mass_floor)) | (lf_xp >= math.log(mass_floor))) & ~(
        inf_x & inf_xp
    )
    if support_mismatch:
        sup = math.inf
    elif np.any(mask):
        sup = float(np.max(np.abs(lf_x[mask] - lf_xp[mask])))
    else:
        sup = 0.0
    return {
        "pass": not support_mismatch and sup <= params.epsilon + tolerance,
        "support_mismatch": support_mismatch,
        "grid": (i_max, j_max),
        "sup": sup,
        "mass_x": mass_x,
        "mass_xp": mass_xp,
    }


class TestOneDimensionalAudit:
    """The audit's 1-D class profiles against the two full grids."""

    @pytest.mark.parametrize("q", [0.0, 0.01, 0.3])
    @pytest.mark.parametrize("pad", [1, 3, 17])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 127.0])
    def test_matches_grid_reference(self, q, pad, lam):
        for (eta, eps), n, kwargs in itertools.product(
            [(0.5, 1.0), (0.9, 1.0), (1.0, 2.0)],
            [1, 2, 3, 5, 20],
            [{}, {"coverage": 0.999}, {"mass_floor": 1e-10}, {"grid_cap": 300}],
        ):
            params = ProtocolParams(
                n_users=n, epsilon=eps, noise_epsilon=eta,
                drop_prob=q, pad_count=pad, flood_mean=lam,
            )
            try:
                ref = _grid_audit(n, params, **kwargs)
            except AuditInconclusiveError:
                with pytest.raises(AuditInconclusiveError):
                    divergence_audit(n, params, **kwargs)
                continue
            report = divergence_audit(n, params, **kwargs)
            case = (eta, eps, n, kwargs)
            assert report.passed == ref["pass"], case
            assert report.support_mismatch == ref["support_mismatch"], case
            assert (report.grid_i_max, report.grid_j_max) == ref["grid"], case
            if math.isinf(ref["sup"]):
                assert report.sup_abs_log_ratio == ref["sup"], case
            else:
                assert abs(report.sup_abs_log_ratio - ref["sup"]) <= 1e-12, case
            assert abs(report.mass_covered_x - ref["mass_x"]) <= 1e-12, case
            assert abs(report.mass_covered_xprime - ref["mass_xp"]) <= 1e-12, case

    def test_memory_is_one_dimensional(self):
        # two 615 x 595 float grids would take 5.9 MB; the profiles hold
        # a few arrays of t_max + 1 = 595 entries
        params = _reference(20)
        divergence_audit(20, params)  # imports outside the trace
        tracemalloc.start()
        try:
            report = divergence_audit(20, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        t_max = min(report.grid_i_max, report.grid_j_max)
        assert peak <= 64 * 8 * (t_max + 1)

    def test_nan_mass_is_inconclusive(self, monkeypatch):
        # a profile that overflowed to NaN must not pass the coverage check
        def nan_mixture(zeros, params, t_max):
            return np.full(t_max + 1, math.nan)

        monkeypatch.setattr(audit, "_zero_mixture", nan_mixture)
        with np.errstate(invalid="ignore"), pytest.raises(AuditInconclusiveError):
            divergence_audit(3, _reference(3))


class TestDivergenceAudit:
    def test_reference_set_passes(self):
        report = divergence_audit(2, _reference(2))
        assert report.passed
        assert report.sup_abs_log_ratio <= 1.0 + 1e-6
        assert report.mass_covered_x >= 1.0 - 1e-9
        assert report.mass_covered_xprime >= 1.0 - 1e-9
        assert not report.support_mismatch

    def test_zero_drop_prob_fails_with_support_mismatch(self):
        report = divergence_audit(3, _reference(3, q=0.0))
        assert not report.passed
        assert report.support_mismatch
        assert math.isinf(report.sup_abs_log_ratio)

    def test_starved_flooding_fails(self):
        params = ProtocolParams(
            n_users=2, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=0.01, pad_count=17, flood_mean=1.0,
        )
        report = divergence_audit(2, params)
        assert not report.passed
        assert report.sup_abs_log_ratio > 1.0 + 1e-6
        assert not report.support_mismatch

    def test_insufficient_pad_fails(self):
        params = ProtocolParams(
            n_users=2, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=0.01, pad_count=1, flood_mean=127.0,
        )
        report = divergence_audit(2, params)
        assert not report.passed
        assert report.sup_abs_log_ratio > 1.0 + 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_cap": 100},
            {"coverage": 1.0 - 1e-14},
            {"coverage": 0.9999999999999999},
        ],
        ids=["grid_cap", "coverage", "coverage_quantile_at_one"],
    )
    def test_unreachable_coverage_is_inconclusive(self, kwargs):
        # the coverages lie beyond the mass floating point resolves; at the
        # last, 1 - (1 - coverage) / 8 rounds to a flood quantile at 1
        with pytest.raises(AuditInconclusiveError):
            divergence_audit(3, _reference(3), **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"coverage": 0.0},
            {"coverage": 1.0},
            {"coverage": 1.5},
            {"mass_floor": 0.0},
            {"mass_floor": 2.0},
            {"tolerance": -1e-9},
            {"tolerance": math.inf},
            {"tolerance": math.nan},
            {"grid_cap": 0},
            {"grid_cap": -5},
        ],
    )
    def test_out_of_range_coverage_or_floor_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            divergence_audit(3, _reference(3), **kwargs)

    def test_grid_flood_quantile_matches_scipy_stats(self):
        from scipy import stats

        gen = np.random.default_rng(20_000)
        means = np.exp(gen.uniform(-3.0, 16.0, size=2000))
        tails = 10.0 ** gen.uniform(-15.0, math.log10(0.125), size=2000)
        quantiles = stats.poisson.ppf(1.0 - tails, means)
        for mean, tail, quantile in zip(means, tails, quantiles):
            params = ProtocolParams(
                n_users=1, epsilon=1.0, noise_epsilon=0.5,
                drop_prob=0.01, pad_count=17, flood_mean=float(mean),
            )
            noise_q = int(math.log(tail) / math.log1p(-geo_success_prob(0.5))) + 2
            i_max, j_max = _grid_bounds(params, 1, float(tail))
            assert i_max - 18 - noise_q - 2 == int(quantile)
            assert j_max == i_max - 1

    def test_json_schema(self):
        report = divergence_audit(2, _reference(2))
        payload = report.to_json_dict()
        assert set(payload) >= {
            "sup_abs_log_ratio", "eps_target", "mass_covered_x",
            "mass_covered_xprime", "grid", "pass", "excluded_mass_bound",
        }
        assert set(payload["grid"]) == {"i_max", "j_max"}
        assert payload["pass"] is True
        assert payload["excluded_mass_bound"] <= 1e-9


class TestRatioChecks:
    def test_geo_margin_is_zero_at_interior_points(self):
        check = check_geo_ratio(0.5, 10_000)
        assert check.ok
        assert abs(check.worst_margin) <= 1e-12
        assert check.worst_index >= 1

    def test_geo_rejects_bad_budget(self):
        with pytest.raises(ParameterError):
            check_geo_ratio(0.0, 10)

    def test_geo_rejects_budget_whose_tail_rounds_away(self):
        # 1 - e^-40 rounds to 1.0: no geometric tail is left to check or draw
        assert geo_success_prob(40.0) == 1.0
        with pytest.raises(ParameterError):
            check_geo_ratio(40.0, 10)
        with pytest.raises(ParameterError):
            sample_nb(0.1, geo_success_prob(40.0), RandomSource(0), size=3)

    @pytest.mark.parametrize("eta", [0.5, 2.0])
    @pytest.mark.parametrize("i_max", [0, 1, 2, 10_000])
    def test_geo_check_equals_brute_force(self, eta, i_max):
        i = np.arange(i_max + 1)
        step = np.where(i >= 1, -math.log1p(-geo_success_prob(eta)), -math.inf)
        margins = eta - step
        worst = int(np.argmin(margins))
        assert check_geo_ratio(eta, i_max) == RatioCheck(
            ok=bool(margins[worst] >= -1e-9),
            worst_margin=float(margins[worst]),
            worst_index=worst,
            i_max=i_max,
            tolerance=1e-9,
        )

    @pytest.mark.parametrize("tolerance", [-1e-9, math.inf, math.nan])
    def test_out_of_range_tolerance_rejected(self, tolerance):
        with pytest.raises(ParameterError):
            check_geo_ratio(0.5, 10, tolerance=tolerance)
        with pytest.raises(ParameterError):
            check_poi_ratio(_reference(3), tolerance=tolerance)

    def test_negative_range_rejected(self):
        with pytest.raises(ParameterError):
            check_geo_ratio(0.5, -1)
        with pytest.raises(ParameterError):
            check_poi_ratio(_reference(3), i_max=-1)

    def test_poi_boundary_term_matches_hand_expansion(self):
        # at i = 0 the margin reduces to ln((e^eps - 1) q lam^s / s!)
        from scipy.special import gammaln

        params = _reference(3)
        check = check_poi_ratio(params, i_max=0)
        expected = (
            math.log(math.expm1(1.0) * 0.01)
            + 17 * math.log(127.0)
            - gammaln(18)
        )
        assert check.worst_margin == pytest.approx(expected, rel=1e-12)
        assert check.ok

    def test_poi_full_range_reference_set(self):
        check = check_poi_ratio(_reference(3))
        assert check.ok
        assert check.worst_margin >= -1e-9
        assert check.i_max >= 127 + 20 * math.sqrt(127) + 17 - 1

    def test_poi_detects_insufficient_pad(self):
        params = ProtocolParams(
            n_users=2, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=0.01, pad_count=1, flood_mean=127.0,
        )
        check = check_poi_ratio(params)
        assert not check.ok

    @staticmethod
    def _poi_margins(params):
        """Brute-force flood margins over the whole default range."""
        lam, s = params.flood_mean, params.pad_count
        i = np.arange(math.ceil(lam + 20.0 * math.sqrt(lam) + s) + 1)
        if params.drop_prob > 0.0:
            term_pad = (
                math.log(math.expm1(params.epsilon) * params.drop_prob)
                + poi_logpmf(lam, i + s)
            )
        else:
            term_pad = np.full(i.shape, -math.inf)
        term_down = params.epsilon - params.noise_epsilon + poi_logpmf(lam, i - 1)
        return np.logaddexp(term_pad, term_down) - poi_logpmf(lam, i)

    @pytest.mark.parametrize("q", [0.0, 0.001, 0.01, 0.3])
    @pytest.mark.parametrize("pad", [1, 3, 17, 200])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 127.0, 1e3, 1e4])
    def test_poi_check_equals_brute_force(self, q, pad, lam):
        for eta, eps in [(0.5, 1.0), (0.9, 1.0), (1.0, 2.0)]:
            params = ProtocolParams(
                n_users=3, epsilon=eps, noise_epsilon=eta,
                drop_prob=q, pad_count=pad, flood_mean=lam,
            )
            margins = self._poi_margins(params)
            worst = int(np.argmin(margins))
            check = check_poi_ratio(params)
            assert check.i_max == margins.size - 1
            assert check.ok == bool(margins[worst] >= -1e-9)
            if math.isinf(margins[worst]):
                assert (check.worst_margin, check.worst_index) == (margins[worst], worst)
                continue
            assert abs(check.worst_margin - margins[worst]) <= 1e-9
            # equal, or tied with the brute-force minimum
            assert abs(margins[check.worst_index] - margins[worst]) <= 1e-9

    @pytest.mark.parametrize("eps,n", [(0.5, 100), (2.0, 1000)])
    def test_every_feasible_derived_set_passes_both_checks(self, eps, n):
        from shufflecount import derive_params

        params = derive_params(eps, 0.5, n)
        assert check_geo_ratio(params.noise_epsilon, 10_000).ok
        assert check_poi_ratio(params).ok


class TestMseMeasurement:
    def test_exact_and_bound_formulas(self):
        params = _reference(100)
        exact = exact_mse(params, 100)
        assert exact == pytest.approx(
            dlap_variance(0.5) + 100 * 0.01 * 0.99 + 1.0, rel=1e-12
        )
        assert exact == pytest.approx(9.825396178065526, rel=1e-12)
        # all-ones datasets meet the data-independent bound with equality
        assert mse_bound(params) == pytest.approx(exact, rel=1e-12)

    def test_all_zero_dataset_law_is_pure_noise(self):
        params = _reference(100)
        assert exact_mse(params, 0) == pytest.approx(dlap_variance(0.5), rel=1e-12)

    def test_monte_carlo_brackets_exact_value(self):
        params = _reference(100)
        result = measure_mse(
            params, DatasetSummary(0, 100), 5000, RandomSource(60), "counts"
        )
        assert abs(result.empirical_mse - result.exact) <= 3.0 * result.std_err
        assert result.empirical_mse <= result.bound + 3.0 * result.std_err

    def test_trial_floor(self):
        with pytest.raises(ParameterError):
            measure_mse(_reference(10), DatasetSummary(0, 10), 10, RandomSource(0))


class TestCommMeasurement:
    def test_exact_formula(self):
        params = _reference(100)
        assert exact_mean_messages(params, 1) == pytest.approx(
            37.22082988165074, rel=1e-12
        )
        p = geo_success_prob(0.5)
        hand = 0.99 * 35 + 2.0 * ((1 - p) / p) / 100 + 2.0 * 127.0 / 100
        assert exact_mean_messages(params, 1) == pytest.approx(hand, rel=1e-12)

    def test_exact_below_bound(self):
        params = _reference(100)
        assert exact_mean_messages(params, 1) <= messages_bound(params)
        assert exact_mean_messages(params, 0) <= messages_bound(params)

    def test_input_independent_part_dominates_when_input_dropped(self):
        # with drop probability near one, only noise and flooding remain
        params = ProtocolParams(
            n_users=4, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=1.0 - 1e-9, pad_count=17, flood_mean=8.0,
        )
        p = geo_success_prob(0.5)
        noise_only = 2.0 * ((1 - p) / p) / 4 + 2.0 * 8.0 / 4
        assert exact_mean_messages(params, 0) == pytest.approx(
            noise_only, rel=1e-6
        )

    def test_monte_carlo_brackets_exact(self):
        params = _reference(100)
        result = measure_comm(params, 1, 10_000, RandomSource(61))
        assert abs(result.empirical_mean - result.exact) <= 3.0 * result.std_err
        assert result.empirical_mean <= result.bound


class TestCrossValidation:
    def test_simulated_views_match_oracle(self):
        params = _reference(3)
        result = crossvalidate_views(
            DatasetSummary(2, 1), params, 200_000, RandomSource(62)
        )
        assert result.pvalue >= 1e-3
        assert result.cells > 200

    def test_gof_helper_detects_wrong_distribution(self):
        rng = RandomSource(63)
        samples = rng.generator.geometric(0.4, size=100_000) - 1
        good = gof_integer_samples(samples, lambda k: geo_logpmf(0.4, k))
        bad = gof_integer_samples(samples, lambda k: geo_logpmf(0.45, k))
        assert isinstance(good, GofResult)
        assert good.pvalue >= 1e-3
        assert bad.pvalue < 1e-6

    @pytest.mark.parametrize("seed,mean", [(64, 20.0), (65, 20.0), (66, 20.5)])
    def test_lumped_chisquare_matches_scipy_stats(self, seed, mean):
        from scipy import stats

        total = 5000
        samples = RandomSource(seed).generator.poisson(mean, size=total)
        ks = np.arange(samples.max() + 1)
        expected = np.exp(poi_logpmf(20.0, ks)) * total
        observed = np.bincount(samples).astype(np.float64)
        result = _lumped_chisquare(observed, expected, total)
        sel = expected >= MIN_EXPECTED
        reference = stats.chisquare(
            np.append(observed[sel], total - observed[sel].sum()),
            np.append(expected[sel], total - expected[sel].sum()),
        )
        assert result.statistic == float(reference.statistic)
        assert result.pvalue == float(reference.pvalue)
        assert result.cells == sel.sum() + 1


@st.composite
def _pmf_pair_and_kernel(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    kernel_size = draw(st.integers(min_value=1, max_value=5))
    weights = st.floats(min_value=0.01, max_value=1.0)
    p1 = np.array(draw(st.lists(weights, min_size=size, max_size=size)))
    p2 = np.array(draw(st.lists(weights, min_size=size, max_size=size)))
    p3 = np.array(draw(st.lists(weights, min_size=kernel_size, max_size=kernel_size)))
    return p1 / p1.sum(), p2 / p2.sum(), p3 / p3.sum()


@given(_pmf_pair_and_kernel())
@settings(max_examples=200, deadline=None)
def test_convolution_never_increases_max_divergence(pmfs):
    p1, p2, p3 = pmfs
    base = max_log_ratio(p1, p2)
    convolved = max_log_ratio(np.convolve(p1, p3), np.convolve(p2, p3))
    assert convolved <= base + 1e-9


def test_max_log_ratio_support_mismatch_is_infinite():
    assert max_log_ratio(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf
    assert max_log_ratio(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == math.log(2.0)


def test_minimal_reference_matches_audit_fixture():
    assert minimal_params(1.0, 0.5, 0.01, 3) == ProtocolParams(
        3, 1.0, 0.5, 0.01, 17, 127.0
    )
