"""Acceptance suite: every criterion prints one line and enforces its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is seeded and deterministic.
"""

import json
import math

import numpy as np
import pytest

from shufflecount import (
    ProtocolParams,
    RandomSource,
    analyze,
    check_geo_ratio,
    check_poi_ratio,
    divergence_audit,
    dlap_variance,
    measure_comm,
    measure_mse,
    minimal_params,
    split_budget,
)
from shufflecount.audit import DatasetSummary, _grid_bounds, view_logpmf_grid
from shufflecount.cli import main as cli_main
from shufflecount.composition import bit_weights, real_sum_params, real_sum_trials, histogram_trials
from shufflecount.dist import (
    geo_mean,
    geo_success_prob,
    poi_logpmf,
    sample_nb,
    sample_poi,
)
from shufflecount.protocol import estimate_trials
from scipy.special import logsumexp

from oracles import crossvalidate_views, geo_logpmf, gof_integer_samples, view_of

REFERENCE = ProtocolParams(
    n_users=100, epsilon=1.0, noise_epsilon=0.5,
    drop_prob=0.01, pad_count=17, flood_mean=127.0,
)


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_1_ratio_inequality_suite():
    grid = [(1.0, 0.5, 0.01), (0.5, 0.25, 0.01), (2.0, 1.0, 0.001)]
    worst = math.inf
    ok = True
    for eps, eps_noise, q in grid:
        params = minimal_params(eps, eps_noise, q, 3)
        geo = check_geo_ratio(eps_noise, 10_000, tolerance=1e-9)
        i_max = math.ceil(
            params.flood_mean + 20.0 * math.sqrt(params.flood_mean) + params.pad_count
        )
        poi = check_poi_ratio(params, i_max=i_max, tolerance=1e-9)
        ok = ok and geo.ok and poi.ok
        worst = min(worst, geo.worst_margin, poi.worst_margin)
    passed = ok and worst >= -1e-9
    _report("1 ratio-inequality suite", passed, f"worst margin {worst:.3e}")
    assert passed


def test_criterion_2_divergence_audit():
    sups = {}
    ok = True
    for n in (2, 3, 5):
        params = ProtocolParams(
            n_users=n, epsilon=1.0, noise_epsilon=0.5,
            drop_prob=0.01, pad_count=17, flood_mean=127.0,
        )
        report = divergence_audit(n, params, coverage=1.0 - 1e-9)
        sups[n] = report.sup_abs_log_ratio
        ok = ok and report.passed and report.sup_abs_log_ratio <= 1.0 + 1e-6
        ok = ok and report.mass_covered_x >= 1.0 - 1e-9
        ok = ok and report.mass_covered_xprime >= 1.0 - 1e-9

    control = ProtocolParams(
        n_users=3, epsilon=1.0, noise_epsilon=0.5,
        drop_prob=0.0, pad_count=17, flood_mean=127.0,
    )
    negative = divergence_audit(3, control, coverage=1.0 - 1e-9)
    control_ok = (
        not negative.passed
        and negative.support_mismatch
        and math.isinf(negative.sup_abs_log_ratio)
    )
    passed = ok and control_ok
    _report(
        "2 divergence audit",
        passed,
        "sup=" + ", ".join(f"n={n}: {s:.4f}" for n, s in sups.items())
        + "; q=0 control unbounded",
    )
    assert passed


def test_criterion_3_mse_reproduction():
    exact = dlap_variance(0.5) + 100 * 0.01 * 0.99 + (100 * 0.01) ** 2
    assert exact == pytest.approx(9.825396178065526, rel=1e-12)
    result = measure_mse(
        REFERENCE,
        100,
        50_000,
        RandomSource(2024),
        fidelity="message",
    )
    assert result.exact == pytest.approx(exact, rel=1e-12)
    within = abs(result.empirical_mse - exact) <= 3.0 * result.std_err
    # the all-ones dataset meets the worst-case bound with equality, so the
    # one-sided comparison carries the same 3-sigma sampling slack
    below = result.empirical_mse <= result.bound + 3.0 * result.std_err
    passed = within and below
    _report(
        "3 MSE reproduction",
        passed,
        f"empirical {result.empirical_mse:.4f} vs exact {exact:.4f} "
        f"(se {result.std_err:.4f}, bound {result.bound:.4f})",
    )
    assert passed


def test_criterion_4_communication_reproduction():
    p = geo_success_prob(0.5)
    exact = 0.99 * 35 + 2.0 * geo_mean(p) / 100 + 2.0 * 127.0 / 100
    assert exact == pytest.approx(37.22082988165074, rel=1e-12)
    # flooding emits a +1 and a -1 per draw, hence 2*flood/n in the bound
    bound = 2 * 17 + 1 + 2.0 * 127.0 / 100 + 2.0 * 1.5414940825367982 / 100
    result = measure_comm(REFERENCE, 1, 20_000, RandomSource(2025))
    assert result.exact == pytest.approx(exact, rel=1e-12)
    within = abs(result.empirical_mean - exact) <= 3.0 * result.std_err
    below = result.empirical_mean <= bound
    passed = within and below
    _report(
        "4 communication reproduction",
        passed,
        f"empirical {result.empirical_mean:.4f} vs exact {exact:.4f} "
        f"(se {result.std_err:.4f}, bound {bound:.4f})",
    )
    assert passed


def test_criterion_5_divisibility():
    p = geo_success_prob(0.5)
    lam = 127.0
    pvalues = []
    for n in (10, 100):
        shares = sample_nb(1.0 / n, p, RandomSource(510 + n), size=(200_000, n))
        nb_result = gof_integer_samples(
            shares.sum(axis=1), lambda k: geo_logpmf(p, k)
        )
        shares = sample_poi(lam / n, RandomSource(520 + n), size=(100_000, n))
        poi_result = gof_integer_samples(
            shares.sum(axis=1), lambda k: poi_logpmf(lam, k)
        )
        pvalues += [nb_result.pvalue, poi_result.pvalue]
    passed = all(pv >= 1e-3 for pv in pvalues)
    _report(
        "5 divisibility",
        passed,
        "p-values " + ", ".join(f"{pv:.3f}" for pv in pvalues),
    )
    assert passed


def test_criterion_6_oracle_cross_validation():
    params = ProtocolParams(
        n_users=3, epsilon=1.0, noise_epsilon=0.5,
        drop_prob=0.01, pad_count=17, flood_mean=127.0,
    )
    ds = DatasetSummary(zeros=2, ones=1)
    result = crossvalidate_views(ds, params, 1_000_000, RandomSource(606))
    i_max, j_max = _grid_bounds(params, 3, 1e-12)
    mass = math.exp(logsumexp(view_logpmf_grid(ds, params, i_max, j_max)))
    passed = result.pvalue >= 1e-3 and mass >= 1.0 - 1e-9
    _report(
        "6 oracle cross-validation",
        passed,
        f"chi2 p={result.pvalue:.4f} over {result.cells} cells, "
        f"grid mass {mass:.12f}",
    )
    assert passed


def test_criterion_7_real_summation():
    n, eps, slack, n_bits, trials = 1000, 1.0, 0.5, 10, 1000
    budgets = split_budget(eps, n_bits)
    budget_total = math.fsum(budgets)
    budget_ok = budget_total <= eps and abs(budget_total - eps) <= 1e-12

    instances = real_sum_params(eps, slack, n_bits, n)
    weights = bit_weights(n_bits)
    # per-bit estimator variance at the data-independent worst case (all ones)
    var_terms = [
        dlap_variance(inst.noise_epsilon)
        + n * inst.drop_prob * (1.0 - inst.drop_prob)
        + (n * inst.drop_prob) ** 2
        for inst in instances
    ]
    bound = math.sqrt(
        float(weights**2 @ np.asarray(var_terms)) + n * 4.0 ** (-n_bits)
    )

    xs = RandomSource(707).generator.random(n)
    estimates = real_sum_trials(
        xs, eps, slack, n_bits, trials, RandomSource(708), fidelity="counts"
    )
    sq_err = (estimates - xs.sum()) ** 2
    rmse = math.sqrt(sq_err.mean())
    se_mse = sq_err.std(ddof=1) / math.sqrt(trials)
    se_rmse = se_mse / (2.0 * rmse)
    passed = budget_ok and rmse <= bound + 3.0 * se_rmse
    _report(
        "7 real summation",
        passed,
        f"rmse {rmse:.4f} <= bound {bound:.4f} + 3se {3 * se_rmse:.4f}; "
        f"budget total {budget_total!r} <= {eps}",
    )
    assert passed


def test_criterion_8_histogram():
    n, buckets, eps, slack, trials = 500, 8, 1.0, 0.5, 200
    xs = [i % buckets for i in range(n)]
    true_counts = np.bincount(xs, minlength=buckets)

    estimates = histogram_trials(
        xs, buckets, eps, slack, trials, RandomSource(808), fidelity="counts"
    )
    inst = minimal_params(
        eps / 2.0,
        eps / 2.0 - 0.01 * slack * (eps / 2.0),
        0.1 * slack * dlap_variance(eps / 2.0) / n,
        n,
    )
    # the in-test derivation must agree with the composition's own choice
    from shufflecount.composition import histogram_params

    derived = histogram_params(eps, slack, n).to_dict() | {"slack": None}
    assert inst.to_dict() | {"slack": None} == derived
    per_bucket_ok = True
    for b in range(buckets):
        h = true_counts[b]
        law = (
            dlap_variance(inst.noise_epsilon)
            + h * inst.drop_prob * (1.0 - inst.drop_prob)
            + (h * inst.drop_prob) ** 2
        )
        sq = (estimates[:, b] - h).astype(np.float64) ** 2
        se = sq.std(ddof=1) / math.sqrt(trials)
        per_bucket_ok = per_bucket_ok and abs(sq.mean() - law) <= 3.0 * se

    linf = np.abs(estimates - true_counts).max(axis=1).astype(np.float64)

    direct = np.empty((trials, buckets), dtype=np.int64)
    for b in range(buckets):
        h = int(true_counts[b])
        direct[:, b] = estimate_trials(h, inst, trials, RandomSource(809, b), fidelity="counts")
    linf_direct = np.abs(direct - true_counts).max(axis=1).astype(np.float64)

    se_joint = math.sqrt(
        linf.var(ddof=1) / trials + linf_direct.var(ddof=1) / trials
    )
    linf_ok = abs(linf.mean() - linf_direct.mean()) <= 3.0 * se_joint
    passed = per_bucket_ok and linf_ok
    _report(
        "8 histogram",
        passed,
        f"mean linf {linf.mean():.3f} vs direct {linf_direct.mean():.3f} "
        f"(3se {3 * se_joint:.3f}); per-bucket MSE within 3se: {per_bucket_ok}",
    )
    assert passed


def test_criterion_9_determinism_and_shuffle_invariance(tmp_path):
    blobs = []
    for threads in ("1", "4"):
        path = tmp_path / f"mse-threads-{threads}.json"
        code = cli_main([
            "audit", "mse", "--n", "20", "--trials", "1000", "--seed", "42",
            "--fidelity", "message", "--threads", threads, "--out", str(path),
        ])
        assert code == 0
        blobs.append(path.read_bytes())
    bytes_ok = blobs[0] == blobs[1]
    report = json.loads(blobs[0])
    assert report["params"]["n_users"] == 20

    gen = np.random.default_rng(909)
    invariant = True
    for case in range(1000):
        plus, minus = map(int, gen.integers(0, 300, size=2))
        msgs = np.repeat(np.array([1, -1], dtype=np.int8), [plus, minus])
        baseline = analyze(view_of(msgs))
        permuted = np.random.default_rng(case).permutation(msgs)
        invariant = invariant and analyze(view_of(permuted)) == baseline

    passed = bytes_ok and invariant
    _report(
        "9 determinism and shuffle invariance",
        passed,
        f"byte-identical across threads: {bytes_ok}; "
        f"1000 permutation cases invariant: {invariant}",
    )
    assert passed
