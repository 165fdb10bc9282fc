import importlib.util
import json
from pathlib import Path

import pytest

from shufflecount.cli import SEED_ENV_VAR, main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def test_derive_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "params", "--eps", "1", "--rho", "0.5", "--n", "1000"
        )
        assert code == 0
        report = json.loads(out)
        assert report["params"]["noise_epsilon"] == pytest.approx(0.995)
        assert report["params"]["pad_count"] == 3501
        assert report["ok"] is True

    def test_degenerate_input_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "params", "--eps", "0.0001", "--n", "10")
        assert code == 2
        assert "zero" in err

    def test_slack_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "params", "--eps", "1", "--rho", "0.6", "--n", "100"
        )
        assert code == 2
        assert "slack" in err

    def test_check_mode_reports_clause_names(self, capsys):
        code, out, _ = run_cli(
            capsys, "params", "--eps", "1", "--n", "100",
            "--eps-prime", "0.5", "--q", "0.01", "--s", "16", "--lam", "127",
        )
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert "pad_count" in report["violations"]

    def test_check_mode_accepts_feasible_set(self, capsys):
        code, out, _ = run_cli(
            capsys, "params", "--eps", "1", "--n", "100",
            "--eps-prime", "0.5", "--q", "0.01",
        )
        assert code == 0
        report = json.loads(out)
        assert report["params"]["pad_count"] == 17
        assert report["params"]["flood_mean"] == 127.0

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "params", "--eps", "1", "--frobnicate")
        assert code == 2


class TestSeedHandling:
    def test_seed_required(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code, _, err = run_cli(capsys, "run", "count", "--ones", "5")
        assert code == 2
        assert "seed" in err

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        code, out, _ = run_cli(
            capsys, "run", "count", "--ones", "5", "--zeros", "5",
            "--eps", "2", "--rho", "0.5",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 77


class TestRunCount:
    def test_deterministic_report_bytes(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for path in (out_a, out_b):
            code, _, _ = run_cli(
                capsys, "run", "count", "--ones", "20", "--zeros", "30",
                "--eps", "2", "--seed", "5", "--out", str(path),
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_report_contents(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "count", "--ones", "20", "--zeros", "30",
            "--eps", "2", "--seed", "5",
        )
        assert code == 0
        report = json.loads(out)
        assert report["true_value"] == 20
        assert report["inputs"]["n"] == 50
        assert report["params"]["n_users"] == 50
        assert report["error"] == report["estimate"] - 20

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text("1\n0\n1\n\n1\n" * 10)
        code, out, _ = run_cli(
            capsys, "run", "count", "--input-file", str(path),
            "--eps", "2", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["true_value"] == 30

    @pytest.mark.parametrize("ones,zeros", [("-2", "5"), ("3", "-1")])
    def test_negative_counts_exit_2(self, capsys, ones, zeros):
        code, out, err = run_cli(
            capsys, "run", "count", "--ones", ones, "--zeros", zeros,
            "--eps", "1", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "non-negative" in err

    def test_non_integer_input_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text("1\n0.5\n0\n")
        code, out, err = run_cli(
            capsys, "run", "count", "--input-file", str(path), "--eps", "1", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert "'0.5'" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "count", "--ones", "3", "--zeros", "2",
            "--eps", "2", "--seed", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "user,input,messages"
        assert len(lines) == 6


class TestRunRealsum:
    def test_single_bit_reduces_to_counting_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "realsum", "--uniform", "60", "--bits", "1",
            "--eps", "1", "--seed", "9", "--fidelity", "law",
        )
        assert code == 0
        report = json.loads(out)
        assert report["bit_budgets"] == [1.0]
        assert report["budget_total"] <= 1.0
        assert report["instances"][0]["epsilon"] == 1.0

    def test_message_level_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "realsum", "--uniform", "8", "--bits", "2",
            "--eps", "4", "--seed", "9",
        )
        assert code == 0
        report = json.loads(out)
        assert report["total_messages"] > 0
        assert report["budget_total"] <= 4.0

    @pytest.mark.parametrize("inputs", [["--input-file", "{file}"], ["--uniform", "-1"]])
    def test_no_inputs_exit_2(self, tmp_path, capsys, inputs):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        inputs = [a.format(file=empty) for a in inputs]
        code, out, err = run_cli(capsys, "run", "realsum", *inputs, "--eps", "1", "--seed", "1")
        assert (code, out) == (2, "")
        assert "invalid parameters" in err


class TestRunHistogram:
    @pytest.mark.parametrize(
        "inputs", [["--uniform", "5", "--buckets", "0"], ["--input-file", "{file}", "--buckets", "2"]]
    )
    def test_malformed_inputs_exit_2(self, tmp_path, capsys, inputs):
        half = tmp_path / "half.txt"
        half.write_text("1\n0.5\n")
        inputs = [a.format(file=half) for a in inputs]
        code, out, err = run_cli(capsys, "run", "histogram", *inputs, "--eps", "1", "--seed", "1")
        assert (code, out) == (2, "")
        assert "invalid parameters" in err

    def test_counts_fidelity_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "histogram", "--uniform", "120", "--buckets", "4",
            "--eps", "1", "--seed", "4", "--fidelity", "counts",
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["estimates"]) == 4
        assert sum(report["true_counts"]) == 120
        assert report["instance"]["epsilon"] == pytest.approx(0.5)


class TestAudit:
    def test_lemmas_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "lemmas",
            "--eps", "1", "--eps-prime", "0.5", "--q", "0.01",
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["params"]["pad_count"] == 17

    def test_lemmas_huge_geo_range_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "lemmas", "--i-max", "100000000000"
        )
        assert code == 0
        geo = json.loads(out)["geo_ratio"]
        assert (geo["ok"], geo["worst_index"], geo["i_max"]) == (
            True, 1, 100_000_000_000,
        )

    @pytest.mark.parametrize("lam", ["1e9", "1e14"])
    def test_lemmas_huge_flood_mean_reports(self, capsys, lam):
        # the flood range [0, lam + 20 sqrt(lam) + pad] is never materialized
        code, out, _ = run_cli(capsys, "audit", "lemmas", "--lam", lam)
        assert code in (0, 1)
        flood = json.loads(out)["flood_ratio"]
        assert flood["i_max"] >= float(lam)
        assert 0 <= flood["worst_index"] <= flood["i_max"]
        assert (code == 0) == flood["ok"]

    def test_divergence_reference_passes(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "divergence", "--n", "2")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["sup_abs_log_ratio"] <= 1.0 + 1e-6

    def test_divergence_zero_drop_fails_unbounded(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "divergence", "--q", "0")
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["support_mismatch"] is True
        assert report["sup_abs_log_ratio"] == float("inf")

    def test_divergence_tiny_grid_cap_is_inconclusive(self, capsys):
        code, _, err = run_cli(
            capsys, "audit", "divergence", "--n", "3", "--grid-cap", "50"
        )
        assert code == 3
        assert "inconclusive" in err

    def test_mse_counts_fidelity(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "mse", "--n", "100", "--trials", "4000",
            "--seed", "13", "--fidelity", "counts",
        )
        assert code == 0
        report = json.loads(out)
        assert report["exact"] == pytest.approx(9.825396178065526)
        assert report["within_3se_of_exact"] is True

    def test_comm_defaults(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "comm", "--n", "100", "--trials", "5000",
            "--seed", "14",
        )
        assert code == 0
        report = json.loads(out)
        assert report["exact"] == pytest.approx(37.22082988165074)
        assert report["pass"] is True

    def test_mse_thread_count_does_not_change_bytes(self, tmp_path, capsys):
        reports = []
        for threads in ("1", "4"):
            path = tmp_path / f"t{threads}.json"
            code, _, _ = run_cli(
                capsys, "audit", "mse", "--n", "20", "--trials", "1000",
                "--seed", "3", "--fidelity", "message",
                "--threads", threads, "--out", str(path),
            )
            assert code == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_infeasible_explicit_params_rejected_for_runs(self, capsys):
        code, _, err = run_cli(
            capsys, "audit", "mse", "--n", "100", "--trials", "2000",
            "--seed", "0", "--s", "1", "--lam", "127",
        )
        assert code == 2
        assert "clauses" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--n-list", "100", "--trials", "0"],
        ["bench", "--n-list", "100", "--trials", "-5"],
        ["bench", "--n-list", ",", "--format", "csv"],
        ["audit", "lemmas", "--i-max", "-1"],
        ["audit", "divergence", "--floor", "0"],
        ["audit", "divergence", "--floor", "2"],
        ["audit", "divergence", "--coverage", "1"],
        ["audit", "mse", "--n", "20", "--trials", "1000", "--fidelity", "counts",
         "--threads", "0"],
        ["audit", "mse", "--n", "20", "--trials", "1000", "--fidelity", "counts",
         "--threads", "-3"],
        ["audit", "divergence", "--tolerance", "inf"],
        ["audit", "divergence", "--tolerance", "nan"],
        ["audit", "divergence", "--tolerance=-1e-9"],
        ["audit", "divergence", "--grid-cap", "-5"],
        ["audit", "divergence", "--grid-cap", "0"],
        ["audit", "divergence", "--n", "3", "--eps", "nan"],
        ["audit", "divergence", "--n", "3", "--eps", "inf"],
        ["audit", "divergence", "--n", "3", "--lam", "inf"],
        ["audit", "lemmas", "--eps", "nan"],
        ["audit", "lemmas", "--lam", "inf"],
    ],
)
def test_out_of_range_option_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "1")
    assert code == 2
    assert out == ""
    assert "invalid parameters" in err


class TestBench:
    def test_deterministic_without_timing(self, tmp_path, capsys):
        blobs = []
        for name in ("x.json", "y.json"):
            path = tmp_path / name
            code, _, _ = run_cli(
                capsys, "bench", "--n-list", "100,1000", "--trials", "2000",
                "--seed", "8", "--out", str(path),
            )
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_timing_flag_adds_wall_field(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--n-list", "100", "--trials", "2000",
            "--seed", "8", "--timing",
        )
        assert code == 0
        assert "wall_ms" in json.loads(out)["rows"][0]


def test_usage_error_leaves_the_next_call_intact(capsys):
    # the parser is built once per process and reused after argparse exits
    argv = ["run", "count", "--ones", "3", "--zeros", "2", "--seed", "1"]
    code, before, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, err = run_cli(capsys, "run", "count", "--ones", "x", "--seed", "1")
    assert (code, out) == (2, "")
    assert "invalid int value" in err
    code, after, _ = run_cli(capsys, *argv)
    assert code == 0
    assert after == before


def test_benchmark_mc_cases_pass_both_audits(capsys):
    # the benchmark's mc-trials ops run these cases' audits and count one
    # that does not pass as a failed op; a change of the Monte Carlo streams
    # must keep every case passing
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    mc = workloads.MonteCarloTrials
    failing = []
    for index in workloads.MC_CASES:
        for argv in mc.audits(*mc.case(index)):
            code, out, _ = run_cli(capsys, *argv)
            if code != 0 or json.loads(out)["pass"] is not True:
                failing.append((index, argv[argv.index("--fidelity") + 1]))
    assert failing == []
