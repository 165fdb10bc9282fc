import contextlib
import errno
import importlib.util
import io
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflecount import cli
from shufflecount.cli import (
    SEED_ENV_VAR,
    _int_list,
    _parse_args,
    _parse_plain,
    _parsers,
    _read_values,
    build_parser,
    main,
)
from shufflecount.dist import RandomSource
from shufflecount.errors import ParameterError

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

    @pytest.mark.parametrize("value", ["abc", "1e3"])
    def test_non_integer_env_seed_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv(SEED_ENV_VAR, value)
        code, _, err = run_cli(capsys, "run", "count", "--ones", "2", "--zeros", "1")
        assert code == 2
        assert "invalid parameters" in err and SEED_ENV_VAR in err


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

    @pytest.mark.parametrize("given", ["--ones", "--zeros"])
    def test_one_count_alone_takes_the_other_as_zero(self, capsys, given):
        code, out, _ = run_cli(capsys, "run", "count", given, "5", "--seed", "1")
        assert code == 0
        assert json.loads(out)["inputs"] == {"n": 5, "ones": 5 if given == "--ones" else 0}

    def test_no_counts_and_no_file_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "run", "count", "--seed", "1")
        assert (code, out) == (2, "")
        assert "pass --ones/--zeros or --input-file" in err

    @pytest.mark.parametrize("ones,zeros", [("-2", "5"), ("3", "-1")])
    def test_negative_counts_exit_2(self, capsys, ones, zeros):
        code, out, err = run_cli(
            capsys, "run", "count", "--ones", ones, "--zeros", zeros,
            "--eps", "1", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "must be an integer in [0, inf]" in err

    def test_non_integer_input_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text("1\n0.5\n0\n")
        code, out, err = run_cli(
            capsys, "run", "count", "--input-file", str(path), "--eps", "1", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert "'0.5'" in err

    def test_non_bit_input_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text("1\n2\n0\n")
        code, out, err = run_cli(
            capsys, "run", "count", "--input-file", str(path), "--eps", "1", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert "invalid parameters" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "count", "--ones", "3", "--zeros", "2",
            "--eps", "2", "--seed", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "user,input,messages"
        assert len(lines) == 6
        # the rows are the per-user counts of the JSON report's run
        _, out, _ = run_cli(
            capsys, "run", "count", "--ones", "3", "--zeros", "2", "--eps", "2", "--seed", "5",
        )
        messages = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(messages) == json.loads(out)["messages_per_user"]["total"]

    def test_per_user_path_stays_in_arrays(self, capsys):
        # a uint8 array of inputs and an int64 array of per-user counts: a
        # list of Python ints for the inputs and a tuple of them for the
        # counts would trace about 105 bytes per user
        users = 1_000_000
        tracemalloc.start()
        try:
            code, _, _ = run_cli(
                capsys, "run", "count", "--ones", "500000", "--zeros", "500000", "--seed", "1",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 72 * users


class TestRunRealsum:
    def test_single_bit_reduces_to_counting_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "realsum", "--uniform", "60", "--bits", "1",
            "--eps", "1", "--seed", "9", "--fidelity", "counts",
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

    def test_true_sum_adds_in_input_order(self, capsys):
        # the report's sum is Python's left-to-right one over the drawn inputs
        code, out, _ = run_cli(
            capsys, "run", "realsum", "--uniform", "100000", "--bits", "3",
            "--seed", "9", "--fidelity", "counts",
        )
        assert code == 0
        xs = RandomSource(9).substream(9).generator.random(100_000)
        assert json.loads(out)["true_sum"] == sum(xs.tolist())

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


def _read_line_by_line(path, cast):
    """The reader before the one-pass parse: strip, skip blank lines, cast each."""
    values = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            try:
                values.append(cast(line))
            except ValueError:
                raise ParameterError(f"{path}: cannot read {line!r} as {cast.__name__}") from None
    return np.asarray(values)


@pytest.mark.parametrize(
    "text",
    [
        "1\n0\n1\n",
        "1\r\n0\r\n1",
        "\n 1 \r\n\t0\t\n\n   \n1\n",
        "\n1\n\n0\r\n\r\n1\r\r0\n\n\n",
        " \t\n\x0b1\n0\n  \n\t\r\n",
        " \r\n\t\n",
        "",
        "0.5\n1e-3\n 1 \n",
        "1\n12345678901234567890123\n0\n",
        "-1\n9223372036854775808\n",
        "1\n0\n 7x \n1\nzz\n",
        "nan\ninf\n1_0\n",
        # separators that str.splitlines knows and bytes.splitlines does not
        "1\x0b0\x0c1\n",
        "1\x0b\n0\x0c\n",
        "1\x1c0\x1d1\x1e0\n",
        "1\x850\u20281\u20290\n",
        # non-ASCII digits and spaces, a byte-order mark
        "\u0661\n\u00a00\u3000\n",
        "\ufeff1\n0\n",
    ],
)
@pytest.mark.parametrize("cast", [int, float])
def test_reader_matches_line_by_line_loop(tmp_path, text, cast):
    path = tmp_path / "values.txt"
    path.write_bytes(text.encode())
    try:
        expected = _read_line_by_line(path, cast)
    except ParameterError as exc:
        with pytest.raises(ParameterError) as got:
            _read_values(str(path), cast)
        assert str(got.value) == str(exc)
        return
    got = _read_values(str(path), cast)
    assert got.dtype == expected.dtype or not expected.size  # an empty file is rejected
    np.testing.assert_array_equal(got, expected)



@pytest.mark.parametrize("blank", ["  ", "\t", " \t \x0b"], ids=["spaces", "tab", "mixed"])
@pytest.mark.parametrize("cast", [int, float])
def test_whitespace_only_lines_stay_out_of_the_line_loop(tmp_path, monkeypatch, blank, cast):
    # the second C-speed pass leaves whitespace-only lines out, so a clean
    # file with such lines between its values never reaches the loop
    path = tmp_path / "values.txt"
    path.write_bytes(f"1\n{blank}\n0\r\n 1\t\n{blank}\n0\n".encode())
    expected = _read_line_by_line(path, cast)

    def loop(*args):
        raise AssertionError("the line-by-line loop ran")

    monkeypatch.setattr(cli, "_read_lines", loop)
    got = _read_values(str(path), cast)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


#: each run command reading an --input-file, and the lines of a valid file for it
FILE_RUNS = {
    "count": (["run", "count", "--eps", "2"], ["1", "0", "1", "1", "0"] * 8),
    "realsum": (
        ["run", "realsum", "--bits", "2", "--eps", "2"],
        ["0.25", "0.5", "1.0", "0", "0.75"] * 8,
    ),
    "histogram": (
        ["run", "histogram", "--buckets", "3", "--eps", "2"],
        ["0", "2", "1", "1", "0"] * 8,
    ),
}


def _run_file(capsys, tmp_path, command, text):
    path = tmp_path / "inputs.txt"
    path.write_bytes(text.encode())
    return run_cli(capsys, *FILE_RUNS[command][0], "--input-file", str(path), "--seed", "3")


@pytest.mark.parametrize("command", FILE_RUNS)
@pytest.mark.parametrize("blank_lines", [False, True])
def test_file_layout_reads_as_plain_lines(tmp_path, capsys, command, blank_lines):
    # CRLF endings and padded values (and blank or whitespace-only lines) give
    # the report of a file of bare values, one per LF-ended line
    lines = FILE_RUNS[command][1]
    plain = _run_file(capsys, tmp_path, command, "".join(f"{v}\n" for v in lines))
    padded = [f" {v}\t" for v in lines]
    if blank_lines:
        padded[3:3] = ["", "   ", "\t"]
    assert plain[0] == 0
    assert _run_file(capsys, tmp_path, command, "\r\n".join(padded)) == plain


@pytest.mark.parametrize("command", FILE_RUNS)
@pytest.mark.parametrize(
    "text, message",
    [
        ("1\n12345678901234567890123\n0\n", "xs must be"),
        ("1\n0\n 7x \n1\nzz\n", "cannot read '7x' as "),
        ("", ""),
        (" \r\n\t\n", ""),
    ],
    ids=["23-digit-line", "bad-middle-line", "empty", "blank-lines-only"],
)
def test_unusable_file_exits_2(tmp_path, capsys, command, text, message):
    code, out, err = _run_file(capsys, tmp_path, command, text)
    assert (code, out) == (2, "")
    assert err.startswith("invalid parameters: ") and message in err
    assert "zz" not in err


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "out-in-missing-dir"])
def test_file_errors_exit_2_naming_the_file(tmp_path, capsys, case):
    # exit 1 means a failed audit: a file that cannot be read or written is a usage error
    (tmp_path / "latin1.txt").write_bytes("1\n0\né\n".encode("latin-1"))
    path, message = {
        "missing": (tmp_path / "missing.txt", "cannot read: No such file or directory"),
        "directory": (tmp_path, "cannot read: Is a directory"),
        "not-utf8": (tmp_path / "latin1.txt", "not UTF-8 text at byte 4"),
        "out-in-missing-dir": (
            tmp_path / "missing" / "report.json", "cannot write: No such file or directory"
        ),
    }[case]
    if case == "out-in-missing-dir":
        source = ["--ones", "3", "--zeros", "2", "--out", str(path)]
    else:
        source = ["--input-file", str(path)]
    code, out, err = run_cli(capsys, "run", "count", "--eps", "2", *source, "--seed", "1")
    assert (code, out) == (2, "")
    assert err == f"invalid parameters: {path}: {message}\n"


@pytest.mark.parametrize("chunk", [cli.READ_CHUNK, 7], ids=["read-chunk", "7-bytes"])
@pytest.mark.parametrize("cast", [int, float])
def test_file_beyond_one_read_chunk_reads_whole(tmp_path, monkeypatch, chunk, cast):
    # several os.read calls, with chunk ends inside lines and CRLF pairs
    lines = [f" {i * 7 % 10 // 5}\t" for i in range(cli.READ_CHUNK // 2)]
    path = tmp_path / "values.txt"
    path.write_bytes("\r\n".join(lines).encode())
    assert path.stat().st_size > 2 * cli.READ_CHUNK
    monkeypatch.setattr(cli, "READ_CHUNK", chunk)
    expected = _read_line_by_line(path, cast)
    got = _read_values(str(path), cast)
    assert got.dtype == expected.dtype and got.size == len(lines)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize(
    "out, error",
    [("missing/r.json", errno.ENOENT), ("file.txt/r.json", errno.ENOTDIR), ("", errno.EISDIR)],
    ids=["missing-dir", "file-as-dir", "directory"],
)
def test_out_is_checked_before_the_run(tmp_path, capsys, monkeypatch, out, error):
    # the write's own error line, before any parameter is derived or draw made
    def called(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("derive_params", "run_counting", "RandomSource"):
        monkeypatch.setattr(cli, name, called)
    (tmp_path / "file.txt").write_text("")
    path = tmp_path / out  # "" names tmp_path itself
    code, out, err = run_cli(
        capsys, "run", "count", "--ones", "3", "--zeros", "2", "--eps", "2",
        "--out", str(path), "--seed", "1",
    )
    assert (code, out) == (2, "")
    assert err == f"invalid parameters: {path}: cannot write: {os.strerror(error)}\n"


def _dumps(obj) -> str:
    """The report writer's text of ``obj``."""
    parts: list[str] = []
    cli._write_json(obj, "\n", parts)
    return "".join(parts)


#: JSON values as reports hold them, np.float64 leaves and tuples included
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats().map(np.float64)
    | st.text()
    | st.sampled_from(["", "\x00\x1f\x7f", "é\u2028\U0001f600", "\ud800", '"\\/\b']),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_report_writer_matches_indented_json_dumps(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [{}, [], (), {"b": [], "a": {}}, [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]],
)
def test_report_writer_edge_values(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value", [np.int64(1), np.bool_(True), {1, 2}, b"1", object()],
    ids=["int64", "bool_", "set", "bytes", "object"],
)
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1, v], lambda v: {"a": {"b": v}}],
                         ids=["bare", "in-list", "in-dict"])
def test_report_writer_rejects_what_json_dumps_rejects(value, wrap):
    with pytest.raises(TypeError):
        json.dumps(wrap(value), indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _dumps(wrap(value))


def test_report_writer_takes_only_str_keys():
    # json.dumps would write 1 as "1"; no report has a key that is not a str
    with pytest.raises(TypeError):
        _dumps({1: 2})


def test_json_reports_never_reach_the_json_encoder(tmp_path, capsys, monkeypatch):
    # the indented json.dumps runs the pure-Python encoder; every JSON report
    # comes from cli._write_json, to stdout or to --out
    def refuse(*args, **kwargs):
        raise AssertionError("the json module encoded a report")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    ref = ["--eps", "1", "--eps-prime", "0.5", "--q", "0.01", "--s", "17", "--lam", "127"]
    calls = [
        ["params", "--eps", "1", "--n", "100"],
        ["run", "count", "--ones", "3", "--zeros", "2", "--eps", "2", "--seed", "1"],
        ["run", "realsum", "--uniform", "20", "--bits", "2", "--eps", "2", "--seed", "1"],
        ["run", "histogram", "--buckets", "2", "--uniform", "20", "--eps", "2", "--seed", "1"],
        ["audit", "lemmas", *ref, "--n", "3"],
        ["audit", "divergence", *ref, "--n", "3"],
        ["audit", "mse", *ref, "--n", "20", "--trials", "1000", "--seed", "1"],
        ["audit", "comm", *ref, "--n", "20", "--trials", "1000", "--seed", "1"],
        ["bench", "--n-list", "100", "--trials", "1000", "--seed", "1"],
    ]
    for argv in calls:
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1) and not err, argv
        path = tmp_path / "report.json"
        assert run_cli(capsys, *argv, "--out", str(path)) == (code, "", "")
        assert path.read_text() == out and json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--n-list", "100", "--trials", "0"],
        ["bench", "--n-list", "100", "--trials", "-5"],
        ["bench", "--n-list", ",", "--format", "csv"],
        ["audit", "lemmas", "--i-max", "-1"],
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
        # 1 - e^-38 rounds to 1: no geometric tail is left to size the grid by
        ["audit", "divergence", "--eps", "1", "--eps-prime", "38", "--q", "0.01",
         "--s", "17", "--lam", "127", "--n", "1"],
        ["audit", "lemmas", "--eps", "nan"],
        ["audit", "lemmas", "--lam", "inf"],
    ],
)
def test_out_of_range_option_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "1")
    assert code == 2
    assert out == ""
    assert "invalid parameters" in err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["run", "realsum", "--uniform", "10", "--bits", "0"], "n_bits must be"),
        (["audit", "mse", "--n", "10", "--ones", "11"], "--ones must be"),
        (["audit", "mse", "--n", "10", "--ones", "-1"], "--ones must be"),
    ],
)
def test_errors_name_the_option_passed(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--seed", "1")
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["run", "realsum", "--uniform", "100", "--bits", "3", "--eps", "20"],
         "epsilon=20.0 gives bit 0 a split budget of 9.868, above the 8.0"),
        (["run", "histogram", "--buckets", "8", "--uniform", "100", "--eps", "20"],
         "epsilon=20.0 gives each bucket's instance epsilon/2 = 10.0, above the 8.0"),
    ],
    ids=["realsum", "histogram"],
)
def test_over_limit_budget_names_the_budget_passed_and_the_instance(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--seed", "1")
    assert (code, out) == (2, "")
    assert message in err
    # budgets at the limit still run: 16 for a histogram, 16.2 for 3 bits (bit 0 at 7.99)
    argv[argv.index("--eps") + 1] = "16" if "histogram" in argv else "16.2"
    assert run_cli(capsys, *argv, "--fidelity", "counts", "--seed", "1")[0] == 0


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


def load_workloads():
    """The benchmark's workload module, loaded from its file (read-only)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_mc_cases_pass_both_audits(capsys):
    # the benchmark's mc-trials ops run these cases' audits and count one
    # that does not pass as a failed op; a change of the Monte Carlo streams
    # must keep every case passing
    workloads = load_workloads()
    mc = workloads.MonteCarloTrials
    failing = []
    for index in workloads.MC_CASES:
        for argv in mc.audits(*mc.case(index)):
            code, out, _ = run_cli(capsys, *argv)
            if code != 0 or json.loads(out)["pass"] is not True:
                failing.append((index, argv[argv.index("--fidelity") + 1]))
    assert failing == []


LEAF_CALLS = [
    ["params", "--eps", "1", "--n", "100"],
    ["run", "count", "--ones", "3", "--zeros", "2", "--seed", "1"],
    ["run", "realsum", "--uniform", "10", "--bits", "1", "--eps", "2",
     "--fidelity", "counts", "--seed", "1"],
    ["run", "histogram", "--buckets", "2", "--uniform", "10", "--eps", "2",
     "--fidelity", "counts", "--seed", "1"],
    ["audit", "lemmas", "--n", "3"],
    ["audit", "divergence", "--n", "3"],
    ["audit", "mse", "--n", "10", "--trials", "1000", "--fidelity", "counts", "--seed", "1"],
    ["audit", "comm", "--n", "10", "--trials", "1000", "--seed", "1"],
    ["bench", "--n-list", "100", "--trials", "1000", "--seed", "1"],
    ["bench", "--n-list", "100", "--trials", "100", "--timing", "--seed", "1"],
]


def test_valid_leaf_calls_skip_the_full_parser(capsys, monkeypatch, tmp_path):
    # plain calls, the benchmark's ops among them, are parsed in one pass
    # without argparse: neither the full parser nor a leaf parser is reached
    def argparse_parse(*args, **kwargs):
        raise AssertionError("argparse was reached")

    parser, leaves = _parsers()
    for p in (parser, *leaves.values()):
        monkeypatch.setattr(p, "parse_known_args", argparse_parse)
    workloads = load_workloads()
    ops = [
        argv
        for workload in workloads.WORKLOADS.values()
        for argv in workload(1, tmp_path).calls(0)
    ]
    for argv in LEAF_CALLS + ops:
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1) and out and not err, argv


def typed(args):
    """A namespace's values with their types, so that ``True`` differs from ``1``."""
    return {k: (type(v), v) for k, v in vars(args).items()}


def parse_outcome(parse, argv):
    """``parse(argv)``'s namespace (without the command words), exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = parse(argv), None
        except SystemExit as exc:
            args, code = None, exc.code
    if args is not None:
        args = {k: v for k, v in typed(args).items() if k not in ("command", "mode")}
    return args, code, out.getvalue(), err.getvalue()


LEAF_WORDS = sorted(_parsers()[1])
# values by option type: ones that convert, ones that do not
GOOD_VALUES = {
    int: st.integers(0, 10**6).map(str),
    float: st.floats(0, 1e6).map(repr) | st.sampled_from(["1", "0.5", "inf", "1e3"]),
    None: st.sampled_from(["out.json", "a b", "x=1", "@f", ""]),
    _int_list: st.lists(st.integers(0, 10**5), min_size=1, max_size=3).map(
        lambda ns: ",".join(map(str, ns))
    ),
}
BAD_VALUES = st.sampled_from(["x", "1.5x", "", " ", "1,,x", "0x10", "nan?"])
SHADY_VALUES = st.sampled_from(["-1", "-0.5", "--", "-h", "--seed", "--eps", "-x"])


@st.composite
def leaf_argv(draw, words):
    """Arguments after ``words`` built from that leaf's own actions."""
    leaf = _parsers()[1][words]
    actions = [a for a in leaf._actions if a.dest != "help"]

    def good(action):
        if action.choices is not None:
            return st.sampled_from([str(c) for c in action.choices])
        return GOOD_VALUES[action.type]

    def piece(action):
        option = action.option_strings[0]
        if action.nargs == 0:  # store_true
            kinds = ["flag", "flag", "joined", "abbrev"]
        else:
            kinds = ["plain"] * 6 + ["bad", "joined", "abbrev", "shady", "missing"]
        kind = draw(st.sampled_from(kinds))
        value = draw(good(action)) if action.nargs != 0 else "1"
        if kind == "flag":
            return [option]
        if kind == "plain":
            return [option, value]
        if kind == "bad":
            return [option, draw(BAD_VALUES)]
        if kind == "joined":
            return [f"{option}={value}"]
        if kind == "abbrev":
            return [option[: draw(st.integers(3, len(option)))], value]
        if kind == "shady":
            return [option, draw(SHADY_VALUES)]
        return [option]  # missing value

    pieces = []
    if draw(st.booleans()):  # every required option, plainly
        pieces += [[a.option_strings[0], draw(good(a))] for a in actions if a.required]
    for action in draw(st.lists(st.sampled_from(actions), max_size=8)):
        pieces.append(piece(action))
    if draw(st.integers(0, 9)) == 0:
        pieces.append(draw(st.sampled_from([["extra"], ["-h"], ["--version"], ["--"]])))
    pieces = draw(st.permutations(pieces))
    return [token for p in pieces for token in p]


@pytest.mark.parametrize("words", LEAF_WORDS, ids="-".join)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_pass_parse_matches_argparse(words, data):
    # a call the one-pass parse takes gets the leaf parser's namespace; any
    # other gets the full parser's namespace, or its exit code and output
    argv = data.draw(leaf_argv(words))
    leaf = _parsers()[1][words]
    taken = _parse_plain(leaf, argv)
    if taken is not None:
        args, extra = leaf.parse_known_args(argv)
        assert (typed(args), extra) == (typed(taken), [])
        assert typed(_parse_args([*words, *argv])) == typed(taken)
    else:
        full = parse_outcome(build_parser().parse_args, [*words, *argv])
        assert parse_outcome(_parse_args, [*words, *argv]) == full


@pytest.mark.parametrize(
    "argv",
    [
        ["params", "--eps", "1", "--frobnicate"],  # unknown flag
        ["run", "count", "--ones", "x", "--seed", "1"],  # bad int
        ["audit", "divergence", "--grid-cap", "1.5"],  # bad int
        ["run", "realsum", "--fidelity", "exact"],  # bad choice
        ["params", "--n", "3"],  # missing required flag
        [],  # missing subcommand
        ["run"],  # missing mode
        ["runn", "count"],  # typo
        ["run", "count", "--ones", "3", "extra"],  # leftover positional
        ["run", "count", "--version"],  # top-level flag after the words
        ["-h"],
        ["run", "-h"],
        ["audit", "-h"],
        ["params", "-h"],
        ["run", "count", "-h"],
        ["audit", "divergence", "-h"],
        ["--version"],
    ],
)
def test_usage_errors_and_help_match_the_full_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    expected = (2 if exc.value.code else 0, *capsys.readouterr())
    assert run_cli(capsys, *argv) == expected
