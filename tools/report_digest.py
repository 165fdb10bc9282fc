"""Print the golden digest of every CLI report over a fixed list of calls.

The output is ``tests/golden/report_digest.txt``, which the tier-1
``tests/test_report_digest.py`` compares with the working tree's reports.
After a change to a report, re-record the file and read its diff::

    PYTHONPATH=src python tools/report_digest.py > tests/golden/report_digest.txt
    git diff --exit-code tests/golden/

The package is imported from ``PYTHONPATH``; every report comes from
``shufflecount.cli.main`` in this process. The list covers ``run count``
(as JSON and as the per-user CSV), ``run realsum`` and ``run histogram``
(each at both fidelities, ``message`` and ``counts``, and each reading an
``--input-file`` the way the benchmark passes its inputs), ``audit mse`` at
both fidelities over 5000 trials, ``audit comm`` and ``bench``, each at
seeds 1, 7 and 9001; ``params`` in derive and check mode, ``audit lemmas``
and ``audit divergence`` on the reference set (``--n 3`` and ``--n 20``;
the divergence audit also at ``--n 1``, on the failing ``--q 0`` control,
on a failing ``--s 1`` set, on a set whose sup sits at the grid's edge and
on the large-tilt set ``--eps 8 --eps-prime 7.9 --q 0.5 --n 1``),
and these two audits, ``audit mse`` and ``params`` once more as one-row
CSV; ``run histogram --buckets 256 --uniform 100000`` at both fidelities
and ``run count`` over 10**6 users, at seed 1, runs at scale, with ``run
realsum --uniform 100000 --bits 3`` at both fidelities; each run command on
an input file with CRLF endings, padding and blank lines, one with a
23-digit line, one with unreadable lines, and an empty one; both audits of
every vetted mc-trials case of the benchmark (``perfbench/workloads.py``);
``run count``, ``run realsum``, ``run histogram``, ``audit divergence`` and
``audit mse`` writing their JSON reports through ``--out``, and the first two
their CSV reports; calls at the edges of the one-pass parse (an
``=``-joined value, an abbreviated option, a negative count, a repeated
``--seed`` and an option-like value); ``run count --zeros 5`` with no ``--ones``; and usage
errors (an empty input file, negative counts, fidelities that are not one,
a real-sum budget over the per-bit limit and a noise budget whose geometric
tail rounds away among them), help and ``--version``.

Each line is ``<kind>  <sha256>  <exit code>  <floats>  <argv>``; the hash
covers the exit code, stdout, stderr and ``--out`` file of a call, with every
float literal replaced by ``<float>`` (an ``exact`` line has none), and the
floats are listed, comma-separated. Input and output files live in a
temporary directory, shown as ``<tmp>``. Hash and floats fix the output
exactly. The test compares the hash, and with it every draw (an integer
count), exactly, and each float within a relative ``TOLERANCE``, since
numpy's vectorized ``exp`` and ``log`` may differ across CPUs in last bits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

from shufflecount.cli import main

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 7, 9001)
FIDELITIES = ("message", "counts")
REFERENCE = ["--eps", "1", "--eps-prime", "0.5", "--q", "0.01", "--s", "17", "--lam", "127"]
#: a float literal of a JSON or CSV report, or of an error or help text
FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)(?![\w.])")
#: relative tolerance of a golden line's float literals
TOLERANCE = 1e-12
GOLDEN_HEADER = f"""\
# Golden report digest: PYTHONPATH=src python tools/report_digest.py
# <kind>  <sha256>  <exit code>  <floats>  <argv>; exact lines match byte for byte,
# float lines with float literals masked and each within {TOLERANCE} relative."""


def seeded_calls(seed: int) -> list[list[str]]:
    s = ["--seed", str(seed)]
    count = ["run", "count", "--ones", "400", "--zeros", "600", *s]
    calls = [count, [*count, "--format", "csv"]]
    for fidelity in FIDELITIES:
        f = ["--fidelity", fidelity, *s]
        calls += [
            ["run", "realsum", "--uniform", "1000", "--bits", "4", *f],
            ["run", "histogram", "--buckets", "8", "--uniform", "1000", *f],
            # 5000 trials at n = 1000, one batch at every fidelity
            ["audit", "mse", *REFERENCE, "--n", "1000", "--ones", "700", "--trials", "5000", *f],
        ]
    calls += [
        ["audit", "comm", *REFERENCE, "--n", "100", "--trials", "20000", *s],
        ["bench", "--n-list", "100,1000,10000", "--trials", "2000", *s],
    ]
    return calls


def scale_calls() -> list[list[str]]:
    hist = ["run", "histogram", "--buckets", "256", "--uniform", "100000", "--seed", "1"]
    count = ["run", "count", "--ones", "500000", "--zeros", "500000", "--seed", "1"]
    realsum = ["run", "realsum", "--uniform", "100000", "--bits", "3", "--seed", "1"]
    return [[*hist, "--fidelity", fidelity] for fidelity in FIDELITIES] + [count] + [
        [*realsum, "--fidelity", fidelity] for fidelity in FIDELITIES
    ]


def unseeded_calls() -> list[list[str]]:
    calls = [
        ["params", "--eps", "1", "--rho", "0.5", "--n", "1000"],
        ["params", "--eps", "1", "--n", "100", "--eps-prime", "0.5", "--q", "0.01"],
        ["params", *REFERENCE, "--n", "100"],
        ["params", "--eps", "1", "--n", "100", "--eps-prime", "0.5", "--q", "0.01",
         "--s", "16", "--lam", "127"],
    ]
    for n in ("3", "20"):
        calls += [
            ["audit", "lemmas", *REFERENCE, "--n", n],
            ["audit", "divergence", *REFERENCE, "--n", n],
        ]
    no_drops = ["--eps", "1", "--eps-prime", "0.5", "--q", "0"]
    lam = ["--eps", "1", "--eps-prime", "0.5", "--lam", "127"]
    return calls + [
        ["audit", "divergence", *no_drops, "--n", "3"],
        ["audit", "divergence", *REFERENCE, "--n", "1"],
        # a failing set with a finite sup, and a pass whose sup sits at the grid's edge
        ["audit", "divergence", *lam, "--q", "0.01", "--s", "1", "--n", "3"],
        ["audit", "divergence", *lam, "--q", "0.3", "--s", "3", "--n", "2"],
        # lam (e^{2 eta} - 1) = 1.7e8 beside lam = 23
        ["audit", "divergence", "--eps", "8", "--eps-prime", "7.9", "--q", "0.5", "--n", "1"],
    ]


def csv_calls() -> list[list[str]]:
    """Reports without rows, each flattened into one CSV row."""
    csv = ["--format", "csv"]
    return [
        ["params", "--eps", "1", "--rho", "0.5", "--n", "1000", *csv],
        ["audit", "lemmas", *REFERENCE, "--n", "3", *csv],
        ["audit", "divergence", *REFERENCE, "--n", "3", *csv],
        ["audit", "mse", *REFERENCE, "--n", "20", "--trials", "1000", "--seed", "1", *csv],
    ]


def input_file_calls(tmp: Path) -> list[list[str]]:
    bits, reals, buckets = tmp / "count_bits.txt", tmp / "reals.txt", tmp / "buckets.txt"
    empty = tmp / "empty.txt"
    bits.write_text("".join(f"{i * 7 % 10 // 5}\n" for i in range(500)))
    reals.write_text("".join(f"{i * 37 % 101 / 100!r}\n" for i in range(20)))
    buckets.write_text("".join(f"{i * 7 % 3 % 2}\n" for i in range(20)))
    empty.write_text("")
    calls = [["run", "count", "--input-file", str(empty), "--seed", "1"]]
    for seed in SEEDS:
        s = ["--rho", "0.5", "--seed", str(seed)]
        calls += [
            ["run", "count", "--eps", "1.0", "--input-file", str(bits), *s],
            ["run", "realsum", "--bits", "2", "--eps", "2.0", "--input-file", str(reals), *s],
            ["run", "histogram", "--buckets", "2", "--eps", "2.0",
             "--input-file", str(buckets), *s],
        ]
    return calls + edge_file_calls(tmp)


def edge_file_calls(tmp: Path) -> list[list[str]]:
    """Each run command on files that a one-pass parse cannot take as they are."""
    runs = {
        "count": (["run", "count", "--eps", "2.0"], ["1", "0", "1", "1", "0"] * 8),
        "realsum": (["run", "realsum", "--bits", "2", "--eps", "2.0"],
                    ["0.25", "0.5", "1.0", "0", "0.75"] * 8),
        "histogram": (["run", "histogram", "--buckets", "3", "--eps", "2.0"],
                      ["0", "2", "1", "1", "0"] * 8),
    }
    calls = []
    for command, (argv, lines) in runs.items():
        padded = [f" {v}\t" for v in lines]
        files = {
            # CRLF endings, padded values, blank and whitespace-only lines
            "crlf": "\r\n".join(padded[:3] + ["", "   ", "\t"] + padded[3:]),
            "overflow": "1\n12345678901234567890123\n0\n",
            "bad_middle": "1\n0\n 7x \n1\nzz\n",
            "empty": "",
        }
        for name, text in files.items():
            if command == "count" and name == "empty":
                continue  # input_file_calls has it
            path = tmp / f"{command}_{name}.txt"
            path.write_bytes(text.encode())
            calls.append([*argv, "--input-file", str(path), "--seed", "1"])
    return calls


def usage_calls() -> list[list[str]]:
    return [
        [],
        ["--version"],
        ["run", "count", "-h"],
        ["params", "--eps", "1", "--frobnicate"],
        ["run", "count", "--ones", "x", "--seed", "1"],
        ["run", "count", "--ones", "-2", "--zeros", "5", "--seed", "1"],
        ["run", "realsum", "--fidelity", "exact", "--seed", "1"],
        ["run", "realsum", "--uniform", "100", "--fidelity", "law", "--seed", "1"],
        ["run", "count", "--zeros", "5", "--seed", "1"],
        ["run", "count", "--ones", "3", "extra"],
        ["params", "--eps", "1", "--rho", "0.6", "--n", "100"],
        ["run", "realsum", "--uniform", "100", "--bits", "3", "--eps", "20", "--seed", "1"],
        ["audit", "divergence", *REFERENCE, "--grid-cap", "10"],
        ["audit", "divergence", "--eps", "1", "--eps-prime", "38", "--q", "0.01", "--s", "17",
         "--lam", "127", "--n", "1"],
    ]


def parse_edge_calls() -> list[list[str]]:
    """Calls at the edges of the one-pass parse, each left to argparse."""
    count = ["run", "count", "--ones", "40", "--zeros", "60"]
    return [
        [*count, "--eps=2", "--seed", "1"],
        [*count, "--se", "1"],
        ["run", "count", "--ones", "-1", "--zeros", "5", "--seed", "1"],
        [*count, "--seed", "1", "--seed", "2"],
        [*count, "--out", "--seed", "1"],
        ["audit", "mse", *REFERENCE, "--n=20", "--trials", "1000", "--seed", "1"],
    ]


def out_calls(tmp: Path) -> list[list[str]]:
    """Reports written through ``--out`` instead of stdout."""
    count = ["run", "count", "--ones", "400", "--zeros", "600", "--seed", "1"]
    return [
        [*count, "--out", str(tmp / "count.json")],
        [*count, "--format", "csv", "--out", str(tmp / "count.csv")],
        ["run", "realsum", "--uniform", "1000", "--bits", "4", "--seed", "1",
         "--format", "csv", "--out", str(tmp / "realsum.csv")],
        ["audit", "divergence", *REFERENCE, "--n", "3", "--out", str(tmp / "divergence.json")],
        ["run", "realsum", "--uniform", "1000", "--bits", "4", "--seed", "1",
         "--out", str(tmp / "realsum.json")],
        ["run", "histogram", "--buckets", "8", "--uniform", "1000", "--seed", "1",
         "--out", str(tmp / "histogram.json")],
        ["audit", "mse", *REFERENCE, "--n", "20", "--trials", "1000", "--seed", "1",
         "--out", str(tmp / "mse.json")],
    ]


def mc_case_calls() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    mc = workloads.MonteCarloTrials
    return [argv for index in workloads.MC_CASES for argv in mc.audits(*mc.case(index))]


def output(argv: list[str], tmp: str) -> str:
    """The exit code, stdout, stderr and ``--out`` file of one call, ``tmp`` shown as ``<tmp>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    written = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if written is not None and written.parent == Path(tmp):
        text += f"\0{written.read_text()}"
    return text.replace(tmp, "<tmp>")


def outputs():
    """``(code, text, argv)`` per call, in call order, with ``tmp`` shown as ``<tmp>``."""
    # help and usage text wrap at 80 columns whatever terminal the tool runs in
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        calls = [argv for seed in SEEDS for argv in seeded_calls(seed)]
        calls += input_file_calls(Path(tmp))
        calls += scale_calls() + unseeded_calls() + csv_calls() + out_calls(Path(tmp))
        calls += mc_case_calls() + parse_edge_calls() + usage_calls()
        for argv in calls:
            text = output(argv, tmp)
            yield text.split("\0", 1)[0], text, " ".join(argv).replace(tmp, "<tmp>")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_lines():
    """One ``<kind>  <sha256>  <exit code>  <floats>  <argv>`` line per call, in call order."""
    for code, text, argv in outputs():
        floats = FLOAT.findall(text)
        kind, sha = "float" if floats else "exact", sha256(FLOAT.sub("<float>", text))
        yield f"{kind}  {sha}  {code}  {','.join(floats) or '-'}  {argv}"


def golden_differences(recorded: list[str], current: list[str]) -> list[str]:
    """The golden lines that moved or sit on one side only, named by their argv.

    A line moved when its kind, hash or exit code differs, or when one of
    its float literals differs from the recorded one by more than
    :data:`TOLERANCE` of it. Lines starting with ``#`` are comments.
    """
    def split(text):
        fields = (t.split("  ", 4) for t in text if not t.startswith("#"))
        return {argv: (kind, sha, code, floats) for kind, sha, code, floats, argv in fields}

    old, new = split(recorded), split(current)
    out = [f"only recorded  {argv}" for argv in old if argv not in new]
    for argv, (*head, floats) in new.items():
        if argv not in old:
            out.append(f"not recorded  {argv}")
            continue
        *old_head, old_floats = old[argv]
        # equal hashes hold as many float literals on both sides
        if old_head != head or any(
            a != b and not math.isclose(float(a), float(b), rel_tol=TOLERANCE, abs_tol=0.0)
            for a, b in zip(old_floats.split(","), floats.split(","))
        ):
            out.append(f"moved  {argv}")
    return out


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.parse_args(argv)
    print(GOLDEN_HEADER)
    for line in golden_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
