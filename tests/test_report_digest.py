"""Every CLI report of ``tools/report_digest.py``'s call list against the golden digest.

``tests/golden/report_digest.txt`` holds one line per call; a change that
moves a report re-records it (``tools/report_digest.py``) and lists the
lines that moved.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "report_digest.txt"

sys.path.insert(0, str(ROOT / "tools"))  # a script, not a package module
import report_digest  # noqa: E402

sys.path.remove(str(ROOT / "tools"))


def _recorded() -> list[str]:
    return GOLDEN.read_text().splitlines()


def test_the_golden_header_names_the_tool_without_options():
    # golden_differences skips "#" lines, so only this test reads the header
    header = [line for line in _recorded() if line.startswith("#")]
    assert header == report_digest.GOLDEN_HEADER.splitlines()
    assert header[0].endswith(": PYTHONPATH=src python tools/report_digest.py")
    with pytest.raises(SystemExit) as exc:
        report_digest.run(["--golden"])
    assert exc.value.code == 2


def test_every_report_matches_the_golden_digest():
    moved = report_digest.golden_differences(_recorded(), list(report_digest.golden_lines()))
    assert not moved, "\n".join(moved)


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_a_one_digit_change_names_its_line(monkeypatch, kind):
    # the first passing report of each kind gets one digit changed: its first
    # digit, or for a float line the leading digit of its first float literal
    target = next(
        line.split("  ", 4)[4]
        for line in _recorded()
        if line.startswith(f"{kind}  ") and line.split("  ")[2] == "0" and "<tmp>" not in line
    )
    main = report_digest.main

    def changed(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        text = out.getvalue()
        if " ".join(argv) == target:
            start = report_digest.FLOAT.search(text).start() if kind == "float" else 0
            at = next(i for i in range(start, len(text)) if text[i].isdigit())
            text = f"{text[:at]}{(int(text[at]) + 1) % 10}{text[at + 1:]}"
        sys.stdout.write(text)
        return code

    monkeypatch.setattr(report_digest, "main", changed)
    moved = report_digest.golden_differences(_recorded(), list(report_digest.golden_lines()))
    assert moved == [f"moved  {target}"]


@pytest.mark.parametrize(
    "recorded, current, moved",
    [
        ("0.5,17.25", "0.5000000000001,17.25", False),  # 2e-13 of 0.5
        ("0.5,17.25", "0.500000000001,17.25", True),  # 2e-12 of 0.5
        ("0.0", "1e-300", True),
    ],
)
def test_float_literals_compare_within_the_tolerance(recorded, current, moved):
    line = "float  ab  0  {}  params --eps 1"
    result = report_digest.golden_differences([line.format(recorded)], [line.format(current)])
    assert result == (["moved  params --eps 1"] if moved else [])
