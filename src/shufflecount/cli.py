"""Command-line surface: parameter derivation, protocol runs, audits, benchmarks.

Reports are self-describing (they embed the resolved parameters and the seed)
and byte-identical across reruns with the same configuration and seed; flags
take precedence over the ``SHUFFLECOUNT_SEED`` environment variable. Exit
codes: 0 pass, 1 fail, 2 usage or invalid input, 3 audit inconclusive.
Each handler returns its report and its CSV rows; :func:`main` checks the
``--out`` directory before the handler runs, writes the report once and
takes the exit code from the report's verdict (``pass``, or ``ok`` for
``params``; a report without one passes).

A plain call is parsed in one pass against the leaf parser its leading
command words name (``params``, ``bench``, ``run count``, ``audit
divergence``, ...), not by the three nested parsers in turn. Made only of the
leaf's exact option strings, each with a value that does not start with
``-`` and that converts to the option's type and choices, and naming every
required option, it is walked over a table read off the leaf's own argparse
actions and gets the namespace the leaf parser would build. Every other call
(``--opt=value``, an abbreviation, a negative or option-like value, ``-h``,
a bad value, a missing option, or no leaf named) goes to the full parser, so
argparse writes every usage error, help text and ``--version`` as it always
has.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import io
import math
import os
import stat
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .audit import (
    DEFAULT_COVERAGE,
    DEFAULT_GRID_CAP,
    DEFAULT_TOLERANCE,
    check_geo_ratio,
    check_poi_ratio,
    divergence_audit,
    exact_mean_messages,
    exact_mse,
    measure_comm,
    measure_mse,
    mse_bound,
)
from .composition import run_histogram, run_real_sum
from .dist import RandomSource
from .errors import (
    AuditInconclusiveError,
    DegenerateInputError,
    ParameterError,
    check_count,
)
from .params import (
    ProtocolParams,
    check_condition,
    derive_params,
    minimal_params,
    require_feasible,
)
from .protocol import FIDELITIES, estimate_trials, run_counting

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

SEED_ENV_VAR = "SHUFFLECOUNT_SEED"
#: bytes asked of each ``os.read`` of an ``--input-file``
READ_CHUNK = 1 << 16


def _check_out(path: str | None) -> None:
    """Raise before the run the error a write to ``path`` would end in.

    The write fails when the folder is missing or not a folder, or ``path`` names one.
    """
    if path:
        folder = os.path.dirname(path) or "."
        try:
            if not stat.S_ISDIR(os.stat(folder).st_mode):
                error = errno.ENOTDIR
            elif os.path.isdir(path):
                error = errno.EISDIR
            else:
                return
        except OSError as exc:
            error = exc.errno
        raise ParameterError(f"{path}: cannot write: {os.strerror(error)}")


def _emit(args, report: dict, rows: list[dict] | None) -> None:
    if args.format == "csv":
        import csv  # its one use: JSON reports never load it

        if rows is None:
            rows = [_flatten(report)]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        parts: list[str] = []
        _write_json(report, "\n", parts)
        parts.append("\n")
        text = "".join(parts)
    if args.out:
        try:
            with open(args.out, "w") as file:
                file.write(text)
        except OSError as exc:
            raise ParameterError(f"{args.out}: cannot write: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _write_json(obj, newline: str, parts: list[str]) -> None:
    """Append the text of ``json.dumps(obj, indent=2, sort_keys=True)`` to ``parts``.

    ``newline`` is a line break and the indent of the line ``obj`` starts on.
    Any ``indent`` sends ``json.dumps`` to its pure-Python encoder; this plain
    recursion writes the same bytes faster: keys sorted, scalars as
    :data:`_SCALARS` writes them (a subclass, such as ``np.float64``, as its
    base), and a ``TypeError`` for any value ``json.dumps`` rejects. Keys
    must be ``str``, as every report's are.
    """
    write = _SCALARS.get(type(obj))
    if write is not None:
        parts.append(write(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for key in sorted(obj):
            parts.append(f"{head}{encode_basestring_ascii(key)}: ")
            _write_json(obj[key], inner, parts)
            head = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        for value in obj:
            parts.append(head)
            _write_json(value, inner, parts)
            head = "," + inner
        parts.append(newline + "]")
    else:
        for kind, write in _SCALARS.items():
            if isinstance(obj, kind):
                parts.append(write(obj))
                return
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


#: JSON's names of the floats whose ``repr`` is not a JSON number
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


#: the JSON text of each scalar type, as ``json.dumps`` writes it
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _flatten(report: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            flat[name] = " ".join(str(v) for v in value)
        else:
            flat[name] = value
    return flat


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    raise ParameterError(
        f"a seed is required: pass --seed or set {SEED_ENV_VAR}"
    )


def _explicit_params(args, n_users: int) -> ProtocolParams:
    """Build a parameter set from explicit audit flags.

    Pad count and flood mean default to the cheapest feasible values; with
    ``--q 0`` (never feasible) they fall back to the values a drop
    probability of 0.01 would get, so the audit isolates the effect of
    disabling drops.
    """
    if args.s is not None and args.lam is not None:
        return ProtocolParams(n_users, args.eps, args.eps_prime, args.q, args.s, args.lam)
    base = minimal_params(args.eps, args.eps_prime, args.q if args.q > 0.0 else 0.01, n_users)
    given = {"pad_count": args.s, "flood_mean": args.lam}
    return dataclasses.replace(
        base, drop_prob=args.q, **{name: v for name, v in given.items() if v is not None}
    )


def _read_values(path: str, cast) -> np.ndarray:
    """The values of an ``--input-file``, one per line, as one array.

    The file's bytes are read once (one ``os.open``, ``os.read`` calls of
    :data:`READ_CHUNK` bytes to the end, one ``os.close``), stripped of
    leading and trailing whitespace, and every non-empty line cast straight
    into an array of ``cast``'s numpy dtype (int64 for ``int``, float64 for
    ``float``); ``int`` and ``float`` parse an ASCII line of bytes as they
    parse the same text. If that fails, the pass runs once more without
    whitespace-only lines. A line that is not a plain ASCII number, or a
    value outside that dtype, sends the read to :func:`_read_lines`, a loop
    over the UTF-8 text that splits at every line boundary ``str.splitlines``
    knows, skips blank lines, names the first line ``cast`` cannot read, and
    leaves an out-of-range value to the caller's range check.
    """
    chunks = []
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            while chunk := os.read(fd, READ_CHUNK):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        raise ParameterError(f"{path}: cannot read: {exc.strerror}") from None
    data = b"".join(chunks)
    lines = data.strip().splitlines()
    for kept in (filter(None, lines), filter(bytes.strip, lines)):
        try:
            return np.fromiter(map(cast, kept), cast)
        except (ValueError, OverflowError):
            pass
    return _read_lines(path, data, cast)


def _read_lines(path: str, data: bytes, cast) -> np.ndarray:
    """The line-by-line read of :func:`_read_values`."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    values = []
    for line in filter(None, map(str.strip, text.splitlines())):
        try:
            values.append(cast(line))
        except ValueError:
            raise ParameterError(f"{path}: cannot read {line!r} as {cast.__name__}") from None
    return np.asarray(values)


def _run_inputs(args, rng: RandomSource, cast, draw) -> np.ndarray:
    """Inputs of a real-sum or histogram run, read or drawn, never empty.

    ``--input-file`` is read with ``cast``; ``--uniform N`` takes
    ``draw(generator, N)`` on substream 9 of the run's seed.
    """
    if args.input_file:
        xs = _read_values(args.input_file, cast)
    elif args.uniform is not None:
        n = check_count("--uniform", args.uniform, 1)
        xs = draw(rng.substream(9).generator, n)
    else:
        raise ParameterError("pass --input-file or --uniform N")
    if not xs.size:
        raise ParameterError(f"{args.input_file} holds no inputs")
    return xs


def _cmd_params(args) -> tuple[dict, list[dict] | None]:
    if args.eps_prime is not None or args.q is not None:
        # validation mode: check an explicit set instead of deriving one
        if args.eps_prime is None or args.q is None:
            raise ParameterError("--eps-prime and --q must be given together")
        params = _explicit_params(args, args.n)
        check = check_condition(params)
        report = {
            "mode": "check",
            "params": params.to_dict(),
            "ok": check.ok,
            "violations": list(check.violations),
            "pad_threshold": check.pad_threshold,
            "flood_threshold": check.flood_threshold,
        }
        return report, None
    params = derive_params(args.eps, args.rho, args.n)
    report = {
        "mode": "derive",
        "params": params.to_dict(),
        "ok": True,
        "expected_messages_per_user_x1": exact_mean_messages(params, 1),
        "mse_all_ones": exact_mse(params, params.n_users),
    }
    return report, None


def _count_inputs(args) -> np.ndarray:
    """The bits of a counting run: ``--ones`` ones, then ``--zeros`` zeros, or a file's.

    Of ``--ones`` and ``--zeros``, one given alone takes the other as 0.
    """
    if args.input_file:
        return _read_values(args.input_file, int)  # run_counting checks the bits
    if args.ones is None and args.zeros is None:
        raise ParameterError("pass --ones/--zeros or --input-file")
    ones = check_count("--ones", args.ones if args.ones is not None else 0)
    zeros = check_count("--zeros", args.zeros if args.zeros is not None else 0)
    return np.repeat(np.array([1, 0], dtype=np.uint8), [ones, zeros])


def _cmd_run_count(args) -> tuple[dict, list[dict] | None]:
    seed = _seed(args)
    xs = _count_inputs(args)
    params = derive_params(args.eps, args.rho, len(xs))
    run = run_counting(xs, params, RandomSource(seed))
    per_user = run.messages_per_user
    total = run.view.plus_count + run.view.minus_count  # every user's messages
    true_value = int(np.add.reduce(xs))
    report = {
        "subcommand": "run count",
        "seed": seed,
        "params": params.to_dict(),
        "inputs": {"n": len(xs), "ones": true_value},
        "estimate": run.estimate,
        "true_value": true_value,
        "error": run.estimate - true_value,
        "view": {"plus": run.view.plus_count, "minus": run.view.minus_count},
        "messages_per_user": {
            "mean": total / len(xs),
            "min": int(np.minimum.reduce(per_user)),
            "max": int(np.maximum.reduce(per_user)),
            "total": total,
        },
    }
    rows = None
    if args.format == "csv":  # one row per user, read by the CSV report only
        rows = [
            {"user": i, "input": x, "messages": m}
            for i, (x, m) in enumerate(zip(xs.tolist(), per_user.tolist()))
        ]
    return report, rows


def _cmd_run_realsum(args) -> tuple[dict, list[dict] | None]:
    seed = _seed(args)
    rng = RandomSource(seed)
    xs = _run_inputs(args, rng, float, lambda gen, n: gen.random(n))
    n_bits = args.bits if args.bits is not None else max(1, math.ceil(math.log2(len(xs))))
    run = run_real_sum(xs, args.eps, args.rho, n_bits, rng, fidelity=args.fidelity)
    true_sum = float(np.add.accumulate(xs)[-1])  # in input order; np.sum adds pairwise
    budgets = [inst.epsilon for inst in run.instances]
    report = {
        "subcommand": "run realsum",
        "seed": seed,
        "fidelity": run.fidelity,
        "n": len(xs),
        "n_bits": n_bits,
        "epsilon": args.eps,
        "slack": args.rho,
        "bit_budgets": budgets,
        "budget_total": math.fsum(budgets),
        "instances": [inst.to_dict() for inst in run.instances],
        "bit_counts": list(run.bit_counts),
        "estimate": run.estimate,
        "true_sum": true_sum,
        "error": run.estimate - true_sum,
        "total_messages": run.total_messages,
    }
    rows = [
        {"bit": j, "budget": b, "count": c}
        for j, (b, c) in enumerate(zip(budgets, run.bit_counts))
    ]
    return report, rows


def _cmd_run_histogram(args) -> tuple[dict, list[dict] | None]:
    seed = _seed(args)
    rng = RandomSource(seed)
    check_count("--buckets", args.buckets, 1)  # before --uniform draws from it
    xs = _run_inputs(args, rng, int, lambda gen, n: gen.integers(0, args.buckets, size=n))
    run = run_histogram(xs, args.buckets, args.eps, args.rho, rng, fidelity=args.fidelity)
    true_counts = np.bincount(xs, minlength=args.buckets)[: args.buckets]
    errors = np.asarray(run.estimates) - true_counts
    report = {
        "subcommand": "run histogram",
        "seed": seed,
        "fidelity": run.fidelity,
        "n": len(xs),
        "buckets": args.buckets,
        "epsilon": args.eps,
        "slack": args.rho,
        "instance": run.instance.to_dict(),
        "estimates": list(run.estimates),
        "true_counts": [int(c) for c in true_counts],
        "linf_error": int(np.maximum.reduce(np.abs(errors))),
        "total_messages": run.total_messages,
    }
    rows = [
        {"bucket": b, "estimate": e, "true": int(t)}
        for b, (e, t) in enumerate(zip(run.estimates, true_counts))
    ]
    return report, rows


def _cmd_audit_lemmas(args) -> tuple[dict, list[dict] | None]:
    params = _explicit_params(args, args.n)
    geo = check_geo_ratio(params.noise_epsilon, args.i_max)
    poi = check_poi_ratio(params)
    report = {
        "subcommand": "audit lemmas",
        "params": params.to_dict(),
        "geo_ratio": {
            "ok": geo.ok,
            "worst_margin": geo.worst_margin,
            "worst_index": geo.worst_index,
            "i_max": geo.i_max,
        },
        "flood_ratio": {
            "ok": poi.ok,
            "worst_margin": poi.worst_margin,
            "worst_index": poi.worst_index,
            "i_max": poi.i_max,
        },
        "pass": geo.ok and poi.ok,
    }
    return report, None


def _cmd_audit_divergence(args) -> tuple[dict, list[dict] | None]:
    params = _explicit_params(args, args.n)
    report_obj = divergence_audit(
        args.n,
        params,
        coverage=args.coverage,
        tolerance=args.tolerance,
        grid_cap=args.grid_cap,
    )
    report = {
        "subcommand": "audit divergence",
        "params": params.to_dict(),
        **report_obj.to_json_dict(),
    }
    return report, None


def _three_se_checks(empirical: float, result) -> dict:
    """Report keys of a Monte Carlo audit: within 3 SE of exact, at most the bound."""
    within = abs(empirical - result.exact) <= 3.0 * result.std_err
    below = empirical <= result.bound + 3.0 * result.std_err
    return {"within_3se_of_exact": within, "at_most_bound": below, "pass": within and below}


def _cmd_audit_mse(args) -> tuple[dict, list[dict] | None]:
    check_count("--threads", args.threads, 1)
    seed = _seed(args)
    params = _explicit_params(args, args.n)
    require_feasible(params)
    ones = check_count("--ones", args.ones if args.ones is not None else args.n, 0, args.n)
    result = measure_mse(params, ones, args.trials, RandomSource(seed), fidelity=args.fidelity)
    report = {
        "subcommand": "audit mse",
        "seed": seed,
        "params": params.to_dict(),
        "dataset": {"zeros": args.n - ones, "ones": ones},
        "trials": result.trials,
        "fidelity": result.fidelity,
        "empirical_mse": result.empirical_mse,
        "std_err": result.std_err,
        "exact": result.exact,
        "bound": result.bound,
        **_three_se_checks(result.empirical_mse, result),
    }
    return report, None


def _cmd_audit_comm(args) -> tuple[dict, list[dict] | None]:
    seed = _seed(args)
    params = _explicit_params(args, args.n)
    require_feasible(params)
    result = measure_comm(params, args.x, args.trials, RandomSource(seed))
    report = {
        "subcommand": "audit comm",
        "seed": seed,
        "params": params.to_dict(),
        "x": args.x,
        "trials": result.trials,
        "empirical_mean_messages": result.empirical_mean,
        "std_err": result.std_err,
        "exact": result.exact,
        "bound": result.bound,
        **_three_se_checks(result.empirical_mean, result),
    }
    return report, None


def _cmd_bench(args) -> tuple[dict, list[dict] | None]:
    seed = _seed(args)
    if not args.n_list:
        raise ParameterError("--n-list names no user count")
    rows = []
    for n in args.n_list:
        params = derive_params(args.eps, args.rho, n)
        rng = RandomSource(seed).substream(n)
        start = time.perf_counter()
        estimates = estimate_trials(n, params, args.trials, rng, fidelity="counts")
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        sq_err = (estimates.astype(np.float64) - n) ** 2
        row = {
            "n": n,
            "pad_count": params.pad_count,
            "flood_mean": params.flood_mean,
            "drop_prob": params.drop_prob,
            "expected_messages_per_user_x1": exact_mean_messages(params, 1),
            "mse": float(np.add.reduce(sq_err) / sq_err.size),
            "mse_exact": exact_mse(params, n),
            "mse_bound": mse_bound(params),
        }
        if args.timing:
            row["wall_ms"] = elapsed_ms
        rows.append(row)
    report = {
        "subcommand": "bench",
        "seed": seed,
        "epsilon": args.eps,
        "slack": args.rho,
        "trials": args.trials,
        "rows": rows,
    }
    return report, rows


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help=f"master seed (or ${SEED_ENV_VAR})")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report to a file")


def _add_explicit_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--eps-prime", dest="eps_prime", type=float, default=0.5)
    p.add_argument("--q", type=float, default=0.01)
    p.add_argument("--s", type=int, default=None, help="pad count (default: cheapest feasible)")
    p.add_argument("--lam", type=float, default=None, help="flood mean (default: cheapest feasible)")


def build_parser() -> argparse.ArgumentParser:
    """The full command-line parser, built once per process."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[
    argparse.ArgumentParser, dict[tuple[str, ...], argparse.ArgumentParser]
]:
    """The full parser and each leaf parser, keyed by the command words that name it."""
    leaves: dict[tuple[str, ...], argparse.ArgumentParser] = {}

    def leaf(subparsers, *words: str, **kwargs) -> argparse.ArgumentParser:
        leaves[words] = subparsers.add_parser(words[-1], **kwargs)
        return leaves[words]

    parser = argparse.ArgumentParser(
        prog="shufflecount",
        description="Private counting in the shuffle model: runs, audits, benchmarks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = leaf(sub, "params", help="derive or check protocol parameters")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--rho", type=float, default=0.5, help="accuracy slack in (0, 0.5]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps-prime", dest="eps_prime", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--lam", type=float, default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_params)

    run = sub.add_parser("run", help="execute a protocol")
    run_sub = run.add_subparsers(dest="mode", required=True)

    rc = leaf(run_sub, "run", "count", help="binary counting")
    rc.add_argument("--eps", type=float, default=1.0)
    rc.add_argument("--rho", type=float, default=0.5)
    rc.add_argument("--ones", type=int, default=None)
    rc.add_argument("--zeros", type=int, default=None)
    rc.add_argument("--input-file", default=None)
    _add_common(rc)
    rc.set_defaults(handler=_cmd_run_count)

    rr = leaf(run_sub, "run", "realsum", help="summation of reals in [0, 1]")
    rr.add_argument("--eps", type=float, default=1.0)
    rr.add_argument("--rho", type=float, default=0.5)
    rr.add_argument("--bits", type=int, default=None)
    rr.add_argument("--input-file", default=None)
    rr.add_argument("--uniform", type=int, default=None, help="generate N seeded uniform inputs")
    rr.add_argument("--fidelity", choices=FIDELITIES, default="message")
    _add_common(rr)
    rr.set_defaults(handler=_cmd_run_realsum)

    rh = leaf(run_sub, "run", "histogram", help="per-bucket counting")
    rh.add_argument("--eps", type=float, default=1.0)
    rh.add_argument("--rho", type=float, default=0.5)
    rh.add_argument("--buckets", type=int, required=True)
    rh.add_argument("--input-file", default=None)
    rh.add_argument("--uniform", type=int, default=None, help="generate N seeded uniform inputs")
    rh.add_argument("--fidelity", choices=FIDELITIES, default="message")
    _add_common(rh)
    rh.set_defaults(handler=_cmd_run_histogram)

    audit = sub.add_parser("audit", help="numerical verification")
    audit_sub = audit.add_subparsers(dest="mode", required=True)

    al = leaf(audit_sub, "audit", "lemmas", help="noise-ratio inequality checks")
    _add_explicit_params(al)
    al.add_argument("--n", type=int, default=3)
    al.add_argument("--i-max", dest="i_max", type=int, default=10_000)
    _add_common(al)
    al.set_defaults(handler=_cmd_audit_lemmas)

    ad = leaf(audit_sub, "audit", "divergence", help="exact view max-divergence audit")
    _add_explicit_params(ad)
    ad.add_argument("--n", type=int, default=3)
    ad.add_argument("--coverage", type=float, default=DEFAULT_COVERAGE)
    ad.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    ad.add_argument("--grid-cap", dest="grid_cap", type=int, default=DEFAULT_GRID_CAP)
    _add_common(ad)
    ad.set_defaults(handler=_cmd_audit_divergence)

    am = leaf(audit_sub, "audit", "mse", help="Monte Carlo MSE vs closed form")
    _add_explicit_params(am)
    am.add_argument("--n", type=int, required=True)
    am.add_argument("--ones", type=int, default=None, help="ones count (default: all ones)")
    am.add_argument("--trials", type=int, default=50_000)
    am.add_argument("--fidelity", choices=FIDELITIES, default="message")
    am.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility (>= 1); has no effect, trials run batched",
    )
    _add_common(am)
    am.set_defaults(handler=_cmd_audit_mse)

    ac = leaf(audit_sub, "audit", "comm", help="Monte Carlo per-user messages vs closed form")
    _add_explicit_params(ac)
    ac.add_argument("--n", type=int, required=True)
    ac.add_argument("--x", type=int, choices=(0, 1), default=1)
    ac.add_argument("--trials", type=int, default=10_000)
    _add_common(ac)
    ac.set_defaults(handler=_cmd_audit_comm)

    b = leaf(sub, "bench", help="parameter/error/communication sweep over user counts")
    b.add_argument("--eps", type=float, default=1.0)
    b.add_argument("--rho", type=float, default=0.5)
    b.add_argument("--n-list", dest="n_list", type=_int_list, default=[100, 1000, 10_000])
    b.add_argument("--trials", type=int, default=10_000)
    b.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock timings (report is then not byte-reproducible)",
    )
    _add_common(b)
    b.set_defaults(handler=_cmd_bench)

    return parser, leaves


@functools.cache
def _plain_table(leaf: argparse.ArgumentParser) -> tuple[dict, dict, frozenset]:
    """A leaf's one-pass table, read off its own argparse actions.

    Its store and store_true actions by exact option string, the namespace
    its defaults make (as ``parse_known_args`` starts one), and its required
    actions.
    """
    options = {
        option: action
        for action in leaf._actions
        if isinstance(action, (argparse._StoreAction, argparse._StoreTrueAction))
        for option in action.option_strings
    }
    defaults = {
        action.dest: action.default
        for action in leaf._actions
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS
    }
    defaults["handler"] = leaf.get_default("handler")
    return options, defaults, frozenset(a for a in options.values() if a.required)


def _parse_plain(leaf: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``leaf.parse_known_args(argv)`` builds, if ``argv`` is plain.

    Plain is a run of exact option strings, each store option followed by a
    value that does not start with ``-`` and that converts to its type and
    choices, with every required option present. Any other ``argv`` gives
    None and is left to argparse.
    """
    options, defaults, required = _plain_table(leaf)
    values, seen = dict(defaults), set()
    tokens = iter(argv)
    for token in tokens:
        action = options.get(token)
        if action is None:
            return None
        if action.nargs == 0:  # store_true
            value = action.const
        else:
            text = next(tokens, "-")  # a missing value reads as an option
            if text.startswith("-"):
                return None
            try:
                value = action.type(text) if action.type else text
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None  # argparse reports these
            if action.choices is not None and value not in action.choices:
                return None
        values[action.dest] = value
        seen.add(action)
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


def _parse_args(argv) -> argparse.Namespace:
    """Parse ``argv`` in one pass where its command words name a leaf.

    A plain call (see ``_parse_plain``) is walked once against the leaf's
    own actions. Every other call goes through the full parser, so every
    usage error and help text reads as it always has.
    """
    parser, leaves = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    for depth in (1, 2):
        leaf = leaves.get(tuple(argv[:depth]))
        if leaf is not None:
            args = _parse_plain(leaf, argv[depth:])
            if args is not None:
                return args
            break
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        _check_out(args.out)
        report, rows = args.handler(args)
        _emit(args, report, rows)
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AuditInconclusiveError as exc:
        print(f"audit inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if report.get("pass", report.get("ok", True)) else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
