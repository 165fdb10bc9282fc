"""The benchmark's workloads: inputs made from a seed, the CLI calls of one op,
and the checks every report must pass.

Each workload builds its inputs once (set-up), then repeats an *op*: one or two
``shufflecount.cli.main(argv)`` calls whose JSON reports are parsed and checked.
Inputs reach the program only through ``--input-file`` or ``--ones``; nothing
is drawn inside the program except the protocol's own randomness, which is
keyed by the ``--seed`` each op passes.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from shufflecount import audit, composition, params

#: The hand-picked reference set the audits certify (README, criterion 2).
REFERENCE = {"eps": 1.0, "eps_prime": 0.5, "q": 0.01, "s": 17, "lam": 127.0}
REFERENCE_ARGS = [
    "--eps", "1", "--eps-prime", "0.5", "--q", "0.01", "--s", "17", "--lam", "127",
]


def reference_params(n_users: int) -> params.ProtocolParams:
    return params.ProtocolParams(
        n_users=n_users,
        epsilon=REFERENCE["eps"],
        noise_epsilon=REFERENCE["eps_prime"],
        drop_prob=REFERENCE["q"],
        pad_count=REFERENCE["s"],
        flood_mean=REFERENCE["lam"],
    )


def op_seed(workload: str, seed: int, index: int) -> int:
    """Program seed of op ``index`` (the warm-up op is index -1)."""
    return random.Random(f"{workload}:{seed}:op:{index}").randrange(2**31)


def comm_costs(runs, mse_bound: float) -> dict:
    """Communication and accuracy costs of the runs one op makes.

    ``runs`` holds the instance list of each pooled run: every instance adds
    ``exact_mean_messages(inst, 1)`` messages per user, each
    ``message_bits(len(instances))`` bits wide.
    """
    msgs = bits = 0.0
    for instances in runs:
        per_user = sum(audit.exact_mean_messages(p, 1) for p in instances)
        msgs += per_user
        bits += per_user * composition.message_bits(len(instances))
    return {"msgs_per_user": msgs, "wire_bits_per_user": bits, "mse_bound": mse_bound}


class Workload:
    """One named workload. Subclasses set the sizes, calls and checks."""

    name = ""
    item = ""  # unit of work counted by items(): msg, trial or cell

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.comm: dict = {}  # set by subclasses from comm_costs()

    def calls(self, index: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, reports: list[dict]) -> str | None:
        """Return why the op's reports are wrong, or None when they are right."""
        raise NotImplementedError

    def items(self, reports: list[dict]) -> int:
        raise NotImplementedError

    def certify(self, run_cli) -> tuple[int, int] | None:
        """Untimed certification attempts as ``(passes, attempts)``, if any."""
        return None


class CountLarge(Workload):
    name = "count-large"
    item = "msg"
    N, EPS, RHO = 500, 1.0, 0.5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rnd = random.Random(f"{self.name}:{seed}:inputs")
        bits = [1] * (self.N // 2) + [0] * (self.N - self.N // 2)
        rnd.shuffle(bits)
        self.ones = sum(bits)
        self.path = workdir / "count_bits.txt"
        self.path.write_text("".join(f"{b}\n" for b in bits))
        self.params = params.derive_params(self.EPS, self.RHO, self.N)
        self.comm = comm_costs([[self.params]], audit.mse_bound(self.params))

    def calls(self, index):
        return [[
            "run", "count", "--eps", repr(self.EPS), "--rho", repr(self.RHO),
            "--input-file", str(self.path),
            "--seed", str(op_seed(self.name, self.seed, index)),
        ]]

    def check(self, reports):
        (r,) = reports
        plus, minus = r["view"]["plus"], r["view"]["minus"]
        if r["estimate"] != plus - minus:
            return "estimate != view.plus - view.minus"
        if r["messages_per_user"]["total"] != plus + minus:
            return "messages_per_user.total != view.plus + view.minus"
        if r["inputs"] != {"n": self.N, "ones": self.ones}:
            return "report inputs differ from the generated inputs"
        if r["params"] != self.params.to_dict():
            return "report params differ from derive_params"
        return None

    def items(self, reports):
        return reports[0]["messages_per_user"]["total"]


class PooledLarge(Workload):
    name = "pooled-large"
    item = "msg"
    N, RHO = 20, 0.5
    RS_BITS, RS_EPS = 2, 2.0
    H_BUCKETS, H_EPS = 2, 2.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rnd = random.Random(f"{self.name}:{seed}:inputs")
        reals = [rnd.random() for _ in range(self.N)]
        values = [rnd.randrange(self.H_BUCKETS) for _ in range(self.N)]
        self.true_counts = [values.count(b) for b in range(self.H_BUCKETS)]
        self.reals_path = workdir / "reals.txt"
        self.reals_path.write_text("".join(f"{x!r}\n" for x in reals))
        self.values_path = workdir / "buckets.txt"
        self.values_path.write_text("".join(f"{v}\n" for v in values))
        self.rs_instances = composition.real_sum_params(
            self.RS_EPS, self.RHO, self.RS_BITS, self.N
        )
        self.h_instance = composition.histogram_params(self.H_EPS, self.RHO, self.N)
        self.weights = [float(w) for w in composition.bit_weights(self.RS_BITS)]
        # realsum: per-bit bounds weighted by squared place values;
        # histogram: the bound of one bucket
        mse = math.fsum(
            w * w * audit.mse_bound(p) for w, p in zip(self.weights, self.rs_instances)
        ) + audit.mse_bound(self.h_instance)
        self.comm = comm_costs(
            [self.rs_instances, [self.h_instance] * self.H_BUCKETS], mse
        )

    def calls(self, index):
        seed = str(op_seed(self.name, self.seed, index))
        return [
            [
                "run", "realsum", "--bits", str(self.RS_BITS), "--eps", repr(self.RS_EPS),
                "--rho", repr(self.RHO), "--input-file", str(self.reals_path), "--seed", seed,
            ],
            [
                "run", "histogram", "--buckets", str(self.H_BUCKETS), "--eps", repr(self.H_EPS),
                "--rho", repr(self.RHO), "--input-file", str(self.values_path), "--seed", seed,
            ],
        ]

    def check(self, reports):
        rs, h = reports
        weighted = math.fsum(w * c for w, c in zip(self.weights, rs["bit_counts"]))
        if len(rs["bit_counts"]) != self.RS_BITS or weighted != rs["estimate"]:
            return "realsum estimate != place-value-weighted bit_counts"
        if rs["instances"] != [p.to_dict() for p in self.rs_instances]:
            return "realsum instances differ from real_sum_params"
        if not rs["total_messages"] > 0:
            return "realsum total_messages is not positive"
        if len(h["estimates"]) != self.H_BUCKETS:
            return "histogram does not give one estimate per bucket"
        if not h["total_messages"] > 0:
            return "histogram total_messages is not positive"
        if h["true_counts"] != self.true_counts:
            return "histogram true_counts differ from the generated inputs"
        if h["instance"] != self.h_instance.to_dict():
            return "histogram instance differs from histogram_params"
        return None

    def items(self, reports):
        return reports[0]["total_messages"] + reports[1]["total_messages"]


#: Candidate cases of mc-trials (see MonteCarloTrials) whose two MSE audits
#: pass their 3-standard-error check on the code the benchmark was written
#: against. The check is statistical and fails by chance on about one case in
#: a hundred (2 of 150 counts-fidelity audits, 0 of 150 message-fidelity ones),
#: which would fail runs at random. vet_mc_cases() rebuilds the list.
MC_CASES = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16)


class MonteCarloTrials(Workload):
    name = "mc-trials"
    item = "trial"
    TRIALS = 1000
    # (fidelity, n): message level at small n, counts level at larger n
    RUNS = (("message", 100), ("counts", 1000))

    @classmethod
    def case(cls, index: int) -> tuple[list[int], int]:
        """Ones counts of both audits and the program seed of candidate ``index``."""
        rnd = random.Random(f"{cls.name}:case:{index}")
        ones = [rnd.randint(n // 2, n) for _, n in cls.RUNS]
        return ones, rnd.randrange(2**31)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ones, self.program_seed = self.case(MC_CASES[seed % len(MC_CASES)])
        self.sets = [reference_params(n) for _, n in self.RUNS]
        self.comm = comm_costs(
            [[p] for p in self.sets], math.fsum(audit.mse_bound(p) for p in self.sets)
        )

    @classmethod
    def audits(cls, ones: list[int], seed: int) -> list[list[str]]:
        return [
            [
                "audit", "mse", *REFERENCE_ARGS, "--n", str(n), "--ones", str(k),
                "--trials", str(cls.TRIALS), "--fidelity", fidelity,
                "--threads", "1", "--seed", str(seed),
            ]
            for (fidelity, n), k in zip(cls.RUNS, ones)
        ]

    def calls(self, index):
        # every op repeats the same vetted audits; see MC_CASES
        return self.audits(self.ones, self.program_seed)

    def check(self, reports):
        for r, (fidelity, n), ones in zip(reports, self.RUNS, self.ones):
            if r["pass"] is not True:
                return f"audit mse ({fidelity}, n={n}) did not pass"
            if (r["trials"], r["fidelity"], r["dataset"]["ones"]) != (self.TRIALS, fidelity, ones):
                return f"audit mse ({fidelity}, n={n}) ran another configuration"
        return None

    def items(self, reports):
        return sum(r["trials"] for r in reports)


class AuditOracle(Workload):
    name = "audit-oracle"
    item = "cell"
    N = 20
    # derived sets behind certified_ratio: budgets x small user counts
    CERTIFY_EPS = (0.5, 1.0, 2.0)
    CERTIFY_N = (3, 10)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.params = reference_params(self.N)
        self.comm = comm_costs([[self.params]], audit.mse_bound(self.params))
        self.derived = [
            params.derive_params(eps, 0.5, n)
            for eps in self.CERTIFY_EPS
            for n in self.CERTIFY_N
        ]

    def calls(self, index):
        # the oracle is exact: an op has no random input
        return [["audit", "divergence", *REFERENCE_ARGS, "--n", str(self.N)]]

    def check(self, reports):
        (r,) = reports
        if r["pass"] is not True:
            return "audit divergence on the reference set did not pass"
        if r["n_users"] != self.N or r["params"] != self.params.to_dict():
            return "audit divergence ran another configuration"
        return None

    def items(self, reports):
        grid = reports[0]["grid"]
        return (grid["i_max"] + 1) * (grid["j_max"] + 1) * 2

    def certify(self, run_cli):
        passes = 0
        for p in self.derived:
            rc, _ = run_cli([
                "audit", "divergence", "--eps", repr(p.epsilon),
                "--eps-prime", repr(p.noise_epsilon), "--q", repr(p.drop_prob),
                "--s", str(p.pad_count), "--lam", repr(p.flood_mean), "--n", str(p.n_users),
            ])
            if rc not in (0, 1, 3):  # pass, fail, inconclusive
                raise RuntimeError(f"certification attempt exited {rc}")
            passes += rc == 0
        return passes, len(self.derived)


WORKLOADS = {w.name: w for w in (CountLarge, PooledLarge, MonteCarloTrials, AuditOracle)}


def vet_mc_cases(count: int, run_cli) -> list[int]:
    """Indices of the first ``count`` mc-trials cases whose audits both pass."""
    passing, index = [], 0
    while len(passing) < count:
        outputs = [run_cli(argv) for argv in MonteCarloTrials.audits(*MonteCarloTrials.case(index))]
        if all(rc == 0 and json.loads(out)["pass"] is True for rc, out in outputs):
            passing.append(index)
        index += 1
    return passing
