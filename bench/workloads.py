"""The benchmark's three workloads: their inputs, operations and checks.

Every input is generated here from the workload seed and written as a
file the ``leakage-lab`` command reads; the program sees nothing else.
An operation is one ``leakage_lab.cli.main(argv)`` call. Its ``check``
receives the exit code and the captured stdout and raises
``CheckFailed`` when the output disagrees with ``oracles``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

HYPOTHESES = [[0, 0], [0, 1], [1, 0], [1, 1]]
BASE_LABELS = ["x0:0", "x0:1", "x1:0", "x1:1"]

# A Monte Carlo tail must lie within K_SE binomial standard errors of the
# exact probability. ``mc_band`` also computes, from the exact binomial
# law, the chance that a correct random stream lands outside the band and
# refuses any configuration where that chance is not below 1e-6.
K_SE = 7.0
FALSE_FAILURE_LIMIT = 1e-6

MC_TRIALS = 20_000
MC_N, MC_ETA = 6, 0.4
ENUM_TRIALS = 1_000
ENUM_N, ENUM_ETA = 9, 0.3
CHANNEL_N = 8
EPSILON = 0.5
BETA = 0.1
HYPTEST = {"n": 64, "numStats": 10, "sigma": 0.005, "delta": 0.05}
SWEEP_INSTANCES = {"soundness": 150, "composition": 40, "maxinfo": 60}

# Exponential mechanism at epsilon = 3000 with hypotheses {00, 11}: every
# weight exp(-epsilon * n * risk / 2) underflows, the learner channel has
# NaN rows and the report cannot be serialized. Its inputs do not depend
# on the seed, so it fails the same way in every round of every run.
NAN_CONFIG = {
    "d": 2,
    "n": 4,
    "dataDistribution": {"labels": BASE_LABELS, "probs": [0.25, 0.25, 0.25, 0.25]},
    "learner": {"kind": "exponential-mechanism", "hypothesisClass": [[0, 0], [1, 1]],
                "epsilon": 3000.0, "tieBreak": "lowest-index"},
    "eta": 0.4,
    "trials": 256,
    "seed": 20260814,
}


class CheckFailed(AssertionError):
    """The program's output disagrees with the independent oracle."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(got, want, tol: float, what: str, relative: bool = False) -> None:
    _require(isinstance(got, (int, float)), f"{what}: expected a number, got {got!r}")
    scale = max(abs(want), 1.0) if relative else 1.0
    _require(abs(got - want) <= tol * scale, f"{what}: got {got!r}, oracle {want!r}")


def mc_band(p: float, trials: int) -> float:
    """Half-width K_SE * sqrt(p (1 - p) / trials) on the tail frequency."""
    from scipy.stats import binom

    sd = math.sqrt(p * (1.0 - p) * trials)
    lo = math.ceil(trials * p - K_SE * sd)
    hi = math.floor(trials * p + K_SE * sd)
    false_failure = float(binom.cdf(lo - 1, trials, p) + binom.sf(hi, trials, p))
    if false_failure >= FALSE_FAILURE_LIMIT:
        raise RuntimeError(
            f"tail band at p={p}, trials={trials} fails a correct stream with "
            f"probability {false_failure:.2e}; choose a larger event probability"
        )
    return K_SE * sd / trials


def _check_tail(got: float, p: float, trials: int, what: str) -> None:
    half = mc_band(p, trials)
    _require(abs(got - p) <= half, f"{what}: tail {got} is outside {p} +- {half}")


class TailTally:
    """Tail counts summed over a run's operations, checked once at the end.

    One operation's band is too wide to catch a mildly biased stream; the
    sum over all rounds, each with a fresh seed, narrows it.
    """

    def __init__(self):
        self.counts: dict[str, list] = {}  # what -> [exact p, hits, trials]

    def add(self, what: str, p: float, tail: float, trials: int) -> None:
        entry = self.counts.setdefault(what, [p, 0, 0])
        entry[1] += round(tail * trials)
        entry[2] += trials

    def check(self) -> None:
        for what, (p, hits, trials) in self.counts.items():
            _check_tail(hits / trials, p, trials, f"{what} summed over {trials} trials")


@dataclass(frozen=True)
class Op:
    """One command: its argv, the items it completes, and its output check."""

    name: str
    argv: tuple[str, ...]
    items: int
    check: Callable[[int, str], None]
    # the same argv in every round, so later outputs must equal the first
    repeatable: bool = True


def _draw_probs(rng: np.random.Generator) -> list[float]:
    probs = 0.05 + 0.8 * rng.dirichlet([2.0] * 4)
    return [float(v) for v in probs]


def _seed64(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _write(workdir: str, name: str, payload) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def _report(code: int, stdout: str) -> dict:
    _require(code == 0, f"exit code {code}, expected 0")
    return json.loads(stdout)


# ----------------------------------------------------------------------
# simulate generr / hyptest


def _generr_maker(workdir, tag, n, eta, trials, kind, probs, exact, tally=None):
    """``make(seed)`` gives the operation; the oracles run once, here."""
    learner = {"kind": kind, "hypothesisClass": HYPOTHESES, "tieBreak": "lowest-index"}
    epsilon = EPSILON if kind == oracles.EXPONENTIAL_MECHANISM else None
    if epsilon is not None:
        learner["epsilon"] = epsilon
    truth = oracles.TypeClassLearner(kind, HYPOTHESES, epsilon, probs, n)
    leakage = truth.leakage()
    event = truth.event_probability(eta)
    bound = oracles.gen_error_bound(n, eta, leakage)
    ledger = min(math.log(len(HYPOTHESES)), epsilon * n if epsilon is not None else math.inf)
    mc_band(event, trials)  # refuse a configuration the tail check cannot judge

    def check(code: int, stdout: str) -> None:
        report = _report(code, stdout)
        _close(report["exactLeakage_nats"], leakage, 1e-12, f"{tag} exactLeakage_nats")
        _close(report["theoreticalBound"], bound, 1e-12, f"{tag} theoreticalBound", relative=True)
        _close(report["ledgerBound_nats"], ledger, 1e-12, f"{tag} ledgerBound_nats", relative=True)
        if tally is not None:
            tally.add(f"{tag} empiricalTail", event, report["empiricalTail"], trials)
        _check_tail(report["empiricalTail"], event, trials, f"{tag} empiricalTail")
        _require(report["mcHalfWidth"] >= 0.0, f"{tag} negative mcHalfWidth")
        _require(event <= bound, f"{tag}: exact probability {event} exceeds bound {bound}")
        _require(report["pass"] is True, f"{tag} reports pass = {report['pass']}")

    def make(seed: int) -> Op:
        config = {"d": 2, "n": n, "dataDistribution": {"labels": BASE_LABELS, "probs": probs},
                  "learner": learner, "eta": eta, "trials": trials, "seed": seed}
        path = _write(workdir, f"{tag}.json", config)
        argv = ["simulate", "generr", "--config", path, "--workers", "1"]
        if exact:
            argv.append("--exact")
        return Op(tag, tuple(argv), 2 ** (2 * n) if exact else trials, check,
                  repeatable=tally is None)

    return make


def _hyptest_maker(workdir, tally=None):
    """``make(seed)`` gives the operation; the oracles run once, here."""
    n, t = HYPTEST["n"], HYPTEST["numStats"]
    adjusted_sigma = HYPTEST["delta"] * math.exp(-math.log(t))
    truth = {
        "adjusted": oracles.false_discovery_probability(n, t, adjusted_sigma),
        "raw": oracles.false_discovery_probability(n, t, HYPTEST["sigma"]),
    }
    for p in truth.values():
        mc_band(p, MC_TRIALS)

    def check(code: int, stdout: str) -> None:
        report = _report(code, stdout)
        _close(report["adjustedSigma"], adjusted_sigma, 1e-12, "adjustedSigma", relative=True)
        _close(report["ledgerBound_nats"], math.log(t), 1e-12, "hyptest ledgerBound_nats")
        _require(report["exactLeakage_nats"] is None, "hyptest exactLeakage_nats is not null")
        for key, level in (("adjusted", adjusted_sigma), ("raw", HYPTEST["sigma"])):
            part = report[key]
            _close(part["significance"], level, 1e-15, f"hyptest {key} significance", relative=True)
            _close(part["theoreticalBound"], t * level, 1e-12, f"hyptest {key} bound", relative=True)
            if tally is not None:
                tally.add(f"hyptest {key} tail", truth[key], part["empiricalTail"], MC_TRIALS)
            _check_tail(part["empiricalTail"], truth[key], MC_TRIALS, f"hyptest {key} tail")
            _require(part["pass"] is True, f"hyptest {key} reports pass = {part['pass']}")
        _require(
            report["adjusted"]["empiricalTail"] <= report["raw"]["empiricalTail"],
            "adjusted tail exceeds the raw tail",
        )
        _require(report["pass"] is True, "hyptest reports pass = false")

    def make(seed: int) -> Op:
        path = _write(workdir, "hyptest.json", dict(HYPTEST, trials=MC_TRIALS, seed=seed))
        argv = ("simulate", "hyptest", "--config", path, "--workers", "1")
        return Op("hyptest", argv, MC_TRIALS, check, repeatable=tally is None)

    return make


# ----------------------------------------------------------------------
# workloads


class Workload:
    """Inputs made once from the seed; ``round_ops(r)`` lists round r's operations."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed % 2**64
        self.workdir = workdir

    def rng(self, tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag])

    def round_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def expected_failures(self) -> set[str]:
        return set()

    def final_check(self) -> None:
        """Checks on the whole run, after its last round."""


class MonteCarlo(Workload):
    """Per-trial loops of both experiments on a 4^6-dataset learner.

    Every round runs the same configurations with fresh program seeds, so
    the tails of all rounds add up to one tight check at the end.
    """

    name = "montecarlo"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng(1)
        erm_probs, em_probs = _draw_probs(rng), _draw_probs(rng)
        self.tally = TailTally()
        self.makers = [
            _generr_maker(workdir, "generr-erm", MC_N, MC_ETA, MC_TRIALS, oracles.ERM,
                          erm_probs, exact=False, tally=self.tally),
            _generr_maker(workdir, "generr-em", MC_N, MC_ETA, MC_TRIALS,
                          oracles.EXPONENTIAL_MECHANISM, em_probs, exact=False, tally=self.tally),
            _hyptest_maker(workdir, tally=self.tally),
        ]
        # the worker-count identity check runs this smaller copy of generr-em
        em_argv = self.makers[1](_seed64(rng)).argv
        with open(em_argv[em_argv.index("--config") + 1], encoding="utf-8") as handle:
            small = dict(json.load(handle), trials=8 * 1024 + 7)
        self.identity_config = _write(workdir, "identity.json", small)

    def round_ops(self, index):
        seeds = np.random.SeedSequence([self.seed, 1, index]).generate_state(3, np.uint64)
        return [make(int(s) >> 1) for make, s in zip(self.makers, seeds)]

    def final_check(self):
        self.tally.check()


class Enumeration(Workload):
    """Full 4^n enumeration: exact generr at n=9 and measures on a 4^8-row channel."""

    name = "enumeration"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng(2)
        erm_probs, em_probs, prior_probs = _draw_probs(rng), _draw_probs(rng), _draw_probs(rng)
        self.ops = [
            _generr_maker(workdir, "exact-erm", ENUM_N, ENUM_ETA, ENUM_TRIALS, oracles.ERM,
                          erm_probs, exact=True)(_seed64(rng)),
            _generr_maker(workdir, "exact-em", ENUM_N, ENUM_ETA, ENUM_TRIALS,
                          oracles.EXPONENTIAL_MECHANISM, em_probs, exact=True)(_seed64(rng)),
            *self._measure_ops(prior_probs),
        ]

    def _measure_ops(self, probs) -> list[Op]:
        n = CHANNEL_N
        truth = oracles.TypeClassLearner(
            oracles.EXPONENTIAL_MECHANISM, HYPOTHESES, EPSILON, probs, n
        )
        # per-dataset rows: histogram of each dataset, then the mechanism
        counts = oracles.dataset_counts(len(BASE_LABELS), n)
        rows = oracles.learner_rows(
            oracles.EXPONENTIAL_MECHANISM, EPSILON, counts @ truth.loss
        )
        prior = np.exp(counts @ np.log(np.asarray(probs)))
        mass = prior[:, None] * rows
        labels = [",".join(t) for t in itertools.product(BASE_LABELS, repeat=n)]
        outputs = ["".join(map(str, h)) for h in HYPOTHESES]
        header = {"input_labels": labels, "output_labels": outputs}
        channel = _write(self.workdir, "channel8.json", {**header, "rows": rows.tolist()})
        joint = _write(self.workdir, "joint8.json", {**header, "mass": mass.tolist()})

        leakage = truth.leakage()
        dp = truth.empirical_dp()
        approx = oracles.approx_max_information(mass, BETA)
        _require(approx <= leakage + math.log(1.0 / BETA), "oracle violates L + log(1/beta)")

        def measured(code, stdout, what):
            report = _report(code, stdout)
            _require(report["measure"] == what, f"measure {what}: wrong report {report['measure']}")
            return report["nats"]

        def check_dp(code, stdout):
            _close(measured(code, stdout, "dp"), dp, 1e-9, "measure dp")

        def check_approx(code, stdout):
            value = measured(code, stdout, "approx-maxinfo")
            _close(value, approx, 1e-9, "measure approx-maxinfo")
            _require(value <= leakage + math.log(1.0 / BETA) + 1e-12,
                     "approximate max-information exceeds L + log(1/beta)")

        def check_ml(code, stdout):
            _close(measured(code, stdout, "ml"), leakage, 1e-12, "measure ml")

        rows_n = len(labels)
        return [
            Op("measure-dp", ("measure", "dp", "--channel", channel, "--product-base",
                              ",".join(BASE_LABELS), "--copies", str(n)), rows_n, check_dp),
            Op("measure-approx-maxinfo", ("measure", "approx-maxinfo", "--joint", joint,
                                          "--beta", repr(BETA)), rows_n, check_approx),
            Op("measure-ml", ("measure", "ml", "--channel", channel), rows_n, check_ml),
        ]

    def round_ops(self, index):
        return self.ops


class Sweeps(Workload):
    """Many small calls: verify sweeps, every bound, compose and small measures."""

    name = "sweeps"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng(3)
        self.fixed = [*self._bound_ops(rng), self._compose_op(rng), *self._measure_ops(rng),
                      self._nan_op()]

    def expected_failures(self):
        return {"generr-nan"}

    def round_ops(self, index):
        seeds = np.random.SeedSequence([self.seed, 3, index]).generate_state(3, np.uint64)
        verify = [self._verify_op(suite, int(s)) for suite, s in zip(SWEEP_INSTANCES, seeds)]
        return verify + self.fixed

    def _verify_op(self, suite: str, seed: int) -> Op:
        instances = SWEEP_INSTANCES[suite]
        fixed_counts = {
            "soundness": {"event_bound": instances},
            "composition": {name: instances for name in
                            ("post_processing", "two_step", "three_step", "conditional_chain")},
            "maxinfo": {"dominates_leakage": instances,
                        "enumeration_match": 4 * instances},
        }[suite]
        bounded_counts = {"leakage_budget": 4 * instances, "beta_monotone": 3 * instances}

        def check(code, stdout):
            report = _report(code, stdout)
            (result,) = report["suites"]
            _require(result["suite"] == suite and result["instances"] == instances,
                     f"verify {suite}: wrong suite header")
            _require(report["pass"] is True and result["pass"] is True, f"verify {suite} failed")
            _require(result["failures"] == [], f"verify {suite} kept failures")
            for name, check_json in result["checks"].items():
                _require(check_json["violations"] == 0, f"verify {suite}.{name} has violations")
                if name in fixed_counts:
                    _require(check_json["count"] == fixed_counts[name],
                             f"verify {suite}.{name} count {check_json['count']}")
                else:
                    _require(0 < check_json["count"] <= bounded_counts[name],
                             f"verify {suite}.{name} count {check_json['count']}")
            _require(set(fixed_counts) <= set(result["checks"]), f"verify {suite}: checks missing")
            if suite == "soundness":
                _require(0.0 <= result["diagonal_equality_gap"] <= 1e-10,
                         "diagonal equality gap too large")

        argv = ("verify", suite, "--instances", str(instances), "--seed", str(seed),
                "--workers", "1")
        return Op(f"verify-{suite}", argv, instances, check, repeatable=False)

    def _bound_ops(self, rng) -> list[Op]:
        u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
        cases = [
            ("adapt", {"max_fiber_prob": u(0.01, 0.2), "leakage": u(0.0, 2.0)}),
            ("generr", {"n": int(rng.integers(100, 1000)), "eta": u(0.05, 0.2),
                        "leakage": u(0.0, 3.0)}),
            ("generr-c", {"n": (n_c := int(rng.integers(100, 1000))), "eta": u(0.05, 0.2),
                          "sensitivity": u(0.5, 2.0) / n_c, "leakage": u(0.0, 3.0)}),
            ("hyptest", {"sigma": u(0.001, 0.01), "delta": u(0.01, 0.1), "leakage": u(0.0, 3.0)}),
            ("dwork", {"beta": u(0.001, 0.1), "epsilon": u(0.0, 0.2), "n": int(rng.integers(50, 500))}),
            ("mi", {"mutual_info": u(0.0, 2.0), "n": int(rng.integers(200, 1000)), "eta": u(0.1, 0.3)}),
            ("sample-complexity", {"value": u(0.0, 3.0), "eta": u(0.05, 0.2),
                                   "delta": u(0.01, 0.1), "mode": "leakage"}),
            ("sample-complexity", {"value": u(0.0, 3.0), "eta": u(0.05, 0.2),
                                   "delta": u(0.01, 0.1), "mode": "mutual-info"}),
        ]
        ops = []
        for theorem, args in cases:
            argv = ["bound", "--theorem", theorem]
            for key, value in args.items():
                argv += [f"--{key.replace('_', '-')}", value if isinstance(value, str) else repr(value)]
            want = oracles.bound_value(theorem, args)
            name = f"bound-{theorem}" + (f"-{args['mode']}" if theorem == "sample-complexity" else "")
            ops.append(Op(name, tuple(argv), 1, self._bound_check(theorem, args, want)))
        return ops

    @staticmethod
    def _bound_check(theorem, args, want):
        def check(code, stdout):
            report = _report(code, stdout)
            _close(report["value"], want, 1e-12, f"bound {theorem}", relative=True)
            if theorem != "sample-complexity":
                _require(report["trivial"] == (report["value"] >= 1.0), f"bound {theorem} trivial flag")
            if theorem == "hyptest":
                _close(report["adjustedSignificance"], args["delta"] * math.exp(-args["leakage"]),
                       1e-12, "adjustedSignificance", relative=True)
            if theorem == "generr-c":
                reference = 3.0 * math.exp(-args["eta"] ** 2 / (args["sensitivity"] ** 2 * args["n"]))
                _close(report["comparison"]["dp_reference_bound"], reference, 1e-12,
                       "dp_reference_bound", relative=True)
            if theorem == "dwork":
                ceiling = math.sqrt(math.log(1.0 / args["beta"]) / (2.0 * args["n"]))
                _require(report["flags"]["epsilon_within_validity"] == (args["epsilon"] <= ceiling),
                         "dwork validity flag")

        return check

    def _compose_op(self, rng) -> Op:
        entries = [{"label": f"prior{i}", "bound_nats": float(rng.uniform(0.0, 0.5)),
                    "provenance": {"kind": "declared"}} for i in range(4)]
        path = _write(self.workdir, "ledger.json", {"entries": entries})
        epsilon, n = float(rng.uniform(0.001, 0.01)), int(rng.integers(10, 100))
        k = int(rng.integers(2, 50))
        maxinfo, declared = float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 0.5))
        parts = [e["bound_nats"] for e in entries] + [epsilon * n, math.log(k), maxinfo, declared]
        want = math.fsum(parts)

        def check(code, stdout):
            report = _report(code, stdout)
            _require(len(report["entries"]) == len(parts), "compose: wrong entry count")
            _close(report["total_nats"], want, 1e-12, "compose total_nats", relative=True)

        argv = ("compose", "--ledger", path, "--dp", f"{epsilon!r},{n}", "--cardinality", str(k),
                "--maxinfo", repr(maxinfo), "--declared", repr(declared))
        return Op("compose", argv, 1, check)

    def _measure_ops(self, rng) -> list[Op]:
        rows = rng.random((8, 4)) * (rng.random((8, 4)) < 0.7) + 1e-3
        rows /= rows.sum(axis=1, keepdims=True)
        mass = rng.random((6, 3)) * (rng.random((6, 3)) < 0.7)
        mass.flat[0] += 0.1
        mass /= mass.sum()
        channel = _write(self.workdir, "small_channel.json", {
            "input_labels": [f"x{i}" for i in range(8)],
            "output_labels": [f"y{j}" for j in range(4)], "rows": rows.tolist()})
        joint = _write(self.workdir, "small_joint.json", {
            "input_labels": [f"x{i}" for i in range(6)],
            "output_labels": [f"y{j}" for j in range(3)], "mass": mass.tolist()})
        beta = float(rng.uniform(0.05, 0.3))
        want = {
            "ml": oracles.maximal_leakage(rows),
            "mi": oracles.mutual_information(mass),
            "maxinfo": oracles.max_information(mass),
            "approx-maxinfo": oracles.approx_max_information(mass, beta),
        }

        def checker(kind):
            def check(code, stdout):
                report = _report(code, stdout)
                _close(report["nats"], want[kind], 1e-12, f"measure {kind}", relative=True)
            return check

        return [
            Op("small-ml", ("measure", "ml", "--channel", channel), 1, checker("ml")),
            Op("small-mi", ("measure", "mi", "--joint", joint), 1, checker("mi")),
            Op("small-maxinfo", ("measure", "maxinfo", "--joint", joint), 1, checker("maxinfo")),
            Op("small-approx-maxinfo", ("measure", "approx-maxinfo", "--joint", joint,
                                        "--beta", repr(beta)), 1, checker("approx-maxinfo")),
        ]

    def _nan_op(self) -> Op:
        path = _write(self.workdir, "nan.json", NAN_CONFIG)
        learner = NAN_CONFIG["learner"]
        truth = oracles.TypeClassLearner(
            learner["kind"], learner["hypothesisClass"], learner["epsilon"],
            NAN_CONFIG["dataDistribution"]["probs"], NAN_CONFIG["n"],
        )

        def check(code, stdout):
            # reached only once the program handles this case without failing
            report = _report(code, stdout)
            _close(report["exactLeakage_nats"], truth.leakage(), 1e-12, "nan-case leakage")

        return Op("generr-nan", ("simulate", "generr", "--config", path, "--workers", "1"), 1, check)


WORKLOADS = {cls.name: cls for cls in (MonteCarlo, Enumeration, Sweeps)}
