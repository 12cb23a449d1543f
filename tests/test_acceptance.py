"""Acceptance suite: the package's headline guarantees, one test each.

Every test prints a single verdict line (visible with ``pytest -rA`` or
on failure) and enforces its stated runtime budget. The checks cover
closed forms, randomized soundness sweeps, the exact DP bridge, both
Monte Carlo experiments, the comparison tables, and determinism of the
reported JSON across worker counts.

One check, criterion 1d, asserts a published lower bound on the
budgeted max-information of a Bernoulli pair that is not attainable:
the product of the marginals carries (2 beta)^2 = 4 beta^2 mass at the
(1, 1) cell, not beta^2, so the true value is log(1/(4 beta)) for small
beta (and even smaller at beta = 0.4), strictly below the claimed
log(1/beta). The test states the claim as written and is expected to
fail; the exhaustive-enumeration oracle in the measures tests pins the
true values.
"""

import math
import time

import numpy as np
import pytest

from leakage_lab import (
    Channel,
    DiscreteDistribution,
    approx_max_information,
    approx_max_information_by_enumeration,
    data_alphabet,
    dwork_dp_bound,
    empirical_dp,
    gen_error_bound,
    joint_from,
    jsonio,
    learner_channel,
    maximal_leakage,
    mcdiarmid_tail,
    mutual_information,
    sample_complexity,
)
from leakage_lab.cli import main
from leakage_lab.simulate import (
    ERM,
    EXPONENTIAL_MECHANISM,
    GenErrConfig,
    HypTestConfig,
    LearnerSpec,
    run_gen_error_experiment,
    run_hyptest_experiment,
)
from leakage_lab.verify import sweep_composition, sweep_maxinfo, sweep_soundness

from conftest import (
    bec_channel,
    bernoulli_identity_joint,
    random_channel,
    random_distribution,
    uniform,
)

SEED = 20260814


def conclude(label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {label}: {verdict} ({detail})")
    assert ok, f"{label}: {detail}"


def test_criterion_01a_bec_leakage_closed_form():
    start = time.monotonic()
    worst = 0.0
    for alpha in [i / 10 for i in range(1, 10)]:
        got = maximal_leakage(bec_channel(alpha)).nats
        worst = max(worst, abs(got - math.log(2.0 - alpha)))
    elapsed = time.monotonic() - start
    conclude(
        "criterion 1a: erasure-channel leakage log(2 - alpha)",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst abs error {worst:.2e} over 9 grid points in {elapsed:.2f}s",
    )


def test_criterion_01b_bec_approx_maxinfo_closed_form():
    start = time.monotonic()
    worst = 0.0
    worst_enum = 0.0
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        joint = joint_from(uniform(["0", "1"]), bec_channel(alpha))
        for beta in (0.02, 0.05, 0.1, 0.2, 0.3):
            expected = math.log(
                2.0 * max((1 - alpha - beta) / (1 - alpha), (1 - beta) / (1 + alpha))
            )
            got = approx_max_information(joint, beta)
            worst = max(worst, abs(got - expected))
            worst_enum = max(
                worst_enum,
                abs(got - approx_max_information_by_enumeration(joint, beta)),
            )
    elapsed = time.monotonic() - start
    conclude(
        "criterion 1b: erasure-channel budgeted max-information closed form",
        worst <= 1e-9 and worst_enum <= 1e-12 and elapsed < 1.0,
        f"closed form off by {worst:.2e}, enumeration off by {worst_enum:.2e}, "
        f"5x5 grid in {elapsed:.2f}s",
    )


def test_criterion_01c_bernoulli_identity_leakage():
    start = time.monotonic()
    worst = 0.0
    for beta in (0.01, 0.1, 0.4):
        joint = bernoulli_identity_joint(2.0 * beta)
        channel = joint.channel()
        got = maximal_leakage(channel, joint.marginal_input().support()).nats
        worst = max(worst, abs(got - math.log(2.0)))
    elapsed = time.monotonic() - start
    conclude(
        "criterion 1c: Bernoulli identity pair leaks log 2",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst abs error {worst:.2e} in {elapsed:.2f}s",
    )


def test_criterion_01d_bernoulli_maxinfo_lower_bound():
    # stated target: budgeted max-information of (X, X) with
    # X ~ Ber(2 beta) is at least log(1/beta); see the module docstring
    # for why the measured values land below it
    start = time.monotonic()
    rows = []
    ok = True
    for beta in (0.01, 0.1, 0.4):
        joint = bernoulli_identity_joint(2.0 * beta)
        got = approx_max_information(joint, beta)
        claimed = math.log(1.0 / beta)
        ok = ok and got >= claimed - 1e-9
        rows.append(f"beta={beta}: measured {got:.6f} vs claimed >= {claimed:.6f}")
    elapsed = time.monotonic() - start
    conclude(
        "criterion 1d: Bernoulli budgeted max-information >= log(1/beta)",
        ok and elapsed < 1.0,
        "; ".join(rows) + f"; {elapsed:.2f}s",
    )


def test_criterion_02_event_bound_soundness_sweep():
    start = time.monotonic()
    result = sweep_soundness(1000, seed=SEED)
    gap = result["diagonal_equality_gap"]
    elapsed = time.monotonic() - start
    conclude(
        "criterion 2: event bound sound on 1000 random instances",
        result["pass"] and gap <= 1e-12 and elapsed < 10.0,
        f"violations {result['checks']['event_bound']['violations']}, "
        f"worst margin {result['checks']['event_bound']['worst_margin']:.2e}, "
        f"diagonal equality gap {gap:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_leakage_property_suite():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    range_ok = mi_ok = zero_ok = support_ok = True
    for _ in range(1000):
        nx = int(rng.integers(2, 9))
        ny = int(rng.integers(2, 9))
        channel = random_channel(rng, nx, ny)
        leakage = maximal_leakage(channel).nats
        range_ok = range_ok and 0.0 <= leakage <= math.log(min(nx, ny)) + 1e-12

        prior = random_distribution(rng, nx, allow_zeros=True)
        prior = DiscreteDistribution(channel.input, prior.probs)
        support = prior.support()
        restricted = maximal_leakage(channel, support).nats
        mi_ok = mi_ok and restricted >= mutual_information(joint_from(prior, channel)) - 1e-10

        # zero leakage exactly characterizes identical supported rows
        flat = Channel(channel.input, channel.output, np.tile(channel.rows[:1], (nx, 1)))
        zero_ok = zero_ok and maximal_leakage(flat).nats == 0.0
        if restricted == 0.0:
            spread = np.ptp(channel.rows[support], axis=0).max() if len(support) > 1 else 0.0
            zero_ok = zero_ok and spread < 1e-7

        # rows outside the support must not matter, bit for bit
        tampered_rows = channel.rows.copy()
        off_support = [i for i in range(nx) if i not in set(int(s) for s in support)]
        for i in off_support:
            tampered_rows[i] = np.full(ny, 1.0 / ny)
        tampered = Channel(channel.input, channel.output, tampered_rows)
        support_ok = support_ok and (
            maximal_leakage(tampered, support).nats == restricted
        )
    elapsed = time.monotonic() - start
    conclude(
        "criterion 3: leakage range, MI dominance, zero law, support dependence",
        range_ok and mi_ok and zero_ok and support_ok and elapsed < 10.0,
        f"range {range_ok}, >=MI {mi_ok}, zero-law {zero_ok}, "
        f"support-only {support_ok}, 1000 channels in {elapsed:.2f}s",
    )


def test_criterion_04_composition_suite():
    start = time.monotonic()
    result = sweep_composition(1000, seed=SEED)
    elapsed = time.monotonic() - start
    checks = result["checks"]
    detail = ", ".join(
        f"{name} worst {checks[name]['worst_margin']:.2e}" for name in sorted(checks)
    )
    conclude(
        "criterion 4: post-processing and adaptive composition on 1000 instances",
        result["pass"] and elapsed < 30.0,
        f"{detail}, {elapsed:.2f}s",
    )


def test_criterion_05_dp_bridge():
    start = time.monotonic()
    dist = DiscreteDistribution(data_alphabet(2), [0.4, 0.1, 0.3, 0.2])
    hypotheses = ((0, 0), (0, 1), (1, 0), (1, 1))
    mech = LearnerSpec(EXPONENTIAL_MECHANISM, hypotheses, epsilon=0.5)
    mech_channel = learner_channel(mech, 2, 4, dist)
    dp_value = empirical_dp(mech_channel)
    mech_leakage = maximal_leakage(mech_channel).nats

    erm_channel = learner_channel(LearnerSpec(ERM, hypotheses), 2, 4, dist)
    reachable = int((erm_channel.rows.max(axis=0) > 0).sum())
    erm_leakage = maximal_leakage(erm_channel).nats
    elapsed = time.monotonic() - start
    conclude(
        "criterion 5: DP bridge and deterministic-learner leakage",
        dp_value <= 0.5 + 1e-9
        and mech_leakage <= 2.0
        and erm_leakage == math.log(reachable)
        and elapsed < 30.0,
        f"empirical DP {dp_value:.4f} <= 0.5, mechanism leakage {mech_leakage:.4f} "
        f"<= 2.0, ERM leakage log({reachable}) exact, {elapsed:.2f}s",
    )


def test_criterion_06_maxinfo_budget_sweep():
    start = time.monotonic()
    result = sweep_maxinfo(500, seed=SEED)
    elapsed = time.monotonic() - start
    checks = result["checks"]
    conclude(
        "criterion 6: budgeted max-information vs leakage on 500 joints",
        result["pass"] and checks["enumeration_match"]["count"] > 0 and elapsed < 60.0,
        f"budget worst {checks['leakage_budget']['worst_margin']:.2e}, "
        f"enumeration checks {checks['enumeration_match']['count']} all within "
        f"{checks['enumeration_match']['tolerance']:.0e}, {elapsed:.2f}s",
    )


def test_criterion_07_generalization_experiment():
    start = time.monotonic()
    dist = DiscreteDistribution(data_alphabet(2), [0.4, 0.1, 0.3, 0.2])
    learner = LearnerSpec(ERM, ((0, 0), (0, 1), (1, 0), (1, 1)))
    config = GenErrConfig(2, 6, dist, learner, 0.45, 100_000, SEED)
    report = run_gen_error_experiment(config)
    expected_bound = gen_error_bound(6, 0.45, report["exactLeakage_nats"]).value

    constant = LearnerSpec(ERM, ((0, 1),))
    base_config = GenErrConfig(2, 6, dist, constant, 0.45, 100_000, SEED)
    base = run_gen_error_experiment(base_config)
    recovers = (
        base["exactLeakage_nats"] == 0.0
        and base["theoreticalBound"] == gen_error_bound(6, 0.45, 0.0).value
        and base["theoreticalBound"] == 2.0 * mcdiarmid_tail(6, 0.45, 1.0 / 6.0)
    )
    elapsed = time.monotonic() - start
    conclude(
        "criterion 7: generalization tail under the exact-leakage bound",
        report["pass"]
        and report["theoreticalBound"] == expected_bound
        and base["pass"]
        and recovers
        and elapsed < 120.0,
        f"ERM tail {report['empiricalTail']:.5f} (edge "
        f"{report['empiricalTail'] - report['mcHalfWidth']:.5f}) <= bound "
        f"{report['theoreticalBound']:.5f} at exact leakage "
        f"{report['exactLeakage_nats']:.4f}; constant learner recovers the "
        f"zero-leakage bound; 2x100k trials in {elapsed:.1f}s",
    )


def test_criterion_08_hypothesis_testing_experiment():
    start = time.monotonic()
    adjusted_config = HypTestConfig(64, 10, 0.005, 0.05, 100_000, SEED)
    adjusted_report = run_hyptest_experiment(adjusted_config)
    sigma_exact = abs(adjusted_report["adjustedSigma"] - 0.005) <= math.ulp(0.005)
    adjusted_edge = (
        adjusted_report["adjusted"]["empiricalTail"] - adjusted_report["adjusted"]["mcHalfWidth"]
    )

    raw_config = HypTestConfig(64, 8, 0.01, 0.05, 100_000, SEED)
    raw_report = run_hyptest_experiment(raw_config)
    raw_edge = raw_report["raw"]["empiricalTail"] - raw_report["raw"]["mcHalfWidth"]
    elapsed = time.monotonic() - start
    conclude(
        "criterion 8: post-selection false-discovery control",
        sigma_exact
        and adjusted_edge <= 0.05
        and adjusted_report["adjusted"]["pass"]
        and raw_edge <= 0.08
        and raw_report["raw"]["pass"]
        and elapsed < 120.0,
        f"adjusted sigma {adjusted_report['adjustedSigma']!r} (0.005 to 1 ulp), "
        f"10-test edge {adjusted_edge:.5f} <= 0.05, 8-test raw edge "
        f"{raw_edge:.5f} <= 0.08, 2x100k trials in {elapsed:.1f}s",
    )


def test_criterion_09_comparison_tables():
    start = time.monotonic()
    reference = dwork_dp_bound(0.01, 0.1, 100)
    value_ok = abs(reference.value - 0.3) <= 1e-9
    flag_ok = reference.flags["epsilon_within_validity"] is True
    crossover_ok = True
    for beta, n in ((0.01, 100), (0.04, 50), (0.25, 10)):
        report = dwork_dp_bound(beta, 0.01, n)
        crossover_ok = crossover_ok and report.inputs["crossover_epsilon"] == (
            pytest.approx(math.log(3.0 / math.sqrt(beta)) / n, rel=1e-12)
        )

    ratios = []
    for delta in (0.1, 0.01, 0.001):
        mi_cost = sample_complexity(1.0, 0.1, delta, mode="mutual-info")
        leak_cost = sample_complexity(1.0, 0.1, delta, mode="leakage")
        ratios.append(mi_cost / leak_cost)
    growth_ok = ratios[0] < ratios[1] < ratios[2] and all(
        later > 4.0 * earlier for earlier, later in zip(ratios, ratios[1:])
    )
    elapsed = time.monotonic() - start
    conclude(
        "criterion 9: reference-bound tables and sample-complexity gap",
        value_ok and flag_ok and crossover_ok and growth_ok and elapsed < 1.0,
        f"3*sqrt(0.01) = {reference.value:.12f} with validity flag, crossover "
        f"epsilon formula matches, MI/leakage cost ratios {ratios[0]:.1f} -> "
        f"{ratios[1]:.1f} -> {ratios[2]:.1f}, {elapsed:.2f}s",
    )


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    start = time.monotonic()
    dist = DiscreteDistribution(data_alphabet(2), [0.4, 0.1, 0.3, 0.2])
    learner = LearnerSpec(ERM, ((0, 0), (0, 1), (1, 0), (1, 1)))
    generr = GenErrConfig(2, 4, dist, learner, 0.3, 3000, SEED)
    generr_path = tmp_path / "generr.json"
    generr_path.write_text(jsonio.dumps(generr.to_json()) + "\n", encoding="utf-8")
    hyptest = HypTestConfig(64, 10, 0.005, 0.05, 3000, SEED)
    hyptest_path = tmp_path / "hyptest.json"
    hyptest_path.write_text(jsonio.dumps(hyptest.to_json()) + "\n", encoding="utf-8")

    commands = [
        ["simulate", "generr", "--config", str(generr_path)],
        ["simulate", "hyptest", "--config", str(hyptest_path)],
        ["verify", "all", "--instances", "50", "--seed", "7"],
    ]
    identical = True
    for argv in commands:
        outputs = []
        for workers in ("1", "3"):
            code = main(argv + ["--workers", workers])
            outputs.append(capsys.readouterr().out)
            identical = identical and code == 0
        identical = identical and outputs[0] == outputs[1]
    elapsed = time.monotonic() - start
    conclude(
        "criterion 10: byte-identical reports across worker counts",
        identical and elapsed < 60.0,
        f"simulate generr/hyptest and verify all, workers 1 vs 3, {elapsed:.1f}s",
    )
