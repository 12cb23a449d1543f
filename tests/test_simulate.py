"""Tests for the Monte Carlo experiments and their exact scaffolding."""

import csv
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from leakage_lab import (
    Alphabet,
    CapExceeded,
    DiscreteDistribution,
    LeakageLabError,
    adaptive_event_bound,
    data_alphabet,
    empirical_dp,
    exact_event_probability,
    fiber_max_prob,
    gen_error_bound,
    generalization_event,
    iid_prior,
    jsonio,
    learner_channel,
    maximal_leakage,
)
from leakage_lab import simulate
from leakage_lab.core import Channel, ProductAlphabet
from leakage_lab.simulate import (
    ERM,
    EXPONENTIAL_MECHANISM,
    P_VALUE_NOTE,
    GenErrConfig,
    HypTestConfig,
    LearnerSpec,
    _clopper_pearson_lower,
    _histogram_index,
    _histograms,
    _inverse_cdf_rows,
    _LearnerTables,
    _tail_check,
    _trial_seeds,
    _uniform_block,
    binomial_tail_table,
    derive_trial_seed,
    map_chunked,
    run_gen_error_experiment,
    run_hyptest_experiment,
    statistic_windows,
)

from conftest import exact_event_probability_by_fibers, tuple_at

FOUR_SYMBOLS = data_alphabet(2)


def skewed_dist():
    return DiscreteDistribution(FOUR_SYMBOLS, [0.4, 0.1, 0.3, 0.2])


def full_erm():
    return LearnerSpec(ERM, ((0, 0), (0, 1), (1, 0), (1, 1)))


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_trial_seed(42, 7) == derive_trial_seed(42, 7)
        assert derive_trial_seed(42, 7) != derive_trial_seed(43, 7)

    def test_no_collisions_over_a_million_trials(self):
        seeds = np.fromiter(
            (derive_trial_seed(20260814, i) for i in range(1_000_000)),
            dtype=np.uint64,
            count=1_000_000,
        )
        assert len(np.unique(seeds)) == len(seeds)

    def test_negative_index(self):
        with pytest.raises(LeakageLabError):
            derive_trial_seed(1, -1)

    @pytest.mark.parametrize("master", [0, 1, 20260814, 2**63 + 5, 2**64 - 1])
    def test_vectorized_seeds_match_scalar_derivation(self, master):
        count = 100_000
        expected = np.array(
            [derive_trial_seed(master, i) for i in range(count)], dtype=np.uint64
        )
        assert np.array_equal(_trial_seeds(master, 0, count), expected)
        assert np.array_equal(_trial_seeds(master, 4321, 5000), expected[4321:5000])


def splitmix_draw(seed, j):
    """Draw j of the stream seeded ``seed``, in plain Python integers."""
    mask = (1 << 64) - 1
    z = (seed + (j + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestUniformBlock:
    def test_entries_match_scalar_splitmix(self):
        seeds = [0, 1, 2**32 + 7, 2**63, 2**64 - 1, derive_trial_seed(99, 12)]
        width = 37
        block = _uniform_block(np.array(seeds, dtype=np.uint64), width)
        assert block.shape == (len(seeds), width)
        for i, seed in enumerate(seeds):
            for j in range(width):
                assert block[i, j] == (splitmix_draw(seed, j) >> 11) / 2.0**53

    def test_range(self):
        block = _uniform_block(_trial_seeds(5, 0, 2000), 50)
        assert block.min() >= 0.0 and block.max() < 1.0


def old_pick(tables, empirical, u):
    """The per-trial exponential-mechanism pick the vectorized one replaced."""
    shifted = empirical - min(empirical.tolist())
    weights = np.exp(-0.5 * tables.spec.epsilon * tables.n * shifted)
    cumulative = np.cumsum(weights)
    x = u * cumulative[-1]
    return int(min(np.searchsorted(cumulative, x, side="right"), len(weights) - 1))


class TestVectorizedLearner:
    def test_inverse_cdf_matches_searchsorted_with_ties(self):
        rng = np.random.default_rng(3)
        # small integer weights with zeros give repeated cumulative values;
        # u = 0 and u = cumulative[2] / total probe those ties
        weights = rng.integers(0, 3, size=(400, 6)).astype(np.float64)
        weights[:, 0] += weights.sum(axis=1) == 0
        cumulative = np.cumsum(weights, axis=1)
        u = rng.random(400)
        u[::2] = cumulative[::2, 2] / cumulative[::2, -1]
        u[1::4] = 0.0
        picks = _inverse_cdf_rows(cumulative, u)
        for i in range(len(u)):
            x = u[i] * cumulative[i, -1]
            expected = min(np.searchsorted(cumulative[i], x, side="right"), 5)
            assert picks[i] == expected

    @pytest.mark.parametrize("epsilon", [None, 0.5, 40.0, 3000.0])
    def test_learn_matches_per_trial_oracle(self, epsilon):
        # risks equal across hypotheses and weights that underflow to 0
        # give ties in both the ERM argmin and the mechanism's CDF
        hypotheses = ((0, 0), (0, 1), (1, 0), (1, 1))
        kind = ERM if epsilon is None else EXPONENTIAL_MECHANISM
        spec = LearnerSpec(kind, hypotheses, epsilon)
        n = 5
        tables = _LearnerTables(spec, 2, n, skewed_dist())
        u = _uniform_block(_trial_seeds(17, 0, 3000), n + 1)
        picks, empirical = tables.learn(u)
        for i in range(len(u)):
            symbols = np.minimum(
                np.searchsorted(tables.cum_probs, u[i, :n], side="right"), 3
            )
            risks = tables.loss01[symbols].mean(axis=0)
            h = int(np.argmin(risks)) if epsilon is None else old_pick(tables, risks, u[i, n])
            assert picks[i] == h
            assert empirical[i] == risks[h]


class TestMapChunked:
    def test_fixed_boundaries(self):
        ranges = map_chunked(lambda lo, hi: (lo, hi), 2500)
        assert ranges == [(0, 1024), (1024, 2048), (2048, 2500)]

    def test_short_input_is_one_chunk(self):
        assert map_chunked(lambda lo, hi: (lo, hi), 10) == [(0, 10)]

    @pytest.mark.parametrize(
        "per_trial,step",
        [(1, 1024), (64, 1024), (65, 1008), (5001, 13), (2**16, 1), (2**16 + 1, 1), (10**6, 1)],
    )
    def test_slices_hold_at_most_block_draws(self, per_trial, step):
        # at most 1024 trials and 2^16 draws per slice, but at least one trial
        total = 3000
        ranges = map_chunked(lambda lo, hi: (lo, hi), total, per_trial)
        expected = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
        assert ranges == expected


class TestTailCheck:
    @pytest.mark.parametrize("hits,trials", [(0, 1000), (1000, 1000), (37, 1000), (1, 3)])
    @pytest.mark.parametrize("bound", [0.0, 0.02, 0.5, 1.0])
    def test_matches_inline_rule(self, hits, trials, bound):
        # the rule each experiment used to apply inline
        empirical = hits / trials
        half_width = empirical - _clopper_pearson_lower(hits, trials)
        expected = (empirical, half_width, empirical - half_width <= bound)
        assert _tail_check(hits, trials, bound) == expected


class TestClopperPearson:
    def test_zero_successes(self):
        assert _clopper_pearson_lower(0, 100) == 0.0

    def test_all_successes(self):
        assert _clopper_pearson_lower(50, 50) == 0.01 ** (1.0 / 50)

    def test_matches_scipy_exact_interval(self):
        # one-sided 99% lower edge equals the lower end of the exact
        # two-sided 98% interval
        for successes, trials in ((5, 100), (1, 30), (250, 1000)):
            mine = _clopper_pearson_lower(successes, trials)
            reference = stats.binomtest(successes, trials).proportion_ci(
                confidence_level=0.98, method="exact"
            )
            assert mine == pytest.approx(reference.low, abs=1e-12)
            assert mine < successes / trials


class TestStatisticWindows:
    def test_width_rule(self):
        assert statistic_windows(64, 10).shape == (10, 8)
        assert statistic_windows(100, 4).shape == (4, 25)
        # width is clipped to n when n < 8
        assert statistic_windows(6, 3).shape == (3, 6)

    def test_coordinates_are_valid_and_distinct(self):
        for n, t in ((64, 10), (100, 4), (6, 3), (17, 5)):
            windows = statistic_windows(n, t)
            assert windows.min() >= 0
            assert windows.max() < n
            for row in windows:
                assert len(set(row.tolist())) == len(row)

    def test_even_starts(self):
        windows = statistic_windows(100, 4)
        assert windows[:, 0].tolist() == [0, 25, 50, 75]


class TestBinomialTailTable:
    def test_matches_scipy_survival_function(self):
        for m in (4, 8, 10, 16):
            table = binomial_tail_table(m)
            reference = stats.binom.sf(np.arange(m + 1) - 1, m, 0.5)
            assert np.max(np.abs(table - reference)) < 1e-15

    def test_edges(self):
        table = binomial_tail_table(10)
        assert table[0] == 1.0
        assert table[10] == 2.0 ** -10
        assert np.all(np.diff(table) < 0)


class TestLearnerSpec:
    def test_valid_erm(self):
        spec = full_erm()
        assert spec.domain_size == 2
        assert spec.epsilon is None

    def test_validation(self):
        with pytest.raises(LeakageLabError, match="kind"):
            LearnerSpec("SGD", ((0, 1),))
        with pytest.raises(LeakageLabError, match="empty"):
            LearnerSpec(ERM, ())
        with pytest.raises(LeakageLabError, match="domain size"):
            LearnerSpec(ERM, ((0, 1), (0, 1, 1)))
        with pytest.raises(LeakageLabError, match="distinct"):
            LearnerSpec(ERM, ((0, 1), (0, 1)))
        with pytest.raises(LeakageLabError, match="binary"):
            LearnerSpec(ERM, ((0, 2),))
        with pytest.raises(LeakageLabError, match="epsilon"):
            LearnerSpec(EXPONENTIAL_MECHANISM, ((0, 1),))
        with pytest.raises(LeakageLabError, match="tie break"):
            LearnerSpec.from_json({"kind": ERM, "hypothesisClass": [[0, 1]], "tieBreak": "random"})

    def test_json_round_trip(self):
        erm = full_erm()
        assert LearnerSpec.from_json(jsonio.loads(jsonio.dumps(erm.to_json()))) == erm
        mech = LearnerSpec(EXPONENTIAL_MECHANISM, ((0, 0), (1, 1)), epsilon=0.5)
        again = LearnerSpec.from_json(jsonio.loads(jsonio.dumps(mech.to_json())))
        assert again == mech
        assert "epsilon" not in erm.to_json()


class TestConfigs:
    def test_gen_err_validation(self):
        dist = skewed_dist()
        spec = full_erm()
        with pytest.raises(LeakageLabError):
            GenErrConfig(0, 4, dist, spec, 0.3, 100, 1)
        with pytest.raises(LeakageLabError):
            GenErrConfig(2, 0, dist, spec, 0.3, 100, 1)
        with pytest.raises(LeakageLabError):
            GenErrConfig(2, 4, dist, spec, 1.0, 100, 1)
        with pytest.raises(LeakageLabError):
            GenErrConfig(2, 4, dist, spec, 0.3, 0, 1)
        with pytest.raises(LeakageLabError, match="domain"):
            GenErrConfig(3, 4, dist, spec, 0.3, 100, 1)
        with pytest.raises(LeakageLabError, match="seed"):
            GenErrConfig(2, 4, dist, spec, 0.3, 100, -1)
        wrong = DiscreteDistribution(Alphabet(("a", "b", "c", "d")), [0.4, 0.1, 0.3, 0.2])
        with pytest.raises(LeakageLabError, match="canonical"):
            GenErrConfig(2, 4, wrong, spec, 0.3, 100, 1)

    def test_gen_err_round_trip(self):
        config = GenErrConfig(2, 4, skewed_dist(), full_erm(), 0.3, 100, 9)
        again = GenErrConfig.from_json(jsonio.loads(jsonio.dumps(config.to_json())))
        assert again == config

    def test_hyptest_validation(self):
        with pytest.raises(LeakageLabError):
            HypTestConfig(0, 5, 0.01, 0.05, 100, 1)
        with pytest.raises(LeakageLabError):
            HypTestConfig(64, 0, 0.01, 0.05, 100, 1)
        with pytest.raises(LeakageLabError):
            HypTestConfig(64, 5, 0.0, 0.05, 100, 1)
        with pytest.raises(LeakageLabError):
            HypTestConfig(64, 5, 0.01, 1.0, 100, 1)
        with pytest.raises(LeakageLabError):
            HypTestConfig(64, 5, 0.01, 0.05, 0, 1)
        with pytest.raises(LeakageLabError, match="seed"):
            HypTestConfig(64, 5, 0.01, 0.05, 100, 2 ** 64)

    def test_hyptest_round_trip(self):
        config = HypTestConfig(64, 10, 0.005, 0.05, 100, 9)
        again = HypTestConfig.from_json(jsonio.loads(jsonio.dumps(config.to_json())))
        assert again == config


class TestLearnerChannel:
    def test_singleton_class_leaks_nothing(self):
        spec = LearnerSpec(ERM, ((0, 1),))
        channel = learner_channel(spec, 2, 3, skewed_dist())
        assert maximal_leakage(channel).nats == 0.0

    def test_erm_rows_match_hand_enumeration(self):
        # independent oracle: re-derive every dataset's empirical risks
        # from the symbol labels with plain Python loops
        dist = skewed_dist()
        spec = full_erm()
        channel = learner_channel(spec, 2, 2, dist)
        product = channel.input
        for k in range(len(product)):
            risks = []
            for h in spec.hypotheses:
                misses = 0
                for symbol in tuple_at(product, k):
                    point, label = symbol.split(":")
                    misses += h[int(point[1:])] != int(label)
                risks.append(misses / len(tuple_at(product, k)))
            best = risks.index(min(risks))
            expected = np.zeros(len(spec.hypotheses))
            expected[best] = 1.0
            assert channel.rows[k].tolist() == expected.tolist()

    def test_deterministic_leakage_counts_reachable_outputs(self):
        dist = skewed_dist()
        channel = learner_channel(full_erm(), 2, 2, dist)
        reachable = int((channel.rows.max(axis=0) > 0).sum())
        assert maximal_leakage(channel).nats == math.log(reachable)
        assert reachable == 4

    def test_exponential_mechanism_respects_epsilon(self):
        spec = LearnerSpec(
            EXPONENTIAL_MECHANISM, ((0, 0), (0, 1), (1, 0), (1, 1)), epsilon=0.5
        )
        channel = learner_channel(spec, 2, 4, skewed_dist())
        assert empirical_dp(channel) <= 0.5 + 1e-9
        budget = min(0.5 * 4, math.log(4.0))
        assert maximal_leakage(channel).nats <= budget + 1e-10

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("LEAKAGE_LAB_CAP", "1000")
        with pytest.raises(CapExceeded):
            learner_channel(full_erm(), 2, 8, skewed_dist())


def per_dataset_oracle(spec, d, n, dist):
    """Dataset alphabet, (N, H) empirical risks and learner rows, one dataset at a time.

    Each dataset's risks are the mean of its symbols' 0/1 losses, gathered
    from the digit matrix; no histogram is formed.
    """
    tables = _LearnerTables(spec, d, n, dist)
    product = ProductAlphabet(dist.alphabet, n)
    empirical = tables.loss01[product.digit_matrix()].mean(axis=1)
    if spec.kind == ERM:
        rows = np.zeros_like(empirical)
        rows[np.arange(len(product)), np.argmin(empirical, axis=1)] = 1.0
    else:
        rows = empirical - empirical.min(axis=1, keepdims=True)
        rows *= -0.5 * spec.epsilon * n
        np.exp(rows, out=rows)
        rows /= rows.sum(axis=1, keepdims=True)
    return product, empirical, rows


ZERO_SYMBOL_DIST = DiscreteDistribution(FOUR_SYMBOLS, [0.5, 0.0, 0.3, 0.2])


class TestTypeKernel:
    @pytest.mark.parametrize("symbols,n", [(2, 1), (2, 7), (4, 1), (4, 5), (6, 3)])
    def test_histograms_are_every_multiset_in_lexicographic_order(self, symbols, n):
        counts = _histograms(symbols, n)
        expected = sorted(
            tuple(combo.count(s) for s in range(symbols))
            for combo in itertools.combinations_with_replacement(range(symbols), n)
        )
        assert [tuple(row) for row in counts.tolist()] == expected
        assert len(counts) == math.comb(n + symbols - 1, symbols - 1)
        assert np.array_equal(_histogram_index(counts), np.arange(len(counts)))

    def test_index_of_every_dataset(self):
        product = ProductAlphabet(FOUR_SYMBOLS, 5)
        digits = product.digit_matrix()
        counts = np.stack([(digits == s).sum(axis=1) for s in range(4)], axis=1)
        index = _histogram_index(counts)
        assert np.array_equal(_histograms(4, 5)[index], counts)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("dist", [skewed_dist(), ZERO_SYMBOL_DIST], ids=["skewed", "zero"])
    @pytest.mark.parametrize(
        "hypotheses", [((0, 1),), ((0, 0), (0, 1), (1, 0), (1, 1))], ids=["singleton", "full"]
    )
    @pytest.mark.parametrize("epsilon", [None, 0.5, 40.0, 3000.0])
    def test_rows_and_leakage_match_per_dataset_oracle(self, n, dist, hypotheses, epsilon):
        kind = ERM if epsilon is None else EXPONENTIAL_MECHANISM
        spec = LearnerSpec(kind, hypotheses, epsilon)
        product, empirical, rows = per_dataset_oracle(spec, 2, n, dist)
        channel = learner_channel(spec, 2, n, dist)
        assert channel.input == product
        assert np.array_equal(channel.rows, rows)
        joint, event = generalization_event(spec, 2, n, dist, 0.3)
        tables = _LearnerTables(spec, 2, n, dist)
        assert np.array_equal(event.mask, np.abs(tables.true_risk - empirical) > 0.3)
        prior = iid_prior(dist, n)
        assert np.array_equal(joint.mass, prior.probs[:, None] * rows)

        support = np.flatnonzero(prior.probs > 0.0)
        oracle = maximal_leakage(Channel(product, tables.hypothesis_alphabet, rows), support)
        config = GenErrConfig(2, n, dist, spec, 0.3, 16, 5)
        report = run_gen_error_experiment(config, require_exact=True)
        assert report.exact_leakage_nats == oracle.nats

    def test_exact_leakage_builds_no_dataset_alphabet(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ProductAlphabet built")

        monkeypatch.setattr(ProductAlphabet, "__init__", refuse)
        spec = LearnerSpec(EXPONENTIAL_MECHANISM, ((0, 0), (0, 1), (1, 0), (1, 1)), 0.5)
        config = GenErrConfig(2, 100, skewed_dist(), spec, 0.2, 100, 5)
        report = run_gen_error_experiment(config, require_exact=True)
        assert math.isfinite(report.exact_leakage_nats)
        assert report.exact_leakage_nats <= report.ledger_bound_nats

    def test_cap_counts_histograms(self, monkeypatch):
        # d = 2, n = 8: 4^8 = 65536 datasets but C(11, 3) = 165 histograms
        config = GenErrConfig(2, 8, skewed_dist(), full_erm(), 0.3, 10, 1)
        monkeypatch.setenv("LEAKAGE_LAB_CAP", "165")
        exact = run_gen_error_experiment(config, require_exact=True)
        assert exact.exact_leakage_nats == math.log(4.0)
        monkeypatch.setenv("LEAKAGE_LAB_CAP", "164")
        with pytest.raises(CapExceeded, match="165 dataset histograms exceed the cap 164"):
            run_gen_error_experiment(config, require_exact=True)

    def test_non_finite_rows_fail_loudly(self):
        # epsilon * n / 2 overflows, so a zero risk gap times it is NaN
        spec = LearnerSpec(EXPONENTIAL_MECHANISM, ((0, 0), (1, 1)), 1e308)
        with np.errstate(invalid="ignore"):
            with pytest.raises(LeakageLabError, match="non-finite"):
                learner_channel(spec, 2, 4, skewed_dist())
        with pytest.raises(LeakageLabError, match="overflows"):
            GenErrConfig(2, 4, skewed_dist(), spec, 0.3, 10, 1)


class TestGeneralizationEvent:
    def test_event_bound_is_sound(self):
        dist = skewed_dist()
        for spec, n, eta in (
            (full_erm(), 3, 0.3),
            (LearnerSpec(ERM, ((0, 1), (1, 0))), 4, 0.25),
            (
                LearnerSpec(
                    EXPONENTIAL_MECHANISM, ((0, 0), (0, 1), (1, 1)), epsilon=0.8
                ),
                3,
                0.35,
            ),
        ):
            joint, event = generalization_event(spec, 2, n, dist, eta)
            exact = exact_event_probability(joint, event)
            assert exact == pytest.approx(
                exact_event_probability_by_fibers(joint, event), abs=1e-12
            )
            prior = iid_prior(dist, n)
            channel = learner_channel(spec, 2, n, dist)
            leakage = maximal_leakage(channel, prior.support()).nats
            bound = adaptive_event_bound(fiber_max_prob(event, prior), leakage)
            assert exact <= bound.value + 1e-12


class TestGenErrorExperiment:
    def test_constant_learner_recovers_exact_probability(self):
        # one hypothesis: zero leakage, and the empirical tail estimates
        # a plain i.i.d. deviation probability we can compute exactly
        dist = skewed_dist()
        spec = LearnerSpec(ERM, ((0, 1),))
        config = GenErrConfig(2, 6, dist, spec, 0.25, 20000, 7)
        report = run_gen_error_experiment(config)
        assert report.exact_leakage_nats == 0.0
        assert report.theoretical_bound == gen_error_bound(6, 0.25, 0.0).value
        joint, event = generalization_event(spec, 2, 6, dist, 0.25)
        exact = exact_event_probability(joint, event)
        sigma = math.sqrt(exact * (1.0 - exact) / config.trials)
        assert abs(report.empirical_tail - exact) < 5.0 * sigma + 1e-3
        assert report.passed

    def test_seed_changes_the_sample(self):
        base = GenErrConfig(2, 4, skewed_dist(), full_erm(), 0.3, 2000, 1)
        other = GenErrConfig(2, 4, skewed_dist(), full_erm(), 0.3, 2000, 2)
        assert (
            run_gen_error_experiment(base).empirical_tail
            != run_gen_error_experiment(other).empirical_tail
        )

    def test_trace_is_deterministic(self, tmp_path):
        config = GenErrConfig(2, 4, skewed_dist(), full_erm(), 0.3, 1500, 11)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_gen_error_experiment(config, trace_path=str(first))
        run_gen_error_experiment(config, trace_path=str(second))
        assert first.read_bytes() == second.read_bytes()
        with open(first, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["trial", "hypothesis", "empirical_risk", "gap", "exceeds"]
        assert len(rows) == config.trials + 1

    @pytest.mark.parametrize("epsilon", [None, 0.5])
    def test_block_size_does_not_change_results(self, tmp_path, monkeypatch, epsilon):
        kind = ERM if epsilon is None else EXPONENTIAL_MECHANISM
        spec = LearnerSpec(kind, ((0, 0), (0, 1), (1, 0), (1, 1)), epsilon)
        config = GenErrConfig(2, 5, skewed_dist(), spec, 0.3, 2500, 11)
        default = tmp_path / "default.csv"
        report = run_gen_error_experiment(config, trace_path=str(default))
        for block in (1, 7, 100):
            monkeypatch.setattr(simulate, "_BLOCK_DRAWS", block)
            sliced = tmp_path / f"{block}.csv"
            again = run_gen_error_experiment(config, trace_path=str(sliced))
            assert jsonio.dumps(again.to_json()) == jsonio.dumps(report.to_json())
            assert sliced.read_bytes() == default.read_bytes()

    def test_require_exact_honors_cap(self, monkeypatch):
        # the cap counts the C(11, 3) = 165 histograms of 8 draws over 4 symbols
        config = GenErrConfig(2, 8, skewed_dist(), full_erm(), 0.3, 10, 1)
        monkeypatch.setenv("LEAKAGE_LAB_CAP", "100")
        with pytest.raises(CapExceeded, match="exceed the cap"):
            run_gen_error_experiment(config, require_exact=True)

    def test_ledger_fallback_above_cap(self, monkeypatch):
        # past the enumeration cap the report falls back to the ledger
        # budget, here log of the hypothesis count
        config = GenErrConfig(2, 8, skewed_dist(), full_erm(), 0.3, 200, 1)
        monkeypatch.setenv("LEAKAGE_LAB_CAP", "100")
        report = run_gen_error_experiment(config)
        assert report.exact_leakage_nats is None
        assert report.ledger_bound_nats == math.log(4.0)
        assert report.theoretical_bound == gen_error_bound(8, 0.3, math.log(4.0)).value

    def test_exponential_mechanism_bound_decreases_with_n(self):
        spec = LearnerSpec(
            EXPONENTIAL_MECHANISM, ((0, 0), (0, 1), (1, 0), (1, 1)), epsilon=0.5
        )
        bounds = []
        for n in (4, 6, 8):
            config = GenErrConfig(2, n, skewed_dist(), spec, 0.6, 16, 3)
            bounds.append(run_gen_error_experiment(config).theoretical_bound)
        assert bounds == sorted(bounds, reverse=True)


class TestHypTestExperiment:
    def test_single_statistic_is_classical_testing(self):
        # T = 1 means no selection: zero ledger bound and no adjustment
        config = HypTestConfig(16, 1, 0.05, 0.05, 4096, 5)
        report = run_hyptest_experiment(config)
        assert report.ledger_bound_nats == 0.0
        assert report.adjusted_sigma == 0.05
        assert report.adjusted == report.raw
        assert report.passed

    def test_ten_statistics_with_adjustment(self):
        config = HypTestConfig(64, 10, 0.005, 0.05, 4096, 5)
        report = run_hyptest_experiment(config)
        assert report.adjusted_sigma == 0.004999999999999999
        assert report.ledger_bound_nats == math.log(10.0)
        assert report.adjusted.theoretical_bound == pytest.approx(0.05, rel=1e-12)
        assert report.passed

    def test_trace_rows(self, tmp_path):
        config = HypTestConfig(32, 4, 0.01, 0.05, 500, 5)
        trace = tmp_path / "trace.csv"
        run_hyptest_experiment(config, trace_path=str(trace))
        with open(trace, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["trial", "selected", "p_value", "reject_adjusted", "reject_raw"]
        assert len(rows) == config.trials + 1

    def test_block_size_does_not_change_results(self, tmp_path, monkeypatch):
        config = HypTestConfig(40, 6, 0.01, 0.05, 2500, 5)
        default = tmp_path / "default.csv"
        report = run_hyptest_experiment(config, trace_path=str(default))
        for block in (1, 45, 500):
            monkeypatch.setattr(simulate, "_BLOCK_DRAWS", block)
            sliced = tmp_path / f"{block}.csv"
            again = run_hyptest_experiment(config, trace_path=str(sliced))
            assert jsonio.dumps(again.to_json()) == jsonio.dumps(report.to_json())
            assert sliced.read_bytes() == default.read_bytes()

    def test_report_json_shape(self):
        config = HypTestConfig(16, 2, 0.05, 0.05, 256, 5)
        payload = run_hyptest_experiment(config).to_json()
        assert payload["exactLeakage_nats"] is None
        assert payload["ledgerBound_nats"] == math.log(2.0)
        assert payload["note"] == P_VALUE_NOTE
        assert set(payload["adjusted"]) == {
            "significance",
            "empiricalTail",
            "mcHalfWidth",
            "theoreticalBound",
            "pass",
        }
