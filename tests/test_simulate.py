"""Tests for the Monte Carlo experiments and their exact scaffolding."""

import csv
import itertools
import json
import math
import re
import tracemalloc

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
from leakage_lab import _stream
from leakage_lab.core import Channel, ProductAlphabet
from leakage_lab.simulate import (
    ERM,
    EXPONENTIAL_MECHANISM,
    P_VALUE_NOTE,
    GenErrConfig,
    HypTestConfig,
    LearnerSpec,
    _clopper_pearson_lower,
    _first_max,
    _histograms,
    _inverse_cdf,
    _key_dtype,
    _LearnerTables,
    _tail_check,
    _tally,
    _trial_seeds,
    _uniform_block,
    _window_masks,
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
        seeds = _trial_seeds(20260814, 0, 1_000_000)
        assert len(np.unique(seeds)) == len(seeds)

    def test_negative_index(self):
        with pytest.raises(LeakageLabError):
            derive_trial_seed(1, -1)

    @pytest.mark.parametrize("master", [-1, 2**64])
    def test_master_seed_outside_64_bits(self, master):
        with pytest.raises(LeakageLabError, match="64-bit"):
            derive_trial_seed(master, 0)

    @pytest.mark.parametrize("master", [0, 1, 20260814, 2**63 + 5, 2**64 - 1])
    def test_vectorized_seeds_match_scalar_derivation(self, master):
        count = 100_000
        expected = np.array([splitmix_draw(master, i) for i in range(count)], dtype=np.uint64)
        assert np.array_equal(_trial_seeds(master, 0, count), expected)
        assert np.array_equal(_trial_seeds(master, 4321, 5000), expected[4321:5000])
        assert derive_trial_seed(master, 4321) == int(expected[4321])


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
        assert block.shape == (width, len(seeds))
        for i, seed in enumerate(seeds):
            for j in range(width):
                assert block[j, i] == (splitmix_draw(seed, j) >> 11) / 2.0**53

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


def per_trial_oracle(tables, u):
    """Picks and risks one trial (column of draw-major ``u``) at a time, by searchsorted."""
    n = tables.n
    picks, risks_of_picks = [], []
    for i in range(u.shape[1]):
        symbols = np.minimum(
            np.searchsorted(tables.cum_probs, u[:n, i], side="right"), len(tables.cum_probs) - 1
        )
        risks = tables.loss01[symbols].mean(axis=0)
        if tables.spec.kind == ERM:
            h = int(np.argmin(risks))
        else:
            h = old_pick(tables, risks, u[n, i])
        picks.append(h)
        risks_of_picks.append(risks[h])
    return picks, risks_of_picks


class TestVectorizedLearner:
    def test_inverse_cdf_matches_searchsorted_with_ties(self):
        rng = np.random.default_rng(3)
        # small integer weights with zeros give repeated cumulative values;
        # u = 0 and u = cumulative[2] / total probe those ties
        weights = rng.integers(0, 3, size=(6, 400)).astype(np.float64)
        weights[0] += weights.sum(axis=0) == 0
        cumulative = np.cumsum(weights, axis=0)
        u = rng.random(400)
        u[::2] = cumulative[2, ::2] / cumulative[-1, ::2]
        u[1::4] = 0.0
        picks = _inverse_cdf(cumulative, u)
        for i in range(len(u)):
            x = u[i] * cumulative[-1, i]
            expected = min(np.searchsorted(cumulative[:, i], x, side="right"), 5)
            assert picks[i] == expected

    @pytest.mark.parametrize("epsilon", [None, 0.5, 40.0, 3000.0])
    def test_learn_matches_per_trial_oracle(self, epsilon):
        # risks equal across hypotheses and weights that underflow to 0
        # give ties in both the ERM argmin and the mechanism's CDF
        hypotheses = ((0, 0), (0, 1), (1, 0), (1, 1))
        kind = ERM if epsilon is None else EXPONENTIAL_MECHANISM
        spec = LearnerSpec(kind, hypotheses, epsilon)
        n = 5
        tables = _LearnerTables(spec, n, skewed_dist())
        u = _uniform_block(_trial_seeds(17, 0, 3000), n + 1)
        picks, empirical = tables.learn(u)
        for i in range(u.shape[1]):
            symbols = np.minimum(
                np.searchsorted(tables.cum_probs, u[:n, i], side="right"), 3
            )
            risks = tables.loss01[symbols].mean(axis=0)
            h = int(np.argmin(risks)) if epsilon is None else old_pick(tables, risks, u[n, i])
            assert picks[i] == h
            assert empirical[i] == risks[h]
        # a slice too short for whole-row risks, stored column by column
        few_picks, few_empirical = tables.learn(u[:, :100])
        assert np.array_equal(few_picks, picks[:100])
        assert np.array_equal(few_empirical, empirical[:100])

    def test_inverse_cdf_counts_past_a_byte(self):
        # 300 rows: the count of rows at or below a target reaches 300,
        # past what a uint8 holds, in either layout of the cumulative sums
        rng = np.random.default_rng(4)
        weights = rng.integers(0, 3, size=(300, 500)).astype(np.float64)
        weights[0] += weights.sum(axis=0) == 0
        cumulative = np.cumsum(weights, axis=0)
        u = rng.random(500)
        u[::2] = cumulative[280, ::2] / cumulative[-1, ::2]
        u[1::4] = 0.0
        u[3::8] = 1.0 - 2.0**-53
        expected = [
            min(np.searchsorted(cumulative[:, i], u[i] * cumulative[-1, i], side="right"), 299)
            for i in range(len(u))
        ]
        assert max(expected) == 299
        for layout in (cumulative, np.asfortranarray(cumulative)):
            picks = _inverse_cdf(layout, u)
            assert picks.dtype == np.intp
            assert picks.tolist() == expected

    @pytest.mark.parametrize("epsilon", [None, 0.05])
    @pytest.mark.parametrize("n", [255, 256])
    def test_learn_matches_per_trial_oracle_past_a_byte(self, n, epsilon):
        # n = 255 symbol tallies fit a uint8 and n = 256 do not. Under the
        # second distribution every label is 0, so hypothesis (1, 1)
        # mislabels all n draws: a pick over mistake counts cut to a byte
        # would see 0 mistakes at n = 256 and take it, as it is listed first
        kind = ERM if epsilon is None else EXPONENTIAL_MECHANISM
        spec = LearnerSpec(kind, ((1, 1), (0, 0), (0, 1), (1, 0)), epsilon)
        u = _uniform_block(_trial_seeds(5, 0, 600), n + 1)
        for dist in (skewed_dist(), DiscreteDistribution(FOUR_SYMBOLS, [0.6, 0.0, 0.4, 0.0])):
            tables = _LearnerTables(spec, n, dist)
            expected_picks, expected_risks = per_trial_oracle(tables, u)
            # 600 trials store their risks row by row, 100 column by column
            for cols in (600, 100):
                picks, empirical = tables.learn(u[:, :cols])
                assert picks.tolist() == expected_picks[:cols]
                assert empirical.tolist() == expected_risks[:cols]

    @pytest.mark.parametrize(
        "hypotheses,n",
        # n - mistakes over H rows fits uint8 keys at the first n and needs
        # uint16 at the second; H = 22 is the most whole rows a slice holds
        [(1, 255), (1, 256), (2, 127), (2, 128), (4, 63), (4, 64), (8, 31), (8, 32),
         (22, 7), (22, 8)],
    )
    def test_erm_pick_agrees_in_both_layouts(self, hypotheses, n):
        # synthetic mistake counts with ties, at 0 and at n, picked by the
        # whole-rows branch (all columns at once), by the column branch (in
        # slices too short for whole rows) and by a per-column oracle
        spec = LearnerSpec(ERM, tuple(itertools.product((0, 1), repeat=5))[:hypotheses])
        dist = DiscreteDistribution(data_alphabet(5), [0.1] * 10)
        tables = _LearnerTables(spec, n, dist)
        rng = np.random.default_rng(hypotheses * 1000 + n)
        cols = 128 * hypotheses + 37
        mistakes = rng.choice([0, 1, n // 2, n - 1, n], size=(hypotheses, cols))
        mistakes[:, :5] = n
        mistakes[:, 5:10] = 0
        mistakes = mistakes.astype(np.float32)
        expected = [(column.index(min(column)), min(column)) for column in mistakes.T.tolist()]
        picks, least = tables._lowest_minimizer(mistakes)
        assert list(zip(picks.tolist(), np.asarray(least, dtype=float).tolist())) == expected
        step = 128 * hypotheses - 1
        for lo in range(0, cols, step):
            few_picks, few_least = tables._lowest_minimizer(mistakes[:, lo:lo + step])
            assert few_picks.tolist() == picks[lo:lo + step].tolist()
            assert (np.divide(few_least, n, dtype=np.float64).tobytes()
                    == np.divide(least[lo:lo + step], n, dtype=np.float64).tobytes())

    @pytest.mark.parametrize("epsilon", [None, 0.5])
    @pytest.mark.parametrize("trials", [2000, 7])
    def test_zero_probability_symbol_and_draws_on_cut_points(self, epsilon, trials):
        # symbol 1 has probability 0, so cut points 0 and 1 coincide, and the
        # total falls short of 1; draws sit on, just below and just above
        # each cut, at 0 and at the largest uniform below 1
        dist = DiscreteDistribution(FOUR_SYMBOLS, [0.5, 0.0, 0.3, 0.2 - 5e-10])
        kind = ERM if epsilon is None else EXPONENTIAL_MECHANISM
        spec = LearnerSpec(kind, ((0, 0), (0, 1), (1, 0), (1, 1)), epsilon)
        n = 5
        tables = _LearnerTables(spec, n, dist)
        assert tables.cum_probs[0] == tables.cum_probs[1] and tables.cum_probs[-1] < 1.0
        cuts = tables.cum_probs.tolist()
        pool = [0.0, 1.0 - 2.0**-53]
        pool += [np.nextafter(c, side) for c in cuts for side in (0.0, 1.0)] + cuts
        rng = np.random.default_rng(8)
        u = rng.choice(np.array(pool), size=(n + 1, trials))
        u[n] = rng.random(trials)
        picks, empirical = tables.learn(u)
        expected_picks, expected_risks = per_trial_oracle(tables, u)
        assert picks.tolist() == expected_picks
        assert empirical.tolist() == expected_risks

    @pytest.mark.parametrize("n", [2**24, 2**24 + 1])
    def test_risks_are_exact_mistake_counts_over_n(self, n):
        # float32 holds every integer up to 2^24 but not 2^24 + 1, so a
        # float32 product at n = 2^24 + 1 would round the largest mistake count
        tables = _LearnerTables(full_erm(), n, skewed_dist())
        counts = np.array([[n - 3, 1, 1, 1], [n, 0, 0, 0], [0, 0, 1, n - 1]]).T
        expected = (counts.T @ tables.loss01 / n).T
        for rows in (counts, np.tile(counts, 600)):
            risks = tables.risks(rows)
            assert np.array_equal(risks, np.tile(expected, rows.shape[1] // 3))


class TestMapChunked:
    def test_fixed_boundaries(self):
        ranges = map_chunked(lambda lo, hi: (lo, hi), 150_000)
        assert ranges == [(0, 65536), (65536, 131072), (131072, 150_000)]

    def test_short_input_is_one_chunk(self):
        assert map_chunked(lambda lo, hi: (lo, hi), 10) == [(0, 10)]

    @pytest.mark.parametrize(
        "per_trial,step",
        [(1, 65536), (64, 1024), (65, 1008), (5001, 13), (2**16, 1), (2**16 + 1, 1), (10**6, 1)],
    )
    def test_slices_hold_at_most_block_draws(self, per_trial, step):
        # at most 2^16 draws per slice, but at least one trial
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

    def test_matches_per_coordinate_oracle(self):
        # window j starts at floor(j n / T) and holds the next w coordinates mod n
        for n, t in ((1, 1), (6, 3), (7, 3), (8, 9), (64, 17), (100, 4), (5000, 10), (997, 333)):
            width = min(n, max(8, n // t))
            expected = [[((j * n) // t + i) % n for i in range(width)] for j in range(t)]
            windows = statistic_windows(n, t)
            assert windows.dtype == np.intp
            assert windows.tolist() == expected

    def test_table_past_the_cap_is_refused(self, monkeypatch):
        # 10 windows of 8 coins make 80 entries; the check runs before any allocation
        monkeypatch.setenv("LEAKAGE_LAB_CAP", "79")
        with pytest.raises(CapExceeded, match=r"numStats = 10 .* n = 64 .* the cap 79"):
            statistic_windows(64, 10)
        with pytest.raises(CapExceeded):
            run_hyptest_experiment(HypTestConfig(64, 10, 0.01, 0.05, 10, 1))
        monkeypatch.setenv("LEAKAGE_LAB_CAP", "80")
        assert statistic_windows(64, 10).shape == (10, 8)


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

    @pytest.mark.parametrize("m", [1, 2, 8, 63, 64, 500, 4000])
    def test_recurrence_matches_binomial_coefficients(self, m):
        # every entry is the rounded double of the exact tail sum over 2^m
        weights = [math.comb(m, i) for i in range(m + 1)]
        expected = np.array([sum(weights[k:]) / 2**m for k in range(m + 1)])
        assert binomial_tail_table(m).tobytes() == expected.tobytes()

    def test_rounded_tails_tie(self):
        # past 53 coins the tails near 1 round together, and past 1,074 the
        # far tails underflow to 0: the table is only nonincreasing
        assert binomial_tail_table(53)[1] < 1.0
        assert binomial_tail_table(64)[2] == 1.0
        table = binomial_tail_table(2000)
        assert np.all(np.diff(table) <= 0)
        assert table[-2] == table[-1] == 0.0


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
        assert LearnerSpec.from_json(json.loads(jsonio.dumps(erm.to_json()))) == erm
        mech = LearnerSpec(EXPONENTIAL_MECHANISM, ((0, 0), (1, 1)), epsilon=0.5)
        again = LearnerSpec.from_json(json.loads(jsonio.dumps(mech.to_json())))
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
        again = GenErrConfig.from_json(json.loads(jsonio.dumps(config.to_json())))
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
        again = HypTestConfig.from_json(json.loads(jsonio.dumps(config.to_json())))
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

    @pytest.mark.parametrize(
        "layer", [learner_channel, lambda *args: generalization_event(*args, 0.3)],
        ids=["channel", "event"],
    )
    def test_learner_problem_is_checked_like_a_config(self, layer):
        # 3-wide hypotheses over d = 2 would ignore a coordinate, and 2-wide
        # ones over d = 3 would index past their width
        dist3 = DiscreteDistribution(data_alphabet(3), [1 / 6] * 6)
        for spec, d, dist in ((LearnerSpec(ERM, ((0, 1, 0), (1, 0, 1))), 2, skewed_dist()),
                              (full_erm(), 3, dist3)):
            with pytest.raises(LeakageLabError, match="hypotheses do not cover the domain"):
                layer(spec, d, 2, dist)
        wrong = DiscreteDistribution(Alphabet(("a", "b", "c", "d")), [0.4, 0.1, 0.3, 0.2])
        with pytest.raises(LeakageLabError, match="canonical"):
            layer(full_erm(), 2, 2, wrong)


def per_dataset_oracle(spec, d, n, dist):
    """Dataset alphabet, (N, H) empirical risks and learner rows, one dataset at a time.

    Each dataset's risks are the mean of its symbols' 0/1 losses, gathered
    from the digit matrix; no histogram is formed.
    """
    tables = _LearnerTables(spec, n, dist)
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
        assert [tuple(column) for column in counts.T.tolist()] == expected
        assert counts.shape == (symbols, math.comb(n + symbols - 1, symbols - 1))

    def test_every_histogram_counts_its_datasets(self):
        # the dataset layer's histograms, tallied over the cuts 1, 2, 3 of
        # the base indices, are the types, each held by its multinomial
        # number of datasets
        product = ProductAlphabet(FOUR_SYMBOLS, 5)
        digits = product.digit_matrix()
        counts = _tally(digits.T, np.arange(1, 4), 5)
        assert np.array_equal(counts, np.stack([(digits == s).sum(axis=1) for s in range(4)]))
        types, held = np.unique(counts.T, axis=0, return_counts=True)
        assert np.array_equal(types, _histograms(4, 5).T)
        multinomial = [math.factorial(5) // math.prod(map(math.factorial, c)) for c in types.tolist()]
        assert held.tolist() == multinomial

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
        tables = _LearnerTables(spec, n, dist)
        assert np.array_equal(event.mask, np.abs(tables.true_risk - empirical) > 0.3)
        prior = iid_prior(dist, n)
        assert np.array_equal(joint.mass, prior.probs[:, None] * rows)

        support = np.flatnonzero(prior.probs > 0.0)
        oracle = maximal_leakage(Channel(product, channel.output, rows), support)
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

    @pytest.mark.parametrize("kind", [ERM, EXPONENTIAL_MECHANISM])
    def test_exact_leakage_holds_two_type_arrays(self, kind):
        # d = 10, all 1,024 hypotheses, n = 3: K = C(22, 19) = 1,540 types.
        # The rows and one temporary of K x H float64 may be alive at once;
        # a kept copy of the risks would make it three.
        d, n = 10, 3
        hypotheses = tuple(itertools.product((0, 1), repeat=d))
        dist = DiscreteDistribution(data_alphabet(d), [1.0 / (2 * d)] * (2 * d))
        spec = LearnerSpec(kind, hypotheses, None if kind == ERM else 0.5)
        config = GenErrConfig(d, n, dist, spec, 0.3, 10, 1)
        table_bytes = math.comb(n + 2 * d - 1, 2 * d - 1) * len(hypotheses) * 8
        tracemalloc.start()
        try:
            run_gen_error_experiment(config, require_exact=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * table_bytes

    def test_exact_erm_holds_one_type_array(self):
        # ERM picks from float32 mistake counts that are gone before its
        # K x H float64 one-hot rows are built, and the leakage reduces
        # the rows without a masked copy, so one such array is alive
        d, n = 10, 3
        hypotheses = tuple(itertools.product((0, 1), repeat=d))
        dist = DiscreteDistribution(data_alphabet(d), [1.0 / (2 * d)] * (2 * d))
        config = GenErrConfig(d, n, dist, LearnerSpec(ERM, hypotheses), 0.3, 10, 1)
        table_bytes = math.comb(n + 2 * d - 1, 2 * d - 1) * len(hypotheses) * 8
        tracemalloc.start()
        try:
            run_gen_error_experiment(config, require_exact=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * table_bytes

    def test_cap_counts_histograms(self, monkeypatch):
        # d = 2, n = 8: 4^8 = 65536 datasets but C(11, 3) = 165 histograms
        config = GenErrConfig(2, 8, skewed_dist(), full_erm(), 0.3, 10, 1)
        monkeypatch.setenv("LEAKAGE_LAB_CAP", "165")
        exact = run_gen_error_experiment(config, require_exact=True)
        assert exact.exact_leakage_nats == math.log(4.0)
        monkeypatch.setenv("LEAKAGE_LAB_CAP", "164")
        with pytest.raises(CapExceeded, match="165 dataset histograms exceed the cap 164"):
            run_gen_error_experiment(config, require_exact=True)

    @pytest.mark.parametrize("epsilon", [None, 0.5])
    def test_trial_wider_than_the_cap_is_refused(self, monkeypatch, epsilon):
        # a trial holds its n = 6 uniforms, one more for the mechanism's pick
        kind = ERM if epsilon is None else EXPONENTIAL_MECHANISM
        spec = LearnerSpec(kind, full_erm().hypotheses, epsilon)
        config = GenErrConfig(2, 6, skewed_dist(), spec, 0.45, 10, 1)
        width = 6 if epsilon is None else 7
        monkeypatch.setenv("LEAKAGE_LAB_CAP", str(width))
        assert run_gen_error_experiment(config).exact_leakage_nats is None
        monkeypatch.setenv("LEAKAGE_LAB_CAP", str(width - 1))
        message = f"a trial of n = 6 draws holds {width} values, which exceed the cap {width - 1}"
        with pytest.raises(CapExceeded, match=message):
            run_gen_error_experiment(config)

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

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0])
    def test_eta_outside_the_unit_interval_is_refused_as_the_config_refuses_it(self, eta):
        message = re.escape(f"eta must lie in (0, 1), got {eta}")
        with pytest.raises(LeakageLabError, match=message):
            generalization_event(full_erm(), 2, 3, skewed_dist(), eta)
        with pytest.raises(LeakageLabError, match=message):
            GenErrConfig(2, 3, skewed_dist(), full_erm(), eta, 10, 1)


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
        # one slice of 2500 trials stores its risks row by row; at d = 3 a
        # trial holds 8 risks, so slices of at most 100 // 8 = 12 trials
        # hold fewer trials than hypotheses and store them column by column
        kind = ERM if epsilon is None else EXPONENTIAL_MECHANISM
        d3 = DiscreteDistribution(data_alphabet(3), [0.3, 0.05, 0.1, 0.25, 0.2, 0.1])
        full = _stream._BLOCK_DRAWS
        for d, n, dist in ((2, 5, skewed_dist()), (3, 4, d3)):
            spec = LearnerSpec(kind, tuple(itertools.product((0, 1), repeat=d)), epsilon)
            config = GenErrConfig(d, n, dist, spec, 0.3, 2500, 11)
            default = tmp_path / "default.csv"
            monkeypatch.setattr(_stream, "_BLOCK_DRAWS", full)
            report = run_gen_error_experiment(config, trace_path=str(default))
            for block in (1, 7, 100):
                monkeypatch.setattr(_stream, "_BLOCK_DRAWS", block)
                sliced = tmp_path / f"{block}.csv"
                again = run_gen_error_experiment(config, trace_path=str(sliced))
                assert jsonio.dumps(again.to_json()) == jsonio.dumps(report.to_json())
                assert sliced.read_bytes() == default.read_bytes()

    def test_slices_count_symbols_and_hypotheses(self, monkeypatch):
        # a trial at n = 1 draws one uniform but holds 6 symbol counts and
        # 8 risks, and the slices are sized by the 8
        spec = LearnerSpec(ERM, tuple(itertools.product((0, 1), repeat=3)))
        dist = DiscreteDistribution(data_alphabet(3), [1 / 6] * 6)
        seen = []

        def recording(worker, total, per_trial=1):
            seen.append(per_trial)
            return map_chunked(worker, total, per_trial)

        monkeypatch.setattr("leakage_lab.simulate.map_chunked", recording)
        run_gen_error_experiment(GenErrConfig(3, 1, dist, spec, 0.3, 10, 1))
        assert seen == [8]

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

    @pytest.mark.parametrize(
        "n,t",
        [(1, 1), (7, 3), (8, 9), (63, 4), (64, 10), (64, 16), (64, 17), (65, 5), (100, 10),
         (130, 20), (200, 40), (5000, 10)],
    )
    def test_trace_matches_scalar_coins(self, tmp_path, n, t):
        # coin i of trial k is bit 63 - i % 64 of the trial's draw i // 64;
        # a window's p-value is the tail of its gathered and summed coins
        config = HypTestConfig(n, t, 0.01, 0.05, 100, 2**63 + 9)
        trace = tmp_path / "trace.csv"
        run_hyptest_experiment(config, trace_path=str(trace))
        with open(trace, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        windows = statistic_windows(n, t)
        table = binomial_tail_table(windows.shape[1])
        for k, row in enumerate(rows):
            seed = splitmix_draw(config.seed, k)
            coins = np.array([splitmix_draw(seed, i // 64) >> (63 - i % 64) & 1 for i in range(n)])
            p_values = table[coins[windows].sum(axis=1)]
            selected = int(np.argmin(p_values))
            assert (int(row[0]), int(row[1]), float(row[2])) == (k, selected, p_values[selected])
        assert len(rows) == config.trials

    @pytest.mark.parametrize(
        "width,t,dtype",
        # (8, 17) and (500, 10) reach 2^8 and 2^13; (2000, 40) passes 2^16
        [(8, 1, np.uint8), (8, 9, np.uint8), (8, 17, np.uint16), (64, 16, np.uint16),
         (500, 10, np.uint16), (2000, 40, np.uint32), (4000, 17, np.uint32)],
    )
    def test_packed_selection_matches_first_argmin(self, width, t, dtype):
        # the first argmin of the exact p-values and its rounded p-value, on
        # random counts, on counts of a few values (ties among windows), and
        # on counts at both ends, where tails of large widths round or
        # underflow together as doubles but still differ as integers
        assert _key_dtype(width, t) == dtype
        rng = np.random.default_rng(width * 100 + t)
        table = binomial_tail_table(width)
        # 2^width times the exact tails, so integers compare them exactly
        tails = list(itertools.accumulate(math.comb(width, j) for j in range(width, -1, -1)))[::-1]
        few = rng.choice([0, width // 2, width], size=(t, 300))
        ends = rng.choice([0, 1, 2, 3, width - 3, width - 2, width - 1, width], size=(t, 300))
        for counts in (rng.integers(0, width + 1, size=(t, 500)), few, np.clip(ends, 0, width)):
            expected = [min(range(t), key=lambda r: tails[column[r]]) for column in counts.T.tolist()]
            selected, top = _first_max(counts.astype(dtype))
            p_min = table[top]
            assert selected.tolist() == expected
            assert p_min.tobytes() == table[counts[expected, np.arange(counts.shape[1])]].tobytes()

    def test_window_tables_grow_with_the_window_width(self):
        # at n = 10^5 and T = 10^4 a window holds 10 coins, so it touches at
        # most ceil(10 / 64) + 2 words whatever n and T are
        word_index, masks = _window_masks(statistic_windows(10**5, 10**4))
        assert word_index.shape == masks.shape
        assert masks.shape[0] == 10**4 and masks.shape[1] <= 3
        assert (np.bitwise_count(masks).sum(axis=1) == 10).all()

    def test_block_size_does_not_change_results(self, tmp_path, monkeypatch):
        config = HypTestConfig(40, 6, 0.01, 0.05, 2500, 5)
        default = tmp_path / "default.csv"
        report = run_hyptest_experiment(config, trace_path=str(default))
        for block in (1, 45, 500):
            monkeypatch.setattr(_stream, "_BLOCK_DRAWS", block)
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

    def test_a_p_value_equal_to_sigma_rejects(self, tmp_path):
        # P(Bin(8, 1/2) >= 8) is exactly 1/256, the smallest p-value of an
        # 8-coin window, and with one statistic the adjusted level is delta
        config = HypTestConfig(8, 1, 1 / 256, 1 / 256, 4096, 7)
        trace = tmp_path / "trace.csv"
        report = run_hyptest_experiment(config, trace_path=str(trace))
        assert binomial_tail_table(8)[8] == report.adjusted_sigma == config.sigma == 1 / 256
        with open(trace, newline="") as handle:
            rows = list(csv.DictReader(handle))
        at_sigma = [row for row in rows if float(row["p_value"]) == config.sigma]
        assert len(at_sigma) == 11
        assert all(row["reject_adjusted"] == row["reject_raw"] == "True" for row in at_sigma)
        assert report.adjusted.empirical_tail == report.raw.empirical_tail == 11 / 4096
