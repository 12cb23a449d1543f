"""Tests for the randomized verification sweeps, their draws and their batched kernels."""

import math

import numpy as np
import pytest

from leakage_lab import (
    Alphabet,
    Channel,
    DiscreteDistribution,
    EventMask,
    JointDistribution,
    LeakageLabError,
    adaptive_event_bound,
    approx_max_information,
    approx_max_information_by_enumeration,
    compose_channels,
    conditional_maximal_leakage,
    exact_event_probability,
    fiber_max_prob,
    joint_from,
    max_information,
    maximal_leakage,
    maximal_leakage_of_joint,
)
from leakage_lab import _stream, jsonio, verify
from leakage_lab.cli import main
from leakage_lab._stream import _Draws, _trial_seeds, _uniform_block
from leakage_lab.core import adaptive_channel
from leakage_lab.verify import (
    SUITES,
    _BETA_GRID,
    _certificate_total,
    _chain_draws,
    _composition_draws,
    _conditional_chain_total,
    _distribution,
    _joint_draws,
    _live,
    _soundness_draws,
    _stochastic_rows,
    run_suites,
    sweep_composition,
    sweep_maxinfo,
    sweep_soundness,
)

from conftest import named_alphabet, random_channel, stage_of

WIDTHS = {
    "soundness": verify._SOUNDNESS_WIDTH,
    "composition": verify._COMPOSITION_WIDTH,
    "maxinfo": verify._MAXINFO_WIDTH,
}
EVALUATE = {
    "soundness": verify._soundness_checks,
    "composition": verify._composition_checks,
    "maxinfo": verify._maxinfo_checks,
}


def uniforms(suite, seed, count):
    return _uniform_block(_trial_seeds(seed, 0, count), WIDTHS[suite])


def recorded(entry):
    """Margins and recorded-entry mask of one check's ``(margins, payload[, where])``."""
    margins = entry[0].reshape(len(entry[0]), -1)
    where = entry[2] if len(entry) > 2 else np.ones(margins.shape, dtype=bool)
    return margins, where


class TestGenerators:
    def test_draws_are_instance_first_views_of_the_block(self):
        block = uniforms("soundness", 3, 50)
        draws = _Draws(block)
        first, grid = draws.uniform(), draws.uniform(8, 8)
        assert draws.items == 50 and draws.used == 65
        assert np.shares_memory(grid, block) and np.shares_memory(first, block)
        assert np.array_equal(first, block[0])
        for i in range(50):
            assert np.array_equal(grid[i], block[1:65, i].reshape(8, 8))

    @pytest.mark.parametrize("suite,draw", [("soundness", _soundness_draws),
                                            ("composition", _composition_draws),
                                            ("maxinfo", _joint_draws)])
    def test_suite_width_is_the_draws_it_takes(self, monkeypatch, suite, draw):
        # the block is wider than the suite's width, so an extra draw shows
        # as a count past it rather than as a reshape error
        made = []

        class Recording(_Draws):
            def __init__(self, block):
                super().__init__(block)
                made.append(self)

        monkeypatch.setattr(verify, "_Draws", Recording)
        draw(_uniform_block(_trial_seeds(3, 0, 50), WIDTHS[suite] + 64))
        assert [draws.used for draws in made] == [WIDTHS[suite]]

    def test_random_distribution_is_valid(self):
        u = uniforms("soundness", 5, 400)
        sizes = 2 + _Draws(u).integers(7)
        for allow_zeros in (False, True):
            live = _live(sizes, 8)
            probs = _distribution(_Draws(u[1:]), live, allow_zeros)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            assert probs.min() >= 0.0
            assert not probs[~live].any()
            assert ((probs > 0.0).sum(axis=1) >= 1).all()
            assert (probs[live] == 0.0).any() == allow_zeros

    def test_random_channel_rows_are_valid(self):
        u = uniforms("composition", 5, 400)
        draws = _Draws(u)
        nx, ny = 2 + draws.integers(5), 2 + draws.integers(5)
        live_x, live_y = _live(nx, 6), _live(ny, 6)
        rows = _stochastic_rows(draws, live_x, live_y)
        live = live_x[:, :, None] & live_y[:, None, :]
        assert np.allclose(rows.sum(axis=2)[live_x], 1.0, atol=1e-12)
        assert not rows[~live].any()
        assert (rows.max(axis=2)[live_x] > 0.0).all()
        assert (rows[live] == 0.0).any()

    def test_random_joint_is_valid(self):
        nx, ny, mass = _joint_draws(uniforms("maxinfo", 5, 400))
        live = _live(nx, 4)[:, :, None] & _live(ny, 6)[:, None, :]
        assert np.allclose(mass.sum(axis=(1, 2)), 1.0, atol=1e-12)
        assert mass.min() >= 0.0
        assert not mass[~live].any()
        assert live.reshape(len(mass), -1).sum(axis=1).tolist() == (nx * ny).tolist()
        assert (mass.reshape(len(mass), -1) > 0.0).any(axis=1).all()
        assert sorted(set(zip(nx.tolist(), ny.tolist()))) == sorted(verify._JOINT_SHAPES)


def random_stage(rng, first, prefixes, outputs):
    blocks = [
        random_channel(rng, len(first.input), outputs, input_alphabet=first.input)
        for _ in prefixes
    ]
    return stage_of(first, prefixes, blocks)


def per_block_oracle(first, *stages):
    """Joint rows built block by block: P(prefix j | x) times prefix j's stage block."""
    nx = len(first.input)
    rows = first.rows
    for stage in stages:
        width = len(stage.output)
        out = np.empty((nx, rows.shape[1] * width))
        for j in range(rows.shape[1]):
            out[:, j * width : (j + 1) * width] = rows[:, j : j + 1] * stage.rows[j * nx : (j + 1) * nx]
        rows = out
    return rows


class TestAdaptiveChannels:
    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_matches_per_block_oracle(self, rng, steps):
        for _ in range(25):
            first = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            stages, prefixes = [], list(first.output.labels)
            for _ in range(steps - 1):
                stage = random_stage(rng, first, prefixes, int(rng.integers(2, 4)))
                stages.append(stage)
                prefixes = [f"{p}&{z}" for p in prefixes for z in stage.output.labels]
            joint = adaptive_channel(first, *stages)
            assert np.array_equal(joint.rows, per_block_oracle(first, *stages))
            assert list(joint.output.labels) == prefixes
            assert joint.input == first.input

    def test_stage_height_must_match_prefix_count(self, rng):
        first = random_channel(rng, 3, 2)
        short = random_channel(rng, 5, 2)
        with pytest.raises(LeakageLabError, match="needs 6"):
            adaptive_channel(first, short)
        stage = random_stage(rng, first, first.output.labels, 2)
        pair = adaptive_channel(first, stage)
        with pytest.raises(LeakageLabError, match="needs 12"):
            adaptive_channel(first, stage, stage)
        assert len(pair.output) == 4

    def test_two_step_marginalizes_to_first(self, rng):
        for _ in range(25):
            first = random_channel(rng, 3, 3)
            second = random_stage(rng, first, first.output.labels, 2)
            pair = adaptive_channel(first, second)
            # pair labels iterate z fastest, so each y owns a block
            width = 2
            for j in range(3):
                block = pair.rows[:, j * width : (j + 1) * width].sum(axis=1)
                assert np.allclose(block, first.rows[:, j], atol=1e-12)

    def test_two_step_labels(self, rng):
        first = random_channel(rng, 2, 2)
        second = random_stage(rng, first, first.output.labels, 2)
        pair = adaptive_channel(first, second)
        ys = list(first.output.labels)
        zs = list(second.output.labels)
        assert list(pair.output.labels) == [f"{y}&{z}" for y in ys for z in zs]

    def test_three_step_marginalizes_to_pair(self, rng):
        first = random_channel(rng, 2, 2)
        second = random_stage(rng, first, first.output.labels, 2)
        pair = adaptive_channel(first, second)
        third = random_stage(rng, first, pair.output.labels, 3)
        triple = adaptive_channel(first, second, third)
        width = 3
        for j in range(pair.rows.shape[1]):
            block = triple.rows[:, j * width : (j + 1) * width].sum(axis=1)
            assert np.allclose(block, pair.rows[:, j], atol=1e-12)

    def test_identity_steps_compose_to_identity_leakage(self, rng):
        # two deterministic identity steps leak exactly log of the
        # alphabet size each; the pair leaks that once, which is within
        # the two-entry budget
        alphabet = random_channel(rng, 3, 3).input
        identity = Channel.identity(alphabet)
        pair = adaptive_channel(identity, stage_of(identity, alphabet.labels, [identity] * 3))
        single = maximal_leakage(identity).nats
        assert maximal_leakage(pair).nats == pytest.approx(single, abs=1e-12)
        assert maximal_leakage(pair).nats <= 2.0 * single


# ---------------------------------------------------------------------------
# per-object oracles: each drawn instance rebuilt as Channel, JointDistribution
# and EventMask objects and measured through the public single-object measures


def chain_objects(i, sizes, chain):
    """Instance i of padded chain draws as a first Channel and prefix-major stage Channels."""
    nx, *outputs = (int(size[i]) for size in sizes)
    xs = named_alphabet("x", nx)
    objects = [Channel(xs, named_alphabet("y", outputs[0]), chain[0][i, :nx, : outputs[0]])]
    live_prefix = np.arange(3) < outputs[0]
    for stage, width in zip(chain[1:], outputs[1:]):
        block = stage[i][live_prefix][:, :nx, :width]
        pairs = Alphabet(f"{x}|{p}" for p in range(len(block)) for x in xs.labels)
        objects.append(Channel(pairs, named_alphabet("z", width), block.reshape(-1, width)))
        live_prefix = (live_prefix[:, None] & (np.arange(3) < width)).reshape(-1)
    return objects


def stage_pairs(stage, first):
    xs = first.input.labels
    return [(x, p) for p in range(len(stage.input) // len(xs)) for x in xs]


def certificate_oracle(first, stages):
    total = maximal_leakage(first).nats
    for stage in stages:
        total += conditional_maximal_leakage(stage, stage_pairs(stage, first)).nats
    return total


def conditional_oracle(prior, first, stages):
    """Sum of conditional leakages, with the reached (x, prefix) pairs as explicit sets."""
    nx = len(first.input)
    reached = {(i, j) for i in range(nx) for j in range(len(first.output))
               if prior.probs[i] > 0.0 and first.rows[i, j] > 0.0}
    total = maximal_leakage(first, prior.support_labels()).nats
    for stage in stages:
        support = {(first.input.labels[i], p) for i, p in reached}
        total += conditional_maximal_leakage(stage, stage_pairs(stage, first), support).nats
        width = len(stage.output)
        reached = {(i, p * width + k) for i, p in reached for k in range(width)
                   if stage.rows[p * nx + i, k] > 0.0}
    return total


def argmax_twin(p, channel):
    """The uniform prior on p's support, and per output the first input of the support
    with the largest P(y|x)."""
    support = p.support().tolist()
    uniform = DiscreteDistribution(p.alphabet, [1.0 / len(support) if x in support else 0.0
                                                for x in range(len(p.alphabet))])
    cells = np.zeros(channel.rows.shape, dtype=bool)
    for y in range(len(channel.output)):
        # max keeps the first of equal maxima
        cells[max(support, key=lambda x: channel.rows[x, y]), y] = True
    return uniform, EventMask(channel.input, channel.output, cells)


def soundness_oracle(u):
    nx, ny, prior, rows, event = _soundness_draws(u)
    margins, gaps = [], []
    for i in range(u.shape[1]):
        xs, ys = named_alphabet("x", nx[i]), named_alphabet("y", ny[i])
        p = DiscreteDistribution(xs, prior[i, : nx[i]])
        channel = Channel(xs, ys, rows[i, : nx[i], : ny[i]])
        mask = EventMask(xs, ys, event[i, : nx[i], : ny[i]])
        exact = exact_event_probability(joint_from(p, channel), mask)
        leakage = maximal_leakage(channel, p.support()).nats
        margins.append(exact - adaptive_event_bound(fiber_max_prob(mask, p), leakage).value)
        uniform, twin = argmax_twin(p, channel)
        twin_exact = exact_event_probability(joint_from(uniform, channel), twin)
        gaps.append(abs(adaptive_event_bound(fiber_max_prob(twin, uniform), leakage).value - twin_exact))
    return {"event_bound": (np.array(margins)[:, None], None), "twin": (np.array(gaps)[:, None], None)}


def composition_oracle(u):
    (nx, ny, nz), a, b, chains, prior = _composition_draws(u)
    margins = {name: [] for name in ("post_processing", "two_step", "three_step", "conditional_chain")}
    for i in range(u.shape[1]):
        xs, ys, zs = (named_alphabet(p, n[i]) for p, n in (("x", nx), ("y", ny), ("z", nz)))
        first_step = Channel(xs, ys, a[i, : nx[i], : ny[i]])
        second_step = Channel(ys, zs, b[i, : ny[i], : nz[i]])
        margins["post_processing"].append(
            maximal_leakage(compose_channels(first_step, second_step)).nats
            - maximal_leakage(first_step).nats
        )
        for name, chain in zip(("two_step", "three_step"), chains):
            first, *stages = chain_objects(i, *chain)
            joint = maximal_leakage(adaptive_channel(first, *stages)).nats
            margins[name].append(joint - certificate_oracle(first, stages))
        p = DiscreteDistribution(first.input, prior[i, : len(first.input)])
        margins["conditional_chain"].append(joint - conditional_oracle(p, first, stages))
    return {name: (np.array(values)[:, None], None) for name, values in margins.items()}


def maxinfo_oracle(u):
    nx, ny, mass = _joint_draws(u)
    rows = {name: [] for name in ("leakage_budget", "enumeration_match", "beta_monotone",
                                  "dominates_leakage")}
    for i in range(u.shape[1]):
        joint = JointDistribution(named_alphabet("x", nx[i]), named_alphabet("y", ny[i]),
                                  mass[i, : nx[i], : ny[i]])
        leakage = maximal_leakage_of_joint(joint).nats
        rows["dominates_leakage"].append(([leakage - max_information(joint)], [True]))
        scan = [approx_max_information(joint, beta) for beta in _BETA_GRID]
        enumerated = [approx_max_information_by_enumeration(joint, beta) for beta in _BETA_GRID]
        gaps = [0.0 if s == e else (math.inf if math.isinf(s) or math.isinf(e) else abs(s - e))
                for s, e in zip(scan, enumerated)]
        rows["enumeration_match"].append((gaps, [True] * len(gaps)))
        rows["leakage_budget"].append((
            [s - (leakage + math.log(1.0 / beta)) if math.isfinite(s) else math.nan
             for s, beta in zip(scan, _BETA_GRID)],
            [math.isfinite(s) for s in scan],
        ))
        rows["beta_monotone"].append((
            [s - prev if math.isfinite(prev) else math.nan for prev, s in zip(scan, scan[1:])],
            [math.isfinite(prev) for prev in scan[:-1]],
        ))
    return {name: (np.array([m for m, _ in r]), None, np.array([w for _, w in r]))
            for name, r in rows.items()}


def chain_rows_prefix_transposed(first, *stages):
    """_chain_rows with each joint output numbered z-major, against the stages' prefix order."""
    rows = first
    for stage in stages:
        grown = rows[..., None] * stage.transpose(0, 2, 1, 3)
        rows = grown.transpose(0, 1, 3, 2).reshape(*rows.shape[:2], -1)
    return rows


def event_bounds_without_support(prior, rows, event):
    """_event_bounds with the leakage taken over every row, not just the priors' support."""
    k, b, nx = prior.shape
    events = event.reshape(k * b, nx, -1)
    exact = verify._event_mass((prior[..., None] * rows).reshape(k * b, nx, -1), events)
    fibers = verify._fiber_max(events, prior.reshape(k * b, nx)).reshape(k, b)
    return exact.reshape(k, b), np.exp(verify._leakage(rows)) * fibers


# name -> (the verify global it replaces, a function of the original that builds it)
MUTANTS = {
    "leakage x 0.5": ("_section_leakage", lambda leakage: lambda s, w: leakage(s, w) / 2),
    "leakage x 0.9": ("_section_leakage", lambda leakage: lambda s, w: leakage(s, w) * 0.9),
    "leakage x 1.5": ("_section_leakage", lambda leakage: lambda s, w: leakage(s, w) * 1.5),
    # halving every leakage keeps the linear chain inequalities;
    # halving only the conditional (multi-section) ones does not
    "conditional leakage x 0.5": (
        "_section_leakage",
        lambda leakage: lambda s, w: leakage(s, w) / (2 if s.shape[1] > 1 else 1)),
    "fiber max as a mean": ("_fiber_max", lambda _: lambda mask, probs: np.where(
        mask, probs[:, :, None], 0.0).sum(axis=1).mean(axis=1)),
    "event mass drops the last column": (
        "_event_mass", lambda mass_of: lambda mass, mask: mass_of(mass[..., :-1], mask[..., :-1])),
    "scan + 1e-6": ("_approx_max_div_scan", lambda scan: lambda *a: scan(*a) + 1e-6),
    "chain rows with the prefix order transposed": (
        "_chain_rows", lambda _: chain_rows_prefix_transposed),
    "section leakage ignores the support": (
        "_section_leakage", lambda leakage: lambda s, w: leakage(s, None)),
    "event bounds ignore the support": ("_event_bounds", lambda _: event_bounds_without_support),
}


def mutate(monkeypatch, name):
    attr, build = MUTANTS[name]
    monkeypatch.setattr(verify, attr, build(getattr(verify, attr)))


ORACLES = {"soundness": soundness_oracle, "composition": composition_oracle,
           "maxinfo": maxinfo_oracle}


class TestBatchedKernels:
    @pytest.mark.parametrize("seed", [7, 20260814])
    @pytest.mark.parametrize("suite", list(SUITES))
    def test_batched_margins_match_per_object_path(self, suite, seed):
        count = 300
        batched = EVALUATE[suite](uniforms(suite, seed, count), 0)
        oracle = ORACLES[suite](uniforms(suite, seed, count))
        report = SUITES[suite](count, seed)
        assert list(batched) == list(oracle)
        assert list(report["checks"]) == [name for name in batched if name != "twin"]
        for name in batched:
            margins, where = recorded(batched[name])
            want, want_where = recorded(oracle[name])
            assert np.array_equal(where, want_where), name
            assert np.allclose(margins[where], want[where], rtol=0.0, atol=1e-15), name
            if name == "twin":  # reported only as the worst gap
                assert report["diagonal_equality_gap"] == float(margins.max())
                continue
            tolerance = report["checks"][name]["tolerance"]
            assert report["checks"][name]["count"] == int(where.sum())
            assert report["checks"][name]["violations"] == int((want[where] > tolerance).sum())
            assert report["checks"][name]["worst_margin"] == pytest.approx(
                float(want[where].max()), rel=0.0, abs=1e-15)
        assert report["pass"] is True

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_instance_draws_do_not_depend_on_the_sweep_length(self, suite):
        short, long = 37, 300
        few = EVALUATE[suite](uniforms(suite, 11, short), 0)
        many = EVALUATE[suite](uniforms(suite, 11, long), 0)
        report = SUITES[suite](short, 11)
        for name in few:
            margins, where = recorded(few[name])
            prefix, prefix_where = recorded(many[name])
            assert np.array_equal(where, prefix_where[:short])
            assert np.array_equal(margins[where], prefix[:short][prefix_where[:short]])
            if name == "twin":
                assert report["diagonal_equality_gap"] == float(margins.max())
                continue
            check = report["checks"][name]
            assert check["count"] == int(where.sum())
            assert check["worst_margin"] == float(margins[where].max())

    def test_slice_size_does_not_change_reports(self, monkeypatch):
        # 1 and 7 cut every suite into one-instance slices; 100 and 1000
        # give some suites slices of several instances, padded to one shape
        names = ["soundness", "composition", "maxinfo"]
        default = jsonio.dumps(run_suites(names, 60, 20260814))
        for block in (1, 7, 100, 1000):
            monkeypatch.setattr(_stream, "_BLOCK_DRAWS", block)
            assert jsonio.dumps(run_suites(names, 60, 20260814)) == default

    @pytest.mark.parametrize(
        "suite,mutant",
        [("soundness", "leakage x 0.5"), ("composition", "conditional leakage x 0.5"),
         ("maxinfo", "scan + 1e-6")],
        ids=["soundness", "composition", "maxinfo"],
    )
    def test_broken_kernels_are_caught_with_parseable_failures(self, monkeypatch, suite, mutant):
        mutate(monkeypatch, mutant)
        report = SUITES[suite](1000, 7)
        assert report["pass"] is False
        assert sum(check["violations"] for check in report["checks"].values()) > 0
        failures = report["failures"]
        assert 0 < len(failures) <= 5
        # per check in instance order, checks in their declared order
        order = [name for name, check in report["checks"].items()
                 for _ in range(min(check["violations"], 5))][: len(failures)]
        for name in set(order):
            instances = [f["instance"] for f, n in zip(failures, order) if n == name]
            assert instances == sorted(instances)
        parsers = {"prior": DiscreteDistribution, "channel": Channel, "event": EventMask,
                   "a": Channel, "b": Channel, "joint": JointDistribution}
        for failure in failures:
            for key, cls in parsers.items():
                if isinstance(failure.get(key), dict):
                    assert cls.from_json(failure[key]).to_json() == failure[key]

    @pytest.mark.parametrize("name", list(MUTANTS))
    def test_named_mutant_does_not_pass(self, monkeypatch, name):
        mutate(monkeypatch, name)
        try:
            report = run_suites(list(SUITES), 1000, 7)
        except LeakageLabError:
            return  # a suite's own validation refused the mutant's output
        assert report["pass"] is False

    def test_under_reporting_leakage_fails_soundness_on_the_twins(self, monkeypatch, capsys):
        # random events are rarely tight, so 200 instances show no violation;
        # their twins attain the bound and show the halving
        mutate(monkeypatch, "leakage x 0.5")
        report = sweep_soundness(200, 7)
        assert report["checks"]["event_bound"]["violations"] == 0
        assert report["diagonal_equality_gap"] > verify.SOUNDNESS_TOL
        assert report["pass"] is False
        assert main(["verify", "soundness", "--instances", "200", "--seed", "7"]) == 1
        assert '"pass": false' in capsys.readouterr().out


class TestChainCertificates:
    def test_certificate_is_the_worst_block_leakage(self):
        # conditional leakage over every (x, prefix) pair is the maximum of
        # the per-prefix blocks' leakages, to the bit
        sizes, chain = _chain_draws(_Draws(uniforms("composition", 7, 200)), 3)
        totals = _certificate_total(chain[0], chain[1:])
        for i in range(200):
            first, *stages = chain_objects(i, sizes, chain)
            nx = len(first.input)
            expected = maximal_leakage(first).nats
            for stage in stages:
                blocks = [
                    Channel(first.input, stage.output, stage.rows[j : j + nx])
                    for j in range(0, len(stage.input), nx)
                ]
                expected += max(maximal_leakage(block).nats for block in blocks)
            assert totals[i] == expected

    def test_conditional_total_matches_support_sets(self):
        draws = _Draws(uniforms("composition", 11, 200))
        sizes, chain = _chain_draws(draws, 3)
        prior = _distribution(draws, _live(sizes[0], 4), allow_zeros=True)
        totals = _conditional_chain_total(prior, chain[0], chain[1:])
        for i in range(200):
            first, *stages = chain_objects(i, sizes, chain)
            p = DiscreteDistribution(first.input, prior[i, : len(first.input)])
            assert totals[i] == conditional_oracle(p, first, stages)


class TestSweeps:
    def test_identity_twins_reproduce_the_diagonal_family(self, monkeypatch):
        # the uniform identity/diagonal family of sizes 2..8 is the twin of
        # each full-support identity channel, whatever its prior
        sizes = np.arange(2, 9)
        live = _live(sizes, 8)
        identity = np.eye(8) * live[:, :, None]
        prior = live * np.arange(1.0, 9.0)
        prior /= prior.sum(axis=1, keepdims=True)
        monkeypatch.setattr(verify, "_soundness_draws",
                            lambda u: (sizes, sizes, prior, identity, identity > 0.0))
        gaps = verify._soundness_checks(None, 0)["twin"][0]
        # the family's gaps as the removed diagonal_equality_gap() took them
        exact = verify._event_mass(live[:, :, None] / sizes[:, None, None] * identity, identity > 0.0)
        bound = np.exp(verify._leakage(identity, live)) * verify._fiber_max(identity > 0.0,
                                                                             live / sizes[:, None])
        assert np.array_equal(gaps, np.abs(bound - exact))
        assert gaps.max() <= 1e-12

    def test_soundness_sweep_passes(self):
        result = sweep_soundness(60, seed=20260814)
        assert result["pass"]
        assert result["instances"] == 60
        assert result["checks"]["event_bound"]["count"] > 0
        assert result["checks"]["event_bound"]["violations"] == 0
        assert result["failures"] == []

    def test_composition_sweep_passes(self):
        result = sweep_composition(60, seed=20260814)
        assert result["pass"]
        for name in ("post_processing", "two_step", "three_step", "conditional_chain"):
            assert result["checks"][name]["violations"] == 0

    def test_maxinfo_sweep_passes(self):
        result = sweep_maxinfo(60, seed=20260814)
        assert result["pass"]
        for name in (
            "leakage_budget",
            "enumeration_match",
            "beta_monotone",
            "dominates_leakage",
        ):
            assert result["checks"][name]["violations"] == 0

    def test_run_suites_bundles(self):
        result = run_suites(("soundness", "maxinfo"), instances=30, seed=3)
        assert [suite["suite"] for suite in result["suites"]] == ["soundness", "maxinfo"]
        assert result["pass"]
        assert set(SUITES) == {"soundness", "composition", "maxinfo"}


def test_compose_channels_matches_two_step_marginal(rng):
    # a non-adaptive second step collapses the adaptive construction to
    # ordinary channel composition
    first = random_channel(rng, 3, 3)
    fixed = random_channel(rng, 3, 2, input_alphabet=first.input)
    # same second channel regardless of y, but adaptive in form
    pair = adaptive_channel(first, stage_of(first, first.output.labels, [fixed] * 3))
    assert maximal_leakage(pair).nats <= (
        maximal_leakage(first).nats + maximal_leakage(fixed).nats + 1e-10
    )
