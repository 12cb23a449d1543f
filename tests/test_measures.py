import itertools
import math

import numpy as np
import pytest

from leakage_lab import (
    Alphabet,
    AlphabetMismatch,
    BetaOutOfRange,
    Channel,
    DiscreteDistribution,
    EmptySupport,
    InputNotProduct,
    JointDistribution,
    LeakageLabError,
    LeakageValue,
    NoFeasibleSet,
    ProductAlphabet,
    approx_max_divergence,
    approx_max_information,
    approx_max_information_by_enumeration,
    compose_channels,
    conditional_maximal_leakage,
    empirical_dp,
    joint_from,
    max_information,
    maximal_leakage,
    maximal_leakage_of_joint,
    mutual_information,
    renyi_inf_divergence,
)
from leakage_lab.measures import (
    _approx_max_div_enumerated,
    _approx_max_div_scan,
    _log_clamped,
    _ratio_order,
    _subset_sums,
    _support_mask,
)

from conftest import (
    bec_channel,
    bernoulli_identity_joint,
    random_channel,
    random_distribution,
    random_joint,
    uniform,
)

LOG2 = math.log(2.0)


def scanned(pv, qv, delta):
    """The prefix scan of one pair of vectors at one budget."""
    return float(_approx_max_div_scan(pv[None], qv[None], (delta,))[0, 0])


def enumerated(pv, qv, delta):
    """The exhaustive subset enumeration of one pair of vectors at one budget."""
    return float(_approx_max_div_enumerated(pv[None], qv[None], (delta,))[0, 0])


def enumerated_every_cell(pv, qv, deltas):
    """Subset enumeration over every cell, zeros included, one budget at a time: (B, m) -> (B, D)."""
    mass, denom = _subset_sums(np.stack((pv, qv)))
    out = np.empty((len(pv), len(deltas)))
    for k, delta in enumerate(deltas):
        ratios = mass - delta
        ratios[mass <= delta] = -np.inf
        with np.errstate(divide="ignore"):
            ratios /= denom
        best = ratios.max(axis=1)
        if (best == -np.inf).any():
            raise NoFeasibleSet(f"no outcome set has mass above {delta}")
        out[:, k] = [math.log(value) for value in best.tolist()]
    return out


def brute_force_leakage(rows: np.ndarray, support) -> float:
    total = 0.0
    for y in range(rows.shape[1]):
        total += max(rows[x, y] for x in support)
    return math.log(total)


class TestMaximalLeakage:
    @pytest.mark.parametrize("alpha", [i / 10 for i in range(1, 10)])
    def test_bec_closed_form(self, alpha):
        value = maximal_leakage(bec_channel(alpha)).nats
        assert value == pytest.approx(math.log(2.0 - alpha), abs=1e-12)

    def test_identical_rows_zero(self):
        row = [0.2, 0.5, 0.3]
        ch = Channel(Alphabet(["a", "b"]), Alphabet(["x", "y", "z"]), [row, row])
        assert maximal_leakage(ch).nats == 0.0

    def test_identity_log_k(self):
        ch = Channel.identity(Alphabet(["a", "b", "c", "d"]))
        assert maximal_leakage(ch).nats == math.log(4.0)

    def test_randomized_response(self):
        e = math.e
        stay = e / (1.0 + e)
        ch = Channel(
            Alphabet(["0", "1"]),
            Alphabet(["0", "1"]),
            [[stay, 1.0 - stay], [1.0 - stay, stay]],
        )
        assert maximal_leakage(ch).nats == pytest.approx(0.3798854930417225, abs=1e-12)

    def test_support_restriction(self):
        # dropping an input can only shrink the column maxima
        ch = Channel(
            Alphabet(["a", "b", "c"]),
            Alphabet(["x", "y"]),
            [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
        )
        assert maximal_leakage(ch).nats == math.log(2.0)
        assert maximal_leakage(ch, ["a", "c"]).nats == math.log(1.5)
        assert maximal_leakage(ch, ["c"]).nats == 0.0

    def test_support_by_index(self):
        ch = bec_channel(0.5)
        assert maximal_leakage(ch, [0, 1]).nats == maximal_leakage(ch).nats

    @pytest.mark.parametrize(
        "support",
        [
            ["c", 0, "a", 4, 2],
            [3, 1, 3, 1, "b", "b"],
            np.array([5, 0, 2, 2, 5, 1]),
            np.array([4, 4, 1], dtype=np.uint8),
            np.array([2**64 - 1, 0], dtype=np.uint64),
            (2, 0, 2),
            [True, 2.0, np.int64(3), 2.9],
            [],
            np.array([], dtype=np.int64),
            [1, -1, 2],
            ["a", 6],
            [0, 2**70],
            [0, 2**63 + 1],
            ["a", "zz"],
            np.array([False, False, True]),
            np.array([0.2, 1.7]),
            [2.9],
            [1, np.float64(2.0)],
            [float("nan")],
            np.array(["a", "c"]),
            np.array([3, 0], dtype=object),
            [0, np.True_],
        ],
    )
    def test_support_indices_match_per_element_path(self, support):
        # the per-element set path this replaced, as the reference; entries
        # are labels or integers, so bools and floats are refused, not read
        # as indices
        def reference(channel, support):
            indices = set()
            for item in support:
                if isinstance(item, str):
                    indices.add(channel.input.index(item))
                elif isinstance(item, (int, np.integer)) and not isinstance(item, bool):
                    i = int(item)
                    if not 0 <= i < len(channel.input):
                        raise LeakageLabError(f"support index {i} out of range")
                    indices.add(i)
                else:
                    raise LeakageLabError(
                        f"support entry {item!r} is neither an input label nor an integer index")
            if not indices:
                raise EmptySupport("support set is empty")
            return np.array(sorted(indices), dtype=np.intp)

        ch = Channel.identity(Alphabet(["a", "b", "c", "d", "e", "f"]))
        try:
            expected = reference(ch, support)
        except LeakageLabError as err:
            with pytest.raises(type(err)) as raised:
                _support_mask(ch, support)
            assert str(raised.value) == str(err)
        else:
            got = np.flatnonzero(_support_mask(ch, support))
            assert got.dtype == np.intp
            assert got.tolist() == expected.tolist()

    def test_support_only_dependence_bit_exact(self, rng):
        for _ in range(50):
            ch = random_channel(rng, 4, 4)
            probs_a = rng.random(4) + 0.01
            probs_b = rng.random(4) + 0.01
            pa = DiscreteDistribution(ch.input, probs_a / probs_a.sum())
            pb = DiscreteDistribution(ch.input, probs_b / probs_b.sum())
            assert (
                maximal_leakage(ch, pa.support()).nats
                == maximal_leakage(ch, pb.support()).nats
            )

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            maximal_leakage(bec_channel(0.5), [])

    def test_unknown_support_label(self):
        with pytest.raises(LeakageLabError):
            maximal_leakage(bec_channel(0.5), ["nope"])

    @pytest.mark.parametrize("nats", [-0.1, math.nan])
    def test_value_must_be_nonnegative(self, nats):
        with pytest.raises(LeakageLabError):
            LeakageValue(nats, 1)

    def test_against_brute_force(self, rng):
        for _ in range(100):
            nx, ny = rng.integers(2, 7), rng.integers(2, 7)
            ch = random_channel(rng, nx, ny)
            size = int(rng.integers(1, nx + 1))
            support = sorted(rng.choice(nx, size=size, replace=False).tolist())
            got = maximal_leakage(ch, support).nats
            want = brute_force_leakage(ch.rows, support)
            assert got == pytest.approx(max(want, 0.0), abs=1e-12)

    def test_lemma1_range_sweep(self, rng):
        for _ in range(200):
            nx, ny = rng.integers(2, 9), rng.integers(2, 9)
            value = maximal_leakage(random_channel(rng, nx, ny))
            assert 0.0 <= value.nats <= math.log(min(nx, ny)) + 1e-12

    def test_dominates_mutual_information(self, rng):
        for _ in range(100):
            nx, ny = rng.integers(2, 6), rng.integers(2, 6)
            ch = random_channel(rng, nx, ny)
            prior = random_distribution(rng, nx, allow_zeros=False)
            joint = joint_from(prior, ch)
            assert maximal_leakage(ch).nats >= mutual_information(joint) - 1e-12

    def test_data_processing(self, rng):
        for _ in range(100):
            nx, ny, nz = (int(rng.integers(2, 6)) for _ in range(3))
            a = random_channel(rng, nx, ny)
            b = random_channel(rng, ny, nz, input_alphabet=a.output)
            cascade = compose_channels(a, b)
            lx_z = maximal_leakage(cascade).nats
            assert lx_z <= maximal_leakage(a).nats + 1e-10
            reachable = np.flatnonzero(a.rows.max(axis=0) > 0.0)
            assert lx_z <= maximal_leakage(b, reachable).nats + 1e-10

    def test_expected_ratio_identity(self, rng):
        # for full-support priors the expected posterior-to-prior maximum
        # over outputs recovers exp(L) exactly
        for _ in range(100):
            nx, ny = rng.integers(2, 7), rng.integers(2, 7)
            ch = random_channel(rng, nx, ny)
            prior = random_distribution(rng, nx, allow_zeros=False)
            joint = joint_from(prior, ch)
            py = joint.mass.sum(axis=0)
            total = 0.0
            for y in range(ny):
                if py[y] == 0.0:
                    continue
                posterior = joint.mass[:, y] / py[y]
                total += py[y] * float(np.max(posterior / prior.probs))
            assert total == pytest.approx(math.exp(maximal_leakage(ch).nats), abs=1e-10)

    def test_of_joint_uses_marginal_support(self):
        joint = JointDistribution(
            Alphabet(["a", "b"]), Alphabet(["x", "y"]), [[0.5, 0.5], [0.0, 0.0]]
        )
        value = maximal_leakage_of_joint(joint)
        assert value.nats == 0.0
        assert value.support_size == 1


class TestConditionalLeakage:
    def test_single_z_matches_unconditional(self, rng):
        ch = random_channel(rng, 3, 4)
        pairs = [(x, "z0") for x in ch.input.labels]
        got = conditional_maximal_leakage(ch, pairs)
        assert got.nats == maximal_leakage(ch).nats

    def test_channel_ignoring_x(self):
        alphabet = Alphabet(["a|0", "a|1", "b|0", "b|1"])
        rows = np.tile([0.3, 0.7], (4, 1))
        ch = Channel(alphabet, Alphabet(["y0", "y1"]), rows)
        pairs = [("a", "0"), ("a", "1"), ("b", "0"), ("b", "1")]
        assert conditional_maximal_leakage(ch, pairs).nats == 0.0

    def test_matches_displayed_formula(self, rng):
        # brute force the max over z of sum over y of max over x
        for _ in range(50):
            xs = ["a", "b", "c"]
            zs = ["0", "1"]
            pairs = [(x, z) for z in zs for x in xs]
            rows = rng.random((6, 2)) + 1e-3
            rows /= rows.sum(axis=1, keepdims=True)
            ch = Channel(Alphabet([f"{x}|{z}" for x, z in pairs]), Alphabet(["y0", "y1"]), rows)
            expected = -math.inf
            for z in zs:
                idx = [i for i, (_, pz) in enumerate(pairs) if pz == z]
                expected = max(expected, brute_force_leakage(rows, idx))
            got = conditional_maximal_leakage(ch, pairs).nats
            assert got == pytest.approx(max(expected, 0.0), abs=1e-12)

    def test_matches_per_section_loop_bit_for_bit(self, rng):
        # the per-section loop that the stacked kernel replaced, as the
        # reference: sections of mixed sizes, with and without a support
        for _ in range(100):
            n = int(rng.integers(2, 12))
            zs = [f"z{k}" for k in rng.integers(0, 4, n)]
            pairs = [(f"x{i}", z) for i, z in enumerate(zs)]
            ch = random_channel(rng, n, int(rng.integers(2, 5)))
            support = [p for p in pairs if rng.random() < 0.7] or pairs[:1]
            for chosen in (None, support):
                wanted = set(pairs if chosen is None else chosen)
                worst = 0.0
                for z in dict.fromkeys(zs):
                    idx = [i for i, p in enumerate(pairs) if p[1] == z and p in wanted]
                    if idx:
                        worst = max(worst, float(ch.rows[idx].max(axis=0).sum()))
                want = math.log(worst)
                assert conditional_maximal_leakage(ch, pairs, chosen).nats == (
                    0.0 if want <= 1e-8 else want
                )

    def test_is_the_worst_section_maximal_leakage_bit_for_bit(self, rng):
        # ragged, interleaved sections, one-row ones among them, with and
        # without a support that can empty a section
        for _ in range(200):
            n = int(rng.integers(1, 16))
            zs = [f"z{k}" for k in rng.integers(0, 5, n)]
            pairs = [(f"a{zs[:i].count(z)}", z) for i, z in enumerate(zs)]
            ch = random_channel(rng, n, int(rng.integers(1, 6)))
            support = [p for p in pairs if rng.random() < 0.6] or pairs[-1:]
            for chosen in (None, support):
                kept = pairs if chosen is None else chosen
                sections: dict[str, list[int]] = {}
                for i, pair in enumerate(pairs):
                    if pair in kept:
                        sections.setdefault(pair[1], []).append(i)
                got = conditional_maximal_leakage(ch, pairs, chosen)
                assert got.nats == max(maximal_leakage(ch, rows).nats for rows in sections.values())
                assert got.support_size == len({x for x, _ in kept})

    def test_support_filters_sections(self):
        pairs = [("a", "0"), ("b", "0"), ("a", "1"), ("b", "1")]
        rows = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.5, 0.5]]
        ch = Channel(Alphabet(["a|0", "b|0", "a|1", "b|1"]), Alphabet(["y0", "y1"]), rows)
        full = conditional_maximal_leakage(ch, pairs)
        assert full.nats == math.log(2.0)
        # z=0 reduced to a single x: that section stops leaking
        reduced = conditional_maximal_leakage(ch, pairs, [("a", "0"), ("a", "1"), ("b", "1")])
        assert reduced.nats == 0.0

    def test_pair_count_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            conditional_maximal_leakage(bec_channel(0.5), [("a", "0")])

    def test_unknown_support_pair(self):
        ch = bec_channel(0.5)
        pairs = [("0", "z"), ("1", "z")]
        with pytest.raises(LeakageLabError, match="unknown pairs"):
            conditional_maximal_leakage(ch, pairs, [("7", "z")])

    def test_empty_conditional_support(self):
        ch = bec_channel(0.5)
        pairs = [("0", "z"), ("1", "z")]
        with pytest.raises(EmptySupport):
            conditional_maximal_leakage(ch, pairs, [])

    def test_duplicate_pair_is_refused_by_name(self):
        # two inputs under one (x, z) pair would merge two rows into one x
        ch = Channel.identity(Alphabet(["p", "q", "r"]))
        pairs = [("a", "z"), ("b", "z"), ("b", "z")]
        with pytest.raises(LeakageLabError, match=r"pair \['b', 'z'\] appears more than once"):
            conditional_maximal_leakage(ch, pairs)


class TestMutualInformation:
    def test_product_is_zero(self):
        joint = JointDistribution(
            Alphabet(["a", "b"]), Alphabet(["x", "y"]), np.outer([0.3, 0.7], [0.4, 0.6])
        )
        assert mutual_information(joint) == 0.0

    def test_uniform_identity(self):
        joint = JointDistribution(
            Alphabet(["a", "b"]), Alphabet(["x", "y"]), [[0.5, 0.0], [0.0, 0.5]]
        )
        assert mutual_information(joint) == pytest.approx(LOG2, abs=1e-12)

    def test_bec_half(self):
        prior = uniform(["0", "1"])
        joint = joint_from(prior, bec_channel(0.5))
        assert mutual_information(joint) == pytest.approx(0.5 * LOG2, abs=1e-12)

    def test_nonnegative_sweep(self, rng):
        for _ in range(100):
            joint = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            assert mutual_information(joint) >= 0.0


class TestRenyiDivergence:
    def test_identical(self):
        p = DiscreteDistribution(Alphabet(["a", "b"]), [0.4, 0.6])
        assert renyi_inf_divergence(p, p) == 0.0

    def test_two_point(self):
        a = Alphabet(["a", "b"])
        p = DiscreteDistribution(a, [1.0, 0.0])
        q = DiscreteDistribution(a, [0.5, 0.5])
        assert renyi_inf_divergence(p, q) == pytest.approx(LOG2, abs=1e-15)

    def test_support_violation(self):
        a = Alphabet(["a", "b"])
        p = DiscreteDistribution(a, [1.0, 0.0])
        q = DiscreteDistribution(a, [0.0, 1.0])
        assert renyi_inf_divergence(p, q) == math.inf

    def test_alphabet_mismatch(self):
        p = DiscreteDistribution(Alphabet(["a"]), [1.0])
        q = DiscreteDistribution(Alphabet(["b"]), [1.0])
        with pytest.raises(AlphabetMismatch):
            renyi_inf_divergence(p, q)


class TestApproxMaxDivergence:
    def test_delta_zero_reduces_to_renyi(self, rng):
        for _ in range(100):
            size = int(rng.integers(2, 8))
            p = random_distribution(rng, size, allow_zeros=True)
            q = random_distribution(rng, size, allow_zeros=True)
            got = approx_max_divergence(p, q, 0.0)
            want = renyi_inf_divergence(p, q)
            if math.isinf(want):
                assert got == want
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_equal_distributions(self):
        p = DiscreteDistribution(Alphabet(["a", "b", "c"]), [0.2, 0.3, 0.5])
        for delta in (0.1, 0.25, 0.5):
            assert approx_max_divergence(p, p, delta) == pytest.approx(
                math.log(1.0 - delta), abs=1e-12
            )

    def test_bernoulli_identity_budget(self):
        # X ~ Ber(0.2) against the product of marginals with delta = 0.1:
        # the best set is the diagonal (1, 1) cell, worth (0.2 - 0.1)/0.04
        joint = bernoulli_identity_joint(0.2)
        p = DiscreteDistribution(Alphabet(["00", "01", "10", "11"]), joint.mass.reshape(-1))
        marg = np.outer(joint.mass.sum(axis=1), joint.mass.sum(axis=0)).reshape(-1)
        q = DiscreteDistribution(p.alphabet, marg)
        got = approx_max_divergence(p, q, 0.1)
        assert got == pytest.approx(math.log(2.5), abs=1e-12)
        assert got == pytest.approx(enumerated(p.probs, q.probs, 0.1), abs=1e-15)

    def test_matches_enumeration(self, rng):
        for _ in range(200):
            size = int(rng.integers(2, 13))
            p = random_distribution(rng, size, allow_zeros=True)
            q = random_distribution(rng, size, allow_zeros=True)
            delta = float(rng.choice([0.0, 0.01, 0.1, 0.3, 0.6]))
            got = approx_max_divergence(p, q, delta)
            want = enumerated(p.probs, q.probs, delta)
            if math.isinf(want):
                assert got == want
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_scan_equals_sequential_prefix_loop(self, rng):
        # cumsum adds in the loop's order, so results must agree bit for bit
        def loop(pv, qv, delta):
            mass = denom = 0.0
            best = None
            for i in _ratio_order(pv, qv):
                mass += float(pv[i])
                denom += float(qv[i])
                if mass > delta:
                    if denom == 0.0:
                        return math.inf
                    value = (mass - delta) / denom
                    best = value if best is None else max(best, value)
            return None if best is None else math.log(best)

        for _ in range(500):
            size = int(rng.integers(1, 40))
            pv = random_distribution(rng, size, allow_zeros=True).probs
            qv = random_distribution(rng, size, allow_zeros=True).probs
            delta = float(rng.choice([0.0, 0.01, 0.3, 0.9, 1.0 - 2.0**-53]))
            want = loop(pv, qv, delta)
            if want is None:
                with pytest.raises(NoFeasibleSet):
                    scanned(pv, qv, delta)
            else:
                assert scanned(pv, qv, delta) == want

    def test_enumeration_does_not_depend_on_the_batch(self, rng):
        # each subset sum adds its entries in index order, as a plain loop
        # does, so a row's values are the same alone and in any batch
        deltas = (0.0, 0.05, 0.3)
        for size in (1, 4, 8, 12):
            pv = np.array([random_distribution(rng, size, allow_zeros=True).probs
                           for _ in range(40)])
            qv = np.array([random_distribution(rng, size, allow_zeros=True).probs
                           for _ in range(40)])
            batch = _approx_max_div_enumerated(pv, qv, deltas)
            for i in range(len(pv)):
                alone = _approx_max_div_enumerated(pv[i : i + 1], qv[i : i + 1], deltas)
                assert alone.tobytes() == batch[i : i + 1].tobytes()
            few = _approx_max_div_enumerated(pv[:7], qv[:7], deltas)
            assert few.tobytes() == batch[:7].tobytes()
            sums = _subset_sums(pv[:3])
            for subset in range(1, 1 << size, max(1, (1 << size) // 50)):
                for i in range(3):
                    total = 0.0
                    for j in range(size):
                        if subset >> j & 1:
                            total += float(pv[i, j])
                    assert sums[i, subset - 1] == total

    def test_positive_cells_give_the_every_cell_doubles(self, rng):
        # dropping the p = 0 cells keeps each remaining subset's sum and the
        # maximum to the bit, in a batch or alone, with +inf where a
        # positive cell has no q-mass
        deltas = (0.0, 0.01, 0.3, 1.0 - 2.0**-53)
        for size in range(1, 13):
            p = (rng.random((30, size)) + 1e-3) * (rng.random((30, size)) > 0.3)
            q = (rng.random((30, size)) + 1e-3) * (rng.random((30, size)) > 0.3)
            p[np.arange(30), rng.integers(size, size=30)] += 1.0
            p /= p.sum(axis=1, keepdims=True)
            # row 0 has no q-mass on the support of p, row 1 none on its largest cell
            q[0] = np.where(p[0] > 0.0, 0.0, q[0])
            q[1, p[1].argmax()] = 0.0
            for rows in (slice(None), slice(0, 1), slice(7, 8), slice(5, 17)):
                try:
                    want = enumerated_every_cell(p[rows], q[rows], deltas)
                except NoFeasibleSet as error:
                    # the sum of a row can fall short of 1 - 2^-53
                    with pytest.raises(NoFeasibleSet, match=f"^{error}$"):
                        _approx_max_div_enumerated(p[rows], q[rows], deltas)
                    want = enumerated_every_cell(p[rows], q[rows], deltas[:3])
                    got = _approx_max_div_enumerated(p[rows], q[rows], deltas[:3])
                else:
                    got = _approx_max_div_enumerated(p[rows], q[rows], deltas)
                assert got.tobytes() == want.tobytes(), (size, rows)
            infinite = np.isinf(_approx_max_div_enumerated(p[:2], q[:2], deltas[:3]))
            assert infinite[0].all() and infinite[1, 0]

    def test_enumeration_without_a_feasible_set_names_the_first_budget(self):
        deltas = (0.0, 0.01, 0.3, 1.0 - 2.0**-53)
        # row 0 sums to 1 - 2^-53, so only the last budget leaves it without a set
        pv = np.array([[0.5, 0.0, 0.5 - 2.0**-53], [0.2, 0.0, 0.0], [0.0, 0.0, 0.0]])
        qv = np.full((3, 3), 1.0 / 3.0)
        for rows, first in ((slice(0, 1), 1.0 - 2.0**-53), (slice(0, 2), 0.3),
                            (slice(0, 3), 0.0), (slice(2, 3), 0.0)):
            for oracle in (enumerated_every_cell, _approx_max_div_enumerated):
                with pytest.raises(NoFeasibleSet, match=f"^no outcome set has mass above {first}$"):
                    oracle(pv[rows], qv[rows], deltas)
        # a budget list out of order still names its first infeasible entry
        with pytest.raises(NoFeasibleSet, match="above 0.3$"):
            _approx_max_div_enumerated(pv[:2], qv[:2], (0.0, 0.3, 0.25))

    def test_enumeration_limit_counts_positive_cells(self, rng):
        mass = np.zeros(20)
        mass[rng.permutation(20)[:10]] = rng.random(10) + 1e-3
        joint = JointDistribution(Alphabet([f"x{i}" for i in range(4)]),
                                  Alphabet([f"y{i}" for i in range(5)]),
                                  (mass / mass.sum()).reshape(4, 5))
        for beta in (0.01, 0.1, 0.5):
            assert approx_max_information_by_enumeration(joint, beta) == pytest.approx(
                approx_max_information(joint, beta), abs=1e-12
            )
        mass[rng.permutation(np.flatnonzero(mass == 0.0))[:7]] = 0.5
        joint = JointDistribution(joint.input, joint.output, (mass / mass.sum()).reshape(4, 5))
        with pytest.raises(LeakageLabError, match="limited to 16 outcomes with positive mass"):
            approx_max_information_by_enumeration(joint, 0.1)

    def test_infinite_when_budget_cannot_cover(self):
        a = Alphabet(["a", "b"])
        p = DiscreteDistribution(a, [0.6, 0.4])
        q = DiscreteDistribution(a, [0.0, 1.0])
        assert approx_max_divergence(p, q, 0.5) == math.inf
        # a budget that swallows the q-null mass leaves a finite value
        assert math.isfinite(approx_max_divergence(p, q, 0.7))

    def test_no_feasible_set(self):
        with pytest.raises(NoFeasibleSet):
            scanned(np.array([0.3, 0.1]), np.array([0.5, 0.5]), 0.5)

    def test_delta_range(self):
        p = DiscreteDistribution(Alphabet(["a", "b"]), [0.5, 0.5])
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(BetaOutOfRange):
                approx_max_divergence(p, p, bad)


class TestMaxInformation:
    def test_product_zero(self):
        # dyadic masses keep the recomputed marginals exact
        exact = JointDistribution(
            Alphabet(["a", "b"]), Alphabet(["x", "y"]), np.outer([0.25, 0.75], [0.5, 0.5])
        )
        assert max_information(exact) == 0.0
        # generic masses drift by ulps once the marginals are recomputed
        rough = JointDistribution(
            Alphabet(["a", "b"]), Alphabet(["x", "y"]), np.outer([0.3, 0.7], [0.4, 0.6])
        )
        assert max_information(rough) == pytest.approx(0.0, abs=1e-12)

    def test_bernoulli_identity(self):
        assert max_information(bernoulli_identity_joint(0.2)) == pytest.approx(
            math.log(5.0), abs=1e-12
        )

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_uniform_identity(self, k):
        labels = [str(i) for i in range(k)]
        joint = joint_from(uniform(labels), Channel.identity(Alphabet(labels)))
        assert max_information(joint) == pytest.approx(math.log(k), abs=1e-12)

    def test_dominates_leakage(self, rng):
        for _ in range(100):
            joint = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            assert maximal_leakage_of_joint(joint).nats <= max_information(joint) + 1e-10


class TestApproxMaxInformation:
    def test_bec_example(self, bec05):
        joint = joint_from(uniform(["0", "1"]), bec05)
        assert approx_max_information(joint, 0.1) == pytest.approx(
            math.log(1.6), abs=1e-12
        )

    def test_bec_closed_form_grid(self):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            joint = joint_from(uniform(["0", "1"]), bec_channel(alpha))
            for beta in (0.02, 0.05, 0.1, 0.2, 0.3):
                expected = math.log(
                    2.0 * max((1 - alpha - beta) / (1 - alpha), (1 - beta) / (1 + alpha))
                )
                got = approx_max_information(joint, beta)
                assert got == pytest.approx(expected, abs=1e-12), (alpha, beta)
                assert got == pytest.approx(
                    approx_max_information_by_enumeration(joint, beta), abs=1e-15
                )

    def test_bernoulli_identity_true_value(self):
        # for X ~ Ber(2b) and small b the optimal set is the (1, 1) cell,
        # worth (2b - b) / (2b)^2 = 1 / (4b); at large b the whole
        # diagonal takes over; both checked against full enumeration
        def best(beta):
            p_one = 2.0 * beta
            q11 = p_one * p_one
            q00 = (1.0 - p_one) * (1.0 - p_one)
            return math.log(
                max(
                    (p_one - beta) / q11,
                    (1.0 - p_one - beta) / q00,
                    (1.0 - beta) / (q00 + q11),
                )
            )

        assert best(0.01) == pytest.approx(math.log(1.0 / 0.04), abs=1e-12)
        assert best(0.1) == pytest.approx(math.log(1.0 / 0.4), abs=1e-12)
        for beta in (0.01, 0.1, 0.4):
            joint = bernoulli_identity_joint(2.0 * beta)
            got = approx_max_information(joint, beta)
            assert got == pytest.approx(best(beta), abs=1e-12)
            assert got == pytest.approx(
                approx_max_information_by_enumeration(joint, beta), abs=1e-15
            )

    def test_nonincreasing_in_beta(self, rng):
        grid = [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
        for _ in range(50):
            joint = random_joint(rng, 3, 3)
            values = [approx_max_information(joint, b) for b in grid]
            for lo, hi in itertools.pairwise(values):
                assert hi <= lo + 1e-12

    def test_small_beta_approaches_max_information(self, rng):
        for _ in range(20):
            joint = random_joint(rng, 3, 3)
            exact = max_information(joint)
            assert approx_max_information(joint, 1e-12) == pytest.approx(exact, abs=1e-9)

    def test_beta_bounds(self):
        joint = bernoulli_identity_joint(0.5)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(BetaOutOfRange):
                approx_max_information(joint, bad)

    def test_budget_inequality_sweep(self, rng):
        for _ in range(100):
            joint = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            leakage = maximal_leakage_of_joint(joint).nats
            for beta in (0.01, 0.1, 0.3):
                assert approx_max_information(joint, beta) <= leakage + math.log(
                    1.0 / beta
                ) + 1e-10


class TestEmpiricalDP:
    def test_constant_channel(self):
        product = ProductAlphabet(Alphabet(["0", "1"]), 2)
        rows = np.tile([0.3, 0.7], (4, 1))
        ch = Channel(product, Alphabet(["y0", "y1"]), rows)
        assert empirical_dp(ch) == 0.0

    def test_deterministic_nonconstant(self):
        product = ProductAlphabet(Alphabet(["0", "1"]), 2)
        mapping = {label: label.split(",")[0] for label in product.labels}
        ch = Channel.deterministic(product, Alphabet(["0", "1"]), mapping)
        assert empirical_dp(ch) == math.inf

    def test_randomized_response_product(self):
        # per-coordinate randomized response composes coordinate-wise, so
        # the neighbor ratio is exactly the single-coordinate ratio
        epsilon = 0.8
        stay = math.exp(epsilon) / (1.0 + math.exp(epsilon))
        base = np.array([[stay, 1.0 - stay], [1.0 - stay, stay]])
        product = ProductAlphabet(Alphabet(["0", "1"]), 3)
        out = ProductAlphabet(Alphabet(["0", "1"]), 3)
        rows = np.empty((8, 8))
        for i in range(8):
            for j in range(8):
                value = 1.0
                si, sj = f"{i:03b}", f"{j:03b}"
                for a, b in zip(si, sj):
                    value *= base[int(a), int(b)]
                rows[i, j] = value
        ch = Channel(product, out, rows)
        assert empirical_dp(ch) == pytest.approx(epsilon, abs=1e-12)

    def test_requires_product_alphabet(self):
        with pytest.raises(InputNotProduct):
            empirical_dp(bec_channel(0.5))

    def test_one_symbol_base_has_no_neighbors(self):
        # 100 positions are more than numpy's 64 array axes
        product = ProductAlphabet(Alphabet(["a"]), 100)
        assert empirical_dp(Channel(product, Alphabet(["y0", "y1"]), [[0.25, 0.75]])) == 0.0

    @pytest.mark.parametrize("kind", ["positive", "zeros", "shared-zeros", "zero-column",
                                      "constant", "one-hot"])
    def test_matches_stride_oracle_bit_for_bit(self, rng, kind):
        values = []
        for _ in range(50):
            base = int(rng.integers(2, 5))
            n = int(rng.integers(1, 6))
            product = ProductAlphabet(Alphabet(str(v) for v in range(base)), n)
            outputs = int(rng.integers(1, 5))
            rows = random_product_rows(rng, kind, len(product), outputs)
            channel = Channel(product, Alphabet(f"y{j}" for j in range(outputs)), rows)
            expected = stride_empirical_dp(channel)
            assert empirical_dp(channel) == expected
            values.append(expected)
        if kind == "constant":
            assert set(values) == {0.0}
        elif kind == "one-hot":
            assert math.inf in values
        elif kind != "zeros":
            assert all(0.0 < v < math.inf for v in values if v)


def random_product_rows(rng: np.random.Generator, kind: str, inputs: int,
                        outputs: int) -> np.ndarray:
    """Rows of one of the ``test_matches_stride_oracle_bit_for_bit`` families."""
    if kind == "constant":
        return np.tile(random_distribution(rng, outputs, allow_zeros=True).probs, (inputs, 1))
    if kind == "one-hot":
        return np.eye(outputs)[rng.integers(outputs, size=inputs)]
    rows = rng.random((inputs, outputs)) + 1e-3
    if kind == "zeros":
        rows = random_channel(rng, inputs, outputs).rows
    elif kind == "shared-zeros" and outputs > 1:
        # outputs impossible under every input: the pairs where both vanish
        rows[:, rng.random(outputs) < 0.4] = 0.0
        rows[:, 0] += 1e-3
    elif kind == "zero-column" and outputs > 1:
        # one output impossible under every input, the others all positive
        rows[:, rng.integers(outputs)] = 0.0
    return rows / rows.sum(axis=1, keepdims=True)


def stride_empirical_dp(channel: Channel) -> float:
    """Oracle for ``empirical_dp``: each tuple's neighbors found by index strides.

    Position p of a tuple moves its index by base ** (n - 1 - p) per unit,
    so the neighbor that sets position p to ``value`` is a fancy-index
    gather of the rows.
    """
    alphabet = channel.input
    rows = channel.rows
    digits = alphabet.digit_matrix()
    base_size = len(alphabet.base)
    index = np.arange(len(alphabet), dtype=np.int64)

    best = 0.0
    for pos in range(alphabet.n):
        stride = base_size ** (alphabet.n - 1 - pos)
        for value in range(base_size):
            moved = digits[:, pos] != value
            if not np.any(moved):
                continue
            neighbor = index[moved] + (value - digits[moved, pos]) * stride
            p = rows[moved]
            q = rows[neighbor]
            hot = p > 0.0
            if np.any(hot & (q == 0.0)):
                return math.inf
            with np.errstate(divide="ignore", invalid="ignore"):
                log_ratio = np.where(hot, np.log(p) - np.log(q), -np.inf)
            best = max(best, float(log_ratio.max()))
    return best


class TestRefusalsNameTheirCase:
    """Refusals that must look at every row and name the one at fault (see tests/mutate.py)."""

    def test_enumeration_limit_checks_every_row(self):
        # a row of 17 positive cells beside a row of 3 refuses the whole batch
        pv = np.zeros((2, 17))
        pv[0], pv[1, :3] = 1 / 17, 1 / 3
        qv = np.full((2, 17), 1 / 17)
        with pytest.raises(LeakageLabError, match="limited to 16 outcomes with positive mass"):
            _approx_max_div_enumerated(pv, qv, (0.1,))
        # exactly 16 positive cells is within the limit
        pv, qv = np.full((1, 16), 1 / 16), np.linspace(1.0, 2.0, 16)[None] / 24.0
        assert _approx_max_div_enumerated(pv, qv, (0.1,)) == pytest.approx(
            _approx_max_div_scan(pv, qv, (0.1,)), abs=1e-12)

    def test_log_clamped_names_the_sum_below_every_channel(self):
        # only the second sum lies below 1 - 1e-8
        with pytest.raises(LeakageLabError) as caught:
            _log_clamped(np.array([1.5, 0.5, 1.0]))
        assert str(caught.value) == "column maxima sum to 0.5, below any valid channel"

    def test_unknown_support_pairs_list_the_first_three(self):
        pairs = [("0", "z"), ("1", "z")]
        support = [("9", "z"), ("5", "z"), ("7", "z"), ("6", "z"), ("8", "z")]
        with pytest.raises(LeakageLabError) as caught:
            conditional_maximal_leakage(bec_channel(0.5), pairs, support)
        assert str(caught.value) == (
            "support references unknown pairs: [('5', 'z'), ('6', 'z'), ('7', 'z')]")
