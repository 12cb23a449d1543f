import math

import numpy as np
import pytest

from leakage_lab import (
    Alphabet,
    AlphabetMismatch,
    CapExceeded,
    Channel,
    DiscreteDistribution,
    EventMask,
    JointDistribution,
    LeakageLabError,
    NegativeMass,
    NotNormalized,
    ProductAlphabet,
    compose_channels,
    enumeration_cap,
    fiber_max_prob,
    iid_prior,
    joint_from,
)
from leakage_lab import jsonio

from conftest import bec_channel, hamming_neighbors, tuple_at


class TestAlphabet:
    def test_order_and_lookup(self):
        a = Alphabet(["b", "a", "c"])
        assert a.labels == ("b", "a", "c")
        assert a.index("a") == 1
        assert len(a) == 3

    def test_unknown_label(self):
        with pytest.raises(LeakageLabError, match="unknown"):
            Alphabet(["a"]).index("z")

    def test_duplicates_rejected(self):
        with pytest.raises(LeakageLabError):
            Alphabet(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(LeakageLabError):
            Alphabet([])

    def test_equality_and_hash(self):
        assert Alphabet(["x", "y"]) == Alphabet(["x", "y"])
        assert Alphabet(["x", "y"]) != Alphabet(["y", "x"])
        assert hash(Alphabet(["x"])) == hash(Alphabet(["x"]))

    def test_immutable(self):
        a = Alphabet(["x"])
        with pytest.raises(AttributeError):
            a.labels = ("y",)


class TestProductAlphabet:
    def test_lexicographic_order(self):
        p = ProductAlphabet(Alphabet(["0", "1"]), 2)
        assert p.labels == ("0,0", "0,1", "1,0", "1,1")

    def test_tuple_round_trip(self):
        p = ProductAlphabet(Alphabet(["a", "b", "c"]), 3)
        for i in range(len(p)):
            assert p.index(",".join(tuple_at(p, i))) == i

    def test_digit_matrix_matches_tuples(self):
        base = Alphabet(["a", "b", "c"])
        p = ProductAlphabet(base, 2)
        digits = p.digit_matrix()
        for i in range(len(p)):
            expected = tuple(base.labels[d] for d in digits[i])
            assert expected == tuple_at(p, i)
            assert ",".join(expected) == p.labels[i]

    @pytest.mark.parametrize("b,n", [(2, 2), (2, 4), (3, 3), (3, 4)])
    def test_neighbors_symmetric_irreflexive(self, b, n):
        p = ProductAlphabet(Alphabet([str(i) for i in range(b)]), n)
        seen = {}
        for i in range(len(p)):
            neigh = set(hamming_neighbors(p, i))
            assert i not in neigh
            assert len(neigh) == n * (b - 1)
            seen[i] = neigh
        for i, neigh in seen.items():
            for j in neigh:
                assert i in seen[j]

    def test_neighbor_means_one_coordinate(self):
        p = ProductAlphabet(Alphabet(["0", "1"]), 3)
        for i in range(len(p)):
            for j in hamming_neighbors(p, i):
                a, b = tuple_at(p, i), tuple_at(p, j)
                assert sum(u != v for u, v in zip(a, b)) == 1

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("LEAKAGE_LAB_CAP", str(10**6))
        with pytest.raises(CapExceeded, match="exceed"):
            ProductAlphabet(Alphabet(["0", "1"]), 30)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("LEAKAGE_LAB_CAP", "8")
        assert enumeration_cap() == 8
        with pytest.raises(CapExceeded):
            ProductAlphabet(Alphabet(["0", "1"]), 4)
        ProductAlphabet(Alphabet(["0", "1"]), 3)


class TestDiscreteDistribution:
    def test_basic(self):
        d = DiscreteDistribution(Alphabet(["a", "b"]), [0.25, 0.75])
        assert d.probs.tolist() == [0.25, 0.75]
        assert d.support().tolist() == [0, 1]

    def test_not_normalized(self):
        with pytest.raises(NotNormalized) as err:
            DiscreteDistribution(Alphabet(["a", "b"]), [0.5, 0.4])
        assert err.value.residual == pytest.approx(-0.1)

    def test_tolerance_accepted(self):
        DiscreteDistribution(Alphabet(["a", "b"]), [0.5, 0.5 + 1e-10])

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            DiscreteDistribution(Alphabet(["a", "b"]), [1.5, -0.5])

    def test_all_zero_mass(self):
        # nonnegative entries summing to ~1 always leave some support, so
        # the all-zero vector trips the normalization check first
        with pytest.raises(NotNormalized):
            DiscreteDistribution(Alphabet(["a"]), [0.0])

    def test_length_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            DiscreteDistribution(Alphabet(["a", "b"]), [1.0])

    def test_support_with_zeros(self):
        d = DiscreteDistribution(Alphabet(["a", "b", "c"]), [0.5, 0.0, 0.5])
        assert d.support().tolist() == [0, 2]
        assert d.support_labels() == ("a", "c")

    def test_probs_read_only(self):
        d = DiscreteDistribution(Alphabet(["a", "b"]), [0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(LeakageLabError, match="non-finite"):
            DiscreteDistribution(Alphabet(["a", "b"]), [bad, 1.0])


class TestChannel:
    def test_row_validation_names_row(self):
        with pytest.raises(NotNormalized, match="row 1"):
            Channel(Alphabet(["a", "b"]), Alphabet(["x", "y"]), [[0.5, 0.5], [0.9, 0.0]])

    def test_negative_entry(self):
        with pytest.raises(NegativeMass):
            Channel(Alphabet(["a"]), Alphabet(["x", "y"]), [[1.2, -0.2]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN row passes every comparison, so it needs its own check
        with pytest.raises(LeakageLabError, match="non-finite"):
            Channel(Alphabet(["a", "b"]), Alphabet(["x", "y"]), [[0.5, 0.5], [bad, bad]])

    def test_identity(self):
        ch = Channel.identity(Alphabet(["a", "b"]))
        assert ch.rows.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_deterministic(self):
        ch = Channel.deterministic(
            Alphabet(["a", "b", "c"]), Alphabet(["x", "y"]), {"a": "x", "b": "y", "c": "x"}
        )
        assert ch.rows.tolist() == [[1, 0], [0, 1], [1, 0]]

    def test_shape_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            Channel(Alphabet(["a"]), Alphabet(["x", "y"]), [[1.0]])


class TestJoint:
    def test_marginals(self):
        j = JointDistribution(
            Alphabet(["a", "b"]), Alphabet(["x", "y"]), [[0.1, 0.2], [0.3, 0.4]]
        )
        assert j.marginal_input().probs.tolist() == pytest.approx([0.3, 0.7])
        assert j.marginal_output().probs.tolist() == pytest.approx([0.4, 0.6])

    def test_channel_recovers_rows(self):
        prior = DiscreteDistribution(Alphabet(["a", "b"]), [0.25, 0.75])
        ch = bec_channel(0.3)
        rebuilt = joint_from(
            prior, Channel(prior.alphabet, ch.output, ch.rows)
        ).channel()
        assert np.allclose(rebuilt.rows, ch.rows, atol=1e-12)

    def test_zero_marginal_row_is_uniform(self):
        j = JointDistribution(Alphabet(["a", "b"]), Alphabet(["x", "y"]), [[0.5, 0.5], [0, 0]])
        assert j.channel().rows[1].tolist() == [0.5, 0.5]

    def test_mass_validation(self):
        with pytest.raises(NotNormalized):
            JointDistribution(Alphabet(["a"]), Alphabet(["x", "y"]), [[0.5, 0.4]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(LeakageLabError, match="non-finite"):
            JointDistribution(Alphabet(["a"]), Alphabet(["x", "y"]), [[bad, 1.0]])


class TestEventMask:
    def test_fiber(self):
        e = EventMask(Alphabet(["a", "b"]), Alphabet(["x", "y"]), [[True, False], [True, True]])
        assert e.fiber(0).tolist() == [0, 1]
        assert e.fiber(1).tolist() == [1]
        assert e.fiber("y").tolist() == [1]

    def test_diagonal_and_full(self):
        a = Alphabet(["a", "b"])
        assert EventMask.diagonal(a).mask.tolist() == [[True, False], [False, True]]
        assert EventMask.full(a, a).mask.all()


class TestOps:
    def test_joint_from_identity(self):
        prior = DiscreteDistribution(Alphabet(["a", "b"]), [0.5, 0.5])
        j = joint_from(prior, Channel.identity(prior.alphabet))
        assert j.mass.tolist() == [[0.5, 0.0], [0.0, 0.5]]

    def test_joint_from_degenerate_prior(self):
        prior = DiscreteDistribution(Alphabet(["0", "1"]), [1.0, 0.0])
        j = joint_from(prior, bec_channel(0.5))
        assert (j.mass[1] == 0.0).all()

    def test_joint_from_bec(self):
        prior = DiscreteDistribution(Alphabet(["0", "1"]), [0.5, 0.5])
        j = joint_from(prior, bec_channel(0.5))
        assert j.mass.tolist() == [[0.25, 0.0, 0.25], [0.0, 0.25, 0.25]]

    def test_joint_marginal_recovers_prior(self, rng):
        for _ in range(50):
            k, m = rng.integers(2, 6), rng.integers(2, 6)
            probs = rng.random(k)
            probs /= probs.sum()
            prior = DiscreteDistribution(Alphabet([f"x{i}" for i in range(k)]), probs)
            rows = rng.random((k, m))
            rows /= rows.sum(axis=1, keepdims=True)
            ch = Channel(prior.alphabet, Alphabet([f"y{i}" for i in range(m)]), rows)
            back = joint_from(prior, ch).marginal_input()
            assert np.abs(back.probs - prior.probs).max() < 1e-12

    def test_compose_identity(self):
        a = bec_channel(0.5)
        assert np.array_equal(compose_channels(a, Channel.identity(a.output)).rows, a.rows)
        ident = Channel.identity(a.input)
        assert np.array_equal(compose_channels(ident, a).rows, a.rows)

    def test_compose_bec_then_merge(self):
        merge = Channel.deterministic(
            Alphabet(["0", "1", "e"]), Alphabet(["0", "1"]), {"0": "0", "1": "1", "e": "0"}
        )
        out = compose_channels(bec_channel(0.5), merge)
        assert out.rows.tolist() == [[1.0, 0.0], [0.5, 0.5]]

    def test_compose_associative(self, rng):
        for _ in range(50):
            sizes = rng.integers(2, 5, size=4)
            chans = []
            prev = Alphabet([f"a{i}" for i in range(sizes[0])])
            for step, size in enumerate(sizes[1:]):
                nxt = Alphabet([f"s{step}_{i}" for i in range(size)])
                rows = rng.random((len(prev), len(nxt)))
                rows /= rows.sum(axis=1, keepdims=True)
                chans.append(Channel(prev, nxt, rows))
                prev = nxt
            a, b, c = chans
            left = compose_channels(compose_channels(a, b), c)
            right = compose_channels(a, compose_channels(b, c))
            assert np.abs(left.rows - right.rows).max() < 1e-12

    def test_iid_prior_uniform(self):
        base = DiscreteDistribution(Alphabet(["0", "1"]), [0.5, 0.5])
        assert iid_prior(base, 2).probs.tolist() == [0.25] * 4

    def test_iid_prior_point_mass(self):
        base = DiscreteDistribution(Alphabet(["0", "1"]), [0.0, 1.0])
        p = iid_prior(base, 3)
        assert p.probs.tolist() == [0.0] * 7 + [1.0]

    def test_iid_prior_ber02(self):
        base = DiscreteDistribution(Alphabet(["0", "1"]), [0.8, 0.2])
        probs = iid_prior(base, 2).probs
        assert probs == pytest.approx([0.64, 0.16, 0.16, 0.04], abs=1e-15)

    def test_iid_prior_cap(self):
        base = DiscreteDistribution(Alphabet(["0", "1"]), [0.5, 0.5])
        with pytest.raises(CapExceeded):
            iid_prior(base, 40)

    def test_fiber_max_prob(self):
        prior = DiscreteDistribution(Alphabet(["a", "b"]), [0.3, 0.7])
        a = prior.alphabet
        assert fiber_max_prob(EventMask.full(a, a), prior) == 1.0
        empty = EventMask(a, a, np.zeros((2, 2), dtype=bool))
        assert fiber_max_prob(empty, prior) == 0.0
        assert fiber_max_prob(EventMask.diagonal(a), prior) == 0.7


class TestSerialization:
    def test_distribution_round_trip(self, rng):
        for _ in range(20):
            probs = rng.random(5)
            probs /= probs.sum()
            d = DiscreteDistribution(Alphabet([f"s{i}" for i in range(5)]), probs)
            back = DiscreteDistribution.from_json(jsonio.loads(jsonio.dumps(d.to_json())))
            assert np.array_equal(back.probs, d.probs)
            assert back.alphabet == d.alphabet

    def test_channel_round_trip(self, rng):
        rows = rng.random((3, 4))
        rows /= rows.sum(axis=1, keepdims=True)
        ch = Channel(Alphabet(["a", "b", "c"]), Alphabet(list("wxyz")), rows)
        back = Channel.from_json(jsonio.loads(jsonio.dumps(ch.to_json())))
        assert np.array_equal(back.rows, ch.rows)

    def test_joint_round_trip(self, rng):
        mass = rng.random((3, 3))
        mass /= mass.sum()
        j = JointDistribution(Alphabet(["a", "b", "c"]), Alphabet(["x", "y", "z"]), mass)
        back = JointDistribution.from_json(jsonio.loads(jsonio.dumps(j.to_json())))
        assert np.array_equal(back.mass, j.mass)

    def test_event_round_trip(self, rng):
        mask = rng.random((2, 3)) < 0.5
        e = EventMask(Alphabet(["a", "b"]), Alphabet(["x", "y", "z"]), mask)
        back = EventMask.from_json(jsonio.loads(jsonio.dumps(e.to_json())))
        assert np.array_equal(back.mask, e.mask)

    def test_float_format_bit_exact(self, rng):
        values = list(rng.random(200)) + [1e-300, 1e300, 0.1 + 0.2, math.pi]
        for x in values:
            assert jsonio.loads(jsonio.dumps(x)) == x

    def test_extended_inf(self):
        assert jsonio.encode_extended(math.inf) == "inf"
        assert jsonio.decode_extended("inf") == math.inf
        assert jsonio.decode_extended(0.25) == 0.25

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            jsonio.dumps(math.nan)

    def test_nested_document(self):
        doc = {"a": [1, 2.5, True, None, "s"], "b": {"c": [0.1]}}
        assert jsonio.loads(jsonio.dumps(doc)) == doc
