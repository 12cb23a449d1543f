"""End-to-end tests for the command-line interface (in process)."""

import hashlib
import importlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import leakage_lab
from leakage_lab import (
    Alphabet,
    Channel,
    DiscreteDistribution,
    JointDistribution,
    LeakageLedger,
    LedgerEntry,
    data_alphabet,
    empirical_dp,
    jsonio,
)
from leakage_lab import cli, errors, simulate
from leakage_lab.cli import main
from leakage_lab.core import ProductAlphabet
from leakage_lab.simulate import ERM, EXPONENTIAL_MECHANISM as EM, P_VALUE_NOTE

from conftest import bec_channel, bernoulli_identity_joint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    document = json.loads(captured.out) if captured.out.strip() else None
    return code, document, captured.err


def write_json(path, payload):
    path.write_text(jsonio.dumps(payload) + "\n", encoding="utf-8")
    return str(path)


# a valid generr config and ledger entry, for the malformed-object cases
GENERR = {
    "d": 1,
    "n": 2,
    "dataDistribution": DiscreteDistribution(data_alphabet(1), [0.5, 0.5]).to_json(),
    "learner": {"kind": ERM, "hypothesisClass": [[0], [1]]},
    "eta": 0.3,
    "trials": 10,
    "seed": 1,
}
DECLARED = {"label": "s", "bound_nats": 0.5, "provenance": {"kind": "declared"}}
# argvs whose bound overflows, with the name the error line must give
OVERFLOWING_BOUNDS = {
    "bound --theorem adapt --max-fiber-prob 0.5 --leakage 1000": "adaptive-event",
    "bound --theorem generr --n 1 --eta 0.5 --leakage 1000": "generalization-error",
    "bound --theorem generr --n 1 --eta 0.01 --leakage 709.5": "generalization-error",
    "bound --theorem generr-c --n 1 --eta 0.5 --sensitivity 1 --leakage 1000":
        "generalization-error-sensitivity",
    "bound --theorem hyptest --sigma 0.5 --leakage 1000": "false-discovery",
}

README_GENERR = {
    "d": 2,
    "n": 6,
    "dataDistribution": {"labels": ["x0:0", "x0:1", "x1:0", "x1:1"],
                         "probs": [0.4, 0.1, 0.3, 0.2]},
    "learner": {"kind": ERM, "hypothesisClass": [[0, 0], [0, 1], [1, 0], [1, 1]],
                "tieBreak": "lowest-index"},
    "eta": 0.45,
    "trials": 10_000,
    "seed": 20260814,
}
# d = 10 with all 1,024 hypotheses and n = 1: risks stored column by column
# and a 1,024-row inverse CDF; d = 2 with n = 300: symbol tallies past 255
MANY_HYPOTHESES = {
    "d": 10,
    "n": 1,
    "dataDistribution": {"labels": [f"x{i}:{b}" for i in range(10) for b in (0, 1)],
                         "probs": [(i + 1) / 210 for i in range(20)]},
    "learner": {"kind": ERM, "hypothesisClass": [list(h) for h in itertools.product((0, 1), repeat=10)]},
    "eta": 0.5,
    "trials": 3_000,
    "seed": 11,
}
LARGE_N = {**README_GENERR, "n": 300, "eta": 0.05, "trials": 3_000, "seed": 12}
# config, stdout line and sha256 of the --trace CSV of simulate generr runs
GOLDEN_GENERR = {
    "readme-erm": (
        README_GENERR,
        '{"empiricalTail": 0.0109, "mcHalfWidth": 0.0022714316964554462, '
        '"theoreticalBound": 0.7042946606589803, "exactLeakage_nats": 1.3862943611198906, '
        '"ledgerBound_nats": 1.3862943611198906, "pass": true}',
        "2e1634e4d996af1ca8d3a46f009fa1837336f8a13c6bfcc08f3e3b83fe6d57a0",
    ),
    "readme-em": (
        {**README_GENERR, "learner": {**README_GENERR["learner"], "kind": EM, "epsilon": 0.5}},
        '{"empiricalTail": 0.009, "mcHalfWidth": 0.002052163248782185, '
        '"theoreticalBound": 0.3248796507717736, "exactLeakage_nats": 0.6125523488900907, '
        '"ledgerBound_nats": 1.3862943611198906, "pass": true}',
        "5650c7144d626dc2d1636ce3c750fd736915bad76799af889efd558218d0db74",
    ),
    "d3-em-8-hypotheses": (
        {
            "d": 3,
            "n": 4,
            "dataDistribution": {"labels": [f"x{i}:{b}" for i in range(3) for b in (0, 1)],
                                 "probs": [0.3, 0.05, 0.1, 0.25, 0.2, 0.1]},
            "learner": {"kind": EM, "epsilon": 0.5,
                        "hypothesisClass": [list(h) for h in itertools.product((0, 1), repeat=3)]},
            "eta": 0.3,
            "trials": 10_000,
            "seed": 7,
        },
        '{"empiricalTail": 0.207, "mcHalfWidth": 0.009357908578203705, '
        '"theoreticalBound": 1.532090125589739, "exactLeakage_nats": 0.45348571774204216, '
        '"ledgerBound_nats": 2.0, "pass": true}',
        "5e75981f7cb3dd1760796c661c9fe1f4a1b5615d487844e35d652fbdb2c1cfb6",
    ),
    "d10-erm-1024-hypotheses": (
        MANY_HYPOTHESES,
        '{"empiricalTail": 1.0, "mcHalfWidth": 0.0015338791317189848, '
        '"theoreticalBound": 13.343674513677938, "exactLeakage_nats": 2.3978952727983707, '
        '"ledgerBound_nats": 6.931471805599453, "pass": true}',
        "4b11d5ecd8280c6dd17f8835460a3ad8f4058bf6bb0d593bf4ecd61e28d159a6",
    ),
    "d10-em-1024-hypotheses": (
        {**MANY_HYPOTHESES, "learner": {**MANY_HYPOTHESES["learner"], "kind": EM, "epsilon": 4.0}},
        '{"empiricalTail": 0.37533333333333335, "mcHalfWidth": 0.02055620642227013, '
        '"theoreticalBound": 2.1369217311155406, "exactLeakage_nats": 0.5662191695169734, '
        '"ledgerBound_nats": 4.0, "pass": true}',
        "cbd944584db9e863d57283c51a8c2b441062c3dee99590e7db0ecb66f40b98dc",
    ),
    "d2-erm-n300": (
        LARGE_N,
        '{"empiricalTail": 0.06233333333333333, "mcHalfWidth": 0.009851288836165713, '
        '"theoreticalBound": 1.7850412811874385, "exactLeakage_nats": null, '
        '"ledgerBound_nats": 1.3862943611198906, "pass": true}',
        "8547c06779aae755e38cc66fda33b942140c9c4bd0bd77db70a73487286f0ad6",
    ),
    "d2-em-n300": (
        {**LARGE_N, "learner": {**LARGE_N["learner"], "kind": EM, "epsilon": 0.05}},
        '{"empiricalTail": 0.07466666666666667, "mcHalfWidth": 0.010762982047462538, '
        '"theoreticalBound": 1.7850412811874385, "exactLeakage_nats": null, '
        '"ledgerBound_nats": 1.3862943611198906, "pass": true}',
        "17a149a85ea31fa06880b5582ba487e384a366efe411343da40363b631f2c92a",
    ),
}


# sha256 of the stdout of verify all --instances 1000 --seed 7
GOLDEN_VERIFY = "6607013bf7402fb192bdc141afe801c1d02e95cd6c41628676d85a5a8303aabe"
# stdout of verify soundness --instances 150 (the benchmark's size) at a
# seed, which pins diagonal_equality_gap, the worst gap of a twin
GOLDEN_VERIFY_SOUNDNESS = {
    seed: '{"suites": [{"suite": "soundness", "instances": 150, "checks": {"event_bound": '
          '{"count": 150, "violations": 0, "worst_margin": 0.0, "tolerance": 1e-10}}, '
          f'"failures": [], "pass": true, "diagonal_equality_gap": {gap}}}], "pass": true}}\n'
    for seed, gap in ((7, "1.1102230246251565e-16"), (11, "2.220446049250313e-16"))
}
# sha256 of the stdout of verify maxinfo at (instances, seed), which pins
# the enumeration oracle's values on other draws
GOLDEN_VERIFY_MAXINFO = {
    (1000, 1): "dfbd63e9660e6d63858906f2eea837e31af40324b4b0cc45d2b3aef3c95425e0",
    (1000, 3): "afe8fa450bc2c478491ab6a618b271a1955aab4a4be90f2ac5d91bac0a3d94db",
    (1000, 11): "1225ae9dc1ced8a69915fbfc188c965ee231a0ddef5e6f73eadc81d969703bc7",
    (1000, 2**64 - 1): "d0061cf0d1cb7025a16ae305655c571ee0a23d78abba0d72f10009187dc5dd3b",
    (60, 7): "b6e165d72006844e2ed61d28b3f3e39f2d7f557c69dd8fb1864a551ae82c9929",
}

README_HYPTEST = {"n": 64, "numStats": 10, "sigma": 0.005, "delta": 0.05,
                  "trials": 10_000, "seed": 20260814}
# stdout (up to its constant note) and --trace sha256 of simulate hyptest runs:
# (8, 9) makes every window the whole sample, so every trial ties; T = 16
# and 17 sit at and just past a power of two
GOLDEN_HYPTEST = {
    "readme": (
        README_HYPTEST,
        '{"adjustedSigma": 0.004999999999999999, "exactLeakage_nats": null, '
        '"ledgerBound_nats": 2.302585092994046, "adjusted": {"significance": '
        '0.004999999999999999, "empiricalTail": 0.0352, "mcHalfWidth": 0.004152597714652588, '
        '"theoreticalBound": 0.05, "pass": true}, "raw": {"significance": 0.005, '
        '"empiricalTail": 0.0352, "mcHalfWidth": 0.004152597714652588, '
        '"theoreticalBound": 0.05000000000000001, "pass": true}, "pass": true',
        "814b0420acf7c3439298b07c1036eb1d570331eb210bb8d03768b53609902425",
    ),
    "n64-t16": (
        {**README_HYPTEST, "numStats": 16},
        '{"adjustedSigma": 0.003125, "exactLeakage_nats": null, '
        '"ledgerBound_nats": 2.772588722239781, "adjusted": {"significance": 0.003125, '
        '"empiricalTail": 0.0, "mcHalfWidth": 0.0, "theoreticalBound": 0.049999999999999996, '
        '"pass": true}, "raw": {"significance": 0.005, "empiricalTail": 0.0578, '
        '"mcHalfWidth": 0.005303162070784399, "theoreticalBound": 0.07999999999999999, '
        '"pass": true}, "pass": true',
        "a1daa9e5fc9356ff8cdff3cb1daab23f56466dc9cbfe0f71b0e690ad2df388c4",
    ),
    "n8-t9": (
        {**README_HYPTEST, "n": 8, "numStats": 9},
        '{"adjustedSigma": 0.005555555555555555, "exactLeakage_nats": null, '
        '"ledgerBound_nats": 2.1972245773362196, "adjusted": {"significance": '
        '0.005555555555555555, "empiricalTail": 0.0045, "mcHalfWidth": 0.0014102668234651458, '
        '"theoreticalBound": 0.05, "pass": true}, "raw": {"significance": 0.005, '
        '"empiricalTail": 0.0045, "mcHalfWidth": 0.0014102668234651458, '
        '"theoreticalBound": 0.04500000000000001, "pass": true}, "pass": true',
        "b59f51628afedabd3f96f5dac7804a3c5ae57c5f5b96294a7b7b38e521fd44f8",
    ),
    "n5000-t10": (
        {**README_HYPTEST, "n": 5000},
        '{"adjustedSigma": 0.004999999999999999, "exactLeakage_nats": null, '
        '"ledgerBound_nats": 2.302585092994046, "adjusted": {"significance": '
        '0.004999999999999999, "empiricalTail": 0.0373, "mcHalfWidth": 0.00427464022776472, '
        '"theoreticalBound": 0.05, "pass": true}, "raw": {"significance": 0.005, '
        '"empiricalTail": 0.0373, "mcHalfWidth": 0.00427464022776472, '
        '"theoreticalBound": 0.05000000000000001, "pass": true}, "pass": true',
        "064bd4e3763c6577369410ca82cbf05ec023d44f7cd9181ea9f37b701dcfcbdc",
    ),
}


MEASURE_BASE = "ab,c,de,f"
# argv after "measure" and the sha256 of its stdout, run in a directory
# that holds write_measure_inputs(): a seeded 4^6-row channel, its joint,
# and a 4^3-row channel with zero entries whose DP level is inf
GOLDEN_MEASURE = {
    "dp": (("dp", "--channel", "channel.json", "--product-base", MEASURE_BASE,
            "--copies", "6", "--bits"),
           "5ea38e8c25ff3c3d96fd265784b94415b1ab2bd670aeb096cb2370595355241b"),
    "dp-zeros": (("dp", "--channel", "zeros.json", "--product-base", MEASURE_BASE,
                  "--copies", "3", "--bits"),
                 "e8f58ad6f4a49a908b445fa79a3e2e612c3919dfc47b7f769e3955663f6d5512"),
    "ml": (("ml", "--channel", "channel.json"),
           "64a048ab9b1b1fdb68eb43c5a9818da65cb125df8359feccb75c69c1e868a460"),
    "approx-maxinfo": (("approx-maxinfo", "--joint", "joint.json", "--beta", "0.1"),
                       "dd2bcf6477a6341d992bb90746cae5c98ae1a0c91b9b38d85c6690c31e984b83"),
}


def write_measure_inputs(directory: Path) -> None:
    """The GOLDEN_MEASURE inputs, every float written as its repr."""
    rng = np.random.default_rng(20261019)
    base = Alphabet(MEASURE_BASE.split(","))
    outputs = Alphabet(f"y{j}" for j in range(5))
    product = ProductAlphabet(base, 6)
    rows = rng.random((len(product), len(outputs))) + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    prior = rng.random(len(product))
    prior /= prior.sum()
    write_json(directory / "channel.json", Channel(product, outputs, rows).to_json())
    write_json(directory / "joint.json",
               JointDistribution(product, outputs, prior[:, None] * rows).to_json())
    product = ProductAlphabet(base, 3)
    rows = rng.random((len(product), len(outputs)))
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[:, 0] += 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    write_json(directory / "zeros.json", Channel(product, outputs, rows).to_json())


# argv and the sha256 of its stdout, run in a directory that holds
# write_leakage_inputs(): a 12-row channel with zero entries, (x, z) pairs
# with equal sections and with unequal, interleaved ones (two of a single
# row), a pair support that leaves z0 empty, and a joint with a zero row
# and a zero column
GOLDEN_LEAKAGE = {
    "cml-equal": (("measure", "cml", "--channel", "channel.json", "--pairs", "equal.json"),
                  "0dcc2ba121ae6422260bf40ab78ec471856b3751e1a0694c6a4c943fa6694fe9"),
    "cml-unequal": (("measure", "cml", "--channel", "channel.json", "--pairs", "unequal.json"),
                    "4320ebb080e522238ce8a4ea2975631fc6a6404f282fec5ca2fc7a38550ae4c6"),
    "cml-support": (("measure", "cml", "--channel", "channel.json", "--pairs", "unequal.json",
                     "--support", "support.json"),
                    "29290a179fa02d4404c0d008cfcd23119bbae09cdc62520878e024a45f6d687f"),
    "ml": (("measure", "ml", "--channel", "channel.json"),
           "3a384a5a9353e82cd9a460ac22293fca40abe074b028a867f3ecd1860dea5e79"),
    "ml-support": (("measure", "ml", "--channel", "channel.json", "--support", "x1,x4,x7,x10"),
                   "7a2d96e05a1e96053d4f1d1c4db1d7a8a277ffc77abc727daa6e134f11a61deb"),
    "mi": (("measure", "mi", "--joint", "joint.json"),
           "1a530604d47ac571a709d88e18d54bc7c5a8d66417c7785a01da4eb77c6b7810"),
    "maxinfo": (("measure", "maxinfo", "--joint", "joint.json"),
                "6ddfa67c1da85b4ede5281db4ecf1b9222991d688f2d3402d1e7452f27298a37"),
    "compose": (("compose", "--channel", "channel.json", "--bits"),
                "f5aa356cc73e6582fe174f7dbe7bdd424ea3b6ddebd589448a0c655c5669c3e7"),
}


def write_leakage_inputs(directory: Path) -> None:
    """The GOLDEN_LEAKAGE inputs, every float written as its repr."""
    rng = np.random.default_rng(20261020)
    rows = rng.random((12, 4)) + 1e-3
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[np.arange(12), rng.integers(0, 4, 12)] += 0.5
    rows /= rows.sum(axis=1, keepdims=True)
    channel = Channel(Alphabet(f"x{i}" for i in range(12)), Alphabet(f"y{j}" for j in range(4)),
                      rows)
    write_json(directory / "channel.json", channel.to_json())
    write_json(directory / "equal.json", [[f"a{i % 4}", f"z{i // 4}"] for i in range(12)])
    zs = [3, 0, 3, 1, 3, 2, 0, 3, 4, 0, 3, 4]
    unequal = [[f"a{zs[:i].count(z)}", f"z{z}"] for i, z in enumerate(zs)]
    write_json(directory / "unequal.json", unequal)
    write_json(directory / "support.json",
               [p for i, p in enumerate(unequal) if p[1] != "z0" and i not in (4, 10)])
    mass = rng.random((5, 4))
    mass[rng.random(mass.shape) < 0.3] = 0.0
    mass[2], mass[:, 1] = 0.0, 0.0
    mass[0, 0] += 0.1
    mass /= mass.sum()
    write_json(directory / "joint.json", JointDistribution(
        Alphabet(f"x{i}" for i in range(5)), Alphabet(f"y{j}" for j in range(4)), mass).to_json())


@pytest.mark.parametrize("name", sorted(GOLDEN_LEAKAGE))
def test_golden_leakage_report(capsys, tmp_path, monkeypatch, name):
    # pins every byte of the leakage reports: plain and conditional maximal
    # leakage, with and without a support, and the joint measures
    argv, stdout_sha256 = GOLDEN_LEAKAGE[name]
    write_leakage_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha256
    assert captured.err == ""


@pytest.fixture
def bec_path(tmp_path):
    return write_json(tmp_path / "bec.json", bec_channel(0.5).to_json())


@pytest.fixture
def joint_path(tmp_path):
    return write_json(tmp_path / "joint.json", bernoulli_identity_joint(0.2).to_json())


# per command: the argv before a kind's or theorem's flags, and those flags
# with a value each, in the order the handler checks them; no path is read
MISSING_FLAG_CASES = {
    "measure": [
        (["measure", "ml"], [("channel", "c.json")]),
        (["measure", "cml"], [("channel", "c.json"), ("pairs", "p.json")]),
        (["measure", "mi"], [("joint", "j.json")]),
        (["measure", "maxinfo"], [("joint", "j.json")]),
        (["measure", "approx-maxinfo"], [("joint", "j.json"), ("beta", "0.1")]),
        (["measure", "dp"], [("channel", "c.json"), ("product-base", "0,1"), ("copies", "2")]),
    ],
    "bound": [
        (["bound", "--theorem", "adapt"], [("max-fiber-prob", "0.1"), ("leakage", "0.5")]),
        (["bound", "--theorem", "generr"], [("n", "10"), ("eta", "0.1"), ("leakage", "0.5")]),
        (["bound", "--theorem", "generr-c"],
         [("n", "10"), ("eta", "0.1"), ("sensitivity", "0.1"), ("leakage", "0.5")]),
        (["bound", "--theorem", "hyptest", "--sigma", "0.05"], [("leakage", "0.5")]),
        (["bound", "--theorem", "dwork"], [("beta", "0.1"), ("epsilon", "0.1"), ("n", "10")]),
        (["bound", "--theorem", "mi"], [("mutual-info", "0.5"), ("n", "10"), ("eta", "0.1")]),
        (["bound", "--theorem", "sample-complexity"],
         [("value", "0.5"), ("eta", "0.1"), ("delta", "0.05")]),
    ],
}


def assert_refused(capsys, argv, message):
    """``main(argv)`` exits 2 with nothing on stdout and the one stderr line ``message``."""
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), argv


def assert_each_missing_flag_refused(capsys, prefix, flags):
    """Dropping any one flag names it; dropping a flag and all checked after it
    names that flag, so dropping them all names the first checked."""
    what = " ".join(prefix[:3])
    for index, (dropped, _) in enumerate(flags):
        for kept in (flags[:index] + flags[index + 1:], flags[:index]):
            argv = [*prefix, *(token for flag, value in kept for token in (f"--{flag}", value))]
            assert_refused(capsys, argv, f"{what} needs --{dropped}")


@pytest.mark.parametrize("argv, message", [
    (["bound", "--theorem", "hyptest", "--leakage", "0.5"],
     "bound --theorem hyptest needs --sigma and/or --delta"),
    (["verify", "soundness", "--instances", "5"], "verify needs an explicit --seed"),
], ids=["hyptest-sigma-delta", "verify-seed"])
def test_other_missing_flag_refusals_are_one_error_line(capsys, argv, message):
    assert_refused(capsys, argv, message)


class TestMeasure:
    def test_ml(self, capsys, bec_path):
        code, doc, _ = run_cli(capsys, "measure", "ml", "--channel", bec_path)
        assert code == 0
        assert doc["measure"] == "ml"
        assert doc["nats"] == math.log(1.5)
        assert "bits" not in doc

    def test_ml_bits(self, capsys, bec_path):
        code, doc, _ = run_cli(capsys, "measure", "ml", "--channel", bec_path, "--bits")
        assert code == 0
        assert doc["bits"] == pytest.approx(math.log(1.5) / math.log(2.0), rel=1e-15)

    def test_ml_support(self, capsys, bec_path):
        code, doc, _ = run_cli(
            capsys, "measure", "ml", "--channel", bec_path, "--support", "0"
        )
        assert code == 0
        assert doc["nats"] == 0.0
        assert doc["inputs"]["support"] == ["0"]

    def test_empty_ml_support_is_an_unknown_symbol(self, capsys, bec_path):
        # an empty --support names no input; it is not "all inputs"
        code, doc, err = run_cli(capsys, "measure", "ml", "--channel", bec_path, "--support", "")
        assert code == 2
        assert doc is None
        assert err.splitlines() == ["error: unknown symbol ''"]

    def test_empty_cml_support_is_no_file(self, capsys, tmp_path, bec_path):
        pairs = write_json(tmp_path / "pairs.json", [["0", "a"], ["1", "a"]])
        code, doc, err = run_cli(capsys, "measure", "cml", "--channel", bec_path,
                                 "--pairs", pairs, "--support", "")
        assert code == 2
        assert doc is None
        assert err.splitlines() == ["error: [Errno 2] No such file or directory: ''"]

    @pytest.mark.parametrize("field", ["input_labels", "output_labels"])
    def test_label_field_given_as_a_string_is_one_error_line(self, capsys, tmp_path, field):
        payload = {"input_labels": ["0", "1"], "output_labels": ["0", "1"],
                   "rows": [[1.0, 0.0], [0.5, 0.5]], field: "01"}
        path = write_json(tmp_path / "ch.json", payload)
        code, doc, err = run_cli(capsys, "measure", "ml", "--channel", path)
        assert code == 2
        assert doc is None
        assert err.splitlines() == [f"error: {field} must be a JSON array, got '01'"]

    @pytest.mark.parametrize(
        "command,field,matrix,message",
        [
            ("ml", "rows", [[1, 0], [0, 1, 2]], "rows[1] must have length 2, got 3"),
            ("ml", "rows", [[1, 0], ["abc", 1]], "rows[1][0] must be a number, got 'abc'"),
            ("ml", "rows", [[1, 0], [True, 0]], "rows[1][0] must be a number, got True"),
            ("mi", "mass", [[0.5], [0.25, 0.25]],
             "mass[1] must have length 1, got 2"),
        ],
        ids=["ragged-rows", "string-entry", "bool-entry", "ragged-mass"],
    )
    def test_malformed_matrix_names_its_field(self, capsys, tmp_path, command, field, matrix,
                                              message):
        payload = {"input_labels": ["0", "1"], "output_labels": ["0", "1"], field: matrix}
        path = write_json(tmp_path / "m.json", payload)
        flag = "--channel" if field == "rows" else "--joint"
        code, doc, err = run_cli(capsys, "measure", command, flag, path)
        assert code == 2
        assert doc is None
        assert err.splitlines() == [f"error: {message}"]

    def test_cml(self, capsys, tmp_path):
        pairs = [["x0", "z0"], ["x1", "z0"], ["x0", "z1"], ["x1", "z1"]]
        alphabet = Alphabet(("a", "b", "c", "d"))
        channel_path = write_json(
            tmp_path / "id.json", Channel.identity(alphabet).to_json()
        )
        pairs_path = write_json(tmp_path / "pairs.json", pairs)
        code, doc, _ = run_cli(
            capsys, "measure", "cml", "--channel", channel_path, "--pairs", pairs_path
        )
        assert code == 0
        # each z section holds two x values with disjoint outputs
        assert doc["nats"] == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize(
        "flag,entries,message",
        [
            ("--pairs", ["a0", "b0", "a1", "b1"], "[0] must be a JSON array, got 'a0'"),
            ("--pairs", [["x0", "z0", "w"], ["x1", "z0"], ["x0", "z1"], ["x1", "z1"]],
             "[0] must have length 2, got 3"),
            ("--pairs", {"x0": "z0"}, " must be a JSON array, got {'x0': 'z0'}"),
            ("--pairs", [[["x0"], "z0"], ["x1", "z0"], ["x0", "z1"], ["x1", "z1"]],
             "[0][0] must be a string, got ['x0']"),
            ("--pairs", [["x0", {"z": 0}], ["x1", "z0"], ["x0", "z1"], ["x1", "z1"]],
             "[0][1] must be a string, got {'z': 0}"),
            ("--pairs", [["x0", "z0"], ["x1", 0], ["x0", "z1"], ["x1", "z1"]],
             "[1][1] must be a string, got 0"),
            ("--support", ["x0z0"], "[0] must be a JSON array, got 'x0z0'"),
            ("--support", [["x0", "z0"], ["x1"]], "[1] must have length 2, got 1"),
            ("--support", [[["a"], "z"]], "[0][0] must be a string, got ['a']"),
            ("--support", [[{"x": "a"}, "z"]], "[0][0] must be a string, got {'x': 'a'}"),
        ],
        ids=["pairs-strings", "pairs-triple", "pairs-object", "pairs-array-member",
             "pairs-object-member", "pairs-number-member", "support-strings", "support-single",
             "support-array-member", "support-object-member"],
    )
    def test_cml_entries_must_be_pairs(self, capsys, tmp_path, flag, entries, message):
        good = [["x0", "z0"], ["x1", "z0"], ["x0", "z1"], ["x1", "z1"]]
        channel_path = write_json(
            tmp_path / "id.json", Channel.identity(Alphabet(("a", "b", "c", "d"))).to_json()
        )
        bad = write_json(tmp_path / "bad.json", entries)
        paths = {"--pairs": write_json(tmp_path / "pairs.json", good), flag: bad}
        code, doc, err = run_cli(
            capsys, "measure", "cml", "--channel", channel_path,
            "--pairs", paths["--pairs"], *(["--support", bad] if flag == "--support" else []),
        )
        assert code == 2
        assert doc is None
        assert err.splitlines() == [f"error: {bad}{message}"]

    def test_cml_duplicate_pair_is_one_error_line(self, capsys, tmp_path):
        channel_path = write_json(
            tmp_path / "id.json", Channel.identity(Alphabet(("a", "b"))).to_json()
        )
        pairs_path = write_json(tmp_path / "pairs.json", [["a", "z"], ["a", "z"]])
        code, doc, err = run_cli(
            capsys, "measure", "cml", "--channel", channel_path, "--pairs", pairs_path
        )
        assert code == 2
        assert doc is None
        assert err.splitlines() == ["error: (x, z) pair ['a', 'z'] appears more than once"]

    def test_joint_measures(self, capsys, joint_path):
        code, doc, _ = run_cli(capsys, "measure", "maxinfo", "--joint", joint_path)
        assert code == 0
        assert doc["nats"] == pytest.approx(math.log(5.0), abs=1e-12)
        code, doc, _ = run_cli(
            capsys, "measure", "approx-maxinfo", "--joint", joint_path, "--beta", "0.1"
        )
        assert code == 0
        assert doc["nats"] == pytest.approx(math.log(2.5), abs=1e-12)
        code, doc, _ = run_cli(capsys, "measure", "mi", "--joint", joint_path)
        assert code == 0
        assert doc["nats"] > 0.0

    def test_dp(self, capsys, tmp_path):
        base = Alphabet(("0", "1"))
        product = ProductAlphabet(base, 1)
        p = math.e / (1.0 + math.e)
        channel = Channel(product, Alphabet(("keep", "flip")), [[p, 1.0 - p], [1.0 - p, p]])
        path = write_json(tmp_path / "rr.json", channel.to_json())
        code, doc, _ = run_cli(
            capsys, "measure", "dp", "--channel", path,
            "--product-base", "0,1", "--copies", "1",
        )
        assert code == 0
        assert doc["nats"] == empirical_dp(channel)
        assert doc["nats"] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(GOLDEN_MEASURE))
    def test_golden_report(self, capsys, tmp_path, monkeypatch, name):
        # every byte of the report is pinned: loading, labels and the
        # measure kernels must leave it unchanged
        argv, stdout_sha256 = GOLDEN_MEASURE[name]
        write_measure_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["measure", *argv]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha256
        assert captured.err == ""
        if name == "dp-zeros":
            assert json.loads(captured.out)["nats"] == "inf"

    def test_dp_builds_one_product_alphabet_and_one_channel(self, capsys, tmp_path, monkeypatch):
        write_measure_inputs(tmp_path)
        sizes, channels = [], []
        alphabet_init, channel_init = Alphabet.__init__, Channel.__init__

        def counting_alphabet(self, labels):
            alphabet_init(self, labels)
            sizes.append(len(self))

        def counting_channel(self, *args):
            channel_init(self, *args)
            channels.append(len(self.input))

        monkeypatch.setattr(Alphabet, "__init__", counting_alphabet)
        monkeypatch.setattr(Channel, "__init__", counting_channel)
        code, doc, _ = run_cli(capsys, "measure", "dp", "--channel", str(tmp_path / "channel.json"),
                               "--product-base", MEASURE_BASE, "--copies", "6")
        assert code == 0
        assert sizes.count(4**6) == 1
        assert channels == [4**6]

    def test_dp_label_mismatch(self, capsys, tmp_path):
        alphabet = Alphabet(("a", "b"))
        channel = Channel.identity(alphabet)
        path = write_json(tmp_path / "ch.json", channel.to_json())
        code, doc, err = run_cli(
            capsys, "measure", "dp", "--channel", path,
            "--product-base", "0,1", "--copies", "1",
        )
        assert code == 2
        assert doc is None
        assert "product alphabet" in err

    @pytest.mark.parametrize("labels,message", [
        (["0", "1"], None),
        ([0, 1], "input_labels[0] must be a string, got 0"),
        (["0", "0"], "channel input labels do not match the stated product alphabet"),
        ([], "channel input labels do not match the stated product alphabet"),
    ], ids=["strings", "numbers", "duplicates", "empty"])
    def test_dp_reads_input_labels_as_strings(self, capsys, tmp_path, labels, message):
        payload = {"input_labels": labels, "output_labels": ["a", "b"],
                   "rows": [[1.0, 0.0], [0.0, 1.0]]}
        path = write_json(tmp_path / "ch.json", payload)
        got, doc, err = run_cli(capsys, "measure", "dp", "--channel", path,
                                "--product-base", "0,1", "--copies", "1")
        if message is None:
            assert (got, doc["nats"]) == (0, "inf")
        else:
            assert (got, doc) == (2, None)
            assert err.splitlines() == [f"error: {message}"]

    def test_missing_required_flag(self, capsys):
        for prefix, flags in MISSING_FLAG_CASES["measure"]:
            assert_each_missing_flag_refused(capsys, prefix, flags)

    def test_infeasible_beta(self, capsys, joint_path):
        code, _, err = run_cli(
            capsys, "measure", "approx-maxinfo", "--joint", joint_path, "--beta", "1.5"
        )
        assert code == 3
        assert "beta" in err

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "measure", "ml", "--channel", "/nonexistent.json")
        assert code == 2


# argv of a compose run in a directory that holds a two-entry ledger.json and
# two erasure channels, giving each step kind twice in the reverse of the
# order compose adds them, and the sha256 of its stdout
GOLDEN_COMPOSE = (
    ("compose", "--ledger", "ledger.json", "--declared", "0.25", "--channel", "bec.json",
     "--maxinfo", "0.3", "--cardinality", "4", "--dp", "0.1,10", "--declared", "0.125",
     "--channel", "bec25.json", "--maxinfo", "0.7", "--cardinality", "3", "--dp", "0.2,5",
     "--bits"),
    "221f2da661e4423d4bfba2b1852b6cad94dfd9d352a724332c0e4bf4081cc974",
)


class TestCompose:
    def test_fresh_ledger(self, capsys):
        code, doc, _ = run_cli(
            capsys, "compose", "--dp", "0.1,10", "--cardinality", "4", "--declared", "0.25"
        )
        assert code == 0
        labels = [entry["label"] for entry in doc["entries"]]
        assert labels == ["step1", "step2", "step3"]
        assert doc["total_nats"] == pytest.approx(1.0 + math.log(4.0) + 0.25, rel=1e-12)

    def test_extend_existing(self, capsys, tmp_path):
        ledger = LeakageLedger(
            (LedgerEntry.declared("warmup", 0.5), LedgerEntry.from_cardinality("pick", 3))
        )
        path = write_json(tmp_path / "ledger.json", ledger.to_json())
        code, doc, _ = run_cli(capsys, "compose", "--ledger", path, "--declared", "0.25")
        assert code == 0
        labels = [entry["label"] for entry in doc["entries"]]
        assert labels == ["warmup", "pick", "step3"]
        assert doc["total_nats"] == pytest.approx(0.75 + math.log(3.0), rel=1e-12)

    def test_golden_step_order(self, capsys, tmp_path, monkeypatch):
        # steps join as dp, cardinality, maxinfo, channel, declared, each kind
        # in argv order, and their labels go on from the ledger's length
        argv, stdout_sha256 = GOLDEN_COMPOSE
        ledger = LeakageLedger(
            (LedgerEntry.declared("warmup", 0.5), LedgerEntry.from_cardinality("pick", 3))
        )
        write_json(tmp_path / "ledger.json", ledger.to_json())
        write_json(tmp_path / "bec.json", bec_channel(0.5).to_json())
        write_json(tmp_path / "bec25.json", bec_channel(0.25).to_json())
        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha256
        assert captured.err == ""

    def test_channel_entry(self, capsys, bec_path):
        code, doc, _ = run_cli(capsys, "compose", "--channel", bec_path, "--bits")
        assert code == 0
        assert doc["total_nats"] == math.log(1.5)
        assert doc["total_bits"] == pytest.approx(math.log2(1.5), rel=1e-15)

    @pytest.mark.parametrize(
        "entry,message",
        [
            ({"bound_nats": "0.25", "provenance": {"kind": "declared"}},
             "bound_nats must be a number, got '0.25'"),
            ({"bound_nats": True, "provenance": {"kind": "declared"}},
             "bound_nats must be a number, got True"),
            ({"bound_nats": 0.1 * 15, "provenance": {"kind": "dp-derived", "epsilon": 0.1, "n": 15.9}},
             "n must be an integer, got 15.9"),
            ({"bound_nats": 1.5, "provenance": {"kind": "dp-derived", "epsilon": "0.1", "n": 15}},
             "epsilon must be a number, got '0.1'"),
            ({"bound_nats": math.log(4), "provenance": {"kind": "cardinality", "output_size": 4.7}},
             "output_size must be an integer, got 4.7"),
        ],
    )
    def test_ledger_numbers_are_strict(self, capsys, tmp_path, entry, message):
        path = write_json(tmp_path / "ledger.json", {"entries": [{"label": "s", **entry}]})
        code, doc, err = run_cli(capsys, "compose", "--ledger", path)
        assert code == 2
        assert doc is None
        # the message names the value by its JSON path
        field = "" if message.startswith("bound_nats") else "provenance."
        assert err.splitlines() == [f"error: entries[0].{field}{message}"]

    @pytest.mark.parametrize("label", [["x"], 1, None, True], ids=["array", "number", "null", "bool"])
    def test_ledger_label_must_be_a_string(self, capsys, tmp_path, label):
        path = write_json(tmp_path / "ledger.json", {"entries": [{**DECLARED, "label": label}]})
        code, doc, err = run_cli(capsys, "compose", "--ledger", path)
        assert (code, doc) == (2, None)
        assert err.splitlines() == [f"error: entries[0].label must be a string, got {label!r}"]

    def test_malformed_dp(self, capsys):
        for value in ["0.1", "x,10", "0.1,1.5"]:
            code, _, err = run_cli(capsys, "compose", "--dp", value)
            assert code == 2
            assert err.splitlines() == [f"error: --dp expects 'epsilon,n', got {value!r}"]

    def test_negative_epsilon_is_infeasible(self, capsys):
        # the = form keeps argparse from reading the value as a flag
        code, _, _ = run_cli(capsys, "compose", "--dp=-0.5,10")
        assert code == 3


# argv after "bound" and the sha256 of its stdout: every theorem, generr-c
# with its comparison, each hyptest document, both sample-complexity modes,
# and dwork on both sides of its validity ceiling
GOLDEN_BOUND = {
    "adapt": (("--theorem", "adapt", "--max-fiber-prob", "0.1", "--leakage", "0.5"),
              "05c8026dbc6d4a39c10330d1064d5f7b23ccea410178dacfb93c4e651edd19bf"),
    "generr": (("--theorem", "generr", "--n", "500", "--eta", "0.1", "--leakage", "1.0"),
               "4d214125ff0460f41ae3b8f5c3c6e37462ef2f9589f2cb5d1a207f416e568dff"),
    "generr-trivial": (("--theorem", "generr", "--n", "5", "--eta", "0.1", "--leakage", "3"),
                       "7c36a0551f56282271875a4d89ca6354e62beb299340170dc379a3437b57ca24"),
    "generr-c": (("--theorem", "generr-c", "--n", "100", "--eta", "0.1", "--sensitivity", "0.01",
                  "--leakage", "1"),
                 "ec7ff623340b554bd3755124393224eb894eccf676da9bff7ee8ec56ed2136e6"),
    "hyptest-sigma": (("--theorem", "hyptest", "--sigma", "0.005", "--leakage", "2.3"),
                      "d6a82503a69f0d08dee7aa254ef6c0b9be262ee222ce469930317edc33616410"),
    "hyptest-delta": (("--theorem", "hyptest", "--delta", "0.05", "--leakage", "2.3"),
                      "31905932dc3f895a89c7b49260c3e95629f73ded3e9c3b4f6adae2efd90e0443"),
    "hyptest-both": (("--theorem", "hyptest", "--sigma", "0.005", "--delta", "0.05",
                      "--leakage", "2.3"),
                     "5cc68406ecff7659220d9708f4906dc202dccd50a7eb7ef50087db2026fe6be7"),
    "dwork-within": (("--theorem", "dwork", "--beta", "0.01", "--epsilon", "0.01", "--n", "100"),
                     "1e4ebd332e035e38fd8bd188553e8b3751d5669561bdf33ac46ff4b2f302b157"),
    "dwork-beyond": (("--theorem", "dwork", "--beta", "0.01", "--epsilon", "0.5", "--n", "100"),
                     "64496091af0aa6722f2341e3cd83a49da1f704d8dc7e637cc3f72098c39c2791"),
    "mi": (("--theorem", "mi", "--mutual-info", "0.5", "--n", "100", "--eta", "0.2"),
           "08fd446e44c4377ff5ff6227dbb8d027d1f17c521ec3b2213e4829415b5bd992"),
    "sample-complexity-leakage": (("--theorem", "sample-complexity", "--value", "2.77",
                                   "--eta", "0.1", "--delta", "0.05"),
                                  "33cb461d7c9158dc4041810f1318d82041047bb4b0812df947f9f64901635d87"),
    "sample-complexity-mutual-info": (("--theorem", "sample-complexity", "--value", "2.77",
                                       "--eta", "0.1", "--delta", "0.05", "--mode", "mutual-info"),
                                      "bf415c7687c62f3bbea14432fa504d1a245e1fb762fd4ea609da53e96315de21"),
}


class TestBound:
    def test_missing_required_flag(self, capsys):
        for prefix, flags in MISSING_FLAG_CASES["bound"]:
            assert_each_missing_flag_refused(capsys, prefix, flags)

    @pytest.mark.parametrize("name", sorted(GOLDEN_BOUND))
    def test_golden_report(self, capsys, name):
        argv, stdout_sha256 = GOLDEN_BOUND[name]
        assert main(["bound", *argv]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha256
        assert captured.err == ""

    @pytest.mark.parametrize("name, n", [("generr", 500), ("generr-c", 100),
                                         ("dwork-within", 100), ("mi", 100)])
    def test_n_is_printed_as_an_int(self, capsys, name, n):
        assert main(["bound", *GOLDEN_BOUND[name][0]]) == 0
        assert f'"n": {n},' in capsys.readouterr().out

    def test_generr(self, capsys):
        code, doc, _ = run_cli(
            capsys, "bound", "--theorem", "generr",
            "--n", "500", "--eta", "0.1", "--leakage", "1.0",
        )
        assert code == 0
        assert doc["value"] == 0.0002468196081733591
        assert doc["trivial"] is False

    def test_generr_c_comparison(self, capsys):
        code, doc, _ = run_cli(
            capsys, "bound", "--theorem", "generr-c",
            "--n", "1", "--eta", "1.0", "--sensitivity", "1.0", "--leakage", "0.0",
        )
        assert code == 0
        assert doc["value"] == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)
        comparison = doc["comparison"]
        assert comparison["dp_reference_bound"] == pytest.approx(
            3.0 * math.exp(-1.0), rel=1e-15
        )
        assert comparison["leakage_bound_smaller"] is True

    def test_hyptest_sigma_and_delta(self, capsys):
        code, doc, _ = run_cli(
            capsys, "bound", "--theorem", "hyptest",
            "--sigma", "0.005", "--delta", "0.05", "--leakage", str(math.log(10.0)),
        )
        assert code == 0
        assert doc["value"] == pytest.approx(0.05, rel=1e-12)
        assert doc["adjustedSignificance"] == 0.004999999999999999
        assert doc["note"] == P_VALUE_NOTE

    def test_dwork_trivial_is_not_an_error(self, capsys):
        code, doc, _ = run_cli(
            capsys, "bound", "--theorem", "dwork",
            "--beta", str(1.0 / 9.0), "--epsilon", "0.05", "--n", "100",
        )
        assert code == 0
        assert doc["trivial"] is True

    def test_mi_denominator_is_infeasible(self, capsys):
        code, _, _ = run_cli(
            capsys, "bound", "--theorem", "mi",
            "--mutual-info", "0.5", "--n", "1", "--eta", "0.5",
        )
        assert code == 3

    def test_sample_complexity(self, capsys):
        code, doc, _ = run_cli(
            capsys, "bound", "--theorem", "sample-complexity",
            "--value", str(math.log(16.0)), "--eta", "0.1", "--delta", "0.05",
        )
        assert code == 0
        assert doc["value"] == 576.8320995793771
        assert doc["inputs"]["mode"] == "leakage"

    @pytest.mark.parametrize(
        "argv,path,value",
        [
            ("--theorem dwork --beta 5e-324 --epsilon 1e20 --n 1",
             ("inputs", "epsilon_validity_ceiling"), 19.29300484529796),
            ("--theorem sample-complexity --value 1 --eta 0.1 --delta 5e-324",
             ("value",), 74544.0071921381),
        ],
        ids=["dwork", "sample-complexity"],
    )
    def test_subnormal_budget_is_finite(self, capsys, argv, path, value):
        # -log(x) stays finite where 1 / x overflows
        code, doc, err = run_cli(capsys, "bound", *argv.split())
        assert (code, err) == (0, "")
        for key in path:
            doc = doc[key]
        assert doc == value


    def test_bad_eta_is_validation(self, capsys):
        code, _, _ = run_cli(
            capsys, "bound", "--theorem", "generr",
            "--n", "10", "--eta", "1.5", "--leakage", "0.0",
        )
        assert code == 2


# the documented exit code of every error class the library raises
EXIT_CODES = {
    "LeakageLabError": 2,
    "AlphabetMismatch": 2,
    "NegativeMass": 2,
    "NotNormalized": 2,
    "EmptySupport": 2,
    "InputNotProduct": 2,
    "Infeasible": 3,
    "NoFeasibleSet": 3,
    "BetaOutOfRange": 3,
    "NegativeEpsilon": 3,
    "NonPositiveSensitivity": 3,
    "DenominatorNonPositive": 3,
    "CapExceeded": 4,
}


@pytest.mark.parametrize("name", errors.__all__)
def test_error_class_exits_with_its_documented_code(capsys, monkeypatch, name):
    assert set(EXIT_CODES) == set(errors.__all__)
    cls = getattr(errors, name)
    error = cls(0.5) if cls is errors.NotNormalized else cls("raised on purpose")

    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "gen_error_bound", fail)
    code, doc, err = run_cli(capsys, "bound", "--theorem", "generr",
                             "--n", "10", "--eta", "0.1", "--leakage", "1")
    assert code == EXIT_CODES[name] == error.exit_code
    assert doc is None
    assert err.splitlines() == [f"error: {error}"]


@pytest.mark.parametrize(
    "cap,argv,document,code,message",
    [
        ("abc", "simulate generr --config", GENERR, 2,
         "LEAKAGE_LAB_CAP must be an integer, got 'abc'"),
        ("0", "simulate generr --config", GENERR, 2, "LEAKAGE_LAB_CAP must lie in [1, inf), got 0"),
        (None, "measure dp --product-base 0,1 --copies 0 --channel",
         Channel.identity(Alphabet(("0", "1"))).to_json(), 2, "product power must lie in [1, inf), got 0"),
        (None, "simulate generr --config", {k: v for k, v in GENERR.items() if k != "n"}, 2,
         "missing key 'n'"),
        (None, f"bound --theorem generr --n {10**400} --eta 0.1 --leakage 1", None, 3,
         "result too large to represent"),
    ],
    ids=["cap-not-an-integer", "cap-zero", "dp-zero-copies", "config-missing-key",
         "arithmetic-overflow"],
)
def test_rare_error_exit_is_one_error_line(capsys, monkeypatch, tmp_path, cap, argv, document,
                                           code, message):
    if cap is not None:
        monkeypatch.setenv("LEAKAGE_LAB_CAP", cap)
    args = argv.split()
    if document is not None:
        args.append(write_json(tmp_path / "input.json", document))
    got, doc, err = run_cli(capsys, *args)
    assert got == code
    assert doc is None
    assert "Traceback" not in err
    assert err.splitlines() == [f"error: {message}"]


class TestVerify:
    def test_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "verify", "soundness", "--instances", "5")
        assert code == 2
        assert "--seed" in err

    def test_single_suite(self, capsys):
        code, doc, _ = run_cli(
            capsys, "verify", "soundness", "--instances", "40", "--seed", "5"
        )
        assert code == 0
        assert doc["pass"] is True
        assert [suite["suite"] for suite in doc["suites"]] == ["soundness"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_one_error_line(self, capsys, seed):
        code, doc, err = run_cli(capsys, "verify", "soundness", "--instances", "5", "--seed", seed)
        assert code == 2
        assert doc is None
        assert err.splitlines() == ["error: seed must be a 64-bit unsigned integer"]

    def test_golden_all_suites_report(self, capsys):
        # every byte of the README sweep report is pinned
        assert main(["verify", "all", "--instances", "1000", "--seed", "7"]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN_VERIFY
        assert captured.err == ""

    @pytest.mark.parametrize("seed", GOLDEN_VERIFY_SOUNDNESS)
    def test_golden_soundness_report(self, capsys, seed):
        assert main(["verify", "soundness", "--instances", "150", "--seed", str(seed)]) == 0
        captured = capsys.readouterr()
        assert captured.out == GOLDEN_VERIFY_SOUNDNESS[seed]
        assert captured.err == ""

    @pytest.mark.parametrize("instances, seed", GOLDEN_VERIFY_MAXINFO)
    def test_golden_maxinfo_report(self, capsys, instances, seed):
        argv = ["verify", "maxinfo", "--instances", str(instances), "--seed", str(seed)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == GOLDEN_VERIFY_MAXINFO[instances, seed]
        assert captured.err == ""

    def test_all_suites_deterministic_across_workers(self, capsys):
        argv = ["verify", "all", "--instances", "30", "--seed", "5"]
        code1 = main(argv + ["--workers", "1"])
        out1 = capsys.readouterr().out
        code2 = main(argv + ["--workers", "3"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2


class TestSimulate:
    @pytest.fixture
    def generr_config(self, tmp_path):
        payload = {
            "d": 2,
            "n": 4,
            "dataDistribution": DiscreteDistribution(
                data_alphabet(2), [0.4, 0.1, 0.3, 0.2]
            ).to_json(),
            "learner": {
                "kind": ERM,
                "hypothesisClass": [[0, 0], [0, 1], [1, 0], [1, 1]],
            },
            "eta": 0.45,
            "trials": 1500,
            "seed": 11,
        }
        return write_json(tmp_path / "generr.json", payload)

    @pytest.fixture
    def hyptest_config(self, tmp_path):
        payload = {
            "n": 64,
            "numStats": 10,
            "sigma": 0.005,
            "delta": 0.05,
            "trials": 1500,
            "seed": 11,
        }
        return write_json(tmp_path / "hyptest.json", payload)

    def test_generr_passes(self, capsys, generr_config):
        code, doc, _ = run_cli(capsys, "simulate", "generr", "--config", generr_config)
        assert code == 0
        assert doc["pass"] is True
        assert doc["exactLeakage_nats"] is not None
        assert doc["empiricalTail"] <= doc["theoreticalBound"]

    def test_seed_override_changes_output(self, capsys, generr_config):
        base = run_cli(capsys, "simulate", "generr", "--config", generr_config)
        overridden = run_cli(
            capsys, "simulate", "generr", "--config", generr_config, "--seed", "99"
        )
        assert base[0] == overridden[0] == 0
        assert base[1] != overridden[1]

    def test_workers_byte_identical(self, capsys, generr_config):
        argv = ["simulate", "generr", "--config", generr_config]
        main(argv + ["--workers", "1"])
        out1 = capsys.readouterr().out
        main(argv + ["--workers", "4"])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_output_file_matches_stdout(self, capsys, generr_config, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "simulate", "generr", "--config", generr_config,
            "--output", str(out_path),
        )
        # stdout was consumed by run_cli; rerun to recapture it
        assert code == 0
        main(["simulate", "generr", "--config", generr_config])
        stdout = capsys.readouterr().out
        assert out_path.read_text(encoding="utf-8") == stdout

    def test_exact_flag_honors_cap(self, capsys, tmp_path, monkeypatch):
        # the cap counts the C(15, 3) = 455 histograms of 12 draws over 4 symbols
        monkeypatch.setenv("LEAKAGE_LAB_CAP", "400")
        payload = {
            "d": 2,
            "n": 12,
            "dataDistribution": DiscreteDistribution(
                data_alphabet(2), [0.4, 0.1, 0.3, 0.2]
            ).to_json(),
            "learner": {"kind": ERM, "hypothesisClass": [[0, 1], [1, 0]]},
            "eta": 0.3,
            "trials": 10,
            "seed": 1,
        }
        path = write_json(tmp_path / "big.json", payload)
        code, doc, err = run_cli(
            capsys, "simulate", "generr", "--config", path, "--exact"
        )
        assert code == 4
        assert doc is None
        assert "cap" in err
        # without --exact the same config falls back to the ledger bound
        code, doc, _ = run_cli(capsys, "simulate", "generr", "--config", path)
        assert code == 0
        assert doc["exactLeakage_nats"] is None

    def test_exact_counts_histograms_not_datasets(self, capsys, tmp_path):
        # 4^12 datasets exceed the default cap; their 455 histograms do not
        payload = {
            "d": 2,
            "n": 12,
            "dataDistribution": DiscreteDistribution(
                data_alphabet(2), [0.4, 0.1, 0.3, 0.2]
            ).to_json(),
            "learner": {"kind": ERM, "hypothesisClass": [[0, 1], [1, 0]]},
            "eta": 0.3,
            "trials": 10,
            "seed": 1,
        }
        path = write_json(tmp_path / "big.json", payload)
        code, doc, _ = run_cli(capsys, "simulate", "generr", "--config", path, "--exact")
        assert code == 0
        assert doc["exactLeakage_nats"] == math.log(2.0)

    @pytest.mark.parametrize(
        "learner,field",
        [
            ('{"kind": "ERM", "hypothesisClass": [[0, 1.7], [1, 0]]}', "hypothesisClass"),
            ('{"kind": "ERM", "hypothesisClass": [[0, true], [1, 0]]}', "hypothesisClass"),
            (f'{{"kind": "{EM}", "hypothesisClass": [[0, 1]], "epsilon": true}}', "epsilon"),
            (f'{{"kind": "{EM}", "hypothesisClass": [[0, 1]], "epsilon": "nan"}}', "epsilon"),
            (f'{{"kind": "{EM}", "hypothesisClass": [[0, 1]], "epsilon": 1e400}}', "epsilon"),
            (f'{{"kind": "{EM}", "hypothesisClass": [[0, 1]], "epsilon": NaN}}', "epsilon"),
            (f'{{"kind": ["{ERM}"], "hypothesisClass": [[0, 1], [1, 0]]}}',
             f"learner.kind must be a string, got ['{ERM}']"),
            ('{"kind": 1, "hypothesisClass": [[0, 1], [1, 0]]}', "learner.kind must be a string, got 1"),
        ],
        ids=["float-label", "bool-label", "bool-epsilon", "string-epsilon", "overflowing-epsilon",
             "nan-epsilon", "array-kind", "number-kind"],
    )
    def test_malformed_learner_is_one_error_line(self, capsys, tmp_path, learner, field):
        payload = {
            "d": 2,
            "n": 4,
            "dataDistribution": DiscreteDistribution(data_alphabet(2), [0.25] * 4).to_json(),
            "learner": "LEARNER",
            "eta": 0.3,
            "trials": 10,
            "seed": 1,
        }
        path = tmp_path / "learner.json"
        path.write_text(jsonio.dumps(payload).replace('"LEARNER"', learner), encoding="utf-8")
        code, doc, err = run_cli(capsys, "simulate", "generr", "--config", str(path))
        assert code == 2
        assert doc is None
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert field in lines[0]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_one_error_line(self, capsys, hyptest_config, seed):
        code, doc, err = run_cli(
            capsys, "simulate", "hyptest", "--config", hyptest_config, "--seed", str(seed)
        )
        assert code == 2
        assert doc is None
        assert err.splitlines() == ["error: seed must be a 64-bit unsigned integer"]

    @pytest.mark.parametrize(
        "kind,key,value",
        [
            ("generr", "seed", 1.5),
            ("generr", "trials", True),
            ("generr", "n", "6"),
            ("generr", "d", 2.0),
            ("hyptest", "numStats", 10.7),
            ("hyptest", "seed", "11"),
            ("hyptest", "trials", False),
            ("hyptest", "n", 64.0),
        ],
    )
    def test_integer_fields_are_strict(self, capsys, tmp_path, generr_config, hyptest_config,
                                       kind, key, value):
        path = generr_config if kind == "generr" else hyptest_config
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        payload[key] = value
        # the standard encoder keeps the ".0" of an integral float
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        code, doc, err = run_cli(capsys, "simulate", kind, "--config", str(bad))
        assert code == 2
        assert doc is None
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {key} must be an integer")

    @pytest.mark.parametrize(
        "kind,key,value",
        [
            ("generr", "eta", "0.3"),
            ("hyptest", "sigma", "0.01"),
            ("hyptest", "delta", "0.05"),
            ("hyptest", "sigma", None),
        ],
    )
    def test_number_fields_are_strict(self, capsys, tmp_path, generr_config, hyptest_config,
                                      kind, key, value):
        path = generr_config if kind == "generr" else hyptest_config
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        payload[key] = value
        bad = write_json(tmp_path / "bad.json", payload)
        code, doc, err = run_cli(capsys, "simulate", kind, "--config", bad)
        assert code == 2
        assert doc is None
        assert err.splitlines() == [f"error: {key} must be a number, got {value!r}"]

    def test_ragged_probs_name_the_field(self, capsys, tmp_path, generr_config):
        payload = json.loads(Path(generr_config).read_text(encoding="utf-8"))
        payload["dataDistribution"]["probs"] = [0.4, [0.1], 0.3, 0.2]
        bad = write_json(tmp_path / "bad.json", payload)
        code, doc, err = run_cli(capsys, "simulate", "generr", "--config", bad)
        assert code == 2
        assert doc is None
        assert err.splitlines() == ["error: dataDistribution.probs[1] must be a number, got [0.1]"]

    def test_hyptest_passes_with_trace(self, capsys, hyptest_config, tmp_path):
        trace = tmp_path / "trace.csv"
        code, doc, _ = run_cli(
            capsys, "simulate", "hyptest", "--config", hyptest_config,
            "--trace", str(trace),
        )
        assert code == 0
        assert doc["pass"] is True
        assert doc["adjustedSigma"] == 0.004999999999999999
        assert trace.exists()
        assert len(trace.read_text().splitlines()) == 1501

    def test_missing_config(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "generr", "--config", "/nope.json")
        assert code == 2

    @pytest.mark.parametrize("kind", ["generr", "hyptest"])
    def test_unwritable_trace_fails_before_any_trial(self, capsys, monkeypatch, tmp_path,
                                                     generr_config, hyptest_config, kind):
        trials = []
        counted = simulate.map_chunked

        def counting(worker, total, per_trial=1):
            trials.append(total)
            return counted(worker, total, per_trial)

        monkeypatch.setattr(simulate, "map_chunked", counting)
        config = generr_config if kind == "generr" else hyptest_config
        trace = str(tmp_path / "missing" / "trace.csv")
        code, doc, err = run_cli(capsys, "simulate", kind, "--config", config, "--trace", trace)
        assert code == 2
        assert doc is None
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert trials == []
        # the same run with a writable path goes through the counted harness
        run_cli(capsys, "simulate", kind, "--config", config, "--trace", str(tmp_path / "t.csv"))
        assert trials == [1500]

    @pytest.mark.parametrize("command", ["bound", "simulate"])
    def test_unwritable_output_is_one_error_line(self, capsys, tmp_path, hyptest_config, command):
        argv = (["bound", "--theorem", "generr", "--n", "500", "--eta", "0.1", "--leakage", "1.0"]
                if command == "bound" else ["simulate", "hyptest", "--config", hyptest_config])
        output = tmp_path / "missing" / "out.json"
        code, doc, err = run_cli(capsys, *argv, "--output", str(output))
        assert code == 2
        assert doc is None
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        output = tmp_path / "out.json"
        code, doc, _ = run_cli(capsys, *argv, "--output", str(output))
        assert code == 0
        assert json.loads(output.read_text(encoding="utf-8")) == doc

    def test_exponential_mechanism_weights_do_not_underflow(self, capsys, tmp_path):
        # epsilon * n * risk / 2 reaches 1500 for the worse hypothesis, so
        # every weight exp(-epsilon * n * risk / 2) alone would be 0
        payload = {
            "d": 2,
            "n": 4,
            "dataDistribution": DiscreteDistribution(data_alphabet(2), [0.25] * 4).to_json(),
            "learner": {
                "kind": "exponential-mechanism",
                "hypothesisClass": [[0, 0], [1, 1]],
                "epsilon": 3000.0,
            },
            "eta": 0.4,
            "trials": 256,
            "seed": 20260814,
        }
        path = write_json(tmp_path / "em.json", payload)
        code, doc, _ = run_cli(capsys, "simulate", "generr", "--config", path)
        assert code == 0
        assert doc["exactLeakage_nats"] == math.log(2)

    @pytest.mark.parametrize("name", sorted(GOLDEN_GENERR))
    def test_golden_report_and_trace(self, capsys, tmp_path, name):
        # every byte of the report and of the trace is pinned: a change to
        # the stream, the slicing or the learner kernel must not move one
        config, stdout, trace_sha256 = GOLDEN_GENERR[name]
        path = write_json(tmp_path / "generr.json", config)
        trace = tmp_path / "trace.csv"
        assert main(["simulate", "generr", "--config", path, "--trace", str(trace)]) == 0
        captured = capsys.readouterr()
        assert captured.out == stdout + "\n"
        assert captured.err == ""
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_sha256


    @pytest.mark.parametrize("name", sorted(GOLDEN_HYPTEST))
    def test_golden_hyptest_report_and_trace(self, capsys, tmp_path, name):
        config, stdout, trace_sha256 = GOLDEN_HYPTEST[name]
        path = write_json(tmp_path / "hyptest.json", config)
        trace = tmp_path / "trace.csv"
        assert main(["simulate", "hyptest", "--config", path, "--trace", str(trace)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f'{stdout}, "note": {json.dumps(P_VALUE_NOTE)}}}\n'
        assert captured.err == ""
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_sha256

    @pytest.mark.parametrize("kind, config", [("generr", README_GENERR), ("hyptest", README_HYPTEST)],
                             ids=["generr", "hyptest"])
    def test_library_report_is_the_printed_document(self, capsys, tmp_path, kind, config):
        run, config_class = {
            "generr": (simulate.run_gen_error_experiment, simulate.GenErrConfig),
            "hyptest": (simulate.run_hyptest_experiment, simulate.HypTestConfig),
        }[kind]
        path = write_json(tmp_path / f"{kind}.json", config)
        assert main(["simulate", kind, "--config", path]) == 0
        report = run(config_class.from_json(config))
        assert jsonio.dumps(report) + "\n" == capsys.readouterr().out

    @pytest.mark.parametrize("kind, bound, config", [("generr", "gen_error_bound", README_GENERR),
                                                     ("hyptest", "fdr_bound", README_HYPTEST)],
                             ids=["generr", "hyptest"])
    def test_failed_check_exits_1(self, capsys, monkeypatch, tmp_path, kind, bound, config):
        # the README configs hit 109 and 352 times, so every Clopper-Pearson
        # edge is positive and exceeds a bound of 0
        monkeypatch.setattr(simulate, bound, lambda *args: types.SimpleNamespace(value=0.0))
        path = write_json(tmp_path / f"{kind}.json", config)
        out_path = tmp_path / "report.json"
        assert main(["simulate", kind, "--config", path, "--output", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["pass"] is False
        assert out_path.read_text(encoding="utf-8") == captured.out
        assert captured.err == ""

    def test_hyptest_window_table_past_the_cap_exits_4(self, capsys, monkeypatch,
                                                        hyptest_config):
        # 10 windows of 8 coins make an 80-entry window table
        monkeypatch.setenv("LEAKAGE_LAB_CAP", "79")
        code, doc, err = run_cli(capsys, "simulate", "hyptest", "--config", hyptest_config)
        assert code == 4
        assert doc is None
        assert err.splitlines() == [
            "error: numStats = 10 windows of width 8 over n = 64 coins make 80 "
            "window entries, which exceed the cap 79"
        ]
        monkeypatch.setenv("LEAKAGE_LAB_CAP", "80")
        assert run_cli(capsys, "simulate", "hyptest", "--config", hyptest_config)[0] == 0

def _sample(option):
    """A valid value of ``option``, as an argv token."""
    if option.choices is not None:
        return option.choices[-1]
    return {int: "5", float: "0.25", None: "in.json"}[option.type]


def _well_formed_argv(name):
    """Argv that name every option of command ``name`` in both forms, repeated and not."""
    command = cli._COMMANDS[name]
    base = [name]
    for option in command.options:
        if option.required:
            base += [f"--{option.name}", _sample(option)]
    grid = [base]
    if command.positional is not None:
        # the positional first and last
        grid = [base[:1] + [command.positional.choices[0]] + base[1:],
                base + [command.positional.choices[-1]]]
        base = grid[0]
    for option in command.options:
        flag = f"--{option.name}"
        if option.kind == "flag":
            grid += [base + [flag], base + [flag, flag]]
            continue
        value = _sample(option)
        grid += [base + [flag, value], base + [f"{flag}={value}"],
                 base + [flag, value, f"{flag}={option.choices[0] if option.choices else value}"]]
        if option.type is not None:
            grid += [base + [flag, "-1"], base + [flag, "1_0"], base + [f"{flag}=-1"]]
        if option.type is float:
            grid += [base + [flag, number] for number in ("-.5", "-2.5", "1e400", "nan")]
            grid += [base + [f"{flag}=-1e-3"], base + [f"{flag}=-inf"]]
        if option.type is None and option.choices is None:
            grid += [base + [flag, ""], base + [f"{flag}="], base + [f"{flag}=-x"],
                     base + [f"{flag}=a=b"]]
    return grid


def _other_argv(name):
    """Argv of command ``name`` that argparse refuses, helps with, or reads alone."""
    command = cli._COMMANDS[name]
    base = _well_formed_argv(name)[0]
    grid = [[name], base + ["-h"], base + ["--help"], base + ["--"], base + ["--nonsense"],
            base + ["--nonsense=1"], base + ["stray"], base + ["-"], base + ["-x y"],
            [name, "--", *base[1:]], base[:1] + ["--bits=1"] + base[1:]]
    if command.positional is not None:
        grid += [[name, *base[2:]], [name, "bogus", *base[2:]], base + [base[1]],
                 [name, "-1", *base[2:]]]
    for option in command.options:
        flag = f"--{option.name}"
        if option.required:
            without = base.index(flag)
            grid.append(base[:without] + base[without + 2:])
        if len(option.name) > 2:
            grid.append(base + [flag[:-1], _sample(option)])
        if option.kind == "flag":
            continue
        grid += [base + [flag], base + [flag, "--bits"], base + [flag, "-x"], [name, flag, *base[1:]]]
        if option.type is not None:
            grid += [base + [flag, bad] for bad in ("x", "nan", "1.5", "-1e-3", "- 1", "-1x")]
            grid += [base + [flag, "-.5"], base + [flag, "1e400"], base + [f"{flag}=-1e-3"]]
            grid += [base + [f"{flag}=x"], base + [f"{flag}="]]
        if option.choices is not None:
            grid += [base + [flag, "bogus"], base + [f"{flag}=bogus"]]
    return grid


TOP_LEVEL_ARGV = [[], ["-h"], ["--help"], ["frobnicate"], ["--seed", "3", "bound"], ["--"],
                  ["bound", "--theorem", "adapt", "--max-fiber-prob", "0.5", "--leakage", "-1"],
                  ["bound", "--theorem", "adapt", "--max-fiber-prob", "0.5", "--leakage", "-1e-3"],
                  ["compose", "--dp=-0.5,10"], ["compose", "--dp", "-0.5,10"],
                  ["verify", "all", "--inst", "5"]]


@pytest.mark.parametrize("name", [*cli._COMMANDS, None], ids=[*cli._COMMANDS, "top-level"])
def test_direct_reader_agrees_with_argparse(capsys, name):
    # argparse, the interpreter's own, is the oracle: the direct reader takes
    # every well-formed argv and reads it as argparse does, and it never
    # takes an argv that argparse refuses or answers with help
    parser = cli.build_parser()
    for argv in _well_formed_argv(name) if name else []:
        direct = cli._read_argv(argv)
        assert direct is not None, argv
        assert repr(vars(direct)) == repr(vars(parser.parse_args(argv))), argv
    for argv in _other_argv(name) if name else TOP_LEVEL_ARGV:
        direct = cli._read_argv(argv)
        try:
            expected = parser.parse_args(argv)
        except SystemExit as exc:
            refusal = (exc.code, *capsys.readouterr())
            assert direct is None, argv
            assert (main(argv), *capsys.readouterr()) == refusal, argv
        else:
            assert direct is None or repr(vars(direct)) == repr(vars(expected)), argv


def test_main_without_argv_reads_the_command_line(capsys, monkeypatch):
    argv = ["bound", "--theorem", "generr", "--n", "500", "--eta", "0.1", "--leakage", "1.0"]
    expected = (main(argv), capsys.readouterr())
    monkeypatch.setattr(sys, "argv", ["leakage-lab", *argv])
    assert (main(), capsys.readouterr()) == expected


FLOAT_OPTIONS = [(name, option) for name, command in cli._COMMANDS.items()
                 for option in command.options if option.type is float]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("name, option", FLOAT_OPTIONS,
                         ids=[f"{name}-{option.name}" for name, option in FLOAT_OPTIONS])
def test_non_finite_float_flag_is_one_error_line_naming_it(capsys, name, option, text):
    # the exact flag goes through the direct reader, an abbreviation through argparse
    base = _well_formed_argv(name)[0]
    flag = f"--{option.name}"
    direct = [[*base, f"{flag}={text}"]]
    if option.kind == "append":
        direct.append([*base, f"{flag}=0.5", f"{flag}={text}"])
    for argv in direct:
        abbreviated = [token.replace(f"{flag}=", f"{flag[:-1]}=") for token in argv]
        assert cli._read_argv(argv) is not None and cli._read_argv(abbreviated) is None, argv
        for run in (argv, abbreviated):
            assert main(run) == 2, run
            assert capsys.readouterr() == ("", f"error: {flag} must be finite\n"), run


def test_first_non_finite_flag_in_table_order_is_named(capsys):
    # --leakage precedes --eta in the command table, and so in argparse's namespace
    argv = ["bound", "--theorem", "generr", "--n", "5", "--eta", "nan", "--leakage", "inf"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: --leakage must be finite\n")


# argv that give an option their command does not take, with the tokens
# argparse names: it refuses each as unknown before any file is read (no
# path here names a file); the bound argv without the option are GOLDEN_BOUND's
UNTAKEN_OPTIONS = {
    "bound-generr-bits": (("bound", *GOLDEN_BOUND["generr"][0], "--bits"), "--bits"),
    "bound-generr-c-bits": (("bound", *GOLDEN_BOUND["generr-c"][0], "--bits"), "--bits"),
    "bound-hyptest-both-bits": (("bound", *GOLDEN_BOUND["hyptest-both"][0], "--bits"), "--bits"),
    "bound-sample-complexity-bits": (
        ("bound", *GOLDEN_BOUND["sample-complexity-mutual-info"][0], "--bits"), "--bits"),
    "bound-seed": (("bound", *GOLDEN_BOUND["generr"][0], "--seed", "3"), "--seed 3"),
    "measure-seed": (("measure", "ml", "--channel", "absent.json", "--seed", "3"), "--seed 3"),
    "compose-seed": (("compose", "--ledger", "absent.json", "--seed", "3"), "--seed 3"),
    "verify-bits": (("verify", "soundness", "--instances", "5", "--seed", "3", "--bits"),
                    "--bits"),
    "simulate-bits": (("simulate", "hyptest", "--config", "absent.json", "--bits"), "--bits"),
}


@pytest.mark.parametrize("name", sorted(UNTAKEN_OPTIONS))
def test_option_the_command_does_not_take_is_refused(capsys, name):
    argv, refused = UNTAKEN_OPTIONS[name]
    assert cli._read_argv(list(argv)) is None
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: unrecognized arguments: {refused}\n")


# an abbreviation that also matched an untaken option, and now resolves
@pytest.mark.parametrize("argv, flag, abbreviation", [
    (["bound", *GOLDEN_BOUND["dwork-within"][0]], "--beta", "--b"),
    (["bound", *GOLDEN_BOUND["generr-c"][0]], "--sensitivity", "--se"),
    (["measure", "ml", "--channel", "bec.json", "--support", "0"], "--support", "--s"),
], ids=["bound-b", "bound-se", "measure-s"])
def test_abbreviation_that_matched_an_untaken_option_resolves(capsys, monkeypatch, tmp_path, argv,
                                                              flag, abbreviation):
    write_json(tmp_path / "bec.json", bec_channel(0.5).to_json())
    monkeypatch.chdir(tmp_path)
    expected = (main(argv), capsys.readouterr())
    assert expected[0] == 0
    abbreviated = [abbreviation if token == flag else token for token in argv]
    assert (main(abbreviated), capsys.readouterr()) == expected


# per command, argv that together reach every read of its options, run in a
# directory that holds write_leakage_inputs(), bec.json, ledger.json and generr.json
READING_ARGV = {
    "measure": [
        ["measure", "ml", "--channel", "channel.json", "--support", "x1,x4", "--bits",
         "--output", "out.json"],
        ["measure", "cml", "--channel", "channel.json", "--pairs", "unequal.json",
         "--support", "support.json"],
        ["measure", "approx-maxinfo", "--joint", "joint.json", "--beta", "0.1"],
        ["measure", "dp", "--channel", "bec.json", "--product-base", "0,1", "--copies", "1"],
    ],
    "compose": [["compose", "--ledger", "ledger.json", "--dp", "0.1,10", "--cardinality", "4",
                 "--maxinfo", "0.3", "--channel", "bec.json", "--declared", "0.25", "--bits",
                 "--output", "out.json"]],
    "bound": [["bound", *argv] for argv, _ in GOLDEN_BOUND.values()]
             + [["bound", *GOLDEN_BOUND["adapt"][0], "--output", "out.json"]],
    "verify": [["verify", "soundness", "--instances", "5", "--seed", "3", "--output", "out.json"]],
    "simulate": [["simulate", "generr", "--config", "generr.json", "--seed", "3",
                  "--trace", "trials.csv", "--exact", "--output", "out.json"]],
}
# declared and never read: the benchmark's argv and older scripts pass --workers
NEVER_READ = {"verify": {"workers"}, "simulate": {"workers"}}


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_every_declared_option_is_read_and_listed(capsys, monkeypatch, tmp_path, name):
    # --help lists the declared options and no other
    assert main([name, "--help"]) == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert listed == set(cli._FLAGS[name])
    # a recorder of attribute reads stands in for the namespace that main gets,
    # so each argv must be one the direct reader takes; main's finiteness scan,
    # which reads every float-typed option, is switched off
    reads = set()

    class Recorder(types.SimpleNamespace):
        def __getattribute__(self, attribute):
            reads.add(attribute)
            return super().__getattribute__(attribute)

    read_argv = cli._read_argv
    monkeypatch.setattr(cli, "_read_argv", lambda argv: Recorder(**vars(read_argv(argv))))
    monkeypatch.setattr(cli, "_FLOATS", dict.fromkeys(cli._COMMANDS, ()))
    write_leakage_inputs(tmp_path)
    write_json(tmp_path / "bec.json", bec_channel(0.5).to_json())
    write_json(tmp_path / "ledger.json", {"entries": [DECLARED]})
    write_json(tmp_path / "generr.json", GENERR)
    monkeypatch.chdir(tmp_path)
    for argv in READING_ARGV[name]:
        assert main(argv) in (0, 1), argv
    capsys.readouterr()
    declared = {cli._DEST[flag[2:]] for flag in cli._FLAGS[name]}
    assert declared - reads == NEVER_READ.get(name, set())


class TestParser:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["measure", "ml", "--nonsense"]) == 2
        capsys.readouterr()

    def test_bad_theorem(self, capsys):
        assert main(["bound", "--theorem", "magic"]) == 2
        capsys.readouterr()

    def test_parser_is_built_once_and_reused_like_fresh_ones(self, capsys, monkeypatch,
                                                               tmp_path, bec_path):
        report = tmp_path / "report.json"
        runs = [
            ["bound", "--theorem", "generr", "--n", "500", "--eta", "0.1", "--leakage", "1.0"],
            ["compose", "--dp", "0.1,10", "--cardinality", "4", "--bits"],
            ["measure", "ml", "--channel", bec_path, "--output", str(report)],
            ["bound", "--theorem", "magic"],
            ["compose", "--dp", "0.2,5"],
            ["verify", "soundness", "--instances", "5", "--seed", "3"],
            ["measure", "ml", "--channel", bec_path],
            ["measure", "cml", "--channel", bec_path],
        ]

        def run_all():
            outcomes, built = [], []
            for argv in runs:
                code = main(argv)
                captured = capsys.readouterr()
                outcomes.append((code, captured.out, captured.err))
                built.append(len(builds))
            return outcomes, built

        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        direct, built = run_all()
        # well-formed argv never build the parser; the refusal builds it once
        assert built == [0, 0, 0, 1, 1, 1, 1, 1]
        assert report.read_text(encoding="utf-8") == direct[2][1]
        assert [code for code, _, _ in direct] == [0, 0, 0, 2, 0, 0, 0, 2]
        # argparse alone, with a fresh parser per run, reads every run the same
        monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh, built = run_all()
        assert fresh == direct
        assert built == list(range(2, 2 + len(runs)))

    def test_ledger_file_with_nan_bound_names_the_entry(self, capsys, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text(
            '{"entries": [{"label": "warmup", "bound_nats": NaN, '
            '"provenance": {"kind": "declared"}}]}\n',
            encoding="utf-8",
        )
        code, doc, err = run_cli(capsys, "compose", "--ledger", str(path))
        assert code == 2
        assert doc is None
        assert err.splitlines() == ["error: entry 'warmup' has non-finite bound nan"]

    def test_dp_flag_with_nan_epsilon(self, capsys):
        code, doc, err = run_cli(capsys, "compose", "--dp", "nan,10")
        assert code == 2
        assert doc is None
        assert err.splitlines() == ["error: epsilon must lie in [0, inf), got nan"]

    @pytest.mark.parametrize(
        "argv,expected",
        [
            ("bound --theorem adapt --max-fiber-prob 0.5 --leakage 1000", 3),
            ("bound --theorem generr --n 10 --eta 0.1 --leakage nan", 2),
            ("bound --theorem adapt --max-fiber-prob 0.5 --leakage inf", 2),
            ("compose --declared nan", 2),
            ("bound --theorem generr-c --n 10 --eta 0.1 --sensitivity 1e-200 --leakage 1", 3),
            ("bound --theorem sample-complexity --value 1 --eta 1e-200 --delta 0.1", 3),
            ("bound --theorem sample-complexity --value 1 --eta 1e-160 --delta 0.1", 3),
            ("bound --theorem sample-complexity --value 1 --eta 1e-160 --delta 1e-10 "
             "--mode mutual-info", 3),
            ("bound --theorem generr --n 1 --eta 0.5 --leakage 1000", 3),
            ("bound --theorem generr --n 1 --eta 0.01 --leakage 709.5", 3),
            ("bound --theorem generr-c --n 1 --eta 0.5 --sensitivity 1 --leakage 1000", 3),
            ("bound --theorem hyptest --sigma 0.5 --leakage 1000", 3),
            ("compose --dp 1e308,10", 3),
            ("compose --declared 1e308 --declared 1e308", 3),
        ],
    )
    def test_non_finite_or_overflow_is_one_error_line(self, capsys, argv, expected):
        assert main(argv.split()) == expected
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        for internal in ("math range error", "division by zero", "fsum", "JSON compliant"):
            assert internal not in lines[0]
        if argv in OVERFLOWING_BOUNDS:
            assert lines == [f"error: bound '{OVERFLOWING_BOUNDS[argv]}' is too large to represent"]

    @pytest.mark.parametrize("argv", ["bound --theorem adapt --max-fiber-prob 0 --leakage 1000",
                                      "bound --theorem hyptest --sigma 0 --leakage 1000"])
    def test_zero_coefficient_bounds_to_zero_past_the_exp_overflow(self, capsys, argv):
        code, doc, err = run_cli(capsys, *argv.split())
        assert code == 0
        assert err == ""
        assert doc["value"] == 0.0
        assert doc["trivial"] is False

    def test_dp_overflow_prints_the_library_message_once(self, capsys):
        code, doc, err = run_cli(capsys, "compose", "--dp", "1e308,10")
        assert code == 3
        assert doc is None
        assert err.splitlines() == ["error: epsilon * n = 1e+308 * 10 overflows"]

    @pytest.mark.parametrize(
        "argv,document,name,got",
        [
            ("simulate generr --config", {**GENERR, "learner": 5}, "learner", "5"),
            ("simulate generr --config", {**GENERR, "learner": []}, "learner", "[]"),
            ("simulate generr --config", {**GENERR, "dataDistribution": "x"},
             "dataDistribution", "'x'"),
            ("simulate generr --config", [7], None, "[7]"),
            ("simulate hyptest --config", "hyptest", None, "'hyptest'"),
            ("compose --ledger", {"entries": [{**DECLARED, "provenance": []}]},
             "entries[0].provenance", "[]"),
            ("compose --ledger", {"entries": [{**DECLARED, "provenance": "declared"}]},
             "entries[0].provenance", "'declared'"),
            ("compose --ledger", {"entries": [DECLARED, 5]}, "entries[1]", "5"),
            ("compose --ledger", [{"kind": "declared"}], None, "[{'kind': 'declared'}]"),
            ("compose --channel", [[1.0]], None, "[[1.0]]"),
            ("measure ml --channel", [[1.0]], None, "[[1.0]]"),
            ("measure dp --product-base 0,1 --copies 1 --channel", 0.5, None, "0.5"),
            ("measure mi --joint", [[1.0]], None, "[[1.0]]"),
            ("measure approx-maxinfo --beta 0.1 --joint", None, None, "None"),
        ],
        ids=["learner-int", "learner-list", "distribution-string", "config-list",
             "config-string", "provenance-list", "provenance-string", "ledger-entry",
             "ledger-list", "compose-channel-list", "channel-list", "dp-channel-number",
             "joint-list", "joint-null"],
    )
    def test_json_value_where_an_object_belongs_is_one_error_line(self, capsys, tmp_path, argv,
                                                                  document, name, got):
        path = write_json(tmp_path / "document.json", document)
        code, doc, err = run_cli(capsys, *argv.split(), path)
        assert code == 2
        assert doc is None
        assert "Traceback" not in err
        assert err.splitlines() == [f"error: {name or path} must be a JSON object, got {got}"]

    @pytest.mark.parametrize("entries,got", [(5, "5"), ({"a": 1}, "{'a': 1}")],
                             ids=["ledger-entries-int", "ledger-entries-object"])
    def test_json_value_where_an_array_belongs_is_one_error_line(self, capsys, tmp_path,
                                                                 entries, got):
        path = write_json(tmp_path / "ledger.json", {"entries": entries})
        code, doc, err = run_cli(capsys, "compose", "--ledger", path)
        assert code == 2
        assert doc is None
        assert err.splitlines() == [f"error: entries must be a JSON array, got {got}"]

    @pytest.mark.parametrize("hypotheses,name,got", [
        (5, "learner.hypothesisClass", "5"),
        ([5], "learner.hypothesisClass[0]", "5"),
        ([[0], "1"], "learner.hypothesisClass[1]", "'1'"),
    ], ids=["class-int", "hypothesis-int", "hypothesis-string"])
    def test_hypothesis_class_that_is_not_nested_arrays_is_one_error_line(
            self, capsys, tmp_path, hypotheses, name, got):
        learner = {**GENERR["learner"], "hypothesisClass": hypotheses}
        path = write_json(tmp_path / "generr.json", {**GENERR, "learner": learner})
        code, doc, err = run_cli(capsys, "simulate", "generr", "--config", path)
        assert code == 2
        assert doc is None
        assert err.splitlines() == [f"error: {name} must be a JSON array, got {got}"]


def test_import_does_not_load_scipy_stats(tmp_path):
    # neither the import nor bound, compose, measure and the README
    # simulate runs load any scipy module
    src = str(Path(leakage_lab.__file__).resolve().parents[1])
    channel = write_json(tmp_path / "bec.json", bec_channel(0.5).to_json())
    generr = write_json(tmp_path / "generr.json", README_GENERR)
    hyptest = write_json(tmp_path / "hyptest.json", README_HYPTEST)
    commands = [
        ["bound", "--theorem", "generr", "--n", "500", "--eta", "0.1", "--leakage", "1.0"],
        ["compose", "--dp", "0.1,10", "--cardinality", "4"],
        ["measure", "ml", "--channel", channel],
        ["simulate", "generr", "--config", generr],
        ["simulate", "generr", "--config", generr, "--exact"],
        ["simulate", "hyptest", "--config", hyptest],
    ]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import leakage_lab.cli\n"
        "def scipy_loaded():\n"
        "    return any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
        "assert not scipy_loaded(), 'import'\n"
        f"for argv in {commands!r}:\n"
        "    assert leakage_lab.cli.main(argv) == 0, argv\n"
        "    assert not scipy_loaded(), argv\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_closed_form_commands_load_no_numpy(tmp_path):
    # the package, the CLI, every bound, the closed-form compose flags, a
    # ledger file, --help and the error exits stay on the standard library
    src = str(Path(leakage_lab.__file__).resolve().parents[1])
    ledger = write_json(tmp_path / "ledger.json", {"entries": [DECLARED]})
    commands = [
        (["compose", "--ledger", ledger], 0),
        (["bound", "--theorem", "adapt", "--max-fiber-prob", "0.1", "--leakage", "1"], 0),
        (["bound", "--theorem", "generr", "--n", "500", "--eta", "0.1", "--leakage", "1.0"], 0),
        (["bound", "--theorem", "generr-c", "--n", "100", "--eta", "0.1",
          "--sensitivity", "0.01", "--leakage", "1"], 0),
        (["bound", "--theorem", "hyptest", "--sigma", "0.005", "--delta", "0.05",
          "--leakage", "2.3"], 0),
        (["bound", "--theorem", "dwork", "--beta", "0.01", "--epsilon", "0.01", "--n", "100"], 0),
        (["bound", "--theorem", "mi", "--mutual-info", "0.5", "--n", "100", "--eta", "0.2"], 0),
        (["bound", "--theorem", "sample-complexity", "--value", "2.77", "--eta", "0.1",
          "--delta", "0.05"], 0),
        (["compose", "--dp", "0.1,10", "--cardinality", "4", "--maxinfo", "0.3",
          "--declared", "0.25", "--bits"], 0),
        (["bound", "--theorem", "generr", "--n", "10"], 2),
        (["compose", "--dp", "0.1"], 2),
        (["verify", "all", "--instances", "10"], 2),
        (["bound", "--theorem", "generr", "--n", "1", "--eta", "0.5", "--leakage", "1000"], 3),
        (["measure", "ml"], 2),
        (["measure", "dp", "--channel", "c.json", "--copies", "2"], 2),
        (["--help"], 0),
    ]
    # argparse loads only for --help, the one argv here that the direct reader leaves
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import leakage_lab\n"
        "assert 'numpy' not in sys.modules, 'import leakage_lab'\n"
        "import leakage_lab.cli\n"
        "assert 'numpy' not in sys.modules, 'import leakage_lab.cli'\n"
        "assert 'argparse' not in sys.modules, 'import leakage_lab.cli'\n"
        f"for argv, code in {commands!r}:\n"
        "    assert leakage_lab.cli.main(argv) == code, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "    assert ('argparse' in sys.modules) == (argv == ['--help']), argv\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def run_bounded(argv):
    """Exit code, stdout and stderr lines of ``main(argv)`` in a child process.

    The child runs at a cap of 10^6 under a 2 GB address-space limit and a
    20-s timeout, so a refusal that comes after the work fails the test
    instead of exhausting the host.
    """
    src = str(Path(leakage_lab.__file__).resolve().parents[1])
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        f"sys.path.insert(0, {src!r})\n"
        "from leakage_lab.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    env = {**os.environ, "LEAKAGE_LAB_CAP": str(10**6)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=20)
    return proc.returncode, proc.stdout, proc.stderr.splitlines()


@pytest.mark.parametrize("copies", [10**11, 2**63, 2**64, 2**70])
def test_huge_copies_exit_4_in_bounded_memory(tmp_path, copies):
    # the size k^copies would take gigabytes to hold
    channel = write_json(tmp_path / "bec.json", bec_channel(0.5).to_json())
    argv = ["measure", "dp", "--channel", channel, "--product-base", "0,1",
            "--copies", str(copies)]
    assert run_bounded(argv) == (
        4, "", [f"error: 2^{copies} states exceed the enumeration cap {10**6}"])


@pytest.mark.parametrize("copies", [10**11, 2**64])
def test_one_symbol_copies_past_the_cap_exit_4_in_bounded_memory(tmp_path, copies):
    # one state at any power, but its label would hold 3 * copies characters
    channel = write_json(tmp_path / "bec.json", bec_channel(0.5).to_json())
    argv = ["measure", "dp", "--channel", channel, "--product-base", "ab",
            "--copies", str(copies)]
    assert run_bounded(argv) == (
        4, "", [f"error: a label of {copies} copies exceeds the enumeration cap {10**6}"])


@pytest.mark.parametrize("n", [10**10, 2**63])
def test_wide_generr_trial_exits_4_in_bounded_memory(tmp_path, n):
    # one trial of n uniforms would take n * 8 bytes; the refusal comes
    # before the exact enumeration and before the trace file is opened
    config = write_json(tmp_path / "generr.json", {**README_GENERR, "n": n, "trials": 1})
    trace = tmp_path / "trace.csv"
    argv = ["simulate", "generr", "--config", config, "--trace", str(trace)]
    assert run_bounded(argv) == (
        4, "", [f"error: a trial of n = {n} draws holds {n} values, which exceed the cap "
                f"{10**6}"])
    assert not trace.exists()


@pytest.mark.parametrize(
    "command",
    [["measure", "ml", "--channel"], ["measure", "cml", "--channel", "BEC", "--pairs"],
     ["compose", "--ledger"], ["simulate", "generr", "--config"]],
    ids=["measure-ml", "measure-cml", "compose", "simulate-generr"],
)
def test_deeply_nested_json_exits_2(tmp_path, command):
    # the parser recurses once per level, past Python's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    channel = write_json(tmp_path / "bec.json", bec_channel(0.5).to_json())
    argv = [channel if arg == "BEC" else arg for arg in command] + [str(deep)]
    assert run_bounded(argv) == (2, "", [f"error: {deep} is nested too deeply to parse"])


LEDGER = ["compose", "--ledger"]


# the reports of a text-mode read, which turned "\r\n" and a lone "\r" into
# "\n" before the parser counted lines and chars
@pytest.mark.parametrize(
    "command, content, reason",
    [(["simulate", "generr", "--config"], b"", "Expecting value: line 1 column 1 (char 0)"),
     (LEDGER, b'{"entries": [],}',
      "Expecting property name enclosed in double quotes: line 1 column 16 (char 15)"),
     (["measure", "ml", "--channel"], b"\xff{}",
      "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
     (LEDGER, b'{\r\n "entries":\r\n [1,]}\r\n', "Expecting value: line 3 column 5 (char 18)"),
     (LEDGER, b'{\r"entries": [],\r}',
      "Expecting property name enclosed in double quotes: line 3 column 1 (char 17)"),
     (LEDGER, b'{"entries": [], "x": "a\rb"}',
      "Invalid control character at: line 1 column 24 (char 23)"),
     (LEDGER, b'\xef\xbb\xbf{"entries": []}',
      "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
     (LEDGER, '{"entries": []}'.encode("utf-16"),
      "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
     (LEDGER, b'{"entries": [], "x": "ab\xc3\x28"}',
      "'utf-8' codec can't decode byte 0xc3 in position 24: invalid continuation byte"),
     (LEDGER, b'{"entries": []}\xe2\x82',
      "'utf-8' codec can't decode bytes in position 15-16: unexpected end of data")],
    ids=["empty-config", "trailing-comma-ledger", "non-utf8-channel", "crlf", "lone-cr",
         "cr-in-string", "utf8-bom", "utf16-bom", "bad-utf8-in-the-middle", "truncated-utf8"],
)
def test_json_syntax_errors_name_the_file(capsys, tmp_path, command, content, reason):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    # a warning would reach a command line's stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, *command, str(path)) == (
            2, None, f"error: {path} is not valid JSON: {reason}\n")


@pytest.mark.parametrize("content", [b'{\r\n  "entries": []\r\n}\r\n', b'{\r"entries": []\r}\r'],
                         ids=["crlf", "lone-cr"])
def test_carriage_returns_between_tokens_parse(capsys, tmp_path, content):
    path = tmp_path / "ledger.json"
    path.write_bytes(content)
    assert run_cli(capsys, *LEDGER, str(path)) == (0, {"entries": [], "total_nats": 0.0}, "")


def test_directory_path_is_one_error_line(capsys, tmp_path):
    assert run_cli(capsys, *LEDGER, str(tmp_path)) == (
        2, None, f"error: [Errno 21] Is a directory: '{tmp_path}'\n")


@pytest.mark.parametrize("flag", ["ledger", "output", "trace"])
def test_empty_path_is_refused_as_one_error_line(capsys, tmp_path, flag):
    # an empty path is given, and no file has it; it does not mean "omitted"
    config = write_json(tmp_path / "hyptest.json", README_HYPTEST)
    argv = {
        "ledger": ["compose", "--ledger", "", "--declared", "0.5"],
        "output": ["bound", "--theorem", "generr", "--n", "500", "--eta", "0.1",
                   "--leakage", "1.0", "--output", ""],
        "trace": ["simulate", "hyptest", "--config", config, "--trace", ""],
    }[flag]
    assert_refused(capsys, argv, "[Errno 2] No such file or directory: ''")


def test_package_names_each_export_once_and_resolves_it_from_its_module():
    from leakage_lab import verify

    listed = [name for names in leakage_lab._EXPORTS.values() for name in names]
    assert len(listed) == len(set(listed)) == len(leakage_lab.__all__)
    for name in leakage_lab.__all__:
        home = importlib.import_module(f"leakage_lab.{leakage_lab._HOME[name]}")
        assert getattr(leakage_lab, name) is getattr(home, name), name
        assert name in vars(leakage_lab), f"{name} is not cached"
    namespace: dict = {}
    exec("from leakage_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(leakage_lab.__all__)
    assert set(leakage_lab.__all__) <= set(dir(leakage_lab))
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(leakage_lab, "no_such_export")
    assert cli._SUITE_NAMES == tuple(verify.SUITES)
    # each module's __all__ is its package entry, and lists only what it defines
    for module_name, names in leakage_lab._EXPORTS.items():
        module = importlib.import_module(f"leakage_lab.{module_name}")
        assert module.__all__ is names, module_name
        for name in names:
            value = getattr(module, name)
            if callable(value):
                home = value.__module__
                assert home == module.__name__ or home.startswith("leakage_lab._"), (name, home)


def test_bench_tracer_counts_every_trial(tmp_path):
    # bench/tracing.py wraps simulate.map_chunked and counts the trials it is given
    root = Path(__file__).resolve().parents[1]
    src = str(Path(leakage_lab.__file__).resolve().parents[1])
    config = write_json(tmp_path / "generr.json", {
        "d": 2,
        "n": 6,
        "dataDistribution": DiscreteDistribution(data_alphabet(2), [0.4, 0.1, 0.3, 0.2]).to_json(),
        "learner": {"kind": ERM, "hypothesisClass": [[0, 0], [0, 1], [1, 0], [1, 1]]},
        "eta": 0.45,
        "trials": 2500,
        "seed": 11,
    })
    code = (
        f"import sys; sys.path[:0] = [{src!r}, {str(root / 'bench')!r}]\n"
        "import tracing\n"
        "from leakage_lab import cli\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        f"assert cli.main(['simulate', 'generr', '--config', {config!r}]) == 0\n"
        "print(tracer.counts['simulate.trials'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "2500"


@pytest.mark.parametrize("epsilon,message", [
    (0.5, "an ERM learner takes no epsilon, got 0.5"),
    (0, "an ERM learner takes no epsilon, got 0"),
    ("0.5", "learner.epsilon must be a number, got '0.5'"),
], ids=["float", "zero", "string"])
def test_an_epsilon_on_an_erm_learner_is_one_error_line(capsys, tmp_path, epsilon, message):
    # an ERM learner has no epsilon to use, so one in its config is refused, not
    # ignored; "epsilon": null is the same as no epsilon
    learner = {**GENERR["learner"], "epsilon": epsilon}
    path = write_json(tmp_path / "erm.json", {**GENERR, "learner": learner})
    code, doc, err = run_cli(capsys, "simulate", "generr", "--config", path)
    assert code == 2
    assert doc is None
    assert err.splitlines() == [f"error: {message}"]
