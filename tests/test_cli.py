"""End-to-end tests for the command-line interface (in process)."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import leakage_lab
from leakage_lab import (
    Alphabet,
    Channel,
    DiscreteDistribution,
    LeakageLedger,
    LedgerEntry,
    data_alphabet,
    empirical_dp,
    jsonio,
)
from leakage_lab.cli import main
from leakage_lab.core import ProductAlphabet
from leakage_lab.simulate import ERM, EXPONENTIAL_MECHANISM as EM, P_VALUE_NOTE

from conftest import bec_channel, bernoulli_identity_joint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    document = jsonio.loads(captured.out) if captured.out.strip() else None
    return code, document, captured.err


def write_json(path, payload):
    path.write_text(jsonio.dumps(payload) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def bec_path(tmp_path):
    return write_json(tmp_path / "bec.json", bec_channel(0.5).to_json())


@pytest.fixture
def joint_path(tmp_path):
    return write_json(tmp_path / "joint.json", bernoulli_identity_joint(0.2).to_json())


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
        "flag,entries",
        [
            ("--pairs", ["a0", "b0", "a1", "b1"]),
            ("--pairs", [["x0", "z0", "w"], ["x1", "z0"], ["x0", "z1"], ["x1", "z1"]]),
            ("--pairs", {"x0": "z0"}),
            ("--support", ["x0z0"]),
            ("--support", [["x0", "z0"], ["x1"]]),
        ],
    )
    def test_cml_entries_must_be_pairs(self, capsys, tmp_path, flag, entries):
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
        assert err.splitlines() == [f"error: {bad} must hold a list of [x, z] pairs"]

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

    def test_missing_required_flag(self, capsys):
        code, doc, err = run_cli(capsys, "measure", "ml")
        assert code == 2
        assert "needs --channel" in err

    def test_infeasible_beta(self, capsys, joint_path):
        code, _, err = run_cli(
            capsys, "measure", "approx-maxinfo", "--joint", joint_path, "--beta", "1.5"
        )
        assert code == 3
        assert "beta" in err

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "measure", "ml", "--channel", "/nonexistent.json")
        assert code == 2


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
        assert err.splitlines() == [f"error: {message}"]

    def test_malformed_dp(self, capsys):
        code, _, err = run_cli(capsys, "compose", "--dp", "0.1")
        assert code == 2
        assert "epsilon,n" in err

    def test_negative_epsilon_is_infeasible(self, capsys):
        # the = form keeps argparse from reading the value as a flag
        code, _, _ = run_cli(capsys, "compose", "--dp=-0.5,10")
        assert code == 3


class TestBound:
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

    def test_bad_eta_is_validation(self, capsys):
        code, _, _ = run_cli(
            capsys, "bound", "--theorem", "generr",
            "--n", "10", "--eta", "1.5", "--leakage", "0.0",
        )
        assert code == 2


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
        ],
        ids=["float-label", "bool-label", "bool-epsilon", "string-epsilon", "overflowing-epsilon",
             "nan-epsilon"],
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
        payload = jsonio.loads(Path(path).read_text(encoding="utf-8"))
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
        payload = jsonio.loads(Path(path).read_text(encoding="utf-8"))
        payload[key] = value
        bad = write_json(tmp_path / "bad.json", payload)
        code, doc, err = run_cli(capsys, "simulate", kind, "--config", bad)
        assert code == 2
        assert doc is None
        assert err.splitlines() == [f"error: {key} must be a number, got {value!r}"]

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
        assert err.splitlines() == ["error: epsilon must be finite, got nan"]

    @pytest.mark.parametrize(
        "argv,expected",
        [
            ("bound --theorem adapt --max-fiber-prob 0.5 --leakage 1000", 3),
            ("bound --theorem generr --n 10 --eta 0.1 --leakage nan", 2),
            ("bound --theorem adapt --max-fiber-prob 0.5 --leakage inf", 2),
            ("compose --declared nan", 2),
        ],
    )
    def test_non_finite_or_overflow_is_one_error_line(self, capsys, argv, expected):
        assert main(argv.split()) == expected
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_import_does_not_load_scipy_stats(tmp_path):
    # neither the import nor bound, compose and measure load any scipy module
    src = str(Path(leakage_lab.__file__).resolve().parents[1])
    channel = write_json(tmp_path / "bec.json", bec_channel(0.5).to_json())
    commands = [
        ["bound", "--theorem", "generr", "--n", "500", "--eta", "0.1", "--leakage", "1.0"],
        ["compose", "--dp", "0.1,10", "--cardinality", "4"],
        ["measure", "ml", "--channel", channel],
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
