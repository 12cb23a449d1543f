"""The schema of every input document: what ``jsonio.read`` accepts, and how it refuses.

Every refusal case here is made from the table itself: each valid document
below is walked against ``jsonio._DOCUMENTS``, and each of its values is
mutated on its own, so a kind or key added to the table is fuzzed with no
new case written.
"""

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from leakage_lab import (
    Channel,
    DiscreteDistribution,
    EventMask,
    GenErrConfig,
    HypTestConfig,
    JointDistribution,
    LeakageLabError,
    LeakageLedger,
    LearnerSpec,
    LedgerEntry,
    jsonio,
)
from leakage_lab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# one valid document of each kind; the ledger holds an entry of every provenance kind
VALID = {
    "distribution": {"labels": ["a", "b"], "probs": [0.25, 0.75]},
    "channel": {"input_labels": ["0", "1"], "output_labels": ["0", "1", "e"],
                "rows": [[0.5, 0, 0.5], [0.0, 0.5, 0.5]]},
    "joint": {"input_labels": ["0", "1"], "output_labels": ["0", "1"],
              "mass": [[0.8, 0.0], [0.0, 0.2]]},
    "event mask": {"input_labels": ["a", "b"], "output_labels": ["x", "y"],
                   "mask": [[True, False], [False, False]]},
    "ledger": {"entries": [
        {"label": "dp", "bound_nats": 1.0,
         "provenance": {"kind": "dp-derived", "epsilon": 0.1, "n": 10}},
        {"label": "size", "bound_nats": math.log(4),
         "provenance": {"kind": "cardinality", "output_size": 4}},
        {"label": "info", "bound_nats": 0.3,
         "provenance": {"kind": "max-info-derived", "maxinfo_nats": 0.3}},
        {"label": "exact", "bound_nats": 0.4, "provenance": {"kind": "computed-channel"}},
        {"label": "trusted", "bound_nats": 0.25, "provenance": {"kind": "declared"}},
    ]},
    "ledger entry": {"label": "s", "bound_nats": 0.5, "provenance": {"kind": "declared"}},
    "provenance": {"kind": "dp-derived", "epsilon": 0.5, "n": 3},
    "learner": {"kind": "exponential-mechanism", "hypothesisClass": [[0, 1], [1, 0]],
                "tieBreak": "lowest-index", "epsilon": 0.5},
    "generr config": {"d": 2, "n": 6,
                      "dataDistribution": {"labels": ["x0:0", "x0:1", "x1:0", "x1:1"],
                                           "probs": [0.4, 0.1, 0.3, 0.2]},
                      "learner": {"kind": "ERM", "hypothesisClass": [[0, 0], [1, 1]]},
                      "eta": 0.45, "trials": 100, "seed": 7},
    "hyptest config": {"n": 64, "numStats": 10, "sigma": 0.005, "delta": 0.05, "trials": 100,
                       "seed": 7},
    "pairs": [["x0", "z0"], ["x1", "z0"]],
}

# the classes whose from_json reads a kind, and so whose to_json writes it
CLASSES = {"distribution": DiscreteDistribution, "channel": Channel, "joint": JointDistribution,
           "event mask": EventMask, "ledger": LeakageLedger, "ledger entry": LedgerEntry,
           "learner": LearnerSpec, "generr config": GenErrConfig, "hyptest config": HypTestConfig}

# a value of another type for each scalar kind: a string and a number swapped,
# a bool where a number belongs, a number where a label belongs
SWAPS = {"string": [0, None], "number": ["1", True], "int": ["1", True, 1.5], "bool": [1, "true"]}


def spec_of(kind):
    return jsonio._DOCUMENTS.get(kind, kind) if isinstance(kind, str) else kind


def keys_of(spec, value):
    """The (name, kind, *default) keys of an object document's value."""
    return spec[1][value["kind"]] if spec[0] == "one of" else spec


def nodes(kind, value, where=()):
    """(steps, kind, value) of ``value`` and of every value in it; steps are keys and indices."""
    yield where, kind, value
    spec = spec_of(kind)
    if isinstance(spec, str):
        return
    if spec[0] in ("array", "matrix"):
        item = ("array", spec[1]) if spec[0] == "matrix" else spec[1]
        for i, member in enumerate(value):
            yield from nodes(item, member, (*where, i))
        return
    for key, of, *_ in keys_of(spec, value):
        if value.get(key) is not None:
            yield from nodes(of, value[key], (*where, key))


def spell(kind, steps):
    """The JSON path that the reader names for ``steps`` into a ``kind`` document.

    The keys of a document are named bare, the items of an array document
    after the document.
    """
    path = kind if spec_of(kind)[0] == "array" else ""
    for step in steps:
        path += f"[{step}]" if isinstance(step, int) else f".{step}" if path else step
    return path


def edited(document, steps, edit):
    """A copy of ``document`` after ``edit`` has changed the value at ``steps`` in place."""
    mutated = copy.deepcopy(document)
    node = mutated
    for step in steps:
        node = node[step]
    edit(node)
    return mutated


def mutations(kind):
    """(id, mutated document, JSON path the refusal must name) for each mutation of VALID[kind]."""
    document = VALID[kind]
    for steps, of, value in nodes(kind, document):
        spec, path = spec_of(of), spell(kind, steps)
        for swap in SWAPS[spec] if isinstance(spec, str) else [7] if steps else []:
            swapped = edited(document, steps[:-1],
                             lambda node, s=swap: node.__setitem__(steps[-1], s))
            yield f"{path}={swap!r}", swapped, path
        if isinstance(spec, str):
            continue
        if spec[0] == "matrix":
            last = (*steps, len(value) - 1)
            yield (f"{path}-ragged", edited(document, last, lambda row: row.append(row[0])),
                   spell(kind, last))
        elif spec[0] == "array" and spec[2:]:
            yield f"{path}-long", edited(document, steps, lambda pair: pair.append("w")), path
        elif spec[0] != "array":
            extra = edited(document, steps, lambda node: node.__setitem__("extra", 1))
            yield f"{path}+extra", extra, spell(kind, (*steps, "extra"))
            for key, _, *default in keys_of(spec, value):
                if not default:
                    dropped = edited(document, steps, lambda node, k=key: node.pop(k))
                    yield f"{path}-{key}", dropped, spell(kind, (*steps, key))


CASES = [(kind, *case) for kind in VALID for case in mutations(kind)]


def test_every_kind_has_a_valid_document():
    assert set(VALID) == set(jsonio._DOCUMENTS)
    kinds = {entry["provenance"]["kind"] for entry in VALID["ledger"]["entries"]}
    assert kinds == set(jsonio._DOCUMENTS["provenance"][1])


@pytest.mark.parametrize("kind", list(VALID))
def test_valid_document_reads_to_its_values(kind):
    values = jsonio.read(kind, copy.deepcopy(VALID[kind]))
    if kind in CLASSES:
        again = CLASSES[kind].from_json(json.loads(jsonio.dumps(CLASSES[kind].from_json(
            VALID[kind]).to_json())))
        assert again == CLASSES[kind].from_json(VALID[kind])
    if kind == "channel":
        labels, outputs, rows = values
        assert (labels, outputs) == (["0", "1"], ["0", "1", "e"])
        assert rows.dtype == np.float64 and rows.tolist() == [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]
    if kind == "event mask":
        assert values[2].dtype == bool


@pytest.mark.parametrize("kind,case,document,path", CASES,
                         ids=[f"{kind}:{case}" for kind, case, _, _ in CASES])
def test_each_mutation_is_refused_with_its_path(kind, case, document, path):
    with pytest.raises(LeakageLabError) as caught:
        jsonio.read(kind, document)
    message = str(caught.value)
    # a missing provenance kind is refused as a kind that names no provenance
    assert (message.startswith(f"{path} must ") or message == f"missing key '{path}'"
            or message == f"unknown key '{path}'"), message
    assert "\n" not in message


def test_arrays_of_scalars_are_checked_in_one_pass(monkeypatch):
    # read is called once for the document and once per key; a label list and
    # a matrix, ints and floats mixed, are checked whole, never item by item
    calls = []
    read = jsonio.read
    monkeypatch.setattr(jsonio, "read", lambda *args: calls.append(args[0]) or read(*args))
    jsonio.read("channel", VALID["channel"])
    assert calls == ["channel", ("array", "string"), ("array", "string"), ("matrix", "number")]


@pytest.mark.parametrize("rows,message", [
    (["ab", "cd"], "rows[0] must be a JSON array, got 'ab'"),
    ([{"a": 1, "b": 2}, [0.5, 0.5]], "rows[0] must be a JSON array, got {'a': 1, 'b': 2}"),
    ([[0.5, 0.5], None], "rows[1] must be a JSON array, got None"),
    ([[0.5, 0.5], [[0.5], 0.5]], "rows[1][0] must be a number, got [0.5]"),
], ids=["string-rows", "object-row", "null-row", "nested-entry"])
def test_matrix_rows_that_are_not_arrays_of_numbers(rows, message):
    # a string or object row of the right length still fails the one-pass check
    with pytest.raises(LeakageLabError) as caught:
        jsonio.read(("matrix", "number"), rows, "rows")
    assert str(caught.value) == message


def test_empty_matrix_reads_as_zero_by_zero():
    assert jsonio.read(("matrix", "number"), [], "rows").shape == (0, 0)


def test_optional_keys_take_their_defaults_and_null_epsilon():
    learner = {"kind": "ERM", "hypothesisClass": [[0, 1]]}
    assert jsonio.read("learner", learner) == ("ERM", [[0, 1]], "lowest-index", None)
    assert jsonio.read("learner", {**learner, "epsilon": None})[3] is None
    with pytest.raises(LeakageLabError, match=r"^tieBreak must be a string, got None$"):
        jsonio.read("learner", {**learner, "tieBreak": None})


def test_root_and_items_are_named_after_the_given_name():
    with pytest.raises(LeakageLabError, match=r"^ch\.json must be a JSON object, got \[1\]$"):
        jsonio.read("channel", [1], "ch.json")
    with pytest.raises(LeakageLabError, match=r"^p\.json\[1\]\[0\] must be a string, got 5$"):
        jsonio.read("pairs", [["a", "z"], [5, "z"]], "p.json")


def test_writer_spells_each_key_once():
    # to_json writes through the table, so a document reads back key for key
    for kind, cls in CLASSES.items():
        document = cls.from_json(VALID[kind]).to_json()
        assert list(document) == [key[0] for key in jsonio._DOCUMENTS[kind]
                                  if key[0] in document], kind


@pytest.mark.parametrize("argv,document,message", [
    # the three channels of ROADMAP item 4
    ("measure ml --channel", {**VALID["channel"], "rows": [["1", 0, 0], [True, 0, 0]]},
     "rows[0][0] must be a number, got '1'"),
    ("measure ml --channel", {**VALID["channel"], "extra": 1}, "unknown key 'extra'"),
    ("measure ml --channel", {**VALID["channel"], "input_labels": [0, 1]},
     "input_labels[0] must be a string, got 0"),
    ("measure dp --product-base 0,1 --copies 1 --channel",
     {**VALID["channel"], "rows": [[0.5, 0, 0.5], [0.5, 0.5]]},
     "rows[1] must have length 3, got 2"),
    ("measure mi --joint", {**VALID["joint"], "mass": [[0.8, False], [0.0, 0.2]]},
     "mass[0][1] must be a number, got False"),
    ("compose --channel", {**VALID["channel"], "output_labels": "01e"},
     "output_labels must be a JSON array, got '01e'"),
    ("compose --ledger", {"entries": [{"label": "s", "bound_nats": 1.0,
                                       "provenance": {"kind": "dp-derived", "epsilon": 0.1}}]},
     "missing key 'entries[0].provenance.n'"),
    ("simulate generr --config",
     {**VALID["generr config"], "learner": {"kind": "ERM", "hypothesisClass": [[0, 0], ["1", 1]]}},
     "learner.hypothesisClass[1][0] must be an integer, got '1'"),
    ("simulate hyptest --config", {**VALID["hyptest config"], "numStats": True},
     "numStats must be an integer, got True"),
], ids=["channel-string-and-bool", "channel-extra-key", "channel-number-labels", "dp-ragged",
        "joint-bool", "compose-channel-labels", "ledger-missing-n", "generr-string-label",
        "hyptest-bool-count"])
def test_cli_document_flag_refusal_is_one_error_line(capsys, tmp_path, argv, document, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main([*argv.split(), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("flag,pairs,message", [
    ("--pairs", [["x0", "z0"], ["x1", 0], ["x0", "z1"], ["x1", "z1"]],
     "[1][1] must be a string, got 0"),
    ("--support", [["x0", "z0", "z1"]], "[0] must have length 2, got 3"),
], ids=["pairs", "support"])
def test_cli_pair_file_refusal_names_the_file(capsys, tmp_path, flag, pairs, message):
    channel = tmp_path / "ch.json"
    channel.write_text(json.dumps({"input_labels": ["a", "b", "c", "d"], "output_labels": ["y"],
                                   "rows": [[1.0]] * 4}), encoding="utf-8")
    good = [["x0", "z0"], ["x1", "z0"], ["x0", "z1"], ["x1", "z1"]]
    files = {"--pairs": good, flag: pairs}
    argv = ["measure", "cml", "--channel", str(channel)]
    for name, entries in files.items():
        path = tmp_path / f"{name[2:]}.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        argv += [name, str(path)]
    assert main(argv) == 2
    bad = tmp_path / f"{flag[2:]}.json"
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}{message}"]


def _input_files_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("### Input files")
    return text[start:text.index("\n## ", start)]


def test_readme_examples_read_as_their_kind():
    section = _input_files_section()
    examples = re.findall(r"```json ([^\n]+)\n(.*?)```", section, re.S)
    assert examples and len(examples) == section.count("```json")
    for kind, text in examples:
        jsonio.read(kind, json.loads(text))
        if kind in CLASSES:
            CLASSES[kind].from_json(json.loads(text))


def test_readme_names_every_key_of_the_table():
    section = _input_files_section()
    keys = set()
    for spec in jsonio._DOCUMENTS.values():
        if spec[0] == "one of":
            keys |= {"kind", *spec[1]} | {key[0] for keys_ in spec[1].values() for key in keys_}
        elif isinstance(spec[0], tuple):
            keys |= {key[0] for key in spec}
    missing = sorted(key for key in keys if f"`{key}`" not in section)
    assert not missing
