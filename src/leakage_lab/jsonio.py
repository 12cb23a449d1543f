"""JSON reads and emission, and the one schema of every input document.

``load_path`` reads and parses a JSON file. ``dumps`` encodes with one
shared standard encoder that refuses NaN and infinities: it writes each
float as the shortest decimal that parses back to the same IEEE-754
double, so round trips are bit-exact, and integral floats keep their
``.0``. Positive infinity, which some measures legitimately return, must
be converted to the string ``"inf"`` by ``encode_extended`` first.
``_DOCUMENTS`` is the schema of every input document: ``read`` checks a
parsed value against it and ``write`` builds a document from its values.
"""

from __future__ import annotations

import gc
import json
import math
import numbers
import reprlib
from itertools import chain
from typing import Any

from .errors import LeakageLabError

__all__ = ["dumps", "load_path", "encode_extended", "read", "write"]


# json.dumps(obj, allow_nan=False) builds this encoder on every call
_ENCODER = json.JSONEncoder(allow_nan=False)


def dumps(obj: Any) -> str:
    return _ENCODER.encode(obj)


def load_path(path: str) -> Any:
    """The parsed JSON document in the file at ``path``.

    The file is read whole and unbuffered, and its bytes are decoded once
    and freed before the text is parsed. A carriage return, alone or before
    a line feed, becomes a line feed as in text mode: a valid document
    parses the same either way, and an error's char position counts the
    translated text, as a text-mode read did. The cyclic collector is
    paused while the text is parsed: a document is a tree, so the
    collector has nothing to free there, yet each of its passes would walk
    the lists the parser has built so far. It is re-enabled afterwards
    only if it was enabled before. Text that is not UTF-8 or not JSON, and
    a document nested deeper than the parser's recursion limit, are refused
    with an error that names the path.
    """
    with open(path, "rb", buffering=0) as handle:
        try:
            text = handle.read().decode("utf-8")
        except UnicodeDecodeError as err:
            raise LeakageLabError(f"{path} is not valid JSON: {err}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise LeakageLabError(f"{path} is not valid JSON: {err}") from None
    except RecursionError:
        raise LeakageLabError(f"{path} is nested too deeply to parse") from None
    finally:
        if enabled:
            gc.enable()


def encode_extended(x: float) -> float | str:
    """Encode a possibly infinite measure value for JSON payloads."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


# A kind is a scalar ("int", "number", "string", "bool"), a document's
# name, ("array", kind) or ("array", kind, length), or ("matrix", scalar)
# for a rectangular array of arrays. A document lists its keys in order, as
# (name, kind) when required and (name, kind, default) when optional; a
# default of None also takes null. ("one of", {kind: keys}) is the document
# whose keys its first key, "kind", names.
_LABELS = ("array", "string")
_RECTANGLE = (("input_labels", _LABELS), ("output_labels", _LABELS))
_KIND = ("kind", "string")
_DOCUMENTS = {
    "distribution": (("labels", _LABELS), ("probs", ("array", "number"))),
    "channel": (*_RECTANGLE, ("rows", ("matrix", "number"))),
    "joint": (*_RECTANGLE, ("mass", ("matrix", "number"))),
    "event mask": (*_RECTANGLE, ("mask", ("matrix", "bool"))),
    "ledger": (("entries", ("array", "ledger entry")),),
    "ledger entry": (("label", "string"), ("bound_nats", "number"), ("provenance", "provenance")),
    "provenance": ("one of", {"computed-channel": (_KIND,), "declared": (_KIND,),
                              "dp-derived": (_KIND, ("epsilon", "number"), ("n", "int")),
                              "cardinality": (_KIND, ("output_size", "int")),
                              "max-info-derived": (_KIND, ("maxinfo_nats", "number"))}),
    "learner": (("kind", "string"), ("hypothesisClass", ("array", ("array", "int"))),
                ("tieBreak", "string", "lowest-index"), ("epsilon", "number", None)),
    "generr config": (("d", "int"), ("n", "int"), ("dataDistribution", "distribution"),
                      ("learner", "learner"), ("eta", "number"), ("trials", "int"), ("seed", "int")),
    "hyptest config": (("n", "int"), ("numStats", "int"), ("sigma", "number"), ("delta", "number"),
                       ("trials", "int"), ("seed", "int")),
    "pairs": ("array", ("array", "string", 2)),
}

# per scalar: the class of its values (no bool unless asked for), its name
# in a refusal, and the parsed types that a one-pass scan of an array admits
_SCALARS = {"int": (numbers.Integral, "an integer", {int}),
            "number": (numbers.Real, "a number", {int, float}),
            "string": (str, "a string", {str}), "bool": (bool, "a boolean", {bool})}


def _check(ok: bool, name: str, what: str, value: Any) -> None:
    if not ok:
        raise LeakageLabError(f"{name} must be {what}, got {reprlib.repr(value)}")


def read(kind: Any, value: Any, name: str | None = None, prefix: str | None = "") -> Any:
    """``value`` checked against ``kind``, as plain values and numpy arrays.

    A document comes back as the tuple of its values in key order, each
    optional key it lacks at its default (a "one of" document as a dict);
    an array as a list, a matrix as a float64 or bool numpy array. The
    first bad value, missing key or unknown key raises a LeakageLabError
    that names its JSON path: ``name`` (the kind by default) names
    ``value`` and its items, and ``prefix`` (``name`` and a dot when None)
    goes before its keys. An array of scalars is checked in one pass over
    the parsed lists.
    """
    name = name or kind
    spec = _DOCUMENTS.get(kind, kind) if isinstance(kind, str) else kind
    if isinstance(spec, str):
        cls, what, types = _SCALARS[spec]
        if type(value) not in types:
            _check(isinstance(value, cls) and (spec == "bool" or not isinstance(value, bool)),
                   name, what, value)
        return value
    if spec[0] in ("array", "matrix"):
        _check(isinstance(value, list), name, "a JSON array", value)
        if spec[0] == "matrix":  # so a document without a matrix loads no numpy
            import numpy as np

            width = len(value[0]) if value and isinstance(value[0], list) else 0
            try:  # a row that is a string or an object yields items of the wrong type
                rectangular = (len(set(map(len, value))) <= 1
                               and set(map(type, chain.from_iterable(value))) <= _SCALARS[spec[1]][2])
            except TypeError:  # a row without a length
                rectangular = False
            if not rectangular:
                read(("array", ("array", spec[1], width)), value, name)
            return np.fromiter(chain.from_iterable(value), bool if spec[1] == "bool" else float,
                               len(value) * width).reshape(len(value), width)
        if len(spec) == 3 and len(value) != spec[2]:
            raise LeakageLabError(f"{name} must have length {spec[2]}, got {len(value)}")
        if spec[1] in _SCALARS and set(map(type, value)) <= _SCALARS[spec[1]][2]:
            return value
        return [read(spec[1], item, f"{name}[{i}]", None) for i, item in enumerate(value)]
    _check(isinstance(value, dict), name, "a JSON object", value)
    prefix = name + "." if prefix is None else prefix
    keys = spec
    if spec[0] == "one of":
        tag = read("string", value["kind"], prefix + "kind") if "kind" in value else None
        _check(tag in spec[1], prefix + "kind", f"a {kind} kind ({', '.join(spec[1])})", tag)
        keys = spec[1][tag]
    values, given = [], 0
    for key in keys:
        if key[0] not in value:
            if len(key) == 2:
                raise LeakageLabError(f"missing key '{prefix}{key[0]}'")
            values.append(key[2])
            continue
        given += 1
        item = value[key[0]]
        null = item is None and key[2:] == (None,)
        values.append(None if null else read(key[1], item, prefix + key[0], None))
    if given < len(value):  # the document holds a key that the table does not list
        unknown = next(other for other in value if other not in [key[0] for key in keys])
        raise LeakageLabError(f"unknown key '{prefix}{unknown}'")
    return dict(zip([key[0] for key in keys], values)) if spec[0] == "one of" else tuple(values)


def write(kind: str, *values: Any) -> dict:
    """The ``kind`` document whose keys hold ``values``, in key order, less those that are None."""
    return {key[0]: value for key, value in zip(_DOCUMENTS[kind], values, strict=True)
            if value is not None}
