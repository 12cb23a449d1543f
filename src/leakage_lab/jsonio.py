"""JSON reads and emission, and typed reads of parsed documents.

``load_path`` reads a file in binary, decodes it as UTF-8 once and
translates its line ends as text mode would, so a refusal's positions are
those of a text-mode read. ``dumps`` encodes with one shared standard
encoder that refuses NaN and infinities: it writes each float as the
shortest decimal that parses back to the same IEEE-754 double, so round
trips are bit-exact, and integral floats keep their ``.0``. Positive
infinity, which some measures legitimately return, must be converted to
the string ``"inf"`` by ``encode_extended`` before serialization.
``_read_int``, ``_read_number``, ``_read_object`` and ``_read_array``
read one typed field of a parsed document.
"""

from __future__ import annotations

import gc
import json
import math
import numbers
import reprlib
from typing import Any, Mapping

from .errors import LeakageLabError

__all__ = ["dumps", "load_path", "encode_extended"]


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


def _read_scalar(payload: Mapping, key: str, where: str, kind: type, what: str):
    """``payload[key]`` if it is a ``kind`` but no bool; an error names it as ``where`` + ``key``."""
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise LeakageLabError(f"{where}{key} must be {what}, got {value!r}")
    return value


def _read_int(payload: Mapping, key: str, where: str = "") -> int:
    """``payload[key]`` when it is a JSON integer; floats, bools and strings are refused."""
    return int(_read_scalar(payload, key, where, numbers.Integral, "an integer"))


def _read_number(payload: Mapping, key: str, where: str = "") -> float:
    """``payload[key]`` as a float when it is a JSON number; bools and strings are refused."""
    return float(_read_scalar(payload, key, where, numbers.Real, "a number"))


def _read_object(value: Any, name: str) -> dict:
    """``value`` when it is a JSON object; an error names it as ``name``."""
    if not isinstance(value, dict):
        raise LeakageLabError(f"{name} must be a JSON object, got {reprlib.repr(value)}")
    return value


def _read_array(value: Any, name: str) -> list:
    """``value`` when it is a JSON array; an error names it as ``name``."""
    if not isinstance(value, list):
        raise LeakageLabError(f"{name} must be a JSON array, got {reprlib.repr(value)}")
    return value


def encode_extended(x: float) -> float | str:
    """Encode a possibly infinite measure value for JSON payloads."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)
