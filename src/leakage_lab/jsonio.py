"""JSON emission and typed reads of parsed documents.

``dumps`` is the standard encoder with NaN and infinities refused: it
writes each float as the shortest decimal that parses back to the same
IEEE-754 double, so round trips are bit-exact, and integral floats keep
their ``.0``. Positive infinity, which some measures legitimately return,
must be converted to the string ``"inf"`` by ``encode_extended`` before
serialization. ``_read_int``, ``_read_number``, ``_read_object`` and
``_read_array`` read one typed field of a parsed document.
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


def dumps(obj: Any) -> str:
    return json.dumps(obj, allow_nan=False)


def load_path(path: str) -> Any:
    """The parsed JSON document in the file at ``path``.

    The cyclic collector is paused while the text is parsed: a document
    is a tree, so the collector has nothing to free there, yet each of its
    passes would walk the lists the parser has built so far. It is
    re-enabled afterwards only if it was enabled before. A document nested
    deeper than the parser's recursion limit is refused with an error that
    names the path.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
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
