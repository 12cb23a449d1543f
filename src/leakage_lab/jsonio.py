"""JSON emission with lossless floats.

Every real is written with up to 17 significant digits so that parsing
the text recovers the exact IEEE-754 double; round trips are bit-exact.
Positive infinity, which some measures legitimately return, must be
converted to the string ``"inf"`` by the caller before serialization
(plain ``float('inf')`` is rejected here on purpose). ``_read_int`` and
``_read_number`` read one typed field of a parsed document.
"""

from __future__ import annotations

import json
import math
import numbers
from typing import Any, Mapping

from .errors import LeakageLabError

__all__ = ["dumps", "loads", "load_path", "encode_extended", "decode_extended"]


def _format_real(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite real cannot be serialized directly; encode it first")
    text = format(x, ".17g")
    # ".17g" keeps enough digits for an exact round trip; guard it anyway.
    assert float(text) == x
    return text


def _emit(obj: Any, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(_format_real(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key))
            parts.append(": ")
            _emit(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(", ")
            _emit(value, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def loads(text: str) -> Any:
    return json.loads(text)


def load_path(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _read_int(payload: Mapping, key: str) -> int:
    """``payload[key]`` when it is a JSON integer; floats, bools and strings are refused."""
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise LeakageLabError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _read_number(payload: Mapping, key: str) -> float:
    """``payload[key]`` as a float when it is a JSON number; bools and strings are refused."""
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise LeakageLabError(f"{key} must be a number, got {value!r}")
    return float(value)


def encode_extended(x: float) -> float | str:
    """Encode a possibly infinite measure value for JSON payloads."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def decode_extended(value: float | str) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)
