"""Uniform check records for the verification suites."""

from __future__ import annotations

# the suffix naming a sign in check names
PM = {+1: "plus", -1: "minus"}

# Converted tuple params by id.  The same tuple objects (the weights of a
# context) recur in thousands of checks, so each is converted once and its
# checks share the list.  An entry holds its tuple, so the id is not reused
# while the entry lives; only hashable tuples, whose contents cannot change,
# are kept.
_CONVERTED = {}
_CONVERTED_MAX = 4096


def check(name, params, ok, detail=None):
    item = {
        "check": name,
        "params": {str(k): _param(v) for k, v in params.items()},
        "ok": bool(ok),
    }
    if detail is not None:
        item["detail"] = detail
    return item


def _param(value):
    if type(value) is not tuple:
        return _jsonable(value)
    hit = _CONVERTED.get(id(value))
    if hit is None:
        hit = (value, _jsonable(value))
        try:
            hash(value)
        except TypeError:
            return hit[1]
        if len(_CONVERTED) >= _CONVERTED_MAX:
            _CONVERTED.clear()
        _CONVERTED[id(value)] = hit
    return hit[1]


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
