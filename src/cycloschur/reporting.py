"""Uniform check records for the verification suites."""

from __future__ import annotations

# the suffix naming a sign in check names
PM = {+1: "plus", -1: "minus"}


def check(name, params, ok, detail=None):
    item = {"check": name, "params": _jsonable(params), "ok": bool(ok)}
    if detail is not None:
        item["detail"] = detail
    return item


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
