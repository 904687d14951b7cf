"""Uniform check records for the verification suites."""

from __future__ import annotations

# the suffix naming a sign in check names
PM = {+1: "plus", -1: "minus"}


def check(name, params, ok, detail=None):
    """A check record.  ``params`` is kept as given: its tuples are written
    as JSON lists when the report is written."""
    item = {"check": name, "params": params, "ok": bool(ok)}
    if detail is not None:
        item["detail"] = detail
    return item
