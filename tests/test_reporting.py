import json

from cycloschur.reporting import check


def test_params_become_json_values():
    params = {"mu": ((1, 0), (0, 2)), "pos": [1, 2], "q_one": True, "sub": {"a": (1,)}}
    item = check("name", params, 1, {"why": "x"})
    assert json.loads(json.dumps(item)) == {
        "check": "name",
        "params": {"mu": [[1, 0], [0, 2]], "pos": [1, 2], "q_one": True, "sub": {"a": [1]}},
        "ok": True,
        "detail": {"why": "x"},
    }
    assert item["ok"] is True
    assert "detail" not in check("name", params, True)


def test_equal_tuples_of_other_types_keep_their_values():
    # (1, 0) == (True, False), but their JSON differs
    check("a", {"x": (1, 0)}, True)
    item = check("b", {"x": (True, False)}, True)
    assert json.dumps(item["params"]) == '{"x": [true, false]}'
