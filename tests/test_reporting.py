import json

from cycloschur.reporting import check


def test_params_become_json_values():
    params = {"mu": ((1, 0), (0, 2)), "pos": [1, 2], "q_one": True, "sub": {"a": (1,)}}
    item = check("name", params, 1, {"why": "x"})
    assert item == {
        "check": "name",
        "params": {"mu": [[1, 0], [0, 2]], "pos": [1, 2], "q_one": True, "sub": {"a": [1]}},
        "ok": True,
        "detail": {"why": "x"},
    }
    assert "detail" not in check("name", params, True)


def test_a_repeated_tuple_converts_the_same():
    mu = ((2, 0), (1,))
    first = check("a", {"mu": mu}, True)["params"]["mu"]
    assert check("b", {"mu": mu}, True)["params"]["mu"] == first == [[2, 0], [1]]


def test_equal_tuples_of_other_types_keep_their_values():
    # (1, 0) == (True, False), but their JSON differs
    check("a", {"x": (1, 0)}, True)
    item = check("b", {"x": (True, False)}, True)
    assert json.dumps(item["params"]) == '{"x": [true, false]}'


def test_a_tuple_holding_a_list_is_converted_afresh():
    inner = [1]
    value = (inner,)
    assert check("a", {"x": value}, True)["params"] == {"x": [[1]]}
    inner.append(2)
    assert check("a", {"x": value}, True)["params"] == {"x": [[1, 2]]}
