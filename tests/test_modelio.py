import pytest

from gradedpdl.chain import ChainContext, NotAChainElement
from gradedpdl.cli import main
from gradedpdl.modelio import (
    ModelFormatError,
    dumps,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from gradedpdl.relations import ReachRelation, StateSpace
from gradedpdl.semantics import Model

C3 = ChainContext(3)

DOC = {
    "n": 3,
    "states": ["s0", "s1"],
    "valuation": {"p": {"s0": "1/2"}},
    "programs": {"a": [{"from": "s0", "to": ["s0", "s1"], "value": "1/2"}]},
}


# Documents whose values or target names have the wrong JSON type.
MALFORMED = [
    {"n": 3, "states": ["s0", "s1"],
     "programs": {"a": [{"from": "s0", "to": ["s1"], "value": 0.5}]}},
    {"n": 3, "states": ["s0", "s1"],
     "programs": {"a": [{"from": "s0", "to": [["s1"]], "value": "1"}]}},
    {"n": 3, "states": ["s0"], "valuation": {"p": {"s0": 1}}},
    {"n": 3, "states": ["s0"], "valuation": ["p"]},
    {"n": 3, "states": ["s0"], "programs": ["a"]},
]


def test_load_basics():
    model = model_from_dict(DOC)
    assert model.context.n == 3
    assert model.space.size == 2
    assert model.prop_num("p", 0) == 1
    assert model.atomics["a"].num(0, 0b11) == 1


def test_round_trip():
    model = model_from_dict(DOC)
    assert model_from_dict(model_to_dict(model)) == model


def test_to_list_is_order_insensitive_and_deduplicated():
    rows = [
        {"from": "s0", "to": ["s1", "s0", "s1"], "value": "1/2"},
        {"from": "s0", "to": ["s0", "s1"], "value": "1"},
    ]
    # two rows for one (state, target set) keep the larger value, in
    # either order
    for ordered in (rows, rows[::-1]):
        doc = dict(DOC)
        doc["programs"] = {"a": ordered}
        model = model_from_dict(doc)
        assert model.atomics["a"].entries == {(0, 0b11): 2}


def test_absent_entries_mean_bottom():
    model = model_from_dict({"n": 2, "states": ["x"]})
    assert model.prop_num("p", 0) == 0
    assert model.atomics == {}


def test_errors():
    with pytest.raises(ModelFormatError):
        model_from_dict({"states": ["s0"]})
    with pytest.raises(ModelFormatError):
        model_from_dict({"n": 2, "states": []})
    with pytest.raises(ModelFormatError):
        model_from_dict({"n": 2, "states": ["a", "a"]})
    with pytest.raises(ModelFormatError):
        model_from_dict({"n": 2, "states": ["a"], "valuation": {"p": {"zz": "1"}}})
    with pytest.raises(NotAChainElement):
        model_from_dict({"n": 4, "states": ["a"], "valuation": {"p": {"a": "1/2"}}})
    with pytest.raises(ModelFormatError):
        model_from_dict({"n": 2, "states": ["a"], "programs": {"a": [{"from": "a"}]}})
    for malformed in MALFORMED:
        with pytest.raises(ModelFormatError):
            model_from_dict(malformed)
    # only a missing section means empty; a present one must be an object
    for key in ("valuation", "programs"):
        for part in ([], False, 0, None):
            with pytest.raises(ModelFormatError, match=f"'{key}' must be an object"):
                model_from_dict({"n": 3, "states": ["s0"], key: part})


def test_file_round_trip(tmp_path):
    model = model_from_dict(DOC)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path) == model
    # canonical emission is stable
    assert dumps(model_to_dict(model)) == dumps(model_to_dict(load_model(path)))


def test_model_file_with_a_byte_order_mark(tmp_path, capsys):
    # as some editors save UTF-8, with Windows line ends
    path = tmp_path / "bom.json"
    text = dumps(DOC).replace("\n", "\r\n")
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_model(path) == model_from_dict(DOC)
    assert main(["eval", str(path), "p -> p"]) == 0
    assert "s0: 1\ns1: 1" in capsys.readouterr().out
    assert main(["filtrate", str(path), "p"]) == 0
    assert "classes: 2" in capsys.readouterr().out


def test_malformed_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_emission_writes_nonzero_entries_and_skips_zero_rows():
    space = StateSpace(3)
    model = Model(C3, space, {}, {"p": {0: 0, 2: 1, 1: 2}, "q": {1: 0}, "r": {}})
    valuation = model_to_dict(model)["valuation"]
    assert valuation == {"p": {"s1": "1", "s2": "1/2"}}
    assert list(valuation["p"]) == ["s1", "s2"]
    assert model_from_dict(model_to_dict(model)) == model


def test_lowest_terms_in_emission():
    ctx5 = ChainContext(5)
    space = StateSpace(1)
    model = Model(
        ctx5, space, {"a": ReachRelation(space, ctx5, {(0, 1): 2})}, {"p": {0: 2}}
    )
    doc = model_to_dict(model)
    assert doc["valuation"]["p"]["s0"] == "1/2"
    assert doc["programs"]["a"][0]["value"] == "1/2"
    assert model_from_dict(doc) == model
