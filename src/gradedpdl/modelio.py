"""Model serialization: the JSON document format shared by all tools.

Document shape::

    {
      "n": 3,
      "states": ["s0", "s1"],
      "valuation": {"p": {"s0": "1/2"}},
      "programs": {"a": [{"from": "s0", "to": ["s0", "s1"], "value": "1/2"}]}
    }

Values are chain values in lowest terms; absent entries mean bottom.
Target lists are order-insensitive and deduplicated on load. Emission is
deterministic: states keep their order, entry lists are sorted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .chain import ChainContext, ChainValue, InputError, format_value, parse_value
from .relations import ReachRelation, StateSpace, mask_states
from .semantics import Model


class ModelFormatError(InputError):
    """The document does not describe a model."""


def model_to_dict(model: Model) -> dict[str, Any]:
    names = model.state_names
    valuation: dict[str, dict[str, str]] = {}
    for prop in sorted(model.valuation):
        row = model.valuation[prop]
        if any(row):
            valuation[prop] = {
                names[s]: format_value(ChainValue(num, model.context))
                for s, num in enumerate(row) if num
            }
    programs: dict[str, list[dict[str, Any]]] = {}
    for prog in sorted(model.atomics):
        rel = model.atomics[prog]
        rows = []
        for (s, mask), num in sorted(rel.entries.items()):
            rows.append(
                {
                    "from": names[s],
                    "to": [names[t] for t in mask_states(mask)],
                    "value": format_value(ChainValue(num, model.context)),
                }
            )
        programs[prog] = rows
    return {
        "n": model.context.n,
        "states": list(names),
        "valuation": valuation,
        "programs": programs,
    }


def model_from_dict(data: dict[str, Any]) -> Model:
    if not isinstance(data, dict):
        raise ModelFormatError("model document must be a JSON object")
    try:
        n = data["n"]
        state_list = data["states"]
    except KeyError as exc:
        raise ModelFormatError(f"model document is missing {exc.args[0]!r}") from None
    if not isinstance(n, int) or n < 2:
        raise ModelFormatError(f"chain order must be an integer >= 2, got {n!r}")
    if (
        not isinstance(state_list, list)
        or not state_list
        or not all(isinstance(s, str) for s in state_list)
    ):
        raise ModelFormatError("'states' must be a nonempty list of names")
    if len(set(state_list)) != len(state_list):
        raise ModelFormatError("duplicate state names")
    ctx = ChainContext(n)
    space = StateSpace(len(state_list))
    index = {name: i for i, name in enumerate(state_list)}

    def state(name: Any) -> int:
        if not isinstance(name, str) or name not in index:
            raise ModelFormatError(f"unknown state name {name!r}")
        return index[name]

    def value(text: Any) -> int:
        if not isinstance(text, str):
            raise ModelFormatError(f"chain values are strings such as \"1/2\", got {text!r}")
        return parse_value(text, ctx).numerator

    def section(key: str) -> dict[str, Any]:
        part = data.get(key, {})
        if not isinstance(part, dict):
            raise ModelFormatError(f"{key!r} must be an object")
        return part

    valuation: dict[str, dict[int, int]] = {}
    for prop, row in section("valuation").items():
        if not isinstance(row, dict):
            raise ModelFormatError(f"valuation of {prop!r} must be an object")
        valuation[prop] = {state(sname): value(text) for sname, text in row.items()}

    atomics: dict[str, ReachRelation] = {}
    for prog, rows in section("programs").items():
        if not isinstance(rows, list):
            raise ModelFormatError(f"program {prog!r} must map to a list of entries")
        triples = []
        for row in rows:
            try:
                src = state(row["from"])
                targets = row["to"]
                text = row["value"]
            except (KeyError, TypeError):
                raise ModelFormatError(
                    f"program {prog!r} entries need 'from', 'to' and 'value'"
                ) from None
            if not isinstance(targets, list):
                raise ModelFormatError(f"'to' of program {prog!r} must be a list")
            triples.append((src, [state(t) for t in targets], value(text)))
        atomics[prog] = ReachRelation.of(space, ctx, triples)

    return Model(ctx, space, atomics, valuation, tuple(state_list))


def load_model(path: str | Path) -> Model:
    # utf-8-sig drops the byte order mark some editors put first
    with open(path, encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle)
        # ValueError: not JSON, not UTF-8, or an integer too long to convert
        except (ValueError, RecursionError) as exc:
            raise ModelFormatError(f"{path}: {exc}") from None
    return model_from_dict(data)


def save_model(model: Model, path: str | Path) -> None:
    Path(path).write_text(dumps(model_to_dict(model)) + "\n", encoding="utf-8")


def dumps(document: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent."""
    return json.dumps(document, indent=2, sort_keys=True)
