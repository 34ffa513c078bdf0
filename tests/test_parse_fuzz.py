"""Parse-stage fuzzer: every one-value mutation of every shipped scenario
parses or is refused with a SchemaError, never another exception."""

import json
import math
from pathlib import Path

import pytest

from swnet.cli import SchemaError, parse_scenario

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))

# One of each kind of bad value: no value, the wrong type, edge numbers, text, a bad
# rational, empty containers and an integer past every float and int64 range.
VALUES = (None, True, -1, 0, 0.5, 1e308, math.nan, "x", "1/0", [], {}, 2**70)


def _paths(node, at=()):
    """The key path of every value below the root: object values and list items, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield at + (key,)
        yield from _paths(value, at + (key,))


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_every_one_value_mutation_parses_or_is_a_schema_error(scenario):
    text = scenario.read_text(encoding="utf-8")
    parsed = refused = 0
    for path in list(_paths(json.loads(text))):
        for value in VALUES:
            raw = json.loads(text)  # a fresh copy: a parse must not see an earlier mutation
            node = raw
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = type(value)() if isinstance(value, (list, dict)) else value
            try:
                parse_scenario(raw)
            except SchemaError as exc:
                assert exc.pointer.startswith("/"), (path, value)
                refused += 1
            except Exception as exc:  # anything else breaks the contract: name the mutation
                pytest.fail(f"{scenario.name} with {path} = {value!r}: {exc!r}")
            else:
                parsed += 1
    assert refused > 0 and parsed > 0
