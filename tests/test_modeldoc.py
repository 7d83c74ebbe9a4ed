"""Document schema strictness, round-trips, digests, and the generator."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphplan.fixtures import NAMES, fixture_text
from morphplan.generator import generate_document
from morphplan.model import validate_model
from morphplan.modeldoc import (
    DocumentError,
    canonical_json,
    model_digest,
    parse_model,
    serialize_document,
)


MINIMAL = {
    "morph_schema": 1,
    "scale": {"l": 3, "nu": 4},
    "root": "N",
    "components": [
        {"id": "A", "kind": "leaf", "das": [{"id": "a1", "priority": 1}]},
        {"id": "B", "kind": "leaf", "das": [{"id": "b1", "priority": 2}]},
        {
            "id": "N",
            "kind": "composite",
            "children": ["A", "B"],
            "compat": {"default": 0, "pairs": [["a1", "b1", 3]]},
        },
    ],
}


def doc_text(overrides=None, drop=None) -> str:
    raw = json.loads(json.dumps(MINIMAL))
    if overrides:
        raw.update(overrides)
    for key in drop or []:
        raw.pop(key)
    return json.dumps(raw)


@pytest.mark.parametrize("name", NAMES)
def test_bundled_fixtures_round_trip(name):
    doc = parse_model(fixture_text(name))
    text = serialize_document(doc)
    doc2 = parse_model(text)
    assert model_digest(doc.model) == model_digest(doc2.model)
    assert serialize_document(doc2) == text


def test_serialization_is_stable():
    doc = parse_model(fixture_text("arkticheskoe"))
    assert serialize_document(doc) == serialize_document(doc)


def test_minimal_document_parses():
    doc = parse_model(doc_text())
    assert doc.model.root == "N"
    assert validate_model(doc.model).ok


def test_empty_document_is_a_schema_error():
    with pytest.raises(DocumentError) as err:
        parse_model("{}")
    assert any("missing keys" in d for d in err.value.diagnostics)


def test_malformed_json_reports_position():
    with pytest.raises(DocumentError) as err:
        parse_model("{ not json")
    assert any("line 1" in d for d in err.value.diagnostics)


def test_unknown_top_level_keys_rejected():
    with pytest.raises(DocumentError) as err:
        parse_model(doc_text({"extra": 1}))
    assert any("unknown keys" in d and "extra" in d for d in err.value.diagnostics)


def test_unknown_component_keys_rejected():
    raw = json.loads(doc_text())
    raw["components"][0]["color"] = "red"
    with pytest.raises(DocumentError) as err:
        parse_model(json.dumps(raw))
    assert any("color" in d for d in err.value.diagnostics)


def test_unsupported_schema_version_rejected():
    with pytest.raises(DocumentError):
        parse_model(doc_text({"morph_schema": 2}))


def test_priority_zero_is_a_validation_diagnostic():
    raw = json.loads(doc_text())
    raw["components"][0]["das"][0]["priority"] = 0
    with pytest.raises(DocumentError) as err:
        parse_model(json.dumps(raw))
    assert any("priority-range" in d for d in err.value.diagnostics)


def test_kind_must_match_shape():
    raw = json.loads(doc_text())
    raw["components"][0]["kind"] = "composite"
    with pytest.raises(DocumentError):
        parse_model(json.dumps(raw))


def test_conflicting_duplicate_pair_rejected():
    raw = json.loads(doc_text())
    raw["components"][2]["compat"]["pairs"].append(["b1", "a1", 1])
    with pytest.raises(DocumentError) as err:
        parse_model(json.dumps(raw))
    assert any("duplicate" in d for d in err.value.diagnostics)


def test_arkticheskoe_parses_into_its_parts(arkticheskoe):
    m = arkticheskoe.model
    leaves = {c.id for c in m.components.values() if c.is_leaf}
    assert leaves == {"E", "F", "G", "J", "I", "P", "Q", "B"}
    assert m.component("W").children == ("E", "F", "G", "J", "I")
    assert m.component("D").children == ("P", "Q")
    assert m.root == "A2"


def test_fixture_reference_entries_parse(arkticheskoe):
    names = {exp.name for exp in arkticheskoe.options.expected}
    assert {"D1", "D2", "W1", "W2", "W3"} <= names
    w1 = next(e for e in arkticheskoe.options.expected if e.name == "W1")
    assert (w1.w, w1.e) == (4, (2, 3, 0))
    assert w1.note


def test_knapsack_section_parses(yamal_region):
    ks = yamal_region.knapsack
    assert ks is not None
    assert dict(ks.kernel) == {"A1": "A1_1", "A3": "A3_1"}
    assert [len(g) for g in ks.groups] == [6, 2, 2]
    assert ks.budgets == (9, 10, 11, 12)


KNAPSACK = {
    "kernel": {"A": "a1"},
    "groups": [
        {
            "id": "G",
            "items": [
                {"id": "g1", "cost": 1, "profit": 2},
                {"id": "g2", "cost": 2, "profit": 3},
            ],
        },
        {"id": "H", "items": [{"id": "h1", "cost": 0, "profit": 1}]},
    ],
    "budgets": [3],
}


def knapsack_doc_text(edit) -> str:
    knapsack = json.loads(json.dumps(KNAPSACK))
    edit(knapsack)
    return doc_text({"knapsack": knapsack})


def _set(*steps):
    """An edit that assigns the last step's value at the path of the others."""

    def edit(knapsack):
        target = knapsack
        for key in steps[:-2]:
            target = target[key]
        target[steps[-2]] = steps[-1]

    return edit


# Knapsack rules the parser must report as DocumentError diagnostics.
BROKEN_KNAPSACKS = {
    "negative-cost": (
        _set("groups", 0, "items", 0, "cost", -1),
        "$.knapsack.groups[0].items[0]: item 'g1' has negative cost or profit",
    ),
    "negative-budget": (
        _set("budgets", [3, -1]),
        "$.knapsack.budgets[1]: budget must be nonnegative: -1",
    ),
    "repeated-group": (
        _set("groups", 1, "id", "G"),
        "$.knapsack.groups: group label 'G' repeats",
    ),
    "repeated-item": (
        _set("groups", 1, "items", 0, "id", "g1"),
        "$.knapsack.groups: item id 'g1' repeats",
    ),
    "kernel-names-open-group": (
        _set("kernel", {"A": "a1", "H": "h1"}),
        "$.knapsack.kernel: kernel already fixes groups: ['H']",
    ),
    "non-finite-cost": (
        _set("groups", 0, "items", 1, "cost", math.inf),
        "$.knapsack.groups[0].items[1].cost: expected finite number, got inf",
    ),
}


def test_knapsack_base_document_parses():
    ks = parse_model(knapsack_doc_text(lambda knapsack: None)).knapsack
    assert [item.id for group in ks.groups for item in group] == ["g1", "g2", "h1"]
    assert ks.budgets == (3,)


@pytest.mark.parametrize("case", sorted(BROKEN_KNAPSACKS))
def test_broken_knapsack_is_a_document_error(case):
    edit, diagnostic = BROKEN_KNAPSACKS[case]
    with pytest.raises(DocumentError) as err:
        parse_model(knapsack_doc_text(edit))
    assert err.value.diagnostics == [diagnostic]


@pytest.mark.parametrize("seed", range(12))
def test_generated_documents_always_validate(seed):
    doc_dict = generate_document(seed=seed, children=4, das=4)
    doc = parse_model(json.dumps(doc_dict))
    assert validate_model(doc.model).ok


def test_generator_is_deterministic():
    a = generate_document(seed=7, children=4, das=3)
    b = generate_document(seed=7, children=4, das=3)
    assert a == b
    assert a != generate_document(seed=8, children=4, das=3)


# The digests at the commit that replaced json.dumps in canonical_json:
# a change in the writer's bytes changes them.
PINNED_DIGESTS = {
    "arkticheskoe": "958c8bf5ce052a7a",
    "kruzensternskoe": "2f746d3184dd183d",
    "yamal_region": "339f9ef1b4390720",
    "arkticheskoe_multiset": "7a71d4bf6fe00c12",
}


@pytest.mark.parametrize("name", NAMES)
def test_fixture_digests_are_pinned(name):
    assert model_digest(parse_model(fixture_text(name)).model) == PINNED_DIGESTS[name]


# ---------------------------------------------------------------------------
# canonical_json against json.dumps
# ---------------------------------------------------------------------------


def json_dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def outcome(write, value):
    """The text ``write`` returns, or the type and message it raises."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


any_text = st.text(st.characters(exclude_categories=()))
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | any_text
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(any_text, inner, max_size=4)
    | st.dictionaries(st.integers() | st.floats(), inner, max_size=4)
    | st.dictionaries(st.booleans() | st.none(), inner, max_size=3),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(json_values)
@example("Ямал, Карское море — ü ✓")
@example("nul \x00, line separator \u2028, quote \" and backslash \\")
@example("lone surrogate \ud800")
@example([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
@example({1: "int", 2: "two", -3: "minus"})
@example({1.5: "float", -0.0: "zero", math.inf: "inf", math.nan: "nan"})
@example({True: "t", False: "f"})
@example({None: "null"})
@example({"a": [], "b": {}, "c": [[], [{}]], "d": {"e": {}}})
@example(("tuple", (1, (2,)), ()))
@example({"mixed": [None, True, False, 0, 0.5, "s"]})
def test_canonical_json_matches_json_dumps(value):
    assert outcome(canonical_json, value) == outcome(json_dumps, value)


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 3), {1, 2}, b"bytes", [Fraction(2)], {"k": {"s"}}, {"k": [b"x"]}],
)
def test_canonical_json_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as ours:
        canonical_json(value)
    with pytest.raises(TypeError) as theirs:
        json_dumps(value)
    assert str(ours.value) == str(theirs.value)
    assert "is not JSON serializable" in str(ours.value)
