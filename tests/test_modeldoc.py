"""Document schema strictness, round-trips, digests, and the generator."""

from __future__ import annotations

import json
import math
import sys
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
    parse_model_file,
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


@pytest.mark.parametrize(
    "damage, diagnostic",
    [
        (lambda data: data[:40] + b"\xff" + data[40:], "malformed UTF-8 at byte 40: invalid start byte"),
        (lambda data: data + "\u00fc".encode()[:1], "malformed UTF-8 at byte {end}: unexpected end of data"),
    ],
    ids=["invalid-byte", "truncated"],
)
def test_undecodable_bytes_are_a_document_error(tmp_path, damage, diagnostic):
    data = fixture_text("arkticheskoe").encode()
    path = tmp_path / "damaged.json"
    path.write_bytes(damage(data))
    with pytest.raises(DocumentError) as err:
        parse_model_file(path)
    assert err.value.diagnostics == [diagnostic.format(end=len(data))]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_file_newlines_are_read_as_in_text_mode(tmp_path, newline):
    path = tmp_path / "broken.json"
    path.write_bytes(newline.join(['{"a": 1,', '  "b": 2', '  "c": 3}']).encode())
    with pytest.raises(DocumentError) as err:
        parse_model_file(path)
    assert err.value.diagnostics == [
        "malformed JSON at line 3, column 3: Expecting ',' delimiter"
    ]


# A lone surrogate appended to one string of a fixture, everywhere it
# appears as a whole JSON string (so ids stay consistent) or only in
# the fragment given, and the path of its first place.
SURROGATES = {
    "name": ("arkticheskoe", "arkticheskoe", "$.options.name"),
    "note": (
        "arkticheskoe",
        json.loads(fixture_text("arkticheskoe"))["options"]["notes"][0],
        "$.options.notes[0]",
    ),
    "root": ("arkticheskoe", "A2", "$.root"),
    "component-id": ("arkticheskoe", "E", "$.components[0].id"),
    "da-id": ("arkticheskoe", "E3", "$.components[0].das[1].id"),
    "annotation": ("arkticheskoe", "appraisal work", "$.components[0].das[0].annotations[action]"),
    "annotation-key": ("arkticheskoe", "action", "$.components[0].das[0].annotations"),
    "override-label": ("arkticheskoe", "E6*F6*G6*J6*I6", "$.components[8].priority_overrides"),
    "expected-name": ("arkticheskoe", "D1", "$.options.expected[0].name"),
    "kernel": ("yamal_region", "A1_1", "$.knapsack.kernel[A1]", '"A1": "A1_1"'),
}


@pytest.mark.parametrize("case", sorted(SURROGATES))
def test_lone_surrogates_are_a_document_error(case):
    name, text, path, *fragment = SURROGATES[case]
    token = fragment[0] if fragment else json.dumps(text)
    document = fixture_text(name).replace(token, token[:-1] + '\\ud800"')
    assert document != fixture_text(name)
    with pytest.raises(DocumentError) as err:
        parse_model(document)
    assert err.value.diagnostics == [f"{path}: lone surrogate in {text + chr(0xD800)!r}"]


def test_surrogate_pairs_and_other_text_parse():
    raw = json.loads(fixture_text("arkticheskoe"))
    raw["options"]["name"] = "Ямал \U0001f600"
    text = json.dumps(raw)
    assert "\\ud83d\\ude00" in text
    assert parse_model(text).options.name == "Ямал \U0001f600"


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
    "cost-not-a-number": (
        _set("groups", 0, "items", 0, "cost", "1"),
        "$.knapsack.groups[0].items[0].cost: expected number, got '1'",
    ),
    "boolean-budget": (
        _set("budgets", [True]),
        "$.knapsack.budgets[0]: expected number, got True",
    ),
    "budgets-not-an-array": (
        _set("budgets", 3),
        "$.knapsack.budgets: expected array, got int",
    ),
    "kernel-not-an-object": (
        _set("kernel", ["A", "a1"]),
        "$.knapsack.kernel: expected object",
    ),
    "kernel-pick-not-a-string": (
        _set("kernel", {"A": 1}),
        "$.knapsack.kernel[A]: expected non-empty string, got 1",
    ),
    "empty-group": (
        _set("groups", 1, "items", []),
        "$.knapsack.groups[1].items: group is empty",
    ),
    "group-unknown-key": (
        _set("groups", 0, "label", "x"),
        "$.knapsack.groups[0]: unknown keys ['label']",
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


# ---------------------------------------------------------------------------
# Diagnostics: one single-fault document per DocumentError site of the
# parser and per validate_model code, with its exact diagnostics
# ---------------------------------------------------------------------------

_DROP = object()


def edit(raw: dict, *steps, value=_DROP) -> dict:
    """A copy of ``raw`` with the member at ``steps`` set to ``value``
    (appended, one past the end of an array), or dropped."""
    raw = json.loads(json.dumps(raw))
    target = raw
    for key in steps[:-1]:
        target = target[key]
    key = steps[-1]
    if value is _DROP:
        del target[key]
    elif isinstance(target, list) and key == len(target):
        target.append(value)
    else:
        target[key] = value
    return raw


ARKTICHESKOE = json.loads(fixture_text("arkticheskoe"))


def _validation(*lines):
    return [f"validation: {line}" for line in lines]


# What int() says of a literal of 5,000 digits; its text differs
# between Python versions.
try:
    int("1" * 5000)
except ValueError as exc:
    DIGIT_LIMIT = str(exc)

# Each document is JSON text or a value to write as JSON.
DIAGNOSTICS = {
    "malformed-json": (
        "{ not json",
        ["malformed JSON at line 1, column 3: Expecting property name enclosed in double quotes"],
    ),
    "nested-too-deeply": (
        "[" * 100_000 + "]" * 100_000,
        ["malformed JSON: arrays or objects nest too deeply"],
    ),
    "integer-past-the-digit-limit": (
        '{"morph_schema": ' + "1" * 5000 + "}",
        [f"malformed JSON: {DIGIT_LIMIT}"],
    ),
    "not-an-object": ([MINIMAL], ["$: expected object, got list"]),
    "missing-key": (edit(MINIMAL, "root"), ["$: missing keys ['root']"]),
    "unknown-key": (edit(MINIMAL, "extra", value=1), ["$: unknown keys ['extra']"]),
    "missing-and-unknown-keys": (
        edit(MINIMAL, "scale", value={"l": 3, "levels": 4}),
        ["$.scale: missing keys ['nu']", "$.scale: unknown keys ['levels']"],
    ),
    "schema-not-an-integer": (
        edit(MINIMAL, "morph_schema", value="1"),
        ["$.morph_schema: expected integer, got '1'"],
    ),
    "schema-version": (
        edit(MINIMAL, "morph_schema", value=2),
        ["$.morph_schema: unsupported version 2"],
    ),
    "scale-not-an-object": (
        edit(MINIMAL, "scale", value=[3, 4]),
        ["$.scale: expected object, got list"],
    ),
    "levels-out-of-range": (
        edit(MINIMAL, "scale", "l", value=0),
        ["$.scale: levels must be in [1, 16]: 0"],
    ),
    "nu-out-of-range": (
        edit(MINIMAL, "scale", "nu", value=17),
        ["$.scale: max_compat must be in [1, 16]: 17"],
    ),
    "levels-not-an-integer": (
        edit(MINIMAL, "scale", "l", value="x"),
        ["$.scale.l: expected integer, got 'x'"],
    ),
    "boolean-levels": (
        edit(MINIMAL, "scale", "l", value=True),
        ["$.scale.l: expected integer, got True"],
    ),
    "float-nu": (
        edit(MINIMAL, "scale", "nu", value=1.5),
        ["$.scale.nu: expected integer, got 1.5"],
    ),
    "root-not-a-string": (
        edit(MINIMAL, "root", value=7),
        ["$.root: expected non-empty string, got 7"],
    ),
    "empty-root": (
        edit(MINIMAL, "root", value=""),
        ["$.root: expected non-empty string, got ''"],
    ),
    "components-not-an-array": (
        edit(MINIMAL, "components", value={}),
        ["$.components: expected array, got dict"],
    ),
    "component-not-an-object": (
        edit(MINIMAL, "components", 0, value="A"),
        ["$.components[0]: expected object, got str"],
    ),
    "component-unknown-key": (
        edit(MINIMAL, "components", 0, "color", value="red"),
        ["$.components[0]: unknown keys ['color']"],
    ),
    "component-id-not-a-string": (
        edit(MINIMAL, "components", 0, "id", value=1),
        ["$.components[0].id: expected non-empty string, got 1"],
    ),
    "unknown-kind": (
        edit(MINIMAL, "components", 0, "kind", value="branch"),
        ["$.components[0].kind: expected leaf|composite, got 'branch'"],
    ),
    "duplicate-component": (
        edit(MINIMAL, "components", 1, "id", value="A"),
        ["$.components[1]: duplicate component id 'A'"],
    ),
    "leaf-lists-children": (
        edit(MINIMAL, "components", 0, "children", value=["B"]),
        ["$.components[0]: leaf component lists children"],
    ),
    "composite-lists-no-children": (
        edit(MINIMAL, "components", 2, "children", value=[]),
        ["$.components[2]: composite component lists no children"],
    ),
    "children-not-an-array": (
        edit(MINIMAL, "components", 2, "children", value="AB"),
        ["$.components[2].children: expected array, got str"],
    ),
    "child-not-a-string": (
        edit(MINIMAL, "components", 2, "children", 1, value=2),
        ["$.components[2].children[1]: expected non-empty string, got 2"],
    ),
    "das-not-an-array": (
        edit(MINIMAL, "components", 0, "das", value={}),
        ["$.components[0].das: expected array, got dict"],
    ),
    "alternative-missing-priority": (
        edit(MINIMAL, "components", 0, "das", 0, "priority"),
        ["$.components[0].das[0]: missing keys ['priority']"],
    ),
    "boolean-priority": (
        edit(MINIMAL, "components", 0, "das", 0, "priority", value=True),
        ["$.components[0].das[0].priority: expected integer, got True"],
    ),
    "annotations-not-an-object": (
        edit(MINIMAL, "components", 0, "das", 0, "annotations", value=["x"]),
        ["$.components[0].das[0].annotations: expected object"],
    ),
    "annotation-not-a-string": (
        edit(MINIMAL, "components", 0, "das", 0, "annotations", value={"note": 1}),
        ["$.components[0].das[0].annotations[note]: expected non-empty string, got 1"],
    ),
    "estimate-not-an-array": (
        edit(MINIMAL, "components", 0, "das", 0, "estimate", value=3),
        ["$.components[0].das[0].estimate: expected array, got int"],
    ),
    "estimate-count-not-an-integer": (
        edit(MINIMAL, "components", 0, "das", 0, "estimate", value=[1, 0.5, 0]),
        ["$.components[0].das[0].estimate[1]: expected integer, got 0.5"],
    ),
    "compat-missing-default": (
        edit(MINIMAL, "components", 2, "compat", "default"),
        ["$.components[2].compat: missing keys ['default']"],
    ),
    "pair-not-an-array": (
        edit(MINIMAL, "components", 2, "compat", "pairs", 0, value="a1"),
        ["$.components[2].compat.pairs[0]: expected array, got str"],
    ),
    "pair-shape": (
        edit(MINIMAL, "components", 2, "compat", "pairs", 0, value=["a1", "b1"]),
        ["$.components[2].compat.pairs[0]: expected [id, id, value]"],
    ),
    "pair-value-not-an-integer": (
        edit(MINIMAL, "components", 2, "compat", "pairs", 0, value=["a1", "b1", "3"]),
        ["$.components[2].compat.pairs[0][2]: expected integer, got '3'"],
    ),
    "conflicting-duplicate-pair": (
        edit(MINIMAL, "components", 2, "compat", "pairs", 1, value=["b1", "a1", 1]),
        ["$.components[2].compat.pairs[1]: conflicting duplicate for pair ('a1', 'b1')"],
    ),
    "overrides-not-an-object": (
        edit(MINIMAL, "components", 2, "priority_overrides", value=[]),
        ["$.components[2].priority_overrides: expected object"],
    ),
    "override-not-an-integer": (
        edit(MINIMAL, "components", 2, "priority_overrides", value={"a1*b1": "1"}),
        ["$.components[2].priority_overrides[a1*b1]: expected integer, got '1'"],
    ),
    # A lone surrogate is reported where it is read, before any check
    # that would write it into a diagnostic.
    "surrogate-override-label": (
        edit(ARKTICHESKOE, "components", 8, "priority_overrides", value={"\ud800": "x"}),
        ["$.components[8].priority_overrides: lone surrogate in '\\ud800'"],
    ),
    "surrogate-ids-that-repeat": (
        edit(
            MINIMAL, "components", 0, "das",
            value=[{"id": "\ud800", "priority": 1}, {"id": "\ud800", "priority": 2}],
        ),
        ["$.components[0].das[0].id: lone surrogate in '\\ud800'"],
    ),
    # validate_model, one row per code.
    "root-missing": (
        edit(MINIMAL, "root", value="Z"),
        _validation(
            "[root-missing] Z: root component is not defined",
            "[unreachable] A: component is not reachable from the root",
            "[unreachable] B: component is not reachable from the root",
            "[unreachable] N: component is not reachable from the root",
        ),
    ),
    "tree-shape": (
        edit(MINIMAL, "components", 2, "children", value=["A", "B", "A"]),
        _validation("[tree-shape] A: reached from both 'N' and 'N'"),
    ),
    "child-missing": (
        edit(MINIMAL, "components", 2, "children", value=["A", "B", "C"]),
        _validation("[child-missing] C: child of 'N' is not defined"),
    ),
    "unreachable": (
        edit(MINIMAL, "components", 3, value={"id": "C", "kind": "leaf", "das": [{"id": "c1", "priority": 1}]}),
        _validation("[unreachable] C: component is not reachable from the root"),
    ),
    "empty-leaf": (
        edit(MINIMAL, "components", 1, "das", value=[]),
        _validation(
            "[empty-leaf] B: leaf component has no alternatives",
            "[compat-reference] N.compat[a1,b1]: 'b1' is not an alternative of any leaf child",
        ),
    ),
    "leaf-compat": (
        edit(MINIMAL, "components", 0, "compat", value={"default": 0, "pairs": []}),
        _validation("[leaf-compat] A: leaf component carries a compatibility table"),
    ),
    "leaf-overrides": (
        edit(MINIMAL, "components", 0, "priority_overrides", value={"a1": 1}),
        _validation("[leaf-overrides] A: leaf component carries priority overrides"),
    ),
    "composite-das": (
        edit(MINIMAL, "components", 2, "das", value=[{"id": "n1", "priority": 1}]),
        _validation("[composite-das] N: composite component carries alternatives"),
    ),
    "bad-id": (
        edit(MINIMAL, "components", 0, "das", 0, "id", value="a*1"),
        _validation(
            "[bad-id] A.a*1: alternative id must be non-empty and free of '*'",
            "[compat-reference] N.compat[a1,b1]: 'a1' is not an alternative of any leaf child",
        ),
    ),
    "duplicate-id": (
        edit(MINIMAL, "components", 0, "das", 1, value={"id": "a1", "priority": 2}),
        _validation("[duplicate-id] A.a1: alternative id repeats within the component"),
    ),
    "priority-range": (
        edit(MINIMAL, "components", 0, "das", 0, "priority", value=4),
        _validation("[priority-range] A.a1: priority 4 out of [1, 3]"),
    ),
    "estimate-shape": (
        edit(MINIMAL, "components", 0, "das", 0, "estimate", value=[1, 0]),
        _validation("[estimate-shape] A.a1: estimate has 2 levels, scale has 3"),
    ),
    "estimate-negative": (
        edit(MINIMAL, "components", 0, "das", 0, "estimate", value=[1, 0, -1]),
        _validation("[estimate-negative] A.a1: estimate counts must be nonnegative"),
    ),
    "override-range": (
        edit(MINIMAL, "components", 2, "priority_overrides", value={"a1*b1": 4}),
        _validation("[override-range] N[a1*b1]: priority 4 out of [1, 3]"),
    ),
    "compat-default-range": (
        edit(MINIMAL, "components", 2, "compat", "default", value=5),
        _validation("[compat-range] N.compat: default 5 out of [0, 4]"),
    ),
    "compat-value-range": (
        edit(MINIMAL, "components", 2, "compat", "pairs", 0, 2, value=5),
        _validation("[compat-range] N.compat[a1,b1]: value 5 out of [0, 4]"),
    ),
    "compat-reference": (
        edit(MINIMAL, "components", 2, "compat", "pairs", 0, 1, value="z1"),
        _validation("[compat-reference] N.compat[a1,z1]: 'z1' is not an alternative of any leaf child"),
    ),
    "compat-intra-child": (
        edit(
            edit(MINIMAL, "components", 0, "das", 1, value={"id": "a2", "priority": 2}),
            "components", 2, "compat", "pairs", 0, 1, value="a2",
        ),
        _validation("[compat-intra-child] N.compat[a1,a2]: both picks belong to child 'A'"),
    ),
    # Options, on a fixture that carries them.
    "options-not-an-object": (
        edit(ARKTICHESKOE, "options", value=[]),
        ["$.options: expected object, got list"],
    ),
    "name-not-a-string": (
        edit(ARKTICHESKOE, "options", "name", value=3),
        ["$.options.name: expected non-empty string, got 3"],
    ),
    "notes-not-an-array": (
        edit(ARKTICHESKOE, "options", "notes", value="x"),
        ["$.options.notes: expected array, got str"],
    ),
    "expected-missing-quality": (
        edit(ARKTICHESKOE, "options", "expected", 0, "quality"),
        ["$.options.expected[0]: missing keys ['quality']"],
    ),
    "picks-not-an-object": (
        edit(ARKTICHESKOE, "options", "expected", 0, "picks", value=[]),
        ["$.options.expected[0].picks: expected object"],
    ),
    "pick-not-a-string": (
        edit(ARKTICHESKOE, "options", "expected", 0, "picks", "P", value=3),
        ["$.options.expected[0].picks[P]: expected non-empty string, got 3"],
    ),
    "expected-levels": (
        edit(ARKTICHESKOE, "options", "expected", 0, "quality", "e", value=[1, 1]),
        ["$.options.expected[0].quality.e: expected 3 levels"],
    ),
    "expected-w-not-an-integer": (
        edit(ARKTICHESKOE, "options", "expected", 0, "quality", "w", value="4"),
        ["$.options.expected[0].quality.w: expected integer, got '4'"],
    ),
    "expected-kind": (
        edit(ARKTICHESKOE, "options", "expected", 0, "kind", value="mean"),
        ["$.options.expected[0].kind: expected ordinal|median, got 'mean'"],
    ),
    "expected-node-is-a-leaf": (
        edit(ARKTICHESKOE, "options", "expected", 0, "node", value="P"),
        ["$.options.expected[0]: 'P' is not a composite component"],
    ),
    "expected-picks-miss-a-child": (
        edit(ARKTICHESKOE, "options", "expected", 0, "picks", "Q"),
        ["$.options.expected[0].picks: expected picks for ['P', 'Q'], got ['P']"],
    ),
    "expected-pick-unknown": (
        edit(ARKTICHESKOE, "options", "expected", 0, "picks", "Q", value="Q9"),
        ["$.options.expected[0].picks[Q]: component Q has no alternative 'Q9'"],
    ),
}


@pytest.mark.parametrize("case", sorted(DIAGNOSTICS))
def test_each_fault_has_its_exact_diagnostics(case):
    document, diagnostics = DIAGNOSTICS[case]
    with pytest.raises(DocumentError) as err:
        parse_model(document if isinstance(document, str) else json.dumps(document))
    assert err.value.diagnostics == diagnostics


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


# ---------------------------------------------------------------------------
# Parser fuzz: DocumentError is the only failure, and output encodes
# ---------------------------------------------------------------------------

fuzz_settings = settings(max_examples=500, deadline=None, derandomize=True, database=None)


def parse_and_serialize(text: str):
    """The parsed document and its serialized text, or None when the
    parser raises a DocumentError. The text must encode as UTF-8, as
    every output of the CLI must; any other exception fails the test."""
    try:
        doc = parse_model(text)
    except DocumentError:
        return None
    serialized = serialize_document(doc)
    serialized.encode("utf-8")
    return doc, serialized


def json_text(value, ascii_only: bool) -> str:
    """``value`` as JSON text, integers longer than int() converts
    included, so that only the parser meets that limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(value, ensure_ascii=ascii_only)
    finally:
        sys.set_int_max_str_digits(limit)


@fuzz_settings
@given(json_values, st.booleans())
@example({**MINIMAL, "options": {"name": "\ud800"}}, True)
@example({**MINIMAL, "morph_schema": 10**4999}, True)
def test_parser_raises_only_document_errors_on_any_json(value, ascii_only):
    parse_and_serialize(json_text(value, ascii_only))


def places(value, path=()):
    """The path of every member of a JSON value, the value itself first."""
    yield path
    if isinstance(value, dict):
        members = value.items()
    elif isinstance(value, list):
        members = enumerate(value)
    else:
        return
    for key, member in members:
        yield from places(member, (*path, key))


@st.composite
def mutated_fixtures(draw):
    """A bundled fixture with one or two members replaced, dropped,
    nudged (text appended, lone surrogates among it, or an integer
    moved by up to 2) or given an extra key."""
    raw = json.loads(fixture_text(draw(st.sampled_from(NAMES))))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(places(raw))))
        if not path:
            continue
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        # Weighted to nudges and drops, which often leave the document
        # valid, so that the round trip runs on a fair share of examples.
        kind = draw(st.sampled_from(["nudge", "nudge", "nudge", "drop", "drop", "replace", "add"]))
        if kind == "drop":
            del parent[key]
        elif kind == "add" and isinstance(value, dict):
            value[draw(any_text)] = draw(scalars)
        elif kind == "nudge" and isinstance(value, str):
            parent[key] = value + draw(st.sampled_from(["\ud800", "\udfff!", "\U0001f600"]) | any_text)
        elif kind == "nudge" and isinstance(value, int) and not isinstance(value, bool):
            parent[key] = value + draw(st.integers(-2, 2))
        else:
            parent[key] = draw(json_values)
    return raw


@fuzz_settings
@given(mutated_fixtures(), st.booleans())
def test_mutated_fixtures_fail_cleanly_or_round_trip(raw, ascii_only):
    parsed = parse_and_serialize(json.dumps(raw, ensure_ascii=ascii_only))
    if parsed is not None:
        doc, text = parsed
        assert model_digest(parse_model(text).model) == model_digest(doc.model)
