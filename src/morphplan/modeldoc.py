"""JSON model documents: parsing, strict schema checks, canonical
serialization, and digests.

Document layout (schema version 1):

    {
      "morph_schema": 1,
      "scale": {"l": 3, "nu": 4},
      "root": "S",
      "components": [
        {"id": "E", "kind": "leaf",
         "das": [{"id": "E3", "priority": 1,
                  "annotations": {...}, "estimate": [3,1,0]}]},
        {"id": "W", "kind": "composite", "children": ["E", "F"],
         "compat": {"default": 0, "pairs": [["E3", "F6", 4]]},
         "priority_overrides": {"E3*F6": 1}}
      ],
      "knapsack": {"kernel": {"A1": "A1_1"},
                   "groups": [{"id": "A2", "items": [
                       {"id": "A2_1", "cost": 4, "profit": 4}]}],
                   "budgets": [9, 10]},
      "options": {"name": "...", "notes": ["..."],
                  "expected": [{"name": "W2", "node": "W",
                                "picks": {"E": "E3", "F": "F6"},
                                "quality": {"w": 2, "e": [5, 0, 0]},
                                "kind": "ordinal", "note": "..."}]}
    }

Unknown keys are rejected everywhere. ``knapsack`` and ``options`` are
optional. Expected entries are reference solutions shipped with a
model; commands recompute them and flag mismatches as warnings instead
of correcting the inputs.

The parser raises only ``DocumentError``, whose diagnostics name the
``$`` path of the first fault it reads. Arrays are read through
``_items`` and objects keyed by document names through ``_map``, which
write those paths; a string or key holding a lone surrogate is
rejected where it is read, so no diagnostic or output carries one.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .knapsack import ChoiceItem, KnapsackError, KnapsackInstance, check_kernel
from .model import (
    CompatibilityTable,
    Component,
    DesignAlternative,
    MorphError,
    MorphModel,
    OrdinalScale,
    validate_model,
)

SCHEMA_VERSION = 1


class DocumentError(MorphError, ValueError):
    """The document failed to parse or validate; diagnostics carry the
    offending JSON paths (or line/column for malformed JSON)."""

    def __init__(self, diagnostics: Sequence[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


@dataclass(frozen=True)
class ExpectedSolution:
    """A reference solution shipped with a fixture: named picks plus
    the quality the source material reports for them."""

    name: str
    node: str
    picks: Mapping[str, str]
    w: int
    e: tuple[int, ...]
    kind: str = "ordinal"  # ordinal | median
    note: str | None = None


@dataclass(frozen=True)
class KnapsackSection:
    """Extension data: fixed kernel picks, item groups, trial budgets."""

    kernel: Mapping[str, str]
    groups: tuple[tuple[ChoiceItem, ...], ...]
    budgets: tuple[Any, ...]

    def instance(self, budget) -> KnapsackInstance:
        return KnapsackInstance(groups=self.groups, budget=budget)


@dataclass(frozen=True)
class DocumentOptions:
    name: str | None = None
    notes: tuple[str, ...] = ()
    expected: tuple[ExpectedSolution, ...] = ()


@dataclass(frozen=True)
class ModelDocument:
    model: MorphModel
    knapsack: KnapsackSection | None = None
    options: DocumentOptions = field(default_factory=DocumentOptions)


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def _obj(value, path: str, required: set[str], optional: set[str]) -> dict:
    if not isinstance(value, dict):
        raise DocumentError([f"{path}: expected object, got {type(value).__name__}"])
    missing = required - set(value)
    unknown = set(value) - required - optional
    problems = []
    if missing:
        problems.append(f"{path}: missing keys {sorted(missing)}")
    if unknown:
        problems.append(f"{path}: unknown keys {sorted(unknown)}")
    if problems:
        raise DocumentError(problems)
    return value


def _int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError([f"{path}: expected integer, got {value!r}"])
    return value


def _str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise DocumentError([f"{path}: expected non-empty string, got {value!r}"])
    if not value.isascii():
        _check_utf8(value, path)
    return value


def _check_utf8(text: str, path: str) -> None:
    """Reject a lone surrogate: JSON lets a ``\\ud800`` escape through,
    but no UTF-8 output, a diagnostic included, can carry it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise DocumentError([f"{path}: lone surrogate in {text!r}"]) from None


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise DocumentError([f"{path}: expected array, got {type(value).__name__}"])
    return value


def _items(value, path: str, item) -> tuple:
    """An array read member by member: ``item(member, f"{path}[{j}]")``."""
    return tuple([item(member, f"{path}[{j}]") for j, member in enumerate(_list(value, path))])


def _map(value, path: str, item) -> dict:
    """An object keyed by names from the document, each member read by
    ``item(member, f"{path}[{key}]")``; a key is checked before it is
    written into a path."""
    if not isinstance(value, dict):
        raise DocumentError([f"{path}: expected object"])
    out = {}
    for key, member in value.items():
        if not key.isascii():
            _check_utf8(key, path)
        out[key] = item(member, f"{path}[{key}]")
    return out


def _number(value, path: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError([f"{path}: expected number, got {value!r}"])
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DocumentError([f"{path}: expected finite number, got {value!r}"])
        return Fraction(str(value))
    return value


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_model(text: str) -> ModelDocument:
    """Parse and fully validate a JSON model document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            [f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from None
    except ValueError as exc:
        # An integer literal longer than int() converts.
        raise DocumentError([f"malformed JSON: {exc}"]) from None
    except RecursionError:
        raise DocumentError(["malformed JSON: arrays or objects nest too deeply"]) from None
    return document_from_dict(raw)


def parse_model_file(path) -> ModelDocument:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError([f"malformed UTF-8 at byte {exc.start}: {exc.reason}"]) from None
    if "\r" in text:
        # Universal newlines, as a file opened in text mode reads: the line
        # numbers of malformed-JSON diagnostics count a lone CR as a break.
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_model(text)


def document_from_dict(raw) -> ModelDocument:
    top = _obj(
        raw,
        "$",
        required={"morph_schema", "scale", "root", "components"},
        optional={"knapsack", "options"},
    )
    version = _int(top["morph_schema"], "$.morph_schema")
    if version != SCHEMA_VERSION:
        raise DocumentError([f"$.morph_schema: unsupported version {version}"])

    scale_obj = _obj(top["scale"], "$.scale", required={"l", "nu"}, optional=set())
    levels = _int(scale_obj["l"], "$.scale.l")
    max_compat = _int(scale_obj["nu"], "$.scale.nu")
    try:
        scale = OrdinalScale(levels=levels, max_compat=max_compat)
    except ValueError as exc:
        raise DocumentError([f"$.scale: {exc}"]) from None
    root = _str(top["root"], "$.root")

    components: dict[str, Component] = {}

    def component(raw, path: str) -> None:
        comp = _parse_component(raw, path)
        if comp.id in components:
            raise DocumentError([f"{path}: duplicate component id {comp.id!r}"])
        components[comp.id] = comp

    _items(top["components"], "$.components", component)
    model = MorphModel(scale=scale, root=root, components=components)
    report = validate_model(model)
    if not report.ok:
        raise DocumentError([f"validation: {line}" for line in report.lines()])

    knapsack = None
    if "knapsack" in top:
        knapsack = _parse_knapsack(top["knapsack"], "$.knapsack")
    options = DocumentOptions()
    if "options" in top:
        options = _parse_options(top["options"], "$.options", model)
    return ModelDocument(model=model, knapsack=knapsack, options=options)


def _parse_component(raw, path: str) -> Component:
    obj = _obj(
        raw,
        path,
        required={"id", "kind"},
        optional={"das", "children", "compat", "priority_overrides"},
    )
    cid = _str(obj["id"], f"{path}.id")
    kind = _str(obj["kind"], f"{path}.kind")
    if kind not in ("leaf", "composite"):
        raise DocumentError([f"{path}.kind: expected leaf|composite, got {kind!r}"])

    das = _items(obj.get("das", []), f"{path}.das", _parse_da)
    children = _items(obj.get("children", []), f"{path}.children", _str)
    if kind == "leaf" and children:
        raise DocumentError([f"{path}: leaf component lists children"])
    if kind == "composite" and not children:
        raise DocumentError([f"{path}: composite component lists no children"])

    compat = None
    if "compat" in obj:
        compat = _parse_compat(obj["compat"], f"{path}.compat")
    overrides = {}
    if "priority_overrides" in obj:
        overrides = _map(obj["priority_overrides"], f"{path}.priority_overrides", _int)
    return Component(
        id=cid,
        das=das,
        children=children,
        compat=compat,
        priority_overrides=overrides,
    )


def _parse_da(raw, path: str) -> DesignAlternative:
    obj = _obj(
        raw, path, required={"id", "priority"}, optional={"annotations", "estimate"}
    )
    annotations = {}
    if "annotations" in obj:
        annotations = _map(obj["annotations"], f"{path}.annotations", _str)
    estimate = None
    if "estimate" in obj:
        estimate = _items(obj["estimate"], f"{path}.estimate", _int)
    return DesignAlternative(
        id=_str(obj["id"], f"{path}.id"),
        priority=_int(obj["priority"], f"{path}.priority"),
        annotations=annotations,
        estimate=estimate,
    )


def _parse_compat(raw, path: str) -> CompatibilityTable:
    obj = _obj(raw, path, required={"default", "pairs"}, optional=set())
    default = _int(obj["default"], f"{path}.default")
    entries: dict[tuple[str, str], int] = {}
    for j, pair_raw in enumerate(_list(obj["pairs"], f"{path}.pairs")):
        ppath = f"{path}.pairs[{j}]"
        pair = _list(pair_raw, ppath)
        if len(pair) != 3:
            raise DocumentError([f"{ppath}: expected [id, id, value]"])
        a = _str(pair[0], f"{ppath}[0]")
        b = _str(pair[1], f"{ppath}[1]")
        value = _int(pair[2], f"{ppath}[2]")
        key = CompatibilityTable.key(a, b)
        if key in entries and entries[key] != value:
            raise DocumentError([f"{ppath}: conflicting duplicate for pair {key}"])
        entries[key] = value
    return CompatibilityTable(default=default, entries=entries)


@contextmanager
def _knapsack_rule(path: str):
    """Report a broken knapsack rule as a diagnostic at ``path``."""
    try:
        yield
    except KnapsackError as exc:
        raise DocumentError([f"{path}: {exc}"]) from None


def _parse_knapsack(raw, path: str) -> KnapsackSection:
    obj = _obj(raw, path, required={"groups"}, optional={"kernel", "budgets"})
    kernel = {}
    if "kernel" in obj:
        kernel = _map(obj["kernel"], f"{path}.kernel", _str)
    groups = _items(obj["groups"], f"{path}.groups", _parse_group)
    with _knapsack_rule(f"{path}.groups"):
        instance = KnapsackInstance(groups=groups, budget=0)
    with _knapsack_rule(f"{path}.kernel"):
        check_kernel(kernel, instance)
    budgets = _items(obj.get("budgets", []), f"{path}.budgets", _parse_budget)
    return KnapsackSection(kernel=kernel, groups=instance.groups, budgets=budgets)


def _parse_group(raw, path: str) -> tuple[ChoiceItem, ...]:
    obj = _obj(raw, path, required={"id", "items"}, optional=set())
    gid = _str(obj["id"], f"{path}.id")

    def item(raw, ipath: str) -> ChoiceItem:
        iobj = _obj(raw, ipath, required={"id", "cost", "profit"}, optional=set())
        item_id = _str(iobj["id"], f"{ipath}.id")
        cost = _number(iobj["cost"], f"{ipath}.cost")
        profit = _number(iobj["profit"], f"{ipath}.profit")
        with _knapsack_rule(ipath):
            return ChoiceItem(id=item_id, group=gid, cost=cost, profit=profit)

    items = _items(obj["items"], f"{path}.items", item)
    if not items:
        raise DocumentError([f"{path}.items: group is empty"])
    return items


def _parse_budget(raw, path: str):
    budget = _number(raw, path)
    with _knapsack_rule(path):
        KnapsackInstance(groups=(), budget=budget)  # the budget rule alone
    return budget


def _parse_options(raw, path: str, model: MorphModel) -> DocumentOptions:
    obj = _obj(raw, path, required=set(), optional={"name", "notes", "expected"})
    name = _str(obj["name"], f"{path}.name") if "name" in obj else None
    notes = _items(obj.get("notes", []), f"{path}.notes", _str)
    expected = _items(
        obj.get("expected", []),
        f"{path}.expected",
        lambda raw, epath: _parse_expected(raw, epath, model),
    )
    return DocumentOptions(name=name, notes=notes, expected=expected)


def _parse_expected(raw, path: str, model: MorphModel) -> ExpectedSolution:
    obj = _obj(
        raw,
        path,
        required={"name", "node", "picks", "quality"},
        optional={"kind", "note"},
    )
    picks = _map(obj["picks"], f"{path}.picks", _str)
    qobj = _obj(obj["quality"], f"{path}.quality", required={"w", "e"}, optional=set())
    e = _items(qobj["e"], f"{path}.quality.e", _int)
    if len(e) != model.scale.levels:
        raise DocumentError([f"{path}.quality.e: expected {model.scale.levels} levels"])
    kind = obj.get("kind", "ordinal")
    if kind not in ("ordinal", "median"):
        raise DocumentError([f"{path}.kind: expected ordinal|median, got {kind!r}"])
    node = _str(obj["node"], f"{path}.node")
    _check_picks(model, node, picks, path)
    return ExpectedSolution(
        name=_str(obj["name"], f"{path}.name"),
        node=node,
        picks=picks,
        w=_int(qobj["w"], f"{path}.quality.w"),
        e=e,
        kind=kind,
        note=_str(obj["note"], f"{path}.note") if "note" in obj else None,
    )


def _check_picks(model: MorphModel, node: str, picks: Mapping[str, str], path: str) -> None:
    """An expected entry names a composite node and one alternative of
    each of its children."""
    comp = model.components.get(node)
    if comp is None or comp.is_leaf:
        raise DocumentError([f"{path}: {node!r} is not a composite component"])
    if set(picks) != set(comp.children):
        raise DocumentError(
            [f"{path}.picks: expected picks for {sorted(comp.children)}, got {sorted(picks)}"]
        )
    for child_id, pick in picks.items():
        if pick not in {da.id for da in model.components[child_id].das}:
            raise DocumentError(
                [f"{path}.picks[{child_id}]: component {child_id} has no alternative {pick!r}"]
            )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def number_out(value):
    """A parsed number in JSON form: a whole Fraction as an int, any
    other Fraction as a float."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return float(value)
    return value


def document_to_dict(doc: ModelDocument) -> dict:
    """Rebuild the JSON form of a document. Round-trips: parsing the
    output yields an identical model digest."""
    model = doc.model
    out: dict[str, Any] = {
        "morph_schema": SCHEMA_VERSION,
        "scale": {"l": model.scale.levels, "nu": model.scale.max_compat},
        "root": model.root,
        "components": [
            _component_to_dict(comp) for comp in sorted(model.components.values(), key=lambda c: c.id)
        ],
    }
    if doc.knapsack is not None:
        ks = doc.knapsack
        out["knapsack"] = {
            "kernel": dict(ks.kernel),
            "groups": [
                {
                    "id": group[0].group,
                    "items": [
                        {
                            "id": item.id,
                            "cost": number_out(item.cost),
                            "profit": number_out(item.profit),
                        }
                        for item in group
                    ],
                }
                for group in ks.groups
            ],
            "budgets": [number_out(b) for b in ks.budgets],
        }
    opts = doc.options
    if opts.name or opts.notes or opts.expected:
        oout: dict[str, Any] = {}
        if opts.name:
            oout["name"] = opts.name
        if opts.notes:
            oout["notes"] = list(opts.notes)
        if opts.expected:
            oout["expected"] = [
                {
                    "name": exp.name,
                    "node": exp.node,
                    "picks": dict(exp.picks),
                    "quality": {"w": exp.w, "e": list(exp.e)},
                    **({"kind": exp.kind} if exp.kind != "ordinal" else {}),
                    **({"note": exp.note} if exp.note else {}),
                }
                for exp in opts.expected
            ]
        out["options"] = oout
    return out


def _component_to_dict(comp: Component) -> dict:
    out: dict[str, Any] = {"id": comp.id, "kind": "leaf" if comp.is_leaf else "composite"}
    if comp.das:
        das = []
        for da in comp.das:
            dout: dict[str, Any] = {"id": da.id, "priority": da.priority}
            if da.annotations:
                dout["annotations"] = dict(da.annotations)
            if da.estimate is not None:
                dout["estimate"] = list(da.estimate)
            das.append(dout)
        out["das"] = das
    if comp.children:
        out["children"] = list(comp.children)
    if comp.compat is not None:
        out["compat"] = {
            "default": comp.compat.default,
            "pairs": [
                [a, b, value]
                for (a, b), value in sorted(comp.compat.entries.items())
            ],
        }
    if comp.priority_overrides:
        out["priority_overrides"] = dict(comp.priority_overrides)
    return out


def serialize_document(doc: ModelDocument) -> str:
    return canonical_json(document_to_dict(doc))


def canonical_json(data) -> str:
    """The bytes of ``json.dumps(data, indent=2, sort_keys=True,
    ensure_ascii=False) + "\\n"``, written by one recursive pass into a
    list: with an indent, json falls back to its generator encoder,
    which costs about twice as much."""
    out: list[str] = []
    _write_json(data, out, "\n")
    out.append("\n")
    return "".join(out)


_json_str = json.encoder.encode_basestring


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _json_key(key) -> str:
    # json's conversions of a key that is not a str, in its order.
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_json(value, out: list[str], newline: str) -> None:
    """Append ``value`` to ``out``; ``newline`` starts a line at the
    value's own depth. Plain str and int members, most of a document,
    are written in place rather than by a call."""
    if isinstance(value, str):
        out.append(_json_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            sep = comma
            kind = type(item)
            if kind is str:
                out.append(_json_str(item))
            elif kind is int:
                out.append(int.__repr__(item))
            else:
                _write_json(item, out, inner)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            out.append(sep)
            sep = comma
            out.append(_json_str(key if isinstance(key, str) else _json_key(key)))
            out.append(": ")
            kind = type(item)
            if kind is str:
                out.append(_json_str(item))
            elif kind is int:
                out.append(int.__repr__(item))
            else:
                _write_json(item, out, inner)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def model_digest(model: MorphModel) -> str:
    """Stable content hash of the model portion alone."""
    doc = ModelDocument(model=model)
    payload = canonical_json(document_to_dict(doc))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
