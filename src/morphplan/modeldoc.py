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
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise DocumentError([f"{path}: expected array, got {type(value).__name__}"])
    return value


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
    except RecursionError:
        raise DocumentError(["malformed JSON: arrays or objects nest too deeply"]) from None
    doc = document_from_dict(raw)
    # Checked once the document is valid, so other diagnostics keep
    # their order. Only an escape or text that is not ASCII can hold a
    # lone surrogate, and a search for one character (not for "\\u")
    # is a memchr, so other text skips the walk at no measurable cost.
    if "\\" in text or not text.isascii():
        _reject_surrogates(raw, "$")
    return doc


# Objects keyed by names from the document; paths write their keys [key].
_NAMED_KEYS = frozenset({"annotations", "priority_overrides", "kernel", "picks"})


def _reject_surrogates(value, path: str, named: bool = False) -> None:
    """Raise at the first string or key holding a lone surrogate: JSON
    lets a ``\\ud800`` escape through, but no UTF-8 output can carry it."""
    if isinstance(value, dict):
        for key, member in value.items():
            _reject_surrogates(key, path)
            member_path = f"{path}[{key}]" if named else f"{path}.{key}"
            _reject_surrogates(member, member_path, key in _NAMED_KEYS)
    elif isinstance(value, list):
        for i, member in enumerate(value):
            _reject_surrogates(member, f"{path}[{i}]")
    elif isinstance(value, str) and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise DocumentError([f"{path}: lone surrogate in {value!r}"]) from None


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
    try:
        scale = OrdinalScale(
            levels=_int(scale_obj["l"], "$.scale.l"),
            max_compat=_int(scale_obj["nu"], "$.scale.nu"),
        )
    except ValueError as exc:
        raise DocumentError([f"$.scale: {exc}"]) from None

    components: dict[str, Component] = {}
    for i, comp_raw in enumerate(_list(top["components"], "$.components")):
        comp = _parse_component(comp_raw, f"$.components[{i}]", scale)
        if comp.id in components:
            raise DocumentError([f"$.components[{i}]: duplicate component id {comp.id!r}"])
        components[comp.id] = comp

    model = MorphModel(
        scale=scale, root=_str(top["root"], "$.root"), components=components
    )
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


def _parse_component(raw, path: str, scale: OrdinalScale) -> Component:
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

    das: list[DesignAlternative] = []
    for j, da_raw in enumerate(_list(obj.get("das", []), f"{path}.das")):
        das.append(_parse_da(da_raw, f"{path}.das[{j}]", scale))
    children = tuple(
        _str(c, f"{path}.children[{j}]")
        for j, c in enumerate(_list(obj.get("children", []), f"{path}.children"))
    )
    if kind == "leaf" and children:
        raise DocumentError([f"{path}: leaf component lists children"])
    if kind == "composite" and not children:
        raise DocumentError([f"{path}: composite component lists no children"])

    compat = None
    if "compat" in obj:
        compat = _parse_compat(obj["compat"], f"{path}.compat")
    overrides: dict[str, int] = {}
    if "priority_overrides" in obj:
        over_raw = obj["priority_overrides"]
        if not isinstance(over_raw, dict):
            raise DocumentError([f"{path}.priority_overrides: expected object"])
        for label, prio in over_raw.items():
            overrides[label] = _int(prio, f"{path}.priority_overrides[{label}]")
    return Component(
        id=cid,
        das=tuple(das),
        children=children,
        compat=compat,
        priority_overrides=overrides,
    )


def _parse_da(raw, path: str, scale: OrdinalScale) -> DesignAlternative:
    obj = _obj(
        raw, path, required={"id", "priority"}, optional={"annotations", "estimate"}
    )
    annotations: dict[str, str] = {}
    if "annotations" in obj:
        ann_raw = obj["annotations"]
        if not isinstance(ann_raw, dict):
            raise DocumentError([f"{path}.annotations: expected object"])
        for k, v in ann_raw.items():
            annotations[k] = _str(v, f"{path}.annotations[{k}]")
    estimate = None
    if "estimate" in obj:
        estimate = tuple(
            _int(c, f"{path}.estimate[{j}]")
            for j, c in enumerate(_list(obj["estimate"], f"{path}.estimate"))
        )
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
    kernel: dict[str, str] = {}
    if "kernel" in obj:
        kernel_raw = obj["kernel"]
        if not isinstance(kernel_raw, dict):
            raise DocumentError([f"{path}.kernel: expected object"])
        for comp, pick in kernel_raw.items():
            kernel[comp] = _str(pick, f"{path}.kernel[{comp}]")
    groups: list[tuple[ChoiceItem, ...]] = []
    for j, group_raw in enumerate(_list(obj["groups"], f"{path}.groups")):
        gpath = f"{path}.groups[{j}]"
        gobj = _obj(group_raw, gpath, required={"id", "items"}, optional=set())
        gid = _str(gobj["id"], f"{gpath}.id")
        items = []
        for k, item_raw in enumerate(_list(gobj["items"], f"{gpath}.items")):
            ipath = f"{gpath}.items[{k}]"
            iobj = _obj(item_raw, ipath, required={"id", "cost", "profit"}, optional=set())
            item_id = _str(iobj["id"], f"{ipath}.id")
            cost = _number(iobj["cost"], f"{ipath}.cost")
            profit = _number(iobj["profit"], f"{ipath}.profit")
            with _knapsack_rule(ipath):
                items.append(ChoiceItem(id=item_id, group=gid, cost=cost, profit=profit))
        if not items:
            raise DocumentError([f"{gpath}.items: group is empty"])
        groups.append(tuple(items))
    with _knapsack_rule(f"{path}.groups"):
        instance = KnapsackInstance(groups=tuple(groups), budget=0)
    with _knapsack_rule(f"{path}.kernel"):
        check_kernel(kernel, instance)
    budgets = []
    for j, b in enumerate(_list(obj.get("budgets", []), f"{path}.budgets")):
        bpath = f"{path}.budgets[{j}]"
        budget = _number(b, bpath)
        with _knapsack_rule(bpath):
            KnapsackInstance(groups=(), budget=budget)  # the budget rule alone
        budgets.append(budget)
    return KnapsackSection(kernel=kernel, groups=instance.groups, budgets=tuple(budgets))


def _parse_options(raw, path: str, model: MorphModel) -> DocumentOptions:
    obj = _obj(raw, path, required=set(), optional={"name", "notes", "expected"})
    name = _str(obj["name"], f"{path}.name") if "name" in obj else None
    notes = tuple(
        _str(n, f"{path}.notes[{j}]")
        for j, n in enumerate(_list(obj.get("notes", []), f"{path}.notes"))
    )
    expected: list[ExpectedSolution] = []
    for j, exp_raw in enumerate(_list(obj.get("expected", []), f"{path}.expected")):
        epath = f"{path}.expected[{j}]"
        eobj = _obj(
            exp_raw,
            epath,
            required={"name", "node", "picks", "quality"},
            optional={"kind", "note"},
        )
        picks_raw = eobj["picks"]
        if not isinstance(picks_raw, dict):
            raise DocumentError([f"{epath}.picks: expected object"])
        picks = {k: _str(v, f"{epath}.picks[{k}]") for k, v in picks_raw.items()}
        qobj = _obj(eobj["quality"], f"{epath}.quality", required={"w", "e"}, optional=set())
        e = tuple(
            _int(c, f"{epath}.quality.e[{k}]")
            for k, c in enumerate(_list(qobj["e"], f"{epath}.quality.e"))
        )
        if len(e) != model.scale.levels:
            raise DocumentError([f"{epath}.quality.e: expected {model.scale.levels} levels"])
        kind = eobj.get("kind", "ordinal")
        if kind not in ("ordinal", "median"):
            raise DocumentError([f"{epath}.kind: expected ordinal|median, got {kind!r}"])
        node = _str(eobj["node"], f"{epath}.node")
        _check_picks(model, node, picks, epath)
        expected.append(
            ExpectedSolution(
                name=_str(eobj["name"], f"{epath}.name"),
                node=node,
                picks=picks,
                w=_int(qobj["w"], f"{epath}.quality.w"),
                e=e,
                kind=kind,
                note=_str(eobj["note"], f"{epath}.note") if "note" in eobj else None,
            )
        )
    return DocumentOptions(name=name, notes=notes, expected=tuple(expected))


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
