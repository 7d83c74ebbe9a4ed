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
``$`` path of the first fault it reads. A path is written on the way
out, and only for a fault: a reader raises a private ``_Fault`` whose
path is relative to the value it was given, and each reader the fault
passes out of prepends its own step. ``_items`` adds the index
``[j]``, ``_map`` the key ``[key]`` and a field read its ``.name``, so
a document without faults formats no path at all. A string or key
holding a lone surrogate is rejected where it is read, so no
diagnostic or output carries one.

A document's canonical text (``serialize_document``, and the model
part of it that ``model_digest`` hashes) is written straight from the
document in the schema's key order, byte for byte what
``canonical_json`` would write for its JSON form. ``canonical_json``
itself writes reports and ``gen`` output.
"""

from __future__ import annotations

import hashlib
import json
import math
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


class _Fault(Exception):
    """A fault a reader found. ``where`` is its path relative to the
    value that reader was given; each reader the fault passes out of
    prepends its own step, and ``document_from_dict`` adds the ``$``."""

    def __init__(self, where: str, *problems: str):
        self.where = where
        self.problems = problems


def _at(step: str, read, *args, **kwargs):
    """``read(*args, **kwargs)``, with ``step`` prepended to the path of
    a fault; a broken knapsack rule is a fault at ``step``."""
    try:
        return read(*args, **kwargs)
    except _Fault as fault:
        fault.where = step + fault.where
        raise
    except KnapsackError as exc:
        raise _Fault(step, str(exc)) from None


def _obj(value, step: str, required: set[str], optional: set[str]) -> dict:
    if type(value) is not dict:
        raise _Fault(step, f"expected object, got {type(value).__name__}")
    keys = value.keys()
    if required <= keys and keys - required <= optional:
        return value
    missing = required - keys
    unknown = keys - required - optional
    problems = []
    if missing:
        problems.append(f"missing keys {sorted(missing)}")
    if unknown:
        problems.append(f"unknown keys {sorted(unknown)}")
    raise _Fault(step, *problems)


def _int(value, step: str = "") -> int:
    if type(value) is not int:
        raise _Fault(step, f"expected integer, got {value!r}")
    return value


def _str(value, step: str = "") -> str:
    if type(value) is not str or not value:
        raise _Fault(step, f"expected non-empty string, got {value!r}")
    if not value.isascii():
        _check_utf8(value, step)
    return value


def _check_utf8(text: str, step: str) -> None:
    """Reject a lone surrogate: JSON lets a ``\\ud800`` escape through,
    but no UTF-8 output, a diagnostic included, can carry it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise _Fault(step, f"lone surrogate in {text!r}") from None


def _list(value, step: str = "") -> list:
    if type(value) is not list:
        raise _Fault(step, f"expected array, got {type(value).__name__}")
    return value


def _items(value, step: str, item) -> tuple:
    """An array read member by member with ``item(member)``; a fault in
    member j gets the step ``[j]``."""
    members = _list(value, step)
    out = []
    try:
        for member in members:
            out.append(item(member))
    except _Fault as fault:
        fault.where = f"{step}[{len(out)}]{fault.where}"
        raise
    return tuple(out)


def _map(value, step: str, item) -> dict:
    """An object keyed by names from the document, each member read by
    ``item(member)``; a key is checked before a fault of its member
    writes it into a path as the step ``[key]``."""
    if type(value) is not dict:
        raise _Fault(step, "expected object")
    out = {}
    for key, member in value.items():
        if not key.isascii():
            _check_utf8(key, step)
        try:
            out[key] = item(member)
        except _Fault as fault:
            fault.where = f"{step}[{key}]{fault.where}"
            raise
    return out


def _number(value, step: str = ""):
    kind = type(value)
    if kind is int:
        return value
    if kind is not float:
        raise _Fault(step, f"expected number, got {value!r}")
    if not math.isfinite(value):
        raise _Fault(step, f"expected finite number, got {value!r}")
    return Fraction(str(value))


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
    """The document that ``json.loads`` output describes. Its readers
    test exact types (``type(v) is int``), so ``raw`` must hold only
    what ``json.loads`` builds: dict, list, str, int, float, bool and
    None, no subclasses."""
    try:
        return _parse_document(raw)
    except _Fault as fault:
        raise DocumentError([f"${fault.where}: {problem}" for problem in fault.problems]) from None


def _parse_document(raw) -> ModelDocument:
    top = _obj(
        raw,
        "",
        required={"morph_schema", "scale", "root", "components"},
        optional={"knapsack", "options"},
    )
    version = _int(top["morph_schema"], ".morph_schema")
    if version != SCHEMA_VERSION:
        raise _Fault(".morph_schema", f"unsupported version {version}")

    scale_obj = _obj(top["scale"], ".scale", required={"l", "nu"}, optional=set())
    levels = _int(scale_obj["l"], ".scale.l")
    max_compat = _int(scale_obj["nu"], ".scale.nu")
    try:
        scale = OrdinalScale(levels=levels, max_compat=max_compat)
    except ValueError as exc:
        raise _Fault(".scale", str(exc)) from None
    root = _str(top["root"], ".root")

    components: dict[str, Component] = {}

    def component(raw) -> None:
        comp = _parse_component(raw)
        if comp.id in components:
            raise _Fault("", f"duplicate component id {comp.id!r}")
        components[comp.id] = comp

    _items(top["components"], ".components", component)
    model = MorphModel(scale=scale, root=root, components=components)
    report = validate_model(model)
    if not report.ok:
        raise DocumentError([f"validation: {line}" for line in report.lines()])

    knapsack = None
    if "knapsack" in top:
        knapsack = _at(".knapsack", _parse_knapsack, top["knapsack"])
    options = DocumentOptions()
    if "options" in top:
        options = _at(".options", _parse_options, top["options"], model)
    return ModelDocument(model=model, knapsack=knapsack, options=options)


def _parse_component(raw) -> Component:
    obj = _obj(
        raw,
        "",
        required={"id", "kind"},
        optional={"das", "children", "compat", "priority_overrides"},
    )
    cid = _str(obj["id"], ".id")
    kind = _str(obj["kind"], ".kind")
    if kind not in ("leaf", "composite"):
        raise _Fault(".kind", f"expected leaf|composite, got {kind!r}")

    das = _items(obj.get("das", []), ".das", _parse_da)
    children = _items(obj.get("children", []), ".children", _str)
    if kind == "leaf" and children:
        raise _Fault("", "leaf component lists children")
    if kind == "composite" and not children:
        raise _Fault("", "composite component lists no children")

    compat = None
    if "compat" in obj:
        compat = _at(".compat", _parse_compat, obj["compat"])
    overrides = {}
    if "priority_overrides" in obj:
        overrides = _map(obj["priority_overrides"], ".priority_overrides", _int)
    return Component(
        id=cid,
        das=das,
        children=children,
        compat=compat,
        priority_overrides=overrides,
    )


def _parse_da(raw) -> DesignAlternative:
    obj = _obj(raw, "", required={"id", "priority"}, optional={"annotations", "estimate"})
    annotations = {}
    if "annotations" in obj:
        annotations = _map(obj["annotations"], ".annotations", _str)
    estimate = None
    if "estimate" in obj:
        estimate = _items(obj["estimate"], ".estimate", _int)
    return DesignAlternative(
        id=_str(obj["id"], ".id"),
        priority=_int(obj["priority"], ".priority"),
        annotations=annotations,
        estimate=estimate,
    )


def _parse_compat(raw) -> CompatibilityTable:
    obj = _obj(raw, "", required={"default", "pairs"}, optional=set())
    default = _int(obj["default"], ".default")
    pairs = _list(obj["pairs"], ".pairs")
    entries: dict[tuple[str, str], int] = {}
    try:
        for j, pair in enumerate(pairs):
            if len(_list(pair)) != 3:
                raise _Fault("", "expected [id, id, value]")
            a = _str(pair[0], "[0]")
            b = _str(pair[1], "[1]")
            value = _int(pair[2], "[2]")
            key = CompatibilityTable.key(a, b)
            if entries.setdefault(key, value) != value:
                raise _Fault("", f"conflicting duplicate for pair {key}")
    except _Fault as fault:
        fault.where = f".pairs[{j}]{fault.where}"
        raise
    return CompatibilityTable(default=default, entries=entries)


def _parse_knapsack(raw) -> KnapsackSection:
    obj = _obj(raw, "", required={"groups"}, optional={"kernel", "budgets"})
    kernel = {}
    if "kernel" in obj:
        kernel = _map(obj["kernel"], ".kernel", _str)
    groups = _items(obj["groups"], ".groups", _parse_group)
    instance = _at(".groups", KnapsackInstance, groups=groups, budget=0)
    _at(".kernel", check_kernel, kernel, instance)
    budgets = _items(obj.get("budgets", []), ".budgets", _parse_budget)
    return KnapsackSection(kernel=kernel, groups=instance.groups, budgets=budgets)


def _parse_group(raw) -> tuple[ChoiceItem, ...]:
    obj = _obj(raw, "", required={"id", "items"}, optional=set())
    gid = _str(obj["id"], ".id")

    def item(raw) -> ChoiceItem:
        iobj = _obj(raw, "", required={"id", "cost", "profit"}, optional=set())
        item_id = _str(iobj["id"], ".id")
        cost = _number(iobj["cost"], ".cost")
        profit = _number(iobj["profit"], ".profit")
        return _at("", ChoiceItem, id=item_id, group=gid, cost=cost, profit=profit)

    items = _items(obj["items"], ".items", item)
    if not items:
        raise _Fault(".items", "group is empty")
    return items


def _parse_budget(raw):
    budget = _number(raw)
    _at("", KnapsackInstance, groups=(), budget=budget)  # the budget rule alone
    return budget


def _parse_options(raw, model: MorphModel) -> DocumentOptions:
    obj = _obj(raw, "", required=set(), optional={"name", "notes", "expected"})
    name = _str(obj["name"], ".name") if "name" in obj else None
    notes = _items(obj.get("notes", []), ".notes", _str)
    expected = _items(
        obj.get("expected", []), ".expected", lambda raw: _parse_expected(raw, model)
    )
    return DocumentOptions(name=name, notes=notes, expected=expected)


def _parse_expected(raw, model: MorphModel) -> ExpectedSolution:
    obj = _obj(
        raw,
        "",
        required={"name", "node", "picks", "quality"},
        optional={"kind", "note"},
    )
    picks = _map(obj["picks"], ".picks", _str)
    qobj = _obj(obj["quality"], ".quality", required={"w", "e"}, optional=set())
    e = _items(qobj["e"], ".quality.e", _int)
    if len(e) != model.scale.levels:
        raise _Fault(".quality.e", f"expected {model.scale.levels} levels")
    kind = obj.get("kind", "ordinal")
    if kind not in ("ordinal", "median"):
        raise _Fault(".kind", f"expected ordinal|median, got {kind!r}")
    node = _str(obj["node"], ".node")
    _check_picks(model, node, picks)
    return ExpectedSolution(
        name=_str(obj["name"], ".name"),
        node=node,
        picks=picks,
        w=_int(qobj["w"], ".quality.w"),
        e=e,
        kind=kind,
        note=_str(obj["note"], ".note") if "note" in obj else None,
    )


def _check_picks(model: MorphModel, node: str, picks: Mapping[str, str]) -> None:
    """An expected entry names a composite node and one alternative of
    each of its children."""
    comp = model.components.get(node)
    if comp is None or comp.is_leaf:
        raise _Fault("", f"{node!r} is not a composite component")
    if set(picks) != set(comp.children):
        raise _Fault(
            ".picks", f"expected picks for {sorted(comp.children)}, got {sorted(picks)}"
        )
    for child_id, pick in picks.items():
        if pick not in {da.id for da in model.components[child_id].das}:
            raise _Fault(
                f".picks[{child_id}]", f"component {child_id} has no alternative {pick!r}"
            )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def number_out(value):
    """A parsed number in JSON form: a whole Fraction as an int, any
    other Fraction as a float. A non-whole Fraction beyond the float
    range is a ValueError, which the CLI reports as a usage error."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        try:
            return float(value)
        except OverflowError:
            raise ValueError("non-whole number too large to write as a float") from None
    return value


# The canonical text's line start at each depth (two spaces a level),
# and the separator between members at each depth.
_D1, _D2, _D3, _D4, _D5, _D6 = ("\n" + "  " * depth for depth in range(1, 7))
_S2, _S3, _S4, _S5, _S6 = ("," + line for line in (_D2, _D3, _D4, _D5, _D6))


def serialize_document(doc: ModelDocument) -> str:
    """The canonical text of a document: the bytes ``canonical_json``
    writes for its JSON form, written in one pass from the document.
    The key order of each schema object is fixed here, and only the
    maps keyed by the document's own names are sorted as they are
    written: components by id, pairs by key, annotations and priority
    overrides. The small ``knapsack`` and ``options`` sections go
    through ``canonical_json``'s writer. Parsing the text yields an
    identical model digest.

    The model must hold the exact types the parser builds: str ids,
    labels and annotation texts, and int priorities, estimate counts,
    compatibility values and scale. Any other value, a bool or a str
    subclass included, is a TypeError."""
    model = doc.model
    comps = sorted(model.components.values(), key=lambda c: c.id)
    listed = f"[{_D2}{_S2.join(map(_component_text, comps))}{_D1}]" if comps else "[]"
    out = ['{\n  "components": ', listed]
    if doc.knapsack is not None:
        ks = doc.knapsack
        section = {
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
        out.append(',\n  "knapsack": ')
        _write_json(section, out, _D1)
    out.append(f',\n  "morph_schema": {SCHEMA_VERSION}')
    opts = doc.options
    if opts.name or opts.notes or opts.expected:
        section = {}
        if opts.name:
            section["name"] = opts.name
        if opts.notes:
            section["notes"] = list(opts.notes)
        if opts.expected:
            section["expected"] = [
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
        out.append(',\n  "options": ')
        _write_json(section, out, _D1)
    levels, nu = _digits(model.scale.levels), _digits(model.scale.max_compat)
    out.append(f',\n  "root": {_quoted(model.root)},\n  "scale": {{\n    "l": {levels},\n    "nu": {nu}\n  }}\n}}\n')
    return "".join(out)


def _component_text(comp: Component) -> str:
    """A component as a member of ``components``, at depth 2."""
    members = []
    if comp.children:
        members.append(f'"children": [{_D4}{_S4.join(map(_quoted, comp.children))}{_D3}]')
    table = comp.compat
    if table is not None:
        pairs = []
        for (a, b), value in sorted(table.entries.items()):
            if type(a) is not str or type(b) is not str or type(value) is not int:
                _refuse("str, str, int", a, b, value)
            pairs.append(f"[{_D6}{_json_str(a)},{_D6}{_json_str(b)},{_D6}{value}{_D5}]")
        listed = f"[{_D5}{_S5.join(pairs)}{_D4}]" if pairs else "[]"
        default = _digits(table.default)
        members.append(f'"compat": {{{_D4}"default": {default},{_D4}"pairs": {listed}{_D3}}}')
    if comp.das:
        members.append(f'"das": [{_D4}{_S4.join(map(_da_text, comp.das))}{_D3}]')
    members.append(f'"id": {_quoted(comp.id)}')
    members.append('"kind": "leaf"' if comp.is_leaf else '"kind": "composite"')
    if comp.priority_overrides:
        overrides = sorted(comp.priority_overrides.items())
        lines = _S4.join(f"{_quoted(label)}: {_digits(value)}" for label, value in overrides)
        members.append(f'"priority_overrides": {{{_D4}{lines}{_D3}}}')
    return f"{{{_D3}{_S3.join(members)}{_D2}}}"


def _da_text(da: DesignAlternative) -> str:
    """An alternative as a member of ``das``, at depth 4."""
    did, priority = da.id, da.priority
    if type(did) is not str or type(priority) is not int:
        _refuse("str, int", did, priority)
    text = f'"id": {_json_str(did)},{_D5}"priority": {priority}{_D4}}}'
    if da.estimate is not None:
        counts = f"[{_D6}{_S6.join(map(_digits, da.estimate))}{_D5}]" if da.estimate else "[]"
        text = f'"estimate": {counts}{_S5}{text}'
    if da.annotations:
        notes = sorted(da.annotations.items())
        lines = _S6.join(f"{_quoted(key)}: {_quoted(note)}" for key, note in notes)
        text = f'"annotations": {{{_D6}{lines}{_D5}}}{_S5}{text}'
    return f"{{{_D5}{text}"


def _quoted(value) -> str:
    if type(value) is not str:
        _refuse("str", value)
    return _json_str(value)


def _digits(value) -> str:
    if type(value) is not int:
        _refuse("int", value)
    return int.__repr__(value)


def _refuse(expected: str, *values):
    got = ", ".join(type(value).__name__ for value in values)
    raise TypeError(f"a model value of the wrong type: expected {expected}, got {got}")


def canonical_json(data) -> str:
    """The bytes of ``json.dumps(data, indent=2, sort_keys=True,
    ensure_ascii=False, allow_nan=False) + "\\n"`` for the plain values
    the program builds: dicts with str keys, lists and tuples, str, int,
    finite float, True, False and None, by exact type. Any other value,
    a subclass of these types or a key that is not a str included, is a
    TypeError; a NaN or infinite float is a ValueError. It is written by
    one recursive pass into a list: with an indent, json falls back to
    its generator encoder, which costs about twice as much."""
    out: list[str] = []
    _write_json(data, out, "\n")
    out.append("\n")
    return "".join(out)


_json_str = json.encoder.encode_basestring


def _write_json(value, out: list[str], newline: str) -> None:
    """Append ``value`` to ``out``; ``newline`` starts a line at the
    value's own depth. Plain str and int members, most of a document,
    are written in place rather than by a call, so a value that gets
    here is almost always a container: dicts and lists are tested first."""
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(sep)
            sep = comma
            out.append(_json_str(key))
            out.append(": ")
            kind = type(item)
            if kind is str:
                out.append(_json_str(item))
            elif kind is int:
                out.append(int.__repr__(item))
            else:
                _write_json(item, out, inner)
        out.append(newline + "}")
    elif kind is list or kind is tuple:
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
    elif kind is str:
        out.append(_json_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is float:
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        out.append(float.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def model_digest(model: MorphModel) -> str:
    """Stable content hash of the model portion alone."""
    payload = serialize_document(ModelDocument(model=model))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
