"""Seeded model documents for the benchmark workloads.

Every generator takes a ``random.Random`` and returns a plain JSON
document (a dict), so the same seed always yields the same bytes. The
generators live here rather than in ``morphplan.generator`` so that a
change to the program's own generator cannot change the benchmark's
inputs.
"""

from __future__ import annotations

import random

LEVELS = 3
NU = 4


def _leaf(rng: random.Random, cid: str, count: int, levels: int, estimate=None) -> dict:
    das = []
    for j in range(count):
        da = {"id": f"{cid}x{j + 1}", "priority": rng.randint(1, levels)}
        if estimate is not None:
            da["estimate"] = estimate(rng)
        das.append(da)
    return {"id": cid, "kind": "leaf", "das": das}


def _pairs(rng: random.Random, leaves: list[dict], listed: float) -> list:
    """Compatibility entries between alternatives of different leaves.
    Each pair is listed with chance ``listed`` and a value in 1..NU, so
    no selection is ever cut."""
    pairs = []
    for i, a in enumerate(leaves):
        for b in leaves[i + 1 :]:
            for da in a["das"]:
                for db in b["das"]:
                    if listed >= 1.0 or rng.random() < listed:
                        pairs.append([da["id"], db["id"], rng.randint(1, NU)])
    return pairs


def _document(name: str, root: str, components: list, levels: int, **extra) -> dict:
    doc = {
        "morph_schema": 1,
        "scale": {"l": levels, "nu": NU},
        "root": root,
        "components": components,
        "options": {"name": name},
    }
    doc.update(extra)
    return doc


def one_node_document(seed: int, children: int, das: int) -> dict:
    """``morphplan.generator.generate_document(seed, children, das,
    zero_rate=0)`` as of the commit the references were taken at, byte
    for byte: a composite root over ``children`` leaves with 1..``das``
    alternatives each and every pair listed, none incompatible."""
    rng = random.Random(seed)
    leaf_ids = [f"C{i + 1}" for i in range(children)]
    comps = []
    da_ids: dict[str, list[str]] = {}
    for cid in leaf_ids:
        ids = [f"{cid}x{j + 1}" for j in range(rng.randint(1, das))]
        da_ids[cid] = ids
        comps.append(
            {"id": cid, "kind": "leaf", "das": [{"id": did, "priority": rng.randint(1, LEVELS)} for did in ids]}
        )
    pairs = []
    for i, ca in enumerate(leaf_ids):
        for cb in leaf_ids[i + 1 :]:
            for a in da_ids[ca]:
                for b in da_ids[cb]:
                    rng.random()  # the zero_rate draw
                    pairs.append([a, b, rng.randint(1, NU)])
    comps.append(
        {"id": "root", "kind": "composite", "children": leaf_ids, "compat": {"default": 0, "pairs": pairs}}
    )
    return {
        "morph_schema": 1,
        "scale": {"l": LEVELS, "nu": NU},
        "root": "root",
        "components": comps,
        "options": {"name": f"generated-{seed}"},
    }


def tree_document(
    rng: random.Random, shape: list[list[int]], listed: float, name: str
) -> dict:
    """A root without a table over one composite per entry of
    ``shape``; composite k has one leaf per count in ``shape[k]``. Each
    composite lists the share ``listed`` of its pairs; unlisted pairs
    take the default 2."""
    components: list[dict] = []
    subsystems = []
    for k, counts in enumerate(shape):
        sid = chr(ord("A") + k)
        leaves = [_leaf(rng, f"{sid}{i + 1}", n, LEVELS) for i, n in enumerate(counts)]
        components.extend(leaves)
        components.append(
            {
                "id": sid,
                "kind": "composite",
                "children": [leaf["id"] for leaf in leaves],
                "compat": {"default": 2, "pairs": _pairs(rng, leaves, listed)},
            }
        )
        subsystems.append(sid)
    components.append({"id": "R", "kind": "composite", "children": subsystems})
    return _document(name, "R", components, LEVELS)


def _random_estimate(levels: int, eta: int):
    def draw(rng: random.Random) -> list[int]:
        counts = [0] * levels
        for _ in range(eta):
            counts[rng.randrange(levels)] += 1
        return counts

    return draw


def estimate_document(
    rng: random.Random, counts: list[int], levels: int, eta: int, name: str
) -> dict:
    """One composite root whose leaf alternatives carry estimates that
    spread ``eta`` marks over ``levels`` levels."""
    draw = _random_estimate(levels, eta)
    leaves = [_leaf(rng, f"E{i + 1}", n, levels, draw) for i, n in enumerate(counts)]
    root = {
        "id": "root",
        "kind": "composite",
        "children": [leaf["id"] for leaf in leaves],
        "compat": {"default": 0, "pairs": _pairs(rng, leaves, 1.0)},
    }
    return _document(name, "root", leaves + [root], levels)


def _cents(rng: random.Random, low: int, high: int) -> float:
    return rng.randint(low * 100, high * 100) / 100


def knapsack_document(
    rng: random.Random, items: list[int], budgets: int, name: str, tied: bool = False
) -> dict:
    """A two-leaf model carrying a knapsack section: one group per
    entry of ``items`` with cent-valued costs, and ``budgets`` budgets
    between the cheapest and the dearest fill. With ``tied``, every
    group offers identical items, so every fill is optimal."""
    groups = []
    for g, n in enumerate(items):
        gid = f"G{g + 1}"
        if tied:
            cost, profit = _cents(rng, 1, 4), rng.randint(1, 9)
            entries = [(cost, profit)] * n
        else:
            entries = [(_cents(rng, 1, 6), rng.randint(1, 9)) for _ in range(n)]
        groups.append(
            {
                "id": gid,
                "items": [
                    {"id": f"{gid}i{j + 1}", "cost": cost, "profit": profit}
                    for j, (cost, profit) in enumerate(entries)
                ],
            }
        )
    low = sum(min(it["cost"] for it in g["items"]) for g in groups)
    high = sum(max(it["cost"] for it in g["items"]) for g in groups)
    if high > low:
        spread = [round(low + (high - low) * (k + 1) / (budgets + 1), 2) for k in range(budgets)]
    else:
        spread = [round(low + k / 2, 2) for k in range(budgets)]
    leaves = [_leaf(rng, f"K{i + 1}", 2, LEVELS) for i in range(2)]
    root = {"id": "root", "kind": "composite", "children": ["K1", "K2"]}
    knapsack = {
        "kernel": {"K1": "K1x1", "K2": "K2x1"},
        "groups": groups,
        "budgets": spread,
    }
    return _document(name, "root", leaves + [root], LEVELS, knapsack=knapsack)
