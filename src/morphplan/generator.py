"""Seeded random model documents for tests and demos. The same seed
always yields byte-identical output."""

from __future__ import annotations

import random

from .model import OrdinalScale


def generate_document(
    seed: int = 0,
    children: int = 4,
    das: int = 3,
    levels: int = 3,
    max_compat: int = 4,
    zero_rate: float = 0.15,
) -> dict:
    """A one-node model: a composite root over ``children`` leaves with
    1..``das`` alternatives each and a fully listed compatibility
    table. ``zero_rate`` is the chance a pair is marked incompatible.
    """
    if children < 1 or das < 1:
        raise ValueError("children and das must be >= 1")
    OrdinalScale(levels, max_compat)  # out-of-range bounds fail before any draw
    rng = random.Random(seed)
    leaf_ids = [f"C{i + 1}" for i in range(children)]
    comps = []
    da_ids: dict[str, list[str]] = {}
    for cid in leaf_ids:
        count = rng.randint(1, das)
        ids = [f"{cid}x{j + 1}" for j in range(count)]
        da_ids[cid] = ids
        comps.append(
            {
                "id": cid,
                "kind": "leaf",
                "das": [
                    {"id": did, "priority": rng.randint(1, levels)} for did in ids
                ],
            }
        )
    pairs = []
    for i, ca in enumerate(leaf_ids):
        for cb in leaf_ids[i + 1 :]:
            for a in da_ids[ca]:
                for b in da_ids[cb]:
                    if rng.random() < zero_rate:
                        value = 0
                    else:
                        value = rng.randint(1, max_compat)
                    pairs.append([a, b, value])
    comps.append(
        {
            "id": "root",
            "kind": "composite",
            "children": leaf_ids,
            "compat": {"default": 0, "pairs": pairs},
        }
    )
    return {
        "morph_schema": 1,
        "scale": {"l": levels, "nu": max_compat},
        "root": "root",
        "components": comps,
        "options": {"name": f"generated-{seed}"},
    }
