"""JSON document encoding for every value the command line reads or writes.

Finite scores are plain JSON numbers; bottom is the exact string token
``-inf`` and nothing else.  Capacity tables key their subsets by |-joined
labels, with the empty string for the empty set.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .capacities import Capacity, PossibilityProfile, bits_members, subset_bits
from .convexity import GeneratorSet
from .measures import DENSITIES, MAXPLUS, METAS, Density, MaxTimesDensity, Meta
from .semiring import BOTTOM, is_bottom
from .spaces import FiniteSpace, RealFunction, SubsetMask, UnitFunction


def encode_score(a: float):
    return "-inf" if is_bottom(a) else float(a)


def decode_score(raw) -> float:
    if raw == "-inf":
        return BOTTOM
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"not a score: {raw!r} (numbers or the token '-inf')")
    v = float(raw)
    if math.isnan(v) or math.isinf(v):
        raise ValueError(f"not a score: {raw!r}")
    return v


def decode_number(raw) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"not a number: {raw!r}")
    v = float(raw)
    if math.isnan(v) or math.isinf(v):
        raise ValueError(f"not a finite number: {raw!r}")
    return v


def _require_mapping(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object")
    return doc


def space_to_doc(space: FiniteSpace) -> dict:
    return {"points": list(space.points)}


def space_from_doc(doc) -> FiniteSpace:
    doc = _require_mapping(doc, "space")
    pts = doc.get("points")
    if not isinstance(pts, list) or not all(isinstance(p, str) for p in pts):
        raise ValueError("space document needs a 'points' list of strings")
    return FiniteSpace(tuple(pts))


def function_to_doc(phi: RealFunction | UnitFunction) -> dict:
    return {"values": dict(phi.values)}


def function_from_doc(doc, space: FiniteSpace) -> RealFunction:
    doc = _require_mapping(doc, "function")
    vals = doc.get("values")
    if not isinstance(vals, dict):
        raise ValueError("function document needs a 'values' object")
    return RealFunction(space, {str(k): decode_number(v) for k, v in vals.items()})


def unit_function_from_doc(doc, space: FiniteSpace) -> UnitFunction:
    doc = _require_mapping(doc, "function")
    vals = doc.get("values")
    if not isinstance(vals, dict):
        raise ValueError("function document needs a 'values' object")
    return UnitFunction(space, {str(k): decode_number(v) for k, v in vals.items()})


def subset_to_doc(mask: SubsetMask) -> dict:
    return {"members": sorted(mask.members)}


def subset_from_doc(doc, space: FiniteSpace) -> SubsetMask:
    doc = _require_mapping(doc, "subset")
    members = doc.get("members")
    if not isinstance(members, list):
        raise ValueError("subset document needs a 'members' list")
    return SubsetMask(space, frozenset(str(m) for m in members))


def density_to_doc(f: Density) -> dict:
    return {"kind": f.side.kind, "values": {p: encode_score(w) for p, w in f.weights.items()}}


def _space_from_keys(vals: dict) -> FiniteSpace:
    return FiniteSpace(tuple(sorted(vals)))


def density_from_doc(doc, space: FiniteSpace | None = None):
    """Load a density document; the kind tag picks the side.  Without an
    explicit space, the sorted value keys define one."""
    doc = _require_mapping(doc, "density")
    kind = doc.get("kind")
    vals = doc.get("values")
    if not isinstance(vals, dict):
        raise ValueError("density document needs a 'values' object")
    if space is None:
        space = _space_from_keys(vals)
    cls = DENSITIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown density kind: {kind!r}")
    # bottom is a token of its own only on the max-plus side
    decode = decode_score if cls.side is MAXPLUS else decode_number
    return cls(space, {str(k): decode(v) for k, v in vals.items()})


def meta_to_doc(F: Meta) -> dict:
    return {
        "support": [
            {"density": density_to_doc(f), "weight": encode_score(w)} for f, w in F.support
        ]
    }


def meta_from_doc(doc, space: FiniteSpace | None = None):
    doc = _require_mapping(doc, "meta density")
    entries = doc.get("support")
    if not isinstance(entries, list) or not entries:
        raise ValueError("meta document needs a non-empty 'support' list")
    pairs = []
    kinds = set()
    for entry in entries:
        entry = _require_mapping(entry, "support entry")
        dens = density_from_doc(entry.get("density"), space)
        kinds.add(dens.side.kind)
        pairs.append((dens, decode_score(entry.get("weight"))))
    if len(kinds) != 1:
        raise ValueError("support mixes maxplus and maxtimes densities")
    return METAS[kinds.pop()](tuple(pairs))


def capacity_to_doc(c: Capacity) -> dict:
    for label in c.space.points:
        if "|" in label:
            raise ValueError(f"label {label!r} contains '|', the subset-key separator")
    sets = {}
    for mask in range(len(c.table)):
        key = "|".join(sorted(bits_members(c.space, mask)))
        sets[key] = float(c.table[mask])
    return {"kind": "capacity", "sets": sets}


def capacity_from_doc(doc, space: FiniteSpace) -> Capacity:
    doc = _require_mapping(doc, "capacity")
    if doc.get("kind") != "capacity":
        raise ValueError(f"expected a capacity document, got kind {doc.get('kind')!r}")
    sets = doc.get("sets")
    if not isinstance(sets, dict):
        raise ValueError("capacity document needs a 'sets' object")
    n = len(space)
    if len(sets) != 1 << n:
        raise ValueError(f"capacity document needs all {1 << n} subsets, got {len(sets)}")
    table = np.zeros(1 << n)
    seen = set()
    for key, raw in sets.items():
        labels = [] if key == "" else key.split("|")
        if len(set(labels)) != len(labels):
            raise ValueError(f"subset key repeats a label: {key!r}")
        mask = subset_bits(space, labels)
        if mask in seen:
            raise ValueError(f"duplicate subset key: {key!r}")
        seen.add(mask)
        table[mask] = decode_number(raw)
    return Capacity(space, table)


def possibility_to_doc(pi: MaxTimesDensity) -> dict:
    """Any max-times density, a profile included, written as a profile."""
    return {"kind": "possibility", "singletons": dict(pi.weights)}


def possibility_from_doc(doc, space: FiniteSpace | None = None) -> PossibilityProfile:
    doc = _require_mapping(doc, "possibility")
    if doc.get("kind") != "possibility":
        raise ValueError(f"expected a possibility document, got kind {doc.get('kind')!r}")
    sing = doc.get("singletons")
    if not isinstance(sing, dict):
        raise ValueError("possibility document needs a 'singletons' object")
    if space is None:
        space = _space_from_keys(sing)
    return PossibilityProfile(space, {str(k): decode_number(v) for k, v in sing.items()})


def generators_to_doc(gens: GeneratorSet) -> dict:
    return {"dim": gens.dimension, "points": [list(map(float, row)) for row in gens.points]}


def generators_from_doc(doc) -> GeneratorSet:
    doc = _require_mapping(doc, "points")
    dim = doc.get("dim")
    pts = doc.get("points")
    if not isinstance(dim, int) or not isinstance(pts, list) or not pts:
        raise ValueError("points document needs an integer 'dim' and a non-empty 'points' list")
    rows = []
    for row in pts:
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"point {row!r} does not have dimension {dim}")
        rows.append([decode_number(v) for v in row])
    return GeneratorSet(np.array(rows))


def weights_to_doc(weights) -> dict:
    return {"weights": [encode_score(float(w)) for w in weights]}


def weights_from_doc(doc) -> list[float]:
    doc = _require_mapping(doc, "weights")
    ws = doc.get("weights")
    if not isinstance(ws, list) or not ws:
        raise ValueError("weights document needs a non-empty 'weights' list")
    return [decode_score(w) for w in ws]


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(doc: Any, path: str | None = None) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
