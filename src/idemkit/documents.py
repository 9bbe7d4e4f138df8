"""JSON document encoding for every value the command line reads or writes.

Finite scores are plain JSON numbers; bottom is the exact string token
``-inf`` and nothing else.  Capacity tables key their subsets by |-joined
labels, with the empty string for the empty set.  Function, density and
possibility documents hold a label-keyed object, which one reader decodes
and hands to the label-dict constructor of `spaces.PointValues`.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .capacities import Capacity, PossibilityProfile, subset_bits
from .convexity import GeneratorSet
from .measures import DENSITIES, METAS, Density, MaxTimesDensity, Meta
from .semiring import BOTTOM, is_bottom
from .spaces import FiniteSpace, RealFunction


def encode_score(a: float):
    return "-inf" if is_bottom(a) else float(a)


def decode_score(raw) -> float:
    if raw == "-inf":
        return BOTTOM
    try:
        return decode_number(raw)
    except ValueError:
        raise ValueError(f"not a score: {raw!r} (numbers or the token '-inf')") from None


def decode_number(raw) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"not a number: {raw!r}")
    try:
        v = float(raw)
    except OverflowError:  # an integer beyond the range of a double
        v = math.inf
    if not math.isfinite(v):
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


def function_to_doc(phi: RealFunction) -> dict:
    return {"values": dict(phi.values)}


def _from_labels(doc: dict, what: str, key: str, space: FiniteSpace | None, cls):
    """The `cls` object of a `what` document: the label-keyed object under
    `key`, on `space` or, when None, on the space its sorted keys define,
    every value decoded before the constructor checks them.  A None `cls`
    is an unknown kind, reported once the space is made.  The token '-inf'
    reads as bottom only for a class whose range holds it: a max-plus
    density."""
    vals = doc.get(key)
    if not isinstance(vals, dict):
        raise ValueError(f"{what} document needs a '{key}' object")
    if space is None:
        space = FiniteSpace(tuple(sorted(vals)))
    if cls is None:
        raise ValueError(f"unknown {what} kind: {doc.get('kind')!r}")
    decode = decode_score if cls.bounds[0] == BOTTOM else decode_number
    return cls(space, {str(k): decode(v) for k, v in vals.items()})


def function_from_doc(doc, space: FiniteSpace) -> RealFunction:
    doc = _require_mapping(doc, "function")
    return _from_labels(doc, "function", "values", space, RealFunction)


def density_to_doc(f: Density) -> dict:
    return {"kind": f.side.kind, "values": {p: encode_score(w) for p, w in f.weights.items()}}


def density_from_doc(doc, space: FiniteSpace | None = None):
    """Load a density document; the kind tag picks the side.  Without an
    explicit space, the sorted value keys define one."""
    doc = _require_mapping(doc, "density")
    kind = doc.get("kind")
    cls = DENSITIES.get(kind) if isinstance(kind, str) else None
    return _from_labels(doc, "density", "values", space, cls)


def meta_to_doc(F: Meta) -> dict:
    """The support as a list of entries with their weights: an entry that is
    itself a meta under "meta", at any depth, and a density under "density"."""
    support = []
    for e, w in F.support:
        doc = {"meta": meta_to_doc(e)} if isinstance(e, Meta) else {"density": density_to_doc(e)}
        support.append({**doc, "weight": encode_score(w)})
    return {"support": support}


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


def _mask_keys(space: FiniteSpace) -> list[str]:
    """The key of every subset, indexed by its point-order mask: its labels
    in sorted order, joined by |.  Both lists are built by doubling: the keys
    over the sorted labels, then the permutation that sends a point-order
    mask to the sorted-order mask of the same subset."""
    labels = sorted(space.points)
    keys = [""]
    for label in labels:
        keys += [f"{key}|{label}" if key else label for key in keys]
    rank = {p: r for r, p in enumerate(labels)}
    sorted_mask = np.zeros(len(keys), dtype=np.intp)
    for i, p in enumerate(space.points):
        sorted_mask[1 << i : 2 << i] = sorted_mask[: 1 << i] | 1 << rank[p]
    return list(map(keys.__getitem__, sorted_mask.tolist()))


def capacity_to_doc(c: Capacity) -> dict:
    for label in c.space.points:
        if "|" in label:
            raise ValueError(f"label {label!r} contains '|', the subset-key separator")
    return {"kind": "capacity", "sets": dict(zip(_mask_keys(c.space), c.table.tolist()))}


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
    # a key as capacity_to_doc writes it is looked up; any other is parsed,
    # and so is every key where an empty label or one holding the separator
    # makes keys ambiguous
    canonical = {}
    if all(label and "|" not in label for label in space.points):
        canonical = {key: mask for mask, key in enumerate(_mask_keys(space))}
    table = np.zeros(1 << n)
    seen = set()
    for key, raw in sets.items():
        mask = canonical.get(key)
        if mask is None:
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
    return _from_labels(doc, "possibility", "singletons", space, PossibilityProfile)


def generators_to_doc(gens: GeneratorSet) -> dict:
    return {"dim": gens.dimension, "points": [list(map(float, row)) for row in gens.points]}


def generators_from_doc(doc) -> GeneratorSet:
    doc = _require_mapping(doc, "points")
    dim = doc.get("dim")
    pts = doc.get("points")
    if isinstance(dim, bool) or not isinstance(dim, int) or not isinstance(pts, list) or not pts:
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
