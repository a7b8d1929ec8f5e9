"""Reference split search for the equivalence tests.

Every candidate threshold repartitions every instance, so a numeric
attribute costs O(n^2) per node. It is slow but direct, and the library's
sort-once sweep must reproduce its trees, rankings and scores bit for bit.
Only the tree node types come from the library.
"""

from __future__ import annotations

import math

from sacmine.dtree import CRITERIA, GAIN, GAIN_RATIO, NUMERIC, Dataset, Leaf, Split, TreeNode
from sacmine.errors import BadThreshold, EmptyDataset


def _entropy(counts, total) -> float:
    # fsum is correctly rounded, so the result is permutation-invariant
    h = math.fsum((c / total) * math.log2(c / total) for c in counts if c)
    return -h if h else 0.0


def _class_counts(instances, domain) -> list[int]:
    counts = dict.fromkeys(domain, 0)
    for inst in instances:
        counts[inst.label] += 1
    return [counts[c] for c in domain]


def _partition_numeric(instances, index, threshold):
    le, gt = [], []
    for inst in instances:
        (le if inst.values[index] <= threshold else gt).append(inst)
    return le, gt


def _partition_nominal(instances, index, domain):
    parts = {v: [] for v in domain}
    for inst in instances:
        parts[inst.values[index]].append(inst)
    return parts


def _split_score(parent_counts, parts, n, domain, criterion) -> float:
    child_h = 0.0
    for part in parts:
        if part:
            child_h += (len(part) / n) * _entropy(_class_counts(part, domain), len(part))
    gain = _entropy(parent_counts, n) - child_h
    if criterion == GAIN:
        return gain
    split_info = _entropy([len(p) for p in parts], n)
    return gain / split_info if split_info > 0.0 else 0.0


def _parts_for(data: Dataset, attribute: str, threshold):
    index = data.attribute_index(attribute)
    spec = data.attributes[index]
    if spec.kind == NUMERIC:
        if threshold is None:
            raise BadThreshold(f"{attribute}: numeric attribute needs a threshold")
        return list(_partition_numeric(data.instances, index, threshold))
    if threshold is not None:
        raise BadThreshold(f"{attribute}: nominal attribute takes no threshold")
    return list(_partition_nominal(data.instances, index, spec.domain).values())


def info_gain(data: Dataset, attribute: str, threshold: float | None = None) -> float:
    """Entropy reduction of splitting ``data`` on the given attribute.

    A threshold putting all instances on one side is not an error; the
    gain is simply 0.
    """
    if not data.instances:
        raise EmptyDataset("info_gain needs a non-empty dataset")
    parts = _parts_for(data, attribute, threshold)
    counts = _class_counts(data.instances, data.label.domain)
    return _split_score(counts, parts, len(data.instances), data.label.domain, GAIN)


def gain_ratio(data: Dataset, attribute: str, threshold: float | None = None) -> float:
    """Information gain normalized by the entropy of the branch sizes.

    Returns 0 when the split information is 0 (all instances in one branch).
    """
    if not data.instances:
        raise EmptyDataset("gain_ratio needs a non-empty dataset")
    parts = _parts_for(data, attribute, threshold)
    counts = _class_counts(data.instances, data.label.domain)
    return _split_score(counts, parts, len(data.instances), data.label.domain, GAIN_RATIO)


def numeric_candidates(instances, index) -> list[float]:
    """Candidate thresholds: midpoints between consecutive distinct values
    whose class sets differ."""
    by_value: dict[float, set[str]] = {}
    for inst in instances:
        by_value.setdefault(inst.values[index], set()).add(inst.label)
    values = sorted(by_value)
    return [
        (v1 + v2) / 2.0
        for v1, v2 in zip(values, values[1:])
        if by_value[v1] != by_value[v2]
    ]


def _check_criterion(criterion: str) -> None:
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")


def rank_attributes(data: Dataset, criterion: str = GAIN_RATIO) -> list[tuple[str, float]]:
    """Score every attribute by its best split, descending.

    Numeric attributes take the maximum over candidate thresholds; an
    attribute with no viable split scores 0. Ties keep schema declaration
    order.
    """
    _check_criterion(criterion)
    if not data.instances:
        raise EmptyDataset("rank_attributes needs a non-empty dataset")
    domain = data.label.domain
    counts = _class_counts(data.instances, domain)
    n = len(data.instances)
    ranked = []
    for pos, spec in enumerate(data.attributes):
        if spec.kind == NUMERIC:
            score = 0.0
            for t in numeric_candidates(data.instances, pos):
                parts = _partition_numeric(data.instances, pos, t)
                score = max(score, _split_score(counts, parts, n, domain, criterion))
        else:
            parts = _partition_nominal(data.instances, pos, spec.domain)
            score = _split_score(counts, list(parts.values()), n, domain, criterion)
        ranked.append((spec.name, score, pos))
    ranked.sort(key=lambda t: (-t[1], t[2]))
    return [(name, score) for name, score, _ in ranked]


# --- Induction ----------------------------------------------------------------


def _majority(counts, domain) -> str:
    best_i = 0
    for i in range(1, len(counts)):
        if counts[i] > counts[best_i]:
            best_i = i
    return domain[best_i]


def build_tree(
    data: Dataset,
    criterion: str = GAIN_RATIO,
    min_leaf: int = 2,
    max_depth: int | None = None,
) -> TreeNode:
    """Learn a tree by recursive top-down induction.

    A node becomes a leaf when it is pure, holds fewer than 2*min_leaf
    instances, hits ``max_depth``, or no candidate split scores above 0.
    Candidate splits must leave at least ``min_leaf`` instances in every
    branch (all domain values, for nominal splits), so every leaf of the
    result covers at least ``min_leaf`` training instances unless the
    whole dataset was smaller than 2*min_leaf. Leaf classes are the
    majority, ties resolved by label-domain declaration order.
    """
    _check_criterion(criterion)
    if not data.instances:
        raise EmptyDataset("build_tree needs a non-empty dataset")
    if not data.attributes:
        raise ValueError("schema has no non-label attributes")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
    domain = data.label.domain

    def leaf_for(instances, counts) -> Leaf:
        n = len(instances)
        dist = {c: counts[i] / n for i, c in enumerate(domain)}
        return Leaf(_majority(counts, domain), dist, n)

    def grow(instances, depth) -> TreeNode:
        counts = _class_counts(instances, domain)
        n = len(instances)
        if (
            n < 2 * min_leaf
            or sum(1 for c in counts if c) == 1
            or (max_depth is not None and depth >= max_depth)
        ):
            return leaf_for(instances, counts)

        best_score = 0.0
        best = None
        for pos, spec in enumerate(data.attributes):
            if spec.kind == NUMERIC:
                for t in numeric_candidates(instances, pos):
                    le, gt = _partition_numeric(instances, pos, t)
                    if len(le) < min_leaf or len(gt) < min_leaf:
                        continue
                    score = _split_score(counts, [le, gt], n, domain, criterion)
                    if score > best_score:
                        best_score = score
                        best = (spec, pos, t, le, gt, None)
            else:
                parts = _partition_nominal(instances, pos, spec.domain)
                if any(len(p) < min_leaf for p in parts.values()):
                    continue
                score = _split_score(counts, list(parts.values()), n, domain, criterion)
                if score > best_score:
                    best_score = score
                    best = (spec, pos, None, None, None, parts)

        if best is None:
            return leaf_for(instances, counts)
        spec, pos, t, le, gt, parts = best
        if spec.kind == NUMERIC:
            return Split(
                attribute=spec.name,
                index=pos,
                threshold=t,
                le=grow(le, depth + 1),
                gt=grow(gt, depth + 1),
            )
        return Split(
            attribute=spec.name,
            index=pos,
            branches={v: grow(parts[v], depth + 1) for v in spec.domain},
        )

    return grow(list(data.instances), 0)

