"""Entropy-based decision-tree learning over nominal-labeled tabular data.

Top-down induction in the classic C4.5 style: numeric attributes split on
a threshold into (<=, >) branches, nominal attributes split one branch per
domain value, and each node takes the split maximizing information gain
or gain ratio. Ties break by schema declaration order, then by smaller
threshold, which makes the learned tree independent of instance order.

No pruning and no missing-value handling: stopping is purity, a minimum
leaf size, an optional depth cap, or a non-positive best score.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add, itemgetter
from pathlib import Path

from . import tables
from ._pcg import Generator
from .errors import (
    BadThreshold,
    EmptyCounts,
    EmptyDataset,
    InvalidFraction,
    MissingHeader,
    SchemaMismatch,
    TreeTooDeep,
    UnknownAttribute,
)

NUMERIC = "numeric"
NOMINAL = "nominal"
GAIN = "gain"
GAIN_RATIO = "gain_ratio"
CRITERIA = (GAIN, GAIN_RATIO)


# --- Schema and data --------------------------------------------------------


@dataclass(frozen=True)
class AttributeSpec:
    """A named column: numeric, or nominal with an ordered value domain."""

    name: str
    kind: str
    domain: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, NOMINAL):
            raise ValueError(f"{self.name}: kind must be numeric or nominal")
        object.__setattr__(self, "domain", tuple(self.domain))
        if self.kind == NOMINAL:
            if not self.domain:
                raise ValueError(f"{self.name}: nominal attribute needs a domain")
            if len(set(self.domain)) != len(self.domain):
                raise ValueError(f"{self.name}: domain values must be unique")
        elif self.domain:
            raise ValueError(f"{self.name}: numeric attribute takes no domain")


@dataclass(frozen=True)
class Instance:
    """One row: positional attribute values plus a nominal class label."""

    values: tuple
    label: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))


def _is_number(v) -> bool:
    """A finite int or float; bools, NaN and infinities are not numbers here."""
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


def _outside_domain(spec: AttributeSpec, v, is_label: bool = False) -> SchemaMismatch:
    """The error for the nominal value ``v`` of ``spec`` outside its domain."""
    if is_label:
        return SchemaMismatch(f"label {v!r} not in {spec.domain}")
    return SchemaMismatch(f"{spec.name}: {v!r} not in domain {spec.domain}")


@dataclass(frozen=True)
class Dataset:
    """Schema plus instances; every instance is validated on construction."""

    attributes: tuple[AttributeSpec, ...]
    label: AttributeSpec
    instances: tuple[Instance, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        names = [a.name for a in self.attributes] + [self.label.name]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names: {names}")
        if self.label.kind != NOMINAL:
            raise ValueError("label must be nominal")
        # Every instance is checked, built in code or not: read_dataset_csv's rows and
        # both halves of split_dataset too, though the CSV readers checked them first.
        object.__setattr__(self, "instances", tuple(map(self._validate, self.instances)))

    def _validate(self, inst: Instance) -> Instance:
        if len(inst.values) != len(self.attributes):
            raise SchemaMismatch(
                f"instance has {len(inst.values)} values, schema has {len(self.attributes)}"
            )
        for spec, v in zip(self.attributes, inst.values):
            if spec.kind == NUMERIC:
                if not _is_number(v):
                    raise SchemaMismatch(f"{spec.name}: expected a number, got {v!r}")
            elif v not in spec.domain:
                raise _outside_domain(spec, v)
        if inst.label not in self.label.domain:
            raise _outside_domain(self.label, inst.label, is_label=True)
        return inst

    def attribute_index(self, name: str) -> int:
        for i, spec in enumerate(self.attributes):
            if spec.name == name:
                return i
        raise UnknownAttribute(f"no attribute named {name!r}")

    def with_instances(self, instances) -> "Dataset":
        return Dataset(self.attributes, self.label, tuple(instances))


# --- Tree nodes --------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """Terminal node: majority class and the training class distribution."""

    label: str
    distribution: dict[str, float]
    n: int


@dataclass(frozen=True)
class Split:
    """Internal node; numeric splits use threshold/le/gt, nominal use branches."""

    attribute: str
    index: int
    threshold: float | None = None
    le: "TreeNode | None" = None
    gt: "TreeNode | None" = None
    branches: dict[str, "TreeNode"] | None = None


TreeNode = Leaf | Split


def _preorder(tree: TreeNode):
    """Each node of ``tree`` in preorder, with the conditions of its path from
    the root. A numeric split's edges are ``<=`` then ``>`` its threshold, a
    nominal split's ``=`` each branch value in order. A node's children are
    read only once the node has been yielded, so a caller can check it first."""
    stack = [(tree, ())]
    while stack:
        node, conds = stack.pop()
        yield node, conds
        if isinstance(node, Split):
            if node.threshold is not None:
                edges = [("<=", node.threshold, node.le), (">", node.threshold, node.gt)]
            else:
                edges = [("=", value, child) for value, child in node.branches.items()]
            stack.extend(
                (child, conds + (Condition(node.attribute, node.index, op, value),))
                for op, value, child in reversed(edges)
            )


class NodeTable:
    """A tree's ``leaves`` in preorder, for routing many rows.

    It checks that every node fits the schema ``attributes`` and ``label``,
    and raises SchemaMismatch where one does not: a split must name the
    attribute at its index and have a numeric threshold or a branch per
    domain value, a leaf must cover ``n >= 1`` rows and give each class of
    the label a probability in [0, 1]."""

    def __init__(self, tree: TreeNode, attributes, label: AttributeSpec):
        self.root, self.attributes, self.label = tree, attributes, label
        self.leaves: list[Leaf] = []
        self._paths: list[tuple[Condition, ...]] = []  # each leaf's conditions
        for node, conds in _preorder(tree):
            if isinstance(node, Leaf):
                if not (
                    node.label in node.distribution
                    and type(node.n) is int and node.n >= 1
                    and all(c in label.domain and _is_number(p) and 0 <= p <= 1
                            for c, p in node.distribution.items())
                ):
                    raise SchemaMismatch(f"leaf {node.label!r} does not fit label {label.name!r}")
                self.leaves.append(node)
                self._paths.append(conds)
                continue
            known = isinstance(node.index, int) and 0 <= node.index < len(self.attributes)
            spec = self.attributes[node.index] if known else None
            if spec is None or spec.name != node.attribute or not (
                _is_number(node.threshold)
                if spec.kind == NUMERIC
                else isinstance(node.branches, dict) and set(node.branches) == set(spec.domain)
            ):
                raise SchemaMismatch(f"split on {node.attribute!r} does not fit the schema")
        # A leaf placed twice in the tree takes the number of its last place.
        self._number = {id(leaf): j for j, leaf in enumerate(self.leaves)}

    @classmethod
    def load(cls, path) -> "NodeTable":
        """The checked table of a model file written by ``save_model``. Raises
        ValueError for another format or version, and SchemaMismatch when the
        file is not UTF-8 JSON, the schema or tree is missing, a node lacks a
        field or does not fit the schema, or the tree is nested too deep to read."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise SchemaMismatch(f"{path}: malformed model: {type(exc).__name__}: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
        if doc.get("version") != MODEL_VERSION:
            raise ValueError(f"{path}: unsupported {MODEL_FORMAT} version {doc.get('version')!r}")
        try:
            attributes, label = schema_from_json(doc["schema"])
            return cls(tree_from_json(doc["tree"]), attributes, label)
        except SchemaMismatch as exc:
            raise SchemaMismatch(f"{path}: {exc}") from None
        except (KeyError, TypeError, AttributeError, ValueError, RecursionError) as exc:
            raise SchemaMismatch(f"{path}: malformed model: {type(exc).__name__}: {exc}") from None

    def rules(self) -> "RuleSet":
        """:func:`extract_rules` of the tree, from the walk that checked it."""
        return _rules(zip(self.leaves, self._paths))

    def route(self, rows) -> list[int]:
        """The leaf number of each row of values. No value is checked, so every
        row must fit the schema, as the checked readers' rows do."""
        split, root = Split, self.root
        reached = []
        for values in rows:
            node = root
            while type(node) is split:
                t = node.threshold
                if t is None:
                    node = node.branches[values[node.index]]
                elif values[node.index] <= t:
                    node = node.le
                else:
                    node = node.gt
            reached.append(node)
        return list(map(self._number.__getitem__, map(id, reached)))

    def evaluate(self, chunks) -> EvalReport:
        """:func:`evaluate` of ``chunks``, each a list of rows of values whose
        last cell is its true class, routed a chunk at a time.

        The K squared errors of each (leaf, true class) pair are computed once,
        but summed in one running sum, row by row and class by class, carried
        from chunk to chunk, so the RMSE is bit for bit the one of a loop over rows."""
        counts: Counter = Counter()
        terms: dict[tuple[int, str], list[float]] = {}
        domain, sq = self.label.domain, 0.0
        for chunk in chunks:
            pairs = list(zip(self.route(chunk), map(itemgetter(-1), chunk)))
            counts.update(pairs)
            for j, truth in set(pairs).difference(terms):
                terms[j, truth] = [
                    (self.leaves[j].distribution.get(c, 0.0) - (1.0 if c == truth else 0.0)) ** 2
                    for c in domain
                ]
            sq = reduce(add, chain.from_iterable(map(terms.__getitem__, pairs)), sq)
        n = sum(counts.values())
        if not n:
            raise EmptyDataset("evaluate needs a non-empty test set")
        pos = {c: i for i, c in enumerate(domain)}
        k = len(domain)
        confusion = [[0] * k for _ in range(k)]
        correct = 0
        for (j, truth), count in counts.items():
            label = self.leaves[j].label
            confusion[pos[truth]][pos[label]] += count
            correct += count if label == truth else 0
        return EvalReport(
            accuracy=correct / n,
            rmse=math.sqrt(sq / (n * k)),
            confusion=tuple(tuple(row) for row in confusion),
            classes=domain,
        )


def tree_counts(tree: TreeNode) -> tuple[int, int]:
    """The nodes and the leaves of ``tree``, counted in one walk."""
    leaves = [isinstance(node, Leaf) for node, _ in _preorder(tree)]
    return len(leaves), sum(leaves)


def count_nodes(tree: TreeNode) -> int:
    return tree_counts(tree)[0]


def count_leaves(tree: TreeNode) -> int:
    return tree_counts(tree)[1]


def collect_splits(tree: TreeNode) -> list[Split]:
    """All internal nodes in preorder."""
    return [node for node, _ in _preorder(tree) if isinstance(node, Split)]


# --- Entropy and split scoring ----------------------------------------------


def entropy(class_counts) -> float:
    """Shannon entropy in bits of a count vector, with 0*log0 = 0."""
    counts = list(class_counts)
    for c in counts:
        if c < 0:
            raise ValueError(f"counts must be nonnegative, got {c}")
    total = sum(counts)
    if total < 1:
        raise EmptyCounts("entropy needs at least one observation")
    return _entropy(counts, total)


def _entropy(counts, total) -> float:
    # fsum is correctly rounded, so the result is permutation-invariant
    h = math.fsum([(c / total) * math.log2(c / total) for c in counts if c])
    return -h if h else 0.0


def _split_score(parent_h, part_counts, n, criterion) -> float:
    """Score of splitting ``n`` rows of entropy ``parent_h`` into parts with
    the class counts ``part_counts``."""
    sizes = list(map(sum, part_counts))
    child_h = 0.0
    for counts, m in zip(part_counts, sizes):
        if m:
            child_h += (m / n) * _entropy(counts, m)
    gain = parent_h - child_h
    if criterion == GAIN:
        return gain
    split_info = _entropy(sizes, n)
    return gain / split_info if split_info > 0.0 else 0.0


class _Node:
    """A tree node's ``rows`` ascending, ``order[pos]`` the rows sorted by numeric
    attribute ``pos``, and their class ``counts`` and entropy ``h``."""

    def __init__(self, columns: "_Columns", rows: list[int], order: dict[int, list[int]]):
        self.columns, self.rows, self.order = columns, rows, order
        tally = Counter(map(columns.y.__getitem__, rows))
        self.counts = [tally[c] for c in range(columns.k)]
        self.h = _entropy(self.counts, len(rows))

    def child(self, members) -> "_Node":
        """The node of the rows ``members``; filtering keeps every order sorted."""
        keep = set(members).__contains__
        order = {pos: list(filter(keep, ids)) for pos, ids in self.order.items()}
        return _Node(self.columns, list(filter(keep, self.rows)), order)


class _Columns:
    """A dataset as columns: the class index ``y`` of each row and each
    attribute's ``values``. The rows of each numeric attribute are sorted by
    value once, stably, so equal values keep row order in every node."""

    def __init__(self, data: Dataset):
        klass = {c: i for i, c in enumerate(data.label.domain)}
        self.k = len(klass)
        self.y = [klass[inst.label] for inst in data.instances]
        self.values = list(zip(*(inst.values for inst in data.instances)))
        rows = list(range(len(self.y)))
        numeric = [pos for pos, spec in enumerate(data.attributes) if spec.kind == NUMERIC]
        order = {pos: sorted(rows, key=self.values[pos].__getitem__) for pos in numeric}
        self.root = _Node(self, rows, order)

    def best_split(self, node: _Node, pos: int, spec, criterion, min_leaf, threshold=None):
        """Best ``(score, threshold, cut)`` of splitting ``node`` on attribute
        ``pos``, where the first ``cut`` rows of ``node.order[pos]`` go left.

        Sweeps the node's sorted values with cumulative class counts over
        ``threshold`` or the ``numeric_candidates`` midpoints, skipping splits
        that leave a branch under ``min_leaf``. A sweep keeps the first score
        above 0.0, a lone split its own. A nominal split has no threshold or cut."""
        column, y, n = self.values[pos], self.y, len(node.rows)
        if spec.kind == NOMINAL:
            tally = Counter(zip(map(column.__getitem__, node.rows), map(y.__getitem__, node.rows)))
            parts = [[tally[v, c] for c in range(self.k)] for v in spec.domain]
            usable = min(map(sum, parts)) >= min_leaf
            return (_split_score(node.h, parts, n, criterion) if usable else 0.0), None, None
        ids = node.order[pos]
        values, classes = list(map(column.__getitem__, ids)), list(map(y.__getitem__, ids))
        best = (0.0 if threshold is None else -math.inf, None, None)
        thresholds = [threshold] if threshold is not None else _midpoints(values, classes)
        left, j = [0] * self.k, 0
        for t in thresholds:  # midpoints never decrease, so rows move left in one pass
            i, j = j, bisect_right(values, t, j)
            for c in classes[i:j]:
                left[c] += 1
            if min_leaf <= j <= n - min_leaf:
                right = [p - a for p, a in zip(node.counts, left)]
                score = _split_score(node.h, [left, right], n, criterion)
                if score > best[0]:
                    best = (score, t, j)
        return best


def _score_at(data: Dataset, attribute: str, threshold, criterion: str) -> float:
    if not data.instances:
        raise EmptyDataset(f"{criterion} needs a non-empty dataset")
    index = data.attribute_index(attribute)
    spec = data.attributes[index]
    if (spec.kind == NUMERIC) != (threshold is not None):
        raise BadThreshold(f"{attribute}: bad threshold {threshold!r} for a {spec.kind} attribute")
    columns = _Columns(data)
    return columns.best_split(columns.root, index, spec, criterion, 0, threshold)[0]


def info_gain(data: Dataset, attribute: str, threshold: float | None = None) -> float:
    """Entropy reduction of splitting ``data`` on the given attribute.

    A threshold putting all instances on one side is not an error; the
    gain is simply 0.
    """
    return _score_at(data, attribute, threshold, GAIN)


def gain_ratio(data: Dataset, attribute: str, threshold: float | None = None) -> float:
    """Information gain normalized by the entropy of the branch sizes.

    Returns 0 when the split information is 0 (all instances in one branch).
    """
    return _score_at(data, attribute, threshold, GAIN_RATIO)


def _midpoints(values, classes) -> list[float]:
    """The candidate rule, over ``values`` sorted ascending with their
    ``classes`` alongside: midpoints between consecutive distinct values whose
    class sets differ. Each distinct value is taken as it first appears."""
    distinct, sets, last = [], [], None
    for v, c in zip(values, classes):
        if v == last:
            run.add(c)
        else:
            last, run = v, {c}
            distinct.append(v)
            sets.append(run)
    return [(v1 + v2) / 2.0 for v1, v2, s1, s2 in zip(distinct, distinct[1:], sets, sets[1:]) if s1 != s2]


def numeric_candidates(instances, index) -> list[float]:
    """Candidate thresholds: midpoints between consecutive distinct values
    whose class sets differ."""
    ordered = sorted(instances, key=lambda inst: inst.values[index])
    return _midpoints([inst.values[index] for inst in ordered], [inst.label for inst in ordered])


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
    columns = _Columns(data)
    ranked = [
        (spec.name, columns.best_split(columns.root, pos, spec, criterion, 0)[0])
        for pos, spec in enumerate(data.attributes)
    ]
    return sorted(ranked, key=lambda t: -t[1])  # stable, so ties keep schema order


# --- Induction ----------------------------------------------------------------


def _majority(counts, domain) -> str:
    return domain[max(range(len(counts)), key=counts.__getitem__)]  # max keeps the first of ties


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
    columns = _Columns(data)

    def grow(node: _Node, depth) -> TreeNode:
        counts, n = node.counts, len(node.rows)
        best_score, best = 0.0, None
        if not (
            n < 2 * min_leaf
            or sum(1 for c in counts if c) == 1
            or (max_depth is not None and depth >= max_depth)
        ):
            for pos, spec in enumerate(data.attributes):
                score, t, cut = columns.best_split(node, pos, spec, criterion, min_leaf)
                if score > best_score:
                    best_score, best = score, (pos, spec, t, cut)
        if best is None:
            return Leaf(_majority(counts, domain), {c: counts[i] / n for i, c in enumerate(domain)}, n)
        pos, spec, t, cut = best
        if spec.kind == NUMERIC:
            ids = node.order[pos]
            le, gt = (grow(node.child(part), depth + 1) for part in (ids[:cut], ids[cut:]))
            return Split(spec.name, pos, threshold=t, le=le, gt=gt)
        column = columns.values[pos]
        members = {v: [i for i in node.rows if column[i] == v] for v in spec.domain}
        return Split(spec.name, pos, branches={v: grow(node.child(m), depth + 1) for v, m in members.items()})

    try:
        return grow(columns.root, 0)
    except RecursionError:
        raise TreeTooDeep("tree deeper than the recursion limit; a larger min_leaf keeps it shallower") from None


def predict(tree: TreeNode, instance) -> tuple[str, dict[str, float]]:
    """Route an instance to a leaf; returns (class, class distribution)."""
    values = instance.values if isinstance(instance, Instance) else tuple(instance)
    node = tree
    while isinstance(node, Split):
        if node.index >= len(values):
            raise SchemaMismatch(f"instance too short for attribute {node.attribute!r}")
        v = values[node.index]
        if node.threshold is not None:
            if not _is_number(v):
                raise SchemaMismatch(f"{node.attribute}: expected a number, got {v!r}")
            node = node.le if v <= node.threshold else node.gt
        else:
            if v not in node.branches:
                raise SchemaMismatch(f"{node.attribute}: no branch for {v!r}")
            node = node.branches[v]
    return node.label, dict(node.distribution)


# --- Rules ---------------------------------------------------------------------


@dataclass(frozen=True)
class Condition:
    attribute: str
    index: int
    op: str  # "<=", ">" or "="
    value: float | str

    def matches(self, values) -> bool:
        v = values[self.index]
        if self.op == "<=":
            return v <= self.value
        if self.op == ">":
            return v > self.value
        return v == self.value

    def text(self) -> str:
        value = repr(self.value) if isinstance(self.value, float) else str(self.value)
        return f"{self.attribute} {self.op} {value}"


@dataclass(frozen=True)
class Rule:
    """One root-to-leaf path as a conjunction of conditions."""

    conditions: tuple[Condition, ...]
    label: str
    coverage: int
    confidence: float

    def matches(self, instance) -> bool:
        values = instance.values if isinstance(instance, Instance) else tuple(instance)
        return all(c.matches(values) for c in self.conditions)

    def text(self, label_name: str = "class") -> str:
        if not self.conditions:
            return f"If true then {label_name} = {self.label}"
        conds = " and ".join(c.text() for c in self.conditions)
        return f"If {conds} then {label_name} = {self.label}"


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]

    def classify(self, instance) -> str:
        """Label of the first matching rule."""
        for rule in self.rules:
            if rule.matches(instance):
                return rule.label
        raise SchemaMismatch("no rule matched; rules are not from a complete tree")

    def to_text(self, label_name: str = "class") -> list[str]:
        return [rule.text(label_name) for rule in self.rules]


def _merge_conditions(conds: list[Condition]) -> tuple[Condition, ...]:
    # one condition per (attribute, op), where it first appears: <= keeps the smallest,
    # > the largest; an = is keyed by its value too, so only equal tests merge
    best: dict[tuple, Condition] = {}
    for c in conds:
        key = (c.index, c.op, c.value) if c.op == "=" else (c.index, c.op)
        if key not in best:
            best[key] = c
        elif c.op == "<=" and c.value < best[key].value:
            best[key] = c
        elif c.op == ">" and c.value > best[key].value:
            best[key] = c
    return tuple(best.values())


def extract_rules(tree: TreeNode) -> RuleSet:
    """One rule per leaf, in left-to-right leaf order.

    Conditions follow the root-to-leaf path with redundant bounds on the
    same attribute merged down to the tightest one, and equal tests into
    one; two values tested on one attribute both stay, so that rule matches
    no row. Coverage is the leaf's training count and confidence the leaf's
    majority-class fraction, so first-match classification over the rules
    reproduces the tree.
    """
    return _rules((node, conds) for node, conds in _preorder(tree) if isinstance(node, Leaf))


def _rules(paths) -> RuleSet:
    """The rule of each ``(leaf, conditions of its path)``, in the order given."""
    return RuleSet(tuple(
        Rule(_merge_conditions(conds), leaf.label, leaf.n, leaf.distribution[leaf.label])
        for leaf, conds in paths
    ))


# --- Evaluation ------------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    """Accuracy, probability RMSE and a true-by-predicted confusion matrix."""

    accuracy: float
    rmse: float
    confusion: tuple[tuple[int, ...], ...]
    classes: tuple[str, ...]


def evaluate(tree: TreeNode, test: Dataset) -> EvalReport:
    """Score a tree on a labeled dataset.

    RMSE compares each leaf's class distribution against the one-hot
    truth, averaged over all N*K prediction-class pairs, K being the full
    label domain size. The tree is checked against the test set's schema
    once, up front, and raises SchemaMismatch where a node does not fit it;
    the set's rows, already checked by :class:`Dataset`, then route unchecked.
    """
    table = NodeTable(tree, test.attributes, test.label)
    return table.evaluate(tables.chunks(inst.values + (inst.label,) for inst in test.instances))


def split_dataset(data: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic stratified train/test split.

    The train size is round(N * fraction). Each class contributes its
    proportional share, remainders going to the classes with the largest
    fractional quota (ties by label declaration order). Selection within
    a class is a seeded PCG64 permutation, so a given seed always yields
    the same split. Both halves preserve the original instance order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise InvalidFraction(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(data.instances)
    if n == 0:
        raise EmptyDataset("split_dataset needs a non-empty dataset")
    n_train = int(math.floor(n * train_fraction + 0.5))

    by_class: dict[str, list[int]] = {c: [] for c in data.label.domain}
    for i, inst in enumerate(data.instances):
        by_class[inst.label].append(i)

    quotas = {c: len(idx) * n_train / n for c, idx in by_class.items() if idx}
    alloc = {c: int(math.floor(q)) for c, q in quotas.items()}
    extra = n_train - sum(alloc.values())
    candidates = sorted(
        (c for c in quotas if alloc[c] < len(by_class[c])),
        key=lambda c: (-(quotas[c] - alloc[c]), data.label.domain.index(c)),
    )
    for c in candidates[:extra]:
        alloc[c] += 1

    rng = Generator(seed)
    train_idx: set[int] = set()
    for c in data.label.domain:
        idx = by_class[c]
        if not idx:
            continue
        perm = rng.permutation(len(idx))
        train_idx.update(idx[p] for p in perm[: alloc[c]])

    train = [inst for i, inst in enumerate(data.instances) if i in train_idx]
    test = [inst for i, inst in enumerate(data.instances) if i not in train_idx]
    return data.with_instances(train), data.with_instances(test)


# --- Serialization -----------------------------------------------------------------


def tree_to_json(tree: TreeNode) -> dict:
    if isinstance(tree, Leaf):
        return {
            "type": "leaf",
            "class": tree.label,
            "n": tree.n,
            "distribution": dict(tree.distribution),
        }
    if tree.threshold is not None:
        return {
            "type": "split",
            "attribute": tree.attribute,
            "index": tree.index,
            "threshold": tree.threshold,
            "le": tree_to_json(tree.le),
            "gt": tree_to_json(tree.gt),
        }
    return {
        "type": "split",
        "attribute": tree.attribute,
        "index": tree.index,
        "branches": {v: tree_to_json(c) for v, c in tree.branches.items()},
    }


def tree_from_json(obj: dict) -> TreeNode:
    if obj["type"] == "leaf":
        return Leaf(label=obj["class"], distribution=dict(obj["distribution"]), n=obj["n"])
    if "threshold" in obj:
        return Split(
            attribute=obj["attribute"],
            index=obj["index"],
            threshold=obj["threshold"],
            le=tree_from_json(obj["le"]),
            gt=tree_from_json(obj["gt"]),
        )
    return Split(
        attribute=obj["attribute"],
        index=obj["index"],
        branches={v: tree_from_json(c) for v, c in obj["branches"].items()},
    )


def schema_to_json(attributes, label: AttributeSpec) -> dict:
    columns = []
    for spec in list(attributes) + [label]:
        col = {"name": spec.name, "kind": spec.kind}
        if spec.kind == NOMINAL:
            col["domain"] = list(spec.domain)
        columns.append(col)
    return {"columns": columns, "label": label.name}


def schema_from_json(obj) -> tuple[tuple[AttributeSpec, ...], AttributeSpec]:
    """Attributes and label of a schema document. SchemaMismatch unless it is a dict
    with a ``label`` and ``columns``, each with a unique ``name`` and a ``kind``, and
    the label's column is nominal."""
    try:
        label_name = obj["label"]
        columns = obj["columns"]
        specs = [AttributeSpec(c["name"], c["kind"], tuple(c.get("domain", ()))) for c in columns]
        names = {spec.name for spec in specs}
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise SchemaMismatch(f"malformed schema: {type(exc).__name__}: {exc}") from None
    label = [spec for spec in specs if spec.name == label_name and spec.kind == NOMINAL]
    if len(names) != len(specs) or len(label) != 1:
        raise SchemaMismatch(
            f"schema needs unique column names and a nominal column for label {label_name!r}"
        )
    return tuple(spec for spec in specs if spec is not label[0]), label[0]


MODEL_FORMAT = "sacmine-tree"
MODEL_VERSION = 1


def model_text(tree: TreeNode, attributes, label: AttributeSpec) -> str:
    """The text of the model file of ``tree`` and its schema."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "schema": schema_to_json(attributes, label),
        "tree": tree_to_json(tree),
    }
    return json.dumps(doc, indent=2) + "\n"


def save_model(tree: TreeNode, attributes, label: AttributeSpec, path) -> None:
    Path(path).write_text(model_text(tree, attributes, label), encoding="utf-8")


def load_model(path) -> tuple[TreeNode, tuple[AttributeSpec, ...], AttributeSpec]:
    """The tree, attributes and label of a model file, as :meth:`NodeTable.load` reads them."""
    table = NodeTable.load(path)
    return table.root, table.attributes, table.label


# --- Dataset CSV with sidecar schema ------------------------------------------------


def default_schema_path(csv_path) -> Path:
    # As with_suffix, except that an empty name gives a path that fails to open, not a ValueError.
    return Path(csv_path).parent / f"{Path(csv_path).stem}.schema.json"


def write_dataset(data: Dataset, fh, schema_fh) -> None:
    """Write ``data``'s rows to the text file ``fh`` and its schema to ``schema_fh``."""
    schema_fh.write(json.dumps(schema_to_json(data.attributes, data.label), indent=2) + "\n")
    tables.write(fh, [[a.name for a in data.attributes] + [data.label.name]])
    tables.write(fh, (inst.values + (inst.label,) for inst in data.instances))


def write_dataset_csv(data: Dataset, csv_path) -> None:
    """Write ``data`` to ``csv_path`` and its sidecar schema beside it."""
    with open(csv_path, "w", newline="", encoding="utf-8") as fh, open(
        default_schema_path(csv_path), "w", encoding="utf-8"
    ) as schema_fh:
        write_dataset(data, fh, schema_fh)


def _read_schema(schema_path: Path) -> tuple[tuple[AttributeSpec, ...], AttributeSpec]:
    """The attributes and label of the sidecar schema at ``schema_path``."""
    try:
        return schema_from_json(json.loads(schema_path.read_text(encoding="utf-8")))
    except (SchemaMismatch, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise SchemaMismatch(f"{schema_path}: {exc}") from None


def _schema_rows(csv_path, attributes, label=None):
    """Chunks of the rows of the CSV at ``csv_path``, each a tuple of its cells
    in ``attributes`` order, then ``label``'s if given, numeric cells as finite
    floats, checked by :meth:`tables.Table.rows` and cut by :func:`tables.chunks`.
    Given a label, the CSV must have exactly those columns; without one, other
    columns are ignored. A nominal cell or the label outside its domain raises
    what :class:`Dataset` raises for it, with the ``file:line`` of its row."""
    specs = [*attributes, label] if label is not None else list(attributes)
    numeric = {i: float for i, spec in enumerate(specs) if spec.kind == NUMERIC}
    nominal = {i: set(spec.domain) for i, spec in enumerate(specs) if spec.kind == NOMINAL}

    def check(cells):
        for i, domain in nominal.items():
            if cells[i] not in domain:
                raise _outside_domain(specs[i], cells[i], specs[i] is label)

    with tables.read(Path(csv_path)) as table:
        if label is not None and len(table.header) != len(specs):
            raise MissingHeader(f"expected the columns {[spec.name for spec in specs]}")
        yield from tables.chunks(table.rows([spec.name for spec in specs], numeric, nominal, check))


def read_dataset_csv(csv_path) -> Dataset:
    """Load a labeled dataset and its sidecar schema, <name>.schema.json."""
    attributes, label = _read_schema(default_schema_path(csv_path))
    rows = chain.from_iterable(_schema_rows(csv_path, attributes, label))
    return Dataset(attributes, label, (Instance(row[:-1], row[-1]) for row in rows))


def labelled_rows(csv_path, attributes, label):
    """The rows of a dataset CSV, a chunk at a time, to be scored by a model of
    schema ``attributes`` and ``label``, checked as :class:`Dataset` checks them.

    The sidecar schema must declare the model's columns, by name, with the
    same kinds and domains; each row's cells follow the model's column
    order, the label last.
    """
    schema_path = default_schema_path(csv_path)
    sidecar_attributes, sidecar_label = _read_schema(schema_path)
    if sidecar_label != label or set(sidecar_attributes) != set(attributes):
        raise SchemaMismatch(f"{schema_path}: columns do not match the model schema")
    return _schema_rows(csv_path, attributes, label)


def instance_rows(csv_path, attributes):
    """Unlabeled rows for prediction, a chunk of tuples at a time, checked as
    :class:`Dataset` checks them; any label column is ignored."""
    return _schema_rows(csv_path, attributes)


def read_instances_csv(csv_path, attributes) -> list[tuple]:
    """All the rows of :func:`instance_rows` as one list."""
    return list(chain.from_iterable(instance_rows(csv_path, attributes)))
