"""The compiled node table routes and scores rows as the nested tree does.

Random trees mix numeric and nominal splits, and may be a single leaf.
Numeric values are drawn mostly from the trees' own thresholds, so many
rows sit exactly on a ``<=`` edge. ``NodeTable.route`` must reach the leaf
that the nested walk of ``tests/reference_evaluate.py`` reaches, and
``predict`` must agree with it; ``evaluate`` must return the reference
loop's report, RMSE bit for bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_evaluate import evaluate as reference_evaluate
from reference_evaluate import leaf_of
from sacmine.dtree import (
    AttributeSpec,
    Dataset,
    Instance,
    Leaf,
    NodeTable,
    Split,
    collect_splits,
    count_leaves,
    count_nodes,
    evaluate,
    extract_rules,
    predict,
)
from sacmine.errors import SchemaMismatch

ATTRIBUTES = (
    AttributeSpec("x", "numeric"),
    AttributeSpec("kind", "nominal", ("a", "b", "c")),
    AttributeSpec("y", "numeric"),
    AttributeSpec("sem", "nominal", ("1", "2")),
)
LABEL = AttributeSpec("cls", "nominal", ("lo", "mid", "hi"))
THRESHOLDS = (-1.5, 0.0, 0.1, 2.5, 7.0)
NUMBERS = st.sampled_from(THRESHOLDS) | st.floats(-3.0, 8.0) | st.integers(-3, 8)
LO = Leaf("lo", {"lo": 1.0}, 1)
HI = Leaf("hi", {"hi": 1.0}, 1)


@st.composite
def leaves(draw):
    weights = draw(st.lists(st.integers(0, 5), min_size=3, max_size=3).filter(any))
    total = sum(weights)
    dist = {c: w / total for c, w in zip(LABEL.domain, weights) if w or draw(st.booleans())}
    return Leaf(max(dist, key=dist.get), dist, total)


def splits(children):
    numeric = st.builds(
        lambda pos, t, le, gt: Split(ATTRIBUTES[pos].name, pos, threshold=t, le=le, gt=gt),
        st.sampled_from([0, 2]), st.sampled_from(THRESHOLDS), children, children,
    )
    nominal = st.sampled_from([1, 3]).flatmap(
        lambda pos: st.lists(
            children, min_size=len(ATTRIBUTES[pos].domain), max_size=len(ATTRIBUTES[pos].domain)
        ).map(
            lambda kids: Split(
                ATTRIBUTES[pos].name, pos, branches=dict(zip(ATTRIBUTES[pos].domain, kids))
            )
        )
    )
    return numeric | nominal


TREES = st.recursive(leaves(), splits, max_leaves=24)
ROWS = st.lists(
    st.tuples(NUMBERS, st.sampled_from(ATTRIBUTES[1].domain), NUMBERS, st.sampled_from(("1", "2"))),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(tree=TREES, rows=ROWS)
def test_table_routes_every_row_to_the_nested_leaf(tree, rows):
    table = NodeTable(tree, ATTRIBUTES, LABEL)
    reached = [table.leaves[j] for j in table.route(rows)]
    for row, leaf in zip(rows, reached):
        assert leaf is leaf_of(tree, row)
        assert predict(tree, row) == (leaf.label, leaf.distribution)
    assert count_leaves(tree) == len(table.leaves)
    assert count_nodes(tree) == len(table.leaves) + len(collect_splits(tree))


@settings(max_examples=300, deadline=None)
@given(tree=TREES, rows=ROWS, data=st.data())
def test_evaluate_equals_the_per_row_loop(tree, rows, data):
    labels = st.lists(st.sampled_from(LABEL.domain), min_size=len(rows), max_size=len(rows))
    test = Dataset(ATTRIBUTES, LABEL, map(Instance, rows, data.draw(labels)))
    assert evaluate(tree, test) == reference_evaluate(tree, test)


def test_a_leaf_root_sends_every_row_to_it():
    leaf = Leaf("mid", {"mid": 1.0}, 3)
    table = NodeTable(leaf, ATTRIBUTES, LABEL)
    assert table.route([(0.0, "a", 0.0, "1"), (9.0, "c", -2.0, "2")]) == [0, 0]
    assert table.leaves == [leaf]


def test_value_on_the_threshold_goes_left():
    table = NodeTable(Split("x", 0, threshold=2.5, le=LO, gt=HI), ATTRIBUTES, LABEL)
    assert [table.leaves[j] for j in table.route([(2.5,), (2.5000000000000004,)])] == [LO, HI]


@pytest.mark.parametrize(
    "tree",
    [
        Split("x", 0, branches={"a": LO}),
        Split("kind", 1, threshold=1.0, le=LO, gt=HI),
        Split("y", 0, threshold=1.0, le=LO, gt=HI),
        Split("x", 7, threshold=1.0, le=LO, gt=HI),
        Leaf("top", {"top": 1.0}, 1),
        Leaf("lo", {"lo": 1.0}, True),
        Leaf("lo", {"lo": 1.0}, -4),
        Leaf("lo", {"lo": 7.5, "hi": -2.0}, 3),
    ],
    ids=["nominal-split-on-a-number", "numeric-split-on-a-nominal", "name-unlike-index",
         "index-beyond-schema", "class-outside-label", "bool-count", "negative-count",
         "probability-outside-0-1"],
)
def test_compiling_against_a_schema_rejects_a_node_that_does_not_fit(tree):
    with pytest.raises(SchemaMismatch):
        NodeTable(tree, ATTRIBUTES, LABEL)


def test_evaluate_rejects_up_front_a_split_that_does_not_fit_the_schema():
    tree = Split("kind", 1, branches={"a": LO})
    rows = [(0.0, "a", 0.0, "1"), (0.0, "b", 0.0, "1")]
    test = Dataset(ATTRIBUTES, LABEL, [Instance(row, "lo") for row in rows])
    with pytest.raises(SchemaMismatch, match="split on 'kind' does not fit the schema"):
        evaluate(tree, test)


@pytest.mark.parametrize(
    "tree, message",
    [
        # Routed unchecked, this split reads x's column: accuracy 1.0 where y gives 0.0.
        (Split("y", 0, threshold=1.0, le=LO, gt=HI), "split on 'y' does not fit the schema"),
        # Routed unchecked, this leaf's class would escape as a KeyError.
        (Leaf("zz", {"zz": 1.0}, 1), "leaf 'zz' does not fit label 'cls'"),
    ],
    ids=["split-name-unlike-its-index", "leaf-class-outside-label"],
)
def test_evaluate_checks_the_tree_against_the_test_schema(tree, message):
    rows = [(0.0, "a", 5.0, "1"), (2.0, "b", -5.0, "2")]
    test = Dataset(ATTRIBUTES, LABEL, [Instance(rows[0], "lo"), Instance(rows[1], "hi")])
    with pytest.raises(SchemaMismatch, match=message):
        evaluate(tree, test)


def test_a_tree_deeper_than_the_recursion_limit_is_walked_without_recursion():
    # A chain of 1,500 splits: x <= i goes to a leaf, x > i one level down.
    depth = 1500
    tree = Leaf("hi", {"hi": 1.0}, 1)
    for i in reversed(range(depth)):
        label = LABEL.domain[i % 3]
        tree = Split("x", 0, threshold=float(i), le=Leaf(label, {label: 1.0}, 1), gt=tree)
    table = NodeTable(tree, ATTRIBUTES, LABEL)
    assert len(collect_splits(tree)) == depth and len(table.leaves) == depth + 1
    assert count_nodes(tree) == 2 * depth + 1
    assert [s.threshold for s in collect_splits(tree)] == [float(i) for i in range(depth)]
    rules = extract_rules(tree)
    assert len(rules.rules) == depth + 1
    rows = [(x, "a", 0.0, "1") for x in (-1.0, 0.0, 0.5, 700.5, 1498.5, 1499.0, 1499.5)]
    for row in rows:
        assert rules.classify(row) == predict(tree, row)[0] == leaf_of(tree, row).label
    assert [table.leaves[j] for j in table.route(rows)] == [leaf_of(tree, row) for row in rows]
    test = Dataset(ATTRIBUTES, LABEL, [Instance(row, "lo") for row in rows])
    assert evaluate(tree, test) == reference_evaluate(tree, test)


def test_a_leaf_shared_by_two_branches_routes_and_counts_at_each_place():
    shared = Leaf("mid", {"mid": 0.5, "lo": 0.5}, 2)
    tree = Split("x", 0, threshold=2.5, le=shared, gt=Split("y", 2, threshold=0.0, le=LO, gt=shared))
    table = NodeTable(tree, ATTRIBUTES, LABEL)
    assert table.leaves == [shared, LO, shared]
    assert (count_nodes(tree), count_leaves(tree)) == (5, 3)
    rows = [(1.0, "a", 5.0, "1"), (3.0, "a", -1.0, "1"), (3.0, "b", 1.0, "2")]
    assert [table.leaves[j] for j in table.route(rows)] == [shared, LO, shared]
    assert [r.label for r in extract_rules(tree).rules] == ["mid", "lo", "mid"]
    test = Dataset(ATTRIBUTES, LABEL, [Instance(row, "mid") for row in rows])
    assert evaluate(tree, test) == reference_evaluate(tree, test)
