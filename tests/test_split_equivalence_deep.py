"""The presorted split search equals the repartitioning reference on deep trees.

``test_split_equivalence`` draws at most 40 rows from a few values. Here
datasets have up to 300 rows of 2-decimal values, so a tree partitions the
presorted row lists many levels down. Each numeric column also holds pairs
of adjacent floats, whose midpoint can round onto the upper value, and
mixes ``0``/``0.0`` and ``100``/``100.0``. Results are compared as JSON
text, so a last-bit difference in a score or threshold fails.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_dtree as ref
from sacmine import dtree
from sacmine.dtree import AttributeSpec, Dataset, Instance

MASSES = (0, 0.0, 100, 100.0)


def numeric_pool(rng) -> list:
    """Values for one numeric column: 2-decimal floats, each with the next float
    above it, a few whole numbers as ints, and the masses at 0 and 100."""
    bases = [rng.randint(0, 10000) / 100 for _ in range(rng.randint(1, 40))]
    adjacent = [math.nextafter(b, math.inf) for b in bases[: rng.randint(0, len(bases))]]
    whole = [int(b) for b in bases if rng.random() < 0.2]
    return bases + adjacent + whole + list(MASSES)


@st.composite
def datasets(draw):
    rng = draw(st.randoms(use_true_random=False))
    kinds = draw(st.lists(st.sampled_from(["numeric", "numeric", "nominal"]), min_size=1, max_size=3))
    specs = [
        AttributeSpec(f"a{i}", kind, ("x", "y", "z")[: rng.randint(2, 3)] if kind == "nominal" else ())
        for i, kind in enumerate(kinds)
    ]
    label = AttributeSpec("label", "nominal", ("c0", "c1", "c2", "c3")[: draw(st.integers(2, 4))])
    pools = [numeric_pool(rng) if s.kind == "numeric" else list(s.domain) for s in specs]
    # labels follow the first column, with some noise, so splits find gain at every depth
    noise = rng.random()
    rows = []
    for _ in range(draw(st.integers(1, 300) | st.integers(200, 300))):
        values = tuple(rng.choice(pool) for pool in pools)
        k = len(label.domain)
        first = values[0]
        signal = int(first // 10) % k if specs[0].kind == "numeric" else specs[0].domain.index(first) % k
        rows.append(Instance(values, label.domain[rng.randrange(k) if rng.random() < noise else signal]))
    return Dataset(specs, label, tuple(rows))


def same(new, old) -> bool:
    return json.dumps(new) == json.dumps(old)


@settings(max_examples=60, deadline=None)
@given(
    data=datasets(),
    criterion=st.sampled_from(dtree.CRITERIA),
    min_leaf=st.integers(1, 3),
    max_depth=st.sampled_from([None, 3]),
)
def test_deep_trees_and_rankings_match_reference(data, criterion, min_leaf, max_depth):
    new = dtree.build_tree(data, criterion=criterion, min_leaf=min_leaf, max_depth=max_depth)
    old = ref.build_tree(data, criterion=criterion, min_leaf=min_leaf, max_depth=max_depth)
    assert same(dtree.tree_to_json(new), dtree.tree_to_json(old))
    assert same(dtree.rank_attributes(data, criterion), ref.rank_attributes(data, criterion))


@settings(max_examples=60, deadline=None)
@given(data=datasets(), rng=st.randoms(use_true_random=False))
def test_fixed_threshold_scores_match_reference(data, rng):
    for pos, spec in enumerate(data.attributes):
        if spec.kind == "numeric":
            candidates = ref.numeric_candidates(data.instances, pos)
            assert same(dtree.numeric_candidates(data.instances, pos), candidates)
            values = sorted({inst.values[pos] for inst in data.instances})
            thresholds = rng.sample(candidates, min(8, len(candidates)))
            thresholds += rng.sample(values, min(4, len(values))) + [-1.0, 50.0, 101.0]
        else:
            thresholds = [None]
        for t in thresholds:
            assert same(dtree.info_gain(data, spec.name, t), ref.info_gain(data, spec.name, t))
            assert same(dtree.gain_ratio(data, spec.name, t), ref.gain_ratio(data, spec.name, t))


def test_a_midpoint_that_rounds_onto_the_upper_value_puts_it_left():
    # v + nextafter(v) lies halfway between two floats and rounds to even: down
    # to 2v when v's last bit is 0, up otherwise, so the midpoint is v or its
    # neighbour. When it is the neighbour, that value is <= t and goes left.
    label = AttributeSpec("label", "nominal", ("c0", "c1"))
    for low in (0.5, math.nextafter(0.5, math.inf), 73.3, math.nextafter(73.3, math.inf)):
        high = math.nextafter(low, math.inf)
        rows = [Instance((x,), c) for x, c in [(low, "c0"), (high, "c1"), (80.0, "c0"), (low, "c0")]]
        data = Dataset((AttributeSpec("a", "numeric"),), label, rows)
        for criterion in dtree.CRITERIA:
            new = dtree.build_tree(data, criterion=criterion, min_leaf=1)
            old = ref.build_tree(data, criterion=criterion, min_leaf=1)
            assert same(dtree.tree_to_json(new), dtree.tree_to_json(old))
            assert new.threshold == (low + high) / 2.0
    assert (0.5 + math.nextafter(0.5, math.inf)) / 2.0 == 0.5
    odd = math.nextafter(0.5, math.inf)
    assert (odd + math.nextafter(odd, math.inf)) / 2.0 == math.nextafter(odd, math.inf)
