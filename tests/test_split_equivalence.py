"""The sort-once split search equals the repartitioning reference bit for bit.

Results are compared as JSON text, so -0.0 against 0.0 or a last-bit
difference in a score fails.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_dtree as ref
from sacmine import dtree
from sacmine.dtree import AttributeSpec, Dataset, Instance

# few distinct values, so neighbouring rows tie often, with point masses at
# 0 and 100 as in attendance averages; ints and floats mix on purpose
NUMERIC_VALUES = st.one_of(
    st.sampled_from([0, 0.0, 100, 100.0]),
    st.integers(0, 8).map(lambda i: i * 12.5),
    st.integers(0, 100),
)


@st.composite
def datasets(draw):
    kinds = draw(st.lists(st.sampled_from(["numeric", "nominal"]), min_size=1, max_size=3))
    specs = []
    for i, kind in enumerate(kinds):
        domain = ("x", "y", "z")[: draw(st.integers(2, 3))] if kind == "nominal" else ()
        specs.append(AttributeSpec(f"a{i}", kind, domain))
    label = AttributeSpec("label", "nominal", ("c0", "c1", "c2", "c3")[: draw(st.integers(2, 4))])
    columns = [NUMERIC_VALUES if s.kind == "numeric" else st.sampled_from(s.domain) for s in specs]
    row = st.tuples(st.tuples(*columns), st.sampled_from(label.domain))
    rows = draw(st.lists(row, min_size=1, max_size=40))
    return Dataset(specs, label, tuple(Instance(v, c) for v, c in rows))


def same(new, old) -> bool:
    return json.dumps(new) == json.dumps(old)


@settings(max_examples=300, deadline=None)
@given(
    data=datasets(),
    criterion=st.sampled_from(dtree.CRITERIA),
    min_leaf=st.integers(1, 3),
    max_depth=st.sampled_from([None, 2]),
)
def test_trees_and_rankings_match_reference(data, criterion, min_leaf, max_depth):
    new = dtree.build_tree(data, criterion=criterion, min_leaf=min_leaf, max_depth=max_depth)
    old = ref.build_tree(data, criterion=criterion, min_leaf=min_leaf, max_depth=max_depth)
    assert same(dtree.tree_to_json(new), dtree.tree_to_json(old))
    assert same(dtree.rank_attributes(data, criterion), ref.rank_attributes(data, criterion))


@settings(max_examples=300, deadline=None)
@given(data=datasets(), extra=st.lists(NUMERIC_VALUES, max_size=3))
def test_fixed_threshold_scores_match_reference(data, extra):
    for pos, spec in enumerate(data.attributes):
        if spec.kind == "numeric":
            thresholds = ref.numeric_candidates(data.instances, pos) + [float(t) for t in extra]
        else:
            thresholds = [None]
        for t in thresholds:
            assert same(dtree.info_gain(data, spec.name, t), ref.info_gain(data, spec.name, t))
            assert same(dtree.gain_ratio(data, spec.name, t), ref.gain_ratio(data, spec.name, t))


def test_rounding_below_zero_is_reported_as_computed():
    # an uninformative split can score a few ulps below 0; a lone split keeps
    # that score, while a candidate sweep starts from 0.0
    label = AttributeSpec("label", "nominal", ("c0", "c1", "c2"))
    num = Dataset(
        (AttributeSpec("a", "numeric"),),
        label,
        [Instance((int(v),), f"c{c}") for v, c in zip("02312022113331232003", "21101101210122210011")],
    )
    nom = Dataset(
        (AttributeSpec("a", "nominal", ("x", "y", "z")),),
        label,
        [Instance((v,), f"c{c}") for v, c in zip("yzyxzyyyxzyzzxzyyzzx", "01000001001001000100")],
    )
    for new, old in (
        (dtree.gain_ratio(num, "a", 0.5), ref.gain_ratio(num, "a", 0.5)),
        (dtree.info_gain(nom, "a"), ref.info_gain(nom, "a")),
        (dtree.rank_attributes(nom, dtree.GAIN), ref.rank_attributes(nom, dtree.GAIN)),
    ):
        assert same(new, old)
    assert dtree.gain_ratio(num, "a", 0.5) < 0.0
    assert dtree.rank_attributes(nom, dtree.GAIN)[0][1] < 0.0
