import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from sacmine.dtree import (
    GAIN,
    GAIN_RATIO,
    AttributeSpec,
    Dataset,
    Instance,
    Leaf,
    RuleSet,
    Split,
    build_tree,
    collect_splits,
    count_leaves,
    count_nodes,
    entropy,
    evaluate,
    extract_rules,
    gain_ratio,
    info_gain,
    numeric_candidates,
    predict,
    rank_attributes,
    read_dataset_csv,
    split_dataset,
    tree_from_json,
    tree_to_json,
    write_dataset_csv,
)
from sacmine.errors import (
    BadThreshold,
    EmptyCounts,
    EmptyDataset,
    InvalidFraction,
    SchemaMismatch,
    UnknownAttribute,
)
from sacmine.synthgen import generate_rule_labeled_dataset

RULE_THRESHOLDS = [88.9, 79.6, 69.2, 59.8, 47.5]


# --- independent brute-force oracle ------------------------------------------


def oracle_entropy_of_counts(counts):
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c > 0:
            h -= (c / total) * math.log2(c / total)
    return h


def oracle_partitions(data, attribute, threshold):
    idx = [a.name for a in data.attributes].index(attribute)
    spec = data.attributes[idx]
    if spec.kind == "numeric":
        return [
            [i for i in data.instances if i.values[idx] <= threshold],
            [i for i in data.instances if i.values[idx] > threshold],
        ]
    return [[i for i in data.instances if i.values[idx] == v] for v in spec.domain]


def oracle_gain(data, attribute, threshold=None):
    parts = oracle_partitions(data, attribute, threshold)
    n = len(data.instances)
    parent = oracle_entropy_of_counts(Counter(i.label for i in data.instances).values())
    child = 0.0
    for p in parts:
        if p:
            child += (len(p) / n) * oracle_entropy_of_counts(
                Counter(i.label for i in p).values()
            )
    return parent - child


def oracle_gain_ratio(data, attribute, threshold=None):
    parts = oracle_partitions(data, attribute, threshold)
    si = oracle_entropy_of_counts([len(p) for p in parts])
    if si == 0.0:
        return 0.0
    return oracle_gain(data, attribute, threshold) / si


def random_dataset(rng, max_instances=12, max_attributes=3, max_classes=4):
    n_attr = rng.randint(1, max_attributes)
    specs = []
    for i in range(n_attr):
        if rng.random() < 0.5:
            specs.append(AttributeSpec(f"num{i}", "numeric"))
        else:
            domain = tuple(f"v{j}" for j in range(rng.randint(2, 3)))
            specs.append(AttributeSpec(f"nom{i}", "nominal", domain))
    classes = tuple(f"c{j}" for j in range(rng.randint(2, max_classes)))
    label = AttributeSpec("label", "nominal", classes)
    instances = []
    for _ in range(rng.randint(1, max_instances)):
        values = tuple(
            rng.choice([0.0, 1.5, 2.0, 3.25, 7.0]) if s.kind == "numeric" else rng.choice(s.domain)
            for s in specs
        )
        instances.append(Instance(values, rng.choice(classes)))
    return Dataset(tuple(specs), label, tuple(instances))


# --- entropy -----------------------------------------------------------------


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([5, 5]) == pytest.approx(1.0, abs=1e-12)

    def test_pure(self):
        assert entropy([10, 0]) == 0.0

    def test_uniform_four_class(self):
        assert entropy([1, 1, 1, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_empty_counts(self):
        with pytest.raises(EmptyCounts):
            entropy([])
        with pytest.raises(EmptyCounts):
            entropy([0, 0])

    def test_permutation_invariant_and_bounded(self):
        rng = random.Random(5)
        for _ in range(50):
            counts = [rng.randint(0, 9) for _ in range(rng.randint(1, 5))]
            if sum(counts) == 0:
                counts[0] = 1
            h = entropy(counts)
            shuffled = counts[:]
            rng.shuffle(shuffled)
            assert entropy(shuffled) == h
            k = sum(1 for c in counts if c)
            assert 0.0 <= h <= math.log2(max(k, 1)) + 1e-12


# --- gain and gain ratio -------------------------------------------------------


def two_column_dataset(rows, classes=("a", "b")):
    specs = (AttributeSpec("x", "numeric"), AttributeSpec("g", "nominal", ("u", "v")))
    label = AttributeSpec("label", "nominal", classes)
    return Dataset(specs, label, tuple(Instance((x, g), c) for x, g, c in rows))


class TestGain:
    def test_independent_attribute_has_zero_gain(self):
        data = two_column_dataset(
            [(1.0, "u", "a"), (1.0, "u", "b"), (2.0, "v", "a"), (2.0, "v", "b")]
        )
        assert info_gain(data, "x", 1.5) == pytest.approx(0.0, abs=1e-12)
        assert info_gain(data, "g") == pytest.approx(0.0, abs=1e-12)

    def test_perfect_split_gains_full_entropy(self):
        rows = [(float(i), "u", "a" if i < 4 else "b") for i in range(8)]
        data = two_column_dataset(rows)
        assert info_gain(data, "x", 3.5) == pytest.approx(
            entropy([4, 4]), abs=1e-12
        )

    def test_one_sided_threshold_is_not_an_error(self):
        data = two_column_dataset([(1.0, "u", "a"), (2.0, "v", "b")])
        assert info_gain(data, "x", 99.0) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_attribute(self):
        data = two_column_dataset([(1.0, "u", "a")])
        with pytest.raises(UnknownAttribute):
            info_gain(data, "nope", 1.0)

    def test_threshold_arity_enforced(self):
        data = two_column_dataset([(1.0, "u", "a"), (2.0, "v", "b")])
        with pytest.raises(BadThreshold):
            info_gain(data, "x")
        with pytest.raises(BadThreshold):
            info_gain(data, "g", 1.0)

    def test_matches_oracle_on_random_datasets(self):
        rng = random.Random(42)
        for _ in range(60):
            data = random_dataset(rng)
            for spec in data.attributes:
                if spec.kind == "numeric":
                    idx = [a.name for a in data.attributes].index(spec.name)
                    thresholds = numeric_candidates(data.instances, idx) + [1.0]
                    for t in thresholds:
                        assert info_gain(data, spec.name, t) == pytest.approx(
                            oracle_gain(data, spec.name, t), abs=1e-9
                        )
                        assert gain_ratio(data, spec.name, t) == pytest.approx(
                            oracle_gain_ratio(data, spec.name, t), abs=1e-9
                        )
                else:
                    assert info_gain(data, spec.name) == pytest.approx(
                        oracle_gain(data, spec.name), abs=1e-9
                    )
                    assert gain_ratio(data, spec.name) == pytest.approx(
                        oracle_gain_ratio(data, spec.name), abs=1e-9
                    )

    def test_gain_is_nonnegative(self):
        rng = random.Random(7)
        for _ in range(40):
            data = random_dataset(rng)
            for spec in data.attributes:
                if spec.kind == "numeric":
                    assert info_gain(data, spec.name, 1.9) >= -1e-15
                else:
                    assert info_gain(data, spec.name) >= -1e-15


class TestGainRatio:
    def test_even_binary_split_equals_gain(self):
        rows = [(float(i), "u", "a" if i < 4 else "b") for i in range(8)]
        data = two_column_dataset(rows)
        g = info_gain(data, "x", 3.5)
        assert gain_ratio(data, "x", 3.5) == pytest.approx(g, abs=1e-12)

    def test_one_sided_split_is_zero(self):
        data = two_column_dataset([(1.0, "u", "a"), (2.0, "v", "b")])
        assert gain_ratio(data, "x", 99.0) == 0.0


class TestRank:
    def test_single_attribute(self):
        specs = (AttributeSpec("only", "numeric"),)
        label = AttributeSpec("label", "nominal", ("a", "b"))
        data = Dataset(specs, label, (Instance((1.0,), "a"), Instance((2.0,), "b")))
        assert rank_attributes(data)[0][0] == "only"

    def test_informative_attribute_ranks_first(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        for criterion in (GAIN, GAIN_RATIO):
            ranking = rank_attributes(data, criterion)
            assert ranking[0][0] == "attend_avg"
            assert ranking[0][1] > ranking[1][1]

    def test_identical_columns_tie_by_declaration_order(self):
        specs = (AttributeSpec("x1", "numeric"), AttributeSpec("x2", "numeric"))
        label = AttributeSpec("label", "nominal", ("a", "b"))
        rows = [(0.0, 0.0, "a"), (1.0, 1.0, "a"), (2.0, 2.0, "b"), (3.0, 3.0, "b")]
        data = Dataset(specs, label, tuple(Instance((x1, x2), c) for x1, x2, c in rows))
        ranking = rank_attributes(data)
        assert [name for name, _ in ranking] == ["x1", "x2"]
        assert ranking[0][1] == ranking[1][1]

    def test_empty_dataset(self):
        specs = (AttributeSpec("x", "numeric"),)
        label = AttributeSpec("label", "nominal", ("a",))
        with pytest.raises(EmptyDataset):
            rank_attributes(Dataset(specs, label, ()))


# --- induction -----------------------------------------------------------------


class TestBuildTree:
    def test_pure_dataset_is_single_leaf(self):
        data = two_column_dataset([(1.0, "u", "a"), (2.0, "v", "a"), (3.0, "u", "a")])
        tree = build_tree(data)
        assert isinstance(tree, Leaf)
        assert tree.label == "a"
        assert tree.n == 3

    @pytest.mark.parametrize("criterion", [GAIN, GAIN_RATIO])
    def test_recovers_step_function_structure(self, criterion):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        tree = build_tree(data, criterion=criterion)
        assert count_leaves(tree) == 6
        assert count_nodes(tree) == 11
        splits = collect_splits(tree)
        assert {s.attribute for s in splits} == {"attend_avg"}
        recovered = sorted(s.threshold for s in splits)
        for got, want in zip(recovered, sorted(RULE_THRESHOLDS)):
            assert got == pytest.approx(want, abs=0.5)

    def test_depth_cap(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        tree = build_tree(data, max_depth=1)
        assert count_nodes(tree) == 3
        assert count_leaves(tree) == 2

    def test_instance_order_invariance(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 40, seed=3)
        base = json.dumps(tree_to_json(build_tree(data)))
        rng = random.Random(11)
        for _ in range(5):
            shuffled = list(data.instances)
            rng.shuffle(shuffled)
            permuted = data.with_instances(shuffled)
            assert json.dumps(tree_to_json(build_tree(permuted))) == base

    def test_min_leaf_coverage(self):
        rng = random.Random(13)
        for _ in range(30):
            data = random_dataset(rng, max_instances=20)
            min_leaf = rng.randint(1, 4)
            tree = build_tree(data, min_leaf=min_leaf)
            leaves = []

            def walk(node):
                if isinstance(node, Leaf):
                    leaves.append(node)
                elif node.threshold is not None:
                    walk(node.le)
                    walk(node.gt)
                else:
                    for child in node.branches.values():
                        walk(child)

            walk(tree)
            if isinstance(tree, Leaf) and len(data.instances) < 2 * min_leaf:
                continue
            for leaf in leaves:
                assert leaf.n >= min_leaf

    def test_leaf_distribution_sums_to_one(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 30, seed=5)
        tree = build_tree(data)

        def walk(node):
            if isinstance(node, Leaf):
                assert sum(node.distribution.values()) == pytest.approx(1.0, abs=1e-9)
            else:
                walk(node.le)
                walk(node.gt)

        walk(tree)

    def test_empty_dataset(self):
        specs = (AttributeSpec("x", "numeric"),)
        label = AttributeSpec("label", "nominal", ("a",))
        with pytest.raises(EmptyDataset):
            build_tree(Dataset(specs, label, ()))

    def test_nominal_split_used_when_informative(self):
        specs = (AttributeSpec("g", "nominal", ("u", "v")),)
        label = AttributeSpec("label", "nominal", ("a", "b"))
        rows = [("u", "a")] * 4 + [("v", "b")] * 4
        data = Dataset(specs, label, tuple(Instance((g,), c) for g, c in rows))
        tree = build_tree(data)
        assert isinstance(tree, Split)
        assert set(tree.branches) == {"u", "v"}
        assert predict(tree, ("u",))[0] == "a"
        assert predict(tree, ("v",))[0] == "b"

    def test_equal_split_scores_take_first_declared_attribute(self):
        specs = (AttributeSpec("x1", "numeric"), AttributeSpec("x2", "numeric"))
        label = AttributeSpec("label", "nominal", ("a", "b"))
        rows = [(0.0, 0.0, "a"), (1.0, 1.0, "a"), (2.0, 2.0, "b"), (3.0, 3.0, "b")]
        data = Dataset(specs, label, tuple(Instance((x1, x2), c) for x1, x2, c in rows))
        tree = build_tree(data)
        assert isinstance(tree, Split)
        assert tree.attribute == "x1"


class TestPredict:
    def test_single_leaf_predicts_its_class(self):
        leaf = Leaf("a", {"a": 1.0, "b": 0.0}, 5)
        assert predict(leaf, (123.0,))[0] == "a"

    def test_step_tree_extremes(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        tree = build_tree(data)
        assert predict(tree, (90.0, 5, "1"))[0] == "10"
        assert predict(tree, (40.0, 5, "1"))[0] == "5"

    def test_schema_mismatch(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        tree = build_tree(data)
        with pytest.raises(SchemaMismatch):
            predict(tree, ())
        with pytest.raises(SchemaMismatch):
            predict(tree, ("not-a-number", 5, "1"))
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(SchemaMismatch):
                predict(tree, (value, 5, "1"))
            with pytest.raises(SchemaMismatch):
                data.with_instances([Instance((value, 5, "1"), "5")])

    @pytest.mark.parametrize(
        "values, label, message",
        [((90.0, 5), "5", "instance has 2 values, schema has 3"),
         ((90.0, 5, "3"), "5", "sem_no: '3' not in domain ('1', '2')"),
         ((90.0, 5, "1"), "11", "label '11' not in ('1', '2', '3', '4', '5', '6', '7', '8', '9', '10')")],
        ids=["short-row", "nominal-value", "label"],
    )
    def test_a_dataset_built_in_code_checks_each_instance(self, values, label, message):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        with pytest.raises(SchemaMismatch) as caught:
            Dataset(data.attributes, data.label, (Instance(values, label),))
        assert str(caught.value) == message


    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: AttributeSpec("x", "ordinal"), "x: kind must be numeric or nominal"),
            (lambda: AttributeSpec("g", "nominal"), "g: nominal attribute needs a domain"),
            (lambda: AttributeSpec("g", "nominal", ("u", "u")), "g: domain values must be unique"),
            (lambda: AttributeSpec("x", "numeric", ("u",)), "x: numeric attribute takes no domain"),
            (lambda: Dataset((AttributeSpec("x", "numeric"),), AttributeSpec("x", "nominal", ("a",))),
             "duplicate column names: ['x', 'x']"),
            (lambda: Dataset((AttributeSpec("x", "numeric"),), AttributeSpec("y", "numeric")),
             "label must be nominal"),
        ],
        ids=["unknown-kind", "nominal-without-domain", "repeated-domain-value", "numeric-with-domain",
             "repeated-column-name", "numeric-label"],
    )
    def test_a_schema_built_in_code_is_checked(self, build, message):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: entropy([3, -1]), ValueError, "counts must be nonnegative, got -1"),
            (lambda: info_gain(label_only_dataset([], ("a",)), "x", 1.0), EmptyDataset,
             "gain needs a non-empty dataset"),
            (lambda: build_tree(label_only_dataset(["a"], ("a",)), criterion="gini"), ValueError,
             "criterion must be one of ('gain', 'gain_ratio'), got 'gini'"),
            (lambda: predict(Split("g", 0, branches={"u": Leaf("a", {"a": 1.0}, 1)}), ("v",)),
             SchemaMismatch, "g: no branch for 'v'"),
            (lambda: RuleSet(()).classify((1.0,)), SchemaMismatch,
             "no rule matched; rules are not from a complete tree"),
            (lambda: split_dataset(label_only_dataset([], ("a",)), 0.5, seed=0), EmptyDataset,
             "split_dataset needs a non-empty dataset"),
        ],
        ids=["negative-count", "gain-of-nothing", "unknown-criterion", "no-branch", "no-rule-matches",
             "split-of-nothing"],
    )
    def test_library_calls_reject_bad_arguments(self, call, error, message):
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == message


# --- rules -----------------------------------------------------------------------


class TestRules:
    def test_single_leaf_gives_unconditional_rule(self):
        ruleset = extract_rules(Leaf("a", {"a": 1.0}, 9))
        (rule,) = ruleset.rules
        assert rule.conditions == ()
        assert rule.label == "a"
        assert rule.coverage == 9
        assert rule.confidence == 1.0
        assert rule.text("y") == "If true then y = a"

    def test_step_tree_rules(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        tree = build_tree(data)
        ruleset = extract_rules(tree)
        assert len(ruleset.rules) == 6
        thresholds = sorted({c.value for r in ruleset.rules for c in r.conditions})
        assert len(thresholds) == 5
        for got, want in zip(thresholds, sorted(RULE_THRESHOLDS)):
            assert got == pytest.approx(want, abs=0.5)

    def test_first_match_agrees_with_predict(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        tree = build_tree(data)
        ruleset = extract_rules(tree)
        for inst in data.instances:
            assert ruleset.classify(inst) == predict(tree, inst)[0]

    def test_redundant_bounds_merged_to_tightest(self):
        inner = Split(
            attribute="x",
            index=0,
            threshold=9.0,
            le=Leaf("b", {"a": 0.0, "b": 1.0}, 2),
            gt=Leaf("c", {"a": 0.0, "c": 1.0}, 2),
        )
        tree = Split(
            attribute="x",
            index=0,
            threshold=5.0,
            le=Leaf("a", {"a": 1.0}, 2),
            gt=inner,
        )
        rules = extract_rules(tree).rules
        deep = rules[2]
        assert deep.label == "c"
        assert deep.conditions == tuple(
            [c for c in deep.conditions if c.op == ">"]
        )  # the le-bound chain collapsed away entirely for the gt-gt path
        (cond,) = deep.conditions
        assert (cond.op, cond.value) == (">", 9.0)
        middle = rules[1]
        ops = [(c.op, c.value) for c in middle.conditions]
        assert ops == [(">", 5.0), ("<=", 9.0)]

    def test_a_nominal_attribute_tested_twice_keeps_both_values(self):
        # load_model accepts this tree: each split has one branch per domain value.
        # The path a = x, a = y reaches a leaf no row reaches, so its rule must
        # match nothing, and first-match then agrees with predict on every row.
        leaf = {c: Leaf(c, {c: 1.0}, 1) for c in "pqr"}
        tree = Split("a", 0, branches={"x": Split("a", 0, branches={"x": leaf["p"], "y": leaf["q"]}),
                                      "y": leaf["r"]})
        ruleset = extract_rules(tree)
        assert ruleset.to_text("cls") == [
            "If a = x then cls = p", "If a = x and a = y then cls = q", "If a = y then cls = r"
        ]
        for value in "xy":
            assert ruleset.classify((value,)) == predict(tree, (value,))[0]

    def test_rule_text_format(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        lines = extract_rules(build_tree(data)).to_text("SAC_Strength")
        assert lines[-1].startswith("If attend_avg > ")
        assert lines[-1].endswith("then SAC_Strength = 10")

    def test_rules_are_faithful_on_random_datasets(self):
        # first-match classification must reproduce predict for any tree,
        # including nominal branches and merged numeric bounds
        rng = random.Random(21)
        for _ in range(25):
            data = random_dataset(rng, max_instances=20)
            tree = build_tree(data, min_leaf=rng.randint(1, 3))
            ruleset = extract_rules(tree)
            assert len(ruleset.rules) == count_leaves(tree)
            for inst in data.instances:
                assert ruleset.classify(inst) == predict(tree, inst)[0]

    def test_nominal_condition_renders_with_equals(self):
        specs = (AttributeSpec("g", "nominal", ("u", "v")),)
        label = AttributeSpec("label", "nominal", ("a", "b"))
        rows = [("u", "a")] * 3 + [("v", "b")] * 3
        data = Dataset(specs, label, tuple(Instance((g,), c) for g, c in rows))
        lines = extract_rules(build_tree(data)).to_text("label")
        assert lines == ["If g = u then label = a", "If g = v then label = b"]


# --- evaluation ---------------------------------------------------------------------


def label_only_dataset(labels, classes):
    specs = (AttributeSpec("x", "numeric"),)
    label = AttributeSpec("label", "nominal", classes)
    return Dataset(
        specs, label, tuple(Instance((float(i),), c) for i, c in enumerate(labels))
    )


class TestEvaluate:
    def test_perfect_tree(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        tree = build_tree(data)
        report = evaluate(tree, data)
        assert report.accuracy == 1.0
        assert report.rmse == 0.0
        total = sum(sum(row) for row in report.confusion)
        diag = sum(report.confusion[i][i] for i in range(len(report.classes)))
        assert total == 59
        assert diag == 59

    def test_tied_leaf_hand_computed(self):
        # one instance, true class "a", leaf predicts the tie-break class "a"
        # with distribution (0.5, 0.5): accuracy 1, rmse sqrt((0.25+0.25)/2)
        tree = Leaf("a", {"a": 0.5, "b": 0.5}, 2)
        data = label_only_dataset(["a"], ("a", "b"))
        report = evaluate(tree, data)
        assert report.accuracy == 1.0
        assert report.rmse == pytest.approx(0.5, abs=1e-12)

    def test_ten_instance_manual_oracle(self):
        # distribution (0.75, 0.25) leaf for x <= 4.5, (0.2, 0.8) above;
        # 10 instances, hand-counted: 7 correct, rmse from the raw formula
        tree = Split(
            attribute="x",
            index=0,
            threshold=4.5,
            le=Leaf("a", {"a": 0.75, "b": 0.25}, 4),
            gt=Leaf("b", {"a": 0.2, "b": 0.8}, 5),
        )
        labels = ["a", "a", "b", "a", "a", "b", "b", "a", "b", "b"]
        data = label_only_dataset(labels, ("a", "b"))
        report = evaluate(tree, data)
        # x = 0..4 -> le leaf predicts a (true: a,a,b,a,a -> 4 correct)
        # x = 5..9 -> gt leaf predicts b (true: b,b,a,b,b -> 4 correct)
        assert report.accuracy == pytest.approx(0.8, abs=1e-12)
        sq = 0.0
        for i, true in enumerate(labels):
            dist = {"a": 0.75, "b": 0.25} if i <= 4 else {"a": 0.2, "b": 0.8}
            for cls in ("a", "b"):
                sq += (dist[cls] - (1.0 if cls == true else 0.0)) ** 2
        assert report.rmse == pytest.approx(math.sqrt(sq / (10 * 2)), abs=1e-12)
        assert report.confusion == ((4, 1), (1, 4))

    def test_empty_test_set(self):
        tree = Leaf("a", {"a": 1.0}, 1)
        with pytest.raises(EmptyDataset):
            evaluate(tree, label_only_dataset([], ("a",)))


class TestSplitDataset:
    def test_59_at_70_percent(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        train, test = split_dataset(data, 0.70, seed=1)
        assert len(train.instances) == 41
        assert len(test.instances) == 18

    def test_two_classes_one_each_side(self):
        data = label_only_dataset(["a", "b"], ("a", "b"))
        train, test = split_dataset(data, 0.5, seed=0)
        assert len(train.instances) == 1
        assert len(test.instances) == 1
        assert train.instances[0].label != test.instances[0].label

    def test_same_seed_same_split(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        a = split_dataset(data, 0.70, seed=9)
        b = split_dataset(data, 0.70, seed=9)
        assert a[0].instances == b[0].instances
        assert a[1].instances == b[1].instances

    def test_stratification_tracks_class_shares(self):
        labels = ["a"] * 30 + ["b"] * 20 + ["c"] * 10
        data = label_only_dataset(labels, ("a", "b", "c"))
        train, _ = split_dataset(data, 0.5, seed=4)
        counts = Counter(i.label for i in train.instances)
        assert counts == {"a": 15, "b": 10, "c": 5}

    def test_invalid_fraction(self):
        data = label_only_dataset(["a", "b"], ("a", "b"))
        for f in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InvalidFraction):
                split_dataset(data, f, seed=0)


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        tree = build_tree(data)
        doc = json.dumps(tree_to_json(tree))
        again = json.dumps(tree_to_json(tree_from_json(json.loads(doc))))
        assert again == doc

    def test_a_dataset_of_float64_values_reads_back_as_written(self, tmp_path):
        # numpy's float64 is a float, so a Dataset takes it; the CSV must hold its plain digits.
        specs = (AttributeSpec("x", "numeric"), AttributeSpec("g", "nominal", ("u", "v")))
        label = AttributeSpec("label", "nominal", ("a", "b"))
        values = [np.float64(1.5), np.float64(0.1), np.float64(5e-324), np.float64(1.7976931348623157e308)]
        data = Dataset(specs, label, tuple(Instance((v, "uv"[i % 2]), "ab"[i % 2]) for i, v in enumerate(values)))
        write_dataset_csv(data, tmp_path / "d.csv")
        assert read_dataset_csv(tmp_path / "d.csv") == data

    def test_nominal_tree_round_trip(self):
        specs = (AttributeSpec("g", "nominal", ("u", "v")),)
        label = AttributeSpec("label", "nominal", ("a", "b"))
        rows = [("u", "a")] * 3 + [("v", "b")] * 3
        data = Dataset(specs, label, tuple(Instance((g,), c) for g, c in rows))
        tree = build_tree(data)
        restored = tree_from_json(tree_to_json(tree))
        assert restored == tree
