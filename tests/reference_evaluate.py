"""Reference prediction and evaluation for the compiled-tree tests.

One nested walk per row and one loop over rows, as the library scored a
tree before it was compiled to a node table. ``NodeTable.route`` must
reach the same leaf, and ``evaluate`` must return an equal report, bit
for bit. Only the tree node types and the report come from the library.
"""

from __future__ import annotations

import math

from sacmine.dtree import Dataset, EvalReport, Leaf, TreeNode


def leaf_of(tree: TreeNode, values) -> Leaf:
    """The leaf a row of values reaches: ``<=`` goes left, a nominal value to its branch."""
    node = tree
    while not isinstance(node, Leaf):
        v = values[node.index]
        if node.threshold is not None:
            node = node.le if v <= node.threshold else node.gt
        else:
            node = node.branches[v]
    return node


def evaluate(tree: TreeNode, test: Dataset) -> EvalReport:
    domain = test.label.domain
    pos = {c: i for i, c in enumerate(domain)}
    k = len(domain)
    confusion = [[0] * k for _ in range(k)]
    correct = 0
    sq = 0.0
    for inst in test.instances:
        leaf = leaf_of(tree, inst.values)
        label, dist = leaf.label, dict(leaf.distribution)
        confusion[pos[inst.label]][pos[label]] += 1
        if label == inst.label:
            correct += 1
        for c in domain:
            truth = 1.0 if c == inst.label else 0.0
            sq += (dist.get(c, 0.0) - truth) ** 2
    n = len(test.instances)
    return EvalReport(
        accuracy=correct / n,
        rmse=math.sqrt(sq / (n * k)),
        confusion=tuple(tuple(row) for row in confusion),
        classes=domain,
    )
