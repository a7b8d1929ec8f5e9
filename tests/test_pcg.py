"""sacmine's pinned PCG64 stream equals numpy's ``Generator(PCG64(seed))``.

numpy is needed only here, from the test extra: every draw sacmine makes
comes from :mod:`sacmine._pcg`, and these tests hold it to numpy's, draw
for draw, over any interleaving of the four draws it implements.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sacmine._pcg import Generator

SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**200),
)

# integers(low, low + span): a span of 1 draws nothing, and 2**32 - 1 and
# 2**32 sit either side of the edge between the 32-bit and 64-bit branches
SPANS = st.one_of(
    st.sampled_from([1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64]),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64),
)


@st.composite
def calls(draw):
    """One draw's method name and arguments."""
    kind = draw(st.sampled_from(["random", "uniform", "integers", "permutation"]))
    if kind == "uniform":
        low = draw(st.floats(-1e6, 1e6))
        return kind, (low, low + draw(st.floats(0, 1e6)))
    if kind == "integers":
        span = draw(SPANS)
        low = draw(st.integers(-(2**63), 2**63 - span))
        return kind, (low, low + span)
    if kind == "permutation":
        return kind, (draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 300))),)
    return kind, ()


def as_python(value):
    return np.asarray(value).tolist()


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, drawn=st.lists(calls(), max_size=60))
def test_every_draw_equals_numpys(seed, drawn):
    ours, numpys = Generator(seed), np.random.Generator(np.random.PCG64(seed))
    for kind, args in drawn:
        mine, theirs = getattr(ours, kind)(*args), as_python(getattr(numpys, kind)(*args))
        assert (type(mine), mine) == (type(theirs), theirs), (kind, args)


def test_a_permutation_of_zero_or_one_draws_nothing():
    for n, perm in ((0, []), (1, [0])):
        ours, numpys = Generator(7), np.random.Generator(np.random.PCG64(7))
        assert ours.permutation(n) == perm == numpys.permutation(n).tolist()
        assert ours.random() == numpys.random()


@pytest.mark.parametrize(
    "kind, args",
    [("uniform", (2.0, 1.0)), ("uniform", (0.0, float("inf"))), ("uniform", (0.0, float("nan"))),
     ("integers", (3, 3)), ("integers", (-(2**63) - 1, 0)), ("integers", (0, 2**63 + 1))],
    ids=["uniform-reversed", "uniform-infinite", "uniform-nan",
         "integers-empty", "integers-low-out-of-int64", "integers-high-out-of-int64"],
)
def test_bad_bounds_raise_what_numpy_raises(kind, args):
    with pytest.raises(Exception) as theirs:
        getattr(np.random.Generator(np.random.PCG64(1)), kind)(*args)
    with pytest.raises(theirs.type, match=f"^{theirs.value}$"):
        getattr(Generator(1), kind)(*args)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_a_seed_that_is_not_a_non_negative_int_raises_as_numpys_does(seed):
    with pytest.raises(Exception) as theirs:
        np.random.PCG64(seed)
    with pytest.raises(theirs.type):
        Generator(seed)
