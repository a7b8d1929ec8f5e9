"""The single winner map in ``clean_events`` against the grouping reference.

Both must return equal event lists and equal cleaning reports for any
mix of exact duplicates and conflicts, whatever order the rows come in.
"""

import itertools

from hypothesis import given, settings, strategies as st

import reference_ingest as ref
from sacmine.ingest import AttendanceEvent, clean_events

KEYS = st.tuples(
    st.sampled_from(["s1", "s2", "s10"]),
    st.sampled_from(["M1", "M2"]),
    st.sampled_from([1, 2]),
    st.integers(1, 3),
)


def assert_same_as_reference(events):
    assert clean_events(events) == ref.clean_events(events)


def test_every_status_order_up_to_three_rows_per_key():
    for n in (1, 2, 3):
        for statuses in itertools.product([False, True], repeat=n):
            events = [AttendanceEvent("s1", "M1", 1, 1, present) for present in statuses]
            assert_same_as_reference(events)
            assert_same_as_reference(events + [AttendanceEvent("s2", "M1", 1, 1, True)])


@settings(max_examples=300)
@given(st.lists(st.tuples(KEYS, st.lists(st.booleans(), min_size=1, max_size=4)), max_size=20), st.randoms())
def test_shuffled_duplicates_and_conflicts(groups, rnd):
    events = [AttendanceEvent(*key, present) for key, statuses in groups for present in statuses]
    rnd.shuffle(events)
    assert_same_as_reference(events)
