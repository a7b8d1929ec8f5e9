"""Seeded synthetic fixtures: attendance event logs and rule-labeled datasets.

All randomness comes from numpy's PCG64 bit generator seeded from the
parameters, so a given parameter set always produces byte-identical
output, on any platform. PCG64 is the frozen choice; changing it would
invalidate every golden fixture.
"""

from __future__ import annotations

import csv
import io
import numbers
from dataclasses import dataclass

from .dtree import AttributeSpec, Dataset, Instance
from .errors import InvalidParams, InvalidThresholds
from .ingest import EVENTS_HEADER


@dataclass(frozen=True)
class GenParams:
    """Knobs for the event-log generator.

    Each module draws its enrolment from ``registered_range``, a
    per-week probability of the instructor taking attendance from
    ``taking_prob_range`` and a per-student presence probability from
    ``attend_prob_range``. On a taken week every enrolled student gets
    exactly one event, present or absent.
    """

    module_count: int
    weeks_total: int = 11
    registered_range: tuple[int, int] = (15, 60)
    attend_prob_range: tuple[float, float] = (0.3, 0.95)
    taking_prob_range: tuple[float, float] = (0.2, 1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.registered_range
        if self.module_count < 1:
            raise InvalidParams(f"module_count must be >= 1, got {self.module_count}")
        if self.weeks_total < 1:
            raise InvalidParams(f"weeks_total must be >= 1, got {self.weeks_total}")
        if not 1 <= lo <= hi:
            raise InvalidParams(f"registered_range must satisfy 1 <= lo <= hi, got {self.registered_range}")
        for name, (plo, phi) in (
            ("attend_prob_range", self.attend_prob_range),
            ("taking_prob_range", self.taking_prob_range),
        ):
            if not 0.0 <= plo <= phi <= 1.0:
                raise InvalidParams(f"{name} must be within [0, 1], got {(plo, phi)}")


def generate_events(params: GenParams) -> bytes:
    """Emit a synthetic events CSV as UTF-8 bytes.

    The output always parses and cleans with zero rejections: keys are
    unique by construction and every field is well formed.
    """
    import numpy as np  # here, not at the top: only gen and the split need numpy

    rng = np.random.Generator(np.random.PCG64(params.seed))
    lo, hi = params.registered_range
    plo, phi = params.attend_prob_range
    qlo, qhi = params.taking_prob_range

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EVENTS_HEADER)
    for m in range(params.module_count):
        module_code = f"MOD{m + 1:03d}"
        semester = int(rng.integers(1, 3))
        registered = int(rng.integers(lo, hi + 1))
        q = float(rng.uniform(qlo, qhi))
        p = float(rng.uniform(plo, phi))
        for week in range(1, params.weeks_total + 1):
            if rng.random() >= q:
                continue
            for s in range(registered):
                status = "present" if rng.random() < p else "absent"
                writer.writerow([f"stu{m + 1:03d}_{s + 1:03d}", module_code, semester, week, status])
    return buf.getvalue().encode("utf-8")


#: Default half-width of the exclusion zone around each rule threshold.
DEFAULT_MARGIN = 0.5


def generate_rule_labeled_dataset(
    thresholds: list[float],
    n: int,
    seed: int,
    margin: float = DEFAULT_MARGIN,
) -> Dataset:
    """Dataset whose label is a step function of the attendance average.

    ``thresholds`` must be a list of numbers (a bool is not one), strictly
    decreasing within (0, 100); the bands they cut out of [0, 100] get the
    top strength classes downward, so five thresholds yield classes 10
    through 5. Values are sampled at least ``margin`` away from every
    threshold, and each band's extreme points sit exactly at the margin so
    a learner can place its split midpoints right on the generating
    thresholds. Bands are filled round robin, which guarantees every class
    occurs once n reaches the band count. Noise columns (attendance-taken
    count, semester) are appended.
    """
    if n < 1:
        raise InvalidThresholds(f"n must be >= 1, got {n}")
    if not isinstance(thresholds, (list, tuple)):
        raise InvalidThresholds(f"thresholds must be a list of numbers, got {thresholds!r}")
    if not thresholds:
        raise InvalidThresholds("need at least one threshold")
    if len(thresholds) > 9:
        raise InvalidThresholds("at most 9 thresholds fit the 10 strength classes")
    if margin <= 0:
        raise InvalidThresholds(f"margin must be positive, got {margin}")
    for t in thresholds:
        if isinstance(t, bool) or not isinstance(t, numbers.Real):
            raise InvalidThresholds(f"threshold {t!r} is not a number")
        if not 0.0 < t < 100.0:
            raise InvalidThresholds(f"threshold {t} outside (0, 100)")
    for t1, t2 in zip(thresholds, thresholds[1:]):
        if t1 <= t2:
            raise InvalidThresholds(f"thresholds must be strictly decreasing, got {t1} <= {t2}")

    # sampling bands, top class first: [lo, hi] at least margin from thresholds
    edges = [100.0] + list(thresholds) + [0.0]
    bands: list[tuple[float, float, str]] = []
    for i in range(len(edges) - 1):
        hi = edges[i] if i == 0 else edges[i] - margin
        lo = edges[i + 1] if i == len(edges) - 2 else edges[i + 1] + margin
        if lo >= hi:
            raise InvalidThresholds(
                f"margin {margin} leaves no room between {edges[i + 1]} and {edges[i]}"
            )
        bands.append((lo, hi, str(10 - i)))

    def label_for(value: float) -> str:
        for rank, t in enumerate(thresholds):
            if value > t:
                return str(10 - rank)
        return str(10 - len(thresholds))

    import numpy as np  # here, not at the top: only gen and the split need numpy

    rng = np.random.Generator(np.random.PCG64(seed))
    instances = []
    for i in range(n):
        lo, hi, _ = bands[i % len(bands)]
        pass_no = i // len(bands)
        if pass_no == 0:
            avg = lo
        elif pass_no == 1:
            avg = hi
        else:
            avg = float(rng.uniform(lo, hi))
        taken = int(rng.integers(1, 12))
        sem = str(int(rng.integers(1, 3)))
        instances.append(Instance((avg, taken, sem), label_for(avg)))

    attributes = (
        AttributeSpec("attend_avg", "numeric"),
        AttributeSpec("attend_taken", "numeric"),
        AttributeSpec("sem_no", "nominal", ("1", "2")),
    )
    label = AttributeSpec("SAC_Strength", "nominal", tuple(str(c) for c in range(1, 11)))
    return Dataset(attributes, label, tuple(instances))
