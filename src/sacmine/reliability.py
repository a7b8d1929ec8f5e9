"""Internal-consistency reliability of SAC scores via Cronbach's alpha.

The panel has one row per module and one column per academic year; the
years play the role of test items and the modules the role of subjects.
Alpha is (k/(k-1)) * (1 - sum_of_item_variances / variance_of_row_totals).

Variance sums use math.fsum, so results are exactly invariant under row
and column permutations of the panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import tables
from .errors import DegeneratePanel, MissingHeader, SchemaMismatch, TooFewValues

POPULATION = "population"
SAMPLE = "sample"
#: Sample variances for the year columns, population variance for the
#: totals. Mathematically inconsistent, but it is the convention under
#: which published SAC reliability tables were computed, so it is kept
#: as an explicitly labeled mode. Alpha under any *consistent* estimator
#: is the same for both, since the ddof factors cancel.
MIXED = "paper-mixed"

ESTIMATORS = (POPULATION, SAMPLE, MIXED)


def _check_row(code: str, row, k: int) -> None:
    """Raise ValueError unless ``row`` holds ``k`` SAC values, each in [0, 1]."""
    if len(row) != k:
        raise ValueError(f"{code}: row has {len(row)} cells, expected {k}")
    for v in row:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{code}: SAC value {v} outside [0, 1]")


@dataclass(frozen=True)
class SacPanel:
    """Complete modules-by-years matrix of SAC values in [0, 1]."""

    module_codes: tuple[str, ...]
    year_labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "module_codes", tuple(self.module_codes))
        object.__setattr__(self, "year_labels", tuple(self.year_labels))
        object.__setattr__(self, "values", tuple(tuple(row) for row in self.values))
        if len(self.module_codes) < 2:
            raise ValueError("panel needs at least 2 modules")
        if len(self.year_labels) < 2:
            raise ValueError("panel needs at least 2 years")
        if len(self.values) != len(self.module_codes):
            raise ValueError("one row per module required")
        for code, row in zip(self.module_codes, self.values):
            _check_row(code, row, len(self.year_labels))

    @property
    def m(self) -> int:
        return len(self.module_codes)

    @property
    def k(self) -> int:
        return len(self.year_labels)


@dataclass(frozen=True)
class AlphaBreakdown:
    """Alpha plus every intermediate the formula consumed."""

    per_item_variance: tuple[float, ...]
    sum_item_variance: float
    total_score_variance: float
    alpha: float
    estimator: str
    m: int

    @property
    def k(self) -> int:
        return len(self.per_item_variance)


def column_variance(values, estimator: str = POPULATION) -> float:
    """Variance of a list of reals; population divides by n, sample by n-1."""
    values = list(values)
    n = len(values)
    if n < 2:
        raise TooFewValues(f"variance needs at least 2 values, got {n}")
    if estimator not in (POPULATION, SAMPLE):
        raise ValueError(f"estimator must be population or sample, got {estimator!r}")
    mean = math.fsum(values) / n
    ss = math.fsum((v - mean) ** 2 for v in values)
    return ss / n if estimator == POPULATION else ss / (n - 1)


def cronbach_alpha(panel: SacPanel, estimator: str = POPULATION) -> AlphaBreakdown:
    """Cronbach's alpha of a SAC panel, years as items, modules as subjects.

    ``estimator`` selects the variance convention: population or sample,
    applied to both the per-year variances and the total-score variance,
    or :data:`MIXED` which pairs sample items with a population total.

    Raises:
        DegeneratePanel: when every module has the same row total, so the
            total-score variance is zero and alpha is undefined.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    item_est = SAMPLE if estimator == MIXED else estimator
    total_est = POPULATION if estimator == MIXED else estimator

    per_item = tuple(
        column_variance((row[j] for row in panel.values), item_est)
        for j in range(panel.k)
    )
    totals = [math.fsum(row) for row in panel.values]
    total_var = column_variance(totals, total_est)
    if total_var == 0.0:
        raise DegeneratePanel("all module totals identical; alpha undefined")
    k = panel.k
    sum_items = math.fsum(per_item)
    alpha = (k / (k - 1)) * (1.0 - sum_items / total_var)
    return AlphaBreakdown(
        per_item_variance=per_item,
        sum_item_variance=sum_items,
        total_score_variance=total_var,
        alpha=alpha,
        estimator=estimator,
        m=panel.m,
    )


def read_panel_csv(path) -> SacPanel:
    """Load a panel CSV: header ``module_code,<year1>,<year2>,...``."""
    rows: dict[str, tuple[float, ...]] = {}
    with tables.read(Path(path)) as table:
        years = table.header[1:]
        if table.header[:1] != ("module_code",) or len(years) < 2:
            raise MissingHeader("expected header module_code,<year1>,<year2>,...")
        numeric = dict.fromkeys(range(1, len(table.header)), float)
        for code, *values in table.rows(table.header, numeric):
            if code in rows:
                raise SchemaMismatch(f"duplicate module row {code}")
            _check_row(code, values, len(years))
            rows[code] = tuple(values)
    try:
        return SacPanel(tuple(rows), years, tuple(rows.values()))
    except ValueError as exc:  # too few modules: no line to name, so name the file
        raise ValueError(f"{path}: {exc}") from None


def breakdown_to_json(breakdown: AlphaBreakdown) -> dict:
    """Stable JSON-ready mapping of an alpha breakdown."""
    return {
        "per_item_variance": list(breakdown.per_item_variance),
        "sum_item_variance": breakdown.sum_item_variance,
        "total_score_variance": breakdown.total_score_variance,
        "alpha": breakdown.alpha,
        "estimator": breakdown.estimator,
        "k": breakdown.k,
        "m": breakdown.m,
    }
