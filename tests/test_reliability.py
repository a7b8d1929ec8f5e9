import math
import re

import pytest

from sacmine import fixtures
from sacmine.errors import DegeneratePanel, TooFewValues
from sacmine.reliability import (
    MIXED,
    POPULATION,
    SAMPLE,
    SacPanel,
    breakdown_to_json,
    column_variance,
    cronbach_alpha,
    read_panel_csv,
)


@pytest.fixture(scope="module")
def panel():
    return read_panel_csv(fixtures.path(fixtures.PANEL))


class TestColumnVariance:
    def test_constant_list_is_zero(self):
        assert column_variance([0.5, 0.5, 0.5]) == 0.0

    def test_two_point_hand_values(self):
        assert column_variance([0, 1], POPULATION) == pytest.approx(0.25, abs=1e-12)
        assert column_variance([0, 1], SAMPLE) == pytest.approx(0.5, abs=1e-12)

    def test_panel_year_4_column_matches_printed_value(self, panel):
        # the 2013/14 column of the reference panel prints as 0.019
        col = [row[3] for row in panel.values]
        assert column_variance(col, SAMPLE) == pytest.approx(0.019, abs=0.002)

    def test_too_few_values(self):
        with pytest.raises(TooFewValues):
            column_variance([1.0])

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError):
            column_variance([0, 1], "paper-mixed")


class TestCronbachAlpha:
    def test_reference_panel_mixed_mode(self, panel):
        b = cronbach_alpha(panel, MIXED)
        assert b.alpha == pytest.approx(0.815, abs=0.01)
        assert b.sum_item_variance == pytest.approx(0.063, abs=0.003)
        assert b.total_score_variance == pytest.approx(0.180, abs=0.005)
        assert b.k == 5
        assert b.m == 10

    def test_alpha_is_exactly_its_own_formula(self, panel):
        for estimator in (POPULATION, SAMPLE, MIXED):
            b = cronbach_alpha(panel, estimator)
            expected = (b.k / (b.k - 1)) * (1 - b.sum_item_variance / b.total_score_variance)
            assert b.alpha == expected

    def test_consistent_estimators_agree(self, panel):
        # the ddof factors cancel, so population and sample give one alpha
        assert cronbach_alpha(panel, POPULATION).alpha == pytest.approx(
            cronbach_alpha(panel, SAMPLE).alpha, abs=1e-12
        )

    def test_constant_rows_give_alpha_one(self):
        panel = SacPanel(
            ("A", "B", "C"),
            ("y1", "y2", "y3", "y4"),
            ((0.2,) * 4, (0.5,) * 4, (0.9,) * 4),
        )
        assert cronbach_alpha(panel, POPULATION).alpha == pytest.approx(1.0, abs=1e-9)
        assert cronbach_alpha(panel, SAMPLE).alpha == pytest.approx(1.0, abs=1e-9)

    def test_rejects_unknown_estimator(self, panel):
        with pytest.raises(ValueError, match="estimator must be one of"):
            cronbach_alpha(panel, "median")

    def test_fully_constant_panel_is_degenerate(self):
        panel = SacPanel(("A", "B"), ("y1", "y2"), ((0.4, 0.4), (0.4, 0.4)))
        with pytest.raises(DegeneratePanel):
            cronbach_alpha(panel)

    def test_row_and_column_permutation_invariance(self, panel):
        base = cronbach_alpha(panel, POPULATION)
        rows = list(zip(panel.module_codes, panel.values))
        rows.reverse()
        permuted_rows = SacPanel(
            tuple(c for c, _ in rows), panel.year_labels, tuple(v for _, v in rows)
        )
        order = [3, 0, 4, 1, 2]
        permuted_cols = SacPanel(
            panel.module_codes,
            tuple(panel.year_labels[j] for j in order),
            tuple(tuple(row[j] for j in order) for row in panel.values),
        )
        assert cronbach_alpha(permuted_rows, POPULATION).alpha == base.alpha
        assert cronbach_alpha(permuted_cols, POPULATION).alpha == base.alpha

    def test_shift_invariance(self, panel):
        # adding a constant to every cell moves nothing; keep cells in [0, 1]
        shifted = SacPanel(
            panel.module_codes,
            panel.year_labels,
            tuple(tuple(v + 0.1 for v in row) for row in panel.values),
        )
        base = cronbach_alpha(panel, POPULATION)
        moved = cronbach_alpha(shifted, POPULATION)
        assert moved.alpha == pytest.approx(base.alpha, abs=1e-12)
        assert moved.total_score_variance == pytest.approx(base.total_score_variance, abs=1e-12)

    def test_scale_invariance_of_alpha(self, panel):
        s = 0.5
        scaled = SacPanel(
            panel.module_codes,
            panel.year_labels,
            tuple(tuple(v * s for v in row) for row in panel.values),
        )
        base = cronbach_alpha(panel, POPULATION)
        shrunk = cronbach_alpha(scaled, POPULATION)
        assert shrunk.alpha == pytest.approx(base.alpha, abs=1e-12)
        assert shrunk.total_score_variance == pytest.approx(
            base.total_score_variance * s * s, abs=1e-12
        )
        for a, b in zip(shrunk.per_item_variance, base.per_item_variance):
            assert a == pytest.approx(b * s * s, abs=1e-12)


class TestPanelIO:
    def test_reference_panel_shape(self, panel):
        assert panel.m == 10
        assert panel.k == 5
        assert panel.year_labels[0] == "2010/11"

    def test_rejects_out_of_range_cells(self):
        with pytest.raises(ValueError):
            SacPanel(("A", "B"), ("y1", "y2"), ((0.5, 1.2), (0.1, 0.2)))

    @pytest.mark.parametrize(
        "codes, years, values, message",
        [
            (("A", "B"), ("y1", "y2"), ((0.5,), (0.1, 0.2)), "A: row has 1 cells, expected 2"),
            (("A", "B"), ("y1",), ((0.5,), (0.1,)), "panel needs at least 2 years"),
            (("A", "B"), ("y1", "y2"), ((0.5, 0.6),), "one row per module required"),
        ],
        ids=["short-row", "one-year", "row-count"],
    )
    def test_rejects_malformed_panels(self, codes, years, values, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SacPanel(codes, years, values)

    def test_breakdown_json_keys(self, panel):
        doc = breakdown_to_json(cronbach_alpha(panel, MIXED))
        assert set(doc) == {
            "per_item_variance",
            "sum_item_variance",
            "total_score_variance",
            "alpha",
            "estimator",
            "k",
            "m",
        }
        assert doc["estimator"] == MIXED
        assert doc["sum_item_variance"] == pytest.approx(
            math.fsum(doc["per_item_variance"]), abs=1e-12
        )
