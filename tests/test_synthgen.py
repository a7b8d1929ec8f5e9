import pytest

from sacmine.errors import InvalidParams, InvalidThresholds
from sacmine.ingest import aggregate, clean_events, parse_events
from sacmine.synthgen import GenParams, generate_events, generate_rule_labeled_dataset

RULE_THRESHOLDS = [88.9, 79.6, 69.2, 59.8, 47.5]


def pipeline(blob, weeks_total=11):
    events, parse_report = parse_events(blob)
    cleaned, clean_report = clean_events(events)
    records, rejections = aggregate(cleaned, None, weeks_total)
    return records, parse_report, clean_report, rejections


class TestGenerateEvents:
    def test_byte_identical_for_same_params(self):
        params = GenParams(module_count=6, seed=99)
        assert generate_events(params) == generate_events(params)

    def test_different_seed_differs(self):
        a = generate_events(GenParams(module_count=6, seed=1))
        b = generate_events(GenParams(module_count=6, seed=2))
        assert a != b

    def test_outputs_ingest_with_zero_rejections(self):
        for seed in range(8):
            blob = generate_events(GenParams(module_count=3, seed=seed))
            _, parse_report, clean_report, rejections = pipeline(blob)
            assert parse_report.rows_rejected == 0
            assert clean_report.duplicates_dropped == 0
            assert clean_report.conflicts_resolved == 0
            assert rejections == []

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            GenParams(module_count=0)


class TestRuleLabeledDataset:
    def test_59_instances_cover_exactly_the_top_six_classes(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        assert len(data.instances) == 59
        assert {i.label for i in data.instances} == {"5", "6", "7", "8", "9", "10"}

    def test_single_instance_label_matches_step_function(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 1, seed=0)
        (inst,) = data.instances
        avg = inst.values[0]
        expected = "10"
        for rank, t in enumerate(RULE_THRESHOLDS):
            if avg > t:
                expected = str(10 - rank)
                break
        else:
            expected = str(10 - len(RULE_THRESHOLDS))
        assert inst.label == expected

    def test_margin_respected_everywhere(self):
        for seed in (0, 3, 11):
            data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 200, seed=seed)
            for inst in data.instances:
                avg = inst.values[0]
                for t in RULE_THRESHOLDS:
                    assert abs(avg - t) >= 0.5 - 1e-9

    def test_labels_always_follow_step_function(self):
        data = generate_rule_labeled_dataset(RULE_THRESHOLDS, 150, seed=2)
        for inst in data.instances:
            avg = inst.values[0]
            want = str(10 - len(RULE_THRESHOLDS))
            for rank, t in enumerate(RULE_THRESHOLDS):
                if avg > t:
                    want = str(10 - rank)
                    break
            assert inst.label == want

    def test_deterministic(self):
        a = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        b = generate_rule_labeled_dataset(RULE_THRESHOLDS, 59, seed=7)
        assert a.instances == b.instances

    def test_invalid_thresholds(self):
        with pytest.raises(InvalidThresholds):
            generate_rule_labeled_dataset([], 10, seed=0)
        with pytest.raises(InvalidThresholds):
            generate_rule_labeled_dataset([50.0, 60.0], 10, seed=0)  # increasing
        with pytest.raises(InvalidThresholds):
            generate_rule_labeled_dataset([100.0, 50.0], 10, seed=0)  # edge value
        with pytest.raises(InvalidThresholds):
            generate_rule_labeled_dataset([50.0, 49.6], 10, seed=0)  # no room at margin 0.5
        for margin in (0.0, -0.5):
            with pytest.raises(InvalidThresholds, match=f"^margin must be positive, got {margin}$"):
                generate_rule_labeled_dataset([50.0], 10, seed=0, margin=margin)
        with pytest.raises(InvalidParams, match="^n must be >= 1, got 0$"):
            generate_rule_labeled_dataset([50.0], 0, seed=0)
