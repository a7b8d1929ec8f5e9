import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sacmine
from sacmine import fixtures
from sacmine.cli import run

MODULE_SAMPLE = str(fixtures.path(fixtures.MODULE_SAMPLE))
PANEL = str(fixtures.path(fixtures.PANEL))


def make_dataset(tmp_path, name="ds.csv", seed=7, n=59):
    out = tmp_path / name
    assert run(["gen", "--kind", "dataset", "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
    return out


class TestScore:
    def test_module_sample_prints_published_sac_values(self, capsys, tmp_path):
        out = tmp_path / "scored.csv"
        assert run(["score", "--in", MODULE_SAMPLE, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        for value in ("0.067", "0.349", "0.812"):
            assert value in printed
        lines = out.read_text().splitlines()
        assert lines[0].startswith("module_code,")
        assert [line.split(",")[5] for line in lines[1:]] == ["0.067", "0.349", "0.812"]

    def test_events_input_full_pipeline(self, capsys, tmp_path):
        events = tmp_path / "events.csv"
        assert run(["gen", "--kind", "events", "--modules", "3", "--seed", "1", "--out", str(events)]) == 0
        out = tmp_path / "agg.csv"
        assert run(["score", "--in", str(events), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4

    def test_json_format(self, tmp_path):
        out = tmp_path / "scored.json"
        assert run(["score", "--in", MODULE_SAMPLE, "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert [round(r["sac"], 3) for r in doc] == [0.067, 0.349, 0.812]
        assert [r["sac_strength"] for r in doc] == [1, 4, 9]

    def test_events_input_reports_row_accounting_on_stderr(self, capsys, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text(
            "student_id,module_code,semester,week,status\n"
            "s1,M1,1,1,present\n"
            "s2,M1,1,1,absent\n"
            "s3,M1,3,1,present\n"
            "s4,M1,1\n"
        )
        assert run(["score", "--in", str(events)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "M1 sem 1: sac 0.045 strength 1 (taken 1)\n"
        assert captured.err.splitlines() == [
            "read 4 rows: kept 2, rejected 2",
            "  rejected 1: bad semester",
            "  rejected 1: wrong field count",
            "cleaned to 2 events: 0 duplicates dropped, 0 conflicts resolved",
        ]


class TestReliability:
    def test_mixed_mode_prints_published_alpha(self, capsys, tmp_path):
        out = tmp_path / "alpha.json"
        assert run(
            ["reliability", "--in", PANEL, "--estimator", "paper-mixed", "--out", str(out)]
        ) == 0
        assert "alpha 0.815" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["estimator"] == "paper-mixed"
        assert doc["alpha"] == pytest.approx(0.815, abs=0.01)
        assert doc["k"] == 5
        assert doc["m"] == 10

    def test_defaults_to_bundled_panel(self, capsys):
        assert run(["reliability"]) == 0
        assert "alpha " in capsys.readouterr().out


class TestTrainRulesPredict:
    def test_train_then_rules_emits_six_lines(self, capsys, tmp_path):
        ds = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
        assert "11 nodes, 6 leaves" in capsys.readouterr().out
        rules_out = tmp_path / "rules.txt"
        assert run(["rules", "--in", str(model), "--out", str(rules_out)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 6
        assert all("SAC_Strength" in line for line in printed)
        assert rules_out.read_text().strip().splitlines() == printed

    def test_rules_json_format(self, tmp_path):
        ds = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        run(["train", "--in", str(ds), "--out", str(model)])
        out = tmp_path / "rules.json"
        assert run(["rules", "--in", str(model), "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 6
        assert {r["class"] for r in doc} == {"5", "6", "7", "8", "9", "10"}

    def test_predict_writes_csv(self, tmp_path):
        ds = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        run(["train", "--in", str(ds), "--out", str(model)])
        out = tmp_path / "pred.csv"
        assert run(["predict", "--in", str(ds), "--model", str(model), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "attend_avg,attend_taken,sem_no,predicted,confidence"
        assert len(lines) == 60


class TestEvaluate:
    def test_split_train_evaluate(self, capsys, tmp_path):
        ds = make_dataset(tmp_path)
        out = tmp_path / "eval.json"
        assert run(
            ["evaluate", "--in", str(ds), "--fraction", "0.7", "--seed", "0", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["sizes"] == {"train": 41, "test": 18}
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert doc["rmse"] >= 0.0

    def test_evaluate_explicit_model(self, tmp_path):
        ds = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        run(["train", "--in", str(ds), "--out", str(model)])
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--in", str(ds), "--model", str(model), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["accuracy"] == 1.0
        assert doc["rmse"] == 0.0


class TestIngest:
    def test_ingest_reports_and_writes_cleaned_events(self, capsys, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "student_id,module_code,semester,week,status\n"
            "s1,M1,1,1,present\n"
            "s1,M1,1,1,present\n"
            "s1,M1,1,2,absent\n"
            "s1,M1,1,2,Present\n"
            "s2,M1,9,1,present\n"
        )
        out = tmp_path / "clean.csv"
        assert run(["ingest", "--in", str(raw), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "rejected 1" in printed
        assert "2 duplicates dropped, 1 conflicts resolved" in printed
        lines = out.read_text().splitlines()
        assert lines[1:] == ["s1,M1,1,1,present", "s1,M1,1,2,present"]


class TestExitCodes:
    def test_unknown_flag_is_validation_error(self, capsys):
        assert run(["score", "--bogus"]) == 1

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_input_file_is_io_error(self, capsys):
        assert run(["score", "--in", "/nonexistent/nowhere.csv"]) == 2

    def test_domain_error_is_validation_error(self, capsys, tmp_path):
        ds = make_dataset(tmp_path)
        assert run(["evaluate", "--in", str(ds), "--fraction", "1.5"]) == 1
        assert "InvalidFraction" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0


class TestMalformedInputs:
    @staticmethod
    def replace_line(path, number, edit):
        lines = path.read_text().splitlines()
        lines[number - 1] = edit(lines[number - 1])
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_train_rejects_non_finite_number(self, capsys, tmp_path, cell):
        ds = make_dataset(tmp_path)
        self.replace_line(ds, 4, lambda line: cell + line[line.index(","):])
        assert run(["train", "--in", str(ds)]) == 1
        err = capsys.readouterr().err
        assert f"ds.csv:4: attend_avg: expected a finite number, got {cell!r}" in err

    def test_predict_rejects_non_finite_number(self, capsys, tmp_path):
        ds = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
        self.replace_line(ds, 2, lambda line: "nan" + line[line.index(","):])
        assert run(["predict", "--in", str(ds), "--model", str(model)]) == 1
        assert "ds.csv:2: attend_avg: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_short_row_is_schema_mismatch(self, capsys, tmp_path, command):
        ds = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
        self.replace_line(ds, 3, lambda line: line[: line.rindex(",")])
        extra = ["--model", str(model)] if command == "predict" else []
        assert run([command, "--in", str(ds), *extra]) == 1
        err = capsys.readouterr().err
        assert "SchemaMismatch" in err and "ds.csv:3: expected 4 fields, got 3" in err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: doc.pop("tree"),
            lambda doc: doc.pop("schema"),
            lambda doc: doc.update(version=2),
            lambda doc: doc.update(tree=[]),
            lambda doc: doc["tree"].pop("le"),
            lambda doc: doc["tree"].update(index=9),
            lambda doc: doc["tree"].update(threshold="high"),
            lambda doc: doc.update(tree={"type": "leaf", "class": "99", "n": 1, "distribution": {"99": 1}}),
        ],
        ids=["no-tree", "no-schema", "version-2", "tree-not-object", "split-without-le",
             "index-out-of-range", "text-threshold", "leaf-class-outside-domain"],
    )
    def test_rules_rejects_malformed_model(self, capsys, tmp_path, damage):
        ds = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        damage(doc)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["rules", "--in", str(model)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "model.json" in err

    def test_evaluate_maps_columns_to_the_model_by_name(self, capsys, tmp_path):
        ds = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
        order = [2, 0, 3, 1]
        rows = [line.split(",") for line in ds.read_text().splitlines()]
        moved = tmp_path / "moved.csv"
        moved.write_text("".join(",".join(row[i] for i in order) + "\n" for row in rows))
        schema = json.loads((tmp_path / "ds.schema.json").read_text())
        schema["columns"] = [schema["columns"][i] for i in order]
        (tmp_path / "moved.schema.json").write_text(json.dumps(schema))
        capsys.readouterr()
        assert run(["evaluate", "--in", str(moved), "--model", str(model)]) == 0
        assert capsys.readouterr().out.startswith("accuracy 1.000 ")

    def test_evaluate_rejects_a_schema_unlike_the_model(self, capsys, tmp_path):
        ds = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
        schema_path = tmp_path / "ds.schema.json"
        schema = json.loads(schema_path.read_text())
        schema["columns"][-1]["domain"].append("11")
        schema_path.write_text(json.dumps(schema))
        assert run(["evaluate", "--in", str(ds), "--model", str(model)]) == 1
        assert "columns do not match the model schema" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "schema",
        [
            ["attend_avg"],
            {"columns": []},
            {"label": "SAC_Strength"},
            {"label": "SAC_Strength", "columns": [{"kind": "numeric"}]},
            {"label": "SAC_Strength", "columns": [{"name": "attend_avg"}]},
            {"label": "SAC_Strength", "columns": [{"name": "attend_avg", "kind": "numeric"}] * 2},
        ],
        ids=["not-a-dict", "no-label", "no-columns", "column-without-name",
             "column-without-kind", "duplicate-names"],
    )
    def test_train_rejects_malformed_schema(self, capsys, tmp_path, schema):
        ds = make_dataset(tmp_path)
        (tmp_path / "ds.schema.json").write_text(json.dumps(schema))
        capsys.readouterr()
        assert run(["train", "--in", str(ds)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SchemaMismatch: ") and "ds.schema.json" in err

    @pytest.mark.parametrize(
        "rows, fault",
        [(",1,20\n", "bad module_code"), ("M1,1,20\nM1,1,30\n", "duplicate row for M1 semester 1")],
        ids=["empty-module-code", "duplicate-module-semester"],
    )
    def test_score_rejects_bad_roster_rows(self, capsys, tmp_path, rows, fault):
        events = tmp_path / "events.csv"
        events.write_text("student_id,module_code,semester,week,status\ns1,M1,1,1,present\n")
        roster = tmp_path / "roster.csv"
        roster.write_text("module_code,semester,registered\n" + rows)
        assert run(["score", "--in", str(events), "--roster", str(roster)]) == 1
        err = capsys.readouterr().err
        assert f"roster.csv:{rows.count(chr(10)) + 1}: {fault}" in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("M1,1,11", "expected 5 fields, got 3"),
            ("M1,1,11,three,50.0", "attendance_taken: expected an integer, got 'three'"),
            ("M1,1,11,2,nan", "attend_avg: expected a finite number, got 'nan'"),
            ("M1,1,11,12,50.0", "need 1 <= taken_count <= weeks_total"),
            (",1,11,2,50.0", "bad module_code or semester: '',1"),
            ("M1,3,11,2,50.0", "bad module_code or semester: 'M1',3"),
        ],
        ids=["short-row", "text-count", "nan-average", "taken-above-weeks", "empty-module-code",
             "semester-3"],
    )
    def test_score_rejects_bad_module_inputs(self, capsys, tmp_path, row, message):
        inputs = tmp_path / "modules.csv"
        inputs.write_text(
            "module_code,semester,weeks_total,attendance_taken,attend_avg\n"
            f"M0,1,11,11,80.0\n{row}\n"
        )
        assert run(["score", "--in", str(inputs)]) == 1
        assert f"modules.csv:3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weeks, message",
        [([], "WeekOutOfRange: {events}:4: M1 week 12 beyond weeks_total 11"),
         (["--weeks", "0"], "ValueError: weeks_total must be >= 1, got 0")],
        ids=["default-weeks", "weeks-0"],
    )
    def test_score_names_the_line_of_a_week_beyond_weeks(self, capsys, tmp_path, weeks, message):
        events = tmp_path / "events.csv"
        events.write_text(
            "student_id,module_code,semester,week,status\n"
            "s1,M1,1,1,present\ns1,M1,1,13,late\ns2,M1,1,12,absent\n"
        )
        assert run(["score", "--in", str(events), *weeks]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: " + message.format(events=events)

    def test_ingest_keeps_a_week_beyond_the_score_default(self, capsys, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("student_id,module_code,semester,week,status\ns2,M1,1,12,absent\n")
        out = tmp_path / "cleaned.csv"
        assert run(["ingest", "--in", str(events), "--out", str(out)]) == 0
        assert "read 1 rows: kept 1, rejected 0" in capsys.readouterr().out
        assert out.read_text().splitlines()[1:] == ["s2,M1,1,12,absent"]

    def test_byte_order_mark_and_quoted_header_change_nothing(self, capsys, tmp_path):
        plain = tmp_path / "plain.csv"
        assert run(["gen", "--kind", "events", "--modules", "2", "--seed", "4", "--out", str(plain)]) == 0
        header, body = plain.read_text().split("\n", 1)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        quoted = tmp_path / "quoted.csv"
        quoted.write_text(",".join(f'"{name}"' for name in header.split(",")) + "\n" + body)
        outputs = []
        for source in (plain, bom, quoted):
            capsys.readouterr()
            assert run(["ingest", "--in", str(source)]) == 0
            assert run(["score", "--in", str(source)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_oversized_field_is_malformed_input(self, capsys, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text(
            "student_id,module_code,semester,week,status\n"
            f"s1,M1,1,1,present\ns2,{'M' * 200_000},1,1,present\n"
        )
        for command in ("ingest", "score"):
            assert run([command, "--in", str(events)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: MalformedInput: ") and "events.csv:3: field larger" in err

    def test_invalid_utf8_names_its_line(self, capsys, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_bytes(b"module_code,y1,y2\nA,0.1,0.2\nB,0.3,0.4\nC\xff,0.5,0.6\n")
        assert run(["reliability", "--in", str(panel)]) == 1
        assert "panel.csv:4: not UTF-8" in capsys.readouterr().err

    def test_rules_wraps_a_schema_error_once(self, capsys, tmp_path):
        ds = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        del doc["schema"]["label"]
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["rules", "--in", str(model)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: SchemaMismatch: {model}: malformed schema: KeyError: 'label'\n"

    @pytest.mark.parametrize(
        "column, value, message",
        [(2, "3", "sem_no: '3' not in domain"), (3, "11", "label '11' not in")],
        ids=["nominal-value", "label"],
    )
    def test_train_names_the_line_of_a_value_outside_its_domain(
        self, capsys, tmp_path, column, value, message
    ):
        ds = make_dataset(tmp_path)
        self.replace_line(ds, 3, lambda line: ",".join(
            value if i == column else cell for i, cell in enumerate(line.split(","))
        ))
        assert run(["train", "--in", str(ds)]) == 1
        assert f"ds.csv:3: {message}" in capsys.readouterr().err

    @staticmethod
    def set_cells(path, number, cells):
        """Replace the cells of line ``number`` at the column indices in ``cells``."""
        TestMalformedInputs.replace_line(path, number, lambda line: ",".join(
            cells.get(i, cell) for i, cell in enumerate(line.split(","))
        ))

    @pytest.mark.parametrize(
        "cells, message",
        [({0: "inf", 2: "3", 3: "11"}, "attend_avg: expected a finite number, got 'inf'"),
         ({2: "3", 3: "11"}, "sem_no: '3' not in domain ('1', '2')")],
        ids=["number-then-nominal-then-label", "nominal-then-label"],
    )
    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_every_reader_reports_a_row_s_first_fault_at_its_line(
        self, capsys, tmp_path, command, cells, message
    ):
        """Numbers are checked before nominal cells, nominal cells before the label."""
        ds = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
        self.set_cells(ds, 4, cells)
        capsys.readouterr()
        extra = [] if command == "train" else ["--model", str(model)]
        assert run([command, "--in", str(ds), *extra]) == 1
        assert capsys.readouterr().err == f"error: SchemaMismatch: {ds}:4: {message}\n"

    def test_a_label_outside_its_domain_fails_only_the_commands_that_read_labels(
        self, capsys, tmp_path
    ):
        ds = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
        self.set_cells(ds, 6, {3: "11"})
        capsys.readouterr()
        for argv in (["train"], ["evaluate", "--model", str(model)]):
            assert run([argv[0], "--in", str(ds), *argv[1:]]) == 1
            assert capsys.readouterr().err.startswith(f"error: SchemaMismatch: {ds}:6: label '11' not in ")
        assert run(["predict", "--in", str(ds), "--model", str(model)]) == 0  # predict ignores the label
        assert capsys.readouterr().err == ""

    def test_train_names_the_schema_of_a_numeric_label(self, capsys, tmp_path):
        ds = make_dataset(tmp_path)
        schema_path = tmp_path / "ds.schema.json"
        schema = json.loads(schema_path.read_text())
        schema["columns"][-1] = {"name": "SAC_Strength", "kind": "numeric"}
        schema_path.write_text(json.dumps(schema))
        assert run(["train", "--in", str(ds)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: SchemaMismatch: {schema_path}: ") and "nominal column" in err

    def test_reliability_names_the_line_of_a_value_outside_0_1(self, capsys, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text("module_code,y1,y2\nA,0.1,0.2\nB,1.5,0.4\nC,0.5,0.6\n")
        assert run(["reliability", "--in", str(panel)]) == 1
        assert "panel.csv:3: B: SAC value 1.5 outside [0, 1]" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_runs_produce_identical_artifacts(self, tmp_path):
        art = {}
        for tag in ("a", "b"):
            base = tmp_path / tag
            base.mkdir()
            ds = base / "ds.csv"
            model = base / "model.json"
            rules = base / "rules.txt"
            report = base / "eval.json"
            scored = base / "scored.csv"
            assert run(["gen", "--kind", "dataset", "--n", "59", "--seed", "7", "--out", str(ds)]) == 0
            assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
            assert run(["rules", "--in", str(model), "--out", str(rules)]) == 0
            assert run(["evaluate", "--in", str(ds), "--seed", "3", "--out", str(report)]) == 0
            assert run(["score", "--in", MODULE_SAMPLE, "--out", str(scored)]) == 0
            art[tag] = tuple(
                p.read_bytes() for p in (ds, base / "ds.schema.json", model, rules, report, scored)
            )
        assert art["a"] == art["b"]


class TestApplyInputs:
    @pytest.mark.parametrize("value", ["3", "abc"])
    def test_predict_rejects_a_nominal_value_outside_the_model_domain(self, capsys, tmp_path, value):
        ds = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
        TestMalformedInputs.replace_line(ds, 5, lambda line: ",".join(
            value if i == 2 else cell for i, cell in enumerate(line.split(","))
        ))
        assert run(["predict", "--in", str(ds), "--model", str(model)]) == 1
        err = capsys.readouterr().err
        assert f"SchemaMismatch: {ds}:5: sem_no: {value!r} not in domain ('1', '2')" in err

    @pytest.mark.parametrize("weeks", ["0", "5", "11"])
    def test_score_rejects_weeks_on_module_inputs(self, capsys, weeks):
        assert run(["score", "--in", MODULE_SAMPLE, "--weeks", weeks]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ValueError: {MODULE_SAMPLE}: --weeks applies only to an events CSV; "
            "module inputs carry weeks_total\n"
        )

    def test_score_events_default_weeks_is_11(self, capsys, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("student_id,module_code,semester,week,status\ns1,M1,1,11,present\n")
        outputs = []
        for weeks in ([], ["--weeks", "11"]):
            out = tmp_path / "scored.csv"
            assert run(["score", "--in", str(events), "--out", str(out), *weeks]) == 0
            outputs.append((capsys.readouterr(), out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert b"M1,1,11,1,100.0,0.091,1" in outputs[0][1]

    @pytest.mark.parametrize("rows", ["", "A,0.1,0.2\n"], ids=["no-module", "one-module"])
    def test_reliability_names_the_file_of_a_panel_with_too_few_modules(self, capsys, tmp_path, rows):
        panel = tmp_path / "panel.csv"
        panel.write_text("module_code,y1,y2\n" + rows)
        assert run(["reliability", "--in", str(panel)]) == 1
        assert capsys.readouterr().err == f"error: ValueError: {panel}: panel needs at least 2 modules\n"


def test_importing_the_cli_leaves_numpy_unloaded():
    """Only gen and the train/test split need numpy, so no other command pays its import."""
    src = Path(sacmine.__file__).resolve().parents[1]
    code = "import sys, sacmine.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


LIBRARY_MODULES = ("credibility", "dtree", "ingest", "reliability", "synthgen")


def test_importing_the_cli_loads_no_library_module_and_every_export_resolves():
    """Each subcommand imports what it uses; the package's names load on first use."""
    src = Path(sacmine.__file__).resolve().parents[1]
    code = (
        "import sys, importlib, sacmine.cli\n"
        f"print([m for m in {LIBRARY_MODULES!r} if 'sacmine.' + m in sys.modules])\n"
        "import sacmine\n"
        "print(all(getattr(sacmine, name) is getattr(importlib.import_module('sacmine.' + module), name)\n"
        "          for module, names in sacmine._EXPORTS.items() for name in names))\n"
        "print(sorted(sacmine.__all__) == sorted(['__version__', *sacmine._SOURCE]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\nTrue\nTrue\n"
    for name in sacmine.__all__:
        assert getattr(sacmine, name) is not None
    with pytest.raises(AttributeError):
        sacmine.no_such_name


def test_estimator_choices_are_the_reliability_estimators():
    from sacmine import reliability
    from sacmine.cli import _build_parser

    sub = next(a for a in _build_parser()._actions if a.dest == "command").choices["reliability"]
    estimator = next(a for a in sub._actions if a.dest == "estimator")
    assert tuple(estimator.choices) == reliability.ESTIMATORS
    assert estimator.default == reliability.POPULATION


def test_a_model_leaf_with_a_malformed_distribution_names_the_model(capsys, tmp_path):
    ds = make_dataset(tmp_path)
    model = tmp_path / "model.json"
    assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    node = doc["tree"]
    while node["type"] == "split":
        node = node["le"] if "le" in node else next(iter(node["branches"].values()))
    node["distribution"] = ["abc"]
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["rules", "--in", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: SchemaMismatch: {model}: malformed model: ValueError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["--kind", "dataset", "--n", "12", "--weeks", "0", "--modules", "0"],
         "--weeks applies only to gen --kind events"),
        (["--kind", "dataset", "--modules", "3"], "--modules applies only to gen --kind events"),
        (["--kind", "events", "--modules", "1", "--n", "0", "--thresholds", "nonexist.json"],
         "--n applies only to gen --kind dataset"),
        (["--kind", "events", "--thresholds", "nonexist.json"],
         "--thresholds applies only to gen --kind dataset"),
    ],
    ids=["dataset-weeks", "dataset-modules", "events-n", "events-thresholds"],
)
def test_gen_rejects_an_option_of_the_other_kind(capsys, tmp_path, argv, reason):
    out = tmp_path / "g.csv"
    assert run(["gen", *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: ValueError: {reason}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "content, message",
    [(b'["a"]', "InvalidThresholds: threshold 'a' is not a number\n"),
     (b'{"x": 1}', "InvalidThresholds: thresholds must be a list of numbers, got {'x': 1}\n"),
     (b'"50"', "InvalidThresholds: thresholds must be a list of numbers, got '50'\n"),
     (b"50", "InvalidThresholds: thresholds must be a list of numbers, got 50\n"),
     (b"[50, true]", "InvalidThresholds: threshold True is not a number\n"),
     (b"not json", "ValueError: {path}: JSONDecodeError: Expecting value: line 1 column 1 (char 0)\n"),
     (b"\xff[50]", "ValueError: {path}: UnicodeDecodeError: ")],
    ids=["text-item", "object", "string", "number", "bool-item", "not-json", "not-utf8"],
)
def test_gen_rejects_thresholds_that_are_not_a_list_of_numbers(capsys, tmp_path, content, message):
    thresholds = tmp_path / "t.json"
    thresholds.write_bytes(content)
    out = tmp_path / "d.csv"
    assert run(["gen", "--kind", "dataset", "--thresholds", str(thresholds), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: " + message.replace("{path}", str(thresholds)))
    assert not out.exists()


def test_gen_defaults_are_unchanged_when_options_are_unset(capsys, tmp_path):
    outputs = []
    for extra in ([], ["--modules", "12", "--weeks", "11"]):
        out = tmp_path / "e.csv"
        assert run(["gen", "--kind", "events", "--seed", "4", "--out", str(out), *extra]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1] and "12 modules" in outputs[0][0]
    outputs = []
    for extra in ([], ["--n", "59"]):
        out = tmp_path / "d.csv"
        assert run(["gen", "--kind", "dataset", "--seed", "4", "--out", str(out), *extra]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1] and "59 instances" in outputs[0][0]


def write_alternating_dataset(tmp_path, n):
    """``n`` rows of x = 0.0, 1.0, ... whose class alternates a, b: every
    threshold is a candidate, so a gain tree with min_leaf 1 is a deep chain."""
    data = tmp_path / "alt.csv"
    data.write_text("x,cls\n" + "".join(f"{float(i)},{'ab'[i % 2]}\n" for i in range(n)))
    schema = {"columns": [{"name": "x", "kind": "numeric"},
                          {"name": "cls", "kind": "nominal", "domain": ["a", "b"]}], "label": "cls"}
    (tmp_path / "alt.schema.json").write_text(json.dumps(schema))
    return data, schema


def test_a_tree_too_deep_to_grow_is_one_error_line(capsys, tmp_path):
    data, _ = write_alternating_dataset(tmp_path, 600)
    assert run(["train", "--in", str(data), "--criterion", "gain", "--min-leaf", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: TreeTooDeep: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "content, fault",
    [(b"not json", "JSONDecodeError"), (b"\xff\xfe", "UnicodeDecodeError")],
    ids=["not-json", "not-utf8"],
)
def test_a_model_that_is_not_utf8_json_names_the_model(capsys, tmp_path, content, fault):
    model = tmp_path / "bad.json"
    model.write_bytes(content)
    assert run(["rules", "--in", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: SchemaMismatch: {model}: malformed model: {fault}: ")
    assert err.count("\n") == 1
    assert run(["rules", "--in", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("command", ["rules", "predict"])
def test_a_model_nested_too_deep_to_read_names_the_model(capsys, tmp_path, command):
    data, schema = write_alternating_dataset(tmp_path, 10)
    depth, leaf = 1200, '{"type": "leaf", "class": "a", "n": 1, "distribution": {"a": 1.0}}'
    splits = "".join(
        f'{{"type": "split", "attribute": "x", "index": 0, "threshold": {i}.5, "le": {leaf}, "gt": '
        for i in range(depth)
    )
    model = tmp_path / "deep.json"
    model.write_text(
        f'{{"format": "sacmine-tree", "version": 1, "schema": {json.dumps(schema)}, '
        f'"tree": {splits}{leaf}{"}" * depth}}}'
    )
    argv = {"rules": ["--in", str(model)], "predict": ["--in", str(data), "--model", str(model)]}
    assert run([command, *argv[command]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: SchemaMismatch: {model}: malformed model: RecursionError: ")
    assert err.count("\n") == 1


def test_a_model_leaf_with_a_probability_above_one_names_the_model(capsys, tmp_path):
    ds = make_dataset(tmp_path)
    model = tmp_path / "model.json"
    assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    node = doc["tree"]
    while node["type"] == "split":
        node = node["le"] if "le" in node else next(iter(node["branches"].values()))
    node["distribution"] = {node["class"]: 7.5}
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["evaluate", "--in", str(ds), "--model", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    label = doc["schema"]["label"]
    assert captured.err == f"error: SchemaMismatch: {model}: leaf {node['class']!r} does not fit label {label!r}\n"
