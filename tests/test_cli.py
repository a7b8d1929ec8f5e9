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
        [(",1,20\n", "bad module_code"), ("M1,1,20\nM1,1,30\n", "duplicate row for M1 semester 1"),
         ("M1,1,0\n", "M1: registered must be >= 1"), ("M1,3,5\n", "bad module_code or semester: 'M1',3\n")],
        ids=["empty-module-code", "duplicate-module-semester", "registered-0", "semester-3"],
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
            ("M1,01,11,2,50.0", "bad module_code or semester: 'M1',01"),
            ("M1,+2,11,2,50.0", "bad module_code or semester: 'M1',+2"),
            ("M1,1,-5,0,", "weeks_total must be >= 1, got -5"),
            ("M2,2,0,0,abc", "weeks_total must be >= 1, got 0"),
            ("M2,2,11,0,abc", "attend_avg: expected a finite number, got 'abc'"),
            ("M2,2,11,0,150", "attend_avg must be in [0, 100], got 150.0"),
            ("M1,1,11,-1,", "need 1 <= taken_count <= weeks_total, got taken_count=-1, weeks_total=11"),
            ("M1,1,11,12,", "need 1 <= taken_count <= weeks_total, got taken_count=12, weeks_total=11"),
        ],
        ids=["short-row", "text-count", "nan-average", "taken-above-weeks", "empty-module-code",
             "semester-3", "semester-01", "semester-plus-2", "negative-weeks-none-taken",
             "zero-weeks-junk-average", "junk-average-none-taken", "average-above-100-none-taken",
             "negative-taken-blank-average", "taken-above-weeks-blank-average"],
    )
    def test_score_rejects_bad_module_inputs(self, capsys, tmp_path, row, message):
        inputs = tmp_path / "modules.csv"
        inputs.write_text(
            "module_code,semester,weeks_total,attendance_taken,attend_avg\n"
            f"M0,1,11,11,80.0\n{row}\n"
        )
        assert run(["score", "--in", str(inputs)]) == 1
        assert f"modules.csv:3: {message}" in capsys.readouterr().err

    def test_score_writes_a_module_with_no_week_taken_blank_whatever_its_average(self, tmp_path):
        inputs = tmp_path / "modules.csv"
        inputs.write_text(
            "module_code,semester,weeks_total,attendance_taken,attend_avg\n"
            "M1,1,11,0,\nM2,2,11,0,55.5\n"
        )
        out = tmp_path / "scored.csv"
        assert run(["score", "--in", str(inputs), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == ["M1,1,11,0,,,0", "M2,2,11,0,,,0"]

    @pytest.mark.parametrize(
        "weeks, message",
        [([], "WeekOutOfRange: {events}:4: M1 week 12 beyond weeks_total 11"),
         (["--weeks", "0"], "ValueError: --weeks: weeks_total must be >= 1, got 0")],
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

    def test_an_unmatched_quote_is_malformed_input(self, capsys, tmp_path):
        # A quote left open must not swallow the rows after it into one rejected row.
        events = tmp_path / "events.csv"
        events.write_text(
            "student_id,module_code,semester,week,status\n"
            '"s0,M1,1,1,present\ns1,M1,1,1,present\ns2,M1,1,1,present\ns3,M1,1,1,absent\n'
        )
        for command in ("ingest", "score"):
            assert run([command, "--in", str(events)]) == 1
            assert capsys.readouterr() == ("", f"error: MalformedInput: {events}:2: unexpected end of data\n")

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

    def test_reliability_names_the_line_of_a_repeated_module_row(self, capsys, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text("module_code,y1,y2\nA,0.1,0.2\nA,0.3,0.4\nC,0.5,0.6\n")
        assert run(["reliability", "--in", str(panel)]) == 1
        assert capsys.readouterr() == ("", f"error: SchemaMismatch: {panel}:3: duplicate module row A\n")

    def test_score_with_a_roster_drops_a_module_with_more_present_than_registered(self, capsys, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text(
            "student_id,module_code,semester,week,status\n"
            "s1,M1,1,1,present\ns2,M1,1,1,present\ns3,M1,1,1,present\ns1,M2,1,1,present\n"
        )
        roster = tmp_path / "roster.csv"
        roster.write_text("module_code,semester,registered\nM1,1,2\nM2,1,5\n")
        out = tmp_path / "scored.csv"
        assert run(["score", "--in", str(events), "--roster", str(roster), "--out", str(out)]) == 0
        assert capsys.readouterr() == (
            "M2 sem 1: sac 0.018 strength 1 (taken 1)\n",
            "read 4 rows: kept 4, rejected 0\n"
            "cleaned to 4 events: 0 duplicates dropped, 0 conflicts resolved\n"
            "rejected record: M1 semester 1 week 1: 3 present exceeds 2 registered\n",
        )
        assert out.read_text().splitlines()[1:] == ["M2,1,11,1,20.0,0.018,1"]

    @pytest.mark.parametrize("code", ["M\n4", "M\r1", "M\r\n2", "M\t3", "M\u20285", "M\x1c6"])
    def test_every_summary_and_rejected_record_line_is_one_line(self, capsys, tmp_path, code):
        # A module code that str.isprintable rejects is shown as its repr(); the others as they are.
        inputs = tmp_path / "inputs.csv"
        inputs.write_text(f'module_code,semester,weeks_total,attendance_taken,attend_avg\n"{code}",1,11,3,50.0\n'
                          "M5,2,11,0,\n", encoding="utf-8", newline="")
        assert run(["score", "--in", str(inputs)]) == 0
        printed = capsys.readouterr().out
        assert printed == f"{code!r} sem 1: sac 0.136 strength 2 (taken 3)\nM5 sem 2: no attendance taken\n"
        assert len(printed.splitlines()) == 2
        events, roster = tmp_path / "events.csv", tmp_path / "roster.csv"
        events.write_text(f'student_id,module_code,semester,week,status\ns1,"{code}",1,1,present\n'
                          f's2,"{code}",1,1,present\ns1,M1,1,1,present\n', encoding="utf-8", newline="")
        roster.write_text(f'module_code,semester,registered\n"{code}",1,1\nM1,1,2\n', encoding="utf-8", newline="")
        assert run(["score", "--in", str(events), "--roster", str(roster)]) == 0
        printed, errors = capsys.readouterr()
        assert printed == "M1 sem 1: sac 0.045 strength 1 (taken 1)\n"
        assert errors.splitlines()[2:] == [f"rejected record: {code!r} semester 1 week 1: 2 present exceeds 1 registered"]

    @pytest.mark.parametrize("code", ["M\n4", "M\r1", "M\r\n2", "M\t3", "M\u20285", "M\x1c6"])
    def test_every_rules_predict_and_error_line_is_one_line(self, capsys, tmp_path, code):
        # The code names a numeric attribute and, after a y, the label; it is a nominal value and a class too.
        schema = {"columns": [{"name": code, "kind": "numeric"}, {"name": "k", "kind": "nominal", "domain": ["a", code]},
                              {"name": f"y{code}", "kind": "nominal", "domain": ["p", code]}], "label": f"y{code}"}
        for name, x in (("ds", "{i}"), ("bad", "zz")):  # x >= 4 with k = code is class code, the rest p
            (tmp_path / f"{name}.csv").write_text(f'"{code}",k,"y{code}"\n' + "".join(
                f'{x.format(i=i % 8)},"{("a", code)[i // 8]}","{code if i % 8 >= 4 and i >= 8 else "p"}"\n'
                for i in range(16)), encoding="utf-8", newline="")
            (tmp_path / f"{name}.schema.json").write_text(json.dumps(schema))
        ds, model, rules = tmp_path / "ds.csv", tmp_path / "model.json", tmp_path / "rules"

        def printable(text):  # the lines of text that str.isprintable accepts
            return [line for line in text.splitlines() if line.isprintable()]

        assert run(["train", "--in", str(ds), "--min-leaf", "1", "--out", str(model)]) == 0
        assert run(["rules", "--in", str(model), "--format", "json", "--out", str(rules)]) == 0
        count = len(json.loads(rules.read_text(encoding="utf-8")))
        assert count == 3
        capsys.readouterr()
        assert run(["rules", "--in", str(model), "--format", "text", "--out", str(rules)]) == 0
        assert len(printable(capsys.readouterr().out)) == count
        assert len(printable(rules.read_text(encoding="utf-8"))) == count
        assert run(["predict", "--in", str(ds), "--model", str(model)]) == 0
        assert len(printable(capsys.readouterr().out)) == 11  # ten rows and "... 6 more"
        # a bad numeric cell of the attribute, a week beyond 11, and a repeated roster row
        late, events, roster = tmp_path / "late.csv", tmp_path / "events.csv", tmp_path / "roster.csv"
        for path, week in ((late, 12), (events, 1)):
            path.write_text(f'student_id,module_code,semester,week,status\ns1,"{code}",1,{week},present\n',
                            encoding="utf-8", newline="")
        roster.write_text(f'module_code,semester,registered\n"{code}",1,5\n"{code}",1,6\n', encoding="utf-8", newline="")
        for argv, fault in ((["train", "--in", str(tmp_path / "bad.csv")], "SchemaMismatch"),
                            (["score", "--in", str(late)], "WeekOutOfRange"),
                            (["score", "--in", str(events), "--roster", str(roster)], "SchemaMismatch")):
            assert run(argv) == 1
            error = the_one_error_line(capsys)
            assert error.startswith(f"error: {fault}: ") and error.isprintable()


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
    """sacmine imports numpy nowhere, so no command pays its import."""
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
     (b"\xff[50]", "ValueError: {path}: UnicodeDecodeError: "),
     (b"[95, 90, 85, 80, 70, 60, 50, 40, 30, 20]",
      "InvalidThresholds: at most 9 thresholds fit the 10 strength classes\n"),
     (b"[" * 100_000, "ValueError: {path}: RecursionError: maximum recursion depth exceeded")],
    ids=["text-item", "object", "string", "number", "bool-item", "not-json", "not-utf8", "ten-thresholds",
         "nested-too-deep"],
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


@pytest.mark.parametrize("argv", [["train"], ["evaluate", "--fraction", "0.7"], ["evaluate", "--model", "{model}"]],
                         ids=["train", "evaluate-split", "evaluate-model"])
def test_a_sidecar_schema_nested_too_deep_to_read_names_the_schema(capsys, tmp_path, argv):
    ds = make_dataset(tmp_path)
    model = tmp_path / "model.json"
    assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
    schema = tmp_path / "ds.schema.json"
    schema.write_text("[" * 100_000)
    out = tmp_path / "out.json"
    capsys.readouterr()
    argv = [arg.format(model=model) for arg in argv]
    assert run([argv[0], "--in", str(ds), *argv[1:], "--out", str(out)]) == 1
    assert the_one_error_line(capsys).startswith(
        f"error: SchemaMismatch: {schema}: maximum recursion depth exceeded")
    assert not out.exists()


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


@pytest.mark.parametrize("roster", ["missing.csv", "roster.csv"], ids=["missing-file", "valid-file"])
def test_score_rejects_a_roster_with_module_inputs(capsys, tmp_path, roster):
    (tmp_path / "roster.csv").write_text("module_code,semester,registered\nM1,1,40\n")
    out = tmp_path / "scored.csv"
    assert run(["score", "--in", MODULE_SAMPLE, "--roster", str(tmp_path / roster), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", (
        f"error: ValueError: {MODULE_SAMPLE}: --roster applies only to an events CSV; "
        "module inputs carry attend_avg\n"
    ))
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value",
    [("--fraction", "0.3"), ("--seed", "9"), ("--criterion", "gain"), ("--min-leaf", "7"),
     ("--seed", "0")],
    ids=["fraction", "seed", "criterion", "min-leaf", "seed-at-its-default"],
)
def test_evaluate_with_a_model_rejects_the_split_options(capsys, tmp_path, option, value):
    ds = make_dataset(tmp_path)
    model = tmp_path / "model.json"
    assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
    capsys.readouterr()
    out = tmp_path / "eval.json"
    assert run(["evaluate", "--in", str(ds), "--model", str(model), option, value, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: ValueError: {option} applies only to evaluate without --model\n")
    assert not out.exists()


def test_evaluate_without_a_model_defaults_the_split_options(capsys, tmp_path):
    ds = make_dataset(tmp_path)
    capsys.readouterr()
    outputs = []
    for extra in ([], ["--fraction", "0.70", "--seed", "0", "--criterion", "gain-ratio", "--min-leaf", "2"]):
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--in", str(ds), "--out", str(out), *extra]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["sizes"] == {"train": 41, "test": 18}
    out = tmp_path / "eval.json"
    argv = ["evaluate", "--in", str(ds), "--out", str(out), "--fraction", "0.5", "--seed", "9",
            "--criterion", "gain", "--min-leaf", "7"]
    assert run(argv) == 0
    assert json.loads(out.read_bytes())["sizes"] == {"train": 30, "test": 29}


def every_command(tmp_path):
    """The argv, without --out, of one run of each subcommand that succeeds
    and prints to stdout; their inputs are made in ``tmp_path``."""
    events = tmp_path / "events.csv"
    assert run(["gen", "--kind", "events", "--modules", "3", "--seed", "1", "--out", str(events)]) == 0
    ds = make_dataset(tmp_path)
    model = tmp_path / "model.json"
    assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
    return {
        "ingest": ["ingest", "--in", str(events)],
        "score-events": ["score", "--in", str(events)],
        "score-module-inputs": ["score", "--in", MODULE_SAMPLE],
        "reliability": ["reliability", "--in", PANEL],
        "train": ["train", "--in", str(ds)],
        "rules": ["rules", "--in", str(model)],
        "evaluate-split": ["evaluate", "--in", str(ds)],
        "evaluate-model": ["evaluate", "--in", str(ds), "--model", str(model)],
        "predict": ["predict", "--in", str(ds), "--model", str(model)],
        "gen": ["gen", "--kind", "dataset", "--seed", "3"],
    }


def the_one_error_line(capsys) -> str:
    """The run's ``error:`` line, once stdout is checked empty and stderr to end in that one line."""
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and captured.err.endswith(errors[0] + "\n")
    return errors[0]


def test_a_cell_csv_cannot_write_is_one_error_line_and_no_out(capsys, tmp_path):
    # Before Python 3.11 csv cannot write NUL, so the header of --out fails; later, the input lacks the column.
    ds = make_dataset(tmp_path)
    model, out = tmp_path / "model.json", tmp_path / "pred.csv"
    assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
    model.write_text(model.read_text().replace('"attend_avg"', '"attend_avg\\u0000"'))
    capsys.readouterr()
    assert run(["predict", "--in", str(ds), "--model", str(model), "--out", str(out)]) == 1
    error = the_one_error_line(capsys)
    assert error.startswith("error: SchemaMismatch: cannot write a cell: " if sys.version_info < (3, 11)
                            else f"error: MissingHeader: {ds}:")
    assert not out.exists()


COMMANDS = (
    "ingest", "score-events", "score-module-inputs", "reliability", "train", "rules",
    "evaluate-split", "evaluate-model", "predict", "gen",
)


@pytest.mark.parametrize("command", COMMANDS)
def test_an_out_that_cannot_be_opened_prints_nothing_and_exits_2(capsys, tmp_path, command):
    argv = every_command(tmp_path)[command]
    assert run(argv + ["--out", str(tmp_path / "x.out")]) == 0
    assert capsys.readouterr().out
    assert run(argv + ["--out", str(tmp_path / "missing" / "x")]) == 2
    assert the_one_error_line(capsys).startswith("error: [Errno 2] No such file or directory")


EMPTY_PATHS = (
    *(f"out-{command}" for command in COMMANDS),
    *(f"in-{command}" for command in COMMANDS if command != "gen"),
    "model-evaluate-model", "model-predict", "roster-score-events", "thresholds-gen",
)


@pytest.mark.parametrize("case", EMPTY_PATHS)
def test_an_empty_path_is_a_path_that_cannot_be_opened(capsys, tmp_path, monkeypatch, case):
    option, _, command = case.partition("-")
    argv = every_command(tmp_path)[command]
    if option == "out":
        argv += ["--out", ""]
    else:
        if f"--{option}" in argv:
            argv[argv.index(f"--{option}") + 1] = ""
        else:
            argv += [f"--{option}", ""]
        argv += ["--out", str(tmp_path / "x.out")]
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert run(argv) == 2
    the_one_error_line(capsys)
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("case", EMPTY_PATHS)
def test_an_empty_path_is_named_by_its_option(capsys, tmp_path, case):
    option, _, command = case.partition("-")
    argv = every_command(tmp_path)[command] + [f"--{option}", ""]  # the last value given wins
    capsys.readouterr()
    assert run(argv) == 2
    assert the_one_error_line(capsys) == f"error: --{option}: empty path"


def every_command_failing_late(tmp_path):
    """For each entry of :func:`every_command`, the argv, without --out, of a
    run that reads its whole input and then exits 1, and a part of its error
    line: a bad last row for the readers (past the first 1,024-row chunk on
    the apply path), a bad last leaf for rules, a tree too deep for train and
    thresholds that are not numbers for gen."""
    events = tmp_path / "events.csv"
    assert run(["gen", "--kind", "events", "--modules", "3", "--seed", "1", "--out", str(events)]) == 0
    with events.open("ab") as fh:
        fh.write(b"s1,M1,1,1,pres\xffent\n")
    modules = tmp_path / "modules.csv"
    modules.write_text(Path(MODULE_SAMPLE).read_text() + "M1,1,11,12,50.0\n")
    panel = tmp_path / "panel.csv"
    panel.write_text(Path(PANEL).read_text() + "Z,0.1,0.2,0.3,0.4,1.5\n")
    ds = make_dataset(tmp_path, n=1100)
    model = tmp_path / "model.json"
    assert run(["train", "--in", str(ds), "--out", str(model)]) == 0
    with ds.open("a") as fh:
        fh.write("inf,10,2,10\n")
    doc = json.loads(model.read_text())
    node = doc["tree"]
    while node["type"] == "split":
        node = node["gt"] if "gt" in node else list(node["branches"].values())[-1]
    node["distribution"] = {node["class"]: 7.5}
    bad_model = tmp_path / "bad_model.json"
    bad_model.write_text(json.dumps(doc))
    alt, _ = write_alternating_dataset(tmp_path, 600)
    thresholds = tmp_path / "t.json"
    thresholds.write_text('[60, "a"]')
    return {
        "ingest": (["ingest", "--in", str(events)], "events.csv:"),
        "score-events": (["score", "--in", str(events)], "events.csv:"),
        "score-module-inputs": (["score", "--in", str(modules)], "modules.csv:5: "),
        "reliability": (["reliability", "--in", str(panel)], "panel.csv:12: Z: "),
        "train": (["train", "--in", str(alt), "--criterion", "gain", "--min-leaf", "1"], "TreeTooDeep"),
        "rules": (["rules", "--in", str(bad_model)], "does not fit label"),
        "evaluate-split": (["evaluate", "--in", str(ds)], "ds.csv:1102: "),
        "evaluate-model": (["evaluate", "--in", str(ds), "--model", str(model)], "ds.csv:1102: "),
        "predict": (["predict", "--in", str(ds), "--model", str(model)], "ds.csv:1102: "),
        "gen": (["gen", "--kind", "dataset", "--thresholds", str(thresholds)], "InvalidThresholds"),
    }


@pytest.mark.parametrize("command", COMMANDS)
def test_a_run_that_fails_after_reading_prints_nothing_and_leaves_its_out(capsys, tmp_path, command):
    argv, fault = every_command_failing_late(tmp_path)[command]
    out = tmp_path / "earlier.out"
    out.write_bytes(b"an artifact of an earlier run\n")
    capsys.readouterr()
    assert run(argv + ["--out", str(out)]) == 1
    assert fault in the_one_error_line(capsys)
    assert out.read_bytes() == b"an artifact of an earlier run\n"


def test_gen_that_cannot_write_its_sidecar_leaves_an_existing_out(capsys, tmp_path):
    out = tmp_path / "ds.csv"
    out.write_bytes(b"an artifact of an earlier run\n")
    (tmp_path / "ds.schema.json").mkdir()
    assert run(["gen", "--kind", "dataset", "--out", str(out)]) == 2
    assert "ds.schema.json" in the_one_error_line(capsys)
    assert out.read_bytes() == b"an artifact of an earlier run\n"


def test_gen_dataset_asks_for_out_before_it_reads_or_generates(capsys, tmp_path):
    assert run(["gen", "--kind", "dataset", "--thresholds", str(tmp_path / "missing.json")]) == 1
    assert the_one_error_line(capsys) == "error: ValueError: gen --kind dataset requires --out"


@pytest.mark.parametrize(
    "argv",
    [["evaluate", "--in", "{ds}"], ["gen", "--kind", "events"], ["gen", "--kind", "dataset", "--out", "{ds}"]],
    ids=["evaluate", "gen-events", "gen-dataset"],
)
def test_a_negative_seed_is_named_by_its_option(capsys, tmp_path, argv):
    ds = make_dataset(tmp_path)
    before = ds.read_bytes()
    capsys.readouterr()
    assert run([arg.replace("{ds}", str(ds)) for arg in argv] + ["--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: ValueError: --seed: expected a non-negative integer, got -1\n")
    assert ds.read_bytes() == before


@pytest.mark.parametrize("n", ["0", "-5"])
def test_gen_names_a_row_count_below_one_by_its_option(capsys, tmp_path, n):
    out = tmp_path / "ds.csv"
    assert run(["gen", "--kind", "dataset", "--n", n, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: InvalidParams: --n: n must be >= 1, got {n}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("option, field", [("--modules", "module_count"), ("--weeks", "weeks_total")])
def test_gen_events_names_a_count_below_one_by_its_option(capsys, tmp_path, option, field, out):
    argv = ["gen", "--kind", "events", option, "0"] + (["--out", str(tmp_path / "e.csv")] if out else [])
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: InvalidParams: {option}: {field} must be >= 1, got 0\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["events", "module-inputs"])
def test_score_reads_a_pipe_as_it_reads_the_file(tmp_path, kind):
    """score opens --in once, so /dev/stdin fed by a pipe gives the bytes of
    the file run: stdout, stderr and --out."""
    source = Path(MODULE_SAMPLE)
    if kind == "events":
        source = tmp_path / "events.csv"
        assert run(["gen", "--kind", "events", "--modules", "3", "--seed", "2", "--out", str(source)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(sacmine.__file__).resolve().parents[1]))
    runs = []
    for name, path, stdin in (("file", source, None), ("pipe", "/dev/stdin", source.read_bytes())):
        out = tmp_path / f"{name}.csv"
        done = subprocess.run([sys.executable, "-m", "sacmine", "score", "--in", str(path), "--out", str(out)],
                              input=stdin, env=env, capture_output=True)
        runs.append((done.returncode, done.stdout, done.stderr, out.read_bytes() if out.exists() else None))
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0]
    if kind == "module-inputs":
        done = subprocess.run([sys.executable, "-m", "sacmine", "score", "--in", "/dev/stdin", "--weeks", "5"],
                              input=source.read_bytes(), env=env, capture_output=True)
        assert (done.returncode, done.stdout, done.stderr.decode()) == (1, b"", (
            "error: ValueError: /dev/stdin: --weeks applies only to an events CSV; module inputs carry weeks_total\n"))


@pytest.mark.parametrize("weeks", ["0", "-3"])
def test_score_names_a_weeks_below_one_by_its_option(capsys, tmp_path, weeks):
    events = tmp_path / "events.csv"
    events.write_text("student_id,module_code,semester,week,status\ns1,M1,1,1,present\n")
    assert run(["score", "--in", str(events), "--weeks", weeks]) == 1
    assert capsys.readouterr() == ("", f"error: ValueError: --weeks: weeks_total must be >= 1, got {weeks}\n")


@pytest.mark.parametrize(
    "argv, message",
    [(["train", "--min-leaf", "0"], "ValueError: --min-leaf: min_leaf must be >= 1, got 0"),
     (["evaluate", "--min-leaf", "-3"], "ValueError: --min-leaf: min_leaf must be >= 1, got -3"),
     (["evaluate", "--fraction", "1.5"], "InvalidFraction: --fraction: train_fraction must be in (0, 1), got 1.5"),
     (["evaluate", "--fraction", "0"], "InvalidFraction: --fraction: train_fraction must be in (0, 1), got 0.0")],
    ids=["train-min-leaf", "evaluate-min-leaf", "fraction-above-1", "fraction-0"],
)
def test_a_bad_min_leaf_or_fraction_is_named_by_its_option(capsys, tmp_path, argv, message):
    ds = make_dataset(tmp_path)
    capsys.readouterr()
    assert run([argv[0], "--in", str(ds), *argv[1:]]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("min_leaf", [[], ["--min-leaf", "0"]], ids=["default", "min-leaf-0"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_a_label_only_dataset_is_named_before_the_min_leaf(capsys, tmp_path, command, min_leaf):
    ds = tmp_path / "labels.csv"
    ds.write_text("SAC_Strength\n5\n6\n5\n6\n")
    column = {"name": "SAC_Strength", "kind": "nominal", "domain": ["5", "6"]}
    schema = {"label": "SAC_Strength", "columns": [column]}
    (tmp_path / "labels.schema.json").write_text(json.dumps(schema))
    assert run([command, "--in", str(ds), *min_leaf]) == 1
    assert capsys.readouterr() == ("", "error: ValueError: schema has no non-label attributes\n")


@pytest.mark.parametrize(
    "argv, text",
    [(["reliability", "--in", PANEL],
      "alpha 0.859\nestimator population\n"
      "sum_item_variance 0.056351729999999996\ntotal_score_variance 0.17992929000000005\n"),
     (["reliability", "--in", PANEL, "--estimator", "paper-mixed"],
      "alpha 0.815\nestimator paper-mixed\n"
      "sum_item_variance 0.06261303333333333\ntotal_score_variance 0.17992929000000005\n"),
     (["evaluate", "--in", "{ds}"], "accuracy 0.7142857142857143\nrmse 0.23904572186687872\n")],
    ids=["reliability", "reliability-paper-mixed", "evaluate"],
)
def test_the_text_artifacts_of_reliability_and_evaluate(tmp_path, argv, text):
    ds = make_dataset(tmp_path, seed=1, n=25)
    out = tmp_path / "report.txt"
    argv = [arg.replace("{ds}", str(ds)) for arg in argv]
    assert run(argv + ["--format", "text", "--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()


def files_under(root):
    """Each path under ``root`` with its bytes, or None for a directory."""
    return {p: None if p.is_dir() else p.read_bytes() for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize(
    "case", ["csv-is-a-directory", "schema-is-a-directory", "out-in-a-missing-directory", "bad-thresholds"]
)
def test_gen_dataset_that_fails_leaves_its_csv_and_sidecar_as_they_were(capsys, tmp_path, case):
    """The CSV and its sidecar schema are written together when gen returns,
    or neither is: a failed open of one leaves the other unwritten, untruncated
    and, if the run would have created it, absent."""
    ds, schema = tmp_path / "ds.csv", tmp_path / "ds.schema.json"
    argv = ["gen", "--kind", "dataset", "--out", str(ds)]
    if case == "csv-is-a-directory":
        ds.mkdir()
        schema.write_bytes(b"the schema of an earlier run\n")
    elif case == "schema-is-a-directory":
        schema.mkdir()  # and no ds.csv: the run must not leave one
    elif case == "out-in-a-missing-directory":
        ds.write_bytes(b"an earlier dataset\n")
        schema.write_bytes(b"the schema of an earlier run\n")
        argv[-1] = str(tmp_path / "missing" / "ds.csv")
    else:
        assert run(["gen", "--kind", "dataset", "--seed", "3", "--out", str(ds)]) == 0
        (tmp_path / "t.json").write_text('[60, "a"]')
        argv += ["--thresholds", str(tmp_path / "t.json")]
    before = files_under(tmp_path)
    capsys.readouterr()
    assert run(argv) == (1 if case == "bad-thresholds" else 2)
    the_one_error_line(capsys)
    assert files_under(tmp_path) == before


def test_gen_dataset_replaces_an_earlier_pair_whole(tmp_path):
    """A longer CSV and sidecar of an earlier run are truncated, not written over in part."""
    (tmp_path / "fresh").mkdir()
    make_dataset(tmp_path / "fresh")
    for name in ("ds.csv", "ds.schema.json"):
        (tmp_path / name).write_bytes(b"x" * 100_000)
    make_dataset(tmp_path)
    for name in ("ds.csv", "ds.schema.json"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_an_out_that_is_a_device_is_written_not_truncated():
    assert run(["gen", "--kind", "events", "--out", os.devnull]) == 0


def test_the_split_and_gen_need_no_numpy(tmp_path):
    """With numpy unimportable, gen of both kinds and evaluate's seeded split
    exit 0 and write the bytes a run with numpy importable writes."""
    src = Path(sacmine.__file__).resolve().parents[1]
    child = (
        "import json, sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['numpy'] = None\n"
        "from sacmine.cli import run\n"
        "sys.exit(max(run(argv) for argv in json.loads(sys.argv[2])))\n"
    )
    argvs = [
        ["gen", "--kind", "events", "--seed", "5", "--out", "events.csv"],
        ["gen", "--kind", "events", "--seed", "99", "--modules", "3"],
        ["gen", "--kind", "dataset", "--seed", "5", "--n", "300", "--out", "ds.csv"],
        ["evaluate", "--in", "ds.csv", "--fraction", "0.7", "--seed", "5", "--out", "eval.json"],
    ]
    env = dict(os.environ, PYTHONPATH=str(src))
    outputs = {}
    for side in ("blocked", "normal"):
        (tmp_path / side).mkdir()
        done = subprocess.run([sys.executable, "-c", child, side, json.dumps(argvs)], cwd=tmp_path / side,
                              env=env, capture_output=True, check=True)
        outputs[side] = (done.stdout, done.stderr, {p.name: p.read_bytes() for p in (tmp_path / side).iterdir()})
    assert outputs["blocked"] == outputs["normal"]
    assert sorted(outputs["normal"][2]) == ["ds.csv", "ds.schema.json", "eval.json", "events.csv"]
