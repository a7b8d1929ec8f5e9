"""Golden outputs of ``predict`` and ``evaluate --model`` on a hand-written model.

The model splits on a number, on a nominal column and on a second number;
one leaf's distribution lacks a class. Rows sit exactly on both thresholds
and just past them, with padded, quoted and exponent cells and a blank
line. The CSVs order their columns unlike the model, and the instances
carry an extra column. The expected text is what the CLI wrote when every
row went through the nested tree, one ``predict`` call per row.
"""

import pytest

from sacmine.cli import run

MODEL = """\
{
  "format": "sacmine-tree",
  "version": 1,
  "schema": {
    "columns": [
      {"name": "attend_avg", "kind": "numeric"},
      {"name": "attend_taken", "kind": "numeric"},
      {"name": "sem_no", "kind": "nominal", "domain": ["1", "2"]},
      {"name": "SAC_Strength", "kind": "nominal", "domain": ["1", "2", "3"]}
    ],
    "label": "SAC_Strength"
  },
  "tree": {
    "type": "split", "attribute": "attend_avg", "index": 0, "threshold": 50.5,
    "le": {
      "type": "split", "attribute": "sem_no", "index": 2,
      "branches": {
        "1": {"type": "leaf", "class": "1", "n": 4, "distribution": {"1": 0.75, "2": 0.25, "3": 0.0}},
        "2": {"type": "leaf", "class": "2", "n": 3,
              "distribution": {"1": 0.3333333333333333, "2": 0.6666666666666666, "3": 0.0}}
      }
    },
    "gt": {
      "type": "split", "attribute": "attend_taken", "index": 1, "threshold": 6.0,
      "le": {"type": "leaf", "class": "2", "n": 5, "distribution": {"2": 0.6, "3": 0.4}},
      "gt": {"type": "leaf", "class": "3", "n": 2, "distribution": {"3": 1.0}}
    }
  }
}
"""

INSTANCES = """\
sem_no,note,attend_taken,attend_avg
1,a,3,50.5
2,b,3,50.5
1,"c, quoted",6,50.50001
2,d,6.0,51
 1 ,padded, 7 , 99.25 
"2",e,1e1,1e2
1,f,0,0
2,g,11,-0.0
1,h,5.999999999999999,75

2,i,6.000000000000001,75
1,j,2,12.125
2,k,9,33.3
"""

LABELLED = """\
SAC_Strength,sem_no,attend_avg,attend_taken
1,1,50.5,3
2,2,50.5,3
1,2,40,1
3,1,50.50001,6
2,2,51,6.0
3,1,99.25,7
3,2,1e2,1e1
1,1,0,0
2,2,-0.0,11
2,1,75,5.999999999999999
3,2,75,6.000000000000001
1,1,12.125,2
"""

LABELLED_SCHEMA = """\
{"columns": [{"name": "SAC_Strength", "kind": "nominal", "domain": ["1", "2", "3"]},
             {"name": "sem_no", "kind": "nominal", "domain": ["1", "2"]},
             {"name": "attend_avg", "kind": "numeric"},
             {"name": "attend_taken", "kind": "numeric"}],
 "label": "SAC_Strength"}
"""

PREDICT_STDOUT = """\
(50.5, 3.0, '1') -> SAC_Strength = 1 (p=0.750)
(50.5, 3.0, '2') -> SAC_Strength = 2 (p=0.667)
(50.50001, 6.0, '1') -> SAC_Strength = 2 (p=0.600)
(51.0, 6.0, '2') -> SAC_Strength = 2 (p=0.600)
(99.25, 7.0, '1') -> SAC_Strength = 3 (p=1.000)
(100.0, 10.0, '2') -> SAC_Strength = 3 (p=1.000)
(0.0, 0.0, '1') -> SAC_Strength = 1 (p=0.750)
(-0.0, 11.0, '2') -> SAC_Strength = 2 (p=0.667)
(75.0, 5.999999999999999, '1') -> SAC_Strength = 2 (p=0.600)
(75.0, 6.000000000000001, '2') -> SAC_Strength = 3 (p=1.000)
... 2 more
"""

PREDICTIONS_CSV = """\
attend_avg,attend_taken,sem_no,predicted,confidence
50.5,3.0,1,1,0.75
50.5,3.0,2,2,0.6666666666666666
50.50001,6.0,1,2,0.6
51.0,6.0,2,2,0.6
99.25,7.0,1,3,1.0
100.0,10.0,2,3,1.0
0.0,0.0,1,1,0.75
-0.0,11.0,2,2,0.6666666666666666
75.0,5.999999999999999,1,2,0.6
75.0,6.000000000000001,2,3,1.0
12.125,2.0,1,1,0.75
33.3,9.0,2,2,0.6666666666666666
"""

EVALUATION_JSON = """\
{
  "accuracy": 0.8333333333333334,
  "rmse": 0.29194431229513873,
  "classes": [
    "1",
    "2",
    "3"
  ],
  "confusion": [
    [
      3,
      1,
      0
    ],
    [
      0,
      4,
      0
    ],
    [
      0,
      1,
      3
    ]
  ],
  "sizes": {
    "train": null,
    "test": 12
  }
}
"""

EVALUATE_STDOUT = """\
accuracy 0.833 rmse 0.2919 (test n=12)
"""


@pytest.fixture
def work(tmp_path):
    for name, text in [
        ("model.json", MODEL),
        ("instances.csv", INSTANCES),
        ("labelled.csv", LABELLED),
        ("labelled.schema.json", LABELLED_SCHEMA),
    ]:
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


def test_predict_golden(work, capsys):
    out = work / "predictions.csv"
    argv = ["predict", "--in", str(work / "instances.csv"), "--model", str(work / "model.json")]
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == PREDICT_STDOUT
    assert out.read_bytes() == PREDICTIONS_CSV.encode()


def test_evaluate_model_golden(work, capsys):
    out = work / "evaluation.json"
    argv = ["evaluate", "--in", str(work / "labelled.csv"), "--model", str(work / "model.json")]
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == EVALUATE_STDOUT
    assert out.read_bytes() == EVALUATION_JSON.encode()
