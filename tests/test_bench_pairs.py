"""tools/bench_pairs.py: parsing perfbench's output lines and reducing
alternating parent/change runs to quartiles, ratios and pair wins, on
canned lines (no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result_line(**values):
    return json.dumps({"correct": True, "attempted": 4, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "ms"}
                                   for k, v in values.items()}})


def stdout(record, **values):
    return "\n".join([
        "image_step_ms_p50                          100.0000 ms",
        "check ok   data 0: manifest reloads through its hash check",
        "fail_frac 0/4",
        "record " + json.dumps(record),
        result_line(**values),
        "",
    ])


def test_parse_run_takes_record_and_last_line():
    record, result = bench_pairs.parse_run(stdout({"seed": 3, "loss_final": [1.5]},
                                                  image_step_ms_p50=100.0))
    assert record == {"seed": 3, "loss_final": [1.5]}
    assert result["correct"] and result["metrics"]["image_step_ms_p50"]["value"] == 100.0


@pytest.mark.parametrize("text", [
    "",
    result_line(wall_s=1.0),                          # no record line
    "record {}\nerror: no dsaa sources under src",    # last line not JSON
    "record {}\n[1, 2]",                              # not a result object
])
def test_parse_run_rejects_incomplete_output(text):
    with pytest.raises(ValueError):
        bench_pairs.parse_run(text)


def runs(parent_values, change_values):
    out = []
    for pair, (p, c) in enumerate(zip(parent_values, change_values)):
        for tree, v in (("parent", p), ("change", c)):
            out.append({"tree": tree, "pair": pair, "record": {},
                        "result": json.loads(result_line(**v))})
    return out


def test_quartiles_ratios_and_wins():
    parent = [{"image_step_ms_p50": v, "gen_frames_per_s": 5.0 + i}
              for i, v in enumerate([1000.0, 980.0, 1020.0, 990.0])]
    change = [{"image_step_ms_p50": v, "gen_frames_per_s": 6.0 + i}
              for i, v in enumerate([700.0, 720.0, 1030.0, 690.0])]
    s = bench_pairs.summarize(runs(parent, change),
                              {"image_step_ms_p50": "lower", "gen_frames_per_s": "higher",
                               "wall_s": "lower"})
    # exclusive quartiles of 980, 990, 1000, 1020
    assert s["quartiles"]["parent"]["image_step_ms_p50"] == [982.5, 995.0, 1015.0]
    assert s["quartiles"]["change"]["image_step_ms_p50"][1] == 710.0
    assert s["quartiles"]["parent"]["gen_frames_per_s"][1] == 6.5
    assert s["ratio_of_medians"]["image_step_ms_p50"] == pytest.approx(710.0 / 995.0)
    # lower is better for step time (pair 2 lost), higher for frames/s;
    # a metric no run reports is left out
    assert s["change_better_pairs"] == {"image_step_ms_p50": "3/4",
                                        "gen_frames_per_s": "4/4"}


def test_quartiles_keep_metrics_every_run_reports():
    results = [json.loads(result_line(a=1.0, b=2.0)), json.loads(result_line(a=3.0))]
    assert bench_pairs.quartiles(results) == {"a": [0.5, 2.0, 3.5]}   # exclusive method
    assert bench_pairs.quartiles(results[:1]) == {"a": [1.0, 1.0, 1.0], "b": [2.0, 2.0, 2.0]}
    assert bench_pairs.quartiles([]) == {}
