"""Tests of the benchmark harness itself, on tiny smoke-size inputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run_bench  # noqa: E402
import spans  # noqa: E402
from workloads import SIZES, write_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run_bench.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("audit-boot", 0), ("audit-wide", 1),
                                            ("simulate-mlp", 0)])
def test_printed_metrics_match_benchmark_json(workload, trace):
    proc = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_benchmark("--workload", "audit-boot", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spans_nest_and_self_times_add_up(tmp_path):
    from cfaudit import cli, pipeline

    original = pipeline.run_pipeline
    inputs = write_inputs("audit-boot", 5, tmp_path / "in", smoke=True)
    code, span_list, wall = spans.traced_main(
        ["--config", str(inputs["config"]), "--out", str(tmp_path / "out"), "--threads", "1"])
    assert code == 0
    assert pipeline.run_pipeline is original and cli.run_pipeline is original

    roots = [s for s in span_list if s.parent is None]
    assert [r.name for r in roots] == ["cli.main"]
    for s in span_list:
        assert s.start <= s.end
        if s.parent is not None:
            parent = span_list[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    selfs = spans.self_times(span_list)
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(roots[0].duration, abs=1e-6)
    assert roots[0].duration <= wall

    metrics = spans.layer_metrics(span_list, wall, wall)
    B = SIZES["smoke"]["audit-boot"]["B"]
    assert metrics["pipeline.point_runs"] == 2
    assert metrics["pipeline.run_pipeline.calls"] == B + 2
    assert metrics["pipeline.ext_fit_useful_ratio"] == pytest.approx(1 / (B + 2))
    assert metrics["models.fit_multiclass.calls"] == 2 * (B + 2)


def test_failed_runs_are_counted_not_dropped(tmp_path):
    size = SIZES["smoke"]["audit-boot"]
    inputs = write_inputs("audit-boot", 5, tmp_path / "in", smoke=True)
    calls = []

    def check(out, reference):
        calls.append(out)
        errors = run_bench.check_outputs("audit-boot", out, size, reference)
        return errors + (["injected failure"] if len(calls) == 2 else [])

    samples = run_bench.timed_samples(inputs["config"], tmp_path, 0.0, 3, check)
    assert [bool(s["errors"]) for s in samples] == [False, True, False]
    wanted = [{"name": "wall_s", "unit": "s"}]
    line = run_bench.result(samples, {"wall_s": 1.0}, wanted)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 3, 1)

    # a real defect in the outputs is caught by the checks
    report_path = tmp_path / "out0" / "report.json"
    report = json.loads(report_path.read_text())
    cell = next(e for e in report["estimates"] if e["method"] == "proposed-internal")
    cell["defined"] = False
    report_path.write_text(json.dumps(report))
    errors = run_bench.check_outputs("audit-boot", tmp_path / "out0", size, tmp_path / "out2")
    assert any("undefined" in e for e in errors)
    assert any("differs from the first run" in e for e in errors)
