"""cfaudit benchmark: times the ``cfaudit`` CLI on seeded workloads.

Run from the root of a cfaudit checkout:

    python3 bench/run_bench.py --workload audit-boot --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the CLI runs as a subprocess, the way users run it, and
the end-to-end metrics of BENCHMARK.json are reported. With ``--trace 1``
``cfaudit.cli.main`` runs in-process three times (untraced, traced with a
span around every public function, untraced again) and the per-layer metrics
are reported. Every run's outputs are checked; a run whose checks fail is
counted in ``failed``. The last line of standard output is the result as
JSON; the line before it records the environment, input digests and raw
samples. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import SIZES, WORKLOADS, expected_units, write_inputs

ROOT = Path.cwd()
SRC = ROOT / "src"
# (no-op CLI calls timed for setup_s, least number of timed workload runs)
REPEATS = {"full": (3, 3), "smoke": (2, 2)}
# A hung CLI call is killed after this long, so a run still ends in time.
CHILD_TIMEOUT_S = 150
PROPOSED = ("proposed-internal", "proposed-borrowing")
SIM_GROUP_LABELS = ("overall", "0|0", "0|1", "1|0", "1|1")
METHODS = ("comparison",) + PROPOSED


def _die(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def _metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# output checks


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def _num(cell: str):
    return None if cell == "NA" else float(cell)


def check_audit(out: Path, bootstrap_b: int) -> list[str]:
    import jsonschema

    errors = []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    schema = json.loads((SRC / "cfaudit" / "report_schema.json").read_text(encoding="utf-8"))
    for err in jsonschema.Draft7Validator(schema).iter_errors(report):
        errors.append(f"report.json: {err.message}")
    for row in report["estimates"]:
        cell = f"{row['group']}/{row['metric']}/{row['method']}"
        if row["method"] in PROPOSED and not row["defined"]:
            errors.append(f"{cell} is undefined")
        if not bootstrap_b or row["value"] is None:
            continue
        lo, hi = row.get("lower"), row.get("upper")
        if row.get("B") != bootstrap_b or lo is None or hi is None:
            errors.append(f"{cell} has no interval")
        elif not 0.0 <= lo <= row["value"] <= hi <= 1.0:
            errors.append(f"{cell} interval [{lo}, {hi}] does not hold {row['value']}")
    if len(_read_csv(out / "report.csv")) != len(report["estimates"]):
        errors.append("report.csv and report.json disagree on the cell count")
    return errors


def check_simulate(out: Path, sweep_values: list) -> list[str]:
    errors = []
    rows = _read_csv(out / "aggregate.csv")
    expected = {(repr(float(b)), g, m, meth) for b in sweep_values
                for g in SIM_GROUP_LABELS for m in ("cFPR", "cFNR") for meth in METHODS}
    seen = {(r["b"], r["group"], r["metric"], r["method"]) for r in rows}
    if seen != expected or len(rows) != len(expected):
        errors.append(f"aggregate.csv rows: {len(expected - seen)} missing, "
                      f"{len(seen - expected)} unexpected, {len(rows)} total")
    for r in rows:
        cell = f"b={r['b']}/{r['group']}/{r['metric']}/{r['method']}"
        if r["method"] in PROPOSED and r["na_count"] != "0":
            errors.append(f"{cell} has {r['na_count']} undefined replications")
        bounds = [_num(r[k]) for k in ("p2.5", "p97.5")]
        mean = _num(r["mean"])
        if None not in bounds and not 0.0 <= bounds[0] <= bounds[1] <= 1.0:
            errors.append(f"{cell} band {bounds} outside [0, 1]")
        if mean is not None and not 0.0 <= mean <= 1.0:
            errors.append(f"{cell} mean {mean} outside [0, 1]")
    for r in _read_csv(out / "replications.csv"):
        if r["method"] in PROPOSED and r["defined"] != "True":
            errors.append(f"replication {r['replication']} {r['method']} undefined")
    return errors


def check_outputs(workload: str, out: Path, size: dict, reference: Path | None) -> list[str]:
    """Every failed check of one CLI run, as messages; empty when it passed.
    ``reference`` is an earlier run whose output bytes this one must repeat."""
    try:
        if workload == "simulate-mlp":
            errors = check_simulate(out, size["b"])
        else:
            errors = check_audit(out, size.get("B", 0))
        if reference is not None:
            manifest = json.loads((reference / "manifest.json").read_text(encoding="utf-8"))
            for name in manifest["outputs"]:
                if (out / name).read_bytes() != (reference / name).read_bytes():
                    errors.append(f"{name} differs from the first run")
    except (OSError, ValueError, KeyError) as err:
        errors = [f"unreadable outputs: {err!r}"]
    return errors


# ---------------------------------------------------------------------------
# statistics read from the outputs


def defined_frac(workload: str, out: Path) -> float:
    """Defined cells over all cells: point estimates plus bootstrap replicate
    cells for audits, replication cells for simulations."""
    if workload == "simulate-mlp":
        rows = _read_csv(out / "replications.csv")
        return sum(r["defined"] == "True" for r in rows) / len(rows)
    rows = json.loads((out / "report.json").read_text(encoding="utf-8"))["estimates"]
    cells = len(rows) + sum(r.get("B") or 0 for r in rows)
    na = sum(not r["defined"] for r in rows) + sum(r.get("na_count") or 0 for r in rows)
    return (cells - na) / cells


def oracle_abs_err(workload: str, out: Path) -> float:
    """Mean |replication mean - oracle| over the proposed-* cells of a
    simulation; 0 for audits, which have no oracle."""
    if workload != "simulate-mlp":
        return 0.0
    errs = [abs(_num(r["mean"]) - _num(r["oracle"])) for r in _read_csv(out / "aggregate.csv")
            if r["method"] in PROPOSED and "NA" not in (r["mean"], r["oracle"])]
    return statistics.fmean(errs)


# ---------------------------------------------------------------------------
# measurement


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(args: list[str], log: Path) -> tuple[float, float, int]:
    """Run ``python -m cfaudit.cli args``; returns (wall s, peak RSS MiB of
    that child alone, exit code). A run over the time limit is killed."""
    start = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen([sys.executable, "-m", "cfaudit.cli", *args], cwd=ROOT,
                                env=_child_env(), stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, usage.ru_utime + usage.ru_stime


def timed_samples(config: Path, work: Path, seconds: float, min_samples: int,
                  check) -> list[dict]:
    """At least ``min_samples`` CLI runs, then more while the next one is
    expected to end within ``seconds`` of the start.

    The first run reads the workload config; every later one re-runs the
    first run's manifest and must reproduce its output bytes. ``check(out,
    reference)`` returns the failed checks of one run. Failed runs are kept.
    """
    samples = []
    first = work / "out0"
    start = time.perf_counter()
    while (len(samples) < min_samples or time.perf_counter() - start
           + statistics.median(s["wall_s"] for s in samples) <= seconds):
        i = len(samples)
        out = work / f"out{i}"
        reuse = i > 0 and (first / "manifest.json").is_file()
        source = first / "manifest.json" if reuse else config
        wall, rss, code, cpu = run_cli(["--config", str(source), "--out", str(out)],
                                       work / f"out{i}.log")
        errors = [f"exit code {code}"] if code != 0 else check(out, first if reuse else None)
        samples.append({"wall_s": wall, "peak_rss_mb": rss, "cpu_s": cpu, "errors": errors})
    return samples


def measure_end_to_end(workload, inputs, work, seconds, size, smoke) -> tuple[dict, dict, list]:
    setup_n, min_samples = REPEATS["smoke" if smoke else "full"]
    setup = []
    for i in range(setup_n):
        log = work / f"setup{i}.log"
        wall, _, code, _ = run_cli(["--help"], log)
        if code != 0:
            _die(f"the no-op CLI call exited with {code}: {log.read_text()[-2000:]}", 1)
        setup.append(wall)

    samples = timed_samples(
        inputs["config"], work, seconds, min_samples,
        lambda out, ref: check_outputs(workload, out, size, ref))
    walls = [s["wall_s"] for s in samples]
    wall = statistics.median(walls)
    first = work / "out0"
    ok = not samples[0]["errors"]
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "units_per_s": expected_units(workload, smoke) / wall,
        "defined_frac": defined_frac(workload, first) if ok else 0.0,
    }
    info = {
        "samples": len(samples), "wall_samples_s": walls, "wall_max_s": max(walls),
        "cpu_samples_s": [s["cpu_s"] for s in samples], "setup_samples_s": setup,
        "errors": [s["errors"] for s in samples if s["errors"]],
        "oracle_abs_err": oracle_abs_err(workload, first) if ok else None,
    }
    return metrics, info, samples


def measure_layers(workload, inputs, work, size) -> tuple[dict, dict, list]:
    import spans
    from cfaudit import cli

    def args(out):
        return ["--config", str(inputs["config"]), "--out", str(out), "--threads", "1"]

    # The first untraced call also warms the process up; the tracing overhead
    # compares the traced call with the second, warm, untraced one.
    untraced, traced, warm = work / "untraced", work / "traced", work / "warm"
    code_u = cli.main(args(untraced))
    code_t, span_list, traced_wall = spans.traced_main(args(traced))
    start = time.perf_counter()
    code_w = cli.main(args(warm))
    untraced_wall = time.perf_counter() - start

    samples = []
    for out, code, ref in ((untraced, code_u, None), (traced, code_t, untraced),
                           (warm, code_w, untraced)):
        errors = [f"exit code {code}"] if code != 0 else check_outputs(workload, out, size, ref)
        samples.append({"errors": errors})
    metrics = spans.layer_metrics(span_list, traced_wall, untraced_wall)
    ok = not samples[0]["errors"]
    metrics["simlab.oracle_abs_err"] = oracle_abs_err(workload, untraced) if ok else 0.0
    info = {"spans": len(span_list), "untraced_wall_s": untraced_wall,
            "errors": [s["errors"] for s in samples if s["errors"]]}
    return metrics, info, samples


def result(samples: list[dict], metrics: dict, wanted: list[dict]) -> dict:
    """The result line: every run is attempted, every run with a failed check
    is failed, and the metrics are reported with their units."""
    failed = sum(bool(s["errors"]) for s in samples)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and few repeats, to test the harness only")
    args = parser.parse_args(argv)

    if not (SRC / "cfaudit" / "cli.py").is_file():
        _die(f"no cfaudit sources under {SRC}; run from the root of a cfaudit checkout")
    sys.path.insert(0, str(SRC))
    import cfaudit

    if Path(cfaudit.__file__).resolve().parent != (SRC / "cfaudit").resolve():
        _die(f"imported cfaudit from {cfaudit.__file__}, not from {SRC}")
    specs = _metric_specs()
    size = SIZES["smoke" if args.smoke else "full"][args.workload]

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        inputs = write_inputs(args.workload, args.seed, work / "inputs", smoke=args.smoke)
        if args.trace:
            metrics, info, samples = measure_layers(args.workload, inputs, work, size)
            wanted = specs["per_layer"]
        else:
            metrics, info, samples = measure_end_to_end(
                args.workload, inputs, work, args.seconds, size, args.smoke)
            wanted = specs["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        _die(f"metrics not measured: {missing}", 1)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": environment(), "inputs": inputs["digests"], **info}))
    print(json.dumps(result(samples, metrics, wanted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
