#!/usr/bin/env python3
"""The CAFFEINE benchmark: one command, three workloads, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload evolve_long --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics instead, writing spans (JSON lines) and a per-layer
table to ``perfbench/out/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, metrics and the layer each metric should move are described
in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("evolve_long", "sweep_six", "serve_keepalive")
#: (name, unit) of every end-to-end metric an untraced run reports
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("best_test_error_pct", "%"),
    ("front_hypervolume", "ratio"),
    ("small_p50_ms", "ms"),
    ("small_p95_ms", "ms"),
    ("bulk_rows_per_s", "rows/s"),
)
#: fresh-process set-ups timed per run; setup_s is their median
SETUP_SAMPLES = 5
SETUP_TIMEOUT = 150.0
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def library_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def make_workload(name: str, seed: int, work_dir: Path):
    import bench_workloads

    if name == "serve_keepalive":
        return bench_workloads.ServeWorkload(seed, work_dir, ROOT)
    if name == "sweep_six":
        return bench_workloads.SweepWorkload(seed, work_dir)
    return bench_workloads.EvolveWorkload(seed, work_dir)


def work_directory(tag: str) -> Path:
    path = OUT / f"work-{tag}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def setup_probe(args) -> int:
    """Child side of a set-up sample: set up, say so, tear down."""
    work_dir = work_directory(f"probe-{args.workload}")
    workload = make_workload(args.workload, args.seed, work_dir)
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def time_setups(args) -> list:
    """Seconds from spawning a fresh interpreter until its set-up is done.

    Wall clock, unscaled: the parent idles while the child starts, so its
    own host-speed readings do not describe the child's interval.
    """
    from bench_workloads import read_line, stop_process

    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"],
            cwd=str(ROOT), stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        try:
            line = read_line(process, SETUP_TIMEOUT)
            samples.append(time.perf_counter() - started)
            if line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
            process.wait(timeout=60)
        finally:
            stop_process(process)
        if process.returncode != 0:
            raise RuntimeError(f"set-up probe exited {process.returncode}")
    return samples


def measure(workload, seconds: float, trace: bool):
    """Run units until the next would overrun ``seconds``.

    Traced runs interleave untraced (U) and traced (T) units as
    U T T U U T T U ... so neither kind always runs first.
    """
    from bench_trace import Tracer

    plain, traced, tracers = [], [], []
    started = time.perf_counter()
    index = 0
    while True:
        use_trace = trace and index % 4 in (1, 2)
        tracer = Tracer() if use_trace else None
        seconds_taken = workload.unit(tracer)
        (traced if use_trace else plain).append(seconds_taken)
        if tracer is not None:
            tracers.append(tracer)
        index += 1
        elapsed = time.perf_counter() - started
        typical = statistics.median(plain + traced)
        complete = bool(plain) and (bool(traced) or not trace)
        if complete and elapsed + typical > seconds:
            return plain, traced, tracers


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_threads": {name: os.environ.get(name)
                         for name in BLAS_VARIABLES},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def write_spans(path: Path, run_id: str, tracers) -> None:
    with open(path, "w") as out:
        for unit, tracer in enumerate(tracers):
            origin = min((span[3] for span in tracer.spans), default=0.0)
            out.write(json.dumps({
                "run": f"{run_id}-t{unit}",
                "fields": ["id", "parent", "name", "start_s", "end_s"]})
                + "\n")
            for span_id, parent, name, start, end in tracer.spans:
                out.write(json.dumps([span_id, parent, name, start - origin,
                                      end - origin]) + "\n")


def layer_table(tracers) -> str:
    from bench_trace import merged_counters, merged_summary

    summary = merged_summary(tracers)
    lines = [f"{'span (per traced unit)':28s} {'calls':>10s} "
             f"{'total_s':>10s} {'self_s':>10s}"]
    for name in sorted(summary, key=lambda n: -summary[n]["self_s"]):
        row = summary[name]
        lines.append(f"{name:28s} {row['calls']:10.0f} "
                     f"{row['total_s']:10.4f} {row['self_s']:10.4f}")
    counters = merged_counters(tracers)
    if counters:
        lines.append(f"{'counter (per traced unit)':28s} {'value':>10s}")
        for name in sorted(counters):
            lines.append(f"{name:28s} {counters[name]:10.1f}")
    return "\n".join(lines)


def run(args) -> int:
    from bench_trace import PER_LAYER, layer_metrics

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    setup_samples = time_setups(args)
    work_dir = work_directory(args.workload)
    workload = make_workload(args.workload, args.seed, work_dir)
    try:
        workload.setup()
        workload.prepare()
        plain, traced, tracers = measure(workload, args.seconds,
                                         bool(args.trace))
        workload.finish()
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    ledger = workload.ledger
    run_s = statistics.median(plain)
    if args.trace:
        values = dict.fromkeys((name for name, _unit in PER_LAYER), 0.0)
        values.update(layer_metrics(tracers))
        values.update(workload.layer_extra)
        if "serve.predict_p50_ms" in workload.layer_extra:
            values["serve.transport_ms"] = (workload.end_metrics[
                "small_p50_ms"] - values["serve.predict_p50_ms"])
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / run_s - 1.0)
        units = dict(PER_LAYER)
        spans_path = OUT / f"{tag}.spans.jsonl"
        write_spans(spans_path, f"{tag}-{os.getpid()}", tracers)
        table = layer_table(tracers)
        (OUT / f"{tag}.layers.txt").write_text(table + "\n")
        print(table)
    else:
        values = dict(workload.end_metrics)
        values["setup_s"] = statistics.median(setup_samples)
        values["run_s"] = run_s
        units = dict(END_TO_END)
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in units}
    failed = len(ledger.failures)
    for failure in ledger.failures:
        print(f"FAILED CHECK: {failure}")
    record = {
        "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "fingerprint": workload.fingerprints[0],
        "fingerprints_agree": len(set(workload.fingerprints)) == 1,
        "setup_samples_s": setup_samples,
        "untraced_unit_s": plain, "traced_unit_s": traced,
        "unit_wall_s": workload.walls,
        "latency_samples": workload.samples,
        "failed_share": ledger.failed_share,
        "failures": ledger.failures, "metrics": metrics,
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"fingerprint {record['fingerprint']} "
          f"units untraced={len(plain)} traced={len(traced)} "
          f"latency samples {workload.samples} "
          f"failed_share={record['failed_share']:.4g} "
          f"({failed}/{ledger.attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not library_present():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.setup_probe:
            return setup_probe(args)
        return run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
