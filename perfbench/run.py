"""Benchmark of the fracpm command line, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, in turn

Each sample is a fresh process (perfbench/child.py) that runs one fracpm
CLI command on a config generated from the seed. A run starts samples one
after another, at least two, and stops starting them when the next one
would end after S seconds. The end-to-end metrics (--trace 0) are medians
over the run's samples:

    wall_s       process start to exit, imports and file writes included
    setup_s      process start until the workload's set-up call returns
    solve_s      wall_s - setup_s, the work after set-up
    peak_rss_mb  peak resident memory of the sample process itself

With --trace 1, untraced and traced samples alternate; the traced ones
record spans at every layer boundary in perfbench/layers.py and give the
per-layer metrics, and trace.overhead_s is the traced wall_s minus the
untraced median. A traced sample that misses a layer its workload must
cross stops the run with an error.

Every sample's outputs are checked (perfbench/workloads.py), and all
samples of one run, which share the config, must write byte-identical
files. A failed check, a crash or a nonzero exit counts as a failure. The
last line of standard output is one JSON object: correct, attempted,
failed, metrics. Work files and the span trace go to perfbench/_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")

sys.path.insert(0, HERE)
from layers import METRICS, layer_metrics, missing_layers  # noqa: E402
from workloads import WORKLOADS, check_outputs  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
MIN_SAMPLES = 2
SAMPLE_TIMEOUT_S = 150
BLAS_THREADS = 1


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _digest(outdir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_sample(workload, cfg_path: str, workdir: str, mode: str, run_id: int) -> dict:
    """Start one child process and wait for it; returns the sample record."""
    outdir = os.path.join(workdir, f"out-{run_id}")
    result_path = os.path.join(workdir, f"result-{run_id}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--result", result_path, "--mode", mode, "--setup", workload.setup,
        "--run-id", str(run_id), "--src", SRC,
        "--", workload.command, "--config", cfg_path, "--out", outdir,
    ]
    sample = {"run_id": run_id, "mode": mode, "problems": []}
    with open(os.path.join(workdir, f"log-{run_id}.txt"), "wb") as log:
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=SAMPLE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            sample["problems"].append(f"timed out after {SAMPLE_TIMEOUT_S} s")
            return sample
        end = time.monotonic()
    if mode == "warm":
        if proc.returncode != 0:
            sample["problems"].append(f"exit code {proc.returncode}")
        return sample
    sample["wall_s"] = end - start
    if proc.returncode != 0:
        sample["problems"].append(f"exit code {proc.returncode}")
        return sample
    with open(result_path, encoding="utf-8") as fh:
        record = json.load(fh)
    sample["peak_rss_mb"] = record["peak_rss_kb"] / 1024.0
    if mode == "trace":
        sample["spans"] = record["spans"]
    elif "setup_done" in record:
        sample["setup_s"] = record["setup_done"] - start
        sample["solve_s"] = sample["wall_s"] - sample["setup_s"]
    else:
        sample["problems"].append(f"set-up call {workload.setup} never returned")
    with open(cfg_path, encoding="utf-8") as fh:
        cfg_text = fh.read()
    try:
        sample["problems"] += check_outputs(workload, cfg_text, outdir)
    except (OSError, LookupError, ValueError) as exc:
        sample["problems"].append(f"unreadable output: {exc!r}")
    sample["digest"] = _digest(outdir)
    return sample


def _environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "blas_threads": BLAS_THREADS,
    }
    for pkg in ("numpy", "scipy", "mpmath"):
        env[pkg] = importlib.metadata.version(pkg)
    return env


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    workdir = os.path.join(RUNS, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cfg_path = os.path.join(workdir, "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config(seed))

    env = _environment()
    env["loadavg_before"] = os.getloadavg()
    warm = run_sample(workload, cfg_path, workdir, "warm", 0)
    if warm["problems"]:
        raise RuntimeError(f"{name}: cannot import fracpm: {warm['problems']}")

    modes = ("time", "trace") if trace else ("time",)
    samples = []
    deadline = time.monotonic() + seconds
    longest = 0.0
    while len(samples) < MIN_SAMPLES or time.monotonic() + longest <= deadline:
        mode = modes[len(samples) % len(modes)]
        sample = run_sample(workload, cfg_path, workdir, mode, len(samples) + 1)
        longest = max(longest, sample.get("wall_s", 0.0))
        samples.append(sample)
    env["loadavg_after"] = os.getloadavg()

    digests = {s["digest"] for s in samples if "digest" in s}
    if len(digests) > 1:
        for s in samples:
            s["problems"].append("output files differ between samples of one config")
    failed = sum(1 for s in samples if s["problems"])

    timed = [s for s in samples if s["mode"] == "time" and "setup_s" in s]
    if trace:
        traced = [s for s in samples if s["mode"] == "trace" and "spans" in s]
        if not timed or not traced:
            raise RuntimeError(f"{name}: no timed or no traced sample finished")
        for s in traced:
            missing = missing_layers(s["spans"], workload.layers)
            if missing:
                raise RuntimeError(
                    f"coverage check failed on {name}: no spans recorded for "
                    + ", ".join(missing)
                )
        per_sample = [layer_metrics(s["spans"]) for s in traced]
        values = {m: [p[m] for p in per_sample] for m in METRICS if m != "trace.overhead_s"}
        values["trace.overhead_s"] = [
            statistics.median(s["wall_s"] for s in traced)
            - statistics.median(s["wall_s"] for s in timed)
        ]
        units = METRICS
        with open(os.path.join(workdir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed,
                       "spans": [sp for s in traced for sp in s["spans"]]}, fh)
    else:
        if not timed:
            raise RuntimeError(f"{name}: no timed sample finished")
        values = {m: [s[m] for s in timed] for m in END_TO_END}
        units = END_TO_END

    metrics = {m: {"value": statistics.median(v), "unit": units[m]} for m, v in values.items()}
    summary = {
        "workload": name, "seed": seed, "trace": trace, "environment": env,
        "attempted": len(samples), "failed": failed, "metrics": metrics,
        "samples": [{k: v for k, v in s.items() if k != "spans"} for s in samples],
    }
    with open(os.path.join(workdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    print(f"{name} seed {seed}: {len(samples)} processes, {failed} failed")
    for m, entry in metrics.items():
        print(f"  {m} = {entry['value']:.6g} {entry['unit']}  ({_spread(values[m])})")
    print(f"  error_rate = {failed / len(samples):g} ratio ({failed} of {len(samples)})")
    for s in samples:
        for problem in s["problems"]:
            print(f"  sample {s['run_id']} ({s['mode']}): {problem}")
    print(f"  environment: {json.dumps(env)}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fracpm", "cli.py")):
        print(f"error: no fracpm sources under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = [
            run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names
        ]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}/{m}": e for s in summaries for m, e in s["metrics"].items()}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
