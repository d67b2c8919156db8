"""dmlkit benchmark: times ``dmlkit estimate``/``simulate`` end to end.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. NAME is one of the workloads in
``workloads.py``. The harness writes the workload's inputs from the seed
(untimed), then runs samples one at a time, each in a fresh interpreter
(``sample.py``): first ``SETUP_ONLY`` interpreters that stop after
set-up, then whole passes over the inputs, one sample per input, for
about ``--seconds``. The first pass always runs to its end and another
starts only if it should end within ``--seconds``, so every run covers
each input equally however fast the program is. Every report is checked
against the generator's truth; a sample that exits non-zero, raises or
fails the check counts as failed.
The harness and its samples run pinned to every CPU but the first (to
the only one on a 1-CPU host), and samples get one BLAS thread per such
CPU. The harness is idle while a sample runs, so the two never use more
threads than there are cores.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``run_s``, ``cpu_s`` and ``peak_rss_mb``, each the mean over the inputs
of that input's median over its samples, and ``setup_s``, the median
over every interpreter's set-up. The host's speed drifts by up to about
2x for minutes at a time, so the harness also times a fixed reference
task (``reference.py``) before every sample and after the last, and
scales ``run_s``, ``cpu_s`` and ``setup_s`` by ``reference.NOMINAL_S``
over the task's median time in the run: they read as seconds at one
fixed host speed. The unscaled values and the factor are printed and
kept in ``result.json``. With ``--trace 1`` one more sample runs first
with every layer function wrapped in spans (``tracer.py``); the last
line then
carries the per-layer metrics, and the run fails its check unless the
traced call counts equal those the config implies and the traced report
is byte-identical to the untraced one. The lines before the last show
every metric with its unit, the error rate, the machine and the report
fingerprints. Inputs, reports, spans and a ``result.json`` with every
sample go to ``.bench_work/<workload>/`` under the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
FINGERPRINTS = HERE / "fingerprints.json"
DEFAULT_SEED = 0
# The whole invocation must end well within 180 seconds.
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# The harness and its samples share these CPUs, so the reference task
# (see main) times the CPUs the samples ran on: the speeds of a host's
# CPUs drift apart for minutes at a time. The first CPU is left to the
# rest of the system.
CPUS = sorted(os.sched_getaffinity(0))
SAMPLE_CPUS = CPUS[1:] or CPUS
SAMPLE_THREADS = len(SAMPLE_CPUS)
# Interpreters per run that only set up, so setup_s is a median over
# several set-ups even when few full samples fit.
SETUP_ONLY = 2
# Times the reference task runs before each sample; a run's speed factor
# is their median.
REFERENCE_REPEATS = 2

END_TO_END = [("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB")]
# End-to-end seconds, scaled to the reference host speed.
SCALED = ("run_s", "cpu_s", "setup_s")
# Units of the per-span counters; which span has which counter is
# declared in tracer.TARGETS.
COUNTER_UNITS = {"calls": "count", "s": "s", "cells": "count",
                 "sweeps": "count", "coord_updates": "count",
                 "separations": "count", "rank_deficient": "count",
                 "bytes": "bytes"}


class SampleFailed(Exception):
    pass


def _lscpu() -> dict:
    if shutil.which("lscpu") is None:
        return {}
    out = subprocess.run(["lscpu"], capture_output=True, text=True,
                         timeout=30).stdout
    return {k.strip(): v.strip() for k, v in
            (line.split(":", 1) for line in out.splitlines() if ":" in line)}


def _blas() -> str:
    """The loaded OpenBLAS build, if found."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if config is not None:
                    config.restype = ctypes.c_char_p
                    return config().decode()
    return "unknown"


def machine_record() -> dict:
    cpu = _lscpu()
    return {
        "nproc": len(CPUS),
        "sample_cpus": SAMPLE_CPUS,
        "cpu_model": cpu.get("Model name", platform.processor()),
        "l2_cache": cpu.get("L2 cache"),
        "l3_cache": cpu.get("L3 cache"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": _blas(),
        "blas_threads_per_sample": SAMPLE_THREADS,
    }


def run_sample(spec: dict, spec_path: Path, timeout: float) -> dict:
    """Run sample.py in a fresh interpreter and return its result."""
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env.update({var: str(SAMPLE_THREADS) for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), str(spec_path)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise SampleFailed(f"timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise SampleFailed(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SampleFailed(f"no result line: {proc.stdout[-500:]}") from None


def coverage_problems(workload, result: dict, untraced_sha: str) -> list[str]:
    """Check the traced sample against the counts its config implies."""
    problems = []
    layers = result["layers"]
    for name, expected in workload.expected_calls.items():
        if layers[name]["calls"] != expected:
            problems.append(f"{name}.calls = {layers[name]['calls']}, "
                            f"config implies {expected}")
    unbound = [k for k, v in result["bindings"].items() if v == 0]
    if unbound:
        problems.append(f"tracer bound nothing for {', '.join(unbound)}")
    if result["report_sha256"] != untraced_sha:
        problems.append("traced report differs from the untraced one")
    return problems


def layer_metrics(layers: dict, traced_run_s: float, untraced_run_s: float,
                  error_rate: float) -> dict:
    metrics = {}
    for name in sorted(layers):
        for counter, value in layers[name].items():
            metrics[f"{name}.{counter}"] = {"value": value,
                                            "unit": COUNTER_UNITS[counter]}
    metrics["trace.run_s"] = {"value": traced_run_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_run_s - untraced_run_s,
                                   "unit": "s"}
    metrics["error_rate"] = {"value": error_rate, "unit": "ratio"}
    return metrics


def _print_layers(layers: dict, traced_run_s: float) -> None:
    print(f"per layer, traced run_s = {traced_run_s:.3f} s "
          "(self seconds, share of traced run_s, calls, counters):")
    for name, entry in sorted(layers.items(), key=lambda kv: -kv[1]["s"]):
        extra = " ".join(f"{k}={entry[k]}" for k in entry
                         if k not in ("calls", "s"))
        print(f"  {name:42s} {entry['s']:9.4f} s "
              f"{100 * entry['s'] / traced_run_s:5.1f}% "
              f"calls={entry['calls']} {extra}")


def main(argv=None) -> int:
    # BLAS pools are sized when numpy loads, which importing the
    # workloads does.
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    os.sched_setaffinity(0, SAMPLE_CPUS)
    from reference import NOMINAL_S, reference_seconds
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "dmlkit" / "cli" / "main.py").is_file():
        print(f"error: no dmlkit sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    machine = machine_record()
    print("machine:", json.dumps(machine))
    inputs = workload.prepare(args.seed, work)

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    attempted = failed = 0
    problems: list[str] = []
    references: list[float] = []

    def sample(label: str, item: int, trace: bool = False,
               setup_only: bool = False) -> dict | None:
        """Run one sample on inputs[item]; None if it failed."""
        nonlocal attempted, failed
        attempted += 1
        out = work / f"out-{label}"
        spec = {"command": workload.command,
                "config": inputs[item]["config"],
                "data": inputs[item]["data"], "out": str(out),
                "trace": str(work / "trace.json") if trace else None,
                "setup_only": setup_only}
        references.extend(reference_seconds()
                          for _ in range(REFERENCE_REPEATS))
        try:
            result = run_sample(spec, work / "spec.json", remaining())
            found = [] if setup_only else workload.check(
                out, inputs[item]["truth"])
        except Exception as exc:  # any failure of a sample or its check
            found = [f"{type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems.extend(f"sample {label}: {p}" for p in found)
            return None
        return {**result, "input": item}

    measure_start = time.perf_counter()
    traced = sample("traced", 0, trace=True) if args.trace else None
    setups = [s["setup_s"] for s in
              (sample(f"setup-{i}", 0, setup_only=True)
               for i in range(SETUP_ONLY)) if s is not None]
    # Whole passes over the inputs. Start another only if it should end
    # within --seconds.
    samples: list[dict] = []
    passes: list[float] = []
    while not failed and (not passes or (
            time.perf_counter() - measure_start
            + statistics.median(passes) <= args.seconds)):
        t0 = time.perf_counter()
        for item in range(len(inputs)):
            result = sample(str(len(samples)), item)
            if result is None:
                break
            samples.append(result)
        passes.append(time.perf_counter() - t0)
    references.append(reference_seconds())
    measured_s = time.perf_counter() - measure_start

    if not samples:
        print("error: no sample succeeded:", *problems, sep="\n  ",
              file=sys.stderr)
        return 1
    by_input: dict[int, list[dict]] = {}
    for s in samples:
        by_input.setdefault(s["input"], []).append(s)
    shas = {item: {s["report_sha256"] for s in group}
            for item, group in by_input.items()}
    for item, found in sorted(shas.items()):
        if len(found) > 1:
            problems.append(f"input {item} gave different reports: {found}")
    setups += [s["setup_s"] for s in samples + [traced] if s is not None]
    values = {name: statistics.fmean(
                  statistics.median(s[name] for s in group)
                  for group in by_input.values())
              for name, _ in END_TO_END if name != "setup_s"}
    values["setup_s"] = statistics.median(setups)
    speed = NOMINAL_S / statistics.median(references)
    end_to_end = {name: {"value": values[name] * (speed if name in SCALED
                                                  else 1.0), "unit": unit}
                  for name, unit in END_TO_END}
    metrics = end_to_end
    if args.trace:
        if traced is None:
            problems.append("traced sample failed")
        else:
            found = coverage_problems(workload, traced,
                                      samples[0]["report_sha256"])
            failed += bool(found)
            problems.extend(f"traced sample: {p}" for p in found)
            same_input = statistics.median(
                s["run_s"] for s in samples if s["input"] == 0)
            metrics = layer_metrics(traced["layers"], traced["run_s"],
                                    same_input, failed / attempted)

    print(f"workload {workload.name}, seed {args.seed}: {len(samples)} "
          f"samples in {len(passes)} pass(es) over {len(shas)} input(s) "
          f"and {len(setups)} set-ups in {measured_s:.1f} s; reference "
          f"task median {statistics.median(references):.4f} s of "
          f"{len(references)}, so seconds are scaled by {speed:.4f}")
    for name, unit in END_TO_END:
        seen = [s[name] for s in samples] if name != "setup_s" else setups
        print(f"  {name:12s} {end_to_end[name]['value']:10.4f} {unit:5s} "
              f"(unscaled {values[name]:.4f}, min {min(seen):.4f}, "
              f"max {max(seen):.4f})")
    print(f"  error_rate   {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} samples failed)")
    committed = json.loads(FINGERPRINTS.read_text()).get(workload.name, [])
    for item, found in sorted(shas.items()):
        sha = min(found)
        if args.seed != DEFAULT_SEED:
            verdict = f"(fingerprints are committed for seed {DEFAULT_SEED})"
        elif item >= len(committed):
            verdict = "(no committed fingerprint for this input)"
        elif committed[item] == sha:
            verdict = "matches the committed fingerprint"
        else:
            verdict = "differs from the committed fingerprint"
        print(f"input {item} report sha256 {sha} {verdict}")
    if traced is not None:
        _print_layers(traced["layers"], traced["run_s"])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    (work / "result.json").write_text(json.dumps(
        {"machine": machine, "samples": samples, "traced": traced,
         "references": references, "speed": speed, "unscaled": values,
         "problems": problems, "metrics": metrics}, indent=1))
    if args.trace and traced is None:
        return 1
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
