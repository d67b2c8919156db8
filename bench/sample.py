"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 bench/sample.py SPEC_JSON

SPEC_JSON names the command (``estimate`` or ``simulate``), the config,
the data file and the output directory, and optionally a path to write
spans to. The sample times ``import dmlkit.cli`` plus config parse and
validation (set-up), then the call into ``run_estimate`` or
``run_simulation`` until the report is written (run). It prints one JSON
line with both timings, the run's CPU seconds, the peak RSS and the
report's sha256. With ``"setup_only": true`` it stops after set-up and
prints only ``setup_s``.
"""

import hashlib
import json
import resource
import sys
import time


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import dmlkit.cli as cli
    config = cli.load_config(spec["config"])
    if spec["command"] == "simulate":
        cli.get_dgp(config.raw["dgp"])
        config.seed  # raises ConfigError when the seed is missing
    else:
        cli.validate_config(config)
    result = {"setup_s": time.perf_counter() - t0}
    if spec.get("setup_only"):
        print(json.dumps(result))
        return

    tracer = None
    if spec.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer()
        result["bindings"] = tracing.install(tracer)

    cpu0 = _cpu_seconds()
    t1 = time.perf_counter()
    if spec["command"] == "estimate":
        cli.run_estimate(config, spec["data"], spec["out"])
    else:
        cli.run_simulation(config, spec["out"])
    result["run_s"] = time.perf_counter() - t1
    result["cpu_s"] = _cpu_seconds() - cpu0
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result["peak_rss_mb"] = peak_kib / 1024.0
    with open(f"{spec['out']}/report.json", "rb") as fh:
        result["report_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    if tracer is not None:
        tracer.dump(spec["trace"])
        result["layers"] = tracer.summary()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
