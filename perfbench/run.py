#!/usr/bin/env python3
"""The repository benchmark: builds the harness from source, runs one
workload, checks its answers and prints its metrics.

    python3 perfbench/run.py --workload sweep_deep|dse_overlap \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  --trace 0 measures the end-to-end metrics
with the benchmark's own tracing off; --trace 1 is the separate traced run
that records spans around each layer call and reports the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The full report (host and
build stamp, supporting figures) and the span file go to
<build dir>/results/.  Exit status: 0 correct, 1 a correctness gate failed,
2 the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the source tree as it was

import derive  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("sweep_deep", "dse_overlap")

# Never used while a change is written: re-check a claimed gain on it.
HELD_OUT_SEED = 20101

# The harness's allowance beyond the measured window (set-up, gates and, in
# a traced run, the probes, which ignore --seconds).
UNTRACED_ALLOWANCE_S = 140
TRACED_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the harness path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the dew sources are not next to perfbench/; run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs,
                      "--target", "perfbench_harness"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see " + log_path + ")")
    return os.path.join(out, "perfbench_harness")


def source_digest():
    """SHA-256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return ({m["name"]: m["unit"] for m in manifest["end_to_end"]},
            {m["name"]: m["unit"] for m in manifest["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    harness = build()
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    tag = "%s-%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = os.path.join(results, tag + ".raw.json")
    spans_path = os.path.join(results, tag + ".spans.json")
    command = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", raw_path]
    if args.trace:
        command += ["--spans", spans_path]
    timeout = TRACED_TIMEOUT_S if args.trace else args.seconds + UNTRACED_ALLOWANCE_S
    try:
        done = subprocess.run(command, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("the harness ran past %g s" % timeout)
    if done.returncode != 0:
        fail("the harness exited with status %d" % done.returncode)
    with open(raw_path) as f:
        raw = json.load(f)

    e2e_units, layer_units = declared_metrics()
    if args.trace:
        metrics = derive.per_layer(raw, derive.load_spans(spans_path))
        extra = {}
        declared = layer_units
    else:
        metrics, extra = derive.end_to_end(raw)
        declared = e2e_units
    if {k: u for k, (_, u) in metrics.items()} != declared:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(metrics) ^ set(declared)))

    flags = []
    lag = metrics.get("loadgen.lag_p99_us", (0.0, ""))[0]
    if lag > stats.LAG_FLAG_US:
        flags.append("loadgen fell behind: send lag p99 %.0f us > %.0f us"
                     % (lag, stats.LAG_FLAG_US))
    if raw.get("peak_rss_timed_window") is False:
        flags.append("the kernel refused to reset the peak RSS: peak_rss_mb "
                     "covers the whole harness process, not the timed window")

    attempted, failed = raw["attempted"], raw["failed"]
    correct = failed == 0 and attempted > 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": args.seed == HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {"cpu": cpu_model(), "nproc": os.cpu_count()},
        "build": dict(raw["stamp"], commit=commit(), source_sha256=source_digest()),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": raw["failures"],
        "flags": flags,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "spans": spans_path if args.trace else None,
    }
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(report, f, indent=1)

    print("perfbench %s seed=%d trace=%d  %s x%s  %s %s  obs=%s  src=%s"
          % (args.workload, args.seed, args.trace, report["host"]["cpu"],
             report["host"]["nproc"], raw["stamp"]["build_type"],
             raw["stamp"]["compiler"], raw["stamp"]["dew_obs"],
             report["build"]["source_sha256"]))
    for name, (value, unit) in metrics.items():
        print("  %-36s %16.4f %s" % (name, value, unit))
    for name, value in extra.items():
        if not isinstance(value, list):
            print("  (%s %s)" % (name, value))
    print("  failed_frac %.6f (%d of %d)" % (report["failed_frac"], failed, attempted))
    for line in raw["failures"] + flags:
        print("  ! " + line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
