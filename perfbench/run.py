#!/usr/bin/env python3
"""Builds the DAIG benchmark driver and runs one workload.

    python3 perfbench/run.py --workload edit_session --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. The driver is built with CMake from
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to standard error.

--trace 0 runs the workload untraced for --seconds and reports the
end-to-end metrics. --trace 1 runs it traced for half of --seconds, then
replays exactly the same steps untraced in a fresh process, requires every
deterministic work count of the two runs to be equal, and reports the
per-layer metrics plus trace.overhead_pct. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("edit_session", "batch_verify")
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "step_p50_ms": "ms",
    "step_p95_ms": "ms",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name in ("lang.parse_ms", "cfg.lower_ms"):
        return "ms/setup"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms"):
        return "ms/step"
    return "count/step"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    )
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             cwd=ROOT, check=False)
        if res.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, args):
    env = dict(os.environ)
    # The library's own tracing stays off in every run.
    env.pop("DAI_TRACE", None)
    env.pop("DAI_TRACE_FOLDED", None)
    res = subprocess.run([driver] + args, stdout=subprocess.PIPE,
                         stderr=sys.stderr, env=env, cwd=ROOT,
                         timeout=CHILD_TIMEOUT_S, check=False, text=True)
    if res.returncode != 0:
        raise RuntimeError("driver exited with %d" % res.returncode)
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("driver printed no result")
    return json.loads(lines[-1])


def untraced(driver, opt):
    r = run_driver(driver, ["--workload", opt.workload, "--seed",
                            str(opt.seed), "--seconds", str(opt.seconds)])
    for err in r["errors"]:
        log("perfbench: " + err)
    metrics = {k: {"value": r["end_to_end"][k], "unit": u}
               for k, u in END_TO_END.items()}
    return r["correct"], r["attempted"], r["failed"], metrics


def traced(driver, opt):
    trace_path = os.path.join(
        build_dir(), "trace-%s-%d.json" % (opt.workload, opt.seed))
    t = run_driver(driver, ["--workload", opt.workload, "--seed",
                            str(opt.seed), "--seconds", str(opt.seconds / 2),
                            "--trace", "1", "--trace-out", trace_path])
    # Replay exactly the traced run's steps without tracing.
    u = run_driver(driver, ["--workload", opt.workload, "--seed",
                            str(opt.seed), "--steps", str(t["attempted"])])
    for err in t["errors"] + u["errors"]:
        log("perfbench: " + err)
    correct = t["correct"] and u["correct"]
    if t["counts"] != u["counts"]:
        correct = False
        for k in sorted(set(t["counts"]) | set(u["counts"])):
            if t["counts"].get(k) != u["counts"].get(k):
                log("perfbench: traced/untraced count mismatch in %s: %s vs %s"
                    % (k, t["counts"].get(k), u["counts"].get(k)))
    layers = dict(t["per_layer"])
    kept = layers.pop("trace.spans_kept")
    dropped = layers.pop("trace.spans_dropped")
    t_sps = t["end_to_end"]["steps_per_s"]
    u_sps = u["end_to_end"]["steps_per_s"]
    layers["trace.overhead_pct"] = (
        100.0 * (u_sps / t_sps - 1.0) if t_sps > 0 else 0.0)
    log("perfbench: %d spans written to %s (%d more dropped)"
        % (kept, trace_path, dropped))
    metrics = {k: {"value": v, "unit": layer_unit(k)}
               for k, v in layers.items()}
    return (correct, t["attempted"] + u["attempted"],
            t["failed"] + u["failed"], metrics)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opt = ap.parse_args()
    if opt.seconds <= 0:
        ap.error("--seconds must be positive")

    driver = build()
    if driver is None:
        return 1
    try:
        if opt.trace:
            correct, attempted, failed, metrics = traced(driver, opt)
        else:
            correct, attempted, failed, metrics = untraced(driver, opt)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps({"correct": bool(correct) and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
