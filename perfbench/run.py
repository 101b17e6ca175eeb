#!/usr/bin/env python3
"""Builds and runs one perfbench workload, checks its output, prints metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_dense|cnn_lenet|train_logreg \
        --seed N --seconds S --trace 0|1 [--fail-group G]

The first run configures and builds perfbench/ (the smartpaf library from
the repository sources plus the benchmark binary) into the directory named
by CARGO_TARGET_DIR, default .bench_build/; later runs only rebuild what
changed. Build output goes to stderr. Traced runs write their spans to
.bench_out/spans_<workload>_<seed>.json.

Standard output ends with two JSON lines: the machine fingerprint, then the
result, {"correct", "attempted", "failed", "metrics"}, where metrics holds
every end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer
metric (--trace 1), each as {"value", "unit"}; in traced runs the layers a
workload does not exercise (NOT_EXERCISED) read 0. A human-readable table with
each metric's better direction goes to stderr. The exit code is non-zero,
and no result is printed, when the build fails, the workload fails, or the
result misses a metric or a unit. --fail-group G makes the eval hook throw
for the G-th serve_dense group (the self-test's fault seam).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170

SMARTPAF_INFERENCE = ["smartpaf.encrypt_ms_p50", "smartpaf.decrypt_ms_p50",
                      "smartpaf.run_ms_p50", "smartpaf.run_ms_p90",
                      "smartpaf.predicted_over_measured"]
SERVE = ["serve.admit_us_p50", "serve.queue_wait_ms_p50", "serve.queue_wait_ms_p90",
         "serve.group_ms_p50", "serve.batch_size_mean", "serve.flush_deadline_frac",
         "serve.rejected", "serve.generator_late_ms_p90"]
IO_READ = ["io.request_decode_us_p50", "io.response_encode_us_p50", "io.session_adopt_s",
           "io.key_mb"]
IO_WRITE = ["io.checkpoint_ms_p50", "io.checkpoint_kb"]
TRAIN = ["train.pack_ms_p50", "train.init_ms_p50", "train.steps_ms_p50"]
# Per-layer metrics of BENCHMARK.json each workload does not exercise. A
# traced run reports them as 0; the binary must print every other one.
NOT_EXERCISED = {
    "serve_dense": SMARTPAF_INFERENCE + IO_WRITE + TRAIN,
    "cnn_lenet": SERVE + IO_READ + IO_WRITE + TRAIN,
    "train_logreg": SMARTPAF_INFERENCE + SERVE + IO_READ,
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(os.cpu_count() or 2)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def source_id():
    """The git commit when available, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base in ("src", "perfbench", "CMakeLists.txt"):
        p = ROOT / base
        files = sorted(p.rglob("*")) if p.is_dir() else [p]
        for f in files:
            if f.is_file() and not f.name.endswith(".pyc"):
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "src-" + h.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def check(result, expected, absent):
    """Problems with a result line, as a list of messages. `absent` names
    the expected metrics the binary must not print (run.py fills them)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    if not isinstance(result.get("attempted"), int) or result.get("attempted", 0) < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if m["name"] in absent:
            if got is not None:
                problems.append("metric %s is printed but listed as not exercised"
                                % m["name"])
        elif got is None:
            problems.append("metric %s missing" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("metric %s has unit %r, expected %r"
                            % (m["name"], got.get("unit"), m["unit"]))
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append("unexpected metrics %s" % sorted(extra))
    return problems


def print_table(result, expected):
    log("%-36s %16s %-6s %s" % ("metric", "value", "unit", "better"))
    for m in expected:
        v = result["metrics"][m["name"]]["value"]
        log("%-36s %16.6g %-6s %s" % (m["name"], v, m["unit"], m.get("better", "")))
    log("correct=%s attempted=%d failed=%d"
        % (result["correct"], result["attempted"], result["failed"]))


def print_span_summary(path):
    summary = json.loads(path.read_text()).get("summary", {})
    log("%-28s %8s %12s %12s" % ("span", "count", "p50_ms", "self_p50_ms"))
    for name, s in sorted(summary.items()):
        log("%-28s %8d %12.4f %12.4f" % (name, s["count"], s["p50_ms"], s["self_p50_ms"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--fail-group", type=int, default=0,
                    help="serve_dense: the eval hook throws for this group (0 = never)")
    args = ap.parse_args()
    if args.workload not in NOT_EXERCISED:
        log("perfbench: unknown workload %r" % args.workload)
        return 2

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, RuntimeError) as e:
        log("perfbench: %s" % e)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    spans = None
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / ("spans_%s_%d.json" % (args.workload, args.seed))
        cmd += ["--spans", str(spans)]
    if args.fail_group:
        cmd += ["--fail-group", str(args.fail_group)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        log("perfbench: %s exited with %d" % (args.workload, proc.returncode))
        return 1
    try:
        fingerprint = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        log("perfbench: unreadable output: %s" % e)
        return 1
    expected = expected_metrics(args.trace)
    absent = set(NOT_EXERCISED[args.workload]) if args.trace else set()
    problems = check(result, expected, absent)
    if problems:
        for p in problems:
            log("perfbench: " + p)
        return 1
    for m in expected:
        if m["name"] in absent:
            result["metrics"][m["name"]] = {"value": 0.0, "unit": m["unit"]}
    result["metrics"] = {m["name"]: result["metrics"][m["name"]] for m in expected}
    print_table(result, expected)
    if spans is not None and spans.exists():
        print_span_summary(spans)
    print(json.dumps(fingerprint))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
