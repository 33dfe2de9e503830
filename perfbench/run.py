#!/usr/bin/env python3
"""Repo benchmark: host cost and simulated fidelity of the MoDM serving stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scale_steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call builds the serving stack and the perfbench binary from source into
$CARGO_TARGET_DIR (default .bench_build) with CMake; later calls rebuild
incrementally. The binary's stdout is passed through; its last line is one
JSON object (correct, attempted, failed, metrics), checked here against the
metric names and units BENCHMARK.json declares. The exit code is 0 only when
every check passed. See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_DIR = os.path.join(BENCH_DIR, "workloads")
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# A run must end within 180 s; leave room for the build check and parsing.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def spec_errors(spec):
    """Names and units in BENCHMARK.json that break the metric grammar."""
    errors = []
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec.get(group, []):
            if not NAME_RE.fullmatch(entry.get("name", "")):
                errors.append(f"{group} name {entry.get('name')!r}")
            if group != "workloads" and not UNIT_RE.fullmatch(entry.get("unit", "")):
                errors.append(f"{group} unit {entry.get('unit')!r}")
    return errors


def build(targets):
    """Configure once, then build `targets` incrementally; returns the dir."""
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target_dir, "perfbench")
    log_path = os.path.join(target_dir, "perfbench-build.log")
    os.makedirs(target_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", *targets])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {step[:2]} failed: {e}")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (log: {log_path})")
    return build_dir


def run(cmd):
    """Run one benchmark process to completion; returns (exit code, stdout)."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(cmd[0])} exceeded {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout


def check_result(stdout, expected):
    """The binary's final JSON line, validated against `expected` metrics."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None, ["the benchmark printed nothing"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, ["the last stdout line is not JSON"]
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
        return result, errors
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append("metric names differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        if not NAME_RE.fullmatch(name):
            errors.append(f"metric name {name!r}")
        if name in expected and entry.get("unit") != expected[name]:
            errors.append(f"{name} unit {entry.get('unit')!r}, "
                          f"declared {expected[name]!r}")
        if not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{name} value {entry.get('value')!r}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and result["failed"] >= 0):
        errors.append("attempted/failed are not counts")
    if result["correct"] is not True:
        errors.append("the benchmark's own output checks failed")
    return result, errors


def bench(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    group = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[group]}
    build_dir = build(["perfbench"])
    cmd = [os.path.join(build_dir, "perfbench"),
           os.path.join(WORKLOAD_DIR, args.workload + ".scn"),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        span_dir = os.path.join(os.path.dirname(build_dir), "spans")
        os.makedirs(span_dir, exist_ok=True)
        cmd += ["--spans",
                os.path.join(span_dir, f"{args.workload}-seed{args.seed}.tsv")]
    code, stdout = run(cmd)
    result, errors = check_result(stdout, expected)
    if result is None:
        sys.stdout.write(stdout)
        fail("; ".join(errors))
    # Pass the binary's lines through, then the checked result last.
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if code != 0 or errors:
        fail("; ".join(errors) or f"perfbench exited with {code}")


def digests(stdout, key):
    return [line.split()[2] for line in stdout.splitlines()
            if line.startswith(key + " ")]


def selftest(spec):
    """Probe oracles, seed handling and metric grammar (see README.md)."""
    errors = spec_errors(spec)
    build_dir = build(["perfbench", "perfbench_selftest"])
    workloads = [os.path.join(WORKLOAD_DIR, w["name"] + ".scn")
                 for w in spec["workloads"]]
    code, stdout = run([os.path.join(build_dir, "perfbench_selftest"),
                        *workloads])
    sys.stdout.write(stdout)
    if code != 0:
        errors.append("perfbench_selftest failed")

    # A changed seed changes the results but not the metric set; the
    # cheapest workload keeps this under a minute.
    name = "nirvana_latent"
    for trace, group, key in ((0, "end_to_end", "sim_digest"),
                              (1, "per_layer", "outputs_digest")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        seen = []
        for seed in (1, 2):
            code, out = run([os.path.join(build_dir, "perfbench"),
                             os.path.join(WORKLOAD_DIR, name + ".scn"),
                             "--seed", str(seed), "--seconds", "1",
                             "--trace", str(trace)])
            result, errs = check_result(out, expected)
            errors += [f"{name} trace {trace} seed {seed}: {e}" for e in errs]
            if code != 0:
                errors.append(f"{name} trace {trace} seed {seed} exited {code}")
            seen.append((digests(out, key),
                         sorted(result["metrics"]) if result else None))
        if not seen[0][0] or seen[0][0] == seen[1][0]:
            errors.append(f"trace {trace}: another seed must change {key}")
        if seen[0][1] != seen[1][1]:
            errors.append(f"trace {trace}: the metric names depend on the seed")
    for e in errors:
        print(f"selftest FAILED: {e}", file=sys.stderr)
    print("selftest:", "failed" if errors else "passed")
    sys.exit(1 if errors else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.selftest:
        selftest(spec)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    bench(args, spec)


if __name__ == "__main__":
    main()
