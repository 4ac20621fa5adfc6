#!/usr/bin/env python3
"""Repository benchmark: build the measuring program from source, run one
workload, check its output against BENCHMARK.json and print the result.

    python3 perfbench/run.py --workload sweep-wire|campaign \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1), the
tracing overhead among them. Notes, provenance and every metric with its
unit are printed above it; the same document lands in
.bench_out/<workload>-seed<N>-trace<T>.json.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
# A second seed, never used while tuning, for confirming a claimed gain.
HELD_OUT_SEED = 1000003
THREADS = {"pool": 2, "server_workers": 2, "generator": "1 sender + 1 receiver"}


def run_timeout_s(seconds, trace):
    """Twice the measured time plus set-up and the correctness gates; a
    traced run also runs its untraced baseline passes and the layer suite."""
    return 2 * seconds + 60 + (seconds + 90 if trace else 0)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the libraries, rdns_tool and perfbench."""
    for needed in ("src/CMakeLists.txt", "tools/rdns_tool.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=subprocess.STDOUT, check=False)
        jobs = str(len(os.sched_getaffinity(0)))
        done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                              stdout=log, stderr=subprocess.STDOUT, check=False)
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("build failed")
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(v for k, v in cache.items() if k.startswith("CMAKE_CXX_FLAGS"))
    if build_type not in ("Release", "RelWithDebInfo") or "-fsanitize" in flags \
            or cache.get("RDNS_SANITIZE"):
        fail(f"refusing to measure a {build_type or 'default'} / sanitizer build")
    return build_type


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_program(args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RDNS_")}
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tool", os.path.join(BUILD, "rdns_tool"),
           "--out-dir", OUT]
    # Own process group, so a timeout also stops the server it launched.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    timeout = run_timeout_s(args.seconds, args.trace)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout:g} s")
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench exited {proc.returncode} without a result")
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"perfbench exited {proc.returncode}; last line is not a result: {lines[-1]}")
    return proc.returncode, lines[:-1], doc


def provenance(args, build_type):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "world": {"seed": 42, "orgs": 24, "scale": 0.4},
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "build_type": build_type,
        "threads": THREADS,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep-wire", "campaign"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json is missing")

    build_type = build()
    spec, wanted = expected_metrics(args.trace)
    os.makedirs(OUT, exist_ok=True)
    prov = provenance(args, build_type)
    code, notes, doc = run_program(args)
    for line in notes:
        print(line)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    metrics = doc.get("metrics", {})
    reported = {k: v for k, v in metrics.items() if k in wanted}
    problems = [f"missing {n}" for n in sorted(set(wanted) - set(reported))]
    for name, m in reported.items():
        if m.get("unit") != wanted[name]:
            problems.append(f"{name} unit {m.get('unit')} != {wanted[name]}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} is not a finite number")
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))

    attempted = int(doc.get("attempted", 0))
    failed = int(doc.get("failed", 0))
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted})")
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    result = {"correct": bool(doc.get("correct")) and code == 0, "attempted": attempted,
              "failed": failed, "metrics": reported}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"provenance": prov, "notes": notes, "result": result,
                   "all_metrics": metrics}, f, indent=2)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
