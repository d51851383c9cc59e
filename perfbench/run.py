#!/usr/bin/env python3
"""Run one workload of the CITROEN benchmark and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the runner (this directory's Cargo
package) and the `citroen-serve` daemon in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs the workload, writes a
result record with host and build facts under
$CARGO_TARGET_DIR/perfbench-results/, flags work counts that differ from
an earlier run of the same code, and prints the result as the last line
of standard output. Exits 1 on any correctness failure.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    """Release-build the runner and the daemon; cargo's output goes to stderr."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--bin", "citroen-serve"],
    ):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    runner = os.path.join(target, "release", "perfbench")
    daemon = os.path.join(target, "release", "citroen-serve")
    for path in (runner, daemon):
        if not os.path.isfile(path):
            fail(f"build produced no {path}")
    return runner, daemon


def output_of(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def source_digest():
    """SHA-256 over the program's sources, identifying the code measured."""
    h = hashlib.sha256()
    paths = [p for p in ("Cargo.toml", "Cargo.lock") if os.path.isfile(p)]
    for top in ("crates", "src", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml", ".lock"))]
    for p in paths:
        h.update(p.encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def host_facts():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {
        "nproc": nproc,
        "citroen_threads": os.environ.get("CITROEN_THREADS", ""),
        "rustc": output_of(["rustc", "--version"]),
        "git_rev": output_of(["git", "rev-parse", "HEAD"]) or "none",
        "source_digest": source_digest(),
        "profile": "release",
    }


def compare_counts(results_dir, record):
    """Names of counts that differ from the newest earlier record of the
    same code, workload, seed, mode and length (None if there is none)."""
    same = ("workload", "seed", "seconds", "trace")
    earlier = []
    for name in os.listdir(results_dir):
        try:
            with open(os.path.join(results_dir, name)) as f:
                r = json.load(f)
        except (OSError, ValueError):
            continue
        if all(r.get(k) == record[k] for k in same) and \
                r.get("host", {}).get("source_digest") == record["host"]["source_digest"]:
            earlier.append(r)
    if not earlier:
        return None
    prev = max(earlier, key=lambda r: r.get("time", 0))["counts"]
    cur = record["counts"]
    return sorted(k for k in set(prev) | set(cur) if prev.get(k) != cur.get(k))


def main():
    if not all(os.path.exists(p) for p in ("Cargo.toml", "crates", "BENCHMARK.json")):
        fail("run from the root of a CITROEN checkout (no Cargo.toml, crates/ or BENCHMARK.json here)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if os.environ.get("CITROEN_SANITIZE") is not None:
        fail("refusing to time with CITROEN_SANITIZE set", 2)

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    target = os.path.abspath(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    runner, daemon = build(target)
    facts = host_facts()
    scratch = os.path.join(target, "perfbench-tmp")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", daemon, "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"runner exited {proc.returncode} without a result")

    missing = [m for m in wanted if m not in out["metrics"]]
    if missing:
        fail("runner did not report " + ", ".join(missing))
    metrics = {m: out["metrics"][m] for m in wanted}

    record = {
        "time": time.time(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": facts,
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failed_ratio": out["failed"] / out["attempted"],
        "metrics": out["metrics"],
        "counts": out["counts"],
        "problems": out["problems"],
        "detail": out["detail"],
    }
    results_dir = os.path.join(target, "perfbench-results")
    os.makedirs(results_dir, exist_ok=True)
    differ = compare_counts(results_dir, record)
    record["counts_repeat"] = differ is None or not differ
    if differ:
        print("perfbench: WARNING: counts differ from an earlier run of the same code: "
              + ", ".join(differ) + "; compare times with care", file=sys.stderr)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{int(record['time'] * 1000)}.json"
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump(record, f, indent=1)

    print("perfbench: " + json.dumps({"host": facts, "counts": out["counts"]}), file=sys.stderr)
    print(json.dumps({"correct": out["correct"] and proc.returncode == 0,
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))
    sys.exit(0 if out["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
