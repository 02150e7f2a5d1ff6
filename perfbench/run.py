#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The benchmark is built from source with
dune into .perfbench/build (dune cache off, so nothing is written outside
the checkout), then perfbench/main.exe runs the workload.  Its provenance
line and result are relayed to stdout; the result line is printed last and
only after its metric names have been checked against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".perfbench", "build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ("verdict-quick", "mesh-traffic", "analysis-plane")
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def dune():
    exe = shutil.which("dune")
    return [exe] if exe else ["opam", "exec", "--", "dune"]


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench", "dune-project"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        ]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def declared_metrics(trace):
    """Names and units BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate_result(line, declared):
    """Return the problems with a result line (empty when it is well formed)."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys are not {sorted(RESULT_KEYS)}"]
    problems = []
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1 and 0 <= failed):
        problems.append("attempted/failed are not counts with attempted >= 1")
    if result["correct"] is not (failed == 0):
        problems.append("correct does not match failed == 0")
    metrics = result["metrics"]
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if not isinstance(m.get("value"), (int, float)) or not UNIT_RE.match(str(m.get("unit"))):
            problems.append(f"bad value or unit for {name}")
        elif name in declared and declared[name] != m["unit"]:
            problems.append(f"{name} unit {m['unit']} differs from BENCHMARK.json {declared[name]}")
    missing, extra = set(declared) - set(metrics), set(metrics) - set(declared)
    if missing:
        problems.append(f"missing metrics {sorted(missing)}")
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail(f"{ROOT} is not a checkout of the repository (no dune-project or lib/)", 2)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    cmd = dune() + ["build", "--root", ".", "--build-dir", os.path.join(ROOT, BUILD_DIR), "--cache", "disabled",
                    "--profile", "release", "./perfbench/main.exe"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if r.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})", 2)


def run(args):
    build()
    cmd = [os.path.join(ROOT, EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(nproc()), "--commit", commit()]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail(f"main.exe exited with code {r.returncode}")
    problems = validate_result(lines[-1], declared_metrics(args.trace))
    if problems:
        fail("malformed result: " + "; ".join(problems))
    print("\n".join(lines), flush=True)


def self_test():
    """Check the metric catalog against BENCHMARK.json and the result
    validator against corrupted lines, then run the OCaml self-tests."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "metrics.json")) as fh:
        catalog = json.load(fh)
    errors = []
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    if workloads != set(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py")
    for kind in ("end_to_end", "per_layer"):
        declared = [{k: m[k] for k in ("name", "unit", "better")} for m in spec[kind]]
        listed = [{k: m[k] for k in ("name", "unit", "better")} for m in catalog[kind]]
        if declared != listed:
            errors.append(f"{kind}: metrics.json and BENCHMARK.json disagree")
    for m in catalog["per_layer"]:
        # trace.* metrics measure the tracer itself and target no end-to-end metric
        tracer = m["name"].startswith("trace.") and m["moves"] == [] and m["workload"] == "all"
        if not tracer and not (m["moves"] and set(m["moves"]) <= e2e and m["workload"] in workloads):
            errors.append(f"{m['name']}: target {m['moves']} on {m['workload']} is not declared")
    good = {"wall_s": {"value": 1.5, "unit": "s"}}
    cases = [
        ('{"correct": true, "attempted": 3, "failed": 0, "metrics": %s}' % json.dumps(good), True),
        ('{"correct": true, "attempted": 3, "failed": 1, "metrics": %s}' % json.dumps(good), False),
        ('{"correct": true, "attempted": 0, "failed": 0, "metrics": %s}' % json.dumps(good), False),
        ('{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}', False),
        ('{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall s": {"value": 1, "unit": "s"}}}', False),
        ("not json", False),
    ]
    for line, ok in cases:
        if (validate_result(line, {"wall_s": "s"}) == []) != ok:
            errors.append(f"validator misjudged {line!r}")
    for e in errors:
        print(f"self-test: {e}", file=sys.stderr)
    r = subprocess.run(dune() + ["build", "--root", ".", "@perfbench/runtest", "--force"], cwd=ROOT)
    if errors or r.returncode != 0:
        sys.exit(1)
    print("self-test: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test()
    elif args.workload is None:
        p.error("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
