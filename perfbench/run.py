#!/usr/bin/env python3
"""End-to-end benchmark of the wlcrc simulator.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload synth-sweep --seed 1 \\
        --seconds 20 --trace 0

Run every workload:          --workload all
Keep results for comparing:  --out results.jsonl  (appends one line)
Compare two result sets:     python3 perfbench/run.py compare \\
                                 PARENT.jsonl CHANGE.jsonl

The script builds the harness (perfbench/CMakeLists.txt, which pulls
in the repository's own library) into .bench_build/ at the checkout
root, then runs it. See perfbench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
WORKLOADS = ["synth-sweep", "trace-replay", "serve-capture", "remote-sweep"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def spec():
    """BENCHMARK.json at the checkout root (metric names, bounds)."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configure once, then incrementally build the harness."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no wlcrc sources next to perfbench/ (need CMakeLists.txt "
             "and src/ at %s)" % ROOT)
    jobs = str(os.cpu_count() or 1)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (BUILD / "CMakeCache.txt").is_file():
        r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"], **quiet)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "perfbench", "-j", jobs], **quiet)
    if r.returncode != 0:
        fail("build failed")


def fingerprint():
    """Machine and source identity recorded with every result."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():  # not a parent directory's repository
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True,
                timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "git_commit": commit or "none (not a git checkout)",
            "src_sha256": digest.hexdigest()[:16]}


def run_one(workload, seed, seconds, trace, machine):
    """Run the harness once; return (exit code, result dict, stdout)."""
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--worker-bin", str(BUILD / "wlcrc" / "wlcrc_worker"),
           "--work-dir", str(WORK)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result (exit %d)" % (workload, r.returncode))
    want = {m["name"] for m in
            spec()["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != want:
        fail("%s metrics do not match BENCHMARK.json: missing %s, extra %s"
             % (workload, sorted(want - got), sorted(got - want)))
    notes = lines[:-1]
    notes.append("# machine " + json.dumps(machine))
    return r.returncode, result, notes


def cmd_run(args):
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail("unknown workload %r (expected one of %s or all)"
             % (args.workload, ", ".join(WORKLOADS)))
    build()
    machine = fingerprint()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    status, last = 0, None
    for name in names:
        code, result, notes = run_one(name, args.seed, args.seconds,
                                      args.trace, machine)
        status = status or code
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": name, "seed": args.seed,
                                    "trace": args.trace,
                                    "machine": machine,
                                    "result": result}) + "\n")
        print("\n".join(notes))
        if len(names) > 1:
            print("# %s: %s" % (name, json.dumps(result)))
        last = result
    if len(names) > 1:
        last = {"correct": status == 0,
                "attempted": 0, "failed": 0, "metrics": {}}
    print(json.dumps(last), flush=True)
    return status


# ------------------------------------------------------------ compare

def load(path):
    """{workload: [result, ...]} in file order, untraced runs only."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs.setdefault(rec["workload"], []).append(
                        rec["result"])
    return runs


def iqr(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(metric, parent, change):
    """Verdict of the change against the parent on one metric."""
    lower = metric["better"] == "lower"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    losses = sum(1 for p, c in pairs if (c > p if lower else c < p))
    pm, cm = statistics.median(parent), statistics.median(change)
    spread = iqr(parent) if len(parent) >= 2 else float("inf")
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and \
            abs(cm - pm) > spread:
        return "better", wins, losses, pm, cm
    if "bound" in metric:
        if spread / pm > metric["bound"]:
            every = all((c < p if lower else c > p)
                        for c in change for p in parent)
            return ("better" if every else "unresolved",
                    wins, losses, pm, cm)
        if worse > metric["bound"]:
            return "REGRESSION", wins, losses, pm, cm
    return "no change", wins, losses, pm, cm


def cmd_compare(args):
    """One row per workload; a cell per end-to-end metric holds the
    verdict, the change's median relative to the parent's, and the
    pairs won/lost by the change."""
    metrics = spec()["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    width = 30
    print("%-14s %5s  %s" % ("workload", "pairs", "".join(
        "%-*s" % (width, m["name"]) for m in metrics)))
    regress = False
    for workload in sorted(set(parent) & set(change)):
        n = min(len(parent[workload]), len(change[workload]))
        cells = []
        for m in metrics:
            pv = [r["metrics"][m["name"]]["value"]
                  for r in parent[workload][:n]]
            cv = [r["metrics"][m["name"]]["value"]
                  for r in change[workload][:n]]
            v, wins, losses, pm, cm = verdict(m, pv, cv)
            regress = regress or v == "REGRESSION"
            cells.append("%-*s" % (width, "%s %+.1f%% %d/%d" % (
                v, 100.0 * (cm - pm) / pm, wins, losses)))
        print("%-14s %5d  %s" % (workload, n, "".join(cells)))
    return 1 if regress else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("parent", help="parent result set (.jsonl)")
        ap.add_argument("change", help="change result set (.jsonl)")
        return cmd_compare(ap.parse_args(sys.argv[2:]))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append each result to this JSONL file")
    return cmd_run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
