#!/usr/bin/env python3
"""End-to-end planner benchmark: build, run, report, compare (README.md).

Every workload in BENCHMARK.json, K runs each, a table and a results file:
  python3 bench/e2e/run.py [--seed N] [--runs K] [--seconds S] [--trace 1]
                           [--out DIR]
One run of one workload, ending in one JSON line:
  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
Check results file B against results file A, using the bounds in BENCHMARK.json:
  python3 bench/e2e/run.py --compare A.json B.json

The benchmark builds bench/e2e (and with it the planner) in Release under
.bench_build/e2e of the repository root. It runs each workload in its own
process and takes that process's peak RSS from os.wait4.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BENCH = BUILD / "e2e_bench"
SERVER = BUILD / "p2" / "p2_server"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no planner sources to build")
    jobs = str(min(os.cpu_count() or 1, 4))
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                        "--parallel", jobs], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")


def spawn(cmd):
    """Runs cmd to completion; returns (stdout, exit code, peak RSS in KiB)."""
    proc = subprocess.Popen([str(c) for c in cmd], stdout=subprocess.PIPE,
                            cwd=ROOT)
    lock = threading.Lock()
    reaped = False

    def kill():
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    out = proc.stdout.read()
    proc.stdout.close()
    with lock:
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out.decode(), proc.returncode, usage.ru_maxrss


def oracle_for(workload):
    """The serial reference of a workload, computed once per bench binary."""
    digest = hashlib.sha256(BENCH.read_bytes()).hexdigest()[:16]
    path = BUILD / "oracle" / f"{workload}-{digest}.txt"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        _, code, _ = spawn([BENCH, f"--workload={workload}",
                            f"--write-oracle={tmp}"])
        if code != 0:
            fail(f"computing the {workload} oracle failed (exit {code})")
        tmp.replace(path)
    return path


def run_workload(spec, workload, seed, seconds, trace_path=None):
    """One run of one workload; returns the bench's report."""
    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [BENCH, f"--workload={workload}", f"--oracle={oracle_for(workload)}",
           f"--seed={seed}", f"--seconds={seconds}", f"--work-dir={work}",
           f"--server-bin={SERVER}"]
    if trace_path is not None:
        cmd.append(f"--trace-out={trace_path}")
    out, code, rss_kb = spawn(cmd)
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no result (exit {code})")
    metrics = report["metrics"]
    if trace_path is None and "peak_rss_mb" not in metrics:
        metrics["peak_rss_mb"] = {"value": rss_kb / 1024, "unit": "MB", "n": 1}
    report["correct"] = report["correct"] and code == 0
    if report["error"]:
        print(f"run.py: {workload}: {report['error']}", file=sys.stderr)
    wanted = spec["per_layer" if trace_path is not None else "end_to_end"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{workload} did not report {m['name']} in {m['unit']}")
    return report


def single_run(spec, args):
    build()
    trace_path = None
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{args.workload}-seed{args.seed}.json"
    report = run_workload(spec, args.workload, args.seed, args.seconds,
                          trace_path)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": report["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if report["correct"] else 1


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def suite(spec, args):
    build()
    out_dir = Path(args.out) if args.out else BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    # Round-robin over the workloads, so a slow spell of the machine lands on
    # one run of each workload rather than on every run of one of them.
    reports = {name: [] for name in names}
    for _ in range(args.runs):
        for name in names:
            reports[name].append(run_workload(spec, name, args.seed,
                                              args.seconds))
    results = {"revision": revision(), "seed": args.seed, "runs": args.runs,
               "seconds": args.seconds, "workloads": {}}
    all_correct = True
    for name in names:
        runs = reports[name]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            entry["metrics"][m["name"]] = {
                "value": statistics.median(values), "unit": m["unit"],
                "n": sum(r["metrics"][m["name"]]["n"] for r in runs),
                "runs": values}
        if args.trace:
            trace_path = out_dir / f"trace-{name}-seed{args.seed}.json"
            traced = run_workload(spec, name, args.seed, args.seconds,
                                  trace_path)
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["layers"] = {m["name"]: traced["metrics"][m["name"]]
                               for m in spec["per_layer"]}
            entry["trace"] = str(trace_path)
        all_correct = all_correct and entry["correct"]
        results["workloads"][name] = entry
        print(f"{name} failed_ratio {entry['failed'] / max(entry['attempted'], 1):.6g} "
              f"share n={entry['attempted']}")
        for section in ("metrics", "layers"):
            for metric, v in entry.get(section, {}).items():
                print(f"{name} {metric} {v['value']:.6g} {v['unit']} n={v['n']}")
        sys.stdout.flush()
    path = out_dir / f"results-seed{args.seed}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results: {path}")
    return 0 if all_correct else 1


def compare(spec, a_path, b_path):
    """Exit 1 when any metric of B is worse than A's by more than its bound."""
    a_all = json.loads(Path(a_path).read_text())["workloads"]
    b_all = json.loads(Path(b_path).read_text())["workloads"]
    regressed = 0
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a_all or name not in b_all:
            print(f"{name}: missing from one of the files")
            regressed += 1
            continue
        if not b_all[name]["correct"]:
            print(f"{name}: {b_path} has incorrect results")
            regressed += 1
        for m in spec["end_to_end"]:
            a = a_all[name]["metrics"][m["name"]]["value"]
            b = b_all[name]["metrics"][m["name"]]["value"]
            change = (b - a) / a if a else 0.0
            worse = change if m["better"] == "lower" else -change
            ok = worse <= m["bound"]
            regressed += not ok
            print(f"{name:17} {m['name']:21} {a:12.6g} -> {b:12.6g} "
                  f"{m['unit']:5} {change:+8.2%} (bound {m['bound']:.0%}) "
                  f"{'ok' if ok else 'WORSE'}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            fail(f"unknown workload {args.workload}")
        return single_run(spec, args)
    return suite(spec, args)


if __name__ == "__main__":
    sys.exit(main())
