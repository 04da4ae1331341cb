#!/usr/bin/env python3
"""PECAN benchmark: build, run one workload, print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--out results.jsonl]
    python3 perfbench/run.py compare <before.jsonl> <after.jsonl>
    python3 perfbench/run.py selftest

Run from the repository root. The first run builds the library and the
benchmark binary from source into $CARGO_TARGET_DIR (default .bench_build); later runs
only rebuild what changed. The binary's last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}. --out appends the run's
record (build stamp, details) and result to a JSON-lines file; `compare`
reads two such files and refuses when their build stamps differ.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170  # the benchmark binary; build time is separate
STAMP_FIELDS = ("build_type", "native", "isa", "kernel_lanes", "executors", "nproc", "compiler")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the package; False on failure."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(out, ignore_errors=True)  # retry the configure next time
            return False
    cmd = ["cmake", "--build", out, "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def run_workload(args):
    if not build():
        log("build failed")
        return 1
    workdir = os.path.join(build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(build_dir(), "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        log(f"{args.workload} exited with {proc.returncode}")
        return 1
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"record": record, "result": result}) + "\n")
    print(lines[-2])
    print(json.dumps(result))
    return 0


# --- comparing result sets -----------------------------------------------------

def stamp_difference(a, b):
    """The first stamp field two runs disagree on, or None."""
    for field in STAMP_FIELDS:
        if a.get(field) != b.get(field):
            return field
    return None


def spread(values):
    """Inter-quartile distance over the median, as statistics.quantiles gives it."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def load_set(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def workload_stamp(runs, workload, label):
    """The one stamp of `workload`'s runs in a set; ValueError naming the
    field when they disagree."""
    stamps = [r["record"]["stamp"] for r in runs if r["record"]["workload"] == workload]
    for stamp in stamps[1:]:
        field = stamp_difference(stamps[0], stamp)
        if field:
            raise ValueError(f"{label} mixes builds for {workload}: stamp field '{field}' differs")
    return stamps[0] if stamps else None


def compare(before, after):
    """Per workload and metric: medians, spreads and the change. Raises
    ValueError when a workload was measured on different builds. Stamps are
    per workload: train-lenet runs on one kernel lane."""
    if not before or not after:
        raise ValueError("an empty result set")
    rows = []
    workloads = sorted({r["record"]["workload"] for r in before + after})
    for w in workloads:
        a = workload_stamp(before, w, "the first set")
        b = workload_stamp(after, w, "the second set")
        field = stamp_difference(a, b) if a and b else None
        if field:
            raise ValueError(f"refusing to compare {w}: stamp field '{field}' differs "
                             f"({a[field]!r} vs {b[field]!r})")
        metrics = {}
        for label, runs in (("before", before), ("after", after)):
            for r in runs:
                if r["record"]["workload"] != w or r["record"]["trace"]:
                    continue
                for name, m in r["result"]["metrics"].items():
                    metrics.setdefault(name, {"before": [], "after": []})[label].append(m["value"])
        for name, v in sorted(metrics.items()):
            if v["before"] and v["after"]:
                mb, ma = statistics.median(v["before"]), statistics.median(v["after"])
                rows.append((w, name, mb, spread(v["before"]), ma, spread(v["after"]),
                             (ma / mb - 1.0) if mb else float("nan")))
    return rows


def run_compare(args):
    try:
        rows = compare(load_set(args.before), load_set(args.after))
    except ValueError as e:
        log(str(e))
        return 2
    print(f"{'workload':<14} {'metric':<20} {'before':>12} {'spread':>7} {'after':>12} "
          f"{'spread':>7} {'change':>8}")
    for w, name, mb, sb, ma, sa, change in rows:
        print(f"{w:<14} {name:<20} {mb:>12.5g} {sb:>7.1%} {ma:>12.5g} {sa:>7.1%} {change:>+8.1%}")
    return 0


def run_selftest(_args):
    if not build():
        log("build failed")
        return 1
    tests = os.path.join(build_dir(), "perfbench_tests")
    if not os.path.exists(tests):
        log("perfbench_tests was not built (GoogleTest not found)")
        return 1
    ok = subprocess.call([tests]) == 0
    ok &= subprocess.call([sys.executable, os.path.join(HERE, "test_run.py")]) == 0
    bench = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.exists(bench):
        listed = subprocess.run([os.path.join(build_dir(), "perfbench"), "--list-metrics"],
                                capture_output=True, text=True, check=True).stdout.split("\n")
        catalog = [tuple(l.split()) for l in listed if l.strip()]
        with open(bench) as f:
            declared = [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]
        if catalog != declared:
            log("BENCHMARK.json per_layer differs from the binary's catalog")
            ok = False
    return 0 if ok else 1


def main(argv):
    if argv and argv[0] in ("compare", "selftest"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "compare":
            parser.add_argument("before")
            parser.add_argument("after")
            return run_compare(parser.parse_args(argv[1:]))
        return run_selftest(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["wire-batch", "resnet-batch", "train-lenet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the run's record and result to this JSON-lines file")
    return run_workload(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
