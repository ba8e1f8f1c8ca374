#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload road-hd --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
perfbench package (library sources from src/) into .bench_build/ (or
$CARGO_TARGET_DIR); later calls rebuild incrementally. The benchmark's last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics. Scratch files and per-run records go to .bench_out/.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
OUT = ROOT / ".bench_out"
BINARY = BUILD / "perfbench"
WORKLOADS = ["road-hd", "social-ld", "serve-mixed"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}; run from a full checkout")
        return False
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout location
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def provenance():
    sha = "unknown"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    return sha, digest.hexdigest()[:16]


def run(workload, seed, seconds, trace, extra=(), timeout=170):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    sha, digest = provenance()
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(OUT.relative_to(ROOT)), "--git-sha", sha,
           "--src-digest", digest, *extra]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {timeout} s")
        return 1, []
    return r.returncode, r.stdout.splitlines()


def result_of(lines):
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def self_test():
    """Toy-size run of every workload in both modes: each declared metric is
    printed with its declared unit, nothing else is, the seed passes, and a
    corrupted oracle comparison shows up as a failed operation."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            code, lines = run(w, 1, 1, trace, ["--toy"])
            res = result_of(lines)
            if code != 0 or res is None:
                problems.append(f"{w} trace={trace}: exit {code}, no result line")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            for name in sorted(set(declared[trace]) - set(got)):
                problems.append(f"{w} trace={trace}: metric {name} missing")
            for name in sorted(set(got) - set(declared[trace])):
                problems.append(f"{w} trace={trace}: undeclared metric {name}")
            for name in sorted(set(got) & set(declared[trace])):
                if got[name] != declared[trace][name]:
                    problems.append(f"{w} trace={trace}: {name} unit {got[name]} "
                                    f"!= declared {declared[trace][name]}")
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{w} trace={trace}: failed={res['failed']} on the seed")
        code, lines = run(w, 1, 1, 0, ["--toy", "--corrupt-oracle"])
        res = result_of(lines)
        if res is None or res["failed"] < 1 or res["correct"]:
            problems.append(f"{w}: corrupted oracle did not raise failed_frac")
        else:
            log(f"{w}: ok (corrupted oracle -> failed={res['failed']})")
    for p in problems:
        log("self-test: " + p)
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 2
    if args.self_test:
        return self_test()
    code, lines = run(args.workload, args.seed, args.seconds, args.trace,
                      timeout=max(170, 3 * args.seconds + 60))
    for line in lines[:-1]:
        print(line)
    if code != 0 or result_of(lines) is None:
        log(f"{args.workload}: benchmark exited with {code} and no result line")
        return code or 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
