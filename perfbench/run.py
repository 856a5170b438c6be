#!/usr/bin/env python3
"""Campaign benchmark: build the driver, run one workload, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload table2_jit --seed 2026 --seconds 30 --trace 0

`--workload all` runs the three workloads in turn. The driver is built with
CMake into .bench_build/ (RelWithDebInfo); each run works in a fresh
directory under .bench_build/runs/ that is removed afterwards. The output is
a table of every metric with its unit, then one JSON result line. `--trace 1`
makes a traced run, whose result carries the per-layer metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import report  # noqa: E402

BUILD_DIR = ".bench_build"
WORKLOADS = ("table2_jit", "mem_ecc_procs", "deployed_golden")
# The driver stops on its own after --seconds plus setup and checks (at most
# 3x --seconds when a latency sample is short); this only guards a hang.
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configure once and (re)build the driver; return its path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("no repository sources here; run from the repo root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "care_perfbench", "-j", "3"], stdout=sys.stderr,
                   check=True)
    return os.path.join(BUILD_DIR, "care_perfbench")


def git_stamp():
    """(commit, dirty) of the tree being measured, or ("none", None)."""
    def git(*args):
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != \
                os.path.realpath("."):
            return "none", None
        dirty = git("status", "--porcelain", "--untracked-files=no") != ""
        return git("rev-parse", "HEAD"), dirty
    except (OSError, subprocess.CalledProcessError):
        return "none", None


def run_driver(driver, workload, seed, seconds, trace):
    """Run the driver in a fresh directory and return its raw output."""
    runs = os.path.join(BUILD_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=runs)
    # Nothing from the caller's CARE_* environment reaches the libraries;
    # the driver sets every knob it depends on explicitly.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CARE_")}
    raw_path = os.path.join(work, "raw.json")
    try:
        proc = subprocess.Popen(
            [driver, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--dir", work, "--raw", raw_path],
            env=env, stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # The driver's forked campaign workers share its process group.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{workload}: driver timed out")
        if code != 0:
            raise BenchError(f"{workload}: driver exited with {code}")
        with open(raw_path) as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_table(title, metrics, specs, notes):
    print(f"  {title}")
    for sp in specs:
        note = notes.get(sp["name"], "")
        print(f"    {sp['name']:<30} {metrics[sp['name']]:>16.6g} "
              f"{sp['unit']:<9} {note}")


def run_one(driver, bench, targets, workload, seed, seconds, trace):
    raw = run_driver(driver, workload, seed, seconds, trace)
    info, c, s = raw["info"], raw["counters"], raw["samples"]
    commit, dirty = git_stamp()
    attempted, failed = int(c["ops_attempted"]), int(c["ops_failed"])
    share = report.failure_share(attempted, failed)

    e2e = report.end_to_end(raw)
    lat_note = (f"{targets['latency'][workload]} "
                f"(n={len(s['latency_ms'])})")
    e2e_notes = {"latency_p50_ms": lat_note, "latency_p90_ms": lat_note,
                 "setup_s": (f"{len(s['setup_s'])} setups spread over the "
                             "run; median of 3 interleaved group means"),
                 "trials_per_sec": ("fault-free runs/s"
                                    if workload == "deployed_golden" else "")}
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={trace}")
    print(f"  host: nproc={info['nproc']} compiler={info['compiler']!r} "
          f"build={info['build_type']} NDEBUG={info['ndebug']} "
          f"commit={commit} dirty={dirty}")
    print_table("end to end" + (" (traced run)" if trace else ""), e2e,
                bench["end_to_end"], e2e_notes)
    print(f"    ops_total {attempted}  ops_failed {failed}  "
          f"failure share {share:.4f}")
    for why in raw["failures"]:
        print(f"    failed: {why}")
    if trace:
        notes = {}
        metrics = report.per_layer(raw, notes)
        for k, v in targets["per_layer"].items():
            notes.setdefault(k, "-> " + v)
        print_table("per layer", metrics, bench["per_layer"], notes)
        specs = bench["per_layer"]
    else:
        metrics, specs = e2e, bench["end_to_end"]
    print(json.dumps(report.result(attempted, failed, metrics, specs)),
          flush=True)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "targets.json")) as f:
        targets = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=targets["seeds"]["default"])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        driver = build()
        for w in WORKLOADS if args.workload == "all" else (args.workload,):
            run_one(driver, bench, targets, w, args.seed, args.seconds,
                    args.trace)
    except (BenchError, report.Refused, subprocess.CalledProcessError,
            OSError, ValueError, KeyError, ZeroDivisionError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
