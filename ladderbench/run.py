#!/usr/bin/env python3
"""Layer-ladder benchmark: build, run and report.

    python3 ladderbench/run.py --workload small_direct --seed 1 \
        --seconds 15 --trace 0

Run from the repository root. Builds ladderbench/ (which builds the
library from ../src in its production configuration) into
$CARGO_TARGET_DIR/ladderbench (default .bench_build/ladderbench), proves
the output oracle on a corrupted result, then:

  --trace 0  times the workload: setup_s from several fresh processes
             (median), everything else from one closed-loop window of
             --seconds seconds;
  --trace 1  runs the traced layer ladder and prints the per-layer
             metrics; spans go to <build>/out/spans-<workload>.csv.

Prints a run record line, then, as the last line, one JSON object with
keys correct, attempted, failed and metrics. Metric names and units come
from BENCHMARK.json.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small_direct", "small_serve", "irregular_parallel")
# Fresh processes timed for setup_s on top of the timed run's own set-up.
SETUP_PROCESSES = 10
# Everything a run does must end well inside the 180 s limit.
DEADLINE_S = 170.0


def fail(msg, code=1):
    print(f"ladderbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "ladderbench"


def build(bdir, deadline):
    """Configures once, then brings the binary up to date."""
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_logged(cmd, deadline)
        run_logged(["cmake", "--build", str(bdir), "--target", "ladder",
                     "-j", "4"], deadline)
    binary = bdir / "ladder"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def run_logged(cmd, deadline):
    """Runs a build step with its output on stderr."""
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if res.returncode != 0:
        fail(f"failed ({res.returncode}): {' '.join(cmd)}")


def ladder(binary, args, deadline):
    """Runs one ladder process; returns its last stdout line as JSON."""
    cmd = [str(binary)] + args
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, cwd=ROOT,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"failed ({res.returncode}): {' '.join(cmd)}")
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for p in files:
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    return res.stdout.strip() or None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def build_type(bdir):
    for line in (bdir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "core" / "shalom.h").exists() or \
            not (ROOT / "CMakeLists.txt").exists():
        fail(f"library sources not found under {ROOT}", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build_dir()
    binary = build(bdir, time.monotonic() + 900.0)
    deadline = time.monotonic() + DEADLINE_S
    out_dir = bdir / "out"
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--out-dir", str(out_dir)]

    selftest = ladder(binary, ["--mode", "selftest"] + common, deadline)
    failed = 0
    setup_samples = []
    if args.trace:
        res = ladder(binary, ["--mode", "trace"] + common, deadline)
    else:
        for _ in range(SETUP_PROCESSES):
            s = ladder(binary, ["--mode", "setup"] + common, deadline)
            setup_samples.append(s["setup_s"])
            failed += s["failed"]
        res = ladder(binary, ["--mode", "run"] + common, deadline)
        setup_samples.append(res["metrics"]["setup_s"])
        res["metrics"]["setup_s"] = statistics.median(setup_samples)

    failed += res["failed"]
    sentinels = res["sentinels"]
    metrics = {}
    for m in wanted:
        if m["name"] not in res["metrics"]:
            fail(f"ladder did not report {m['name']}")
        metrics[m["name"]] = {"value": res["metrics"][m["name"]],
                              "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "build_type": build_type(bdir),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "peaks_gflops": res["peaks"],
        "valid": sentinels["valid"],
        "sentinels": sentinels,
        "oracle_selftest": selftest["selftest"],
        "setup_samples_s": setup_samples,
        "attempted": res["attempted"],
        "failed": failed,
        "failed_ratio": failed / res["attempted"],
        "details": {k: v for k, v in res.items()
                    if k not in ("metrics", "sentinels", "peaks")},
        "all_metrics": res["metrics"],
    }
    record_path = out_dir / f"record-{args.workload}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print("run_record: " + json.dumps(record))
    if not sentinels["valid"]:
        print("ladderbench: run INVALID (a degraded component or a SHALOM_* "
              "knob changes the timed code path): "
              + "; ".join(sentinels["reasons"]), file=sys.stderr)

    # A run is correct only when every checked output was inside its bound,
    # the oracle caught its planted corruption, and the run was valid.
    correct = failed == 0 and selftest["selftest"] and sentinels["valid"]
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(res["attempted"]),
                      "failed": int(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
