"""sivcav benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src, so
nothing needs to be built. The workload runs in a worker process of its own
with single-threaded BLAS (one core's worth of load). With --trace 0 the
last stdout line holds the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics; the line before it holds the run's detail:
environment, seeds, failures with their reasons, and extra figures.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli_photon_chain", "lifetime_onoff", "power_sweep_roundtrip", "tuning_series")
SETUP_PROBES = 1  # extra fresh process that only sets up; median with the run's own
TIMEOUT_S = 170  # a run must end within 180 s


def worker_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env.pop("SIVCAV_SEED", None)
    return env


def run_worker(args, env, workdir, deadline, setup_only=False):
    """Start worker.py in its own session and return its JSON result line."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir,
        "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker did not finish within {TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def percentile_with_tail(values):
    """The highest of p90/p99 with at least ten samples beyond it, or None."""
    n = len(values)
    for q, need in ((99, 1000), (90, 100)):
        if n >= need:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sivcav", "__init__.py")):
        print("perfbench: ./src/sivcav not found; run from the sivcav repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    env = worker_env(root)
    os.makedirs(os.path.join(root, ".perfbench_out"), exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=os.path.join(root, ".perfbench_out")) as workdir:
            probes = []
            if not args.trace:
                probes = [run_worker(args, env, workdir, deadline, setup_only=True)
                          for _ in range(SETUP_PROBES)]
            res = run_worker(args, env, workdir, deadline)
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    # times in seconds at nominal CPU speed (see worker.py)
    setups = [p["setup_s"] / p["setup_factor"] for p in probes + [res]]
    op_times = res["op_nominal"]
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "work_per_s": {"value": res["work"] / sum(op_times), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": dict(res["env"], commit=git_commit(root)),
        "operations": len(op_times),
        "setup_samples_s": setups,
        "setup_raw_s": [p["setup_s"] for p in probes + [res]],
        "op_times_s": op_times[:200],
        "op_raw_s": res["op_raw"][:200],
        "failures": res["failures"],
        "problems": res["problems"],
        "fit_errors": res["fit_errors"],
    }
    tail = percentile_with_tail(op_times)
    if tail is not None:
        detail[f"op_p{tail[0]}_s"] = tail[1]
    if args.trace:
        detail["rounds_s"] = res["rounds"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
