#!/usr/bin/env python3
"""Time the three CLI stages of the photon chain in two source trees.

    python3 scripts/chain_stages.py PARENT_ROOT CHANGE_ROOT PAIRS [--seed N]

Runs `sivcav simulate`, `sivcav g2 correlate` and `sivcav g2 fit`, one
process each, on the inputs of the benchmark's cli_photon_chain workload at
its seed N (default 1; about 1.0e6 photons), once per tree in each of PAIRS
pairs: the parent goes first in even pairs and the change in odd ones, so
drift of the machine's speed hits both alike. Each tree runs from its own
src/, with single-threaded BLAS as in the benchmark. Prints each stage's
median wall time and median peak RSS (ru_maxrss) per tree, the change's
median relative to the parent's, whether the trees wrote the same
stream.csv and hist.csv bytes in every pair, and whether the reports
simulate.json, correlate.json and fit.json hold the same `results` and the
same `inputs.files` digests; their timestamps and timings may differ.
Exits 1 where either differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

SIDES = ("parent", "change")
STAGE_NAMES = ("simulate", "correlate", "fit")
OUTPUTS = ("stream.csv", "hist.csv")
REPORTS = tuple(f"{stage}.json" for stage in STAGE_NAMES)


def simulate_seed(seed):
    """The simulate seed the cli_photon_chain workload draws at its seed."""
    return int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])


def stages(sim_seed):
    return (
        ("simulate", ["simulate", "--rates", "100000000.0,2000000000.0,300000000.0,50000000.0",
                      "--duration", "0.019", "--seed", str(sim_seed), "--det-eff", "0.8",
                      "--jitter", "2.96e-10", "--out-stream", "stream.csv",
                      "--out", "simulate.json"]),
        ("correlate", ["g2", "correlate", "--stream", "stream.csv", "--bin-width", "4e-10",
                       "--window", "1.2e-07", "--mode", "full", "--out-hist", "hist.csv",
                       "--out", "correlate.json"]),
        ("fit", ["g2", "fit", "--hist", "hist.csv", "--irf", repr(math.sqrt(2.0) * 296e-12),
                 "--out", "fit.json"]),
    )


def run_stage(root, workdir, argv):
    """(wall seconds, peak RSS in MB) of one stage process of the tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    log = os.path.join(workdir, "stage.stderr")
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sivcav.cli", *argv], cwd=workdir, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log) as fh:
            sys.exit(f"chain_stages: {argv[0]} in {root} exited {proc.returncode}:\n{fh.read()}")
    return seconds, usage.ru_maxrss / 1024.0


def digests(workdir):
    out = []
    for name in OUTPUTS:
        with open(os.path.join(workdir, name), "rb") as fh:
            out.append(hashlib.sha256(fh.read()).hexdigest())
    return out


def report_contents(workdir):
    """The results and the input file digests of each report."""
    out = []
    for name in REPORTS:
        with open(os.path.join(workdir, name)) as fh:
            report = json.load(fh)
        out.append((report["results"], report["inputs"]["files"]))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("pairs", type=int)
    parser.add_argument("--seed", type=int, default=1, help="the workload seed (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("pairs must be at least 1")
    roots = dict(zip(SIDES, map(os.path.abspath, (args.parent_root, args.change_root))))
    sim_seed = simulate_seed(args.seed)
    seconds = {side: {stage: [] for stage in STAGE_NAMES} for side in SIDES}
    rss = {side: {stage: [] for stage in STAGE_NAMES} for side in SIDES}
    totals = {side: [] for side in SIDES}
    differing, reports_differing = [], []
    for pair in range(args.pairs):
        written, reported = {}, {}
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            with tempfile.TemporaryDirectory(prefix="chain-stages-") as workdir:
                total = 0.0
                for stage, stage_argv in stages(sim_seed):
                    wall, peak = run_stage(roots[side], workdir, stage_argv)
                    seconds[side][stage].append(wall)
                    rss[side][stage].append(peak)
                    total += wall
                totals[side].append(total)
                written[side] = digests(workdir)
                reported[side] = report_contents(workdir)
        if written["parent"] != written["change"]:
            differing.append(pair)
        if reported["parent"] != reported["change"]:
            reports_differing.append(pair)

    print(f"{args.pairs} pairs, workload seed {args.seed}, simulate seed {sim_seed}; medians")
    print(f"{'stage':<10} {'parent s':>9} {'change s':>9} {'change':>8} {'parent MB':>10} {'change MB':>10}")
    rows = [(stage, seconds["parent"][stage], seconds["change"][stage],
             rss["parent"][stage], rss["change"][stage]) for stage in STAGE_NAMES]
    rows.append(("chain", totals["parent"], totals["change"], None, None))
    for stage, before, after, mb_before, mb_after in rows:
        t0, t1 = statistics.median(before), statistics.median(after)
        line = f"{stage:<10} {t0:9.3f} {t1:9.3f} {t1 / t0 - 1.0:+8.1%}"
        if mb_before is not None:
            line += f" {statistics.median(mb_before):10.1f} {statistics.median(mb_after):10.1f}"
        print(line)
    outputs, reports = " and ".join(OUTPUTS), ", ".join(REPORTS)
    print(f"{outputs} differ in pairs {differing}" if differing
          else f"{outputs}: the same bytes in every pair")
    print(f"{reports}: results or file digests differ in pairs {reports_differing}"
          if reports_differing else f"{reports}: the same results and file digests in every pair")
    return 1 if differing or reports_differing else 0


if __name__ == "__main__":
    sys.exit(main())
