#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload; write BENCH_<label>.json.

    python3 scripts/bench.py --workload lifetime_onoff --seed 1 --pairs 10 \\
        --parent-root ../sivcav-parent --change-root . [--label NAME] [--tier1]

Each tree runs its own `perfbench/run.py --trace 0` from its root, as the
benchmark does, for the run length BENCHMARK.json sets, in --pairs
alternating pairs: the parent runs first in even pairs and the change in
odd ones, so drift of the machine's speed hits both sides alike. One
traced run per side follows, for the per-layer metrics. The JSON file
records the environment (with PYTHONDONTWRITEBYTECODE: when set, each
process compiles the package again), every run's end-to-end metrics, each
side's median and quartiles, the pairs each side won (ties count for
neither), `worse_by` (the change of the median in the worse direction,
relative to the parent's, next to the metric's bound in BENCHMARK.json) and
`gain_shown`: the change won at least nine tenths of the pairs and the
medians lie further apart than the parent's quartile distance. Nothing
under perfbench/ is changed; each tree runs its own copy of it, and the two
copies should be identical. With --tier1, each tree then runs its Tier-1
test command once (`python -m pytest -q --continue-on-collection-errors`
with the tree's src/ on PYTHONPATH, and pytest's cache off so the tree stays
as it was), and the file records its wall time `tier1_s` and its passed,
failed and error counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
ENV_KEYS = ("python", "numpy", "blas", "nproc", "cpus_allowed")


def run_perfbench(root, args, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"bench: {' '.join(cmd)} in {root} exited {out.returncode}:\n{out.stderr}")
    detail, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return detail["detail"], result


def run_tier1(root):
    """Wall time and outcome counts of one Tier-1 run in the tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    summary = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    counts = {"passed": 0, "failed": 0, "errors": 0}
    for n, outcome in re.findall(r"(\d+) (passed|failed|errors?)\b", summary):
        counts["errors" if outcome.startswith("error") else outcome] += int(n)
    return {"tier1_s": seconds, **counts, "exit_code": out.returncode, "summary": summary}


def tree_digest(root):
    """sha256 over the paths and bytes of the tree's src/ files."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def summarize(runs, spec, pairs):
    """Per end-to-end metric: each side's median and quartiles, the wins, the verdict."""
    summary = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], (1.0 if metric["better"] == "higher" else -1.0)
        values = {side: [r["metrics"][name] for r in runs if r["side"] == side] for side in SIDES}
        stats = {side: dict(zip(("q1", "median", "q3"), statistics.quantiles(values[side], n=4)))
                 for side in SIDES}
        wins = {"parent": 0, "change": 0}
        for p, c in zip(values["parent"], values["change"]):
            if p != c:
                wins["change" if sign * (c - p) > 0 else "parent"] += 1
        base, new = stats["parent"]["median"], stats["change"]["median"]
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **stats,
            "wins": wins,
            "change_over_parent": new / base if base else None,
            "worse_by": -sign * (new - base) / base if base else None,
            "bound": metric["bound"],
            "gain_shown": (wins["change"] >= 0.9 * pairs and sign * (new - base) > 0
                           and abs(new - base) > stats["parent"]["q3"] - stats["parent"]["q1"]),
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent-root", required=True)
    parser.add_argument("--change-root", required=True)
    parser.add_argument("--label", help="file label (default: the workload)")
    parser.add_argument("--tier1", action="store_true",
                        help="after the runs, time one Tier-1 test run per tree")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs a side)")
    roots = {"parent": os.path.abspath(args.parent_root),
             "change": os.path.abspath(args.change_root)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    args.seconds = spec["run_seconds"]

    runs = []
    env = None
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            detail, result = run_perfbench(roots[side], args, trace=0)
            env = env or {**{k: detail["env"].get(k) for k in ENV_KEYS},
                          # set, every CLI process compiles the package afresh
                          "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}
            runs.append({
                "pair": pair, "side": side, "position": position,
                "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print(f"pair {pair} {side}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), file=sys.stderr)
    traced = {}
    for side in SIDES:
        _detail, result = run_perfbench(roots[side], args, trace=1)
        traced[side] = {k: v["value"] for k, v in result["metrics"].items()}
    tier1 = {side: run_tier1(roots[side]) for side in SIDES} if args.tier1 else None

    report = {
        "label": args.label or args.workload,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "env": env,
        "trees": {side: {"src_sha256": tree_digest(roots[side])} for side in SIDES},
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "summary": summarize(runs, spec, args.pairs),
        "runs": runs,
        "traced": traced,
        "tier1": tier1,
    }
    path = f"BENCH_{report['label']}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
