#!/usr/bin/env python3
"""Record every in-package fit of a pytest run or of a benchmark round, and
compare two such records.

    python3 scripts/fit_digest.py OUT [pytest arguments ...]
    python3 scripts/fit_digest.py OUT --workload NAME --seed N
    python3 scripts/fit_digest.py --compare OLD[,OLD...] NEW[,NEW...]

The first form runs pytest in this process, the second one round of a
``perfbench`` workload in this process (``cli_photon_chain`` through
in-process calls of the CLI). Each fit writes one JSON line to OUT, in the
order the fits are made:

    {"test": ..., "index": ..., "fitter": ..., "sha256": ..., "converged": ...,
     "nfev": ..., "njev": ..., "names": [...], "values": [...], "sigmas": [...]}

``test`` is the pytest node id (or ``<workload>[seed=N]/<input>``), ``index``
the place of the fit in that test, ``fitter`` the function that made it.
The fitters of ``sivcav.fitting`` (``fit_*``) are recorded with what they
return; a call of ``least_squares`` from other package code (the zero-power
fit of ``sivcav.dynamics``) with the engine's result. A test's own
``least_squares`` calls are left out, since their models belong to the test.
The hash covers the values, covariance, cost_trace, iterations, converged,
nfev and njev; a fit that raises records its exception's type and message
under ``error`` and hashes them. Two trees run with the same arguments give
files whose ``diff`` is empty where every fit is equal (``==``). Hypothesis
draws its examples at random unless seeded, so pass ``--hypothesis-seed``
when its tests are among those run.

The compare form joins the fits of two records (each one file or several,
comma-separated) on (test, index) and prints, per fitter, the fits
compared, every change of ``converged``, the largest |new - old| / old
sigma of a value and of a sigma, and the summed model and Jacobian calls
(nfev + njev) on each side. A move within 4 ulps of the parameter's size
counts as none. Fits of a test that one record lacks are counted, not
compared. It exits 1 when a fit stops converging, a value moves by more
than VALUE_TOL (1e-6) of its old sigma, a fit is missing or fails
differently on one side, or a fitter's summed calls rise by more than
CALLS_TOL (1 %); otherwise 0. The sigma moves are printed, not gated:
where a direction is unresolved they follow wherever the fit stops along
it. Record mode exits with pytest's status, or 0 after a round.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from collections import defaultdict

import numpy as np
import pytest

from sivcav import fitting

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDING = 4.0 * np.finfo(float).eps  # a value move this small, relative, is none
VALUE_TOL = 1e-6  # the gate: values move by at most this many sigmas,
CALLS_TOL = 0.01  # and summed model and Jacobian calls rise by at most this share


def _in_package(frame):
    """The innermost frame of package code at or above frame, or None."""
    while frame is not None and not frame.f_globals.get("__name__", "").startswith("sivcav."):
        frame = frame.f_back
    return frame


def _digest(fit):
    h = hashlib.sha256()
    for array in (fit.values, fit.covariance, np.asarray(fit.cost_trace, dtype=float)):
        h.update(np.ascontiguousarray(array, dtype=float).tobytes())
    h.update(repr((fit.iterations, bool(fit.converged), fit.nfev, fit.njev)).encode())
    return h.hexdigest()


class FitDigest:
    """Wraps the fitters and the engine; writes one record per fit. It is
    also the pytest plugin that names each record's test."""

    def __init__(self, out):
        self.out = out
        self.test = "<collection>"
        self.index = 0
        self.depth = 0  # > 0 inside a recorded fit, whose engine calls it covers

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        self.test, self.index = item.nodeid, 0
        yield

    def record(self, fitter, call, args, kwargs):
        entry = {"test": self.test, "index": self.index, "fitter": fitter}
        self.index += 1
        self.depth += 1
        try:
            fit = call(*args, **kwargs)
        except Exception as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["sha256"] = hashlib.sha256(entry["error"].encode()).hexdigest()
            raise
        else:
            entry.update(sha256=_digest(fit), converged=bool(fit.converged), nfev=fit.nfev, njev=fit.njev,
                         names=list(fit.names), values=fit.values.tolist(), sigmas=fit.sigmas.tolist())
            return fit
        finally:
            self.depth -= 1
            self.out.write(json.dumps(entry) + "\n")

    def wrap_fitter(self, name, fitter):
        def recorded(*args, **kwargs):
            if self.depth:
                return fitter(*args, **kwargs)
            return self.record(f"fitting.{name}", fitter, args, kwargs)

        return recorded

    def wrap_engine(self, least_squares):
        def recorded(*args, **kwargs):
            caller = _in_package(sys._getframe(1))
            if self.depth or caller is None:
                return least_squares(*args, **kwargs)
            module = caller.f_globals["__name__"].rpartition(".")[2]
            return self.record(f"{module}.{caller.f_code.co_name}", least_squares, args, kwargs)

        return recorded

    def install(self):
        """Wrap the module attributes; returns the originals for restore."""
        names = ["least_squares"] + [n for n in vars(fitting) if n.startswith("fit_")]
        originals = {n: getattr(fitting, n) for n in names}
        for n, fn in originals.items():
            setattr(fitting, n, self.wrap_engine(fn) if n == "least_squares" else self.wrap_fitter(n, fn))
        return originals


def run_workload(plugin, name, seed):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.WORKLOADS[name](seed, ROOT, workdir)
        wl.in_process = True  # read by cli_photon_chain only
        for k, item in enumerate(wl.pool):
            plugin.test, plugin.index = f"{name}[seed={seed}]/{k}", 0
            wl.run(item)
    return 0


def _load(paths):
    """The records of the comma-separated files, keyed by (test, index)."""
    records = {}
    for path in paths.split(","):
        with open(path) as fh:
            records.update(((e["test"], e["index"]), e) for e in map(json.loads, fh))
    return records


def _moved(new, old, sigma, size):
    """|new - old| / sigma: 0 where the two differ by at most ROUNDING of the
    parameter's size (a noiseless fit's sigmas are at that level) or are
    both NaN, inf where one only is NaN or sigma is not positive."""
    if abs(new - old) <= ROUNDING * size or (math.isnan(new) and math.isnan(old)):
        return 0.0
    moved = abs(new - old) / sigma if sigma > 0 else math.inf
    return math.inf if math.isnan(moved) else moved


def _fit_changes(s, where, a, b):
    """Add fit b against fit a (both recorded without error) to stats s."""
    s["compared"] += 1
    if a["converged"] != b["converged"]:
        s["flips"].append(f"{where}: converged {a['converged']} -> {b['converged']}")
        s["lost"] += a["converged"]
    for name, va, vb, sa, sb in zip(a["names"], a["values"], b["values"], a["sigmas"], b["sigmas"]):
        for field, x, y in (("value", va, vb), ("sigma", sa, sb)):
            moved = _moved(y, x, sa, max(abs(va), abs(vb)))
            if moved > s[field][0]:
                s[field] = (moved, f"{where} {name}")
    s["calls"][0] += a["nfev"] + a["njev"]
    s["calls"][1] += b["nfev"] + b["njev"]


def compare(old_path, new_path, shown=5):
    """Print the per-fitter comparison of two records; 1 where the gate
    fails, else 0. Fits of a test that only one record has are counted,
    not compared."""
    old, new = _load(old_path), _load(new_path)
    tests_old, tests_new = {t for t, _ in old}, {t for t, _ in new}
    stats = defaultdict(lambda: {"compared": 0, "flips": [], "lost": 0, "value": (0.0, None),
                                 "sigma": (0.0, None), "calls": [0, 0], "unmatched": [], "one_side": [0, 0]})
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        s = stats[(a or b)["fitter"]]
        where = f"{key[0]} #{key[1]}"
        if key[0] not in tests_old or key[0] not in tests_new:
            s["one_side"][a is None] += 1
        elif a is None or b is None:
            s["unmatched"].append(f"{where}: only in {'NEW' if a is None else 'OLD'}")
        elif a["fitter"] != b["fitter"] or a.get("error") != b.get("error") or a.get("names") != b.get("names"):
            s["unmatched"].append(f"{where}: {a['fitter']} {a.get('error', a.get('names'))} -> "
                                  f"{b['fitter']} {b.get('error', b.get('names'))}")
        elif "error" not in a:
            _fit_changes(s, where, a, b)

    failed = False
    for fitter in sorted(stats):
        s = stats[fitter]
        calls_old, calls_new = s["calls"]
        rise = calls_new / calls_old - 1.0 if calls_old else 0.0
        ok = not s["lost"] and not s["unmatched"] and s["value"][0] <= VALUE_TOL and rise <= CALLS_TOL
        failed |= not ok
        n = max(s["compared"], 1)
        print(f"{fitter}: {'ok' if ok else 'FAILED'}")
        print(f"  fits compared: {s['compared']} (of tests in one record only: "
              f"{s['one_side'][0]} in OLD, {s['one_side'][1]} in NEW)")
        print(f"  converged changed: {len(s['flips'])} ({s['lost']} lost); unmatched fits: {len(s['unmatched'])}")
        listed = s["flips"] + s["unmatched"]
        for line in listed[:shown]:
            print(f"    {line}")
        if len(listed) > shown:
            print(f"    ... and {len(listed) - shown} more")
        for field in ("value", "sigma"):
            moved, where = s[field]
            print(f"  largest |d{field}|/sigma: {moved:.3g}" + (f" ({where})" if where else ""))
        print(f"  model + Jacobian calls: {calls_old} -> {calls_new} "
              f"({calls_old / n:.2f} -> {calls_new / n:.2f} per fit, {rise:+.2%})")
    return 1 if failed else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if not argv or argv[0].startswith("-"):
        sys.exit(__doc__.split("\n\n")[1])
    with open(argv[0], "w") as out:
        plugin = FitDigest(out)
        originals = plugin.install()
        try:
            if argv[1:2] == ["--workload"] and len(argv) == 5 and argv[3] == "--seed":
                return run_workload(plugin, argv[2], int(argv[4]))
            return pytest.main(argv[1:], plugins=[plugin])
        finally:
            for n, fn in originals.items():
                setattr(fitting, n, fn)


if __name__ == "__main__":
    sys.exit(main())
