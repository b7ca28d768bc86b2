"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Run from the repository root. It checks the reference module against
high-precision arithmetic and against the program, runs one operation of
every workload and requires its checks to pass, then feeds each check a
deliberately wrong output and requires it to fail. Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys
import tempfile
from decimal import Decimal, getcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[key] = "1"
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference as R  # noqa: E402
import workloads as W  # noqa: E402
from sivcav import dynamics  # noqa: E402
from sivcav.models import ThreeLevelRates  # noqa: E402

FAILURES = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def exact_g2_params(rates):
    getcontext().prec = 60
    k12, k21, k23, k31 = (Decimal(repr(r)) for r in rates)
    s = k12 + k21 + k23 + k31
    p = k12 * k23 + k12 * k31 + k21 * k31 + k23 * k31
    fast = -(s + (s * s - 4 * p).sqrt()) / 2
    slow = p / fast
    p2 = 1 / (1 + (k21 + k23) / k12 + k23 / k31)
    a = (k12 / p2 + fast) / (slow - fast)
    return -1 / fast, -1 / slow, a


def test_reference():
    rate_sets = [R.README_RATES] + [e.rates for e in R.lifetime_emitters()]
    worst_exact = worst_program = 0.0
    for rates in rate_sets:
        ref = R.g2_params(*rates)
        exact = exact_g2_params(rates)
        worst_exact = max(worst_exact, *(float(abs(Decimal(repr(v)) - e) / e) for v, e in zip(ref, exact)))
        g = dynamics.g2_params_from_rates(ThreeLevelRates(*rates))
        worst_program = max(worst_program, *(R.rel_err(v, t) for v, t in zip((g.tau1, g.tau2, g.a), ref)))
    expect(worst_exact <= 5e-16, f"closed forms within {worst_exact:.2g} of 60-digit arithmetic")
    # the program's eigen-solver result carries a few ulps of round-off
    expect(worst_program <= 4e-15, f"dynamics.g2_params_from_rates within {worst_program:.2g} of the closed forms")
    p2 = dynamics.steady_state(ThreeLevelRates(*R.README_RATES))[1]
    expect(R.rel_err(p2, R.p2_steady(*R.README_RATES)) < 1e-14, "steady-state p2 matches")


def one_op(wl):
    item = wl.pool[0]
    return item, wl.run(item)


def test_cli(workdir):
    wl = W.CliPhotonChain(7, ROOT, workdir)
    wl.in_process = True
    item, codes = one_op(wl)
    work, failure, problems = wl.evaluate(item, codes)
    expect(failure is None and not problems and work > 9e5, f"cli_photon_chain smoke pass ({work:.0f} photons)")
    p = wl.paths()
    pristine = {k: open(v).read() for k, v in p.items() if k != "stream.csv"}

    def broken(key, edit):
        with open(p[key], "w") as fh:
            fh.write(edit(pristine[key]))
        result = wl.evaluate(item, codes)
        with open(p[key], "w") as fh:
            fh.write(pristine[key])
        return result

    def shift_rate(text):
        doc = json.loads(text)
        doc["results"]["detected_rate"]["value"] *= 1.02
        return json.dumps(doc)

    def shift_tau1(text):
        doc = json.loads(text)
        doc["results"]["tau1"]["value"] *= 1.10
        return json.dumps(doc)

    def asymmetric(text):
        lines = text.splitlines()
        tau, g2, sigma = lines[10].split(",")
        lines[10] = f"{tau},{float(g2) * 1.01!r},{sigma}"
        return "\n".join(lines) + "\n"

    expect(bool(broken("simulate.json", shift_rate)[2]), "cli: a detected rate 2% off is caught")
    expect(bool(broken("fit.json", shift_tau1)[2]), "cli: a tau1 10% off is caught")
    expect(bool(broken("hist.csv", asymmetric)[2]), "cli: an asymmetric histogram is caught")
    expect(bool(broken("fit.json", lambda t: t.replace('"value": 0', '"value": NaN', 1))[2]),
           "cli: a NaN in a report is caught")
    expect(bool(broken("correlate.json", lambda t: t.replace('"sivcav-report/1"', '"other"'))[2]),
           "cli: a report off the schema is caught")
    expect(wl.evaluate(item, [0, 3])[1] is not None, "cli: a non-zero stage exit is a failure")


def test_lifetime(workdir):
    wl = W.LifetimeOnOff(7, ROOT, workdir)
    item, out = one_op(wl)
    work, failure, problems = wl.evaluate(item, out)
    expect(failure is None and not problems, f"lifetime_onoff smoke pass ({work:.0f} photons)")
    expect(bool(wl.evaluate(item, out[::-1])[2]), "lifetime: swapped on/off outputs are caught")
    n, n_jit, hist, fit = out[0]
    shifted = [(int(n * 1.02), n_jit, hist, fit), out[1]]
    expect(bool(wl.evaluate(item, shifted)[2]), "lifetime: a photon count 2% off is caught")


def test_power_sweep(workdir):
    wl = W.PowerSweepRoundTrip(7, ROOT, workdir)
    case, out = one_op(wl)
    work, failure, problems = wl.evaluate(case, out)
    expect(failure is None and not problems, "power_sweep_roundtrip smoke pass")
    shifted = dataclasses.replace(case, k21=case.k21 * 1.1)
    expect(bool(wl.evaluate(shifted, out)[2]), "power sweep: rates shifted by 10% are caught")
    sweep, fits, edges, zero = out
    bad_edges = [(1e-3, edges[0][1])] + edges[1:]
    expect(bool(wl.evaluate(case, (sweep, fits, bad_edges, zero))[2]), "power sweep: g2(0) != 0 is caught")
    expect(bool(wl.evaluate(case, (sweep, [False] + fits[1:], edges, zero))[2]),
           "power sweep: a fit that did not converge is caught")


def test_tuning(workdir):
    wl = W.TuningSeries(0, ROOT, workdir)
    wl.pool = [R.tuning_case(1)]
    case, out = one_op(wl)
    work, failure, problems = wl.evaluate(case, out)
    expect(failure is None and not problems, "tuning_series smoke pass (series 1)")
    swapped = dataclasses.replace(case, on_step=case.off_step, off_step=case.on_step)
    expect(bool(wl.evaluate(swapped, out)[2]), "tuning: a swapped on/off step is caught")
    amps = case.line_amplitudes.copy()
    amps[case.on_step] *= 1.5
    expect(bool(wl.evaluate(dataclasses.replace(case, line_amplitudes=amps), out)[2]),
           "tuning: an enhancement 50% off is caught")
    moved = dataclasses.replace(case, mode_centers=case.mode_centers + 1.0)
    result = wl.evaluate(moved, out)
    expect(result[1] is not None or bool(result[2]), "tuning: a track 1 nm off the mode is caught")
    series, enh = out
    fast = copy.copy(series)
    track = series.tracked_modes["mode"]
    steeper = dataclasses.replace(track, points=tuple(
        dataclasses.replace(pt, center=pt.center - 0.06 * (pt.step - 5.5)) for pt in track.points))
    object.__setattr__(fast, "tracked_modes", {**series.tracked_modes, "mode": steeper})
    expect(bool(wl.evaluate(case, (fast, enh))[2]), "tuning: a tuning rate 0.06 nm/step off is caught")


def main():
    test_reference()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        test_cli(workdir)
        test_lifetime(workdir)
        test_power_sweep(workdir)
        test_tuning(workdir)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
