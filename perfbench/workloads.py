"""The four benchmark workloads: seeded inputs, one operation, its checks.

Each workload builds a pool of inputs from the run seed at set-up. A round
runs every input of the pool once, in order; a run repeats whole rounds, so
every round does the same work and a failing input fails in every round.
``run`` is the timed operation; ``evaluate`` is untimed and compares the
outputs with reference.py. It returns (work units, failure reason or None,
problems); a non-empty problem list makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np

import sivcav.cli  # noqa: F401  (imports every layer: part of set-up)
from sivcav import dynamics, fitting, montecarlo, spectra
from sivcav.errors import DomainError, RankDeficiencyError
from sivcav.models import EmitterLine, G2Curve, PLSpectrum, RadiativeBudget, ThreeLevelRates

import reference as R

JITTER_S = 296e-12
PAIR_SIGMA_S = math.sqrt(2.0) * JITTER_S  # kernel of pairwise delays

# fitted parameters against the closed forms: (tau1, tau2, a) relative
# tolerances, several times the scatter over seeds (README, "Checks")
CLI_FIT_TOL = (0.06, 0.06, 0.06)
LIFETIME_FIT_TOL = (0.15, 0.30, 0.40)
RATE_TOL = 0.01
TAIL_TOL = 0.01


def _seeds(seed, tag, n):
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(n)]


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _check_histogram(problems, label, counts, norm, n, duration, bin_width, centers, truth):
    """Full-mode histogram: mirror-symmetric counts, normalization
    rate^2 T bin, and the mean over the outer half of the window on the
    closed form (which tends to 1) within TAIL_TOL."""
    if not np.array_equal(counts, counts[::-1]):
        problems.append(f"{label}: histogram is not symmetric")
    expected = (n / duration) ** 2 * duration * bin_width
    if R.rel_err(norm, expected) > 1e-12:
        problems.append(f"{label}: normalization {norm!r} != rate^2 T bin {expected!r}")
    tau1, tau2, a = truth
    far = np.abs(centers) >= 0.5 * np.abs(centers).max()
    tail = float(np.mean(counts[far] / norm))
    closed = float(np.mean(R.g2(centers[far], tau1, tau2, a)))
    if abs(tail - closed) > TAIL_TOL:
        problems.append(f"{label}: far-tail mean {tail:.5f} vs closed form {closed:.5f}")


def _check_fit(problems, label, values, truth, tolerances):
    errors = {}
    for name, value, want, tol in zip(("tau1", "tau2", "a"), values, truth, tolerances):
        errors[name] = R.rel_err(value, want)
        if not errors[name] <= tol:
            problems.append(f"{label}: fitted {name} {value:.5g} vs {want:.5g} (> {tol:.0%})")
    return errors


class Workload:
    name = ""
    tag = 0
    calibration_point = None  # (module, function) to calibrate before, see worker.py

    def checkpoint(self):
        """Called between the stages of an operation; the untimed run
        calibrates the CPU speed here."""

    def __init__(self, seed, root, workdir):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.pool = self.make_inputs(seed)
        self.fit_errors = []  # relative errors of fitted parameters, for the detail line

    def inputs_record(self):
        return {}


# --- cli_photon_chain ------------------------------------------------------------------


class CliPhotonChain(Workload):
    """simulate -> g2 correlate -> g2 fit as three CLI processes, or as
    three in-process calls of sivcav.cli.main when ``in_process`` is set."""

    name = "cli_photon_chain"
    tag = 1
    duration = 0.019  # s: about 1.0e6 photons at 5.3e7 cps
    det_eff = 0.8
    bin_width = 0.4e-9
    window = 120e-9
    in_process = False
    stage_rss_kb = 0  # peak RSS of the largest stage process

    def make_inputs(self, seed):
        schema_path = os.path.join(self.root, "src", "sivcav", "schemas", "report.schema.json")
        with open(schema_path) as fh:
            self.schema = json.load(fh)
        return [_seeds(seed, self.tag, 1)[0]]

    def inputs_record(self):
        return {"simulate_seeds": self.pool}

    def paths(self):
        names = ("stream.csv", "hist.csv", "simulate.json", "correlate.json", "fit.json")
        return {n: os.path.join(self.workdir, n) for n in names}

    def stages(self, sim_seed):
        p = self.paths()
        rates = ",".join(repr(r) for r in R.README_RATES)
        return [
            ("cli.simulate", ["simulate", "--rates", rates, "--duration", repr(self.duration),
                              "--seed", str(sim_seed), "--det-eff", repr(self.det_eff),
                              "--jitter", repr(JITTER_S), "--out-stream", p["stream.csv"],
                              "--out", p["simulate.json"]]),
            ("cli.correlate", ["g2", "correlate", "--stream", p["stream.csv"],
                               "--bin-width", repr(self.bin_width), "--window", repr(self.window),
                               "--mode", "full", "--out-hist", p["hist.csv"],
                               "--out", p["correlate.json"]]),
            ("cli.fit", ["g2", "fit", "--hist", p["hist.csv"], "--irf", repr(PAIR_SIGMA_S),
                         "--out", p["fit.json"]]),
        ]

    def _stage_process(self, argv):
        log = os.path.join(self.workdir, "stage.stderr")
        with open(log, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "sivcav.cli", *argv],
                cwd=self.workdir, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.stage_rss_kb = max(self.stage_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def run(self, sim_seed, stage_wrapper=None):
        codes = []
        for name, argv in self.stages(sim_seed):
            if self.in_process:
                call = sivcav.cli.main if stage_wrapper is None else stage_wrapper(name, sivcav.cli.main)
                with contextlib.redirect_stderr(io.StringIO()):
                    codes.append(call(argv))
            else:
                codes.append(self._stage_process(argv))
            if codes[-1] != 0:
                break
            self.checkpoint()
        return codes

    def evaluate(self, sim_seed, codes):
        problems = []
        if codes != [0, 0, 0]:
            return 0, f"CLI stage exit codes {codes}", []
        p = self.paths()
        reports = {}
        for key in ("simulate.json", "correlate.json", "fit.json"):
            with open(p[key]) as fh:
                try:
                    reports[key] = _strict_json(fh.read())
                    jsonschema.validate(reports[key], self.schema)
                except (ValueError, jsonschema.ValidationError) as err:
                    problems.append(f"{key}: {str(err).splitlines()[0]}")
        if problems:
            return 0, None, problems
        sim = reports["simulate.json"]["results"]
        corr = reports["correlate.json"]["results"]
        fit = reports["fit.json"]["results"]
        n = sim["photon_count"]["value"]
        predicted = R.detected_rate(R.README_RATES, 1.0, self.det_eff)
        if R.rel_err(sim["detected_rate"]["value"], predicted) > RATE_TOL:
            problems.append(f"detected rate {sim['detected_rate']['value']:.5g} vs {predicted:.5g}")
        header = {}
        with open(p["hist.csv"]) as fh:
            for line in fh:
                if line.startswith("#") and "=" in line:
                    key, value = line[1:].split("=", 1)
                    header[key.strip()] = value.strip()
        table = np.loadtxt(p["hist.csv"], delimiter=",", comments="#", ndmin=2)
        norm = float(header["normalization"])
        if norm != corr["normalization"]["value"]:
            problems.append("histogram header and report disagree on the normalization")
        counts = np.rint(table[:, 1] * norm)
        truth = R.g2_params(*R.README_RATES)
        _check_histogram(problems, "histogram", counts, norm, corr["n_photons"]["value"],
                         self.duration, self.bin_width, table[:, 0], truth)
        if fit["converged"]["value"] is not True:
            problems.append("g2 fit did not converge")
        errors = _check_fit(problems, "fit", (fit["tau1"]["value"], fit["tau2"]["value"],
                                              fit["a"]["value"]), truth, CLI_FIT_TOL)
        self.fit_errors.append(errors)
        return n, None, problems


# --- lifetime_onoff --------------------------------------------------------------------


class LifetimeOnOff(Workload):
    """Acceptance criterion 08 as library calls: on- and off-resonance
    streams, jitter, full-mode histograms, kernel-aware g2 fits."""

    name = "lifetime_onoff"
    tag = 2
    durations = {"on": 0.06, "off": 0.8}
    bin_width = 0.05e-9
    window = 60e-9

    def make_inputs(self, seed):
        s = _seeds(seed, self.tag, 4)
        self.emitters = R.lifetime_emitters()
        return [((s[0], s[1]), (s[2], s[3]))]

    def inputs_record(self):
        return {"stream_and_jitter_seeds": self.pool}

    def run(self, item, stage_wrapper=None):
        out = []
        for emitter, (sim_seed, jitter_seed) in zip(self.emitters, item):
            stream = montecarlo.simulate_stream(
                ThreeLevelRates(*emitter.rates),
                RadiativeBudget(emitter.zpl, emitter.psb, emitter.nr),
                self.durations[emitter.label], 1.0, sim_seed,
            )
            jittered = montecarlo.apply_jitter(stream, JITTER_S, jitter_seed)
            hist = montecarlo.correlate(jittered, self.bin_width, self.window)
            fit = fitting.fit_g2(hist.to_curve(), irf_sigma=PAIR_SIGMA_S)
            out.append((len(stream), len(jittered), hist, fit))
            self.checkpoint()
        return out

    def evaluate(self, item, out):
        problems = []
        photons = 0
        tau1 = {}
        errors = {}
        for emitter, (n, n_jit, hist, fit) in zip(self.emitters, out):
            label = emitter.label
            duration = self.durations[label]
            photons += n
            predicted = R.detected_rate(emitter.rates, emitter.eta_qe, 1.0)
            if R.rel_err(n / duration, predicted) > RATE_TOL:
                problems.append(f"{label}: detected rate {n / duration:.5g} vs {predicted:.5g}")
            truth = R.g2_params(*emitter.rates)
            _check_histogram(problems, label, hist.counts, hist.normalization, n_jit, duration,
                             self.bin_width, hist.centers, truth)
            if not fit.converged:
                problems.append(f"{label}: g2 fit did not converge")
            errors[label] = _check_fit(problems, label, (fit["tau1"], fit["tau2"], fit["a"]),
                                       truth, LIFETIME_FIT_TOL)
            tau1[label] = fit["tau1"]
        ratio = tau1["on"] / tau1["off"]
        errors["ratio"] = R.rel_err(ratio, R.LIFETIME_RATIO_TARGET)
        if errors["ratio"] > 0.20:
            problems.append(f"on/off tau1 ratio {ratio:.4f} not within 20% of 180/445")
        self.fit_errors.append(errors)
        return photons, None, problems


# --- power_sweep_roundtrip -----------------------------------------------------------------


class PowerSweepRoundTrip(Workload):
    """Acceptance criterion 07 round trips on seeded random rate sets."""

    name = "power_sweep_roundtrip"
    tag = 3
    pool_size = 48

    def make_inputs(self, seed):
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.tag]))
        self.powers = np.array(R.SWEEP_POWERS)
        return R.sweep_cases(rng, self.pool_size)

    def inputs_record(self):
        return {"rate_sets": len(self.pool)}

    def run(self, case, stage_wrapper=None):
        base = ThreeLevelRates(0.0, case.k21, case.k23, case.k31)
        sweep = dynamics.power_sweep(base, dynamics.PumpModel(case.sigma), self.powers)
        fitted, fits, edges = [], [], []
        for i, (power, g) in enumerate(zip(self.powers, sweep.params)):
            grid = R.sweep_grid(g.tau1, g.tau2)
            rates = ThreeLevelRates(*case.rates_at(power))
            curve = dynamics.g2_analytic(rates, grid)
            tail = dynamics.g2_analytic(rates, np.array([200.0 * g.tau2]))
            noisy = np.clip(curve.values + case.noise[i, : grid.size], 0.0, None)
            fit = fitting.fit_g2(G2Curve(grid, noisy, np.full(grid.size, R.SWEEP_NOISE)))
            fits.append(fit.converged)
            fitted.append(fitting.g2_params_from_fit(fit))
            edges.append((float(curve.values[0]), float(tail.values[0])))
        zero = dynamics.extrapolate_zero_power(dynamics.PowerSweep(self.powers, tuple(fitted)))
        return sweep, fits, edges, zero

    def evaluate(self, case, out):
        sweep, fits, edges, zero = out
        problems = []
        for power, g in zip(self.powers, sweep.params):
            truth = R.g2_params(*case.rates_at(power))
            if g is None or max(R.rel_err(v, t) for v, t in zip((g.tau1, g.tau2, g.a), truth)) > 1e-12:
                problems.append(f"power_sweep at {power} mW disagrees with the closed form")
        if not all(fits):
            problems.append("a g2 fit did not converge")
        for g0, tail in edges:
            if g0 != 0.0:
                problems.append(f"g2(0) = {g0!r}, not exactly 0")
            if abs(tail - 1.0) >= 1e-4:
                problems.append(f"far tail {tail!r} not within 1e-4 of 1")
        err = R.rel_err(zero.rates.k21, case.k21)
        self.fit_errors.append({"k21": err})
        if err > 0.05:
            problems.append(f"k21 recovered to {err:.2%} (> 5%)")
        return 1, None, problems


# --- tuning_series -------------------------------------------------------------------------


class TuningSeries(Workload):
    """track_modes -> enhancement_ratio on fixed noisy tuning series.

    The series come from generator seeds 0-3 whatever the run seed: the
    _detect_peaks fault hits shot-noise series at random, so series drawn
    from the run seed would fail on some seeds and not others. The run seed
    only rotates their order.
    """

    name = "tuning_series"
    tag = 4
    generator_seeds = (0, 1, 2, 3)
    calibration_point = ("sivcav.fitting", "fit_lorentzians")  # about twice a step

    def make_inputs(self, seed):
        cases = [R.tuning_case(g) for g in self.generator_seeds]
        k = seed % len(cases)
        self.line = EmitterLine(R.LINE_NM, R.LINE_FWHM)
        return cases[k:] + cases[:k]

    def inputs_record(self):
        return {"generator_seeds": [c.generator_seed for c in self.pool]}

    def steps(self, case):
        return [(k, PLSpectrum(case.wavelengths, case.counts[k])) for k in range(R.N_STEPS)]

    def run(self, case, stage_wrapper=None):
        seeds = {"mode": (float(case.mode_centers[0]), R.MODE_FWHM), "line": (R.LINE_NM, R.LINE_FWHM)}
        series = spectra.track_modes(self.steps(case), seeds)
        try:
            result = spectra.enhancement_ratio(series, self.line, mode_labels=["mode"])
        except (DomainError, RankDeficiencyError) as err:
            result = err
        return series, result

    def _diagnose(self, case, step):
        """Why the mode track left the mode at ``step``: the named fault is
        peak detection that returns no peak at the mode, or a degenerate
        component narrower than one sample."""
        detect = getattr(spectra, "_detect_peaks", None)
        if detect is None:
            return None
        spectrum = self.steps(case)[step][1]
        peaks = detect(spectrum)
        truth = case.mode_centers[step]
        spacing = float(case.wavelengths[1] - case.wavelengths[0])
        found = any(abs(c - truth) <= R.TRACK_TOL_NM for c, _ in peaks)
        degenerate = [w for _, w in peaks if w < spacing]
        if found and not degenerate:
            return None
        return (
            f"series {case.generator_seed}: _detect_peaks at step {step} returned "
            f"{len(peaks)} peaks, {len(degenerate)} narrower than one sample, "
            f"{'one' if found else 'none'} within {R.TRACK_TOL_NM} nm of the mode at {truth:.3f} nm"
        )

    def evaluate(self, case, out):
        series, result = out
        track = series.tracked_modes["mode"]
        points = {p.step: p for p in track.points}
        for k in range(R.N_STEPS):
            p = points.get(k)
            if p is None or abs(p.center - case.mode_centers[k]) > R.TRACK_TOL_NM:
                reason = self._diagnose(case, k)
                if reason is not None:
                    return R.N_STEPS, reason, []
                return R.N_STEPS, None, [f"series {case.generator_seed}: mode track lost at step {k}"]
        problems = []
        rate = track.tuning_rate()
        if abs(rate - case.rate) > R.RATE_TOL:
            problems.append(f"series {case.generator_seed}: tuning rate {rate:.4f} nm/step")
        if isinstance(result, Exception):
            problems.append(f"series {case.generator_seed}: enhancement_ratio raised {result}")
        else:
            if (result.on_step, result.off_step) != (case.on_step, case.off_step):
                problems.append(
                    f"series {case.generator_seed}: on/off steps {result.on_step}/{result.off_step} "
                    f"!= {case.on_step}/{case.off_step}"
                )
            err = R.rel_err(result.ratio, case.ratio)
            tol = R.enhancement_tolerance(case)
            self.fit_errors.append({"series": case.generator_seed, "enhancement": err, "tolerance": tol})
            if err > tol:
                problems.append(f"series {case.generator_seed}: enhancement off by {err:.1%} (> {tol:.1%})")
        return R.N_STEPS, None, problems


WORKLOADS = {w.name: w for w in (CliPhotonChain, LifetimeOnOff, PowerSweepRoundTrip, TuningSeries)}
