"""Command-line interface.

Subcommands wrap the analysis modules into reproducible runs: JSON reports go
to stdout (or --out), human summaries to stderr. Exit codes: 0 success,
2 input/validation error including a bad flag (machine-readable error JSON on
stderr), 3 analysis non-convergence. No environment variable changes a run.

The parser parses every flag given, lists of numbers included, before any file
is read; a malformed one is a usage error. A bundled purcell scenario is a
saved list of purcell flags, which _parse places before the flags given. Each
cmd_* reads only its args, computes and writes its outputs, noting every file
it reads or writes; _run owns the report: it hashes those files, builds,
checks and emits the report, and picks the exit code.

The module imports only what the parser and _run need; each cmd_* imports
the analysis modules it runs, so a subcommand compiles no module it does not
use (g2 correlate loads montecarlo but not dynamics, fitting, purcell or
spectra).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from operator import methodcaller
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import montecarlo, report
from ._table import parse_floats, read_document, write_table
from .errors import (
    DomainError,
    InputFormatError,
    RankDeficiencyError,
    ValidationError,
)
from .models import CavityMode, EmitterLine, G2Params, RadiativeBudget, ThreeLevelRates, _number

NONCONVERGED_EXIT = 3
_PACKAGE = Path(__file__).resolve().parent
_SCENARIOS = _PACKAGE / "scenarios"


def _read(read, path, paths):
    """read(path), noting path in paths; None where path is None."""
    if path is None:
        return None
    paths.append(path)
    return read(path)


_read_budget = partial(read_document, make=RadiativeBudget.from_dict)
_num = report.result_entry


def _rates_entry(budget, kind):
    """A purcell report's rates_* entry: the channel rates of a budget in
    one photonic environment, with its total and quantum efficiency."""
    rates = {"gamma_total": budget.gamma_total, "channel_zpl": budget.gamma_zpl,
             "channel_psb": budget.gamma_psb, "channel_nr": budget.gamma_nr,
             "eta_qe": budget.eta_qe, "kind": kind, "units": "Hz"}
    return {"value": rates, "units": "Hz"}


class _Outcome(NamedTuple):
    """What a subcommand hands to _run: its results and stderr summary lines,
    the fit whose convergence sets the exit code, and provenance beyond the
    seed."""

    results: dict
    summary: list
    fit: object = None
    provenance: dict = None


# --- purcell -------------------------------------------------------------------


def cmd_purcell(args, paths):
    from . import purcell

    # each overlap factor needs its inputs: R_lambda the line, R_mu both
    # axes, R_r the map and the position, and each of them the mode
    needs = [("line_width", "--lambda-i", args.lambda_i), ("dipole", "--field-axis", args.field_axis),
             ("field_axis", "--dipole", args.dipole), ("fieldmap", "--pos x,y", args.pos),
             ("pos", "--fieldmap", args.fieldmap),
             *((name, "--q, --vmode and --lambda-c", args.q) for name in ("lambda_i", "dipole", "fieldmap"))]
    for name, needed, given in needs:
        if getattr(args, name) is not None and given is None:
            raise DomainError(f"--{name.replace('_', '-')} requires {needed}")
    if len({args.q is None, args.vmode is None, args.lambda_c is None}) > 1:
        raise DomainError("--q, --vmode and --lambda-c must be given together")
    mode = CavityMode(args.lambda_c, args.q, args.vmode) if args.q is not None else None
    line = EmitterLine(args.lambda_i, args.line_width or 0.0) if args.lambda_i is not None else None
    fieldmap = _read(purcell.load_field_map, args.fieldmap, paths)
    budget = _read(_read_budget, args.budget, paths)

    results = {}
    f_cav = None
    if mode is not None:
        f_p = purcell.ideal_purcell(mode)
        r_lambda = purcell.spectral_overlap(line, mode) if line else 1.0
        r_mu = purcell.orientation_overlap(args.dipole, args.field_axis) if args.dipole is not None else 1.0
        r_r = purcell.spatial_overlap(fieldmap, args.pos) if fieldmap else 1.0
        f_cav = purcell.effective_purcell(f_p, r_lambda, r_mu, r_r)
        chain = {"f_p": f_p, "r_lambda": r_lambda, "r_mu": r_mu, "r_r": r_r, "f_cav": f_cav}
        if args.f_phc is not None:
            chain["i_pl"] = purcell.pl_enhancement(f_cav, args.f_phc)
        results = {name: _num(value, "dimensionless") for name, value in chain.items()}

    if budget is not None:
        results["rates_bulk"] = _rates_entry(budget, "bulk")
        results["eta_qe_bulk"] = _num(budget.eta_qe, "dimensionless")
        if args.f_phc is not None and args.f_phc < 1.0:
            bandgap = purcell.modified_budget(budget, args.f_phc)
            results["rates_phc"] = _rates_entry(bandgap, "bandgap_only")
            results["eta_qe_phc"] = _num(bandgap.eta_qe, "dimensionless")
        if f_cav is not None and args.f_phc is not None:
            cavity = purcell.modified_budget(budget, args.f_phc, f_cav)
            beta_total, beta_radiative = purcell.mode_emission_fractions(cavity)
            results["rates_cav"] = _rates_entry(cavity, "cavity_coupled")
            results["eta_qe_cav"] = _num(cavity.eta_qe, "dimensionless")
            results["beta_total"] = _num(beta_total, "dimensionless")
            results["beta_radiative"] = _num(beta_radiative, "dimensionless")

    if not results:
        raise DomainError("nothing to compute: supply --scenario, mode flags or --budget")

    summary = [f"purcell: {name} = {entry['value']:.6g}" for name, entry in results.items()
               if isinstance(entry.get("value"), (int, float))]
    return _Outcome(results, summary)


# --- simulate ------------------------------------------------------------------


def cmd_simulate(args, paths):
    from . import dynamics

    rates = ThreeLevelRates(*args.rates)
    # without a budget, fully radiative with an all-ZPL split
    budget = _read(_read_budget, args.budget, paths) or RadiativeBudget(1.0, 0.0, 0.0)
    stream = montecarlo.simulate_stream(rates, budget, args.duration, args.det_eff, args.seed)
    stream = montecarlo.apply_jitter(stream, args.jitter, args.seed + 1)
    montecarlo.save_stream(
        stream, args.out_stream, rates=rates,
        meta={"detection_eff": args.det_eff, "jitter_s": args.jitter or 0.0},
    )
    paths.append(args.out_stream)

    p2 = float(dynamics.steady_state(rates)[1])
    predicted = args.det_eff * budget.eta_qe * rates.k21 * p2
    results = {
        "photon_count": _num(len(stream), "photons"),
        "detected_rate": _num(stream.detected_rate if len(stream) else 0.0, "cps"),
        "predicted_rate": _num(predicted, "cps"),
        "duration": _num(stream.duration, "s"),
    }
    summary = [
        f"simulate: {len(stream)} photons in {stream.duration:.3g} s "
        f"({stream.detected_rate if len(stream) else 0.0:.4g} cps, predicted {predicted:.4g} cps)"
    ]
    return _Outcome(results, summary, provenance={"rng_algorithm": stream.rng_algorithm})


# --- g2 --------------------------------------------------------------------------


def cmd_g2_fit(args, paths):
    from . import fitting

    curve = montecarlo.load_g2_csv(args.hist)
    paths.append(args.hist)
    init = G2Params(*args.init[1:], args.init[0]) if args.init else None  # --init is a,tau1,tau2
    fit = fitting.fit_g2(curve, init=init, irf_sigma=args.irf)
    results = {
        "a": _num(fit["a"], "dimensionless", fit.sigma("a")),
        "tau1": _num(fit["tau1"], "s", fit.sigma("tau1")),
        "tau2": _num(fit["tau2"], "s", fit.sigma("tau2")),
    }
    summary = [
        f"g2 fit: tau1 = {fit['tau1']:.4g} s, tau2 = {fit['tau2']:.4g} s, "
        f"a = {fit['a']:.4g} (converged={fit.converged})"
    ]
    return _Outcome(results, summary, fit)


def cmd_g2_correlate(args, paths):
    if args.mode == montecarlo.MODE_FULL and args.seed is not None:
        raise DomainError("--seed requires --mode start-stop")
    if args.mode == montecarlo.MODE_START_STOP and args.seed is None:
        args.seed = 0  # the splitter's default, recorded as provenance.seed
    stream, _meta = montecarlo.load_stream(args.stream)
    hist = montecarlo.correlate(stream, args.bin_width, args.window, args.mode, seed=args.seed)
    montecarlo.save_histogram(hist, args.out_hist)
    paths += [args.stream, args.out_hist]
    results = {
        "n_photons": _num(len(stream), "photons"),
        "n_bins": _num(int(hist.counts.size), "bins"),
        "total_pairs": _num(int(hist.counts.sum()), "pairs"),
        "normalization": _num(hist.normalization, "pairs/bin"),
        "mode": {"value": hist.mode, "units": "label"},
    }
    return _Outcome(results, [f"correlate: {hist.counts.sum()} pairs in {hist.counts.size} bins"])


def cmd_g2_sweep(args, paths):
    from . import dynamics

    sweep = dynamics.load_power_sweep(args.sweep)
    paths.append(args.sweep)
    zero = dynamics.extrapolate_zero_power(sweep)
    fit = zero.fit
    results = {
        "tau1_zero": _num(zero.tau1_zero, "s"),
        "k21": _num(zero.rates.k21, "Hz", fit.sigma("k21")),
        "k23": _num(zero.rates.k23, "Hz", fit.sigma("k23")),
        "k31": _num(zero.rates.k31, "Hz", fit.sigma("k31")),
        "sigma_pump": _num(zero.sigma, "Hz/mW", fit.sigma("sigma")),
    }
    summary = [
        f"sweep: tau1(P->0) = {zero.tau1_zero:.4g} s, k21 = {zero.rates.k21:.6g} Hz"
    ]
    return _Outcome(results, summary, fit)


# --- spectra ---------------------------------------------------------------------


def cmd_spectra_fit(args, paths):
    from . import fitting, spectra

    spectrum = spectra.load_spectrum(args.spectrum)
    paths.append(args.spectrum)
    fit = fitting.fit_lorentzians(spectrum, len(args.peaks), args.peaks, poisson_weights=args.poisson)
    peaks = fitting.lorentzian_peak_summary(fit, len(args.peaks))
    results = {
        "peaks": {"value": peaks, "units": "nm,counts"},
        "baseline": _num(fit["baseline"], "counts", fit.sigma("baseline")),
    }
    summary = [
        f"peak {k + 1}: center {p['center']:.4f} nm, fwhm {p['fwhm']:.4f} nm, "
        f"Q = {p['q']:.1f} +- {p['q_sigma']:.1f}"
        for k, p in enumerate(peaks)
    ]
    return _Outcome(results, summary, fit)


def _manifest_series(args, paths):
    from . import spectra

    paths.append(args.manifest)

    def load(path):
        paths.append(path)
        return spectra.load_spectrum(path)

    return spectra.track_modes(spectra.load_manifest(args.manifest, load), args.seeds)


def cmd_spectra_track(args, paths):
    series = _manifest_series(args, paths)
    modes = {}
    for label, track in series.tracked_modes.items():
        entry = {
            "n_steps": len(track.points),
            "terminated_at": track.terminated_at,
            "non_monotonic_steps": list(track.non_monotonic_steps),
        }
        if len(track.points) >= 2:
            entry["rate_nm_per_step"] = track.tuning_rate()
        modes[label] = entry
    results = {"modes": {"value": modes, "units": "nm/step"}}
    if args.emit_curves:
        with open(args.emit_curves, "w") as fh:
            fh.write("# label,step,center_nm,fwhm_nm\n")
            for label, track in series.tracked_modes.items():
                for p in track.points:
                    fh.write(f"{label},{p.step},{p.center!r},{p.fwhm!r}\n")
        paths.append(args.emit_curves)
    summary = [
        f"track {label}: {entry['rate_nm_per_step']:+.3f} nm/step "
        f"over {entry['n_steps']} steps"
        for label, entry in modes.items()
        if "rate_nm_per_step" in entry
    ]
    return _Outcome(results, summary)


def cmd_spectra_enhance(args, paths):
    from . import spectra

    series = _manifest_series(args, paths)
    line = EmitterLine(args.lambda_i, args.line_width)
    result = spectra.enhancement_ratio(series, line, mode_labels=args.modes)
    results = {
        "enhancement_ratio": _num(result.ratio, "dimensionless"),
        "on_step": _num(result.on_step, "step"),
        "off_step": _num(result.off_step, "step"),
    }
    return _Outcome(
        results, [f"enhancement: x{result.ratio:.3g} (step {result.on_step} vs {result.off_step})"]
    )


def _mixture(doc):
    """(emitter, [(channel, mode)], line_lambda, detunings) of a --mixture document."""
    from . import spectra

    emitter = spectra.PolarizedChannel(doc["emitter"]["angle"], doc["emitter"]["weight"])
    modes = [(spectra.PolarizedChannel(m["angle"], m["weight"]),
              CavityMode(m["lambda_c"], m["q_factor"], m.get("mode_volume", 1.0)))
             for m in doc["modes"]]
    dspec = doc["detunings"]
    num = dspec["num"]
    if isinstance(num, bool) or not isinstance(num, (int, float)) or not num >= 1 or num % 1:
        raise ValueError(f"detunings num must be a whole number of at least 1, got {num!r}")
    detunings = np.linspace(_number("detunings start", dspec["start"]),
                            _number("detunings stop", dspec["stop"]), int(num))
    return emitter, modes, doc["line_lambda"], detunings


def cmd_spectra_polarization(args, paths):
    from . import fitting, spectra

    if args.emit_curves and not args.mixture:
        raise DomainError("--emit-curves requires --mixture")
    if args.scan:
        scan = spectra.load_polarization_scan(args.scan)
        paths.append(args.scan)
        fit = fitting.fit_cos2(scan)
        visibility = fitting.cos2_visibility(fit)
        results = {
            "phi0": _num(fit["phi0"], "deg", fit.sigma("phi0")),
            "i_max": _num(fit["i_max"], "counts", fit.sigma("i_max")),
            "i_min": _num(fit["i_min"], "counts", fit.sigma("i_min")),
            "visibility": _num(visibility, "dimensionless"),
        }
        summary = [f"cos^2 fit: phi0 = {fit['phi0']:.2f} deg, visibility {visibility:.3f}"]
        return _Outcome(results, summary, fit)
    emitter, modes, line_lambda, detunings = read_document(args.mixture, _mixture)
    paths.append(args.mixture)
    angles = spectra.polarization_mixture(emitter, modes, line_lambda, detunings)
    if args.emit_curves:
        with open(args.emit_curves, "w") as fh:
            fh.write("# detuning_nm,phi_deg\n")
            write_table(fh, detunings, angles)
        paths.append(args.emit_curves)
    results = {
        "phi_first": _num(float(angles[0]), "deg"),
        "phi_last": _num(float(angles[-1]), "deg"),
        "n_detunings": _num(int(detunings.size), "points"),
    }
    summary = [
        f"mixture: phi sweeps {angles[0]:.1f} -> {angles[-1]:.1f} deg over "
        f"[{detunings[0]:.3g}, {detunings[-1]:.3g}] nm"
    ]
    return _Outcome(results, summary)


# --- wiring ----------------------------------------------------------------------


def _run(args):
    """Run the subcommand args name and emit its report: the flags, a SHA-256
    of each file the subcommand added to paths (keyed by the path, or a file
    inside the package by sivcav/<its path there>), its results (with the
    fit's convergence flag and record, if it fitted), its --seed and
    provenance. Exit 3 when the fit did not converge."""
    paths = []
    outcome = args.func(args, paths)
    results = outcome.results
    if outcome.fit is not None:
        results = {**results, "converged": {"value": outcome.fit.converged, "units": "flag"},
                   "fit": {"value": outcome.fit.to_dict(), "units": "json"}}
    flags = {key: value for key, value in vars(args).items() if not callable(value)}
    files = {_file_key(path): report.file_sha256(path) for path in paths}
    doc = report.build_report(
        args.func.__name__[len("cmd_"):].replace("_", "-"), {"flags": flags, "files": files},
        results, seed=getattr(args, "seed", None), extra_provenance=outcome.provenance,
    )
    report.emit_report(doc, args.out, outcome.summary)
    return NONCONVERGED_EXIT if outcome.fit is not None and not outcome.fit.converged else 0


def _file_key(path):
    """The inputs.files key of path: sivcav/<its path there> for a file
    inside the package, the path as given for any other."""
    real = Path(path).resolve()
    return f"sivcav/{real.relative_to(_PACKAGE).as_posix()}" if real.is_relative_to(_PACKAGE) else path


class _UsageError(Exception):
    pass


def _flag(parse, *args):
    """An argparse type that parses a flag's text by parse(text, *args),
    whose ValueError becomes a usage error naming the flag."""

    def convert(text):
        try:
            return parse(text, *args)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return convert


@_flag
def _peaks(text):
    """--peaks: each entry a center, or a center:fwhm:amp triple."""
    entries = [parse_floats(item, (1, 3), ":") for item in text.split(",")]
    return [entry if len(entry) == 3 else entry[0] for entry in entries]


@_flag
def _seeds(text):
    """--seeds: {label: (center, fwhm)} of label=center:fwhm entries."""
    seeds = {}
    for item in text.split(","):
        label, eq, peak = item.partition("=")
        label = label.strip()
        if not eq:
            raise ValueError(f"{item!r} is not label=center:fwhm")
        if label in seeds:
            raise ValueError(f"seed label {label!r} appears twice")
        seeds[label] = parse_floats(peak, (2,), ":", key=label)
    return seeds


def _scenario_flags(doc):
    """The flags of a scenario document, a list of strings."""
    flags = doc["flags"]
    if not (isinstance(flags, list) and all(isinstance(flag, str) for flag in flags)):
        raise ValueError("'flags' must be a list of strings")
    return flags


def _parse(argv):
    """The args of argv. A purcell --scenario parses again with the
    scenario's flags placed before the flags given, so that a flag given
    wins; a path that follows --budget or --fieldmap in a scenario is
    relative to the scenarios directory."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "scenario", None):
        return args
    path = _SCENARIOS / f"{args.scenario}.json"
    if not path.is_file():
        available = sorted(p.stem for p in _SCENARIOS.glob("*.json"))
        raise DomainError(f"unknown scenario {args.scenario!r}; available: {', '.join(available)}")
    flags = read_document(path, _scenario_flags)
    flags = [str(_SCENARIOS / flag) if given in ("--budget", "--fieldmap") else flag
             for given, flag in zip([None, *flags], flags)]
    try:
        return parser.parse_args([argv[0], *flags, *argv[1:]])
    except _UsageError as err:  # the flags given parsed alone: the fault is the scenario's
        raise InputFormatError(path, 0, str(err)) from None


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error instead of exiting, so that main reports it
    as error JSON like every other input error."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="sivcav",
        description="Emitter-cavity coupling analysis: Purcell rates, photon "
        "statistics simulation, g2/spectral/polarization fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("purcell", help="Purcell chain and modified rate budgets")
    p.add_argument("--scenario", help="bundled scenario name (siv1, siv3, siv4); a flag given with it wins")
    p.add_argument("--q", type=float, help="mode quality factor")
    p.add_argument("--vmode", type=float, help="mode volume in (lambda/n)^3")
    p.add_argument("--lambda-c", type=float, help="mode wavelength, nm")
    p.add_argument("--lambda-i", type=float, help="emitter wavelength, nm")
    p.add_argument("--line-width", type=float, help="emitter linewidth, nm (default 0)")
    p.add_argument("--dipole", type=_flag(parse_floats, (3,)), help="dipole axis x,y,z; with --field-axis")
    p.add_argument("--field-axis", type=_flag(parse_floats, (3,)), help="cavity field axis x,y,z; with --dipole")
    p.add_argument("--fieldmap", help="field map CSV")
    p.add_argument("--pos", type=_flag(parse_floats, (2,)), help="emitter position x,y in the map frame, nm")
    p.add_argument("--f-phc", type=float, default=None, help="bandgap inhibition factor")
    p.add_argument("--budget", help="RadiativeBudget JSON file")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_purcell)

    p = sub.add_parser("simulate", help="simulate a detected photon stream")
    p.add_argument("--rates", type=_flag(parse_floats, (4,)), required=True, help="k12,k21,k23,k31 in Hz")
    p.add_argument("--duration", type=float, required=True, help="acquisition time, s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.0, help="detector timing jitter sigma, s")
    p.add_argument("--det-eff", type=float, default=1.0, help="detection efficiency in [0, 1]; 0 warns and records no photons")
    p.add_argument("--budget", help="RadiativeBudget JSON controlling the emission split")
    p.add_argument("--out-stream", required=True, help="photon stream CSV to write")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("g2", help="correlation analysis")
    gsub = p.add_subparsers(dest="g2_command", required=True)

    g = gsub.add_parser("fit", help="fit the two-exponential model to a histogram CSV")
    g.add_argument("--hist", required=True, help="CSV with tau_s,g2[,sigma]")
    g.add_argument("--irf", type=float, default=None, help="Gaussian kernel width on the delay axis, s")
    g.add_argument("--init", type=_flag(parse_floats, (3,)), help="a,tau1_s,tau2_s initial guess")
    g.add_argument("--out")
    g.set_defaults(func=cmd_g2_fit)

    g = gsub.add_parser("correlate", help="histogram a photon stream")
    g.add_argument("--stream", required=True, help="photon stream CSV")
    g.add_argument("--bin-width", type=float, required=True, help="bin width, s")
    g.add_argument("--window", type=float, required=True, help="maximum |delay|, s")
    g.add_argument("--mode", choices=[montecarlo.MODE_FULL, montecarlo.MODE_START_STOP],
                   default=montecarlo.MODE_FULL)
    g.add_argument("--seed", type=int, help="seed for the start-stop splitter (default 0)")
    g.add_argument("--out-hist", required=True, help="histogram CSV to write")
    g.add_argument("--out")
    g.set_defaults(func=cmd_g2_correlate)

    g = gsub.add_parser("sweep", help="zero-power extrapolation of a power sweep CSV")
    g.add_argument("--sweep", required=True, help="CSV with power_mW,tau1_ns,tau2_ns,a")
    g.add_argument("--out")
    g.set_defaults(func=cmd_g2_sweep)

    p = sub.add_parser("spectra", help="spectral and polarization analysis")
    ssub = p.add_subparsers(dest="spectra_command", required=True)

    s = ssub.add_parser("fit", help="multi-Lorentzian peak fit of a spectrum CSV")
    s.add_argument("--spectrum", required=True)
    s.add_argument("--peaks", type=_peaks, required=True,
                   help="initial peaks: center[,center...] or center:fwhm:amp entries")
    s.add_argument("--poisson", action="store_true", help="use sqrt(N) count weighting")
    s.add_argument("--out")
    s.set_defaults(func=cmd_spectra_fit)

    s = ssub.add_parser("track", help="track modes across a tuning manifest")
    s.add_argument("--manifest", required=True, help="tuning manifest JSON")
    s.add_argument("--seeds", type=_seeds, required=True, help="label=center:fwhm[,...] at the first step")
    s.add_argument("--emit-curves", help="write per-step track CSV here")
    s.add_argument("--out")
    s.set_defaults(func=cmd_spectra_track)

    s = ssub.add_parser("enhance", help="on/off-resonance line enhancement from a manifest")
    s.add_argument("--manifest", required=True)
    s.add_argument("--seeds", type=_seeds, required=True)
    s.add_argument("--lambda-i", type=float, required=True, help="emitter line wavelength, nm")
    s.add_argument("--line-width", type=float, default=0.0)
    s.add_argument("--modes", type=methodcaller("split", ","), help="comma-separated track labels to treat as tuning modes")
    s.add_argument("--out")
    s.set_defaults(func=cmd_spectra_enhance)

    s = ssub.add_parser("polarization", help="cos^2 scan fit or mixture-model sweep")
    given = s.add_mutually_exclusive_group(required=True)
    given.add_argument("--scan", help="CSV with angle_deg,counts")
    given.add_argument("--mixture", help="mixture model JSON")
    s.add_argument("--emit-curves", help="write the mixture sweep CSV here")
    s.add_argument("--out")
    s.set_defaults(func=cmd_spectra_polarization)

    return parser


def main(argv=None) -> int:
    try:
        return _run(_parse(sys.argv[1:] if argv is None else list(argv)))
    except _UsageError as err:
        return report.emit_error("usage", str(err))
    except ValidationError as err:
        return report.emit_error("validation", str(err), err.violations)
    except InputFormatError as err:
        return report.emit_error("input-format", str(err))
    except DomainError as err:
        return report.emit_error("domain", str(err))
    except RankDeficiencyError as err:
        return report.emit_error("rank-deficiency", str(err))
    except FileNotFoundError as err:
        return report.emit_error("missing-file", str(err))
    except OSError as err:
        return report.emit_error("io", str(err))
    except (KeyError, TypeError, ValueError) as err:
        return report.emit_error("input-format", f"malformed input document: {err!r}")


def entry():  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
