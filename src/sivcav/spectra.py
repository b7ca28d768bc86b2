"""Spectral bookkeeping across cavity-tuning steps and polarization mixing.

Digital etching blue-shifts the cavity modes step by step; this module tracks
labeled modes through a series of PL spectra by one joint Lorentzian fit per
step, each track's component seeded where the track predicts it (its last
center advanced by its mean shift per step) and kept within three previous
linewidths of that prediction. It extracts on/off-resonance
intensity-enhancement ratios and evaluates the phenomenological
polarization-mixing model: an incoherent sum of cos^2 intensity channels,
each cavity channel weighted by its Lorentzian spectral overlap with the
emitter line, whose argmax angle follows from the Stokes vector of the
summed components.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import fitting, purcell
from ._table import read_columns, read_document, write_table
from .errors import DomainError, RankDeficiencyError
from .models import (
    EmitterLine,
    PLSpectrum,
    PolarizationScan,
    _floats,
    _number,
    _numbers,
    _raise_if,
)

ASSOCIATION_FWHM = 3.0  # a fitted center further than this many previous fwhms ends the track


@dataclass(frozen=True)
class PolarizedChannel:
    """One linearly polarized intensity channel: angle (deg) and weight."""

    angle: float
    weight: float

    def __post_init__(self):
        bag = []
        _floats(self, bag, angle="be finite", weight="be non-negative")
        _raise_if(bag)


@dataclass(frozen=True)
class TrackPoint:
    step: int
    center: float
    fwhm: float


@dataclass(frozen=True, eq=False)
class ModeTrack:
    """Per-step fitted center/fwhm of one tracked mode.

    ``terminated_at`` records the first step whose fit lost the mode (see
    ``track_modes``); ``non_monotonic_steps`` flags steps where the
    center moved to the red in a blue-tuning series (flagged, never
    rejected).
    """

    label: str
    points: tuple[TrackPoint, ...]
    terminated_at: int | None = None
    non_monotonic_steps: tuple[int, ...] = ()

    @property
    def centers(self):
        return np.array([p.center for p in self.points])

    @property
    def steps(self):
        return np.array([p.step for p in self.points])

    def tuning_rate(self) -> float:
        """Mean center shift per step (negative for blue tuning), nm/step."""
        if len(self.points) < 2:
            raise DomainError(f"mode {self.label!r} has fewer than 2 tracked steps")
        steps = self.steps.astype(float)
        return float(np.mean(np.diff(self.centers) / np.diff(steps)))


@dataclass(frozen=True, eq=False)
class TuningSeries:
    """A tuning run: (step_index, spectrum) pairs plus per-mode tracks."""

    steps: tuple
    tracked_modes: dict

    def __post_init__(self):
        bag = []
        steps = tuple(self.steps)
        indices = [s for s, _ in steps]
        if any(not isinstance(spec, PLSpectrum) for _, spec in steps):
            bag.append("steps must hold PLSpectrum instances")
        if indices != sorted(indices) or len(set(indices)) != len(indices):
            bag.append("step indices must be strictly increasing")
        _raise_if(bag)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "tracked_modes", dict(self.tracked_modes))

    def spectrum(self, step: int) -> PLSpectrum:
        for s, spec in self.steps:
            if s == step:
                return spec
        raise DomainError(f"no spectrum for step {step}")


@dataclass(frozen=True)
class EnhancementResult:
    ratio: float
    on_step: int
    off_step: int


def track_modes(steps, seed_peaks) -> TuningSeries:
    """Track labeled modes through a series of spectra.

    steps      : sequence of (step_index, PLSpectrum), indices increasing
    seed_peaks : {label: (center_nm, fwhm_nm)} at the first step

    Each step is one joint multi-Lorentzian fit with one component per
    active track, seeded at the track's prediction: its previous center
    advanced by its mean shift per step so far, and its previous fwhm. A
    track keeps its component when the fit converged, the amplitude is
    positive, the fwhm spans at least two samples and the center lies within
    ASSOCIATION_FWHM previous fwhms of the prediction; otherwise the
    track is terminated at that step, never an exception.
    """
    steps = sorted(((int(s), spec) for s, spec in steps), key=lambda pair: pair[0])
    if not steps:
        raise DomainError("no spectra supplied")
    series = TuningSeries(steps, {})  # checks the steps before any fit
    if not seed_peaks:
        raise DomainError("no seed peaks supplied")

    state = {
        label: {
            "center": _number(f"seed {label!r} center", c),
            "fwhm": _number(f"seed {label!r} fwhm", w, "be positive"),
            "points": [],
            "terminated": None,
            "flags": [],
        }
        for label, (c, w) in seed_peaks.items()
    }

    for step_index, spectrum in series.steps:
        active = [st for st in state.values() if st["terminated"] is None]
        if not active:
            break
        wl = spectrum.wavelengths
        min_fwhm = 2.0 * float(np.median(np.diff(wl)))  # two samples
        predicted = []
        for st in active:
            points, rate = st["points"], 0.0
            if len(points) >= 2:
                rate = (points[-1].center - points[0].center) / (points[-1].step - points[0].step)
            predicted.append(st["center"] + rate * (step_index - points[-1].step if points else 0))
        inits = [(min(max(c, wl[0]), wl[-1]), st["fwhm"], None) for st, c in zip(active, predicted)]
        try:
            fit = fitting.fit_lorentzians(spectrum, len(inits), inits)
        except (DomainError, RankDeficiencyError):
            fit = None
        for k, (st, prediction) in enumerate(zip(active, predicted), start=1):
            kept = (
                fit is not None
                and fit.converged
                and fit[f"amplitude_{k}"] > 0
                and fit[f"fwhm_{k}"] >= min_fwhm
                and abs(fit[f"center_{k}"] - prediction) <= ASSOCIATION_FWHM * st["fwhm"]
            )
            if not kept:
                st["terminated"] = step_index
                continue
            center, fwhm = fit[f"center_{k}"], fit[f"fwhm_{k}"]
            if st["points"] and center > st["points"][-1].center:
                st["flags"].append(step_index)
            st["points"].append(TrackPoint(step_index, center, fwhm))
            st["center"] = center
            st["fwhm"] = fwhm

    tracks = {
        lbl: ModeTrack(lbl, tuple(st["points"]), st["terminated"], tuple(st["flags"]))
        for lbl, st in state.items()
    }
    return replace(series, tracked_modes=tracks)


def _fit_line_area(series: TuningSeries, step: int, line: EmitterLine, mode_tracks) -> float:
    """Background-subtracted Lorentzian area of the emitter line in a step.

    Every supplied mode track present at the step is fitted jointly as a
    Lorentzian of its own, over a window wide enough to hold it and two of
    its widths beyond, so a mode's tail does not curve the baseline under the
    line; the line component keeps its identity through the initialization
    order. Only the supplied mode tracks contribute companion components (the
    line's own track, if any, is the line).
    """
    spectrum = series.spectrum(step)
    wl = spectrum.wavelengths
    line_fwhm = max(line.linewidth, 2.0 * float(np.median(np.diff(wl))))
    half_window = 8.0 * line_fwhm
    inits = [(line.lambda_i, line_fwhm, None)]
    for track in mode_tracks.values():
        for point in track.points:
            if point.step == step:
                inits.append((point.center, point.fwhm, None))
                half_window = max(half_window, abs(point.center - line.lambda_i) + 2.0 * point.fwhm)
    sel = (wl >= line.lambda_i - half_window) & (wl <= line.lambda_i + half_window)
    if sel.sum() < 6 + 3 * len(inits):
        raise DomainError(f"too few points around {line.lambda_i} nm in step {step}")
    window = PLSpectrum(wl[sel], spectrum.intensities[sel])
    clipped = [(min(max(c, window.wavelengths[0]), window.wavelengths[-1]), w, a) for c, w, a in inits]
    fit = fitting.fit_lorentzians(window, len(clipped), clipped)
    if not fit.converged:
        raise DomainError(f"emitter line unresolvable in step {step}: fit did not converge")
    amplitude = fit["amplitude_1"]
    if amplitude <= 0:
        raise DomainError(f"emitter line unresolvable in step {step}: non-positive amplitude")
    return amplitude * fit["fwhm_1"]  # proportional to the Lorentzian area; the fit's bounds keep the fwhm positive


def enhancement_ratio(
    series: TuningSeries, line: EmitterLine, mode_labels=None
) -> EnhancementResult:
    """On/off-resonance ratio of the fitted emitter-line areas.

    The on step minimizes the detuning of the nearest tracked cavity mode to
    the line; the off step maximizes it. ``mode_labels`` restricts which
    tracks count as tuning modes; by default a track counts when its centers
    span more than its median fwhm, so a stationary track (the emitter's own
    peak, if tracked) is excluded automatically. Peak areas are
    baseline-subtracted by construction (the Lorentzian fits include a
    constant background).
    """
    tracks = series.tracked_modes
    if mode_labels is not None:
        missing = [lbl for lbl in mode_labels if lbl not in tracks]
        if missing:
            raise DomainError(f"unknown mode labels: {missing}")
        tracks = {lbl: tracks[lbl] for lbl in mode_labels}
    else:
        tracks = {
            lbl: tr
            for lbl, tr in tracks.items()
            if tr.points and np.ptp(tr.centers) > np.median([p.fwhm for p in tr.points])
        }
    if not tracks:
        raise DomainError("no tuning-mode tracks to select on/off steps from")
    detuning_by_step = {}
    for step, _ in series.steps:
        dists = [
            abs(point.center - line.lambda_i)
            for track in tracks.values()
            for point in track.points
            if point.step == step
        ]
        if dists:
            detuning_by_step[step] = min(dists)
    if len(detuning_by_step) < 2:
        raise DomainError("need tracked modes in at least two steps")
    on_step = min(detuning_by_step, key=detuning_by_step.get)
    off_step = max(detuning_by_step, key=detuning_by_step.get)
    on_area = _fit_line_area(series, on_step, line, tracks)
    off_area = _fit_line_area(series, off_step, line, tracks)
    return EnhancementResult(on_area / off_area, on_step, off_step)


def polarization_mixture(
    emitter: PolarizedChannel,
    modes,
    line_lambda: float,
    detunings,
) -> np.ndarray:
    """Effective polarization angle of the summed emission versus detuning.

    The total polar pattern at a common mode shift d is

        I(phi; d) = w_e cos^2(phi - phi_e)
                    + sum_k w_k R_lambda(mode_k shifted by d) cos^2(phi - phi_k)

    an incoherent intensity sum (no interference terms). Its argmax angle is
    half the phase of the Stokes vector sum of the components. Returns the
    angle (degrees, folded into (-90, 90]) for every detuning. Raises
    DomainError when the pattern is isotropic or all weights vanish.
    """
    modes = list(modes)
    if not modes:
        raise DomainError("need at least one cavity mode channel")
    detunings = np.atleast_1d(_numbers("detunings", detunings))
    line = EmitterLine(line_lambda)
    angles = np.empty(detunings.size)
    for i, d in enumerate(detunings):
        weights = [emitter.weight]
        channel_angles = [emitter.angle]
        for channel, mode in modes:
            shifted = replace(mode, lambda_c=mode.lambda_c + d)
            weights.append(channel.weight * purcell.spectral_overlap(line, shifted))
            channel_angles.append(channel.angle)
        total = float(np.sum(weights))
        if total <= 0.0:
            raise DomainError("all polarization weights vanish")
        two_phi = np.radians(2.0 * np.asarray(channel_angles))
        s1 = float(np.dot(weights, np.cos(two_phi)))
        s2 = float(np.dot(weights, np.sin(two_phi)))
        if math.hypot(s1, s2) < 1e-12 * total:
            raise DomainError(
                f"polar pattern is isotropic at detuning {d}: no effective angle"
            )
        angles[i] = fitting.fold_angle(math.degrees(0.5 * math.atan2(s2, s1)))
    return angles


# --- file formats -------------------------------------------------------------
#
# Spectrum CSV: rows 'wavelength_nm,counts' with optional '#' comments.
# Tuning manifest JSON: {"steps": [{"index": 0, "file": "step00.csv"}, ...]},
# file paths relative to the manifest location.


def save_spectrum(spectrum: PLSpectrum, path):
    write_table(path, ["wavelength_nm,counts"], spectrum.wavelengths, spectrum.intensities)


def load_spectrum(path) -> PLSpectrum:
    return read_columns(path, (2,), "expected 'wavelength_nm,counts'", PLSpectrum)


def load_polarization_scan(path) -> PolarizationScan:
    """Load an analyzer scan CSV with columns angle_deg,counts."""
    return read_columns(path, (2,), "expected 'angle_deg,counts'", PolarizationScan)


def _manifest_steps(doc):
    try:
        steps = [(int(entry["index"]), os.fspath(entry["file"])) for entry in doc["steps"]]
    except (TypeError, KeyError):
        raise ValueError("manifest must be an object with a 'steps' list whose "
                         "entries have 'index' and 'file'") from None
    if not steps:
        raise ValueError("manifest lists no steps")
    return steps


def load_manifest(path, load=load_spectrum):
    """Load a tuning manifest; returns a list of (step_index, load(spectrum path))."""
    base = os.path.dirname(os.path.abspath(path))
    return [(index, load(os.path.join(base, rel)))
            for index, rel in read_document(path, _manifest_steps)]
