"""Closed forms and seeded ground truth for the benchmark checks.

Nothing here imports sivcav: every check compares the program's output with
a value computed in this module, from the three-level algebra below or from
the parameters the input generators drew.

Three-level system (ground |1>, excited |2>, shelf |3>) with pump k12, decay
k21, shelving k23 and deshelving k31. The relaxation eigenvalues of the rate
matrix are the roots of lambda^2 + S lambda + P with

    S = k12 + k21 + k23 + k31
    P = k12 k23 + k12 k31 + k21 k31 + k23 k31

and g2(tau) = 1 - (1 + a) exp(-|tau|/tau1) + a exp(-|tau|/tau2) with
tau1 = -1/lambda_fast, tau2 = -1/lambda_slow and

    p2 = 1 / (1 + (k21 + k23)/k12 + k23/k31)
    a  = (k12/p2 + lambda_fast) / (lambda_slow - lambda_fast),

the slope condition g2'(0) = k12/p2. With Q = k12/p2 = S - k31 + k12 k23/k31
and lambda_slow - lambda_fast = sqrt(S^2 - 4P), the numerator equals
(Q (k12 k23 - k31^2)/k31 + P) / (Q + lambda_slow), which g2_params uses: it
has no cancellation between Q and lambda_fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

README_RATES = (100e6, 2e9, 0.3e9, 50e6)  # k12, k21, k23, k31 in Hz

# SiV budget of the paper (zpl, psb, nr channel rates, Hz) and the photonic
# factors of the lifetime pipeline: cavity F_cav on the ZPL, bandgap f_phc
SIV4_CHANNELS = (1.0 / 1.44e-9, 1.0 / 5.75e-9, 1.0 / 583e-12)
F_CAV = 5.15
F_PHC = 0.25
LIFETIME_K12 = 50e6
LIFETIME_K23 = 0.318e9
LIFETIME_K31 = 50e6
LIFETIME_RATIO_TARGET = 180.0 / 445.0

SWEEP_POWERS = (0.15, 0.35, 0.65, 1.0, 1.5, 2.2)  # mW
SWEEP_NOISE = 0.01

SPECTRUM_WL = (720.0, 790.0, 1400)  # nm start, stop, points
LINE_NM = 739.9
LINE_FWHM = 0.35
MODE_FWHM = 2.3
STEP_NM = 1.6
N_STEPS = 12
SPECTRUM_BASE = 50.0  # counts per point
MODE_AMP = 800.0
LINE_AMP_OFF = 300.0
TRACK_TOL_NM = 0.5
RATE_TOL = 0.05  # nm/step
ENHANCEMENT_TOL = 0.05


def _sum_product(k12, k21, k23, k31):
    s = k12 + k21 + k23 + k31
    return s, k12 * k23 + k12 * k31 + k21 * k31 + k23 * k31


def p2_steady(k12, k21, k23, k31):
    return 1.0 / (1.0 + (k21 + k23) / k12 + k23 / k31)


def g2_params(k12, k21, k23, k31):
    """(tau1, tau2, a) of the two-exponential g2 implied by a rate set."""
    s, p = _sum_product(k12, k21, k23, k31)
    root = math.sqrt(s * s - 4.0 * p)
    lam_fast = -0.5 * (s + root)
    lam_slow = p / lam_fast  # Vieta; avoids the cancellation in -S + root
    q = s - k31 + k12 * k23 / k31
    a = (q * (k12 * k23 - k31 * k31) / k31 + p) / ((q + lam_slow) * root)
    return -1.0 / lam_fast, -1.0 / lam_slow, a


def g2(tau, tau1, tau2, a):
    at = np.abs(np.asarray(tau, dtype=float))
    return 1.0 - (1.0 + a) * np.exp(-at / tau1) + a * np.exp(-at / tau2)


def detected_rate(rates, eta_qe, det_eff):
    """det_eff * eta_qe * k21 * p2: mean detected photon rate, cps."""
    return det_eff * eta_qe * rates[1] * p2_steady(*rates)


def lorentzian(x, center, fwhm, amplitude):
    hw = 0.5 * fwhm
    return amplitude * hw * hw / ((np.asarray(x, dtype=float) - center) ** 2 + hw * hw)


def rel_err(value, truth):
    return abs(value - truth) / abs(truth)


# --- lifetime pipeline ----------------------------------------------------------


@dataclass(frozen=True)
class Emitter:
    """Channel rates (zpl, psb, nr) in one photonic environment, and the
    three-level rates whose decay k21 is their sum."""

    label: str
    zpl: float
    psb: float
    nr: float

    @property
    def total(self):
        return self.zpl + self.psb + self.nr

    @property
    def eta_qe(self):
        return (self.zpl + self.psb) / self.total

    @property
    def rates(self):
        return (LIFETIME_K12, self.total, LIFETIME_K23, LIFETIME_K31)


def lifetime_emitters():
    """On resonance (cavity on the ZPL, bandgap on the PSB) and off
    resonance (bandgap on both radiative channels)."""
    zpl, psb, nr = SIV4_CHANNELS
    return (
        Emitter("on", F_CAV * zpl, F_PHC * psb, nr),
        Emitter("off", F_PHC * zpl, F_PHC * psb, nr),
    )


# --- power sweeps -----------------------------------------------------------------


@dataclass(frozen=True)
class SweepCase:
    """One random rate set of the round-trip criterion, its pump
    cross-section, and the noise added to each power's g2 curve."""

    k21: float
    k23: float
    k31: float
    sigma: float
    noise: np.ndarray  # (powers, 110) standard normals times SWEEP_NOISE

    def rates_at(self, power):
        return (self.sigma * power, self.k21, self.k23, self.k31)


def sweep_grid(tau1, tau2):
    """Delay grid of the round trip: 40 linear points below 8 tau1, 70
    geometric points up to 15 tau2."""
    return np.unique(
        np.concatenate(
            [
                np.linspace(0.0, 8.0 * tau1, 40, endpoint=False),
                np.geomspace(8.0 * tau1, 15.0 * tau2, 70),
            ]
        )
    )


def sweep_cases(rng, n):
    cases = []
    for _ in range(n):
        k21 = rng.uniform(1e9, 4e9)
        k23 = k21 * rng.uniform(0.10, 0.35)
        k31 = k21 * rng.uniform(0.02, 0.08)
        sigma = k21 * rng.uniform(0.3, 0.8)
        noise = rng.normal(0.0, SWEEP_NOISE, (len(SWEEP_POWERS), 110))
        cases.append(SweepCase(k21, k23, k31, sigma, noise))
    return cases


# --- tuning series --------------------------------------------------------------------


@dataclass(frozen=True)
class TuningCase:
    """A digital-etching series: one cavity mode blue-shifting through the
    emitter line, whose amplitude rises on resonance by ``ratio``."""

    generator_seed: int
    wavelengths: np.ndarray
    counts: np.ndarray  # (steps, points), Poisson draws
    mode_centers: np.ndarray
    line_amplitudes: np.ndarray
    on_step: int
    off_step: int

    @property
    def ratio(self):
        return float(self.line_amplitudes[self.on_step] / self.line_amplitudes[self.off_step])

    @property
    def rate(self):
        return -STEP_NM


def tuning_case(generator_seed):
    """Series drawn from numpy's PCG64 seeded with ``generator_seed``: the
    resonance step, the offset of the crossing and the enhancement factor,
    then Poisson shot noise on every point."""
    rng = np.random.default_rng(generator_seed)
    k_on = int(rng.integers(4, 8))
    offset = rng.uniform(-0.5, 0.5)
    factor = rng.uniform(3.0, 6.0)
    centers = LINE_NM + offset + STEP_NM * (k_on - np.arange(N_STEPS))
    detuning = np.abs(centers - LINE_NM)
    on_step, off_step = int(np.argmin(detuning)), int(np.argmax(detuning))
    # the line follows the mode's Lorentzian overlap, scaled to give exactly
    # `factor` between the on and off steps
    overlap = 1.0 / (1.0 + (2.0 * detuning / MODE_FWHM) ** 2)
    w = (overlap - overlap[off_step]) / (overlap[on_step] - overlap[off_step])
    amps = LINE_AMP_OFF * (1.0 + (factor - 1.0) * w)
    wl = np.linspace(*SPECTRUM_WL)
    expected = (
        SPECTRUM_BASE
        + lorentzian(wl[None, :], centers[:, None], MODE_FWHM, MODE_AMP)
        + lorentzian(wl[None, :], LINE_NM, LINE_FWHM, amps[:, None])
    )
    counts = rng.poisson(expected).astype(float)
    return TuningCase(generator_seed, wl, counts, centers, amps, on_step, off_step)


def _lorentzian_grads(x, center, fwhm, amplitude):
    """Derivatives of lorentzian() by (amplitude, center, fwhm)."""
    hw = 0.5 * fwhm
    d = x - center
    den = d * d + hw * hw
    return [hw * hw / den, amplitude * hw * hw * 2.0 * d / den**2, amplitude * hw * d * d / den**2]


def line_area_rel_sigma(case, step, with_mode):
    """Shot-noise floor on the fitted line area (amplitude x fwhm) at one
    step: the Cramer-Rao bound from the Fisher information of Poisson
    counts, over the window the enhancement estimate fits (8 line widths on
    each side, widened to 2 mode widths when the mode is fitted with it)."""
    wl = case.wavelengths
    half = max(8.0 * LINE_FWHM, 2.0 * MODE_FWHM) if with_mode else 8.0 * LINE_FWHM
    x = wl[np.abs(wl - LINE_NM) <= half]
    amp = case.line_amplitudes[step]
    center = case.mode_centers[step]
    mu = SPECTRUM_BASE + lorentzian(x, center, MODE_FWHM, MODE_AMP) + lorentzian(x, LINE_NM, LINE_FWHM, amp)
    cols = _lorentzian_grads(x, LINE_NM, LINE_FWHM, amp) + [np.ones_like(x)]
    if with_mode:
        cols += _lorentzian_grads(x, center, MODE_FWHM, MODE_AMP)
    jac = np.stack(cols, axis=1)
    cov = np.linalg.inv(jac.T @ (jac / mu[:, None]))
    grad = np.zeros(jac.shape[1])
    grad[0], grad[2] = LINE_FWHM, amp
    return math.sqrt(grad @ cov @ grad) / (amp * LINE_FWHM)


def enhancement_tolerance(case):
    """ENHANCEMENT_TOL plus three shot-noise standard errors of the on/off
    area ratio: at these counts Poisson noise alone moves the ratio by a
    few percent, which a fixed 5 % cannot absorb."""
    rel = math.hypot(
        line_area_rel_sigma(case, case.on_step, True),
        line_area_rel_sigma(case, case.off_step, False),
    )
    return ENHANCEMENT_TOL + 3.0 * rel
