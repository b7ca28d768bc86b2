"""Three-level population dynamics and intensity-correlation predictions.

States are (|1> ground, |2> excited, |3> shelved) with pump k12, total decay
k21, shelving k23 and deshelving k31. The column-stochastic generator G acts
on the population vector p as dp/dt = G p. The normalized intensity
correlation is the conditional excited-state population after a detection,

    g2(tau) = p2(tau | p(0) = e1) / p2(steady state),

always computed from the generator spectrum (matrix exponential fallback for
degenerate eigenvalues), never from a hand-derived closed form. For distinct
relaxation eigenvalues the spectral decomposition is exactly the
two-exponential form held by G2Params.

The spectrum is computed stacked over pump powers: the generators of all
powers go through one eigendecomposition and one steady-state solve, and a
single rate set is the size-1 case. Each power keeps its own validity checks,
so a power without a two-exponential form never fails the others.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import (
    DegenerateEigenvaluesWarning,
    DomainError,
    InfeasibleMeasurementError,
    InputFormatError,
    ValidationError,
)
from .models import (
    G2Curve,
    G2Params,
    SaturationCurve,
    ThreeLevelRates,
    _check_finite,
    _check_finite_array,
    _raise_if,
)
from . import fitting
from ._table import read_table, write_table

DEGENERACY_RTOL = 1e-6


@dataclass(frozen=True)
class PumpModel:
    """Linear pump law k12 = sigma * P with sigma in Hz per mW."""

    sigma: float

    UNITS: ClassVar[str] = "Hz/mW"

    def __post_init__(self):
        bag = []
        s = _check_finite(bag, "sigma", self.sigma)
        if s <= 0:
            bag.append("sigma must be positive")
        _raise_if(bag)
        object.__setattr__(self, "sigma", s)

    def k12(self, power_mw):
        return self.sigma * np.asarray(power_mw, dtype=float)

    def p_sat(self, rates: ThreeLevelRates) -> float:
        """Saturation power (mW): excited population reaches half its
        infinite-power limit at k12 = (k21 + k23) k31 / (k31 + k23)."""
        return (rates.k21 + rates.k23) * rates.k31 / ((rates.k31 + rates.k23) * self.sigma)

    def to_dict(self):
        return {"sigma": self.sigma, "units": self.UNITS}

    @classmethod
    def from_dict(cls, doc):
        return cls(doc["sigma"])


@dataclass(frozen=True, eq=False)
class PowerSweep:
    """Fitted g2 parameters across excitation powers.

    ``params`` entries may be None at a power where the two relaxation
    eigenvalues are degenerate and no two-exponential form exists.
    """

    powers: np.ndarray
    params: tuple
    counts: np.ndarray | None = None

    def __post_init__(self):
        bag = []
        powers = _check_finite_array(bag, "powers", self.powers)
        if powers.ndim != 1:
            bag.append("powers must be 1-D")
        if powers.size and np.any(powers <= 0):
            bag.append("powers must be positive")
        if powers.size >= 2 and not np.all(np.diff(powers) > 0):
            bag.append("powers must be strictly increasing")
        params = tuple(self.params)
        if len(params) != powers.size:
            bag.append("params must align with powers")
        if any(p is not None and not isinstance(p, G2Params) for p in params):
            bag.append("params entries must be G2Params or None")
        counts = self.counts
        if counts is not None:
            counts = _check_finite_array(bag, "counts", counts)
            if counts.shape != powers.shape:
                bag.append("counts must align with powers")
        _raise_if(bag)
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "counts", counts)

    def __len__(self):
        return self.powers.size


@dataclass(frozen=True)
class ZeroPowerFit:
    """Result of extrapolating a power sweep to vanishing pump.

    tau1_zero = 1/(k21 + k23) is the zero-power antibunching time constant;
    k21 alone (held in ``rates``) is the decay rate subject to spontaneous-
    emission modification.
    """

    tau1_zero: float
    rates: ThreeLevelRates
    sigma: float
    fit: fitting.FitResult


def _generators(k12, k21, k23, k31) -> np.ndarray:
    """Generators stacked over an array of pump rates k12: shape k12.shape + (3, 3)."""
    k12 = np.asarray(k12, dtype=float)
    g = np.empty(k12.shape + (3, 3))
    g[...] = [[0.0, k21, k31], [0.0, -(k21 + k23), 0.0], [0.0, k23, -k31]]
    g[..., 0, 0] = -k12
    g[..., 1, 0] = k12
    return g


def generator(rates: ThreeLevelRates) -> np.ndarray:
    """Column-stochastic rate matrix G with dp/dt = G p for p = (p1, p2, p3)."""
    return _generators(rates.k12, rates.k21, rates.k23, rates.k31)


def _solve_e1(a):
    """x with a x = e1 for each matrix of a stack (..., 3, 3)."""
    # a one-column right-hand side per matrix means the same under every
    # numpy version's solve broadcasting rules
    b = np.zeros(a.shape[:-1] + (1,))
    b[..., 0, 0] = 1.0
    return np.linalg.solve(a, b)[..., 0]


def _steady_states(g):
    """Stationary populations of each generator in a stack (..., 3, 3)."""
    a = g.copy()
    a[..., 0, :] = 1.0  # replace one balance row by the normalization constraint
    p = np.maximum(_solve_e1(a), 0.0)
    return p / p.sum(axis=-1, keepdims=True)


def steady_state(rates: ThreeLevelRates) -> np.ndarray:
    """Stationary populations (p1, p2, p3): the normalized kernel of G."""
    return _steady_states(generator(rates))


def _pump_rates(rates: ThreeLevelRates, pump: PumpModel, powers) -> np.ndarray:
    """k12 = sigma * P per power; a k12 that ThreeLevelRates rejects raises
    its ValidationError, for the first such power."""
    k12 = pump.k12(powers)
    bad = np.flatnonzero(~(np.isfinite(k12) & (k12 >= 0.0)))
    if bad.size:
        replace(rates, k12=float(k12[bad[0]]))
    return k12


# reasons a stacked row has no usable spectrum, in the order the checks run
_VALID, _BAD_RATES, _NO_DYNAMICS, _COMPLEX, _NO_POPULATION, _NEGATIVE_A = range(6)
_REASONS = {
    _BAD_RATES: "rates must be finite with k12 >= 0, k21 > 0, k23 >= 0 and k31 > 0",
    _NO_DYNAMICS: "generator has no relaxation dynamics",
    _COMPLEX: (
        "complex relaxation eigenvalues: the rate set does not describe "
        "an incoherent three-level cascade (check the input rates)"
    ),
    _NO_POPULATION: "steady-state excited population vanishes (k12 = 0)",
    _NEGATIVE_A: "negative bunching amplitude a = {a:.3g} (unphysical input)",
}


class _Spectra(NamedTuple):
    """Relaxation spectra of generators stacked over pump rates, one row each.

    g2(t) = 1 + c_fast e^(lam_fast t) + c_slow e^(lam_slow t) with c_slow = a
    and c_fast = -(1 + a). ``a`` is the raw slow-mode amplitude and is NaN on
    rows that never reach the eigenvector solve (invalid or degenerate ones).
    ``invalid`` holds a reason code from _REASONS, _VALID where the row passed.
    """

    lam_fast: np.ndarray
    lam_slow: np.ndarray
    a: np.ndarray
    p2ss: np.ndarray
    degenerate: np.ndarray
    invalid: np.ndarray

    def raise_invalid(self, i):
        raise DomainError(_REASONS[self.invalid[i]].format(a=float(self.a[i])))


def _rows(mask):
    """Index of the True entries of mask: a view-making slice when all are."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _relaxation_spectra(k12, k21, k23, k31) -> _Spectra:
    """Spectra for an array of pump rates k12 with scalar k21, k23, k31.

    One stacked eig and two stacked solves; the row checks are those of the
    per-rate-set computation, in the same order. Rows that fail a check never
    reach a later solve, so one bad row cannot fail the whole stack.
    """
    k12 = np.array(k12, dtype=float, ndmin=1)
    n = k12.size
    values = np.full((4, n), np.nan)  # lam_fast, lam_slow, a, p2ss
    degenerate = np.zeros(n, dtype=bool)
    invalid = np.full(n, _BAD_RATES, dtype=np.int8)
    rates_ok = all(math.isfinite(k) for k in (k21, k23, k31)) and k21 > 0 and k23 >= 0 and k31 > 0
    rows = _rows(np.isfinite(k12) & (k12 >= 0.0) & rates_ok)

    g = _generators(k12[rows], k21, k23, k31)
    w, v = np.linalg.eig(g)
    scale = np.abs(w).max(axis=-1, initial=0.0)
    is_complex = np.abs(w.imag).max(axis=-1, initial=0.0) > 1e-9 * scale
    w, v = w.real, v.real
    order = np.argsort(np.abs(w), axis=-1)  # zero, slow, fast
    each = np.arange(w.shape[0])
    slow, fast = w[each, order[:, 1]], w[each, order[:, 2]]
    p2 = _steady_states(g)[:, 1]
    code = np.zeros(w.shape[0], dtype=np.int8)
    code[p2 <= 0.0] = _NO_POPULATION  # checks assigned last to first: the first failing one wins
    code[is_complex] = _COMPLEX
    code[scale == 0.0] = _NO_DYNAMICS
    deg = (code == _VALID) & (
        np.abs(fast - slow) <= DEGENERACY_RTOL * np.maximum(np.abs(fast), np.abs(slow))
    )

    solved = _rows((code == _VALID) & ~deg)
    v_solved = v[solved]
    alpha = _solve_e1(v_solved)
    k_slow = order[solved, 1]
    each = np.arange(k_slow.size)
    c_slow = np.full(w.shape[0], np.nan)
    c_slow[solved] = v_solved[each, 1, k_slow] * alpha[each, k_slow] / p2[solved]
    code[c_slow < -1e-9] = _NEGATIVE_A

    values[:, rows] = (fast, slow, c_slow, p2)
    degenerate[rows], invalid[rows] = deg, code
    return _Spectra(*values, degenerate, invalid)


def _relaxation_spectrum(rates: ThreeLevelRates):
    """Nonzero eigenvalues of G and the g2 expansion coefficients of one rate set.

    Returns (lam_fast, lam_slow, a, p2ss, degenerate), the size-1 case of
    _relaxation_spectra. A negative amplitude is returned, not rejected:
    only the two-exponential parametrization rejects it.
    """
    s = _relaxation_spectra(rates.k12, rates.k21, rates.k23, rates.k31)
    if s.invalid[0] not in (_VALID, _NEGATIVE_A):
        s.raise_invalid(0)
    return (
        float(s.lam_fast[0]), float(s.lam_slow[0]), float(s.a[0]),
        float(s.p2ss[0]), bool(s.degenerate[0]),
    )


def g2_analytic(rates: ThreeLevelRates, delays) -> G2Curve:
    """Normalized intensity correlation on a delay grid (any sign; |tau| is used).

    g2(0) = 0 exactly and g2 -> 1 at large delays. Computed from the
    eigendecomposition of the generator, with a matrix-exponential fallback
    when the relaxation eigenvalues are degenerate.
    """
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 1 or delays.size < 1:
        raise DomainError("delays must be a non-empty 1-D array")
    if delays.size >= 2 and not np.all(np.diff(delays) > 0):
        raise DomainError("delays must be strictly increasing")
    at = np.abs(delays)
    lam_fast, lam_slow, a, p2ss, degenerate = _relaxation_spectrum(rates)
    if not degenerate:
        # c_fast = -(1 + a) enforces the initial condition p2(0) = 0; the
        # grouping below keeps it exact in floating point at tau = 0
        e_fast = np.exp(lam_fast * at)
        e_slow = np.exp(lam_slow * at)
        values = (1.0 - e_fast) + a * (e_slow - e_fast)
    else:
        from scipy.linalg import expm  # this branch is its only user

        # p2(tau | p(0) = e1) is column 0, row 1 of exp(G tau)
        values = expm(generator(rates) * at[:, None, None])[:, 1, 0] / p2ss
    return G2Curve(delays, np.clip(values, 0.0, None))


def _g2_param_arrays(s: _Spectra):
    """Stacked two-exponential parameters, rows (tau1, tau2, a) by columns of
    powers, and a mask of the powers where they exist: False where
    g2_params_from_rates would return None or raise, including where
    G2Params would reject the values."""
    with np.errstate(divide="ignore"):
        params = np.array([-1.0 / s.lam_fast, -1.0 / s.lam_slow, s.a])
    params[2, params[2] <= 0.0] = 0.0  # also folds round-off negatives and -0.0
    ok = (
        (s.invalid == _VALID) & ~s.degenerate
        & np.isfinite(params).all(axis=0) & (params[:2] > 0.0).all(axis=0)
    )
    return params, ok


def _g2_params(s: _Spectra) -> list:
    """G2Params per row (None where degenerate, with a warning); raises the
    DomainError of the first invalid row."""
    params, _ = _g2_param_arrays(s)
    out = []
    for i in range(s.invalid.size):
        if s.invalid[i] != _VALID:
            s.raise_invalid(i)
        if s.degenerate[i]:
            warnings.warn(
                "relaxation eigenvalues are degenerate; no two-exponential "
                "parametrization exists (sample g2_analytic instead)",
                DegenerateEigenvaluesWarning,
                stacklevel=3,
            )
            out.append(None)
        else:
            out.append(G2Params(*(float(x) for x in params[:, i])))
    return out


def g2_params_from_rates(rates: ThreeLevelRates) -> G2Params | None:
    """Two-exponential parameters (tau1, tau2, a) implied by a rate set.

    tau1 = -1/lambda_fast, tau2 = -1/lambda_slow, and `a` is the slow-mode
    amplitude from the spectral decomposition, so the closed form matches
    g2_analytic pointwise. Returns None (with a DegenerateEigenvaluesWarning)
    when the eigenvalues are equal to within 1e-6 relative and the form does
    not exist; callers should fall back to sampling g2_analytic.
    """
    return _g2_params(_relaxation_spectra(rates.k12, rates.k21, rates.k23, rates.k31))[0]


def power_sweep(rates_at_unit_power: ThreeLevelRates, pump: PumpModel, powers) -> PowerSweep:
    """Predicted g2 parameters across powers with k12 = sigma * P.

    The k12 field of ``rates_at_unit_power`` is ignored; the pump model sets
    it per power.
    """
    powers = np.asarray(powers, dtype=float)
    if powers.size < 1 or np.any(powers <= 0):
        raise DomainError("powers must be positive")
    r = rates_at_unit_power
    s = _relaxation_spectra(_pump_rates(r, pump, powers), r.k21, r.k23, r.k31)
    return PowerSweep(powers, tuple(_g2_params(s)))


def _sweep_observables(powers, k21, k23, k31, sigma):
    """(tau1..., tau2..., a...) over powers; inf in every slot of a power
    without a two-exponential form, which rejects the parameter point."""
    params, ok = _g2_param_arrays(_relaxation_spectra(sigma * np.asarray(powers), k21, k23, k31))
    params[:, ~ok] = np.inf
    return params.ravel()


def extrapolate_zero_power(sweep: PowerSweep) -> ZeroPowerFit:
    """Fit (k21, k23, k31, sigma) to the observed (tau1, tau2, a) triples.

    Residuals are relative for the time constants and scaled by a floor for
    the bunching amplitude, so all three observables contribute comparably.
    Raises RankDeficiencyError naming the parameter when the sweep does not
    identify it.
    """
    usable = [(p, g) for p, g in zip(sweep.powers, sweep.params) if g is not None]
    if len(usable) < 3:
        raise DomainError("zero-power extrapolation needs at least 3 usable powers")
    powers = np.array([p for p, _ in usable])
    t1 = np.array([g.tau1 for _, g in usable])
    t2 = np.array([g.tau2 for _, g in usable])
    a = np.array([g.a for _, g in usable])

    # initial guesses: 1/tau1 is nearly linear in P; tau2 tracks 1/k31;
    # the bunching amplitude fixes k23 through a ~ k12 k23 / (k31 (k12+k21+k23))
    slope, intercept = np.polyfit(powers, 1.0 / t1, 1)
    intercept = max(intercept, 0.1 * float(np.median(1.0 / t1)))
    sigma0 = max(slope, 0.05 * intercept / float(np.median(powers)))
    k31_0 = 1.0 / float(np.median(t2))
    a_hi = float(a[-1])
    k12_hi = sigma0 * float(powers[-1])
    if a_hi > 1e-6 and k12_hi > 0:
        k23_0 = a_hi * k31_0 * (k12_hi + intercept) / k12_hi
        k23_0 = min(k23_0, 0.9 * intercept)
    else:
        k23_0 = 0.0
    k21_0 = max(intercept - k23_0, 0.1 * intercept)

    def model(_x, k21, k23, k31, sigma):
        return _sweep_observables(powers, k21, k23, k31, sigma)

    # the amplitude-based heuristic can land where the relaxation eigenvalues
    # turn complex; fall back to progressively blander starting points
    candidates = [
        (k21_0, k23_0, k31_0, sigma0),
        (0.9 * intercept, 0.1 * intercept, k31_0, sigma0),
        (intercept, 0.0, k31_0, sigma0),
    ]
    p0 = candidates[-1]
    for candidate in candidates:
        if np.all(np.isfinite(model(None, *candidate))):
            p0 = candidate
            break

    y = np.concatenate([t1, t2, a])
    a_floor = max(0.05, float(np.median(np.abs(a))))
    sig = np.concatenate([t1, t2, np.full_like(a, a_floor)])

    eps = 1e-6 * intercept
    fit = fitting.least_squares(
        model,
        powers,
        y,
        p0,
        sigma=sig,
        bounds=[(eps, None), (0.0, None), (eps, None), (eps, None)],
        names=("k21", "k23", "k31", "sigma"),
        scales=(intercept, intercept, k31_0, sigma0),
        jitter_retries=5,
    )
    k21, k23, k31, sigma = (float(v) for v in fit.values)
    rates = ThreeLevelRates(0.0, k21, k23, k31)
    return ZeroPowerFit(1.0 / (k21 + k23), rates, sigma, fit)


def saturation_curve(
    rates_at_unit_power: ThreeLevelRates,
    pump: PumpModel,
    collection_eff: float,
    powers,
    eta_qe: float = 1.0,
) -> SaturationCurve:
    """Detected count rate versus power,
    rate(P) = collection_eff * eta_qe * k21 * p2_steady(P)."""
    collection_eff = float(collection_eff)
    if not (0.0 < collection_eff <= 1.0):
        raise DomainError(f"collection_eff must lie in (0, 1], got {collection_eff}")
    if not (0.0 <= eta_qe <= 1.0):
        raise DomainError(f"eta_qe must lie in [0, 1], got {eta_qe}")
    powers = np.asarray(powers, dtype=float)
    r = rates_at_unit_power
    g = _generators(_pump_rates(r, pump, powers), r.k21, r.k23, r.k31)
    p2 = _steady_states(g)[..., 1]
    return SaturationCurve(powers, collection_eff * eta_qe * r.k21 * p2)


def qe_from_saturation(
    r_inf: float,
    p_sat: float,
    rates_fit: ThreeLevelRates,
    collection_eff: float,
) -> float:
    """Radiative quantum efficiency from a fitted saturation plateau.

    eta = R_inf / (collection_eff * k21 * p2_max) with p2_max the
    infinite-power excited population k31 / (k31 + k23). The fitted
    saturation power is carried along for reporting but does not enter the
    estimator. Values above 1.05 indicate an inconsistent calibration.
    """
    collection_eff = float(collection_eff)
    if collection_eff <= 0:
        raise DomainError("collection_eff must be positive")
    if r_inf < 0 or p_sat <= 0:
        raise DomainError("r_inf must be non-negative and p_sat positive")
    p2_max = rates_fit.k31 / (rates_fit.k31 + rates_fit.k23)
    eta = float(r_inf) / (collection_eff * rates_fit.k21 * p2_max)
    if eta > 1.05:
        raise InfeasibleMeasurementError(
            f"implied quantum efficiency {eta:.3f} exceeds 1: the saturation "
            "plateau is inconsistent with the fitted rates and collection efficiency"
        )
    return eta


# --- power-sweep CSV format --------------------------------------------------
#
# Columns: power_mW, tau1_ns, tau2_ns, a[, rate_cps]; lines starting with '#'
# are comments. Times are converted to seconds on load.


def save_power_sweep(sweep: PowerSweep, path):
    kept = [i for i, g in enumerate(sweep.params) if g is not None]
    g2 = [sweep.params[i] for i in kept]
    columns = [sweep.powers[kept], np.array([g.tau1 for g in g2]) * 1e9,
               np.array([g.tau2 for g in g2]) * 1e9, np.array([g.a for g in g2], dtype=float)]
    if sweep.counts is not None:
        columns.append(sweep.counts[kept])
    with open(path, "w") as fh:
        fh.write("# power_mW,tau1_ns,tau2_ns,a" + (",rate_cps\n" if sweep.counts is not None else "\n"))
        write_table(fh, *columns)


def load_power_sweep(path) -> PowerSweep:
    table = read_table(path, (4, 5), "expected 4 or 5 comma-separated columns")
    if not table.widths.size:
        raise InputFormatError(path, 0, "no data rows")
    params = []
    for lineno, tau1, tau2, a in zip(table.lines.tolist(), *table.columns[1:4].tolist()):
        try:
            params.append(G2Params(tau1 * 1e-9, tau2 * 1e-9, a))
        except Exception as err:
            raise InputFormatError(path, lineno, f"bad g2 parameters: {err}") from None
    counts = table.columns[4] if np.any(table.widths == 5) else None
    try:
        return PowerSweep(table.columns[0], tuple(params), counts)
    except ValidationError as err:
        raise InputFormatError(path, 0, str(err)) from None
