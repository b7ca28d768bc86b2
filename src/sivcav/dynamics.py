"""Three-level population dynamics and intensity-correlation predictions.

States are (|1> ground, |2> excited, |3> shelved) with pump k12, total decay
k21, shelving k23 and deshelving k31. The column-stochastic generator G acts
on the population vector p as dp/dt = G p. The normalized intensity
correlation is the conditional excited-state population after a detection,

    g2(tau) = p2(tau | p(0) = e1) / p2(steady state).

Everything is computed in closed form (Kitson et al., Phys. Rev. A 58, 620
(1998)). The nonzero eigenvalues of G are the roots of lam^2 + S lam + P with
S = k12 + k21 + k23 + k31 and P = k12 (k23 + k31) + (k21 + k23) k31; the
stationary populations are (k31 (k21 + k23), k12 k31, k12 k23) / P. With
Q = g2'(0) = P / k31 the two-exponential form held by G2Params is

    g2 = 1 - (1 + a) e^(lam_fast tau) + a e^(lam_slow tau),
    a = (Q + lam_fast) / (lam_slow - lam_fast),

and where the two eigenvalues meet, its limit is sampled instead. At
k23 = 0 the shelf is never reached and g2 is the two-level
1 - e^(-(k12 + k21) tau): a = 0, and the roots are labelled by mode, not by
speed, so tau1 = 1/(k12 + k21) and tau2 = 1/k31 even where k31 is the faster
root. The
formulas take an array of pump rates, so a power sweep is one evaluation;
each power keeps its own validity checks, so a power without a
two-exponential form never fails the others.

A power sweep sets k12 = sigma * power, and S and P are then straight
lines in the power, whichever root is labelled tau1:

    S = 1/tau1 + 1/tau2     = sigma power + k21 + k23 + k31,
    P = 1/(tau1 tau2)       = sigma (k23 + k31) power + (k21 + k23) k31.

At zero power k31 and k21 + k23 are the roots of k^2 - S k + P; the slopes
are sigma and sigma (k23 + k31). The zero-power fit of a sweep starts at the
rates these two lines give."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

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
    _arrays,
    _floats,
    _increasing,
    _number,
    _numbers,
    _raise_if,
)
from ._table import read_table, write_table

if TYPE_CHECKING:
    from .fitting import FitResult

DEGENERACY_RTOL = 1e-6


@dataclass(frozen=True)
class PumpModel:
    """Linear pump law k12 = sigma * P with sigma in Hz per mW."""

    sigma: float

    def __post_init__(self):
        bag = []
        _floats(self, bag, sigma="be positive")
        _raise_if(bag)

    def p_sat(self, rates: ThreeLevelRates) -> float:
        """Saturation power (mW): excited population reaches half its
        infinite-power limit at k12 = (k21 + k23) k31 / (k31 + k23)."""
        return (rates.k21 + rates.k23) * rates.k31 / ((rates.k31 + rates.k23) * self.sigma)


@dataclass(frozen=True, eq=False)
class PowerSweep:
    """Fitted g2 parameters across excitation powers.

    ``params`` entries may be None at a power where the two relaxation
    eigenvalues are degenerate and no two-exponential form exists.
    """

    powers: np.ndarray
    params: tuple

    def __post_init__(self):
        bag = []
        (powers,) = _arrays(self, bag, powers="be positive")
        if powers.ndim != 1:
            bag.append("powers must be 1-D")
        if not _increasing(powers):
            bag.append("powers must be strictly increasing")
        params = tuple(self.params)
        if len(params) != powers.size:
            bag.append("params must align with powers")
        if any(p is not None and not isinstance(p, G2Params) for p in params):
            bag.append("params entries must be G2Params or None")
        _raise_if(bag)
        object.__setattr__(self, "params", params)

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
    fit: FitResult

    @property
    def tau1_zero_sigma(self):
        """Delta-method sigma of tau1_zero from the (k21, k23) block C of the
        fit covariance: tau1_zero^2 sqrt(C11 + 2 C12 + C22)."""
        c = self.fit.covariance
        return self.tau1_zero**2 * math.sqrt(max(c[0, 0] + 2.0 * c[0, 1] + c[1, 1], 0.0))


def generator(rates: ThreeLevelRates) -> np.ndarray:
    """Column-stochastic rate matrix G with dp/dt = G p for p = (p1, p2, p3)."""
    k12, k21, k23, k31 = rates.k12, rates.k21, rates.k23, rates.k31
    return np.array([[-k12, k21, k31], [k12, -(k21 + k23), 0.0], [0.0, k23, -k31]])


def _populations(k12, k21, k23, k31):
    """Stationary (p1, p2, p3) = (k31 (k21 + k23), k12 k31, k12 k23) / P, the
    kernel of G, for a scalar or an array k12."""
    p = k12 * (k23 + k31) + (k21 + k23) * k31
    return k31 * (k21 + k23) / p, k12 * k31 / p, k12 * k23 / p


def steady_state(rates: ThreeLevelRates) -> np.ndarray:
    """Stationary populations (p1, p2, p3): the normalized kernel of G."""
    return np.array(_populations(rates.k12, rates.k21, rates.k23, rates.k31))


# status of a pump rate: a two-exponential form, none (degenerate) or a
# DomainError; where several apply, the first in this order from _BAD_RATES on
_VALID, _BAD_RATES, _COMPLEX, _NO_POPULATION, _DEGENERATE, _NEGATIVE_A = range(6)
_REASONS = {
    _BAD_RATES: "rates must be finite with k12 >= 0, k21 > 0, k23 >= 0 and k31 > 0",
    _COMPLEX: "complex relaxation eigenvalues: the rate set does not describe "
              "an incoherent three-level cascade (check the input rates)",
    _NO_POPULATION: "steady-state excited population vanishes (k12 = 0)",
    _NEGATIVE_A: "negative bunching amplitude a = {a:.3g} (unphysical input)",
}


class _Spectra(NamedTuple):
    """Relaxation spectra for an array of pump rates, one entry each: g2 =
    1 - (1 + a) e^(lam_fast t) + a e^(lam_slow t), a = b / (lam_slow - lam_fast),
    ``code`` a status from _VALID to _NEGATIVE_A and q = g2'(0) = P / k31.
    Entries with bad rates hold NaN or inf."""

    lam_fast: np.ndarray
    lam_slow: np.ndarray
    a: np.ndarray
    b: np.ndarray
    code: np.ndarray
    q: np.ndarray

    def raise_invalid(self, i):
        raise DomainError(_REASONS[self.code[i]].format(a=float(self.a[i])))


def _relaxation_spectra(k12, k21, k23, k31) -> _Spectra:
    """Closed-form spectra for an array of pump rates k12 with scalar k21,
    k23, k31; each entry is checked on its own."""
    k12 = np.array(k12, dtype=float, ndmin=1)
    rates_ok = all(math.isfinite(k) for k in (k21, k23, k31)) and k21 > 0 and k23 >= 0 and k31 > 0
    with np.errstate(all="ignore"):  # bad rates and a vanishing root give NaN or inf, masked below
        s = k12 + k21 + k23 + k31
        p = k12 * (k23 + k31) + (k21 + k23) * k31
        u = k12 + k21 + k23 - k31
        disc = u * u - 4.0 * k12 * k23  # S^2 - 4P with no cancellation in it, exact at k23 = 0
        # round-off bound of disc, to first order in eps: fl(u) is off by
        # <= 3/2 eps S, so fl(u)^2 by <= 7/2 eps |u| S (u^2 <= |u| S), the
        # product by eps/2 4 k12 k23 and the difference by eps/2 |disc|
        complex_ = disc < -4.0 * np.finfo(float).eps * (np.abs(u) * s + 4.0 * k12 * k23)
        root = np.sqrt(np.maximum(disc, 0.0))
        lam_fast = -0.5 * (s + root)
        lam_slow = p / lam_fast  # Vieta
        q = p / k31  # g2'(0) = k12 / p2ss
        # g2'(0) = q gives b = a (lam_slow - lam_fast) = q + lam_fast; where it
        # cancels, take it from (q + lam_fast)(q + lam_slow) = q k12 k23 / k31,
        # which is exact 0 at k23 = 0
        b, other = q + lam_fast, q + lam_slow
        b = np.where(np.abs(b) >= np.abs(other), b, q * k12 * k23 / k31 / other)
        a = b / root
    if k23 == 0.0:  # the two-level form, labelled by mode (module docstring)
        lam_fast, lam_slow = -(k12 + k21), np.full_like(k12, -k31)
        a = b = np.zeros_like(k12)
    # the roots are known to about sqrt(eps) |lam_fast| where they meet, so
    # 1e-6 keeps well clear of round-off in declaring them distinct
    code = np.where(a < -1e-9, _NEGATIVE_A, _VALID).astype(np.int8)
    code[root <= DEGENERACY_RTOL * np.abs(lam_fast)] = _DEGENERATE
    code[~(k12 > 0.0)] = _NO_POPULATION  # assigned last to first: the first failing check wins
    code[complex_] = _COMPLEX
    code[~(rates_ok & np.isfinite(k12) & (k12 >= 0.0))] = _BAD_RATES
    return _Spectra(lam_fast, lam_slow, a, b, code, q)


def g2_analytic(rates: ThreeLevelRates, delays) -> G2Curve:
    """Normalized intensity correlation on a delay grid (any sign; |tau| is used).

    g2(0) = 0 exactly and g2 -> 1 at large delays. Computed from the two
    relaxation eigenvalues in closed form, degenerate ones included.
    """
    delays = _numbers("delays", delays)
    if delays.ndim != 1 or delays.size < 1:
        raise DomainError("delays must be a non-empty 1-D array")
    if not _increasing(delays):
        raise DomainError("delays must be strictly increasing")
    at = np.abs(delays)
    s = _relaxation_spectra(rates.k12, rates.k21, rates.k23, rates.k31)
    if s.code[0] not in (_VALID, _DEGENERATE, _NEGATIVE_A):
        s.raise_invalid(0)
    lam_fast, lam_slow, a, b = (float(v[0]) for v in s[:4])
    # c_fast = -(1 + a) enforces the initial condition p2(0) = 0; the
    # grouping below keeps it exact in floating point at tau = 0
    e_fast = np.exp(lam_fast * at)
    if s.code[0] != _DEGENERATE:
        values = (1.0 - e_fast) + a * (np.exp(lam_slow * at) - e_fast)
    else:
        # a (e_slow - e_fast) = b e_slow (1 - e^(-delta tau)) / delta with
        # delta = lam_slow - lam_fast -> 0: no division by the vanishing root
        delta = lam_slow - lam_fast
        span = at if delta == 0.0 else -np.expm1(-delta * at) / delta
        values = (1.0 - e_fast) + b * span * np.exp(lam_slow * at)
    return G2Curve(delays, np.clip(values, 0.0, None))


def _g2_param_arrays(s: _Spectra):
    """Rows (tau1, tau2, a) by columns of powers, and a mask of the powers
    where G2Params exist and accept them."""
    with np.errstate(divide="ignore"):
        params = np.array([-1.0 / s.lam_fast, -1.0 / s.lam_slow, s.a])
    params[2, params[2] <= 0.0] = 0.0  # also folds round-off negatives and -0.0
    ok = (s.code == _VALID) & np.isfinite(params).all(axis=0) & (params[:2] > 0.0).all(axis=0)
    return params, ok


def _g2_params(s: _Spectra) -> list:
    """G2Params per row (None where degenerate, with a warning); raises the
    DomainError of the first invalid row."""
    params, _ = _g2_param_arrays(s)
    out = []
    for i, code in enumerate(s.code.tolist()):
        if code == _DEGENERATE:
            warnings.warn("relaxation eigenvalues are degenerate; no two-exponential "
                          "parametrization exists (sample g2_analytic instead)",
                          DegenerateEigenvaluesWarning, stacklevel=3)
            out.append(None)
        elif code != _VALID:
            s.raise_invalid(i)
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
    powers = _numbers("powers", powers, "be positive")
    r = rates_at_unit_power
    s = _relaxation_spectra(pump.sigma * powers, r.k21, r.k23, r.k31)
    return PowerSweep(powers, tuple(_g2_params(s)))


def _sweep_observables(spectra: _Spectra):
    """(tau1..., tau2..., a...) over the powers of a sweep's spectra, with
    the mask of the powers that have a two-exponential form; inf in every
    slot of a power without one, which rejects the parameter point."""
    params, ok = _g2_param_arrays(spectra)
    params[:, ~ok] = np.inf
    return params.ravel(), ok


def _sweep_jacobian(powers, k21, k23, k31, sigma, spectra: _Spectra, ok):
    """The (3n, 4) derivative of _sweep_observables, rows in its order, by
    (k21, k23, k31, sigma); ``spectra`` is _relaxation_spectra at
    k12 = sigma * powers and ``ok`` the mask _sweep_observables gives there.

    A root of lam^2 + S lam + P moves by dlam = -(dS lam + dP)/(2 lam + S),
    where 2 lam + S is -gap for lam_fast and +gap for lam_slow, gap =
    lam_slow - lam_fast; then dtau = dlam / lam^2, and a = b / gap gives
    da = (db - a dgap) / gap. Where a >= 0, q + lam_fast and q + lam_slow
    share the sign of their product q k12 k23 / k31 and differ by gap >= 0,
    so _relaxation_spectra takes b from the product form
    q k12 k23 / (k31 (q + lam_slow)), and db is taken from it too: it does
    not cancel where b does. At k23 = 0 the roots are labelled by mode, gap
    = k12 + k21 - k31 may be negative, and da is the one-sided derivative
    into k23 > 0 along that labelling. The a <= 0 fold zeroes the a row
    where a < 0, and powers without a two-exponential form get zero rows:
    their inf observables reject the point before a Jacobian is asked for.
    """
    lam_fast, lam_slow, a, b, _, q = spectra
    k12 = sigma * powers
    one = np.ones_like(k12)
    # derivatives of S, P and q = P / k31 by (k21, k23, k31, sigma), one row each
    ds = np.array([one, one, one, powers])
    dp = np.array([k31 * one, k12 + k31, k12 + k21 + k23, powers * (k23 + k31)])
    dq = np.array([one, 1.0 + k12 / k31, -(k12 / k31) * (k23 / k31), powers * (1.0 + k23 / k31)])
    with np.errstate(all="ignore"):  # rows of powers without a form are zeroed below
        gap = lam_slow - lam_fast
        d_fast = (ds * lam_fast + dp) / gap
        d_slow = -(ds * lam_slow + dp) / gap
        other = q + lam_slow
        db = (k12 * k23) * dq
        db[1] += q * k12
        db[3] += q * k23 * powers
        db = db / (k31 * other) - b * (dq + d_slow) / other
        db[2] -= b / k31
        da = (db - a * (d_slow - d_fast)) / gap
        jac = np.concatenate([d_fast / lam_fast**2, d_slow / lam_slow**2, np.where(a < 0.0, 0.0, da)], axis=1).T
    jac[~np.tile(ok, 3)] = 0.0
    return jac


def extrapolate_zero_power(sweep: PowerSweep) -> ZeroPowerFit:
    """Fit (k21, k23, k31, sigma) to the observed (tau1, tau2, a) triples.

    The fit starts at the rates that the straight lines of the relaxation
    rates' sum S = 1/tau1 + 1/tau2 and product P = 1/(tau1 tau2) in power
    give (module docstring): k31 is the root of k^2 - S(0) k + P(0) nearer
    1/tau2 and k21 + k23 the other, sigma is the slope of S and k23 + k31
    the slope of P over it. On noise-free data that start is the answer.
    Where the lines give complex roots, a start out of bounds or a
    non-finite model, blander starts from the line of 1/tau1 follow.

    Residuals are relative for the time constants and scaled by a floor for
    the bunching amplitude, so all three observables contribute comparably.
    The fit takes the analytic Jacobian of the sweep model, which reuses the
    spectra of the model call at the same parameters. Raises
    RankDeficiencyError naming the parameter when the sweep does not
    identify it.
    """
    from .fitting import least_squares  # here, so that importing dynamics leaves fitting out

    usable = [(p, g) for p, g in zip(sweep.powers, sweep.params) if g is not None]
    if len(usable) < 3:
        raise DomainError("zero-power extrapolation needs at least 3 usable powers")
    powers = np.array([p for p, _ in usable])
    t1 = np.array([g.tau1 for _, g in usable])
    t2 = np.array([g.tau2 for _, g in usable])
    a = np.array([g.a for _, g in usable])

    # one solve fits the lines of 1/tau1, S and P in power
    rate1 = 1.0 / t1
    lines = np.stack([rate1, rate1 + 1.0 / t2, rate1 / t2], axis=1)
    design = np.stack([powers, np.ones_like(powers)], axis=1)
    (slope, slope_sum, slope_product), (intercept, sum0, product0) = np.linalg.lstsq(design, lines)[0]
    intercept = max(intercept, 0.1 * float(np.median(rate1)))
    sigma0 = max(slope, 0.05 * intercept / float(np.median(powers)))
    k31_0 = 1.0 / float(np.median(t2))
    eps = 1e-6 * intercept

    candidates = []
    disc = sum0 * sum0 - 4.0 * product0
    if disc >= 0.0 and sum0 > 0.0 and slope_sum > 0.0:
        root = 0.5 * (sum0 + math.sqrt(disc))  # the larger; the other by Vieta, free of cancellation
        k31 = min(root, product0 / root, key=lambda k: abs(k - k31_0))
        k23 = max(slope_product / slope_sum - k31, 0.0)
        start = (sum0 - k23 - k31, k23, k31, slope_sum)
        if min(start[0], k31, slope_sum) >= eps:
            candidates.append(start)
    candidates += [(0.9 * intercept, 0.1 * intercept, k31_0, sigma0), (intercept, 0.0, k31_0, sigma0)]

    held = {}  # the last parameters' observables, with the spectra and mask the Jacobian reuses

    def evaluate(rates):
        if rates not in held:
            held.clear()
            k21, k23, k31, sigma = rates
            spectra = _relaxation_spectra(sigma * powers, k21, k23, k31)
            held[rates] = (spectra, *_sweep_observables(spectra))
        return held[rates]

    def model(_x, *rates):
        return evaluate(rates)[1]

    def jacobian(_x, *rates):
        spectra, _, ok = evaluate(rates)
        return _sweep_jacobian(powers, *rates, spectra, ok)

    # a start can land where the relaxation eigenvalues turn complex at some
    # power; the first with a finite model is taken
    p0 = candidates[-1]
    for candidate in candidates:
        if np.all(np.isfinite(model(None, *candidate))):
            p0 = candidate
            break

    y = np.concatenate([t1, t2, a])
    a_floor = max(0.05, float(np.median(np.abs(a))))
    sig = np.concatenate([t1, t2, np.full_like(a, a_floor)])

    fit = least_squares(
        model,
        powers,
        y,
        p0,
        sigma=sig,
        bounds=[(eps, None), (0.0, None), (eps, None), (eps, None)],
        names=("k21", "k23", "k31", "sigma"),
        jacobian=jacobian,
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
    collection_eff = _number("collection_eff", collection_eff, "lie in (0, 1]")
    eta_qe = _number("eta_qe", eta_qe, "lie in [0, 1]")
    powers = _numbers("powers", powers, "be positive")
    r = rates_at_unit_power
    p2 = _populations(pump.sigma * powers, r.k21, r.k23, r.k31)[1]
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
    collection_eff = _number("collection_eff", collection_eff, "be positive")
    r_inf = _number("r_inf", r_inf, "be non-negative")
    _number("p_sat", p_sat, "be positive")
    p2_max = rates_fit.k31 / (rates_fit.k31 + rates_fit.k23)
    eta = r_inf / (collection_eff * rates_fit.k21 * p2_max)
    if eta > 1.05:
        raise InfeasibleMeasurementError(
            f"implied quantum efficiency {eta:.3f} exceeds 1: the saturation "
            "plateau is inconsistent with the fitted rates and collection efficiency"
        )
    return eta


# --- power-sweep CSV format --------------------------------------------------
#
# Columns: power_mW, tau1_ns, tau2_ns, a[, rate_cps]; lines starting with '#'
# are comments. Times are converted to seconds on load; rate_cps is read
# and not kept.


def save_power_sweep(sweep: PowerSweep, path):
    kept = [i for i, g in enumerate(sweep.params) if g is not None]
    g2 = [sweep.params[i] for i in kept]
    columns = [sweep.powers[kept], np.array([g.tau1 for g in g2]) * 1e9,
               np.array([g.tau2 for g in g2]) * 1e9, np.array([g.a for g in g2], dtype=float)]
    write_table(path, ["power_mW,tau1_ns,tau2_ns,a"], *columns)


def load_power_sweep(path) -> PowerSweep:
    table = read_table(path, (4, 5), "expected 4 or 5 comma-separated columns")
    if not table.lines.size:
        raise InputFormatError(path, 0, "no data rows")
    params = []
    for lineno, tau1, tau2, a in zip(table.lines.tolist(), *table.columns[1:4].tolist()):
        try:
            params.append(G2Params(tau1 * 1e-9, tau2 * 1e-9, a))
        except ValidationError as err:
            raise InputFormatError(path, lineno, f"bad g2 parameters: {err}") from None
    try:
        return PowerSweep(table.columns[0], tuple(params))
    except ValidationError as err:
        raise InputFormatError(path, 0, str(err)) from None
