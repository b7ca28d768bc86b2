"""Nonlinear least squares and model-specific curve fitters.

The engine is a damped Gauss-Newton iteration with a Levenberg-Marquardt
trust parameter, the model's analytic Jacobian, which every caller supplies,
box bounds held as a lower and an upper array that every trial step is
clipped to, and an accept/reject rule that never lets the cost increase. A
parameter on a bound whose descent direction points out of the box is held
there: the step is solved on the free parameters and the gradient test
looks at theirs only, so a fit whose optimum lies on a bound converges.
Convergence is declared when the cosine between each free Jacobian column
and the residual falls to GRAD_RTOL (MINPACK's scale-free test, More, LNM
630, 105 (1978)), the relative parameter step below STEP_RTOL, the
relative cost decrease below COST_RTOL or a trial step raises the cost by
at most COST_RTOL of it (flat to rounding); a fit that does not converge is
flagged, not retried. A trial step whose cost is nan or inf is rejected
like one that raises the cost.
Up to three undamped Gauss-Newton steps polish a converged fit. The
Jacobian is taken once per accepted point and never again where the engine
already holds it; the last one serves the polish and the covariance. The
iteration runs under one np.errstate that silences floating-point warnings
(the covariance is computed outside it). Weighting is 1/sigma^2 with
uncertainties: each residual and each Jacobian row is divided by its
sigma. Without them the residuals and the Jacobian are used as they come,
with no weights at all. A Jacobian may come in any memory layout and is
kept in it, with no copy: multi_lorentzian_jacobian's is column-major,
filled one contiguous run per parameter.

A start whose Jacobian with unit columns (MINPACK's scaling) has a
singular-value ratio below RANK_TOL raises RankDeficiencyError. JtJ, which
the first iteration needs anyway, decides most starts: scaled to unit
columns, its n x n eigenvalues are read, and lambda_min >= (RANK_CERTIFICATE
+ 2 n N eps) lambda_max proves full rank. Forming JtJ from N points moves
each entry of the unit-column matrix by at most about N eps, so its
eigenvalues by about n N eps, and lambda_max >= 1; the true ratio is then
at least 1e-8, a singular-value ratio of at least 1e-4, and the SVD test
cannot fail. Every other start, and every one whose JtJ is not finite or
has a column whose squares could underflow, is decided by the SVD of the
unit-column Jacobian, which names the unidentifiable parameters.

On top of the engine sit the fitters used throughout the package, each
with its model's analytic Jacobian: the two-exponential g2 model,
optionally convolved with a Gaussian instrument response in closed form
(exponentially modified Gaussians), multi-Lorentzian spectra, cos^2
polarization scans and two-parameter saturation curves. The zero-power
sweep fit of ``dynamics`` passes its own. The engine reports the
parameters it iterates; ``fit_g2`` and ``fit_cos2`` map their results once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, RankDeficiencyError
from .models import (G2Curve, G2Params, PLSpectrum, PolarizationScan, SaturationCurve, _as_float, _number,
                     _numbers)

RANK_TOL = 1e-12
RANK_CERTIFICATE = 1e-8  # a unit-column JtJ eigenvalue ratio that proves a start's full rank
EPS = float(np.finfo(float).eps)
MAX_DAMPING = 1e14
GRAD_RTOL = 1e-14
STEP_RTOL = 1e-10
COST_RTOL = 1e-12
MAX_ITERATIONS = 500  # accepted steps before a fit stops with converged=False
ERFCX_ASYMPTOTIC_Z = 25.0  # exp(z^2) and erfc(z) are both in range below it
ERFC_TWO_Z = -6.0  # erfc(z) rounds to 2 in double precision below it

_erfc = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares fit.

    ``residual_norm`` is the root of the weighted sum of squared residuals;
    ``cost_trace`` records the cost after every accepted iteration (it is
    non-increasing by construction). ``nfev`` and ``njev`` count the calls
    of the model and of its Jacobian; ``to_dict`` leaves them out.
    """

    names: tuple[str, ...]
    values: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    cost_trace: tuple[float, ...]
    dof: int
    nfev: int
    njev: int

    def __getitem__(self, name):
        return float(self.values[self.names.index(name)])

    def sigma(self, name):
        return float(self.sigmas[self.names.index(name)])

    @property
    def sigmas(self):
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def to_dict(self):
        return {
            "params": {
                name: {"value": float(v), "sigma": float(s)}
                for name, v, s in zip(self.names, self.values, self.sigmas)
            },
            "covariance": self.covariance.tolist(),
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def poisson_sigmas(counts):
    """Per-bin uncertainties sqrt(max(count, 1)) for histogram counts."""
    return np.sqrt(np.clip(np.asarray(counts, dtype=float), 1.0, None))


def _singular_direction_names(jac, names):
    """Names of the parameters that make up the Jacobian's weakest direction."""
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    if s[0] == 0.0:
        return list(names)
    v = np.abs(vt[-1])
    return [names[j] for j in range(len(names)) if v[j] >= 0.3 * v.max()]


def _check_start_rank(jac, normal, names):
    """Raise RankDeficiencyError where jac with unit columns (MINPACK's
    scaling, free of the parameters' units) has a singular-value ratio below
    RANK_TOL. normal is jac's JtJ: where its unit-column form proves full
    rank with RANK_CERTIFICATE to spare, no SVD of jac is taken."""
    m, n = jac.shape
    d = normal.diagonal()
    # a column whose squares sum below m tiny/eps may have lost digits to underflow
    if np.isfinite(normal).all() and d.min() >= m * np.finfo(float).tiny / EPS:
        scale = 1.0 / np.sqrt(d)
        lam = np.linalg.eigvalsh(normal * scale[:, None] * scale)
        if lam[0] >= (RANK_CERTIFICATE + 2.0 * n * m * EPS) * lam[-1]:
            return
    norms = np.linalg.norm(jac, axis=0)
    scaled = jac / np.where(norms > 0.0, norms, 1.0)
    s = np.linalg.svd(scaled, compute_uv=False)
    if s[0] == 0.0 or s[-1] / s[0] < RANK_TOL:
        involved = _singular_direction_names(scaled, names)
        raise RankDeficiencyError(
            "singular normal equations: parameters "
            + ", ".join(involved)
            + " are not independently identifiable",
            parameters=involved,
        )


def _cost(r):
    # a finite but huge residual squares to inf, which the accept rule
    # rejects; the fit's errstate keeps the overflow quiet
    return 0.5 * float(r @ r)


def _held(p, grad, lo, hi):
    """Mask of the parameters on a bound whose descent direction -grad
    points out of the box, which a step leaves where they are; None while
    no parameter is on a bound."""
    low, high = p <= lo, p >= hi
    if not (low.any() or high.any()):
        return None
    return low & (grad > 0) | high & (grad < 0)


def _lm_iterate(residual_fn, jacobian_fn, p, lo, hi, names):
    n = p.size
    r = residual_fn(p)
    cost = _cost(r)  # nan or inf where r is, inf where its squares overflow
    if not cost < math.inf:
        raise DomainError("the sum of squared residuals is not finite at the initial parameters")
    trace = [cost]
    lam = 1e-3
    converged = False
    iterations = 0
    before = None  # the point before p, whose cost is above p's

    jac = jacobian_fn(p)
    normal = jac.T @ jac  # JtJ of jac; a new jac sets it to None until an iteration needs it
    _check_start_rank(jac, normal, names)

    while iterations < MAX_ITERATIONS:
        grad = jac.T @ r
        if normal is None:
            normal = jac.T @ jac
        held = _held(p, grad, lo, hi)
        if held is not None:  # project the gradient and decouple the held
            grad[held] = 0.0  # parameters: their rows solve to a zero step
            normal[held] = 0.0
            normal[:, held] = 0.0
        diag = normal.diagonal().copy()
        # MINPACK's scale-free test: the cosine between each free column
        # of jac and r (held ones read 0 <= 0)
        if (np.abs(grad) <= GRAD_RTOL * np.sqrt(2.0 * diag) * math.sqrt(cost)).all():
            converged = True
            break
        floor = diag.max()
        if not floor > 0:
            floor = 1.0
        diag[diag <= 0] = floor * 1e-12
        descent = -grad
        accepted = False
        while lam <= MAX_DAMPING:
            damped = normal.copy()
            damped.reshape(-1)[:: n + 1] += lam * diag
            try:
                delta = np.linalg.solve(damped, descent)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = np.minimum(np.maximum(p + delta, lo), hi)
            r_new = residual_fn(p_new)
            cost_new = _cost(r_new)  # nan where r_new holds a nan: rejected
            if cost_new < cost:
                accepted = True
                break
            if cost_new - cost <= COST_RTOL * cost:
                converged = True
                break
            lam *= 10.0
        if not accepted:
            break
        iterations += 1
        d = p_new - p
        step_rel = math.sqrt(float(d @ d)) / (math.sqrt(float(p @ p)) + 1e-300)
        cost_rel = (cost - cost_new) / max(cost, 1e-300)
        before, p, r, cost = p, p_new, r_new, cost_new
        jac, normal = jacobian_fn(p), None
        trace.append(cost)
        lam = max(lam / 3.0, 1e-14)
        if step_rel < STEP_RTOL or cost_rel < COST_RTOL:
            converged = True
            break

    if converged:
        # a few undamped Gauss-Newton polish steps remove the offset that the
        # relative stopping tests and the trust parameter leave
        for _ in range(3):
            held = _held(p, jac.T @ r, lo, hi)
            free = slice(None) if held is None else ~held
            delta = np.zeros_like(p)
            try:
                delta[free] = np.linalg.lstsq(jac[:, free], -r, rcond=None)[0]
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(delta).all():
                break
            p_new = np.minimum(np.maximum(p + delta, lo), hi)
            if (p_new == p).all():  # the step rounds away: same cost, no model call
                trace.append(cost)
                break
            if before is not None and (p_new == before).all():  # back to a higher cost
                break
            r_new = residual_fn(p_new)
            cost_new = _cost(r_new)
            if not cost_new <= cost:
                break
            improved = cost_new < cost
            before, p, r, cost = p, p_new, r_new, cost_new
            trace.append(cost)
            jac = jacobian_fn(p)
            if not improved:
                break

    return p, cost, trace, iterations, converged, jac


def _covariance(jac, chi2_red):
    """(Jt W J)^-1 times the reduced chi-square from the weighted Jacobian:
    a direction degenerate at the solution (singular values floored at
    RANK_TOL of the largest) shows as very large entries, not as an error."""
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    s = np.clip(s, max(s[0], 1e-300) * RANK_TOL, None)
    return (vt.T * (1.0 / s**2)) @ vt * chi2_red


def _bound(value, unbounded, names, j):
    """A bound of parameter j as a float: unbounded for None, else a number
    that is not NaN (infinite ones included); otherwise DomainError naming
    names[j]."""
    if value is None:
        return unbounded
    try:
        bound = _as_float(value)
    except (TypeError, ValueError):
        bound = math.nan
    if math.isnan(bound):
        raise DomainError(f"bound for {names[j]} must be a number or None, got {value!r}")
    return bound


def least_squares(
    model,
    xdata,
    ydata,
    p0,
    sigma=None,
    bounds=None,
    names=None,
    *,
    jacobian,
):
    """Fit ``model(x, *params)`` to data by damped Gauss-Newton iteration.

    Parameters
    ----------
    model : callable
        model(x, *params) -> predicted y.
    xdata, ydata : array_like
        Data arrays; x is passed through to the model untouched.
    p0 : array_like
        Initial parameter values (must lie within bounds).
    sigma : array_like, optional
        Per-point 1-sigma uncertainties; residuals are divided by sigma.
    bounds : sequence of (lo, hi), optional
        Per-parameter box bounds; None entries are unbounded. Steps are
        projected onto the box, and a parameter held at a bound by its
        gradient is left out of the step.
    names : sequence of str, optional
        Parameter names used in results and error messages.
    jacobian : callable, keyword-only, required
        jacobian(x, *params) -> (len(y), len(params)) array of the model's
        partial derivatives (any shape of that size whose last axis has one
        column per parameter, in any memory layout). Its last call is at the
        returned values.

    Returns
    -------
    FitResult of the parameters iterated, covariance = (Jt W J)^-1 scaled by
    the reduced chi-square with J taken at the returned values, ``nfev`` the
    model evaluations and ``njev`` the evaluations of ``jacobian``.

    Raises
    ------
    RankDeficiencyError when the start's Jacobian with unit columns is
    numerically rank deficient, naming the unidentifiable parameter
    combination; DomainError naming ``ydata``, ``p0`` or ``sigma`` where it
    is not an array of finite numbers (``sigma``'s positive), naming the
    parameter where a bound is neither None nor a number (NaN is none),
    where ``names`` does not give one name per parameter, and when
    ``jacobian`` returns an array of the wrong shape. Non-convergence
    is NOT an exception (``converged=False``).
    """
    y = _numbers("ydata", ydata).ravel()
    p0 = np.array(_numbers("p0", p0))  # a copy: a fit that takes no step returns its start
    n = p0.size
    if names is None:
        names = tuple(f"p{i}" for i in range(n))
    names = tuple(names)
    if len(names) != n:
        raise DomainError(f"names must give one name per parameter: {len(names)} names for {n} parameters")
    weights = None
    if sigma is not None:
        sig = _numbers("sigma", sigma, "be positive").ravel()
        if sig.shape != y.shape:
            raise DomainError("sigma must match ydata in length")
        weights = 1.0 / sig
    if bounds is None:
        bounds = [(None, None)] * n
    if len(bounds) != n:
        raise DomainError("bounds must supply one (lo, hi) pair per parameter")
    lo = np.array([_bound(b, -np.inf, names, j) for j, (b, _) in enumerate(bounds)])
    hi = np.array([_bound(b, np.inf, names, j) for j, (_, b) in enumerate(bounds)])
    bad = (lo > hi) | (p0 < lo) | (p0 > hi)
    if bad.any():
        j = int(np.argmax(bad))
        if lo[j] > hi[j]:
            raise DomainError(f"bound for {names[j]} has lo > hi")
        raise DomainError(f"initial value of {names[j]} violates its bounds")

    nfev = njev = 0

    def residual_fn(p):
        nonlocal nfev
        nfev += 1
        r = np.asarray(model(xdata, *p), dtype=float).ravel() - y
        return r if weights is None else r * weights

    def jacobian_fn(p):
        nonlocal njev
        njev += 1
        jac = np.asarray(jacobian(xdata, *p), dtype=float)
        if jac.shape[-1:] != (n,) or jac.size != y.size * n:
            raise DomainError(f"jacobian must return a ({y.size}, {n}) array, one column per "
                              f"parameter; got shape {jac.shape}")
        jac = jac.reshape(y.size, n)  # a view of any layout whose points merge into one axis
        return jac if weights is None else jac * weights[:, None]  # the product keeps jac's layout

    # one errstate for the fit: overflow in a model or a cost marks a trial
    # step non-finite, which the engine rejects
    with np.errstate(all="ignore"):
        p, cost, trace, iterations, converged, jac = _lm_iterate(
            residual_fn, jacobian_fn, p0, lo, hi, names)

    dof = max(y.size - n, 1)
    return FitResult(
        names=names,
        values=p,
        covariance=_covariance(jac, (2.0 * cost) / dof),
        residual_norm=math.sqrt(2.0 * cost),
        iterations=iterations,
        converged=converged,
        cost_trace=tuple(trace),
        dof=dof,
        nfev=nfev,
        njev=njev,
    )


# --- model zoo ---------------------------------------------------------------


def g2_model(tau, a, tau1, tau2):
    """Two-exponential intensity correlation
    1 - (1+a) exp(-|tau|/tau1) + a exp(-|tau|/tau2).

    Grouped so that g2(0) = 0 holds exactly in floating point.
    """
    at = np.abs(np.asarray(tau, dtype=float))
    e1 = np.exp(-at / tau1)
    e2 = np.exp(-at / tau2)
    return (1.0 - e1) + a * (e2 - e1)


def g2_model_irf(tau, a, tau1, tau2, irf_sigma):
    """g2 model convolved with a Gaussian timing kernel of width irf_sigma.

    Closed form: each exponential convolved with the Gaussian is an
    exponentially modified Gaussian (Grushka, Anal. Chem. 44, 1733 (1972)),
    evaluated by ``_emg``; irf_sigma <= 0 gives g2_model. Note that jitter
    applied independently to each photon widens the *pair delay* kernel by
    sqrt(2) relative to the single-photon jitter.
    """
    if irf_sigma <= 0:
        return g2_model(tau, a, tau1, tau2)
    f, _ = _emg(tau, (tau1, tau2), irf_sigma)
    return (1.0 - f[0]) + a * (f[1] - f[0])


def g2_jacobian(tau, a, tau1, tau2, irf_sigma):
    """Partial derivatives of g2_model_irf (g2_model where irf_sigma <= 0)
    with respect to (a, tau1, tau2): one column each, on a last axis."""
    if irf_sigma > 0:
        f, df = _emg(tau, (tau1, tau2), irf_sigma, derivative=True)
    else:
        at = np.abs(np.asarray(tau, dtype=float))
        t = np.reshape([tau1, tau2], (2,) + (1,) * at.ndim)
        f = np.exp(-at / t)
        df = f * at / t**2
    jac = np.empty(f.shape[1:] + (3,))
    np.subtract(f[1], f[0], out=jac[..., 0])
    np.multiply(df[0], -(1.0 + a), out=jac[..., 1])
    np.multiply(df[1], a, out=jac[..., 2])
    return jac


def _erfcx(z):
    """Scaled complementary error function exp(z^2) erfc(z) for z >= 0:
    math.erfc below ERFCX_ASYMPTOTIC_Z, the asymptotic series to z^-8 above
    (relative error 3e-13 at the switch)."""
    out = np.empty_like(z)
    near = z < ERFCX_ASYMPTOTIC_Z
    zn = z[near]
    out[near] = np.exp(zn * zn) * _erfc(zn).astype(float)
    iz = 1.0 / z[~near]
    w = 0.5 * iz * iz
    out[~near] = iz / math.sqrt(math.pi) * (1.0 - w * (1.0 - 3.0 * w * (1.0 - 5.0 * w * (1.0 - 7.0 * w))))
    return out


def _emg(tau, lifetimes, sigma, derivative=False):
    """F_T(tau), the convolution of exp(-|tau|/T) with a normal density of
    width sigma, for each T in lifetimes (rows), and with derivative=True
    also dF_T/dT (else None).

    With u = tau/sigma and r = sigma/T, F_T = h(u) + h(-u), where
    h(v) = 1/2 exp(r^2/2 - r v) erfc(z), z = (r - v)/sqrt(2). For z >= 0
    h = 1/2 exp(-v^2/2) erfcx(z), taken as zero where the Gaussian factor
    underflows; for z < 0 the exponent r^2/2 - r v is below -r^2/2, and
    erfc(z) is evaluated only where that exponential is nonzero and z is
    above ERFC_TWO_Z. So nothing overflows, and math.erfc runs only where
    its value matters. dh/dr = (r - v) h - exp(-v^2/2)/sqrt(2 pi) reuses
    the erfc values, and dF/dT = -(r/T) dF/dr. For z >= ERFCX_ASYMPTOTIC_Z
    the two terms of dh/dr nearly cancel, so there it is taken as
    exp(-v^2/2)/sqrt(2 pi) (sqrt(pi) z erfcx(z) - 1), the bracket straight
    from the series of _erfcx: -w (1 - 3w (1 - 5w (1 - 7w))), w = 1/(2 z^2).
    """
    tau = np.asarray(tau, dtype=float)
    u = tau.ravel() / sigma
    v = np.concatenate([u, -u])
    g = np.exp(-0.5 * v * v)
    t = np.array(lifetimes, dtype=float)[:, None]
    r = sigma / t
    d = r - v
    z = d / math.sqrt(2.0)
    upper = z >= 0.0
    lower = ~upper
    h = np.exp(r * (0.5 * r - v), out=np.zeros(z.shape), where=lower)
    c = np.full(z.shape, 2.0)
    mid = lower & (z >= ERFC_TWO_Z) & (h > 0.0)
    c[mid] = _erfc(z[mid]).astype(float)
    h *= c
    live = upper & (g > 0.0)
    h[live] = np.broadcast_to(g, z.shape)[live] * _erfcx(z[live])
    h *= 0.5
    n = u.size
    shape = (len(lifetimes),) + tau.shape
    f = (h[:, :n] + h[:, n:]).reshape(shape)
    if not derivative:
        return f, None
    gauss = np.broadcast_to(g, z.shape) / math.sqrt(2.0 * math.pi)
    dh = d * h - gauss
    far = live & (z >= ERFCX_ASYMPTOTIC_Z)
    w = 1.0 / (d[far] * d[far])
    dh[far] = -gauss[far] * w * (1.0 - 3.0 * w * (1.0 - 5.0 * w * (1.0 - 7.0 * w)))
    return f, (-(r / t) * (dh[:, :n] + dh[:, n:])).reshape(shape)


def lorentzian_peak(x, center, fwhm, amplitude):
    """Lorentzian with peak height ``amplitude`` and full width ``fwhm``."""
    hw = fwhm / 2.0
    return amplitude * hw**2 / ((np.asarray(x, dtype=float) - center) ** 2 + hw**2)


def multi_lorentzian(x, *params):
    """Sum of Lorentzians plus a constant baseline.

    params = (center_1, fwhm_1, amplitude_1, ..., center_n, fwhm_n,
    amplitude_n, baseline).
    """
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, params[-1])
    for k in range(0, len(params) - 1, 3):
        out += lorentzian_peak(x, params[k], params[k + 1], params[k + 2])
    return out


def multi_lorentzian_jacobian(x, *params):
    """Partial derivatives of multi_lorentzian with respect to its params,
    one column each on a last axis. With hw = fwhm/2, d = x - center,
    den = d^2 + hw^2 and L = hw^2/den, a peak's columns are 2 A L d/den
    (center), A hw d^2/den^2 (fwhm) and L (amplitude); the baseline's is 1.
    Each column is filled as one contiguous row of a parameter-major array,
    which is returned with its parameter axis moved last (a view)."""
    x = np.asarray(x, dtype=float)
    jac = np.empty((len(params),) + x.shape)
    for k in range(0, len(params) - 1, 3):
        center, fwhm, amplitude = params[k:k + 3]
        hw = fwhm / 2.0
        d = x - center
        den = d * d
        den += hw * hw
        lor = np.divide(hw * hw, den, out=jac[k + 2])
        g = amplitude * lor
        g /= den
        np.multiply(g, 2.0, out=jac[k])
        jac[k] *= d
        np.multiply(g, d, out=jac[k + 1])
        jac[k + 1] *= d
        jac[k + 1] /= hw
    jac[-1] = 1.0
    return np.moveaxis(jac, 0, -1)


def cos2_model(phi_deg, phi0, i_max, i_min):
    """Polarizer transmission i_min + (i_max - i_min) cos^2(phi - phi0)."""
    c = np.cos(np.radians(np.asarray(phi_deg, dtype=float) - phi0))
    return i_min + (i_max - i_min) * c**2


def cos2_jacobian(phi_deg, phi0, i_max, i_min):
    """Partial derivatives of cos2_model with respect to (phi0, i_max,
    i_min): (i_max - i_min) sin(2 (phi - phi0)) pi/180, cos^2 and sin^2."""
    theta = np.radians(np.asarray(phi_deg, dtype=float) - phi0)
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([(i_max - i_min) * (2.0 * c * s) * (math.pi / 180.0), c * c, s * s], axis=-1)


def saturation_model(power, r_inf, p_sat):
    """Two-level saturation curve r_inf * P / (P + P_sat)."""
    power = np.asarray(power, dtype=float)
    return r_inf * power / (power + p_sat)


def saturation_jacobian(power, r_inf, p_sat):
    """Partial derivatives of saturation_model with respect to (r_inf,
    p_sat): P/(P + P_sat) and -r_inf P/(P + P_sat)^2."""
    power = np.asarray(power, dtype=float)
    total = power + p_sat
    fraction = power / total
    return np.stack([fraction, -r_inf * fraction / total], axis=-1)


def fold_angle(angle_deg):
    """Fold an angle into the canonical polarization range (-90, 90]."""
    a = float(angle_deg) % 180.0
    if a > 90.0:
        a -= 180.0
    return a


# --- model-specific fitters --------------------------------------------------


def _g2_init(curve: G2Curve) -> G2Params:
    at = np.abs(curve.delays)
    v = curve.values
    span = float(at.max())
    a0 = max(float(v.max()) - 1.0, 0.02)
    threshold = 1.0 - (1.0 + a0) * math.exp(-1.0)
    risen = at[(v >= threshold) & (at > 0)]
    tau1_0 = float(risen.min()) if risen.size else span / 20.0
    tau1_0 = min(max(tau1_0, span * 1e-4), span / 3.0)
    excess = np.clip(v - 1.0, 0.0, None)
    excess[at <= 2.0 * tau1_0] = 0.0
    if excess.sum() > 1e-3:
        tau2_0 = float((at * excess).sum() / excess.sum())
    else:
        tau2_0 = span / 5.0
    tau2_0 = min(max(tau2_0, 3.0 * tau1_0), span / 2.0)
    return G2Params(tau1_0, tau2_0, a0)


def fit_g2(curve: G2Curve, init: G2Params | None = None, irf_sigma: float | None = None) -> FitResult:
    """Fit the two-exponential g2 model to a correlation curve.

    Parameters are (a, tau1, tau2) with bounds a >= 0, tau2 > tau1 > 0. When
    ``irf_sigma`` is given the model is convolved with a Gaussian of that
    width on the delay axis (for histograms of pairwise delays between
    independently jittered photons this is sqrt(2) times the per-photon
    jitter). Uses the curve's sigmas as weights when present, and the
    analytic Jacobian of either model.

    The engine iterates (a, tau1, d = tau2 - tau1), d >= tiny, from the
    ordered pair of the init. The covariance comes from the (a, tau1, tau2)
    Jacobian of the engine's last call, at the returned values: mapped from
    (a, tau1, d), whose tau1 and d columns are nearly parallel where tau1 is
    unresolved, it would lose the digits of sigma(tau2).
    """
    if irf_sigma is not None:
        irf_sigma = _number("irf_sigma", irf_sigma, "be non-negative")
    if len(curve) < 8:
        raise DomainError("g2 fit needs at least 8 points")
    if init is None:
        init = _g2_init(curve)
    span = float(np.abs(curve.delays).max())
    if span <= init.tau2:
        raise DomainError(
            f"curve must span beyond the tau2 estimate ({init.tau2:.3g} s); "
            f"maximum |delay| is {span:.3g} s"
        )
    irf = irf_sigma or 0.0

    def model(tau, a, tau1, d):
        return g2_model_irf(tau, a, tau1, tau1 + d, irf)

    latest = []  # the (a, tau1, tau2) Jacobian of the latest call

    def jacobian(tau, a, tau1, d):
        latest[:] = [g2_jacobian(tau, a, tau1, tau1 + d, irf)]
        chained = latest[0].copy()
        chained[..., 1] += chained[..., 2]  # d tau2 / d tau1 = 1
        return chained

    tiny = span * 1e-9
    tau1, tau2 = sorted((init.tau1, init.tau2))
    fit = least_squares(
        model,
        curve.delays,
        curve.values,
        [init.a, tau1, max(tau2 - tau1, tiny)],
        sigma=curve.sigmas,
        bounds=[(0.0, None), (tiny, None), (tiny, None)],
        names=("a", "tau1", "tau2 - tau1"),
        jacobian=jacobian,
    )
    jac = latest[0] if curve.sigmas is None else latest[0] * (1.0 / curve.sigmas)[:, None]
    a, tau1, d = fit.values
    return replace(fit, names=("a", "tau1", "tau2"), values=np.array([a, tau1, tau1 + d]),
                   covariance=_covariance(jac, fit.residual_norm**2 / fit.dof))


def g2_params_from_fit(result: FitResult) -> G2Params:
    return G2Params(result["tau1"], result["tau2"], result["a"])


def fit_lorentzians(spectrum: PLSpectrum, n_peaks: int, init, poisson_weights=False) -> FitResult:
    """Fit ``n_peaks`` Lorentzians plus a constant baseline to a spectrum.

    ``init`` is a sequence of per-peak initializers: either centers (nm) or
    (center, fwhm, amplitude) triples. Overlapping unresolved peaks surface
    as large covariance entries rather than as errors.
    """
    if n_peaks < 1:
        raise DomainError("n_peaks must be >= 1")
    if len(init) != n_peaks:
        raise DomainError("need one initializer per peak")
    wl = spectrum.wavelengths
    counts = spectrum.intensities
    lo, hi = float(wl.min()), float(wl.max())
    span = hi - lo
    baseline0 = float(np.percentile(counts, 10))
    p0 = []
    names = []
    bounds = []
    for k, item in enumerate(init, start=1):
        if np.isscalar(item):
            center, fwhm, amp = float(item), span / 20.0, None
        else:
            center, fwhm, amp = item
            center = float(center)
            fwhm = float(fwhm)
            amp = None if amp is None else float(amp)
        if not (lo <= center <= hi):
            raise DomainError(f"initial center {center} nm outside the data range [{lo}, {hi}]")
        if amp is None:
            amp = float(np.interp(center, wl, counts)) - baseline0
        p0 += [center, fwhm, amp]
        names += [f"center_{k}", f"fwhm_{k}", f"amplitude_{k}"]
        bounds += [(lo, hi), (span * 1e-6, span), (None, None)]
    p0.append(baseline0)
    names.append("baseline")
    bounds.append((None, None))
    sigma = poisson_sigmas(counts) if poisson_weights else None
    return least_squares(
        multi_lorentzian, wl, counts, p0,
        sigma=sigma, bounds=bounds, names=tuple(names), jacobian=multi_lorentzian_jacobian,
    )


def lorentzian_peak_summary(result: FitResult, n_peaks: int):
    """Per-peak summary with quality factor Q = center / fwhm and its
    uncertainty propagated from the fit covariance."""
    peaks = []
    for k in range(1, n_peaks + 1):
        ic = result.names.index(f"center_{k}")
        iw = result.names.index(f"fwhm_{k}")
        c = float(result.values[ic])
        w = float(result.values[iw])
        q = c / w
        grad = np.zeros(len(result.names))
        grad[ic] = 1.0 / w
        grad[iw] = -c / w**2
        var = float(grad @ result.covariance @ grad)
        peaks.append(
            {
                "center": c,
                "center_sigma": result.sigma(f"center_{k}"),
                "fwhm": w,
                "fwhm_sigma": result.sigma(f"fwhm_{k}"),
                "amplitude": result[f"amplitude_{k}"],
                "amplitude_sigma": result.sigma(f"amplitude_{k}"),
                "q": q,
                "q_sigma": math.sqrt(max(var, 0.0)),
            }
        )
    return peaks


def fit_cos2(scan: PolarizationScan) -> FitResult:
    """Fit I(phi) = i_min + (i_max - i_min) cos^2(phi - phi0) to a scan.

    The result is made canonical once, covariance permuted with the values:
    i_max < i_min swap and turn phi0 by 90 degrees (the same curve), and
    phi0 is folded into (-90, 90].
    """
    if scan.angles.size < 5:
        raise DomainError("cos^2 fit needs at least 5 angles")
    span = float(scan.angles.max() - scan.angles.min())
    if span < 135.0:
        raise DomainError(f"angles must span at least 135 degrees, got {span:.1f}")
    i_max0 = float(scan.intensities.max())
    i_min0 = float(scan.intensities.min())
    phi0_0 = fold_angle(float(scan.angles[np.argmax(scan.intensities)]))
    fit = least_squares(
        cos2_model,
        scan.angles,
        scan.intensities,
        [phi0_0, i_max0, i_min0],
        bounds=[(-270.0, 270.0), (0.0, None), (0.0, None)],
        names=("phi0", "i_max", "i_min"),
        jacobian=cos2_jacobian,
    )
    values, covariance = fit.values, fit.covariance
    if values[1] < values[2]:
        swap = [0, 2, 1]
        values, covariance = values[swap], covariance[np.ix_(swap, swap)]
        values[0] += 90.0
    values[0] = fold_angle(values[0])
    return replace(fit, values=values, covariance=covariance)


def cos2_visibility(result: FitResult) -> float:
    i_max, i_min = result["i_max"], result["i_min"]
    total = i_max + i_min
    return (i_max - i_min) / total if total > 0 else 0.0


def fit_saturation(curve: SaturationCurve) -> FitResult:
    """Fit R(P) = R_inf * P / (P + P_sat) to a saturation curve.

    With all powers far below the knee, P_sat is barely constrained and this
    surfaces as a large covariance entry, not as an error. The floor of P_sat
    is 1e-12 of the largest power, so any power unit gives the same fit.
    """
    if curve.powers.size < 4:
        raise DomainError("saturation fit needs at least 4 powers")
    r_max = float(curve.rates.max())
    if r_max <= 0:
        raise DomainError("saturation fit needs nonzero count rates")
    r_inf0 = 1.5 * r_max
    half = 0.5 * r_inf0
    p_sat0 = float(np.interp(half, curve.rates, curve.powers))
    if not (curve.powers.min() < p_sat0 < curve.powers.max()):
        p_sat0 = float(np.median(curve.powers))
    return least_squares(
        saturation_model,
        curve.powers,
        curve.rates,
        [r_inf0, p_sat0],
        bounds=[(0.0, None), (1e-12 * float(curve.powers.max()), None)],
        names=("r_inf", "p_sat"),
        jacobian=saturation_jacobian,
    )
