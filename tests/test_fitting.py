import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from sivcav import dynamics, fitting, montecarlo
from sivcav.errors import DomainError, RankDeficiencyError
from sivcav.models import (
    G2Curve,
    G2Params,
    PLSpectrum,
    PolarizationScan,
    SaturationCurve,
    ThreeLevelRates,
)


def central_jacobian(func, p, scales):
    """Independent central-difference reference for the Jacobian cross-check."""
    p = np.asarray(p, dtype=float)
    r0 = np.asarray(func(p))
    jac = np.empty((r0.size, p.size))
    for j in range(p.size):
        h = (np.finfo(float).eps ** (1.0 / 3.0)) * scales[j]
        up, dn = p.copy(), p.copy()
        up[j] += h
        dn[j] -= h
        jac[:, j] = (np.asarray(func(up)) - np.asarray(func(dn))) / (2.0 * h)
    return jac


# each entry: model, x grid, parameter point, and the per-parameter steps of
# the central-difference reference (shift parameters respond on the feature
# width, not on their absolute value)
MODEL_ZOO = [
    (
        fitting.g2_model,
        np.linspace(-20e-9, 20e-9, 101),
        np.array([0.8, 0.48e-9, 5e-9]),
        np.array([0.8, 0.48e-9, 5e-9]),
    ),
    (
        fitting.multi_lorentzian,
        np.linspace(730.0, 750.0, 120),
        np.array([739.9, 2.3, 1000.0, 60.0]),
        np.array([2.3, 2.3, 1000.0, 60.0]),
    ),
    (
        fitting.cos2_model,
        np.linspace(0.0, 180.0, 37),
        np.array([20.0, 120.0, 15.0]),
        np.array([20.0, 120.0, 15.0]),
    ),
    (
        fitting.saturation_model,
        np.linspace(0.05, 6.0, 24),
        np.array([1e6, 0.9]),
        np.array([1e6, 0.9]),
    ),
]


class TestJacobian:
    # the g2 point of MODEL_ZOO with and without a kernel
    @pytest.mark.parametrize("irf_sigma", [0.0, 0.3e-9], ids=["g2", "g2-irf"])
    def test_analytic_g2_jacobian_vs_central_difference(self, irf_sigma):
        x, p = MODEL_ZOO[0][1], MODEL_ZOO[0][2]

        def residual(q):
            return fitting.g2_model_irf(x, *q, irf_sigma)

        analytic = fitting.g2_jacobian(x, *p, irf_sigma)
        central = central_jacobian(residual, p, p)
        rel = np.max(np.abs(analytic - central) / np.max(np.abs(central), axis=0))
        assert rel < 1e-7

    # the Lorentzian, cos^2 and saturation points of MODEL_ZOO with their
    # scales, two overlapping Lorentzians, a cos^2 point with i_max < i_min,
    # and one on the i_min = 0 bound, stepped on the scale of i_max
    @pytest.mark.parametrize("model, jacobian, x, p, scales", [
        (fitting.multi_lorentzian, fitting.multi_lorentzian_jacobian, *MODEL_ZOO[1][1:]),
        (fitting.multi_lorentzian, fitting.multi_lorentzian_jacobian, np.linspace(725.0, 755.0, 300),
         np.array([735.0, 1.5, 500.0, 746.0, 3.0, 300.0, 30.0]),
         np.array([1.5, 1.5, 500.0, 3.0, 3.0, 300.0, 30.0])),
        (fitting.cos2_model, fitting.cos2_jacobian, *MODEL_ZOO[2][1:]),
        (fitting.cos2_model, fitting.cos2_jacobian,
         MODEL_ZOO[2][1], np.array([20.0, 15.0, 120.0]), np.array([20.0, 15.0, 120.0])),
        (fitting.cos2_model, fitting.cos2_jacobian,
         MODEL_ZOO[2][1], np.array([20.0, 120.0, 0.0]), np.array([20.0, 120.0, 120.0])),
        (fitting.saturation_model, fitting.saturation_jacobian, *MODEL_ZOO[3][1:]),
    ], ids=["lorentzian", "two-lorentzians", "cos2", "cos2-swapped", "cos2-bound", "saturation"])
    def test_analytic_model_jacobian_vs_central_difference(self, model, jacobian, x, p, scales):
        def residual(q):
            return model(x, *q)

        analytic = jacobian(x, *p)
        central = central_jacobian(residual, p, scales)
        rel = np.max(np.abs(analytic - central) / np.max(np.abs(central), axis=0))
        assert rel < 1e-7

    # each fitter on the noiseless curve of its MODEL_ZOO point (g2 also
    # with a kernel, on the same curve), checked at the fitter's start with
    # the steps of the reference: the engine takes no other Jacobian than the
    # one a fitter hands it, so each must be that of the model it hands over
    # (for g2 the one of the (a, tau1, tau2 - tau1) it iterates)
    @pytest.mark.parametrize("fit, zoo", [
        (lambda x, y: fitting.fit_g2(G2Curve(x, y)), 0),
        (lambda x, y: fitting.fit_g2(G2Curve(x, y), irf_sigma=0.3e-9), 0),
        (lambda x, y: fitting.fit_lorentzians(PLSpectrum(x, y), 1, [740.5]), 1),
        (lambda x, y: fitting.fit_cos2(PolarizationScan(x, y)), 2),
        (lambda x, y: fitting.fit_saturation(SaturationCurve(x, y)), 3),
    ], ids=["g2", "g2-irf", "lorentzian", "cos2", "saturation"])
    def test_fitter_jacobian_vs_central_difference(self, monkeypatch, fit, zoo):
        model, x, p_true, scales = MODEL_ZOO[zoo]
        calls = []
        least_squares = fitting._least_squares

        def recording(model, xdata, ydata, p0, *args, jacobian, **kwargs):
            calls.append((model, xdata, np.array(p0, dtype=float), jacobian))
            return least_squares(model, xdata, ydata, p0, *args, jacobian=jacobian, **kwargs)

        monkeypatch.setattr(fitting, "_least_squares", recording)
        assert fit(x, model(x, *p_true)).converged
        (model, x, p, jacobian), = calls

        def residual(q):
            return np.asarray(model(x, *q), dtype=float)

        analytic = np.asarray(jacobian(x, *p), dtype=float).reshape(x.size, p.size)
        central = central_jacobian(residual, p, scales)
        rel = np.max(np.abs(analytic - central) / np.max(np.abs(central), axis=0))
        assert rel < 1e-6

    # a 1-D grid and the same grid as a (20, 70) array, two peaks
    @pytest.mark.parametrize("shape", [(1400,), (20, 70)], ids=["1d", "2d"])
    def test_lorentzian_jacobian_is_its_column_formulas(self, shape):
        x = np.linspace(725.0, 755.0, 1400).reshape(shape)
        p = (735.0, 1.5, 500.0, 746.0, 3.0, 300.0, 30.0)
        jac = fitting.multi_lorentzian_jacobian(x, *p)
        assert jac.shape == shape + (len(p),)
        assert np.array_equal(jac, lorentzian_columns(x, *p))


def lorentzian_columns(x, *params):
    """The multi-Lorentzian Jacobian written column by column into a
    points-major array, one formula a column."""
    jac = np.empty(x.shape + (len(params),))
    for k in range(0, len(params) - 1, 3):
        center, fwhm, amplitude = params[k:k + 3]
        hw = fwhm / 2.0
        d = x - center
        den = d * d + hw * hw
        lor = hw * hw / den
        g = amplitude * lor / den
        jac[..., k] = 2.0 * g * d
        jac[..., k + 1] = g * d * d / hw
        jac[..., k + 2] = lor
    jac[..., -1] = 1.0
    return jac


SWEEP_POWERS = np.array([0.1, 0.3, 0.6, 1.0, 1.6, 2.4])


def sweep_spectra(k21, k23, k31, sigma):
    """The relaxation spectra of the sweep model over SWEEP_POWERS."""
    return dynamics._relaxation_spectra(sigma * SWEEP_POWERS, k21, k23, k31)


def count_fit_calls(monkeypatch):
    """Counts of the model and Jacobian calls of the fits that follow, made
    through a patched fitting._least_squares; a fit that passes no
    jacobian= raises TypeError."""
    counts = {"model": 0, "jacobian": 0}
    least_squares = fitting._least_squares

    def counting(model, *args, jacobian, **kwargs):
        def counted_model(*p):
            counts["model"] += 1
            return model(*p)

        def counted_jacobian(*p):
            counts["jacobian"] += 1
            return jacobian(*p)

        return least_squares(counted_model, *args, jacobian=counted_jacobian, **kwargs)

    monkeypatch.setattr(fitting, "_least_squares", counting)
    return counts


class TestFewModelCalls:
    def test_fit_result_counts_the_calls(self, monkeypatch, rng):
        # nfev and njev are the calls the model and its Jacobian receive
        tau = np.linspace(-30e-9, 30e-9, 601)
        counts = count_fit_calls(monkeypatch)
        for irf_sigma in (None, 0.3e-9):
            clean = fitting.g2_model_irf(tau, 0.8, 0.48e-9, 5e-9, irf_sigma or 0.0)
            curve = G2Curve(tau, np.clip(clean + rng.normal(0, 0.02, tau.size), 0, None))
            counts.update(model=0, jacobian=0)
            fit = fitting.fit_g2(curve, irf_sigma=irf_sigma)
            assert (fit.nfev, fit.njev) == (counts["model"], counts["jacobian"])
            assert fit.njev > 0
        sweep = dynamics.power_sweep(ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6), dynamics.PumpModel(1.5e9),
                                     SWEEP_POWERS)
        counts.update(model=0, jacobian=0)
        fit = dynamics.extrapolate_zero_power(sweep).fit
        assert (fit.nfev, fit.njev) == (counts["model"], counts["jacobian"])
        assert fit.njev > 0

    # with analytic Jacobians a fit makes one model call per trial step;
    # difference columns would take about 73 (sweep) and 430 (two peaks)
    def test_zero_power_extrapolation(self, monkeypatch, rng):
        sweep = dynamics.power_sweep(ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6), dynamics.PumpModel(1.5e9),
                                     SWEEP_POWERS)
        noisy = dynamics.PowerSweep(SWEEP_POWERS, tuple(
            G2Params(g.tau1 * (1 + 0.01 * rng.standard_normal()), g.tau2 * (1 + 0.01 * rng.standard_normal()),
                     g.a * (1 + 0.01 * rng.standard_normal()))
            for g in sweep.params))
        counts = count_fit_calls(monkeypatch)
        for data in (sweep, noisy):
            counts.update(model=0, jacobian=0)
            zero = dynamics.extrapolate_zero_power(data)
            assert zero.fit.converged
            assert zero.rates.k21 == pytest.approx(2.2e9, rel=0.05)
            assert counts["model"] <= 12
            assert 0 < counts["jacobian"] <= counts["model"]

    def test_two_lorentzians(self, monkeypatch, rng):
        wl = np.linspace(725.0, 755.0, 1400)
        clean = (30.0 + fitting.lorentzian_peak(wl, 735.0, 1.5, 500.0)
                 + fitting.lorentzian_peak(wl, 746.0, 3.0, 300.0))
        counts = count_fit_calls(monkeypatch)
        for y, weights in ((clean, False), (rng.poisson(clean).astype(float), True)):
            counts.update(model=0, jacobian=0)
            fit = fitting.fit_lorentzians(PLSpectrum(wl, y), 2, [734.0, 747.0], poisson_weights=weights)
            assert fit.converged
            assert fit["center_1"] == pytest.approx(735.0, abs=0.05)
            assert counts["model"] <= 25
            assert 0 < counts["jacobian"] <= counts["model"]

    # at the cost's rounding floor a trial step cannot lower the cost; the
    # engine stops there instead of raising the damping until the step
    # rounds away, which took up to 16 rejected steps (model calls) a fit
    def test_no_run_of_rejected_steps_at_the_cost_floor(self):
        rng = np.random.default_rng(777)  # criterion 07's curves
        powers = np.array([0.15, 0.35, 0.65, 1.0, 1.5, 2.2])
        rejected = []
        for _ in range(20):
            k21 = rng.uniform(1e9, 4e9)
            k23, k31, sigma = k21 * rng.uniform(0.10, 0.35), k21 * rng.uniform(0.02, 0.08), k21 * rng.uniform(0.3, 0.8)
            for power, g in zip(powers, dynamics.power_sweep(ThreeLevelRates(0.0, k21, k23, k31),
                                                             dynamics.PumpModel(sigma), powers).params):
                grid = np.unique(np.concatenate([np.linspace(0.0, 8.0 * g.tau1, 40, endpoint=False),
                                                 np.geomspace(8.0 * g.tau1, 15.0 * g.tau2, 70)]))
                curve = dynamics.g2_analytic(ThreeLevelRates(sigma * power, k21, k23, k31), grid)
                noisy = np.clip(curve.values + rng.normal(0.0, 0.01, grid.size), 0.0, None)
                fit = fitting.fit_g2(G2Curve(grid, noisy, np.full(grid.size, 0.01)))
                assert fit.converged
                rejected.append(fit.nfev - len(fit.cost_trace))  # model calls of rejected steps
        assert max(rejected) <= 2


def exact_sweep_observables(powers, k21, k23, k31, sigma):
    """(tau1..., tau2..., a...) in 60-digit arithmetic, with the roots
    labelled by mode: tau1 belongs to the root that continues -(k12 + k21)
    from k23 = 0, whichever root is faster."""
    tau1, tau2, a = [], [], []
    with localcontext() as ctx:
        ctx.prec = 60
        for power in powers:
            k12 = sigma * Decimal(float(power))
            s = k12 + k21 + k23 + k31
            p = k12 * (k23 + k31) + (k21 + k23) * k31
            root = ((k12 + k21 + k23 - k31) ** 2 - 4 * k12 * k23).sqrt()
            bright, shelf = sorted((-(s + root) / 2, -(s - root) / 2), key=lambda lam: abs(lam + k12 + k21))
            tau1.append(-1 / bright)
            tau2.append(-1 / shelf)
            a.append((p / k31 + bright) / (shelf - bright))
    return tau1 + tau2 + a


class TestSweepJacobian:
    # (k21, k23, k31, sigma): the criterion-07 style interior point; a small
    # k23, where q + lam_fast cancels to below 1e-3 of q and b takes the
    # product form; the k23 = 0 bound with k12 + k21 > k31; and with k31 the
    # faster root
    POINTS = [
        (2.2e9, 0.3e9, 60e6, 1.5e9),
        (2.2e9, 2.2e4, 60e6, 1.5e9),
        (2.2e9, 0.0, 60e6, 1.5e9),
        (1e8, 0.0, 5e9, 1.5e9),
    ]
    IDS = ["interior", "product-branch", "k23-zero", "k23-zero-k31-fast"]

    @pytest.mark.parametrize("point", POINTS, ids=IDS)
    def test_vs_central_difference(self, point):
        p = np.array(point)
        spectra = sweep_spectra(*p)
        analytic = dynamics._sweep_jacobian(SWEEP_POWERS, *p, spectra, dynamics._sweep_observables(spectra)[1])
        free = p > 0.0  # k23 = 0 is a bound: no central difference in it

        def residual(q):
            full = p.copy()
            full[free] = q
            return dynamics._sweep_observables(sweep_spectra(*full))[0]

        central = central_jacobian(residual, p[free], p[free])
        # the response to a relative change of each parameter, relative to the
        # largest within each observable: a central difference resolves a
        # column that barely moves an observable only to its round-off there
        for rows in np.split(np.arange(analytic.shape[0]), 3):
            error = np.abs(analytic[rows][:, free] - central[rows]) * p[free]
            assert np.max(error) <= 1e-7 * np.max(np.abs(central[rows]) * p[free])

    @pytest.mark.parametrize("point", POINTS, ids=IDS)
    def test_vs_60_digit_arithmetic(self, point):
        # one-sided differences with steps of 1e-30 relative in 60 digits, so
        # the k23 column at the bound is the derivative into k23 > 0 along the
        # mode labelling. Each column is held to its largest entry within each
        # observable, floored at 1e-20 of the observable's largest entry for
        # the oracle's own rounding where a column vanishes.
        theta = [Decimal(v) for v in point]
        with localcontext() as ctx:
            ctx.prec = 60
            base = exact_sweep_observables(SWEEP_POWERS, *theta)
            columns = []
            for j in range(4):
                step = (theta[j] or theta[0]) * Decimal("1e-30")
                moved = exact_sweep_observables(SWEEP_POWERS, *(t + step * (i == j) for i, t in enumerate(theta)))
                columns.append([float((m - b) / step) for m, b in zip(moved, base)])
        exact = np.array(columns).T
        spectra = sweep_spectra(*point)
        analytic = dynamics._sweep_jacobian(SWEEP_POWERS, *point, spectra, dynamics._sweep_observables(spectra)[1])
        for rows in np.split(np.arange(exact.shape[0]), 3):
            block = np.abs(exact[rows])
            scale = np.maximum(block.max(axis=0), 1e-20 * block.max())
            assert np.all(np.abs(analytic[rows] - exact[rows]) <= 1e-7 * scale)
        if point[1] == 0.0:  # the a <= 0 fold must not zero the derivative into k23 > 0
            assert np.all(analytic[2 * SWEEP_POWERS.size:, 1] > 0.0)

    def test_small_k23_point_takes_the_product_branch(self):
        s = sweep_spectra(*self.POINTS[1])
        assert np.all(s.code == dynamics._VALID)
        assert np.all(np.abs(s.q + s.lam_fast) < 1e-3 * s.q)
        assert np.all(np.abs(s.q + s.lam_fast) < np.abs(s.q + s.lam_slow))


def g2_convolved_by_quadrature(tau, a, tau1, tau2, sigma):
    """Reference for g2_model_irf: the kernel integral by adaptive quadrature
    over +-12 sigma, split at the cusp of the model."""
    from scipy.integrate import quad

    def integrand(x, t):
        return fitting.g2_model(t - sigma * x, a, tau1, tau2) * math.exp(-0.5 * x * x)

    out = []
    for t in tau:
        cusp = [t / sigma] if abs(t) < 12.0 * sigma else None
        value = quad(integrand, -12.0, 12.0, args=(t,), points=cusp, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        out.append(value / math.sqrt(2.0 * math.pi))
    return np.array(out)


def g2_convolved_by_erfcx(tau, a, tau1, tau2, sigma):
    """Reference for g2_model_irf from SciPy's erfcx and erfc: each
    exponential convolved with the Gaussian is sum over both signs of
    1/2 exp(sigma^2/2T^2 -+ tau/T) erfc(z), z = (sigma/T -+ tau/sigma)/sqrt(2)."""
    from scipy.special import erfc, erfcx

    def convolved(lifetime):
        total = 0.0
        for sign in (1.0, -1.0):
            z = (sigma / lifetime - sign * tau / sigma) / math.sqrt(2.0)
            exponent = np.minimum(0.5 * (sigma / lifetime) ** 2 - sign * tau / lifetime, 0.0)
            total = total + 0.5 * np.where(
                z >= 0.0,
                np.exp(-0.5 * (tau / sigma) ** 2) * erfcx(np.abs(z)),
                np.exp(exponent) * erfc(z),
            )
        return total

    return 1.0 - (1.0 + a) * convolved(tau1) + a * convolved(tau2)


def exact_emg_derivative(tau, lifetime, sigma):
    """dF/dT of the exponential exp(-|tau|/T) convolved with a normal density
    of width sigma, in 60-digit arithmetic: F = h(u) + h(-u), u = tau/sigma,
    r = sigma/T, dF/dT = -(r/T) sum of dh/dr = (r - v) h - exp(-v^2/2)/sqrt(2 pi),
    h = 1/2 exp(-v^2/2) erfcx(z), z = (r - v)/sqrt(2) > 0, with erfcx from
    its Laplace continued fraction."""
    with localcontext() as ctx:
        ctx.prec = 60
        pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
        tau, lifetime, sigma = (Decimal(float(v)) for v in (tau, lifetime, sigma))
        r = sigma / lifetime
        total = Decimal(0)
        for v in (tau / sigma, -tau / sigma):
            z = (r - v) / Decimal(2).sqrt()
            assert z > 5
            fraction = z
            for n in range(400, 0, -1):
                fraction = z + Decimal(n) / 2 / fraction
            gauss = (-v * v / 2).exp()
            total += (r - v) * gauss / (2 * pi.sqrt() * fraction) - gauss / (2 * pi).sqrt()
        return -(r / lifetime) * total


class TestG2ModelIrf:
    # (a, tau1, tau2, sigma): criterion 08 on and off resonance, a kernel
    # far wider and one far narrower than tau1
    CASES = [
        (0.057, 179e-12, 19.7e-9, math.sqrt(2.0) * 296e-12),
        (0.153, 446e-12, 15.4e-9, math.sqrt(2.0) * 296e-12),
        (0.8, 0.48e-9, 5e-9, 5e-9),
        (0.8, 0.48e-9, 5e-9, 3e-12),
    ]

    @pytest.mark.parametrize("a, tau1, tau2, sigma", CASES)
    def test_matches_scipy_erfcx_oracle(self, a, tau1, tau2, sigma):
        tau = np.linspace(-60e-9, 60e-9, 2401)
        model = fitting.g2_model_irf(tau, a, tau1, tau2, sigma)
        assert np.max(np.abs(model - g2_convolved_by_erfcx(tau, a, tau1, tau2, sigma))) < 1e-7

    @pytest.mark.parametrize("a, tau1, tau2, sigma", CASES)
    def test_matches_dense_quadrature(self, a, tau1, tau2, sigma):
        tau = np.concatenate([np.linspace(-3e-9, 3e-9, 31), [0.0, 1e-13, -20e-9, 45e-9]])
        model = fitting.g2_model_irf(tau, a, tau1, tau2, sigma)
        assert np.max(np.abs(model - g2_convolved_by_quadrature(tau, a, tau1, tau2, sigma))) < 1e-7

    def test_zero_or_negative_width_is_g2_model(self):
        tau = np.linspace(-20e-9, 20e-9, 101)
        plain = fitting.g2_model(tau, 0.8, 0.48e-9, 5e-9)
        for sigma in (0.0, -1e-9):
            assert np.array_equal(fitting.g2_model_irf(tau, 0.8, 0.48e-9, 5e-9, sigma), plain)

    def test_shape_of_tau_kept(self):
        tau = np.linspace(-5e-9, 5e-9, 12).reshape(3, 4)
        model = fitting.g2_model_irf(tau, 0.8, 0.48e-9, 5e-9, 0.3e-9)
        assert model.shape == (3, 4)
        assert model.ravel() == pytest.approx(fitting.g2_model_irf(tau.ravel(), 0.8, 0.48e-9, 5e-9, 0.3e-9))
        assert fitting.g2_jacobian(tau, 0.8, 0.48e-9, 5e-9, 0.3e-9).shape == (3, 4, 3)
        assert fitting.g2_model_irf(1e-9, 0.8, 0.48e-9, 5e-9, 0.3e-9).shape == ()

    def test_erfcx_against_scipy(self):
        from scipy.special import erfcx

        z = np.concatenate([np.linspace(0.0, 30.0, 3001), np.geomspace(1e-3, 1e8, 1101)])
        assert np.max(np.abs(fitting._erfcx(z) / erfcx(z) - 1.0)) < 1e-12

    @pytest.mark.parametrize("ratio", [1e3, 1e4, 1e6])
    def test_lifetime_derivative_far_below_the_kernel_width(self, ratio):
        # z >= ERFCX_ASYMPTOTIC_Z: the two terms of dh/dr cancel to w = 1/(2 z^2)
        # of each other, which the direct series avoids
        sigma = 0.4e-9
        tau = np.linspace(-4.0, 4.0, 17) * sigma
        _, df = fitting._emg(tau, (sigma / ratio,), sigma, derivative=True)
        exact = [exact_emg_derivative(t, sigma / ratio, sigma) for t in tau]
        assert max(float(abs(Decimal(float(v)) - e) / abs(e)) for v, e in zip(df[0], exact)) < 1e-12

    def test_no_warning_and_finite_on_the_grid(self):
        # lifetimes from 1e-4 to 1e4 kernel widths, delays out to 1e4 widths
        sigma = 0.4e-9
        tau = np.concatenate([-np.geomspace(1e-6, 1e4, 200)[::-1], [0.0], np.geomspace(1e-6, 1e4, 200)]) * sigma
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            for tau1 in np.geomspace(1e-4, 1e4, 9) * sigma:
                for a in (0.0, 0.8):
                    model = fitting.g2_model_irf(tau, a, tau1, 3.0 * tau1, sigma)
                    jac = fitting.g2_jacobian(tau, a, tau1, 3.0 * tau1, sigma)
                    assert np.all(np.isfinite(model)) and np.all(np.isfinite(jac))
                    assert np.all(model >= -1e-15) and np.all(model <= 1.0 + a + 1e-15)

    def test_irf_fit_makes_few_model_evaluations(self, monkeypatch, rng):
        # one value per trial step and an analytic Jacobian: a fall-back to
        # difference columns would take about 50 evaluations
        tau = np.linspace(-60e-9, 60e-9, 2401)
        sigma = math.sqrt(2.0) * 296e-12
        clean = fitting.g2_model_irf(tau, 0.15, 446e-12, 15.4e-9, sigma)
        curve = G2Curve(tau, np.clip(clean + rng.normal(0.0, 0.02, tau.size), 0.0, None),
                        np.full(tau.size, 0.02))
        counts = count_fit_calls(monkeypatch)
        fit = fitting.fit_g2(curve, irf_sigma=sigma)
        assert fit.converged
        assert fit["tau1"] == pytest.approx(446e-12, rel=0.05)
        assert counts["model"] <= 20
        assert 0 < counts["jacobian"] <= counts["model"]


def slope(x, a):
    return a * x


def slope_jacobian(x, a):
    return x[:, None]


def line(x, a, b):
    return a * x + b


def line_jacobian(x, a, b):
    return np.stack([x, np.ones_like(x)], axis=-1)


def decay(x, a, b, c):
    return a * np.exp(-c * x) + b


def decay_jacobian(x, a, b, c):
    e = np.exp(-c * x)
    return np.stack([e, np.ones_like(x), -a * x * e], axis=-1)


class TestEngine:
    def test_analytic_jacobian_replaces_differences(self):
        x = np.linspace(0.0, 10.0, 60)
        true = (2.5, -1.2, 0.4)
        calls = []

        def model(x, a, b, c):
            calls.append((a, b, c))
            return decay(x, a, b, c)

        fit = fitting.least_squares(model, x, model(x, *true), [1.0, 0.0, 0.2], jacobian=decay_jacobian)
        assert fit.converged
        assert fit.values == pytest.approx(true, rel=1e-10)
        # the data, the first value, one per trial step (a rejected step
        # costs one more) and the polish steps: the Jacobian calls no model
        assert len(calls) <= 2 * fit.iterations + 4

    def test_noiseless_self_fit(self):
        x = np.linspace(0.0, 10.0, 60)
        true = (2.5, -1.2, 0.4)
        y = decay(x, *true)
        fit = fitting.least_squares(decay, x, y, [1.0, 0.0, 0.2], names=("a", "b", "c"),
                                    jacobian=decay_jacobian)
        assert fit.converged
        assert fit.values == pytest.approx(true, rel=1e-8)

    def test_linear_matches_normal_equations(self, rng):
        # the engine's accuracy floor scales with the residual level: near the
        # optimum the cost changes by less than its rounding, which the
        # accept rule cannot resolve, so compare at modest noise
        x = np.linspace(0.0, 5.0, 40)
        y = 3.0 * x - 0.7 + rng.normal(0, 0.005, 40)
        fit = fitting.least_squares(line, x, y, [0.0, 0.0], jacobian=line_jacobian)
        design = np.vstack([x, np.ones_like(x)]).T
        ref = np.linalg.lstsq(design, y, rcond=None)[0]
        assert fit.values == pytest.approx(ref, rel=1e-10)

    def test_duplicate_parameter_rank_deficiency(self):
        x = np.linspace(0.0, 5.0, 20)
        with pytest.raises(RankDeficiencyError) as err:
            fitting.least_squares(lambda x, a, b: (a + b) * x, x, 2.0 * x, [1.0, 1.0], names=("a", "b"),
                                  jacobian=lambda x, a, b: np.stack([x, x], axis=-1))
        assert set(err.value.parameters) == {"a", "b"}

    def test_rank_test_is_scale_free(self):
        # a well-posed line whose slope is in units 1e12 times the
        # intercept's: the Jacobian's columns differ in scale by 1e12, which
        # puts its raw singular-value ratio (1.8e-13) below RANK_TOL. The
        # covariance is as free of the units: the sigmas, per unit of the
        # residual norm (rounding on this noiseless line), are the unscaled
        # line's
        x = np.linspace(0.0, 5.0, 20)

        def fit_line(unit):
            return fitting.least_squares(lambda x, a, b: unit * a * x + b, x, 3.0 * x - 0.7, [1.0 / unit, 0.0],
                                         names=("a", "b"),
                                         jacobian=lambda x, a, b: np.stack([unit * x, np.ones_like(x)], axis=-1))

        fit, unscaled = fit_line(1e12), fit_line(1.0)
        assert fit.converged and fit.unresolved == ()
        assert fit.values == pytest.approx([3e-12, -0.7], rel=1e-9)
        assert (fit.sigmas * [1e12, 1.0] / fit.residual_norm
                == pytest.approx(unscaled.sigmas / unscaled.residual_norm, rel=1e-9))

    def test_cost_trace_never_increases(self, rng):
        x = np.linspace(-20e-9, 20e-9, 151)
        y = fitting.g2_model(x, 0.8, 0.48e-9, 5e-9) + rng.normal(0, 0.02, 151)
        fit = fitting.fit_g2(G2Curve(x, np.clip(y, 0, None)))
        assert all(b <= a for a, b in zip(fit.cost_trace, fit.cost_trace[1:]))

    def test_covariance_shrinks_with_data(self, rng):
        def run(n):
            x = np.linspace(0.05, 6.0, n)
            y = fitting.saturation_model(x, 1e5, 0.9) + rng.normal(0, 500.0, n)
            fit = fitting.fit_saturation(SaturationCurve(x, np.clip(y, 0, None)))
            return fit.covariance[0, 0]

        var_small = np.median([run(30) for _ in range(8)])
        var_large = np.median([run(300) for _ in range(8)])
        ratio = var_small / var_large
        assert 3.0 < ratio < 33.0  # ~10x shrink for 10x data

    def test_nonconvergence_is_flagged_not_raised(self, monkeypatch):
        # one iteration budget cannot converge from a bad start
        x = np.linspace(0.0, 10.0, 30)
        y = np.exp(-0.7 * x)
        calls = []

        def model(x, c):
            calls.append(c)
            return np.exp(-c * x)

        def jacobian(x, c):
            return (-x * np.exp(-c * x))[:, None]

        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        fit = fitting.least_squares(model, x, y, [25.0], jacobian=jacobian)
        assert not fit.converged
        # the start and the trial steps of the one iteration; one Jacobian at
        # the start and one at the accepted point for the covariance, where
        # one taken for a next iteration would add a third
        assert len(calls) == 8
        assert (fit.nfev, fit.njev) == (8, 2)

    def test_gradient_test_is_scale_free(self):
        # from a = 1e150 the gradient is huge in absolute terms but parallel
        # to the residual; a test against the cost stopped here at once
        x = np.linspace(1.0, 2.0, 20)
        fit = fitting.least_squares(slope, x, np.zeros(20), [1e150], jacobian=slope_jacobian)
        assert fit.converged
        assert fit.iterations > 0
        assert abs(fit["p0"]) < 1e-100

    def test_start_whose_cost_overflows_raises(self):
        x = np.linspace(1.0, 2.0, 20)
        with pytest.raises(DomainError, match="not finite at the initial parameters"):
            fitting.least_squares(slope, x, np.zeros(20), [1e160], jacobian=slope_jacobian)

    def test_no_parameter_vector_reaches_the_model_twice(self, monkeypatch, rng):
        # the Jacobian calls no model, and each rejected trial step raises
        # the damping, so each model call of these fits is at a new point
        fits = []
        least_squares = fitting._least_squares

        def recording(model, *args, **kwargs):
            seen = []
            fits.append(seen)

            def recorded(x, *p):
                seen.append(tuple(p))
                return model(x, *p)

            return least_squares(recorded, *args, **kwargs)

        monkeypatch.setattr(fitting, "_least_squares", recording)
        tau = np.linspace(-30e-9, 30e-9, 601)
        for irf_sigma, model in ((None, fitting.g2_model(tau, 0.8, 0.48e-9, 5e-9)),
                                 (0.3e-9, fitting.g2_model_irf(tau, 0.8, 0.48e-9, 5e-9, 0.3e-9))):
            noisy = np.clip(model + rng.normal(0, 0.02, tau.size), 0, None)
            assert fitting.fit_g2(G2Curve(tau, noisy), irf_sigma=irf_sigma).converged
        wl = np.linspace(725.0, 755.0, 700)
        y = (
            30.0
            + fitting.lorentzian_peak(wl, 735.0, 1.5, 500.0)
            + fitting.lorentzian_peak(wl, 746.0, 3.0, 300.0)
        )
        assert fitting.fit_lorentzians(PLSpectrum(wl, y), 2, [734.0, 747.0]).converged
        powers = np.array([0.1, 0.3, 0.6, 1.0, 1.6, 2.4])
        sweep = dynamics.power_sweep(
            ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6), dynamics.PumpModel(1.5e9), powers
        )
        assert dynamics.extrapolate_zero_power(sweep).fit.converged
        assert len(fits) == 4
        for seen in fits:
            assert len(set(seen)) == len(seen)

    def test_no_parameter_vector_reaches_an_analytic_jacobian_twice(self, monkeypatch, rng):
        # the polish and the covariance keep the Jacobian the engine holds
        # where it was taken, rather than taking it there again; every fit
        # below but the Lorentzian one ends at such a point (the noiseless g2
        # fits start at their optimum, and so does the saturation fit, whose
        # initial r_inf = 1.5 max(rate) = 3 and p_sat = 1 are exact)
        fits = []
        least_squares = fitting._least_squares

        def recording(model, *args, jacobian, **kwargs):
            seen = []
            fits.append(seen)

            def recorded(x, *p):
                seen.append(tuple(p))
                return jacobian(x, *p)

            return least_squares(model, *args, jacobian=recorded, **kwargs)

        monkeypatch.setattr(fitting, "_least_squares", recording)
        tau = np.linspace(-30e-9, 30e-9, 601)
        for irf_sigma in (None, 0.3e-9):
            clean = fitting.g2_model_irf(tau, 0.8, 0.48e-9, 5e-9, irf_sigma or 0.0)
            fit = fitting.fit_g2(G2Curve(tau, clean), G2Params(0.48e-9, 5e-9, 0.8), irf_sigma=irf_sigma)
            assert fit.converged
        wl = np.linspace(725.0, 755.0, 700)
        y = rng.poisson(30.0 + fitting.lorentzian_peak(wl, 735.0, 1.5, 500.0)
                        + fitting.lorentzian_peak(wl, 746.0, 3.0, 300.0)).astype(float)
        assert fitting.fit_lorentzians(PLSpectrum(wl, y), 2, [734.0, 747.0], poisson_weights=True).converged
        angles = np.arange(0.0, 360.0, 10.0)
        scan = PolarizationScan(angles, fitting.cos2_model(angles, 30.0, 400.0, 20.0))
        assert fitting.fit_cos2(scan).converged
        powers = np.linspace(0.25, 2.0, 8)
        curve = SaturationCurve(powers, fitting.saturation_model(powers, 3.0, 1.0))
        assert fitting.fit_saturation(curve).converged
        sweep = dynamics.power_sweep(ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6), dynamics.PumpModel(1.5e9),
                                     SWEEP_POWERS)
        assert dynamics.extrapolate_zero_power(sweep).fit.converged
        assert len(fits) == 6
        for seen in fits:
            assert len(set(seen)) == len(seen) > 0

    # the first three trial steps: a nan, an inf, and finite residuals whose
    # squares overflow to an infinite cost
    def test_non_finite_trial_steps_are_rejected(self):
        x = np.linspace(0.0, 1.0, 21)
        spoilt = {2: math.nan, 3: math.inf, 4: 1e200}
        seen = []

        def model(x, a, b):
            seen.append((a, b))
            return np.full_like(x, spoilt[len(seen)]) if len(seen) in spoilt else a * x + b

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fitting.least_squares(model, x, -2.0 * x + 0.5, [1.0, 0.0], jacobian=line_jacobian)
        assert fit.converged
        assert fit.values == pytest.approx([-2.0, 0.5], rel=1e-12)
        assert fit.nfev == len(seen) > 4
        # each rejection raises the damping, so the next trial is a new point
        assert len(set(seen)) == len(seen)
        assert all(math.isfinite(c) for c in fit.cost_trace)
        assert all(b <= a for a, b in zip(fit.cost_trace, fit.cost_trace[1:]))

    def test_sigma_weighting_changes_solution(self, rng):
        x = np.linspace(0.0, 1.0, 20)
        y = 2.0 * x + rng.normal(0, 0.01, 20)
        y[-1] += 5.0  # outlier
        sig = np.ones_like(y)
        sig[-1] = 100.0  # de-weighted outlier
        fit_w = fitting.least_squares(slope, x, y, [1.0], sigma=sig, jacobian=slope_jacobian)
        fit_u = fitting.least_squares(slope, x, y, [1.0], jacobian=slope_jacobian)
        assert abs(fit_w.values[0] - 2.0) < abs(fit_u.values[0] - 2.0)

    def test_bounds_respected(self):
        x = np.linspace(0.0, 5.0, 20)
        y = -2.0 * x
        fit = fitting.least_squares(slope, x, y, [0.5], bounds=[(0.0, None)], jacobian=slope_jacobian)
        assert fit.values[0] >= 0.0
        assert fit.converged

    # from inside the box, and from the optimum. b lands 0 and 1.1e-16 from
    # -0.5 here, but from [3, 2] 1.4e-12 away: near the optimum the cost,
    # about 3.85, changes by less than its rounding, and the accept rule keeps
    # b + 0.5 = 1.37e-12 at cost 3.85 over 1.1e-16 at 3.8500000000000005.
    # From the optimum the polish moves b to -0.5000000000000001 (cost 3.85)
    # and would step back to -0.5, whose cost it knows: 2 calls, not 3
    @pytest.mark.parametrize("p0, b_tol, calls", [([1.0, 0.0], 1e-12, 6), ([0.0, -0.5], 1e-11, 2)],
                             ids=["p00-1e-12", "p01-1e-11"])
    def test_optimum_on_a_bound_converges(self, p0, b_tol, calls):
        # a = 0 holds the slope at its bound; b is then the mean of y
        x = np.linspace(0.0, 1.0, 21)
        seen = []

        def model(x, a, b):
            seen.append((a, b))
            return a * x + b

        fit = fitting.least_squares(model, x, -2.0 * x + 0.5, p0, bounds=[(0.0, None), (None, None)],
                                    jacobian=line_jacobian)
        assert fit.converged
        assert fit.values[0] == 0.0
        assert abs(fit.values[1] + 0.5) < b_tol
        # no step moves the held slope once it reaches its bound
        reached = next(i for i, (a, _) in enumerate(seen) if a == 0.0)
        assert all(a == 0.0 for a, _ in seen[reached:])
        assert len(seen) == fit.nfev == calls
        assert len(set(seen)) == len(seen)  # no point is evaluated twice

    def test_init_outside_bounds_rejected(self):
        with pytest.raises(DomainError):
            fitting.least_squares(
                slope, np.arange(4.0), np.arange(4.0), [-1.0], bounds=[(0.0, None)], jacobian=slope_jacobian
            )

    @pytest.mark.parametrize("bound", ["a", b"0", True, np.False_, math.nan, [0.0]],
                             ids=["str", "bytes", "bool", "numpy-bool", "nan", "list"])
    @pytest.mark.parametrize("side", [0, 1], ids=["lo", "hi"])
    def test_bound_that_is_no_number_rejected(self, bound, side):
        # NaN fails every comparison, so a NaN bound would pass the box checks and poison each step
        pair = [None, None]
        pair[side] = bound
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DomainError) as err:
            fitting.least_squares(line, x, 2.0 * x + 1.0, [1.0, 0.0], bounds=[(None, None), tuple(pair)],
                                  names=("a", "b"), jacobian=line_jacobian)
        assert str(err.value) == f"bound for b must be a number or None, got {bound!r}"

    def test_infinite_bounds_are_none(self):
        x = np.linspace(0.0, 1.0, 5)
        fits = [fitting.least_squares(line, x, 2.0 * x + 1.0, [1.0, 0.0], bounds=bounds, jacobian=line_jacobian)
                for bounds in ([(None, None)] * 2, [(-math.inf, math.inf), (-10**400, 10**400)])]
        assert fits[0].values.tolist() == fits[1].values.tolist()
        assert fits[0].converged and fits[0].nfev == fits[1].nfev

    def test_transposed_jacobian_rejected(self):
        # a reshape alone would read its (2, 20) rows as a wrong (20, 2)
        # Jacobian: the fit converged slowly, with sigmas 9x and 15x too large
        x = np.linspace(0.0, 1.0, 20)
        y = line(x, 2.0, 0.5) + np.random.default_rng(1).normal(0, 0.1, 20)
        with pytest.raises(DomainError, match=r"\(20, 2\) array.*got shape \(2, 20\)"):
            fitting.least_squares(line, x, y, [1.0, 0.0], jacobian=lambda x, a, b: line_jacobian(x, a, b).T)

    # a column short, a column over, and a row short: each is rejected at the
    # first Jacobian call, before any step
    @pytest.mark.parametrize("cut", [np.s_[:, :1], np.s_[:, [0, 1, 1]], np.s_[:-1, :]],
                             ids=["one-column", "three-columns", "one-row-short"])
    def test_misshapen_jacobian_rejected(self, cut):
        x = np.linspace(0.0, 1.0, 20)
        expected = line_jacobian(x, 0.0, 0.0)[cut].shape
        with pytest.raises(DomainError, match=rf"\(20, 2\) array.*got shape \({expected[0]}, {expected[1]}\)"):
            fitting.least_squares(line, x, line(x, 2.0, 0.5), [1.0, 0.0],
                                  jacobian=lambda x, a, b: line_jacobian(x, a, b)[cut])

    @pytest.mark.parametrize("names", [("a",), ("a", "b", "c")], ids=["short", "long"])
    def test_names_of_the_wrong_count_rejected(self, names):
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DomainError, match=f"{len(names)} names for 2 parameters"):
            fitting.least_squares(line, x, 2.0 * x + 1.0, [1.0, 0.0], bounds=[(None, None), (2.0, None)],
                                  names=names, jacobian=line_jacobian)

    # a noisy two-peak spectrum on 1400 points and a noisy line on 40
    @pytest.mark.parametrize("case", ["two-lorentzians", "line"])
    def test_no_sigma_is_unit_sigma(self, rng, case):
        if case == "line":
            x = np.linspace(0.0, 5.0, 40)
            args = (line, x, line(x, 3.0, -0.7) + rng.normal(0, 0.05, x.size), [0.0, 0.0])
            jacobian = line_jacobian
        else:
            x = np.linspace(725.0, 755.0, 1400)
            y = fitting.multi_lorentzian(x, 735.0, 1.5, 500.0, 746.0, 3.0, 300.0, 30.0)
            args = (fitting.multi_lorentzian, x, rng.poisson(y).astype(float),
                    [735.4, 2.0, 400.0, 745.5, 2.5, 250.0, 20.0])
            jacobian = fitting.multi_lorentzian_jacobian
        bare = fitting.least_squares(*args, jacobian=jacobian)
        unit = fitting.least_squares(*args, sigma=np.ones(x.size), jacobian=jacobian)
        assert bare.converged and bare.iterations > 1
        assert np.array_equal(bare.values, unit.values)
        assert np.array_equal(bare.covariance, unit.covariance)
        assert (bare.cost_trace, bare.nfev, bare.njev) == (unit.cost_trace, unit.nfev, unit.njev)


def svd_rank_oracle(jac, names):
    """The start's rank test as one SVD of jac with unit columns: None where
    the singular-value ratio reaches RANK_TOL, else the names of the weakest
    direction's parameters."""
    norms = np.linalg.norm(jac, axis=0)
    scaled = jac / np.where(norms > 0.0, norms, 1.0)
    _, s, vt = np.linalg.svd(scaled, full_matrices=False)
    if s[0] > 0.0 and s[-1] / s[0] >= fitting.RANK_TOL:
        return None
    if s[0] == 0.0:
        return list(names)
    v = np.abs(vt[-1])
    return [name for name, vj in zip(names, v) if vj >= 0.3 * v.max()]


def two_unit_columns(condition):
    """Two unit columns on 200 points whose matrix has the given condition
    number: the second is turned from the first by 2 arctan(1/condition)."""
    u, v = np.linalg.qr(np.random.default_rng(7).normal(size=(200, 2)))[0].T
    theta = 2.0 * math.atan(1.0 / condition)
    return np.stack([u, math.cos(theta) * u + math.sin(theta) * v], axis=-1)


LINE_X = np.linspace(0.0, 5.0, 20)
START_JACOBIANS = {
    **{f"condition-1e{e:g}": two_unit_columns(10.0**e) for e in np.arange(3.0, 6.25, 0.25)},
    "condition-1e13": two_unit_columns(1e13),
    "zero-column": np.stack([LINE_X, np.zeros_like(LINE_X)], axis=-1),
    "a-plus-b": np.stack([LINE_X, LINE_X], axis=-1),
    "scaled-1e150": np.stack([1e150 * LINE_X, 1e-150 * np.ones_like(LINE_X)], axis=-1),
    "scaled-1e-150": np.stack([1e-150 * LINE_X, 1e150 * np.ones_like(LINE_X)], axis=-1),
    "a-plus-b-scaled": np.stack([1e150 * LINE_X, 1e-150 * LINE_X], axis=-1),
    "two-lorentzians": fitting.multi_lorentzian_jacobian(
        np.linspace(725.0, 755.0, 1400), 735.4, 2.0, 400.0, 745.5, 2.5, 250.0, 20.0),
}


class TestStartRankTest:
    @pytest.mark.parametrize("name", START_JACOBIANS)
    def test_agrees_with_the_svd(self, name):
        jac = START_JACOBIANS[name]
        names = tuple(f"p{j}" for j in range(jac.shape[1]))
        expected = svd_rank_oracle(jac, names)
        if expected is None:
            fitting._check_start_rank(jac, jac.T @ jac, names)
        else:
            with pytest.raises(RankDeficiencyError) as err:
                fitting._check_start_rank(jac, jac.T @ jac, names)
            assert list(err.value.parameters) == expected

    def test_oracle_cases_fail_where_expected(self):
        failing = {name for name, jac in START_JACOBIANS.items()
                   if svd_rank_oracle(jac, tuple(f"p{j}" for j in range(jac.shape[1]))) is not None}
        assert failing == {"condition-1e13", "zero-column", "a-plus-b", "a-plus-b-scaled"}

    # eigenvalue ratios 1e-6 and 1e-7 are certified by the Gram matrix alone;
    # 1e-9 and 1e-10 are left to the SVD, which passes them
    @pytest.mark.parametrize("condition, svds", [(1e3, 0), (10**3.5, 0), (10**4.5, 1), (1e5, 1)])
    def test_svd_only_where_the_gram_matrix_cannot_certify(self, monkeypatch, condition, svds):
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        jac = two_unit_columns(condition)
        fitting._check_start_rank(jac, jac.T @ jac, ("a", "b"))
        assert len(calls) == svds


class TestFitG2:
    def test_poisson_sigmas_floor_empty_bins_at_one(self):
        assert fitting.poisson_sigmas([0, 1, 4, 2.25e6]).tolist() == [1.0, 1.0, 2.0, 1500.0]

    def test_synthetic_recovery_within_5_percent(self, rng):
        true = G2Params(0.48e-9, 5e-9, 0.8)
        tau = np.linspace(-30e-9, 30e-9, 301)
        clean = fitting.g2_model(tau, true.a, true.tau1, true.tau2)
        noisy = np.clip(clean + rng.normal(0, 0.02, tau.size), 0, None)
        fit = fitting.fit_g2(G2Curve(tau, noisy))
        assert fit.converged
        assert fit["a"] == pytest.approx(true.a, rel=0.05)
        assert fit["tau1"] == pytest.approx(true.tau1, rel=0.05)
        assert fit["tau2"] == pytest.approx(true.tau2, rel=0.05)

    def test_two_level_a_consistent_with_zero(self, rng):
        tau = np.linspace(-10e-9, 10e-9, 201)
        clean = 1.0 - np.exp(-np.abs(tau) / 0.5e-9)
        noisy = np.clip(clean + rng.normal(0, 0.01, tau.size), 0, None)
        fit = fitting.fit_g2(G2Curve(tau, noisy))
        assert fit["a"] <= max(2.0 * fit.sigma("a"), 0.02)
        # a ends on its bound, where the model has no tau2 term: the fit
        # names tau2 unresolved and reads converged=False
        assert fit["a"] == 0.0 and fit.unresolved == ("tau2",) and not fit.converged

    def test_irf_fit_recovers_jittered_tau1(self):
        # jittered stream, tau1 ~ 445 ps vs 296 ps per-photon jitter: the fit
        # with the sqrt(2)-wide pair-delay kernel recovers tau1 within 10%
        rates = ThreeLevelRates(80e6, 1.932e9, 315e6, 50e6)
        from sivcav.models import RadiativeBudget

        budget = RadiativeBudget(0.8e9, 0.2e9, 0.0)
        stream = montecarlo.simulate_stream(rates, budget, 0.03, 1.0, seed=91)
        jittered = montecarlo.apply_jitter(stream, 296e-12, seed=92)
        hist = montecarlo.correlate(jittered, 0.1e-9, 60e-9)
        curve = hist.to_curve()
        true_tau1 = dynamics.g2_params_from_rates(rates).tau1
        pair_sigma = math.sqrt(2.0) * 296e-12
        fit_irf = fitting.fit_g2(curve, irf_sigma=pair_sigma)
        assert fit_irf.converged
        assert fit_irf["tau1"] == pytest.approx(true_tau1, rel=0.10)

    def test_kernel_blind_fit_systematically_off_when_jitter_dominates(self):
        # tau1 ~ 180 ps against a 419 ps pair kernel: forcing g2(0)=0 with no
        # kernel squeezes the fitted tau1 far below truth, while the
        # kernel-aware fit stays accurate
        rates = ThreeLevelRates(50e6, 5.238e9, 318e6, 50e6)
        from sivcav.models import RadiativeBudget

        budget = RadiativeBudget(0.8e9, 0.2e9, 0.0)
        stream = montecarlo.simulate_stream(rates, budget, 0.04, 1.0, seed=93)
        jittered = montecarlo.apply_jitter(stream, 296e-12, seed=94)
        hist = montecarlo.correlate(jittered, 0.05e-9, 40e-9)
        curve = hist.to_curve()
        true_tau1 = dynamics.g2_params_from_rates(rates).tau1
        pair_sigma = math.sqrt(2.0) * 296e-12
        fit_irf = fitting.fit_g2(curve, irf_sigma=pair_sigma)
        fit_raw = fitting.fit_g2(curve)
        assert fit_irf["tau1"] == pytest.approx(true_tau1, rel=0.10)
        assert abs(fit_raw["tau1"] - true_tau1) / true_tau1 > 0.15

    def test_needs_span_beyond_tau2(self):
        tau = np.linspace(-1e-9, 1e-9, 51)
        vals = np.clip(fitting.g2_model(tau, 0.5, 0.2e-9, 0.5e-9), 0, None)
        with pytest.raises(DomainError):
            fitting.fit_g2(G2Curve(tau, vals), init=G2Params(0.2e-9, 5e-9, 0.5))

    def test_needs_eight_points(self):
        tau = np.linspace(-2e-9, 2e-9, 5)
        with pytest.raises(DomainError):
            fitting.fit_g2(G2Curve(tau, np.ones(5)))

    def test_rate_set_round_trip_matches_spectral_params(self, rng):
        # rates -> analytic curve -> fit -> params agrees with the spectral
        # decomposition within the fit uncertainty
        for _ in range(5):
            k21 = rng.uniform(1e9, 3e9)
            rates = ThreeLevelRates(0.4 * k21, k21, 0.25 * k21, 0.04 * k21)
            expected = dynamics.g2_params_from_rates(rates)
            grid = np.unique(
                np.concatenate(
                    [
                        np.linspace(0.0, 8 * expected.tau1, 40, endpoint=False),
                        np.geomspace(8 * expected.tau1, 15 * expected.tau2, 70),
                    ]
                )
            )
            curve = dynamics.g2_analytic(rates, grid)
            noisy = np.clip(curve.values + rng.normal(0, 0.01, grid.size), 0, None)
            fit = fitting.fit_g2(G2Curve(grid, noisy, np.full(grid.size, 0.01)))
            assert fit.converged
            for name, truth in (("a", expected.a), ("tau1", expected.tau1), ("tau2", expected.tau2)):
                assert abs(fit[name] - truth) < 5.0 * max(fit.sigma(name), 0.01 * truth)


class TestFitLorentzians:
    def test_single_peak_q_322(self):
        wl = np.linspace(730.0, 750.0, 500)
        spec = PLSpectrum(wl, fitting.lorentzian_peak(wl, 739.9, 2.3, 900.0) + 40.0)
        fit = fitting.fit_lorentzians(spec, 1, [739.0])
        peak = fitting.lorentzian_peak_summary(fit, 1)[0]
        assert peak["q"] == pytest.approx(739.9 / 2.3, rel=1e-6)
        assert peak["q"] == pytest.approx(322.0, abs=0.5)

    def test_single_peak_q_435(self):
        wl = np.linspace(730.0, 750.0, 500)
        spec = PLSpectrum(wl, fitting.lorentzian_peak(wl, 740.0, 1.7, 900.0) + 40.0)
        fit = fitting.fit_lorentzians(spec, 1, [740.5])
        peak = fitting.lorentzian_peak_summary(fit, 1)[0]
        assert peak["q"] == pytest.approx(740.0 / 1.7, rel=1e-6)
        assert peak["q"] == pytest.approx(435.0, abs=0.5)

    def test_flat_spectrum_amplitude_consistent_with_zero(self, rng):
        wl = np.linspace(730.0, 750.0, 200)
        counts = 100.0 + rng.normal(0, 1.0, 200)
        fit = fitting.fit_lorentzians(PLSpectrum(wl, np.clip(counts, 0, None)), 1, [740.0])
        amp = fit["amplitude_1"]
        assert abs(amp) < 3.0 * max(fit.sigma("amplitude_1"), 1.0)
        assert fit["baseline"] == pytest.approx(100.0, abs=1.0)

    def test_two_peaks(self):
        wl = np.linspace(725.0, 755.0, 700)
        y = (
            30.0
            + fitting.lorentzian_peak(wl, 735.0, 1.5, 500.0)
            + fitting.lorentzian_peak(wl, 746.0, 3.0, 300.0)
        )
        fit = fitting.fit_lorentzians(PLSpectrum(wl, y), 2, [734.0, 747.0])
        peaks = fitting.lorentzian_peak_summary(fit, 2)
        assert peaks[0]["center"] == pytest.approx(735.0, abs=1e-6)
        assert peaks[1]["center"] == pytest.approx(746.0, abs=1e-6)

    def test_init_center_outside_range_rejected(self):
        wl = np.linspace(730.0, 750.0, 100)
        spec = PLSpectrum(wl, np.ones(100))
        with pytest.raises(DomainError):
            fitting.fit_lorentzians(spec, 1, [700.0])


class TestFitCos2:
    def test_recovery_within_10_degrees(self, rng):
        angles = np.linspace(0.0, 170.0, 18)
        clean = fitting.cos2_model(angles, 0.0, 200.0, 20.0)
        noisy = np.clip(clean + rng.normal(0, 10.0, angles.size), 0, None)
        fit = fitting.fit_cos2(PolarizationScan(angles, noisy))
        assert abs(fit["phi0"]) < 10.0

    def test_isotropic_scan_zero_visibility(self, rng):
        angles = np.linspace(0.0, 170.0, 18)
        counts = 100.0 + rng.normal(0, 2.0, angles.size)
        fit = fitting.fit_cos2(PolarizationScan(angles, np.clip(counts, 0, None)))
        assert fitting.cos2_visibility(fit) == pytest.approx(0.0, abs=0.05)

    def test_angle_canonicalized(self):
        angles = np.linspace(0.0, 175.0, 36)
        clean = fitting.cos2_model(angles, 95.0, 150.0, 10.0)
        fit = fitting.fit_cos2(PolarizationScan(angles, clean))
        assert fit["phi0"] == pytest.approx(-85.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_fully_polarized_scan_converges_on_the_bound(self, seed):
        angles = np.arange(0.0, 360.0, 10.0)
        counts = np.random.default_rng(seed).poisson(fitting.cos2_model(angles, 30.0, 400.0, 0.0))
        fit = fitting.fit_cos2(PolarizationScan(angles, counts.astype(float)))
        assert fit.converged
        if fit["i_min"] == 0.0:  # the bound holds: the same as a fit without i_min
            free = fitting.least_squares(lambda phi, phi0, i_max: fitting.cos2_model(phi, phi0, i_max, 0.0),
                                         angles, counts, [fit["phi0"], fit["i_max"]],
                                         jacobian=lambda phi, phi0, i_max:
                                         fitting.cos2_jacobian(phi, phi0, i_max, 0.0)[:, :2])
            assert free.converged
            # both stop at a relative cost change of 1e-12: agreement to 1e-4 sigma
            gap = np.abs(free.values - [fit["phi0"], fit["i_max"]]) / free.sigmas
            assert np.all(gap < 1e-4)

    @pytest.mark.parametrize("phi0, folded", [(40.0, 40.0), (130.0, -50.0), (-120.0, 60.0)])
    def test_angles_beyond_a_half_turn(self, phi0, folded):
        # a scan from -30 to 330 degrees reads the same pattern twice
        angles = np.arange(-30.0, 331.0, 15.0)
        fit = fitting.fit_cos2(PolarizationScan(angles, fitting.cos2_model(angles, phi0, 150.0, 10.0)))
        assert fit["phi0"] == pytest.approx(folded, abs=1e-6)

    def test_fold_angle(self):
        assert fitting.fold_angle(95.0) == pytest.approx(-85.0)
        assert fitting.fold_angle(90.0) == pytest.approx(90.0)
        assert fitting.fold_angle(-90.0) == pytest.approx(90.0)
        assert fitting.fold_angle(180.0) == pytest.approx(0.0)

    def test_needs_span(self):
        angles = np.linspace(0.0, 90.0, 10)
        with pytest.raises(DomainError):
            fitting.fit_cos2(PolarizationScan(angles, np.ones(10)))


class TestFitSaturation:
    def test_recovery_one_milliwatt(self, rng):
        powers = np.linspace(0.1, 6.0, 14)
        clean = fitting.saturation_model(powers, 5e5, 1.0)
        noisy = np.clip(clean * (1 + 0.01 * rng.standard_normal(powers.size)), 0, None)
        fit = fitting.fit_saturation(SaturationCurve(powers, noisy))
        assert fit["p_sat"] == pytest.approx(1.0, rel=0.03)

    def test_recovery_089_milliwatt(self, rng):
        powers = np.linspace(0.1, 6.0, 14)
        clean = fitting.saturation_model(powers, 5e5, 0.89)
        noisy = np.clip(clean * (1 + 0.01 * rng.standard_normal(powers.size)), 0, None)
        fit = fitting.fit_saturation(SaturationCurve(powers, noisy))
        assert fit["p_sat"] == pytest.approx(0.89, rel=0.03)

    def test_linear_regime_large_covariance(self, rng):
        # all powers far below the knee: p_sat barely constrained
        powers = np.linspace(0.001, 0.01, 10)
        clean = fitting.saturation_model(powers, 5e5, 1.0)
        noisy = clean * (1 + 0.005 * rng.standard_normal(powers.size))
        fit = fitting.fit_saturation(SaturationCurve(powers, np.clip(noisy, 0, None)))
        assert fit.sigma("p_sat") / fit["p_sat"] > 0.2

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-9, 1e-12, 1e-13])
    def test_same_fit_in_any_power_unit(self, scale):
        """Criterion 09's curve with its powers in a unit 1/scale times as
        large: the same r_inf and p_sat / scale, p_sat off its bound, and
        the same relative sigmas and correlation. The curve is noiseless, so
        its residual norm is rounding, and the sigmas are taken per unit of
        it."""
        powers = np.linspace(0.05, 6.0, 24)
        rates = fitting.saturation_model(powers, 1e6, 0.9)

        def unit_free(fit):
            c = fit.covariance
            return [*(fit.sigmas / fit.values / fit.residual_norm), c[0, 1] / math.sqrt(c[0, 0] * c[1, 1])]

        fit = fitting.fit_saturation(SaturationCurve(powers * scale, rates))
        assert fit.converged
        assert [fit["r_inf"], fit["p_sat"] / scale] == pytest.approx([1e6, 0.9], rel=1e-9)
        reference = fitting.fit_saturation(SaturationCurve(powers, rates))
        assert unit_free(fit) == pytest.approx(unit_free(reference), rel=1e-9)


def covariance_at(jac, residual):
    """The covariance a fit reports, computed independently from the weighted
    Jacobian and residual of its model at the returned values: (Jt J)^-1
    times the reduced chi-square, from jac with unit columns (a zero column
    left as it is) whose singular values are floored at RANK_TOL of the
    largest (of 1 where jac is zero), as the engine floors them."""
    norms = np.linalg.norm(jac, axis=0)
    units = np.where(norms > 0.0, norms, 1.0)
    _, s, vt = np.linalg.svd(jac / units, full_matrices=False)
    s = np.clip(s, fitting.RANK_TOL * (s[0] if s[0] > 0.0 else 1.0), None)
    w = vt / units
    return (w.T * (1.0 / s**2)) @ w * float(residual @ residual) / (residual.size - jac.shape[1])


def assert_same_covariance(covariance, reference):
    # to 1e-9 of the scale sqrt(C_ii C_jj) of each entry
    scale = np.sqrt(np.outer(np.diag(reference), np.diag(reference)))
    np.testing.assert_allclose(covariance / scale, reference / scale, rtol=0, atol=1e-9)


def g2_from_nearly_equal_lifetimes(seed):
    """A seeded noisy g2 curve (tau2/tau1 in 1.1-32, 241 delays over +-30
    tau2, Gaussian noise passed as sigma) fitted from a start with the two
    lifetimes nearly equal, and the covariance of its model's Jacobian at
    the returned values. Some of these fits collapse to tau1 on its bound,
    where that Jacobian's tau1 column (for some, every column) is zero."""
    rng = np.random.default_rng(seed)
    tau2 = 5e-9
    tau = np.linspace(-30 * tau2, 30 * tau2, 241)
    ratio = float(np.exp(rng.uniform(np.log(1.1), np.log(32.0))))
    a = float(rng.uniform(0.5, 3.0))
    sd = float(rng.uniform(0.001, 0.005))
    clean = fitting.g2_model(tau, a, tau2 / ratio, tau2)
    curve = G2Curve(tau, np.clip(clean + rng.normal(0, sd, tau.size), 0, None), np.full(tau.size, sd))
    fit = fitting.fit_g2(curve, init=G2Params(0.9 * tau2, 1.1 * tau2, a))
    weights = 1.0 / curve.sigmas
    jac = fitting.g2_jacobian(tau, *fit.values, 0.0) * weights[:, None]
    residual = (fitting.g2_model(tau, *fit.values) - curve.values) * weights
    return fit, covariance_at(jac, residual)


class TestCovarianceAtReturnedValues:
    """The covariance a fitter reports is the one of its model's Jacobian at
    the values it reports, also where an iteration in the reported
    parameters would end with them in the other order: tau1 > tau2 for g2,
    i_max < i_min for cos^2."""

    # seeds of g2_from_nearly_equal_lifetimes whose iteration in
    # (a, tau1, tau2) ends with tau1 > tau2; the fit of each seed listed in
    # COLLAPSED ends with tau1 on its bound, where the Jacobian's tau1
    # column (for 407 every column) is zero, and names that direction
    COLLAPSED = {407: ("a", "tau1", "tau2"), 502: ("tau1",), 612: ("tau1",), 751: ("tau1",), 759: ("tau1",)}

    @pytest.mark.parametrize("seed", [156, 295, 407, 502, 612, 658, 751, 759])
    def test_g2_whose_lifetimes_cross(self, seed):
        fit, reference = g2_from_nearly_equal_lifetimes(seed)
        assert fit.names == ("a", "tau1", "tau2") and fit["tau1"] < fit["tau2"]
        unresolved = self.COLLAPSED.get(seed, ())
        assert fit.unresolved == unresolved and fit.converged == (not unresolved)
        assert (fit.rank_ratio == 0.0) == bool(unresolved)
        assert_same_covariance(fit.covariance, reference)

    def test_every_collapsed_fit_is_flagged(self):
        """Of seeds 0-299, 78 fits end with tau1 on its bound (ROADMAP item
        1). Each of them, and no other, names tau1 unresolved and reads
        converged=False; every covariance is finite."""
        collapsed = 0
        for seed in range(300):
            fit, _ = g2_from_nearly_equal_lifetimes(seed)
            assert np.isfinite(fit.covariance).all()
            on_bound = fit["tau1"] <= 1.5e-16 * (1.0 + 1e-12)  # tiny = 1e-9 of the 150 ns span
            assert ("tau1" in fit.unresolved) == on_bound
            assert not (on_bound and fit.converged)
            collapsed += on_bound
        assert collapsed == 78

    @pytest.mark.parametrize("first", range(0, 100, 25))
    def test_g2_from_nearly_equal_lifetimes(self, first):
        for seed in range(first, first + 25):
            fit, reference = g2_from_nearly_equal_lifetimes(seed)
            assert fit.names == ("a", "tau1", "tau2") and fit["tau1"] < fit["tau2"]
            assert_same_covariance(fit.covariance, reference)

    # 19 angles over 0-180 degrees, i_min/i_max in 0.5-1, noise sd 1-20
    @pytest.mark.parametrize("first", range(0, 200, 50))
    def test_cos2_of_weak_modulation(self, first):
        angles = np.linspace(0.0, 180.0, 19)
        for seed in range(first, first + 50):
            rng = np.random.default_rng(seed)
            i_max = 100.0
            i_min = i_max * float(rng.uniform(0.5, 1.0))
            clean = fitting.cos2_model(angles, float(rng.uniform(-90.0, 90.0)), i_max, i_min)
            noisy = np.clip(clean + rng.normal(0, float(rng.uniform(1.0, 20.0)), angles.size), 0, None)
            scan = PolarizationScan(angles, noisy)
            fit = fitting.fit_cos2(scan)
            assert fit["i_max"] >= fit["i_min"] and -90.0 < fit["phi0"] <= 90.0
            jac = fitting.cos2_jacobian(angles, *fit.values)
            residual = fitting.cos2_model(angles, *fit.values) - scan.intensities
            assert_same_covariance(fit.covariance, covariance_at(jac, residual))


class TestFitResultSerialization:
    def test_json_shape(self):
        x = np.linspace(0.0, 5.0, 20)
        fit = fitting.least_squares(line, x, 2 * x + 1, [1.0, 0.0], names=("a", "b"), jacobian=line_jacobian)
        doc = fit.to_dict()
        assert set(doc) == {"params", "covariance", "residual_norm", "iterations", "converged", "rank_ratio",
                            "unresolved", "nfev", "njev"}
        assert doc["unresolved"] == [] and 0.0 < doc["rank_ratio"] <= 1.0
        assert (doc["nfev"], doc["njev"]) == (fit.nfev, fit.njev)
        assert doc["params"]["a"]["value"] == pytest.approx(2.0, abs=1e-9)
        assert "sigma" in doc["params"]["a"]
        cov = np.asarray(doc["covariance"])
        assert cov.shape == (2, 2)
        assert np.allclose(cov, cov.T)
