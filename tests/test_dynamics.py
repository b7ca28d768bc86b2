import warnings
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from sivcav import dynamics, fitting
from sivcav.errors import DegenerateEigenvaluesWarning, DomainError, ValidationError
from sivcav.models import G2Params, SaturationCurve, ThreeLevelRates


def random_rates(rng, allow_zero_k23=False):
    k21 = rng.uniform(0.5e9, 5e9)
    k23 = 0.0 if (allow_zero_k23 and rng.random() < 0.2) else k21 * rng.uniform(0.05, 0.4)
    k31 = k21 * rng.uniform(0.01, 0.1)
    k12 = k21 * rng.uniform(0.02, 1.5)
    return ThreeLevelRates(k12, k21, k23, k31)


def reference_g2_params(k12, k21, k23, k31):
    """One 3x3 eig and two solves per rate set, as (tau1, tau2, a), or None
    where no two-exponential form exists: the reference for the stacked path."""
    try:
        r = ThreeLevelRates(k12, k21, k23, k31)
    except ValidationError:
        return None
    g = np.array([[-r.k12, r.k21, r.k31], [r.k12, -(r.k21 + r.k23), 0.0], [0.0, r.k23, -r.k31]])
    w, v = np.linalg.eig(g)
    scale = float(np.max(np.abs(w)))
    if scale == 0.0 or np.max(np.abs(w.imag)) > 1e-9 * scale:
        return None
    w, v = w.real, v.real
    order = np.argsort(np.abs(w))
    p2ss = reference_steady_state(g)[1]
    if p2ss <= 0.0:
        return None
    fast, slow = order[2], order[1]
    if r.k23 == 0.0:
        # the shelf is unreachable, so g2 is the bright mode alone (a = 0):
        # tau1 is the root whose eigenvector leaves the shelf empty
        fast, slow = sorted((fast, slow), key=lambda i: abs(v[2, i]))
    lam_fast, lam_slow = float(w[fast]), float(w[slow])
    if abs(lam_fast - lam_slow) <= dynamics.DEGENERACY_RTOL * max(abs(lam_fast), abs(lam_slow)):
        return None
    alpha = np.linalg.solve(v, np.array([1.0, 0.0, 0.0]))
    a = 0.0 if r.k23 == 0.0 else float(v[1, slow] * alpha[slow]) / p2ss
    if a < -1e-9:
        return None
    try:
        g2p = G2Params(-1.0 / lam_fast, -1.0 / lam_slow, a if a > 0.0 else 0.0)
    except ValidationError:
        return None
    return g2p.tau1, g2p.tau2, g2p.a


def reference_steady_state(g):
    a = g.copy()
    a[0, :] = 1.0
    p = np.clip(np.linalg.solve(a, np.array([1.0, 0.0, 0.0])), 0.0, None)
    return p / p.sum()


EPS = np.finfo(float).eps


def _exact(*values):
    return [Decimal(float(v)) for v in values]


def exact_spectrum(k12, k21, k23, k31):
    """(tau1, tau2, raw a, kappa) in 50-digit arithmetic, kappa = S / sqrt(D)
    the conditioning of the two roots; None where D <= 0. At k23 = 0, g2 is
    the two-level form: tau1 = 1/(k12 + k21), tau2 = 1/k31 and a = 0."""
    with localcontext() as ctx:
        ctx.prec = 50
        k12, k21, k23, k31 = _exact(k12, k21, k23, k31)
        s = k12 + k21 + k23 + k31
        d = (k12 + k21 + k23 - k31) ** 2 - 4 * k12 * k23
        if d <= 0:
            return None
        root = d.sqrt()
        if k23 == 0:
            return 1 / (k12 + k21), 1 / k31, Decimal(0), s / root
        lam_fast, lam_slow = -(s + root) / 2, -(s - root) / 2
        q = (k12 * (k23 + k31) + (k21 + k23) * k31) / k31
        return -1 / lam_fast, -1 / lam_slow, (q + lam_fast) / root, s / root


def exact_p2(k12, k21, k23, k31):
    with localcontext() as ctx:
        ctx.prec = 50
        k12, k21, k23, k31 = _exact(k12, k21, k23, k31)
        return k12 * k31 / (k12 * (k23 + k31) + (k21 + k23) * k31)


def assert_near_exact(params, exact):
    """tau1 and tau2 within 8 eps kappa, a within 8 eps kappa^2 relative of
    exact arithmetic: the roots carry the round-off of D amplified by kappa,
    and a = b / sqrt(D) carries it amplified by kappa^2. The 1e-40 floor
    absorbs the oracle's own rounding where a is 0."""
    tau1, tau2, a, kappa = exact
    kappa = float(kappa)
    for got, want, bound in (
        (params[0], tau1, 8 * EPS * kappa),
        (params[1], tau2, 8 * EPS * kappa),
        (params[2], max(a, Decimal(0)), 8 * EPS * kappa**2),
    ):
        assert abs(Decimal(float(got)) - want) <= Decimal(bound) * abs(want) + Decimal("1e-40")


class TestGenerator:
    def test_column_sums_vanish(self, shelving_rates):
        g = dynamics.generator(shelving_rates)
        assert np.allclose(g.sum(axis=0), 0.0, atol=1e-12 * np.abs(g).max())

    def test_structure(self):
        g = dynamics.generator(ThreeLevelRates(1.0, 2.0, 3.0, 4.0))
        expected = np.array([[-1.0, 2.0, 4.0], [1.0, -5.0, 0.0], [0.0, 3.0, -4.0]])
        assert np.array_equal(g, expected)

    def test_decay_only_has_two_negative_diagonals(self):
        g = dynamics.generator(ThreeLevelRates(0.0, 2e9, 0.0, 5e7))
        diag = np.diag(g)
        assert np.sum(diag < 0) == 2

    def test_eigenvalues_shelving_case(self, shelving_rates):
        # numeric eigensolver oracle: one zero and two negative real eigenvalues
        w = np.linalg.eigvals(dynamics.generator(shelving_rates))
        assert np.max(np.abs(w.imag)) < 1e-6 * np.max(np.abs(w.real))
        w = np.sort(w.real)
        assert abs(w[2]) < 1e-6 * abs(w[0])
        assert w[0] < 0 and w[1] < 0


class TestSteadyState:
    def test_no_pump(self):
        p = dynamics.steady_state(ThreeLevelRates(0.0, 2e9, 1e8, 5e7))
        assert p == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    def test_two_level_balance(self):
        p = dynamics.steady_state(ThreeLevelRates(2e9, 2e9, 0.0, 5e7))
        assert p[1] == pytest.approx(0.5, rel=1e-12)
        assert p[2] == pytest.approx(0.0, abs=1e-15)

    def test_kernel_residual(self, rng):
        for _ in range(50):
            rates = random_rates(rng)
            p = dynamics.steady_state(rates)
            g = dynamics.generator(rates)
            assert np.max(np.abs(g @ p)) < 1e-12 * np.abs(g).max()
            assert p.sum() == pytest.approx(1.0, rel=1e-12)
            assert np.all(p >= 0)


class TestG2Analytic:
    def test_antibunching_at_zero(self, shelving_rates):
        curve = dynamics.g2_analytic(shelving_rates, np.array([0.0, 1e-9]))
        assert curve.values[0] == 0.0

    def test_long_delay_limit(self, shelving_rates):
        w = np.linalg.eigvals(dynamics.generator(shelving_rates)).real
        slowest = np.min(np.abs(w[np.abs(w) > 1e-3]))
        curve = dynamics.g2_analytic(shelving_rates, np.array([10.0 / slowest]))
        assert curve.values[0] == pytest.approx(1.0, abs=1e-4)

    def test_two_level_closed_form(self):
        # closed-form oracle: g2 = 1 - exp(-(k12+k21) tau)
        rates = ThreeLevelRates(0.8e9, 2e9, 0.0, 5e7)
        tau = np.linspace(0.0, 5e-9, 200)
        curve = dynamics.g2_analytic(rates, tau)
        oracle = 1.0 - np.exp(-(rates.k12 + rates.k21) * tau)
        assert np.max(np.abs(curve.values - oracle)) < 1e-10

    def test_negative_delays_symmetric(self, shelving_rates):
        tau = np.array([-2e-9, -1e-9, 1e-9, 2e-9])
        curve = dynamics.g2_analytic(shelving_rates, tau)
        assert curve.values[0] == pytest.approx(curve.values[3], rel=1e-12)
        assert curve.values[1] == pytest.approx(curve.values[2], rel=1e-12)

    def test_matrix_exponential_agreement(self, shelving_rates, rng):
        # independent brute-force propagation oracle
        tau = np.sort(rng.uniform(0.0, 3e-8, 8))
        tau = np.unique(tau)
        curve = dynamics.g2_analytic(shelving_rates, tau)
        g = dynamics.generator(shelving_rates)
        p2ss = dynamics.steady_state(shelving_rates)[1]
        e1 = np.array([1.0, 0.0, 0.0])
        oracle = np.array([(expm(g * t) @ e1)[1] / p2ss for t in tau])
        assert np.max(np.abs(curve.values - oracle)) < 1e-9

    @pytest.mark.parametrize("delays, message", [
        ([0.0, np.nan, 2e-9], "delays contains non-finite entries"),
        ([0.0, 1e-9, np.inf], "delays contains non-finite entries"),
        ([0.0, 2e-9, 1e-9], "delays must be strictly increasing"),
        ([], "delays must be a non-empty 1-D array"),
        ([[0.0, 1e-9]], "delays must be a non-empty 1-D array"),
    ])
    def test_malformed_delays_named(self, shelving_rates, delays, message):
        with pytest.raises(DomainError) as err:
            dynamics.g2_analytic(shelving_rates, delays)
        assert str(err.value) == message


class TestG2Params:
    def test_shelving_off(self):
        rates = ThreeLevelRates(0.8e9, 2e9, 0.0, 5e7)
        params = dynamics.g2_params_from_rates(rates)
        assert params.a == 0.0
        assert params.tau1 == pytest.approx(1.0 / (rates.k12 + rates.k21), rel=1e-9)

    @pytest.mark.parametrize("k31", [5e9, 5e7])  # faster, then slower than k12 + k21
    def test_no_shelving_is_the_two_level_form(self, k31):
        # with k23 = 0 the shelf is never reached: g2 = 1 - e^(-(k12 + k21) tau),
        # also where -k31 is the faster root (which once raised "a = -1")
        rates = ThreeLevelRates(1e8, 1e9, 0.0, k31)
        params = dynamics.g2_params_from_rates(rates)
        assert (params.tau1, params.tau2, params.a) == (1.0 / 1.1e9, 1.0 / k31, 0.0)
        tau = np.linspace(0.0, 10e-9, 41)
        closed = fitting.g2_model(tau, params.a, params.tau1, params.tau2)
        assert np.max(np.abs(closed - (1.0 - np.exp(-1.1e9 * tau)))) < 1e-15
        assert np.max(np.abs(dynamics.g2_analytic(rates, tau).values - closed)) < 1e-15
        g = dynamics.generator(rates)
        p2ss = dynamics.steady_state(rates)[1]
        brute = [(expm(g * t) @ np.array([1.0, 0.0, 0.0]))[1] / p2ss for t in tau]
        assert np.max(np.abs(brute - closed)) < 1e-12
        powers = np.array([0.5, 1.0, 2.0])
        sweep = dynamics.power_sweep(rates, dynamics.PumpModel(1e8), powers)
        expected = [1.0 / (1e8 * p + 1e9) for p in powers] + [1.0 / k31] * 3 + [0.0] * 3
        assert [g.tau1 for g in sweep.params] + [g.tau2 for g in sweep.params] + \
            [g.a for g in sweep.params] == expected
        spectra = dynamics._relaxation_spectra(1e8 * powers, 1e9, 0.0, k31)
        assert dynamics._sweep_observables(spectra).tolist() == expected

    def test_vanishing_pump_limit(self):
        rates = ThreeLevelRates(1e3, 2.247e9, 315e6, 5e7)
        params = dynamics.g2_params_from_rates(rates)
        assert params.tau1 == pytest.approx(1.0 / (2.247e9 + 315e6), rel=1e-4)

    def test_matches_analytic_pointwise(self, rng):
        for _ in range(30):
            rates = random_rates(rng)
            params = dynamics.g2_params_from_rates(rates)
            tau = np.linspace(0.0, 20.0 * params.tau2, 64)
            curve = dynamics.g2_analytic(rates, tau)
            closed = fitting.g2_model(tau, params.a, params.tau1, params.tau2)
            assert np.max(np.abs(curve.values - np.clip(closed, 0, None))) < 1e-9

    def test_tau2_exceeds_tau1(self, rng):
        for _ in range(30):
            params = dynamics.g2_params_from_rates(random_rates(rng))
            assert params.tau2 > params.tau1

    def test_degenerate_warns_and_returns_none(self):
        # equal rates give exactly degenerate relaxation eigenvalues
        k = 1e9
        with pytest.warns(DegenerateEigenvaluesWarning):
            out = dynamics.g2_params_from_rates(ThreeLevelRates(k, k, k, k))
        assert out is None

    def test_degenerate_case_still_sampled_by_analytic(self):
        k = 1e9
        curve = dynamics.g2_analytic(ThreeLevelRates(k, k, k, k), np.linspace(0, 1e-8, 50))
        assert curve.values[0] == 0.0
        assert curve.values[-1] == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_branch_matches_exact_arithmetic(self):
        # scipy's expm is off by 2.2e-14 here, so the oracle is 50-digit
        # arithmetic on g2 = 1 - e^(lf t) + b t e^(lf t) (e^(dt) - 1) / (dt)
        tau = np.linspace(0.0, 1e-8, 50)
        for k31 in (1e9, 1e9 - 1e-4):  # sqrt(D) = 0 and 3e-7 |lam_fast|
            rates = ThreeLevelRates(1e9, 1e9, 1e9, k31)
            with pytest.warns(DegenerateEigenvaluesWarning):
                assert dynamics.g2_params_from_rates(rates) is None
            curve = dynamics.g2_analytic(rates, tau)
            with localcontext() as ctx:
                ctx.prec = 50
                k12, k21, k23, k31 = _exact(rates.k12, rates.k21, rates.k23, rates.k31)
                s = k12 + k21 + k23 + k31
                root = ((k12 + k21 + k23 - k31) ** 2 - 4 * k12 * k23).sqrt()
                lam_fast = -(s + root) / 2
                b = (k12 * (k23 + k31) + (k21 + k23) * k31) / k31 + lam_fast
                for t, value in zip(_exact(*tau), curve.values):
                    x = root * t
                    shape = (x.exp() - 1) / x if x else Decimal(1)
                    exact = 1 - (lam_fast * t).exp() + b * t * (lam_fast * t).exp() * shape
                    assert abs(Decimal(float(value)) - exact) <= Decimal("1e-15")

    def test_shelving_amplitude_continuous_as_k23_vanishes(self):
        # a -> 0 with no jump over a log-spaced shelving sweep
        a_values = []
        for k23 in np.logspace(9, 2, 30):
            params = dynamics.g2_params_from_rates(ThreeLevelRates(5e8, 2e9, k23, 5e7))
            a_values.append(params.a)
        assert all(a >= 0 for a in a_values)
        assert all(b <= a * 1.5 + 1e-12 for a, b in zip(a_values, a_values[1:]))
        assert a_values[-1] < 1e-4


class TestProbabilityConservation:
    def test_expm_propagation(self, shelving_rates):
        g = dynamics.generator(shelving_rates)
        step = expm(g * 1e-11)
        p = np.array([1.0, 0.0, 0.0])
        for _ in range(1000):
            p = step @ p
        assert p.sum() == pytest.approx(1.0, abs=1e-10)


class TestPowerSweep:
    def test_tau1_monotone_decreasing(self):
        base = ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6)
        pump = dynamics.PumpModel(1.5e9)
        sweep = dynamics.power_sweep(base, pump, np.linspace(0.1, 3.0, 12))
        tau1 = [g.tau1 for g in sweep.params]
        assert all(b < a for a, b in zip(tau1, tau1[1:]))

    def test_pump_reparametrization_invariance(self):
        base = ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6)
        powers = np.array([0.2, 0.5, 1.0])
        s1 = dynamics.power_sweep(base, dynamics.PumpModel(1e9), 2.0 * powers)
        s2 = dynamics.power_sweep(base, dynamics.PumpModel(2e9), powers)
        for g1, g2 in zip(s1.params, s2.params):
            assert g1.tau1 == pytest.approx(g2.tau1, rel=1e-12)
            assert g1.tau2 == pytest.approx(g2.tau2, rel=1e-12)
            assert g1.a == pytest.approx(g2.a, rel=1e-12)

    def test_non_positive_power_named_as_a_power(self):
        # checked before any pump rate is formed, by both functions that form one
        base = ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6)
        pump = dynamics.PumpModel(1.5e9)
        for powers in ([0.0, 1.0], [-1.0, 1.0]):
            for call in (lambda: dynamics.power_sweep(base, pump, powers),
                         lambda: dynamics.saturation_curve(base, pump, 0.5, powers)):
                with pytest.raises(DomainError) as err:
                    call()
                assert str(err.value) == "powers must be positive"

    def test_zero_power_limit(self):
        base = ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6)
        sweep = dynamics.power_sweep(base, dynamics.PumpModel(1.5e9), [1e-6])
        assert sweep.params[0].tau1 == pytest.approx(1.0 / 2.5e9, rel=1e-4)

    def test_matches_bruteforce_matrix_exponential(self, rng):
        base = ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6)
        pump = dynamics.PumpModel(0.33e9)
        powers = np.linspace(0.1, 3.0, 8)
        sweep = dynamics.power_sweep(base, pump, powers)
        for power, params in zip(powers, sweep.params):
            rates = replace(base, k12=pump.sigma * power)
            g = dynamics.generator(rates)
            p2ss = dynamics.steady_state(rates)[1]
            tau = np.linspace(0.0, 10 * params.tau2, 40)
            brute = np.array([(expm(g * t) @ np.array([1.0, 0, 0]))[1] / p2ss for t in tau])
            closed = fitting.g2_model(tau, params.a, params.tau1, params.tau2)
            assert np.max(np.abs(brute - closed)) < 1e-9


class TestStackedSpectrum:
    """The stacked spectrum equals the per-rate-set computation entry by entry."""

    POWERS = np.array([0.15, 0.35, 0.65, 1.0, 1.5, 2.2])

    def parameter_points(self):
        rng = np.random.default_rng(4711)
        points = []
        for _ in range(60):
            k21 = rng.uniform(1e9, 4e9)
            f = np.exp(rng.normal(0.0, 1.0, 4))
            points.append((
                k21 * f[0],
                k21 * rng.uniform(0.10, 0.35) * f[1] * rng.choice([1.0, 0.0, 30.0]),
                k21 * rng.uniform(0.02, 0.08) * f[2] * rng.choice([1.0, 50.0]),
                k21 * rng.uniform(0.3, 0.8) * f[3],
            ))
        points += [
            (1e9, 1e9, 1e9, 1e9),  # degenerate at 1 mW
            (4.0, 0.5, 4.0, 0.5),  # degenerate with a singular eigenvector matrix at 1 mW
            (1.77e8, 2.19e9, 1.97e9, 1.14e8),  # complex eigenvalues at every power
            (0.0, 3e8, 6e7, 1.5e9),  # k21 = 0
            (-2e9, 3e8, 6e7, 1.5e9),  # k21 < 0
            (2e9, 3e8, 6e7, -1.5e9),  # negative sigma
            (2e9, 3e8, np.nan, 1.5e9),  # k31 not a number
        ]
        return points

    def reference_observables(self, k21, k23, k31, sigma):
        out = np.empty(3 * self.POWERS.size)
        for i, p in enumerate(self.POWERS):
            ref = reference_g2_params(sigma * p, k21, k23, k31)
            out[i::self.POWERS.size] = np.inf if ref is None else ref
        return out

    def test_sweep_observables_match_per_power_loop(self):
        kinds = set()
        for k21, k23, k31, sigma in self.parameter_points():
            stacked = dynamics._sweep_observables(dynamics._relaxation_spectra(sigma * self.POWERS, k21, k23, k31))
            reference = self.reference_observables(k21, k23, k31, sigma)
            assert np.array_equal(np.isinf(stacked), np.isinf(reference))
            for i, p in enumerate(self.POWERS):
                try:
                    rates = ThreeLevelRates(sigma * p, k21, k23, k31)
                except ValidationError:
                    kinds.add("invalid rates")
                    continue
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", DegenerateEigenvaluesWarning)
                        g2p = dynamics.g2_params_from_rates(rates)
                except DegenerateEigenvaluesWarning:
                    kinds.add("degenerate")
                    assert np.all(np.isinf(stacked[i::self.POWERS.size]))
                    continue
                except DomainError as err:
                    kinds.add(str(err).split(":")[0].split(" a =")[0])
                    assert np.all(np.isinf(stacked[i::self.POWERS.size]))
                    continue
                assert (g2p.tau1, g2p.tau2, g2p.a) == tuple(stacked[i::self.POWERS.size])
                assert_near_exact(stacked[i::self.POWERS.size], exact_spectrum(sigma * p, k21, k23, k31))
        assert kinds >= {
            "invalid rates", "degenerate", "complex relaxation eigenvalues",
            "negative bunching amplitude",
        }

    @settings(max_examples=300, deadline=None)
    @given(
        rates=st.lists(st.floats(6.0, 11.0), min_size=4, max_size=4).map(lambda x: [10.0**v for v in x]),
        shape=st.sampled_from(["free", "no shelving", "near degenerate"]),
        offset=st.floats(-15.0, -2.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_closed_form_against_exact_arithmetic(self, rates, shape, offset, sign):
        k12, k21, k23, k31 = rates
        if shape == "no shelving":
            k23 = 0.0
        elif shape == "near degenerate":  # D = 0 at k31 = k21 + (sqrt(k12) - sqrt(k23))^2
            k31 = (k21 + (np.sqrt(k12) - np.sqrt(k23)) ** 2) * (1.0 + sign * 10.0**offset)
        exact = exact_spectrum(k12, k21, k23, k31)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DegenerateEigenvaluesWarning)
                params = dynamics.g2_params_from_rates(ThreeLevelRates(k12, k21, k23, k31))
        except DegenerateEigenvaluesWarning:  # declared at kappa >= 2e6, up to round-off
            assert exact is None or exact[3] > 1e6
            return
        except DomainError as err:
            if str(err).startswith("complex"):
                assert exact is None
            else:
                assert exact is not None and exact[2] < 0
            return
        assert exact is not None
        assert_near_exact((params.tau1, params.tau2, params.a), exact)
        if k23 == 0.0:
            assert params.a == 0.0

    def test_singular_eigenvector_matrix_does_not_fail_the_stack(self):
        # at 1 mW the generator is defective: the real part of its eigenvector
        # matrix is singular and np.linalg.solve on it raises LinAlgError
        g = dynamics.generator(ThreeLevelRates(0.5, 4.0, 0.5, 4.0))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.linalg.eig(g)[1].real, np.array([1.0, 0.0, 0.0]))
        spectra = dynamics._relaxation_spectra(0.5 * np.array([0.3, 1.0, 2.0]), 4.0, 0.5, 4.0)
        out = dynamics._sweep_observables(spectra)
        assert np.isinf(out[1::3]).all()
        assert np.isfinite(np.delete(out, [1, 4, 7])).all()

    def test_power_sweep_and_saturation_match_per_power_values(self):
        for k21, k23, k31, sigma in self.parameter_points()[:60]:
            base = ThreeLevelRates(0.0, k21, k23, k31)
            pump = dynamics.PumpModel(sigma)
            per_power = [replace(base, k12=sigma * p) for p in self.POWERS]
            refs = [reference_g2_params(r.k12, k21, k23, k31) for r in per_power]
            if all(ref is not None for ref in refs):
                sweep = dynamics.power_sweep(base, pump, self.POWERS)
                assert list(sweep.params) == [dynamics.g2_params_from_rates(r) for r in per_power]
                for g, r in zip(sweep.params, per_power):
                    assert_near_exact((g.tau1, g.tau2, g.a), exact_spectrum(r.k12, k21, k23, k31))
            curve = dynamics.saturation_curve(base, pump, 0.3, self.POWERS, eta_qe=0.7)
            p2 = [dynamics.steady_state(r)[1] for r in per_power]
            assert curve.rates.tolist() == [0.3 * 0.7 * k21 * x for x in p2]
            for x, r in zip(p2, per_power):
                exact = exact_p2(r.k12, k21, k23, k31)
                assert abs(Decimal(float(x)) - exact) <= Decimal(3 * EPS) * exact

    def test_power_sweep_degenerate_and_invalid_powers(self):
        base = ThreeLevelRates(0.0, 1e9, 1e9, 1e9)
        with pytest.warns(DegenerateEigenvaluesWarning):
            sweep = dynamics.power_sweep(base, dynamics.PumpModel(1e9), [0.5, 1.0, 2.0])
        assert sweep.params[1] is None
        assert sweep.params[0] is not None and sweep.params[2] is not None
        complex_base = ThreeLevelRates(0.0, 1.77e8, 2.19e9, 1.97e9)
        with pytest.raises(DomainError, match="complex relaxation eigenvalues"):
            dynamics.power_sweep(complex_base, dynamics.PumpModel(1.14e8), [0.5, 1.0, 2.0])
        with pytest.raises(DomainError, match="^powers contains non-finite entries$"):
            dynamics.saturation_curve(base, dynamics.PumpModel(1e9), 0.5, [1.0, np.inf])


class TestExtrapolateZeroPower:
    def test_exact_recovery(self):
        base = ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6)
        pump = dynamics.PumpModel(1.5e9)
        sweep = dynamics.power_sweep(base, pump, np.array([0.1, 0.3, 0.6, 1.0, 1.6, 2.4]))
        zero = dynamics.extrapolate_zero_power(sweep)
        assert zero.tau1_zero == pytest.approx(1.0 / 2.5e9, rel=1e-6)
        assert zero.rates.k21 == pytest.approx(2.2e9, rel=1e-6)
        assert zero.sigma == pytest.approx(1.5e9, rel=1e-6)

    def test_noisy_recovery_within_5_percent(self, rng):
        base = ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6)
        pump = dynamics.PumpModel(1.5e9)
        sweep = dynamics.power_sweep(base, pump, np.array([0.1, 0.3, 0.6, 1.0, 1.6, 2.4]))
        noisy = tuple(
            G2Params(
                g.tau1 * (1 + 0.01 * rng.standard_normal()),
                g.tau2 * (1 + 0.01 * rng.standard_normal()),
                max(g.a * (1 + 0.01 * rng.standard_normal()), 0.0),
            )
            for g in sweep.params
        )
        zero = dynamics.extrapolate_zero_power(dynamics.PowerSweep(sweep.powers, noisy))
        assert zero.rates.k21 == pytest.approx(2.2e9, rel=0.05)

    def test_shelving_off_gives_exact_k21_lifetime(self):
        base = ThreeLevelRates(0.0, 2.2e9, 0.0, 60e6)
        pump = dynamics.PumpModel(1.5e9)
        sweep = dynamics.power_sweep(base, pump, np.array([0.2, 0.5, 1.0, 2.0]))
        zero = dynamics.extrapolate_zero_power(sweep)
        assert zero.rates.k23 == pytest.approx(0.0, abs=1e-3 * 2.2e9 * 1e-6)
        assert zero.tau1_zero == pytest.approx(1.0 / 2.2e9, rel=1e-6)

    def test_inhibition_factor_of_two(self):
        # bulk 1.3 ns vs bandgap 2.6 ns zero-power lifetimes at small shelving
        pump = dynamics.PumpModel(0.5e9)
        powers = np.array([0.1, 0.3, 0.7, 1.2, 2.0])
        fits = {}
        for label, k21 in (("bulk", 1.0 / 1.3e-9), ("phc", 1.0 / 2.6e-9)):
            base = ThreeLevelRates(0.0, k21, 0.01 * k21, 0.02 * k21)
            sweep = dynamics.power_sweep(base, pump, powers)
            fits[label] = dynamics.extrapolate_zero_power(sweep)
        assert fits["bulk"].tau1_zero == pytest.approx(1.3e-9, rel=0.02)
        assert fits["phc"].tau1_zero == pytest.approx(2.6e-9, rel=0.02)
        assert fits["bulk"].rates.k21 / fits["phc"].rates.k21 == pytest.approx(2.0, rel=0.02)

    def test_needs_three_powers(self):
        sweep = dynamics.power_sweep(
            ThreeLevelRates(0.0, 2e9, 1e8, 5e7), dynamics.PumpModel(1e9), [0.5, 1.0]
        )
        with pytest.raises(DomainError):
            dynamics.extrapolate_zero_power(sweep)

    def test_round_trip_consistency(self):
        # fitted rates fed back through power_sweep reproduce the observations
        base = ThreeLevelRates(0.0, 1.8e9, 0.25e9, 40e6)
        pump = dynamics.PumpModel(1.1e9)
        powers = np.array([0.15, 0.4, 0.8, 1.4, 2.2])
        sweep = dynamics.power_sweep(base, pump, powers)
        zero = dynamics.extrapolate_zero_power(sweep)
        back = dynamics.power_sweep(zero.rates, dynamics.PumpModel(zero.sigma), powers)
        for g_obs, g_back in zip(sweep.params, back.params):
            assert g_back.tau1 == pytest.approx(g_obs.tau1, rel=1e-5)
            assert g_back.tau2 == pytest.approx(g_obs.tau2, rel=1e-5)
            assert g_back.a == pytest.approx(g_obs.a, rel=1e-4, abs=1e-9)


class TestSaturation:
    def test_plateau_and_half_point(self):
        base = ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6)
        pump = dynamics.PumpModel(1.5e9)
        p_sat = pump.p_sat(base)
        p2_max = base.k31 / (base.k31 + base.k23)
        curve = dynamics.saturation_curve(base, pump, 0.2, [p_sat, 1000.0 * p_sat], eta_qe=0.5)
        plateau = 0.2 * 0.5 * base.k21 * p2_max
        assert curve.rates[1] == pytest.approx(plateau, rel=1e-3)
        assert curve.rates[0] == pytest.approx(0.5 * plateau, rel=1e-9)

    def test_two_level_closed_form(self):
        base = ThreeLevelRates(0.0, 2.2e9, 0.0, 60e6)
        pump = dynamics.PumpModel(1.5e9)
        powers = np.linspace(0.05, 12.0, 30)
        curve = dynamics.saturation_curve(base, pump, 0.3, powers)
        p_sat = base.k21 / pump.sigma
        oracle = 0.3 * base.k21 * powers / (powers + p_sat)
        assert np.max(np.abs(curve.rates - oracle) / oracle) < 1e-10

    def test_qe_recovery(self, rng):
        base = ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6)
        pump = dynamics.PumpModel(1.5e9)
        powers = np.linspace(0.05, 15.0, 25)
        for eta_true in (0.63, 0.18):
            curve = dynamics.saturation_curve(base, pump, 0.07, powers, eta_qe=eta_true)
            noisy = np.clip(curve.rates * (1 + 0.01 * rng.standard_normal(powers.size)), 0, None)
            fit = fitting.fit_saturation(SaturationCurve(powers, noisy))
            eta = dynamics.qe_from_saturation(fit["r_inf"], fit["p_sat"], base, 0.07)
            assert eta == pytest.approx(eta_true, abs=0.02)

    def test_perfect_emitter_plateau(self):
        base = ThreeLevelRates(0.0, 2.2e9, 0.0, 60e6)
        pump = dynamics.PumpModel(1.5e9)
        curve = dynamics.saturation_curve(base, pump, 1.0, [5000.0])
        assert curve.rates[0] == pytest.approx(base.k21, rel=1e-3)

    def test_inconsistent_calibration_raises(self):
        base = ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6)
        from sivcav.errors import InfeasibleMeasurementError

        with pytest.raises(InfeasibleMeasurementError):
            dynamics.qe_from_saturation(1e10, 1.0, base, 1.0)


class TestPowerSweepIO:
    def test_round_trip(self, tmp_path):
        base = ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6)
        sweep = dynamics.power_sweep(base, dynamics.PumpModel(1e9), [0.2, 0.5, 1.0])
        path = tmp_path / "sweep.csv"
        dynamics.save_power_sweep(sweep, path)
        back = dynamics.load_power_sweep(path)
        assert np.allclose(back.powers, sweep.powers)
        for g1, g2 in zip(back.params, sweep.params):
            assert g1.tau1 == pytest.approx(g2.tau1, rel=1e-12)
            assert g1.a == pytest.approx(g2.a, rel=1e-12)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("# header\n0.5,0.4,10.0,0.3\n0.7,nope,10.0,0.3\n")
        from sivcav.errors import InputFormatError

        with pytest.raises(InputFormatError, match="sweep.csv:3"):
            dynamics.load_power_sweep(path)

    def test_rows_with_and_without_rate(self, tmp_path):
        path = tmp_path / "sweep.csv"
        from sivcav.errors import InputFormatError

        path.write_text("0.5,0.4,10.0,0.3,1e5\n# a comment\n0.7,0.35,10.0,0.3,2e5\n")
        sweep = dynamics.load_power_sweep(path)
        assert sweep.powers.tolist() == [0.5, 0.7]
        assert sweep.params[1].tau1 == pytest.approx(0.35e-9, rel=1e-15)
        path.write_text("0.5,0.4,10.0,0.3\n0.7,0.35,10.0,0.3\n")  # the rate column is read and not kept
        without = dynamics.load_power_sweep(path)
        assert (without.powers.tolist(), without.params) == (sweep.powers.tolist(), sweep.params)
        path.write_text("0.5,0.4,10.0,0.3,1e5\n0.7,0.35,10.0,0.3\n")  # a rate on one row only
        with pytest.raises(InputFormatError, match="sweep.csv:2: expected 4 or 5 comma-separated"):
            dynamics.load_power_sweep(path)
        path.write_text("0.5,0.4,10.0,0.3\n\n0.7,-0.35,10.0,0.3\n")
        with pytest.raises(InputFormatError, match="sweep.csv:3: bad g2 parameters: tau1"):
            dynamics.load_power_sweep(path)
