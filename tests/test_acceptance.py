"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py -v` to see the
lines as they complete). Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from sivcav import dynamics, fitting, montecarlo, purcell, spectra
from sivcav.models import (
    CavityMode,
    G2Curve,
    PolarizationScan,
    PLSpectrum,
    RadiativeBudget,
    SaturationCurve,
    ThreeLevelRates,
)

SIV4_BUDGET = RadiativeBudget(1.0 / 1.44e-9, 1.0 / 5.75e-9, 1.0 / 583e-12)


def _report(number, message):
    print(f"ACCEPTANCE {number:2d} PASS: {message}")


def test_criterion_01_purcell_chain():
    f_p = purcell.ideal_purcell(CavityMode(738.0, 430.0, 1.7))
    assert abs(f_p - 19.2) / 19.2 <= 0.005
    f_cav = purcell.effective_purcell(f_p, 1.0, 0.667, 0.4)
    assert abs(f_cav - 5.15) / 5.15 <= 0.01
    i_pl = purcell.pl_enhancement(f_cav, 0.25)
    assert abs(i_pl - 20.6) / 20.6 <= 0.01
    observed_discrepancy = abs(i_pl - 19.0) / 19.0
    assert observed_discrepancy <= 0.10
    _report(
        1,
        f"F_P={f_p:.3f} (19.2 +-0.5%), F_cav={f_cav:.3f} (5.15 +-1%), "
        f"I_PL={i_pl:.2f} (20.6 +-1%; {observed_discrepancy:.1%} from the observed 19)",
    )


def test_criterion_02_rate_decomposition():
    phc = purcell.modified_budget(SIV4_BUDGET, 0.25)
    cav = purcell.modified_budget(SIV4_BUDGET, 0.25, 5.15)
    bulk = purcell.modified_budget(SIV4_BUDGET)
    assert abs(phc.gamma_total - 1.932e9) / 1.932e9 <= 0.01
    assert abs(cav.gamma_total - 5.238e9) / 5.238e9 <= 0.03
    assert abs(cav.eta_qe - 0.67) <= 0.02
    assert abs(phc.eta_qe - 0.11) <= 0.02
    assert abs(bulk.eta_qe - 0.34) <= 0.02
    beta_total, beta_radiative = purcell.mode_emission_fractions(cav)
    assert abs(beta_radiative - 0.988) <= 0.002
    assert abs(beta_total - 0.63) <= 0.05
    _report(
        2,
        f"gamma_phc={phc.gamma_total/1e6:.0f} MHz, gamma_cav={cav.gamma_total/1e6:.0f} MHz, "
        f"eta=({cav.eta_qe:.3f},{phc.eta_qe:.3f},{bulk.eta_qe:.3f}), "
        f"beta_rad={beta_radiative:.4f}, beta_total={beta_total:.3f}",
    )


def test_criterion_03_budget_inversion():
    budget = purcell.invert_budget(5.238e9, 1.932e9, 5.0, 0.25, 4.0)
    assert abs(1.0 / budget.gamma_zpl - 1.44e-9) / 1.44e-9 <= 0.02
    assert abs(1.0 / budget.gamma_psb - 5.75e-9) / 5.75e-9 <= 0.02
    assert abs(1.0 / budget.gamma_nr - 583e-12) / 583e-12 <= 0.02

    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        zpl = rng.uniform(1e7, 5e9)
        psb = rng.uniform(1e7, 5e9)
        nr = rng.uniform(0.0, 5e9)
        f_phc = rng.uniform(0.05, 0.95)
        f_cav = rng.uniform(1.2, 30.0)
        ref = RadiativeBudget(zpl, psb, nr)
        cav = purcell.modified_budget(ref, f_phc, f_cav)
        phc = purcell.modified_budget(ref, f_phc)
        back = purcell.invert_budget(cav.gamma_total, phc.gamma_total, f_cav, f_phc, zpl / psb)
        scale = ref.gamma_total
        worst = max(
            worst,
            abs(back.gamma_zpl - zpl) / scale,
            abs(back.gamma_psb - psb) / scale,
            abs(back.gamma_nr - nr) / scale,
        )
    assert worst <= 1e-9
    _report(
        3,
        "inversion hits (1.44 ns, 5.75 ns, 583 ps) within 2%; "
        f"1000-sample round-trip worst residual {worst:.2e} <= 1e-9",
    )


def test_criterion_04_inhibition_chain():
    eta_bulk, eta_phc = purcell.infer_bulk_qe_from_inhibition(1.3e-9, 2.6e-9, 0.25)
    assert abs(eta_bulk - 0.667) <= 0.01
    assert abs(eta_phc - 0.333) <= 0.01
    ratio = 2.6e-9 / 1.3e-9
    assert ratio == 2.0
    _report(4, f"eta=({eta_bulk:.4f},{eta_phc:.4f}) within +-0.01; lifetime ratio {ratio} exactly")


def test_criterion_05_nanosphere():
    factor = purcell.nanosphere_factor(2.4)
    assert abs(factor - 0.0623) <= 1e-4
    hi = purcell.rescale_qe(0.66, factor)
    lo = purcell.rescale_qe(0.34, factor)
    assert abs(hi - 0.108) <= 0.01
    assert abs(lo - 0.031) <= 0.01
    _report(
        5,
        f"nanosphere factor {factor:.5f} (0.0623 +-1e-4); "
        f"QE rescaling 0.66->{hi:.3f}, 0.34->{lo:.3f} (targets 0.108/0.031, +-0.01)",
    )


def test_criterion_06_oracle_equivalence():
    start = time.time()
    rates = ThreeLevelRates(98.6e6, 2.0e9, 0.3e9, 50e6)
    budget = RadiativeBudget(0.8e9, 0.2e9, 0.0)
    params = dynamics.g2_params_from_rates(rates)
    p2 = dynamics.steady_state(rates)[1]
    mean_rate = budget.eta_qe * rates.k21 * p2
    window = 10.0 * params.tau2
    bin_w = 0.4e-9

    def sup_error(n_photons, seed):
        stream = montecarlo.simulate_stream(
            rates, budget, n_photons / mean_rate, 1.0, seed=seed
        )
        hist = montecarlo.correlate(stream, bin_w, window)
        curve = hist.to_curve()
        mask = (curve.delays >= 0.0) & (curve.delays <= window)
        centers = curve.delays[mask]
        sub = np.linspace(-bin_w / 2.0, bin_w / 2.0, 21)
        taus = np.unique(np.abs((centers[:, None] + sub[None, :]).ravel()))
        fine = dynamics.g2_analytic(rates, taus)
        lookup = dict(zip(fine.delays, fine.values))
        expected = np.array(
            [np.mean([lookup[abs(t)] for t in row]) for row in centers[:, None] + sub[None, :]]
        )
        return float(np.max(np.abs(curve.values[mask] - expected))), len(stream)

    sup1, n1 = sup_error(1_000_000, 1001)
    sup4, n4 = sup_error(4_000_000, 1002)
    elapsed = time.time() - start
    assert sup1 < 0.05
    ratio = sup4 / sup1
    assert 0.35 <= ratio <= 0.65  # halves within +-30%
    assert elapsed < 60.0
    _report(
        6,
        f"sup-norm {sup1:.4f} at {n1} photons (<0.05); x4 photons -> ratio {ratio:.2f} "
        f"in [0.35, 0.65]; runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_07_fit_round_trips():
    rng = np.random.default_rng(777)
    powers = np.array([0.15, 0.35, 0.65, 1.0, 1.5, 2.2])
    worst = 0.0
    for _ in range(100):
        k21 = rng.uniform(1e9, 4e9)
        k23 = k21 * rng.uniform(0.10, 0.35)
        k31 = k21 * rng.uniform(0.02, 0.08)
        sigma = k21 * rng.uniform(0.3, 0.8)
        base = ThreeLevelRates(0.0, k21, k23, k31)
        sweep = dynamics.power_sweep(base, dynamics.PumpModel(sigma), powers)
        fitted = []
        for power, g in zip(powers, sweep.params):
            grid = np.unique(
                np.concatenate(
                    [
                        np.linspace(0.0, 8.0 * g.tau1, 40, endpoint=False),
                        np.geomspace(8.0 * g.tau1, 15.0 * g.tau2, 70),
                    ]
                )
            )
            rates = ThreeLevelRates(sigma * power, k21, k23, k31)
            curve = dynamics.g2_analytic(rates, grid)
            assert curve.values[0] == 0.0  # exact antibunching at tau = 0
            tail = dynamics.g2_analytic(rates, np.array([200.0 * g.tau2]))
            assert abs(tail.values[0] - 1.0) < 1e-4  # stationary limit
            noisy = np.clip(curve.values + rng.normal(0.0, 0.01, grid.size), 0.0, None)
            fit = fitting.fit_g2(G2Curve(grid, noisy, np.full(grid.size, 0.01)))
            assert fit.converged
            fitted.append(fitting.g2_params_from_fit(fit))
        zero = dynamics.extrapolate_zero_power(dynamics.PowerSweep(powers, tuple(fitted)))
        worst = max(worst, abs(zero.rates.k21 - k21) / k21)
    assert worst <= 0.05
    _report(
        7,
        f"100 random rate sets at 1% noise: worst k21 error {worst:.2%} <= 5%; "
        "g2(0)=0 exact and far-tail limit 1 within 1e-4 on every curve",
    )


def test_criterion_08_lifetime_reduction_pipeline():
    cav = purcell.modified_budget(SIV4_BUDGET, 0.25, 5.15)
    phc = purcell.modified_budget(SIV4_BUDGET, 0.25)
    pair_sigma = math.sqrt(2.0) * 296e-12
    fits = {}
    for label, emission, duration, seeds in (
        ("on", cav, 0.06, (8001, 8003)),
        ("off", phc, 0.8, (8002, 8004)),
    ):
        rates = ThreeLevelRates(50e6, emission.gamma_total, 0.318e9, 50e6)
        stream = montecarlo.simulate_stream(rates, emission, duration, 1.0, seed=seeds[0])
        jittered = montecarlo.apply_jitter(stream, 296e-12, seed=seeds[1])
        hist = montecarlo.correlate(jittered, 0.05e-9, 60e-9)
        fit = fitting.fit_g2(hist.to_curve(), irf_sigma=pair_sigma)
        assert fit.converged
        fits[label] = fit["tau1"]
    ratio = fits["on"] / fits["off"]
    target = 180.0 / 445.0
    assert abs(ratio - target) / target <= 0.20
    _report(
        8,
        f"jittered on/off pipeline: tau_on={fits['on']*1e12:.0f} ps, "
        f"tau_off={fits['off']*1e12:.0f} ps, ratio {ratio:.3f} vs 0.404 "
        f"({abs(ratio-target)/target:.1%} off, <=20%); reduction {1.0/ratio:.2f}x",
    )


def test_criterion_09_fitting_engine():
    # (a) the engine's analytic Jacobians against a central-difference reference
    def central(func, p, scales):
        r0 = np.asarray(func(p))
        out = np.empty((r0.size, p.size))
        for j in range(p.size):
            h = (np.finfo(float).eps ** (1.0 / 3.0)) * scales[j]
            up, dn = p.copy(), p.copy()
            up[j] += h
            dn[j] -= h
            out[:, j] = (np.asarray(func(up)) - np.asarray(func(dn))) / (2.0 * h)
        return out

    zoo = [
        (fitting.g2_model, lambda x, *p: fitting.g2_jacobian(x, *p, 0.0), np.linspace(-20e-9, 20e-9, 101),
         np.array([0.8, 0.48e-9, 5e-9]), np.array([0.8, 0.48e-9, 5e-9])),
        (fitting.multi_lorentzian, fitting.multi_lorentzian_jacobian, np.linspace(730.0, 750.0, 120),
         np.array([739.9, 2.3, 1000.0, 60.0]), np.array([2.3, 2.3, 1000.0, 60.0])),
        (fitting.cos2_model, fitting.cos2_jacobian, np.linspace(0.0, 180.0, 37),
         np.array([20.0, 120.0, 15.0]), np.array([20.0, 120.0, 15.0])),
        (fitting.saturation_model, fitting.saturation_jacobian, np.linspace(0.05, 6.0, 24),
         np.array([1e6, 0.9]), np.array([1e6, 0.9])),
    ]
    worst_jac = 0.0
    for model, jacobian, x, p, scales in zoo:
        def residual(q, model=model, x=x):
            return np.asarray(model(x, *q), dtype=float)

        analytic = jacobian(x, *p)
        reference = central(residual, p, scales)
        denom = np.max(np.abs(reference), axis=0)
        denom[denom == 0] = 1.0
        worst_jac = max(worst_jac, float(np.max(np.abs(analytic - reference) / denom)))
    assert worst_jac < 1e-6

    # (b) noiseless self-fits recover parameters to 1e-8
    tau = np.linspace(-30e-9, 30e-9, 301)
    g2c = G2Curve(tau, np.clip(fitting.g2_model(tau, 0.8, 0.48e-9, 5e-9), 0, None))
    fit = fitting.fit_g2(g2c)
    assert fit.values == pytest.approx([0.8, 0.48e-9, 5e-9], rel=1e-8)

    wl = np.linspace(730.0, 750.0, 400)
    spec = PLSpectrum(wl, fitting.lorentzian_peak(wl, 739.9, 2.3, 900.0) + 40.0)
    lfit = fitting.fit_lorentzians(spec, 1, [739.0])
    assert lfit.values == pytest.approx([739.9, 2.3, 900.0, 40.0], rel=1e-8)

    ang = np.linspace(0.0, 175.0, 36)
    cfit = fitting.fit_cos2(PolarizationScan(ang, fitting.cos2_model(ang, 20.0, 120.0, 15.0)))
    assert cfit.values == pytest.approx([20.0, 120.0, 15.0], rel=1e-8)

    pw = np.linspace(0.05, 6.0, 24)
    sfit = fitting.fit_saturation(SaturationCurve(pw, fitting.saturation_model(pw, 1e6, 0.9)))
    assert sfit.values == pytest.approx([1e6, 0.9], rel=1e-8)

    # (c) Lorentzian Q regressions
    q1 = fitting.lorentzian_peak_summary(
        fitting.fit_lorentzians(
            PLSpectrum(wl, fitting.lorentzian_peak(wl, 739.9, 2.3, 900.0) + 40.0), 1, [739.5]
        ),
        1,
    )[0]["q"]
    assert q1 == pytest.approx(739.9 / 2.3, rel=1e-8)
    assert q1 == pytest.approx(322.0, abs=0.5)
    q2 = fitting.lorentzian_peak_summary(
        fitting.fit_lorentzians(
            PLSpectrum(wl, fitting.lorentzian_peak(wl, 740.0, 1.7, 900.0) + 40.0), 1, [740.4]
        ),
        1,
    )[0]["q"]
    assert q2 == pytest.approx(740.0 / 1.7, rel=1e-8)
    assert q2 == pytest.approx(435.0, abs=0.5)
    _report(
        9,
        f"Jacobian cross-check {worst_jac:.1e} < 1e-6; noiseless self-fits to 1e-8; "
        f"Q regressions {q1:.1f} (322) and {q2:.1f} (~435) exact to fit precision",
    )


def test_criterion_10_polarization():
    rng = np.random.default_rng(1010)
    angles = np.linspace(0.0, 175.0, 36)
    clean = fitting.cos2_model(angles, 25.0, 200.0, 20.0)
    noisy = np.clip(clean + rng.normal(0.0, 10.0, angles.size), 0.0, None)
    fit = fitting.fit_cos2(PolarizationScan(angles, noisy))
    angle_error = abs(fit["phi0"] - 25.0)
    assert angle_error <= 10.0

    emitter = spectra.PolarizedChannel(60.0, 1.0)
    modes = [
        (spectra.PolarizedChannel(0.0, 50.0), CavityMode(760.0, 400.0, 1.0)),
        (spectra.PolarizedChannel(-45.0, 50.0), CavityMode(770.0, 400.0, 1.0)),
    ]
    far = spectra.polarization_mixture(emitter, modes, 750.0, [-600.0])
    assert far[0] == pytest.approx(60.0, abs=0.5)

    dominant = [(spectra.PolarizedChannel(-45.0, 1e5), CavityMode(770.0, 400.0, 1.0))]
    locked = spectra.polarization_mixture(emitter, dominant, 750.0, [-20.0])
    assert locked[0] == pytest.approx(-45.0, abs=0.2)

    linewidth = CavityMode(760.0, 400.0, 1.0).linewidth
    detunings = np.arange(-25.0, 5.0, linewidth / 120.0)
    sweep = spectra.polarization_mixture(
        emitter,
        [
            (spectra.PolarizedChannel(0.0, 4.0), CavityMode(760.0, 400.0, 1.0)),
            (spectra.PolarizedChannel(-45.0, 4.0), CavityMode(770.0, 400.0, 1.0)),
        ],
        750.0,
        detunings,
    )
    jumps = np.abs(np.diff(sweep))
    jumps = np.minimum(jumps, 180.0 - jumps)
    assert np.max(jumps) < 1.0
    _report(
        10,
        f"cos^2 angle error {angle_error:.2f} deg <= 10; mixture restores +60 far-detuned, "
        f"locks to -45 under dominance, max jump {np.max(jumps):.2f} deg < 1",
    )
