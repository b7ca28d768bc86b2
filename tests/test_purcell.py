import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sivcav import purcell
from sivcav.errors import (
    DomainError,
    InfeasibleMeasurementError,
    InputFormatError,
    NarrowCavityWarning,
    ValidationError,
)
from sivcav.models import (
    CavityMode,
    EmitterLine,
    FieldMap,
    RadiativeBudget,
)


class TestIdealPurcell:
    def test_o2_mode(self):
        assert purcell.ideal_purcell(CavityMode(738.0, 430.0, 1.7)) == pytest.approx(19.2, rel=0.005)

    def test_normalization_point(self):
        mode = CavityMode(700.0, 4.0 * math.pi**2 / 3.0, 1.0)
        assert purcell.ideal_purcell(mode) == pytest.approx(1.0, rel=1e-12)

    def test_o1_mode(self):
        assert purcell.ideal_purcell(CavityMode(739.9, 320.0, 1.3)) == pytest.approx(18.71, abs=0.01)


class TestSpectralOverlap:
    def test_zero_detuning(self):
        mode = CavityMode(739.9, 320.0, 1.3)
        assert purcell.spectral_overlap(EmitterLine(739.9), mode) == 1.0

    def test_half_width_point(self):
        q = 320.0
        lam_c = 740.0
        line = EmitterLine(lam_c * (1.0 + 1.0 / (2.0 * q)))
        assert purcell.spectral_overlap(line, CavityMode(lam_c, q, 1.0)) == pytest.approx(0.5, rel=1e-12)

    def test_pre_tuning_detuning(self):
        # direct formula evaluation at the o1 pre-tuning detuning
        q, lam_i, lam_c = 320.0, 739.9, 769.0
        expected = 1.0 / (1.0 + 4.0 * q**2 * (lam_i / lam_c - 1.0) ** 2)
        got = purcell.spectral_overlap(EmitterLine(lam_i), CavityMode(lam_c, q, 1.3))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.702e-3, rel=1e-3)

    def test_warns_when_cavity_narrower_than_line(self):
        mode = CavityMode(740.0, 2000.0, 1.0)  # linewidth 0.37 nm
        with pytest.warns(NarrowCavityWarning):
            purcell.spectral_overlap(EmitterLine(740.0, linewidth=1.25), mode)

    @given(st.floats(min_value=0.01, max_value=30.0), st.floats(min_value=0.02, max_value=30.0))
    def test_strictly_decreasing_in_detuning(self, d1, d2):
        mode = CavityMode(740.0, 320.0, 1.0)
        r1 = purcell.spectral_overlap(EmitterLine(740.0 + min(d1, d2)), mode)
        r2 = purcell.spectral_overlap(EmitterLine(740.0 + min(d1, d2) + max(d1, d2)), mode)
        assert r2 < r1


class TestOrientationOverlap:
    def test_parallel(self):
        assert purcell.orientation_overlap((1, 0, 0), (1, 0, 0)) == 1.0

    def test_orthogonal(self):
        assert purcell.orientation_overlap((1, 0, 0), (0, 1, 0)) == 0.0

    def test_diamond_axis_inclination(self):
        # <111> dipole against the in-plane <110> field: 35.26 deg, R_mu = 2/3
        s3 = 1.0 / math.sqrt(3.0)
        s2 = 1.0 / math.sqrt(2.0)
        r_mu = purcell.orientation_overlap((s3, s3, s3), (s2, s2, 0.0))
        assert r_mu == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert r_mu == pytest.approx(0.667, abs=1e-3)
        angle = math.degrees(math.acos(math.sqrt(r_mu)))
        assert angle == pytest.approx(35.26, abs=0.01)

    def test_normalizes_each_axis(self):
        # (1, 1, 0) against (0, 0, 2) and (2, 0, 0): 90 and 45 degrees
        assert purcell.orientation_overlap((1.0, 1.0, 0.0), (0.0, 0.0, 2.0)) == 0.0
        assert purcell.orientation_overlap((1.0, 1.0, 0.0), (2.0, 0.0, 0.0)) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-170, 1e200, 1e308])
    def test_normalizes_an_axis_of_any_finite_size(self, scale):
        # the squared norm of these axes underflows to 0 or overflows to inf
        assert purcell.orientation_overlap((scale, scale, 0.0), (1.0, 0.0, 0.0)) == pytest.approx(0.5, rel=1e-12)

    def test_keeps_an_axis_of_unit_norm_as_given(self):
        # within UNIT_NORM_TOL of unit norm an axis is not divided by its norm
        s3 = 1.0 / math.sqrt(3.0)
        assert abs(math.sqrt(3.0 * s3**2) - 1.0) <= purcell.UNIT_NORM_TOL
        expected = float(np.dot((s3, s3, s3), (1.0, 0.0, 0.0))) ** 2
        assert purcell.orientation_overlap((s3, s3, s3), (1.0, 0.0, 0.0)) == expected

    @pytest.mark.parametrize("dipole, field, message", [
        ((1.0, 0.0), (1.0, 0.0, 0.0), "dipole_axis must be a 3-vector"),
        ((1.0, 0.0, 0.0), (math.inf, 0.0, 0.0), "field_axis contains non-finite entries"),
        ((10**400, 0, 0), (1.0, 0.0, 0.0), "dipole_axis contains non-finite entries"),
        (("x", 0.0, 0.0), (1.0, 0.0, 0.0), "dipole_axis is not a number"),
        ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), "field_axis must be nonzero"),
    ], ids=["short", "inf", "int-beyond-float", "string", "zero"])
    def test_rejects_a_faulty_axis_naming_it(self, dipole, field, message):
        with pytest.raises(DomainError) as err:
            purcell.orientation_overlap(dipole, field)
        assert str(err.value) == message


class TestSpatialOverlap:
    @pytest.fixture
    def cos_map(self):
        coords = np.arange(-200.0, 201.0, 10.0)
        x, y = np.meshgrid(coords, coords)
        grid = np.cos(np.pi * x / 390.0) * np.cos(np.pi * y / 390.0)
        return FieldMap(grid, 10.0, (-200.0, -200.0))

    def test_maximum(self, cos_map):
        assert purcell.spatial_overlap(cos_map, (0.0, 0.0)) == 1.0

    def test_node(self, cos_map):
        assert purcell.spatial_overlap(cos_map, (195.0, 0.0)) == pytest.approx(0.0, abs=1e-3)

    def test_synthetic_amplitude(self, cos_map):
        # node placed at amplitude sqrt(0.4) within grid resolution
        assert purcell.spatial_overlap(cos_map, (110.0, 0.0)) == pytest.approx(0.4, abs=1e-4)

    def test_out_of_bounds_names_axis(self, cos_map):
        with pytest.raises(DomainError, match="x-range"):
            purcell.spatial_overlap(cos_map, (250.0, 0.0))
        with pytest.raises(DomainError, match="y-range"):
            purcell.spatial_overlap(cos_map, (0.0, -250.0))

    def test_bilinear_between_nodes(self, cos_map):
        v_mid = purcell.spatial_overlap(cos_map, (5.0, 0.0))
        lo = math.cos(0.0)
        hi = math.cos(math.pi * 10.0 / 390.0)
        assert v_mid == pytest.approx((0.5 * (lo + hi)) ** 2, rel=1e-12)


class TestEffectivePurcell:
    def test_siv4_chain(self):
        f_p = purcell.ideal_purcell(CavityMode(738.0, 430.0, 1.7))
        f_cav = purcell.effective_purcell(f_p, 1.0, 0.67, 0.4)
        assert f_cav == pytest.approx(5.15, rel=0.01)

    def test_o1_chain(self):
        f_cav = purcell.effective_purcell(18.71, 1.0, 0.25, 0.25)
        assert f_cav == pytest.approx(1.17, rel=0.01)

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_identity_overlaps(self, f_p):
        assert purcell.effective_purcell(f_p) == f_p

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_nondecreasing_in_each_factor(self, r1, r2, bump):
        base = purcell.effective_purcell(10.0, r1, r2, 0.5)
        more = purcell.effective_purcell(10.0, min(r1 + bump, 1.0), r2, 0.5)
        assert more >= base


# channel rates (zpl, psb, nr) up to 1e16 apart
SPREAD_CHANNELS = [(1.0, 0.0, 1e16), (1e16, 0.0, 1.0), (1.0, 1e16, 3.0), (3e-4, 2e-4, 1e12), (0.0, 5.0, 7.0)]


class TestModifiedBudget:
    @pytest.mark.parametrize("f_phc", [0.0, -0.25, 1.5, math.nan])
    def test_f_phc_outside_unit_interval(self, siv4_budget, f_phc):
        with pytest.raises(DomainError) as err:
            purcell.modified_budget(siv4_budget, f_phc)
        assert str(err.value).startswith("f_phc ")

    # the total and eta_qe a purcell report carries for each environment
    # agree with its channels, however far apart the channels are
    @pytest.mark.parametrize("zpl, psb, nr", SPREAD_CHANNELS)
    def test_spread_channels_stay_consistent(self, zpl, psb, nr):
        budget = RadiativeBudget(zpl, psb, nr)
        for f_phc, f_cav in ((1.0, None), (0.25, None), (0.25, 5.15)):
            mb = purcell.modified_budget(budget, f_phc, f_cav)
            channels = (mb.gamma_zpl, mb.gamma_psb, mb.gamma_nr)
            assert channels == ((f_phc if f_cav is None else f_cav) * zpl, f_phc * psb, nr)
            assert mb.gamma_total == pytest.approx(math.fsum(channels), rel=1e-15)
            assert mb.eta_qe == pytest.approx((mb.gamma_zpl + mb.gamma_psb) / math.fsum(channels), rel=1e-15)
            assert 0.0 <= mb.eta_qe <= 1.0

    def test_bandgap_rates(self, siv4_budget):
        mb = purcell.modified_budget(siv4_budget, 0.25)
        assert mb.gamma_total == pytest.approx(1.932e9, rel=0.01)
        assert mb.eta_qe == pytest.approx(0.112, abs=0.002)

    def test_cavity_rates(self, siv4_budget):
        mb = purcell.modified_budget(siv4_budget, 0.25, 5.15)
        # direct arithmetic oracle: 5.15/1.44ns + 0.25/5.75ns + 1/583ps
        expected = 5.15 / 1.44e-9 + 0.25 / 5.75e-9 + 1.0 / 583e-12
        assert mb.gamma_total == pytest.approx(expected, rel=1e-12)
        assert mb.gamma_total == pytest.approx(5.238e9, rel=0.03)

    def test_bulk_passthrough(self, siv4_budget):
        mb = purcell.modified_budget(siv4_budget)
        assert mb == siv4_budget
        assert mb.eta_qe == pytest.approx(0.336, abs=0.002)

    def test_channels_scaled_and_nr_kept(self):
        budget = RadiativeBudget(4e8, 2e8, 1e9)
        assert purcell.modified_budget(budget, 0.5) == RadiativeBudget(2e8, 1e8, 1e9)
        assert purcell.modified_budget(budget, 0.5, 3.0) == RadiativeBudget(12e8, 1e8, 1e9)
        assert purcell.modified_budget(budget, 0.5, 0.0) == RadiativeBudget(0.0, 1e8, 1e9)

    @given(st.floats(0.0, 1e12), st.floats(1.0, 1e12), st.floats(0.0, 1e12), st.floats(0.01, 1.0),
           st.floats(0.0, 40.0))
    def test_totals_follow_the_rate_algebra(self, zpl, psb, nr, f_phc, f_cav):
        # gamma_cav = F_cav gamma_zpl + F_PhC gamma_psb + gamma_nr and
        # gamma_phc = F_PhC (gamma_zpl + gamma_psb) + gamma_nr, summed in this order
        budget = RadiativeBudget(zpl, psb, nr)
        phc = purcell.modified_budget(budget, f_phc)
        assert purcell.modified_budget(budget, f_phc, f_cav).gamma_total == f_cav * zpl + f_phc * psb + nr
        assert phc.gamma_total == f_phc * zpl + f_phc * psb + nr
        assert purcell.modified_budget(budget, f_phc, f_phc) == phc

    @given(
        st.floats(min_value=1.0, max_value=40.0),
        st.floats(min_value=1.0, max_value=40.0),
    )
    def test_eta_nondecreasing_in_f_cav(self, f1, f2):
        budget = RadiativeBudget(1.0 / 1.44e-9, 1.0 / 5.75e-9, 1.0 / 583e-12)
        lo, hi = sorted((f1, f2))
        eta_lo = purcell.modified_budget(budget, 0.25, lo).eta_qe
        eta_hi = purcell.modified_budget(budget, 0.25, hi).eta_qe
        assert eta_hi >= eta_lo - 1e-12


class TestPlEnhancement:
    def test_siv4(self):
        assert purcell.pl_enhancement(5.0, 0.25) == pytest.approx(20.0)

    def test_o1(self):
        assert purcell.pl_enhancement(1.17, 0.25) == pytest.approx(4.7, abs=0.03)

    def test_identity(self):
        assert purcell.pl_enhancement(0.25, 0.25) == 1.0

    def test_zero_f_phc(self):
        with pytest.raises(DomainError):
            purcell.pl_enhancement(5.0, 0.0)


class TestModeEmissionFractions:
    def test_siv4(self, siv4_budget):
        mb = purcell.modified_budget(siv4_budget, 0.25, 5.15)
        beta_total, beta_radiative = purcell.mode_emission_fractions(mb)
        assert beta_radiative == pytest.approx(0.988, abs=0.002)
        assert beta_total == pytest.approx(0.66, abs=0.05)

    def test_pure_zpl(self):
        budget = RadiativeBudget(1e9, 0.0, 0.0)
        mb = purcell.modified_budget(budget, 0.25, 3.0)
        assert purcell.mode_emission_fractions(mb) == (1.0, 1.0)

    def test_bulk_budget_gives_its_zpl_branching(self, siv4_budget):
        # without a mode the fractions are the intrinsic ZPL branching
        assert purcell.mode_emission_fractions(siv4_budget) == (
            siv4_budget.gamma_zpl / siv4_budget.gamma_total, siv4_budget.zpl_fraction)

    def test_orthogonal_dipole_without_side_band_has_no_budget(self):
        # f_cav = 0 removes the only radiative channel of a ZPL-only budget
        with pytest.raises(ValidationError) as err:
            purcell.modified_budget(RadiativeBudget(1e9, 0.0, 1e9), 0.25, 0.0)
        assert err.value.violations == ["at least one radiative rate must be positive"]

    @given(st.floats(0.0, 1e12), st.floats(1.0, 1e12), st.floats(0.0, 1e12), st.floats(0.0, 40.0))
    def test_fractions_are_ordered_fractions(self, zpl, psb, nr, f_cav):
        beta_total, beta_radiative = purcell.mode_emission_fractions(
            purcell.modified_budget(RadiativeBudget(zpl, psb, nr), 0.25, f_cav))
        assert 0.0 <= beta_total <= beta_radiative <= 1.0

    def test_scale_invariance(self, siv4_budget):
        mb1 = purcell.modified_budget(siv4_budget, 0.25, 5.15)
        scaled = RadiativeBudget(
            siv4_budget.gamma_zpl * 7.0, siv4_budget.gamma_psb * 7.0, siv4_budget.gamma_nr * 7.0
        )
        mb2 = purcell.modified_budget(scaled, 0.25, 5.15)
        assert purcell.mode_emission_fractions(mb1) == pytest.approx(
            purcell.mode_emission_fractions(mb2), rel=1e-12
        )


class TestInvertBudget:
    def test_published_rates(self):
        budget = purcell.invert_budget(5.238e9, 1.932e9, 5.0, 0.25, 4.0)
        assert 1.0 / budget.gamma_zpl == pytest.approx(1.44e-9, rel=0.02)
        assert 1.0 / budget.gamma_psb == pytest.approx(5.75e-9, rel=0.02)
        assert 1.0 / budget.gamma_nr == pytest.approx(583e-12, rel=0.02)

    def test_degenerate_factors(self):
        with pytest.raises(InfeasibleMeasurementError):
            purcell.invert_budget(2e9, 2e9, 1.0, 1.0, 4.0)

    @pytest.mark.parametrize("f_cav, branching, singular", [
        # cond(A) 6.3e13; |det A| = 4e-13 failed the fixed test |det| < 1e-12
        (0.25 + 1e-13, 4.0, False),
        (0.25 + 2e-14, 4.0, False),  # cond 3.1e14
        (0.25 + 5e-16, 4.0, True),  # cond 1.9e16, past 1 / (3 eps) = 1.5e15
        (0.25, 4.0, True),
        (5.0, 4e-15, False),  # cond 1.4e15
        (5.0, 2e-15, True),  # cond 2.8e15
        (5.0, 0.0, True),
    ])
    def test_singular_by_condition_number(self, f_cav, branching, singular):
        # f_cav -> f_phc and branching -> 0 on either side of numpy's rank rule;
        # a solved system keeps the error within eps cond(A) |x|
        f_phc, psb, nr = 0.25, 0.2e9, 1e9
        zpl = branching * psb
        args = (f_cav * zpl + f_phc * psb + nr, f_phc * (zpl + psb) + nr, f_cav, f_phc, branching)
        if singular:
            with pytest.raises(InfeasibleMeasurementError, match="singular"):
                purcell.invert_budget(*args)
            return
        budget = purcell.invert_budget(*args)
        a = np.array([[f_cav, f_phc, 1.0], [f_phc, f_phc, 1.0], [1.0, -branching, 0.0]])
        bound = np.finfo(float).eps * np.linalg.cond(a) * math.hypot(zpl, psb, nr)
        assert abs(budget.gamma_zpl - zpl) <= bound
        assert abs(budget.gamma_psb - psb) <= bound
        assert abs(budget.gamma_nr - nr) <= bound

    def test_negative_component_names_rate(self):
        # gamma_cav below the pure-inhibition rate forces gamma_nr < 0 or worse
        with pytest.raises(InfeasibleMeasurementError, match="gamma"):
            purcell.invert_budget(0.5e9, 2.0e9, 5.0, 0.25, 4.0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(min_value=1e6, max_value=1e10),
        st.floats(min_value=1e6, max_value=1e10),
        st.floats(min_value=0.0, max_value=1e10),
        st.floats(min_value=1.2, max_value=40.0),
        st.floats(min_value=0.05, max_value=0.95),
    )
    # emitters without non-radiative decay at cond(A) ~ 1e5 and 5.7e4: solve
    # round-off makes gamma_nr a few mHz negative on rates of a few GHz
    @example(zpl=1e6, psb=7693773633.5, nr=0.0, f_cav=1.25, f_phc=0.875)
    @example(zpl=1e6, psb=1e6 / 3.16e-4, nr=0.0, f_cav=1.21875, f_phc=0.9375)
    def test_round_trip_identity(self, zpl, psb, nr, f_cav, f_phc):
        budget = RadiativeBudget(zpl, psb, nr)
        cav = purcell.modified_budget(budget, f_phc, f_cav)
        phc = purcell.modified_budget(budget, f_phc)
        recovered = purcell.invert_budget(
            cav.gamma_total, phc.gamma_total, f_cav, f_phc, zpl / psb
        )
        scale = budget.gamma_total
        assert recovered.gamma_zpl == pytest.approx(zpl, rel=1e-9)
        assert recovered.gamma_psb == pytest.approx(psb, rel=1e-9)
        assert recovered.gamma_nr == pytest.approx(nr, rel=1e-9, abs=1e-9 * scale)


class TestInhibitionInference:
    def test_siv1_lifetimes(self):
        eta_bulk, eta_phc = purcell.infer_bulk_qe_from_inhibition(1.3e-9, 2.6e-9, 0.25)
        assert eta_bulk == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert eta_phc == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_fully_radiative_limit(self):
        tau = 1.0e-9
        eta_bulk, eta_phc = purcell.infer_bulk_qe_from_inhibition(tau, tau / 0.25, 0.25)
        assert eta_bulk == pytest.approx(1.0, rel=1e-12)
        assert eta_phc == pytest.approx(1.0, rel=1e-12)

    def test_no_change_means_dark(self):
        eta_bulk, eta_phc = purcell.infer_bulk_qe_from_inhibition(1e-9, 1e-9, 0.25)
        assert eta_bulk == 0.0 and eta_phc == 0.0

    def test_excess_inhibition_infeasible(self):
        with pytest.raises(InfeasibleMeasurementError):
            purcell.infer_bulk_qe_from_inhibition(1e-9, 6e-9, 0.25)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=1e-10, max_value=1e-8),
    )
    def test_round_trip_through_lifetimes(self, eta, f_phc, tau_bulk):
        tau_phc = tau_bulk / (f_phc * eta + 1.0 - eta)
        eta_back, _ = purcell.infer_bulk_qe_from_inhibition(tau_bulk, tau_phc, f_phc)
        assert eta_back == pytest.approx(eta, rel=1e-9)


class TestNanosphere:
    def test_diamond(self):
        assert purcell.nanosphere_factor(2.4) == pytest.approx(0.0623, abs=1e-4)

    def test_vacuum(self):
        assert purcell.nanosphere_factor(1.0) == 1.0

    def test_monotone_decreasing(self):
        ns = np.linspace(1.0, 4.0, 200)
        vals = [purcell.nanosphere_factor(n) for n in ns]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_below_unity(self):
        with pytest.raises(DomainError):
            purcell.nanosphere_factor(0.5)


class TestRescaleQe:
    def test_published_reductions(self):
        factor = purcell.nanosphere_factor(2.4)
        assert purcell.rescale_qe(0.66, factor) == pytest.approx(0.108, abs=0.001)
        assert purcell.rescale_qe(0.34, factor) == pytest.approx(0.031, abs=0.001)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_identity_factor(self, eta):
        assert purcell.rescale_qe(eta, 1.0) == pytest.approx(eta, rel=1e-12, abs=1e-15)


class TestFieldMapIO:
    def test_round_trip(self, tmp_path):
        coords = np.arange(-50.0, 51.0, 10.0)
        x, y = np.meshgrid(coords, coords)
        fm = FieldMap(np.cos(0.01 * x) * np.cos(0.02 * y), 10.0, (-50.0, -50.0))
        path = tmp_path / "map.csv"
        purcell.save_field_map(fm, path)
        back = purcell.load_field_map(path)
        assert np.array_equal(back.grid, fm.grid)
        assert back.spacing == fm.spacing
        assert back.origin == fm.origin
        assert back.normalization == fm.normalization

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(InputFormatError, match="spacing_nm"):
            purcell.load_field_map(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# spacing_nm=10\n# origin=0,0\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(InputFormatError, match="bad.csv:4"):
            purcell.load_field_map(path)

    @pytest.mark.parametrize("text, where", [
        ("# spacing_nm=zz\n# origin=0,0\n1.0,2.0\n3.0,oops\n", ":1: 'spacing_nm=zz' holds 'zz', which is not a number"),
        ("# spacing_nm=10,10\n# origin=0,0\n1.0,2.0\n3.0,4.0\n",
         ":1: 'spacing_nm=10,10' needs 1 number joined by ',', got 2"),
        ("# spacing_nm=10\n# origin=1\n1.0,2.0\n3.0,4.0\n", ":2: 'origin=1' needs 2 numbers joined by ',', got 1"),
        ("# spacing_nm=10\n1.0,2.0\n# origin=a,b\n3.0,oops\n", ":3: 'origin=a,b' holds 'a', which is not a number"),
        ("# spacing_nm=10\n# origin=0,x\n1.0,2.0\n3.0,4.0\n", ":2: 'origin=0,x' holds 'x', which is not a number"),
        ("# spacing_nm=10\n# origin=0,0\n1.0,2.0\n\n3.0,4.0,5.0\n", ":5: inconsistent row length"),
        ("# spacing_nm=10\n# origin=0,0\n1.0,2.0\n3.0,x,5.0\n", ":4: bad amplitude value"),
    ])
    def test_first_faulty_line_wins(self, tmp_path, text, where):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputFormatError) as err:
            purcell.load_field_map(path)
        assert str(err.value) == f"{path}{where}"
