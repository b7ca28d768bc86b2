import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sivcav import fitting, purcell, spectra
from sivcav.errors import DomainError, InputFormatError, ValidationError
from sivcav.models import CavityMode, EmitterLine, PLSpectrum

WL = np.linspace(720.0, 790.0, 1400)


def lorentz_spectrum(peaks, base=50.0, wl=WL, noise=None, rng=None):
    """peaks: list of (center, fwhm, amplitude)."""
    y = np.full_like(wl, base)
    for c, w, a in peaks:
        y = y + fitting.lorentzian_peak(wl, c, w, a)
    if noise:
        y = np.clip(y + rng.normal(0.0, noise, wl.size), 0.0, None)
    return PLSpectrum(wl, y)


def single_mode_series(centers, fwhm=2.3, amp=800.0):
    return [(k, lorentz_spectrum([(c, fwhm, amp)])) for k, c in enumerate(centers)]


def tuning_counts(seed, shot_noise=True, steps=12):
    """Spectra of a 2.3 nm mode (800 counts over 50) blue-shifting 1.6 nm per
    step through a 0.35 nm, 300-1500 count line at 739.9 nm: the mode centers,
    the line amplitudes and the counts, Poisson draws unless ``shot_noise`` is
    False."""
    rng = np.random.default_rng(seed)
    centers = 739.9 + 1.6 * (5 - np.arange(steps)) + rng.uniform(-0.5, 0.5)
    line = 300.0 * (1.0 + 4.0 / (1.0 + (2.0 * (centers - 739.9) / 2.3) ** 2))
    expected = (
        50.0
        + fitting.lorentzian_peak(WL[None, :], centers[:, None], 2.3, 800.0)
        + fitting.lorentzian_peak(WL[None, :], 739.9, 0.35, line[:, None])
    )
    counts = rng.poisson(expected).astype(float) if shot_noise else expected
    return centers, line, counts


def track_tuning_counts(centers, counts):
    steps = [(k, PLSpectrum(WL, y)) for k, y in enumerate(counts)]
    return spectra.track_modes(steps, {"mode": (centers[0], 2.3), "line": (739.9, 0.35)})


class TestTrackModes:
    def test_blue_shift_rate(self):
        steps = single_mode_series([769.0 - 1.6 * k for k in range(10)])
        series = spectra.track_modes(steps, {"o1": (769.0, 2.3)})
        track = series.tracked_modes["o1"]
        assert track.terminated_at is None
        assert track.tuning_rate() == pytest.approx(-1.6, abs=0.05)

    def test_stationary_rate_zero(self):
        steps = single_mode_series([750.0] * 6)
        series = spectra.track_modes(steps, {"m": (750.0, 2.3)})
        assert series.tracked_modes["m"].tuning_rate() == pytest.approx(0.0, abs=0.01)

    def test_noisy_rate(self, rng):
        steps = [
            (k, lorentz_spectrum([(769.0 - 1.6 * k, 2.3, 800.0)], noise=8.0, rng=rng))
            for k in range(10)
        ]
        series = spectra.track_modes(steps, {"o1": (769.0, 2.3)})
        assert series.tracked_modes["o1"].tuning_rate() == pytest.approx(-1.6, abs=0.05)

    def test_crossing_peaks_no_identity_swap(self):
        # A sweeps past the stationary narrow B; separations always exceed
        # B's association threshold (3 x 0.4 nm)
        steps = []
        for k in range(8):
            c_a = 760.7 - 3.2 * k
            steps.append((k, lorentz_spectrum([(c_a, 2.0, 600.0), (746.3, 0.4, 500.0)])))
        series = spectra.track_modes(steps, {"A": (760.7, 2.0), "B": (746.3, 0.4)})
        a, b = series.tracked_modes["A"], series.tracked_modes["B"]
        assert a.terminated_at is None and b.terminated_at is None
        assert a.tuning_rate() == pytest.approx(-3.2, abs=0.05)
        assert np.max(np.abs(b.centers - 746.3)) < 0.2

    def test_lost_track_terminates(self):
        # the peak jumps far beyond the association threshold mid-series
        centers = [760.0, 758.4, 740.0, 738.4]
        steps = single_mode_series(centers)
        series = spectra.track_modes(steps, {"m": (760.0, 2.3)})
        track = series.tracked_modes["m"]
        assert track.terminated_at == 2
        assert len(track.points) == 2

    def test_association_is_permutation_invariant(self):
        steps = [
            (0, lorentz_spectrum([(745.0, 1.5, 500.0), (765.0, 2.5, 700.0)])),
            (1, lorentz_spectrum([(743.4, 1.5, 500.0), (763.4, 2.5, 700.0)])),
        ]
        s1 = spectra.track_modes(steps, {"a": (745.0, 1.5), "b": (765.0, 2.5)})
        s2 = spectra.track_modes(steps, {"b": (765.0, 2.5), "a": (745.0, 1.5)})
        for label in ("a", "b"):
            assert np.allclose(
                s1.tracked_modes[label].centers, s2.tracked_modes[label].centers
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_shot_noise_keeps_the_mode(self, seed):
        centers, _, counts = tuning_counts(seed)
        track = track_tuning_counts(centers, counts).tracked_modes["mode"]
        assert track.terminated_at is None
        assert np.array_equal(track.steps, np.arange(centers.size))
        assert np.max(np.abs(track.centers - centers)) < 0.5

    def test_red_shift_flagged_not_rejected(self):
        centers = [750.0, 748.4, 749.5, 746.8]
        steps = single_mode_series(centers)
        series = spectra.track_modes(steps, {"m": (750.0, 2.3)})
        track = series.tracked_modes["m"]
        assert track.terminated_at is None
        assert 2 in track.non_monotonic_steps

    def test_tuning_rate_needs_two_steps(self):
        series = spectra.track_modes(single_mode_series([750.0]), {"m": (750.0, 2.3)})
        with pytest.raises(DomainError, match="fewer than 2"):
            series.tracked_modes["m"].tuning_rate()


class TestTuningSeries:
    def test_unknown_step_has_no_spectrum(self):
        series = spectra.track_modes(single_mode_series([750.0, 749.0]), {"m": (750.0, 2.3)})
        assert series.spectrum(1) is series.steps[1][1]
        with pytest.raises(DomainError, match="no spectrum for step 7"):
            series.spectrum(7)

    def test_step_indices_must_increase(self):
        spectrum = lorentz_spectrum([(750.0, 2.3, 800.0)])
        for indices in ((1, 0), (2, 2)):
            with pytest.raises(ValidationError, match="strictly increasing"):
                spectra.TuningSeries(tuple((k, spectrum) for k in indices), {})

    def test_steps_must_be_spectra(self):
        with pytest.raises(ValidationError, match="PLSpectrum"):
            spectra.TuningSeries(((0, np.ones(3)),), {})


def crossing_series(centers, line_amp=300.0):
    """A 2.3 nm mode at centers, one per step, beside a constant 0.35 nm
    line at 739.9 nm; the mode and the line tracked."""
    steps = [(k, lorentz_spectrum([(c, 2.3, 800.0), (739.9, 0.35, line_amp)])) for k, c in enumerate(centers)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return spectra.track_modes(steps, {"o1": (centers[0], 2.3), "zpl": (739.9, 0.35)})


class TestOnOffSteps:
    """The on-resonance step is the one whose tuning mode lies nearest the
    emitter line, the off-resonance step the one whose mode lies farthest."""

    LINE = EmitterLine(739.9, 0.35)

    def test_designed_crossing(self):
        centers = [739.9 + 1.6 * (7 - k) for k in range(11)]  # crosses at step 7
        result = spectra.enhancement_ratio(crossing_series(centers), self.LINE)
        assert (result.on_step, result.off_step) == (7, 0)

    def test_paper_shaped_track(self):
        centers = [769.0 - 1.6 * k for k in range(21)]  # 0.3 nm from the line at step 18
        result = spectra.enhancement_ratio(crossing_series(centers), self.LINE)
        assert (result.on_step, result.off_step) == (18, 0)

    def test_one_tracked_step_is_refused(self):
        series = crossing_series([745.0, 743.4, 741.8])
        single = spectra.TuningSeries(series.steps, {
            "o1": replace(series.tracked_modes["o1"], points=series.tracked_modes["o1"].points[:1])})
        with pytest.raises(DomainError, match="at least two steps"):
            spectra.enhancement_ratio(single, self.LINE, mode_labels=["o1"])

    def test_stationary_tracks_alone_are_refused(self):
        # the line's own track spans less than its width: no tuning mode
        series = crossing_series([745.0, 743.4, 741.8])
        with pytest.raises(DomainError, match="no tuning-mode tracks"):
            spectra.enhancement_ratio(series, self.LINE, mode_labels=[])
        line_only = spectra.TuningSeries(series.steps, {"zpl": series.tracked_modes["zpl"]})
        with pytest.raises(DomainError, match="no tuning-mode tracks"):
            spectra.enhancement_ratio(line_only, self.LINE)


def enhancement_series(ratio, zpl_base=40.0, zpl_fwhm=0.35, mode_amp=800.0):
    """Mode sweeps past the line at 739.9 nm; the line amplitude is built to
    give exactly `ratio` between the closest and farthest steps."""
    line = EmitterLine(739.9, zpl_fwhm)
    centers = [753.0, 750.0, 747.0, 744.5, 742.5, 741.1, 738.7, 736.5, 734.0, 731.5]
    dets = [abs(c - 739.9) for c in centers]
    kon, koff = int(np.argmin(dets)), int(np.argmax(dets))
    rls = np.array(
        [purcell.spectral_overlap(line, CavityMode(c, c / 2.3, 1.3)) for c in centers]
    )
    w = (rls - rls[koff]) / (rls[kon] - rls[koff])
    amps = zpl_base * (1.0 + (ratio - 1.0) * w)
    steps = [
        (k, lorentz_spectrum([(c, 2.3, mode_amp), (739.9, zpl_fwhm, amps[k])]))
        for k, c in enumerate(centers)
    ]
    return steps, line, kon, koff


class TestEnhancementRatio:
    def test_ratio_19(self):
        steps, line, kon, koff = enhancement_series(19.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            series = spectra.track_modes(steps, {"o2": (753.0, 2.3), "zpl": (739.9, 0.35)})
        result = spectra.enhancement_ratio(series, line)
        assert result.on_step == kon and result.off_step == koff
        assert result.ratio == pytest.approx(19.0, rel=0.05)

    def test_ratio_3p8(self):
        steps, line, kon, koff = enhancement_series(3.8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            series = spectra.track_modes(steps, {"o2": (753.0, 2.3), "zpl": (739.9, 0.35)})
        result = spectra.enhancement_ratio(series, line)
        assert result.ratio == pytest.approx(3.8, rel=0.05)

    def test_constant_line_gives_unity(self):
        # the mode tunes but the emitter line never changes: ratio 1
        line = EmitterLine(739.9, 0.35)
        steps = [
            (k, lorentz_spectrum([(752.0 - 4.0 * k, 2.3, 800.0), (739.9, 0.35, 300.0)]))
            for k in range(3)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            series = spectra.track_modes(steps, {"o2": (752.0, 2.3)})
        result = spectra.enhancement_ratio(series, line)
        assert result.ratio == pytest.approx(1.0, rel=0.02)

    def test_intensity_rescaling_invariance(self):
        steps, line, _, _ = enhancement_series(7.0)
        scaled = [
            (k, PLSpectrum(s.wavelengths, s.intensities * 3.7)) for k, s in steps
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s1 = spectra.track_modes(steps, {"o2": (753.0, 2.3), "zpl": (739.9, 0.35)})
            s2 = spectra.track_modes(scaled, {"o2": (753.0, 2.3), "zpl": (739.9, 0.35)})
        r1 = spectra.enhancement_ratio(s1, line)
        r2 = spectra.enhancement_ratio(s2, line)
        assert r1.ratio == pytest.approx(r2.ratio, rel=1e-6)

    def test_mode_labels_override(self):
        steps, line, kon, koff = enhancement_series(5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            series = spectra.track_modes(steps, {"o2": (753.0, 2.3), "zpl": (739.9, 0.35)})
        result = spectra.enhancement_ratio(series, line, mode_labels=["o2"])
        assert result.ratio == pytest.approx(5.0, rel=0.05)
        with pytest.raises(DomainError):
            spectra.enhancement_ratio(series, line, mode_labels=["missing"])


    def test_noise_free_ratio_without_mode_labels(self):
        # the stationary line track drops out of the default tuning modes, and
        # the mode 9-12 nm off resonance is fitted with the line, not left to
        # curve its baseline
        centers, line, counts = tuning_counts(3, shot_noise=False)
        detuning = np.abs(centers - 739.9)
        kon, koff = int(np.argmin(detuning)), int(np.argmax(detuning))
        series = track_tuning_counts(centers, counts)
        result = spectra.enhancement_ratio(series, EmitterLine(739.9, 0.35))
        assert (result.on_step, result.off_step) == (kon, koff)
        assert result.ratio == pytest.approx(line[kon] / line[koff], rel=0.01)


class TestPolarizationMixture:
    EMITTER = spectra.PolarizedChannel(60.0, 1.0)

    def modes(self, weight=50.0):
        return [
            (spectra.PolarizedChannel(0.0, weight), CavityMode(760.0, 400.0, 1.0)),
            (spectra.PolarizedChannel(-45.0, weight), CavityMode(770.0, 400.0, 1.0)),
        ]

    def test_far_detuning_restores_emitter_angle(self):
        angles = spectra.polarization_mixture(self.EMITTER, self.modes(), 750.0, [-500.0])
        assert angles[0] == pytest.approx(60.0, abs=0.5)

    def test_dominant_mode_sets_angle(self):
        mode = [(spectra.PolarizedChannel(-45.0, 1e5), CavityMode(770.0, 400.0, 1.0))]
        angles = spectra.polarization_mixture(self.EMITTER, mode, 750.0, [-20.0])
        assert angles[0] == pytest.approx(-45.0, abs=0.2)

    def test_equal_weight_symmetric_average(self):
        # brute-force argmax oracle over a fine angular grid
        mode = [(spectra.PolarizedChannel(0.0, 1.0), CavityMode(750.0, 400.0, 1.0))]
        angles = spectra.polarization_mixture(spectra.PolarizedChannel(60.0, 1.0), mode, 750.0, [0.0])
        phi = np.linspace(-90.0, 90.0, 360001)
        pattern = np.cos(np.radians(phi - 60.0)) ** 2 + np.cos(np.radians(phi - 0.0)) ** 2
        brute = phi[np.argmax(pattern)]
        assert angles[0] == pytest.approx(30.0, abs=1e-9)
        assert angles[0] == pytest.approx(brute, abs=1e-3)

    def test_continuous_in_detuning(self):
        # step below linewidth/100 keeps angle jumps below 1 degree
        mode = CavityMode(760.0, 400.0, 1.0)
        step = mode.linewidth / 120.0
        detunings = np.arange(-25.0, 5.0, step)
        angles = spectra.polarization_mixture(self.EMITTER, self.modes(4.0), 750.0, detunings)
        jumps = np.abs(np.diff(angles))
        jumps = np.minimum(jumps, 180.0 - jumps)
        assert np.max(jumps) < 1.0

    def test_weight_scaling_invariance(self):
        det = np.linspace(-30.0, 0.0, 50)
        a1 = spectra.polarization_mixture(self.EMITTER, self.modes(5.0), 750.0, det)
        scaled_emitter = spectra.PolarizedChannel(60.0, 10.0)
        a2 = spectra.polarization_mixture(scaled_emitter, self.modes(50.0), 750.0, det)
        assert np.allclose(a1, a2, atol=1e-9)

    def test_zero_weights_degenerate(self):
        emitter = spectra.PolarizedChannel(60.0, 0.0)
        mode = [(spectra.PolarizedChannel(0.0, 0.0), CavityMode(750.0, 400.0, 1.0))]
        with pytest.raises(DomainError):
            spectra.polarization_mixture(emitter, mode, 750.0, [0.0])

    def test_isotropic_pattern_degenerate(self):
        # equal-weight orthogonal channels cancel the Stokes vector
        emitter = spectra.PolarizedChannel(0.0, 1.0)
        mode = [(spectra.PolarizedChannel(90.0, 1.0), CavityMode(750.0, 400.0, 1.0))]
        with pytest.raises(DomainError):
            spectra.polarization_mixture(emitter, mode, 750.0, [0.0])

    def test_needs_modes(self):
        with pytest.raises(DomainError):
            spectra.polarization_mixture(self.EMITTER, [], 750.0, [0.0])


class TestSpectraIO:
    def test_spectrum_round_trip(self, tmp_path, rng):
        spec = lorentz_spectrum([(745.0, 2.0, 300.0)], noise=3.0, rng=rng)
        path = tmp_path / "spec.csv"
        spectra.save_spectrum(spec, path)
        back = spectra.load_spectrum(path)
        assert np.array_equal(back.wavelengths, spec.wavelengths)
        assert np.array_equal(back.intensities, spec.intensities)

    def test_bad_spectrum_line_number(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("# header\n720.0,5.0\n721.0\n")
        with pytest.raises(InputFormatError, match="spec.csv:3"):
            spectra.load_spectrum(path)

    def test_manifest_round_trip(self, tmp_path):
        steps = single_mode_series([769.0, 767.4, 765.8])
        entries = []
        for k, spec in steps:
            name = f"step{k:02d}.csv"
            spectra.save_spectrum(spec, tmp_path / name)
            entries.append({"index": k, "file": name})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"steps": entries}))
        loaded = spectra.load_manifest(manifest)
        assert [k for k, _ in loaded] == [0, 1, 2]
        assert all(isinstance(s, PLSpectrum) for _, s in loaded)

    def test_bad_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        for doc in ({"nope": []}, [], {"steps": [{"index": 0}]}, {"steps": [{"index": 0, "file": 5}]}):
            manifest.write_text(json.dumps(doc))
            with pytest.raises(InputFormatError, match="manifest.json:0: manifest must be an object"):
                spectra.load_manifest(manifest)
        manifest.write_text("{\"steps\": []}")
        with pytest.raises(InputFormatError, match="manifest.json:0: manifest lists no steps"):
            spectra.load_manifest(manifest)
