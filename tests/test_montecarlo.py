import io
import os
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.stats import ks_1samp

from sivcav import _table, dynamics, montecarlo
from sivcav.errors import DomainError, InputFormatError, ValidationError
from sivcav.models import RadiativeBudget, ThreeLevelRates


@pytest.fixture
def mc_rates():
    return ThreeLevelRates(98.6e6, 2.0e9, 0.3e9, 50e6)


@pytest.fixture
def radiative_budget():
    # eta = 1, 4:1 ZPL:PSB split
    return RadiativeBudget(0.8e9, 0.2e9, 0.0)


def interdetection_generator(rates, q_detect):
    """Sub-generator S of the transient chain between two detected photons.

    After any photon the emitter is in the ground state e1; a detected
    emission is an absorbing exit taken with probability q_detect at each
    decay to ground. The gap is phase-type: its survival is 1^T e^(S t) e1.
    """
    k12, k21, k23, k31 = rates.k12, rates.k21, rates.k23, rates.k31
    return np.array(
        [
            [-k12, (1.0 - q_detect) * k21, k31],
            [k12, -(k21 + k23), 0.0],
            [0.0, k23, -k31],
        ]
    )


def interdetection_cdf(rates, q_detect, t_grid):
    """Phase-type oracle for the CDF of the waiting time between detected photons."""
    sub = interdetection_generator(rates, q_detect)
    e1 = np.array([1.0, 0.0, 0.0])
    return np.array([1.0 - (expm(sub * t) @ e1).sum() for t in t_grid])


def gap_mean_and_cv2(rates, q_detect):
    """Mean and squared coefficient of variation of the phase-type gap, from
    its moments E[X^k] = k! 1^T (-S)^-k e1."""
    inv = np.linalg.inv(-interdetection_generator(rates, q_detect))
    first = inv[:, 0].sum()
    second = 2.0 * (inv @ inv)[:, 0].sum()
    return first, second / first**2 - 1.0


def gaps_ks_pvalue(stream, rates, q_detect, n_gaps=20000):
    """KS p-value of the first inter-detection gaps against the oracle."""
    gaps = np.diff(stream.timestamps)[:n_gaps]
    grid = np.linspace(0.0, float(gaps.max()) * 1.05, 4001)
    cdf_grid = interdetection_cdf(rates, q_detect, grid)
    return ks_1samp(gaps, lambda t: np.interp(t, grid, cdf_grid)).pvalue


# criterion 08 off resonance: the bandgap (F = 0.25) on both radiative
# channels of SiV 4; about one cycle in ten ends in a detected photon
OFF_RESONANCE_BUDGET = RadiativeBudget(0.25 / 1.44e-9, 0.25 / 5.75e-9, 1.0 / 583e-12)
OFF_RESONANCE_RATES = ThreeLevelRates(50e6, OFF_RESONANCE_BUDGET.gamma_total, 0.318e9, 50e6)


class TestSimulateStream:
    def test_deterministic(self, mc_rates, radiative_budget):
        s1 = montecarlo.simulate_stream(mc_rates, radiative_budget, 1e-3, 0.8, seed=5)
        s2 = montecarlo.simulate_stream(mc_rates, radiative_budget, 1e-3, 0.8, seed=5)
        assert np.array_equal(s1.timestamps, s2.timestamps)
        assert np.array_equal(s1.channel_tags, s2.channel_tags)

    def test_seed_changes_stream(self, mc_rates, radiative_budget):
        s1 = montecarlo.simulate_stream(mc_rates, radiative_budget, 1e-3, 0.8, seed=5)
        s2 = montecarlo.simulate_stream(mc_rates, radiative_budget, 1e-3, 0.8, seed=6)
        assert not np.array_equal(s1.timestamps, s2.timestamps)

    def test_zero_detection_warns_empty(self, mc_rates, radiative_budget):
        with pytest.warns(UserWarning):
            stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 1e-3, 0.0, seed=1)
        assert len(stream) == 0

    def test_zero_pump_warns_empty(self, radiative_budget):
        rates = ThreeLevelRates(0.0, 2e9, 0.0, 5e7)
        with pytest.warns(UserWarning):
            stream = montecarlo.simulate_stream(rates, radiative_budget, 1e-3, 1.0, seed=1)
        assert len(stream) == 0

    def test_mean_rate_within_poisson_bounds(self, mc_rates, radiative_budget):
        duration = 0.02
        det = 0.7
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, duration, det, seed=11)
        p2 = dynamics.steady_state(mc_rates)[1]
        q_detect = det * radiative_budget.eta_qe
        expected = q_detect * mc_rates.k21 * p2 * duration
        mean_gap, cv2 = gap_mean_and_cv2(mc_rates, q_detect)
        assert expected == pytest.approx(duration / mean_gap, rel=1e-12)
        # the photons form a renewal process, whose count has variance N CV^2
        # (Fano factor CV^2 = 1.33 here): shelving bunches the photons
        assert abs(len(stream) - expected) < 3.0 * np.sqrt(expected * cv2)

    def test_timestamps_sorted_within_duration(self, mc_rates, radiative_budget):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 1e-3, 1.0, seed=3)
        assert np.all(np.diff(stream.timestamps) >= 0)
        assert stream.timestamps[0] >= 0 and stream.timestamps[-1] <= stream.duration

    def test_channel_fraction_binomial(self, mc_rates, radiative_budget):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 5e-3, 1.0, seed=13)
        n = len(stream)
        zpl = int(np.sum(stream.channel_tags == montecarlo.CHANNEL_ZPL))
        p = radiative_budget.zpl_fraction
        assert abs(zpl - n * p) < 3.0 * np.sqrt(n * p * (1 - p))

    def test_interphoton_interval_matches_phase_type_oracle(self, radiative_budget):
        # strong shelving produces bunching-era gaps; KS against the
        # analytic waiting-time law
        rates = ThreeLevelRates(0.4e9, 1.5e9, 0.9e9, 30e6)
        q = radiative_budget.eta_qe * 1.0
        stream = montecarlo.simulate_stream(rates, radiative_budget, 4e-3, 1.0, seed=17)
        assert gaps_ks_pvalue(stream, rates, q) > 0.01

    @pytest.mark.parametrize("case, det, seed", [
        ("off-resonance", 1.0, 18),
        ("off-resonance", 0.5, 19),
        ("strong-shelving", 0.5, 20),
    ])
    def test_interphoton_interval_oracle_at_low_detection(self, radiative_budget, case, det, seed):
        # long runs of undetected cycles between photons: q = 0.097 and
        # 0.048 off resonance, 0.31 with strong shelving at det = 0.5
        if case == "off-resonance":
            rates, budget = OFF_RESONANCE_RATES, OFF_RESONANCE_BUDGET
        else:
            rates, budget = ThreeLevelRates(0.4e9, 1.5e9, 0.9e9, 30e6), radiative_budget
        q_detect = budget.eta_qe * det
        stream = montecarlo.simulate_stream(rates, budget, 0.012, det, seed=seed)
        assert len(stream) > 20000
        assert gaps_ks_pvalue(stream, rates, q_detect) > 0.01

    def test_every_cycle_detected(self):
        # k23 = 0, gamma_nr = 0, det = 1: q = 1, so a photon ends every cycle
        rates = ThreeLevelRates(1e8, 1e9, 0.0, 5e7)
        budget = RadiativeBudget(0.8e9, 0.2e9, 0.0)
        duration = 1e-3
        stream = montecarlo.simulate_stream(rates, budget, duration, 1.0, seed=23)
        expected = duration / (1.0 / rates.k12 + 1.0 / (rates.k21 + rates.k23))
        assert abs(len(stream) - expected) < 3.0 * np.sqrt(expected)
        assert gaps_ks_pvalue(stream, rates, 1.0) > 0.01

    def test_every_undetected_cycle_shelved(self, radiative_budget):
        # gamma_nr = 0, det = 1, k23 > 0: an undetected cycle is a shelved
        # one. These rates make p_shelf / (1 - q) round above 1.
        rates = ThreeLevelRates(0.4e9, 1.5e9, 0.3e9, 30e6)
        p_shelf = rates.k23 / (rates.k21 + rates.k23)
        assert p_shelf / (1.0 - (1.0 - p_shelf)) > 1.0
        stream = montecarlo.simulate_stream(rates, radiative_budget, 4e-3, 1.0, seed=24)
        assert gaps_ks_pvalue(stream, rates, 1.0) > 0.01

    def test_rejects_bad_duration(self, mc_rates, radiative_budget):
        with pytest.raises(DomainError):
            montecarlo.simulate_stream(mc_rates, radiative_budget, 0.0, 1.0, seed=1)


# roots -1.098e9 +- 2.14e8 i and -4.0e6 of det(sI - S) at q_detect = 0.5
COMPLEX_ROOT_RATES = ThreeLevelRates(1e9, 1e8, 1e9, 1e8)
FULLY_RADIATIVE = RadiativeBudget(0.8e9, 0.2e9, 0.0)


def gap_cubic(rates, q_detect):
    """Coefficients (c2, c1, c0) of det(sI - S) = s^3 + c2 s^2 + c1 s + c0."""
    k12, k21, k23, k31 = rates.k12, rates.k21, rates.k23, rates.k31
    return (k12 + k21 + k23 + k31,
            k12 * k23 + q_detect * k12 * k21 + k12 * k31 + (k21 + k23) * k31,
            q_detect * k12 * k21 * k31)


class TestPhotonStream:
    @pytest.mark.parametrize("tags", [[257, -255], [0.5, 1.7], [0, 2], [-1, 0], [0.0, np.nan],
                                      ["ZPL", "PSB"], [1 + 0j, 0j]],
                             ids=["wrap-around", "fractions", "two", "negative", "nan", "labels",
                                  "complex"])
    def test_tags_other_than_zero_or_one_rejected(self, tags):
        with pytest.raises(ValidationError) as err:
            montecarlo.PhotonStream([1e-6, 2e-6], tags, 1e-5, 0)
        assert err.value.violations == ["channel_tags must be ZPL/PSB codes"]

    @pytest.mark.parametrize("tags", [[0, 1], np.array([0, 1], dtype=np.int64), [0.0, 1.0], [False, True],
                                      np.array([0, 1], dtype=np.uint8)])
    def test_whole_zero_or_one_tags_stored_as_uint8(self, tags):
        stream = montecarlo.PhotonStream([1e-6, 2e-6], tags, 1e-5, 0)
        assert stream.channel_tags.dtype == np.uint8
        assert stream.channel_tags.tolist() == [0, 1]

    # each entry is checked once, in _arrays; a fault there skips the order
    # and range checks, whose messages would only repeat it
    @pytest.mark.parametrize("timestamps, violations", [
        ([1e-6, np.nan], ["timestamps contains non-finite entries"]),
        ([3e-6, np.nan, 1e-6], ["timestamps contains non-finite entries"]),
        ([1e-6, np.inf], ["timestamps contains non-finite entries"]),
        ([-np.inf, 1e-6], ["timestamps contains non-finite entries"]),
        ([[1e-6, 2e-6], [3e-6]], ["timestamps is ragged"]),
        (["a", "b"], ["timestamps is not a number"]),
        (["1e-6", "2e-6"], ["timestamps is not a number"]),
        ([None, 1e-6], ["timestamps is not a number"]),
        ([[1e-6, 2e-6], [3e-6, 4e-6]], ["timestamps and channel_tags must be 1-D",
                                        "timestamps and channel_tags must align"]),
    ], ids=["nan", "nan-unsorted", "inf", "minus-inf", "ragged", "letters", "numeric-strings", "none",
            "two-d"])
    def test_faulty_timestamps_reported_once(self, timestamps, violations):
        with pytest.raises(ValidationError) as err:
            montecarlo.PhotonStream(timestamps, [0, 1, 0][:len(timestamps)], 1e-5, 0)
        assert err.value.violations == violations

    def test_unsorted_timestamps_rejected(self):
        with pytest.raises(ValidationError) as err:
            montecarlo.PhotonStream([2e-6, 1e-6, 3e-6], [0, 1, 0], 1e-5, 0)
        assert err.value.violations == ["timestamps must be sorted"]
        assert len(montecarlo.PhotonStream([1e-6, 1e-6], [0, 1], 1e-5, 0)) == 2  # ties are sorted


class TestGapSampler:
    """The Coxian sampler where the gap's cubic has real roots, event
    skipping where it has complex ones."""

    @pytest.mark.parametrize("rates, budget, det, tag", [
        (ThreeLevelRates(98.6e6, 2.0e9, 0.3e9, 50e6), FULLY_RADIATIVE, 0.7, "cox-2"),  # mc
        (ThreeLevelRates(98.6e6, 2.0e9, 0.3e9, 50e6), FULLY_RADIATIVE, 1.0, "cox-2"),
        (ThreeLevelRates(100e6, 2e9, 0.3e9, 50e6), FULLY_RADIATIVE, 0.8, "cox-2"),  # README
        (OFF_RESONANCE_RATES, OFF_RESONANCE_BUDGET, 1.0, "cox-2"),
        (OFF_RESONANCE_RATES, OFF_RESONANCE_BUDGET, 0.5, "cox-2"),
        (ThreeLevelRates(0.4e9, 1.5e9, 0.9e9, 30e6), FULLY_RADIATIVE, 1.0, "cox-2"),  # strong shelving
        (ThreeLevelRates(0.4e9, 1.5e9, 0.9e9, 30e6), FULLY_RADIATIVE, 0.5, "cox-2"),
        (ThreeLevelRates(0.4e9, 1.5e9, 0.3e9, 30e6), FULLY_RADIATIVE, 1.0, "cox-2"),
        (ThreeLevelRates(1e8, 1e9, 0.0, 5e7), FULLY_RADIATIVE, 1.0, "cox-2"),  # k23 = 0
        (ThreeLevelRates(5e5, 5e8, 0.0, 5e7), FULLY_RADIATIVE, 1.0, "cox-2"),
        (COMPLEX_ROOT_RATES, FULLY_RADIATIVE, 0.5, "skip-2"),
    ])
    def test_sampler_of_each_rate_set(self, rates, budget, det, tag):
        stream = montecarlo.simulate_stream(rates, budget, 1e-5, det, seed=1)
        assert stream.rng_algorithm == f"sfc64/{tag}"
        assert montecarlo.apply_jitter(stream, 1e-10, seed=2).rng_algorithm == stream.rng_algorithm
        roots = np.roots([1.0, *gap_cubic(rates, budget.eta_qe * det)])
        assert np.any(roots.imag != 0.0) == (tag == "skip-2")

    def test_tags_name_the_bit_generator(self):
        # a stream's tag must say which generator drew it
        name = type(montecarlo._rng(0).bit_generator).__name__.lower()
        for tag in (montecarlo.RNG_SKIP, montecarlo.RNG_COXIAN):
            assert tag.split("/")[0] == name

    def test_fallback_matches_phase_type_oracle(self):
        stream = montecarlo.simulate_stream(COMPLEX_ROOT_RATES, FULLY_RADIATIVE, 0.012, 0.5, seed=25)
        assert stream.rng_algorithm == montecarlo.RNG_SKIP
        assert len(stream) > 20000
        assert gaps_ks_pvalue(stream, COMPLEX_ROOT_RATES, 0.5) > 0.01

    @settings(max_examples=300, deadline=None)
    @given(
        rates=st.lists(st.floats(6.0, 10.0), min_size=4, max_size=4).map(lambda x: [10.0**v for v in x]),
        q_detect=st.floats(1e-3, 1.0),
        shelving=st.booleans(),
    )
    def test_coxian_against_the_phase_type_law(self, rates, q_detect, shelving):
        rates = ThreeLevelRates(rates[0], rates[1], rates[2] if shelving else 0.0, rates[3])
        cubic = gap_cubic(rates, q_detect)
        # np.poly goes through the eigenvalues of S, so its coefficient of
        # s^(3-k) is off by about eps c2^k, more than 1e-8 of a small c0
        powers = cubic[0] ** np.arange(4.0)
        assert np.poly(interdetection_generator(rates, q_detect)) / powers == pytest.approx(
            [1.0, *cubic] / powers, rel=1e-8, abs=1e-13)
        # the sign of the discriminant in exact arithmetic on the same coefficients
        c2, c1, c0 = (Fraction(c) for c in cubic)
        disc = 18 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2 - 4 * c1**3 - 27 * c0**2
        scale = c2**6  # the discriminant's terms are of this order at most
        coxian = montecarlo._coxian(rates, q_detect)
        if coxian is None:
            assert disc < 0
            return
        assert disc >= -1e-13 * scale
        mu1, mu2, mu3, beta1 = coxian
        assert 0.0 < mu1 <= mu2 <= mu3
        assert mu1 <= rates.k31 * (1.0 + 1e-12)
        assert 0.0 <= beta1 <= 1.0
        assert np.poly([-mu1, -mu2, -mu3]) == pytest.approx([1.0, *cubic], rel=1e-8)
        # the Coxian's first two moments against the phase-type ones
        mean, cv2 = gap_mean_and_cv2(rates, q_detect)
        cox_mean = 1.0 / mu3 + 1.0 / mu2 + beta1 / mu1
        cox_second = (2.0 / mu3**2 + 2.0 / mu2**2 + 2.0 * beta1 / mu1**2 + 2.0 / (mu2 * mu3)
                      + 2.0 * beta1 / (mu1 * mu2) + 2.0 * beta1 / (mu1 * mu3))
        assert cox_mean == pytest.approx(mean, rel=1e-8)
        assert cox_second == pytest.approx(mean**2 * (1.0 + cv2), rel=1e-8)


def spawned(seed, b):
    """The generator of batch or block b of a stream drawn from seed."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))


def batches_joined(rates, budget, duration, det, seed):
    """Oracle for simulate_stream's single buffer: batch after batch of the
    same size, min(expected count, GEN_BATCH), each drawn serially from its
    own spawned generator into new arrays, the Coxian's E1/mu1 added only
    where U < beta1, and the batches joined at the end."""
    q_detect = budget.eta_qe * det
    k2t = rates.k21 + rates.k23
    p_shelf = rates.k23 / k2t
    q = (1.0 - p_shelf) * q_detect
    mean_gap = (1.0 / rates.k12 + 1.0 / k2t + p_shelf / rates.k31) / q
    coxian = montecarlo._coxian(rates, q_detect)

    def gaps(rng, n):
        if coxian is not None:
            mu1, mu2, mu3, beta1 = coxian
            t = rng.standard_exponential(n) / mu3
            t += rng.standard_exponential(n) / mu2
            np.add(t, rng.standard_exponential(n) / mu1, out=t, where=rng.random(n) < beta1)
            return t
        undetected = p_shelf + (1.0 - p_shelf) * (1.0 - q_detect)
        cycles = rng.geometric(q, n)
        shelved = rng.binomial(cycles - 1, p_shelf / undetected)
        return (rng.gamma(cycles, 1.0 / rates.k12) + rng.gamma(cycles, 1.0 / k2t)
                + rng.gamma(shelved, 1.0 / rates.k31))

    n = min(max(1024, int(duration / mean_gap * 1.2) + 16), montecarlo.GEN_BATCH)
    times, tags, t0, b = [], [], 0.0, 0
    while t0 <= duration:
        rng = spawned(seed, b)
        t = np.cumsum(gaps(rng, n)) + t0
        coin = rng.random(n)
        kept = int(np.searchsorted(t, duration, side="right"))
        times.append(t[:kept])
        tags.append((coin[:kept] >= budget.zpl_fraction).astype(np.uint8))
        t0, b = float(t[-1]), b + 1
    return np.concatenate(times), np.concatenate(tags)


# bursts of about 1000 photons 1 ms apart: the count of a stream often
# exceeds the expected one by far more than simulate_stream's margin
BURSTY_RATES = ThreeLevelRates(1e9, 1e9, 1e6, 1e3)


class TestSimulateStreamBuffer:
    """One output array per stream, drawn into batch by batch, against the
    batches drawn whole and joined."""

    @pytest.mark.parametrize("rates, duration, batch, chunk", [
        (ThreeLevelRates(98.6e6, 2.0e9, 0.3e9, 50e6), 3e-4, 500_000, 1 << 14),  # one batch
        (ThreeLevelRates(98.6e6, 2.0e9, 0.3e9, 50e6), 3e-4, 1000, 7),  # 20 batches
        (ThreeLevelRates(98.6e6, 2.0e9, 0.3e9, 50e6), 3e-4, 1024, 1),
        (ThreeLevelRates(1e9, 1e8, 1e9, 1e8), 1e-3, 1000, 7),  # event skipping
        (BURSTY_RATES, 2e-3, 500_000, 1 << 14),
        (BURSTY_RATES, 2e-3, 1000, 7),
    ])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_the_batches_joined(self, monkeypatch, rates, duration, batch, chunk, seed):
        monkeypatch.setattr(montecarlo, "GEN_BATCH", batch)
        monkeypatch.setattr(montecarlo, "DRAW_CHUNK", chunk)
        stream = montecarlo.simulate_stream(rates, FULLY_RADIATIVE, duration, 0.9, seed)
        times, tags = batches_joined(rates, FULLY_RADIATIVE, duration, 0.9, seed)
        assert np.array_equal(stream.timestamps, times)
        assert np.array_equal(stream.channel_tags, tags)
        assert stream.channel_tags.dtype == np.uint8

    def test_grows_past_the_expected_count(self, monkeypatch):
        grown, real = [], montecarlo._grown
        monkeypatch.setattr(montecarlo, "_grown",
                            lambda a, pos, size: grown.append(size) or real(a, pos, size))
        stream = montecarlo.simulate_stream(BURSTY_RATES, FULLY_RADIATIVE, 2e-3, 0.9, seed=2)
        times, tags = batches_joined(BURSTY_RATES, FULLY_RADIATIVE, 2e-3, 0.9, seed=2)
        assert len(grown) >= 2  # times and tags: 4024 photons where 1.8k are expected
        assert np.array_equal(stream.timestamps, times)
        assert np.array_equal(stream.channel_tags, tags)


class TestWorkerCount:
    """The photon path's arrays depend on the seed and the batch size, not on
    the threads that draw and sort them."""

    @pytest.mark.parametrize("rates", [
        ThreeLevelRates(98.6e6, 2.0e9, 0.3e9, 50e6),  # Coxian
        ThreeLevelRates(1e9, 1e8, 1e9, 1e8),  # event skipping
    ])
    def test_same_arrays_on_one_two_and_three_threads(self, monkeypatch, rates):
        monkeypatch.setattr(montecarlo, "GEN_BATCH", 1000)
        monkeypatch.setattr(montecarlo, "SORT_BLOCK", 7)
        made = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
            stream = montecarlo.simulate_stream(rates, FULLY_RADIATIVE, 1e-3, 0.9, seed=5)
            jittered = montecarlo.apply_jitter(stream, 1e-9, seed=6)
            made.append([stream.timestamps, stream.channel_tags, jittered.timestamps,
                         jittered.channel_tags, stream.rng_algorithm, jittered.rng_algorithm])
        assert len(made[0][0]) > 5000  # a stream of many batches and blocks
        for other in made[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(made[0], other))

    def test_every_item_taken_once_under_frequent_switches(self, monkeypatch):
        # four threads, switching every microsecond: a lost or doubled item shows
        monkeypatch.setattr(montecarlo, "_workers", lambda: 4)
        taken, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = montecarlo._map(lambda i: taken.append(i) or i * i, range(3000))
        finally:
            sys.setswitchinterval(interval)
        assert out == [i * i for i in range(3000)]
        assert sorted(taken) == list(range(3000))

    def test_an_exception_in_a_thread_is_raised_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_workers", lambda: 3)

        def fail_at_5(i):
            if i == 5:
                raise KeyError(i)
            return i

        assert montecarlo._map(fail_at_5, range(5)) == list(range(5))
        with pytest.raises(KeyError):
            montecarlo._map(fail_at_5, range(20))


class TestApplyJitter:
    def test_zero_sigma_identity(self, mc_rates, radiative_budget):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 1e-4, 1.0, seed=2)
        assert montecarlo.apply_jitter(stream, 0.0, seed=9) is stream

    def test_offset_variance(self, radiative_budget):
        # low rate and small sigma keep the photon order stable, so the
        # per-photon offsets are directly recoverable
        rates = ThreeLevelRates(5e5, 5e8, 0.0, 5e7)
        stream = montecarlo.simulate_stream(rates, radiative_budget, 0.25, 1.0, seed=21)
        assert len(stream) > 1e5
        sigma = 5e-9
        jittered = montecarlo.apply_jitter(stream, sigma, seed=22)
        assert len(jittered) >= len(stream) - 5
        n = min(len(jittered), len(stream))
        diffs = jittered.timestamps[:n] - stream.timestamps[:n]
        assert np.var(diffs) == pytest.approx(sigma**2, rel=0.05)

    def test_deterministic(self, mc_rates, radiative_budget):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 1e-4, 1.0, seed=2)
        j1 = montecarlo.apply_jitter(stream, 1e-10, seed=7)
        j2 = montecarlo.apply_jitter(stream, 1e-10, seed=7)
        assert np.array_equal(j1.timestamps, j2.timestamps)

    def test_sorted_output(self, mc_rates, radiative_budget):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 1e-3, 1.0, seed=2)
        jittered = montecarlo.apply_jitter(stream, 1e-9, seed=8)
        assert np.all(np.diff(jittered.timestamps) >= 0)

    def test_negative_sigma_rejected(self, mc_rates, radiative_budget):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 1e-4, 1.0, seed=2)
        with pytest.raises(DomainError):
            montecarlo.apply_jitter(stream, -1e-12, seed=1)

    @staticmethod
    def mask_then_sort(stream, sigma, seed):
        """Oracle over the same normal draws, block after block of GEN_BATCH
        photons from its own spawned generator: drop the photons jittered
        outside [0, duration], then a stable sort of those left. Also
        returns the jittered times of all photons."""
        blocks = range(0, len(stream), montecarlo.GEN_BATCH)
        jittered = stream.timestamps + np.concatenate([
            spawned(seed, lo // montecarlo.GEN_BATCH).normal(0.0, sigma, min(montecarlo.GEN_BATCH, len(stream) - lo))
            for lo in blocks])
        inside = (jittered >= 0.0) & (jittered <= stream.duration)
        order = np.argsort(jittered[inside], kind="stable")
        return jittered[inside][order], stream.channel_tags[inside][order], jittered

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_photons_jittered_out_at_both_ends(self, seed):
        stream = poisson_stream(5e9, 1e-6, seed)
        jittered = montecarlo.apply_jitter(stream, 1e-7, seed=seed + 10)
        times, tags, everyone = self.mask_then_sort(stream, 1e-7, seed + 10)
        assert np.any(everyone < 0.0) and np.any(everyone > stream.duration)
        assert np.array_equal(jittered.timestamps, times)
        assert np.array_equal(jittered.channel_tags, tags)

    def test_equal_jittered_times_keep_the_order_of_their_tags(self):
        # offsets far below half an ulp leave the photons at 0.25, 0.5 and
        # 1.0 where they were; those at 0 drop out or move up
        ts = np.repeat([0.0, 0.25, 0.5, 1.0], 300)
        stream = montecarlo.PhotonStream(ts, np.random.default_rng(6).integers(0, 2, ts.size), 1.0, 0)
        jittered = montecarlo.apply_jitter(stream, 1e-30, seed=4)
        times, tags, _everyone = self.mask_then_sort(stream, 1e-30, 4)
        assert np.array_equal(jittered.timestamps, times)
        assert np.array_equal(jittered.channel_tags, tags)
        for t in (0.25, 0.5, 1.0):
            assert np.array_equal(jittered.channel_tags[jittered.timestamps == t],
                                  stream.channel_tags[ts == t])

    @pytest.mark.parametrize("block", [1, 2, 7])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_sorted_in_small_blocks(self, monkeypatch, block, seed):
        # photons 0.2 ns apart on average, jittered by 0.2 ns: about half the
        # cuts hold; the offsets come from five generators
        monkeypatch.setattr(montecarlo, "SORT_BLOCK", block)
        monkeypatch.setattr(montecarlo, "GEN_BATCH", 1000)
        stream = poisson_stream(5e9, 1e-6, seed)
        jittered = montecarlo.apply_jitter(stream, 2e-10, seed=seed + 10)
        times, tags, _everyone = self.mask_then_sort(stream, 2e-10, seed + 10)
        assert np.array_equal(jittered.timestamps, times)
        assert np.array_equal(jittered.channel_tags, tags)

    def test_sigma_so_large_that_no_block_cut_holds(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "SORT_BLOCK", 7)
        stream = poisson_stream(5e8, 1e-6, 4)
        jittered = montecarlo.apply_jitter(stream, 1e-6, seed=14)
        times, tags, everyone = self.mask_then_sort(stream, 1e-6, 14)
        before = np.maximum.accumulate(everyone)[6:-1:7]  # the largest key before each cut
        after = np.minimum.accumulate(everyone[::-1])[::-1][7::7]  # the smallest after it
        assert np.all(before > after)
        assert len(stream) // 10 < len(jittered) < len(stream)
        assert np.array_equal(jittered.timestamps, times)
        assert np.array_equal(jittered.channel_tags, tags)


class TestBlockSort:
    """_block_sort against a stable argsort of all keys. The tags number the
    keys (mod 256), so any reordering of equal keys shows."""

    @staticmethod
    def check(keys):
        tags = (np.arange(keys.size) % 256).astype(np.uint8)
        order = np.argsort(keys, kind="stable")
        got = keys.copy()
        out = montecarlo._block_sort(got, tags)
        assert np.array_equal(got, keys[order])
        assert np.array_equal(out, tags[order])

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(montecarlo, "SORT_BLOCK", block)
        noise = np.random.default_rng(block).normal(0.0, 2.0, 250)
        self.check(np.round(np.arange(250) + noise))  # whole numbers: many ties, some across cuts

    def test_key_displaced_across_several_blocks(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "SORT_BLOCK", 7)
        keys = np.arange(100.0)
        keys[60], keys[10] = 3.5, 95.5  # back across 8 blocks, forward across 12
        self.check(keys)

    def test_ties_across_a_cut(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "SORT_BLOCK", 7)
        self.check(np.repeat(np.arange(10.0), 9))
        self.check(np.repeat(np.arange(10.0), 9)[::-1].copy())

    def test_no_cut_holds(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "SORT_BLOCK", 7)
        self.check(np.arange(100.0)[::-1].copy())

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_fewer_keys_than_one_block(self, n):
        self.check(np.random.default_rng(n).random(n))


def traced_peak(make):
    """make() and the peak of the memory traced while it ran, above the
    memory traced when it began; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        made = make()
        return made, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestPhotonPathMemory:
    """Traced peak bytes per photon, or of a block. Each cap was set at the
    value measured when it came in plus 15 %, and stays as the code needs
    less. The list of batches joined by
    np.concatenate read 30.0 (one batch, 415k photons) and 19.0 (2M
    photons), and a whole-stream argsort with a sorted copy 24.0 (415k
    photons)."""

    RATE = 6.6e7  # photons per second of mc_rates under radiative_budget at det = 1

    def test_apply_jitter(self, mc_rates, radiative_budget):
        # the keys (8 bytes), the tags (1) and one span's temporaries per
        # thread: 10.3 on two threads, 11.6 on four
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 415e3 / self.RATE, 1.0, seed=3)
        jittered, peak = traced_peak(lambda: montecarlo.apply_jitter(stream, 3e-10, seed=4))
        assert len(jittered) == len(stream) > 400e3
        assert peak / len(stream) < 13.3

    @pytest.mark.parametrize("photons, cap", [
        (415e3, 25.0),  # four batches: measured 18.8 on two threads
        (2e6, 16.0),  # 19 batches: measured 12.5 on two threads, 13.6 on four
    ])
    def test_simulate_stream(self, mc_rates, radiative_budget, photons, cap):
        stream, peak = traced_peak(lambda: montecarlo.simulate_stream(
            mc_rates, radiative_budget, photons / self.RATE, 1.0, seed=3))
        assert len(stream) == pytest.approx(photons, rel=0.01)
        assert peak / len(stream) < cap

    @staticmethod
    def even_stream(photons):
        """A stream of photons evenly spread over 19 ms, as the CLI chain's."""
        tags = np.arange(photons, dtype=np.uint8) % 2
        return montecarlo.PhotonStream(np.linspace(0.0, 0.019, photons), tags, 0.019, 1)

    def test_load_stream(self, tmp_path):
        # the stream's own counts (8 bytes) and codes (1), plus the chunk and
        # one run's temporaries, about 5 MB: measured 21.0; a Table of float
        # codes and line numbers, read from a whole-file bytearray, read 43.5
        path = tmp_path / "stream.csv"
        montecarlo.save_stream(self.even_stream(415_000), path)
        (stream, _), peak = traced_peak(lambda: montecarlo.load_stream(path))
        assert len(stream) == 415_000
        assert peak / len(stream) < 24.2

    @pytest.mark.parametrize("photons", [600_000, 1_200_000])
    def test_save_stream(self, tmp_path, photons):
        # one block's picoseconds and records, the same 6.34 MB at either
        # count; a conversion of the whole stream before writing read 10.6
        # and 19.2 MB
        stream = self.even_stream(photons)
        _, peak = traced_peak(lambda: montecarlo.save_stream(stream, tmp_path / "stream.csv"))
        assert peak < 7.3e6


def poisson_stream(rate, duration, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    n = rng.poisson(rate * duration)
    ts = np.sort(rng.uniform(0.0, duration, n))
    tags = (rng.random(n) < 0.5).astype(np.uint8)
    return montecarlo.PhotonStream(ts, tags, duration, seed)


def per_lag_counts(stream, bin_width, window):
    """Oracle for full-mode counts: one pass over all n - k pairs per lag k,
    until a lag has no pair within the window."""
    t, n = stream.timestamps, len(stream)
    n_half = max(int(round(window / bin_width)), 1)
    limit = (n_half + 0.5) * bin_width
    pos_edges = np.concatenate(([0.0], (np.arange(n_half + 1) + 0.5) * bin_width))
    pos_counts = np.zeros(n_half + 1, dtype=np.int64)
    k = 1
    while k < n:
        d = t[k:] - t[:-k]
        if float(d.min()) > limit:
            break
        pos_counts += np.histogram(d[d <= limit], pos_edges)[0]
        k += 1
    counts = np.empty(2 * n_half + 1, dtype=np.int64)
    counts[n_half] = 2 * pos_counts[0]
    counts[n_half + 1 :] = pos_counts[1:]
    counts[:n_half] = pos_counts[1:][::-1]
    return counts


@pytest.fixture(params=[(size, workers) for size in (1, 2, 7) for workers in (1, 2, 3)],
                ids=lambda split: f"chunk{split[0]}-workers{split[1]}")
def split(request, monkeypatch):
    """correlate with chunks of 1, 2 or 7 starts on 1, 2 or 3 threads."""
    size, workers = request.param
    monkeypatch.setattr(montecarlo, "CHUNK_STARTS", size)
    monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
    return request.param


class TestCorrelateAgainstPerLagOracle:
    """Full mode over a shrinking candidate set counts what one pass per lag
    counts, bin for bin, for any split of the starts into chunks and threads."""

    @staticmethod
    def check(stream, bin_width, window):
        counts = montecarlo.correlate(stream, bin_width, window).counts
        assert np.array_equal(counts, per_lag_counts(stream, bin_width, window))
        return counts

    @pytest.mark.parametrize("window", [60e-9, 2e-6])
    def test_deltas_on_the_bin_edges(self, window):
        # integer picoseconds on a 0.5 ns grid: with 1 ns bins, every other
        # delta lies on a bin edge, up to the rounding of the seconds
        ps = np.sort(np.random.default_rng(3).integers(0, 200_000, 20_000)) * 500
        stream = montecarlo.PhotonStream(ps / 1e12, np.zeros(ps.size), 1e-4, 0)
        counts = self.check(stream, 1e-9, window)
        assert counts.sum() > 0

    def test_dense_stream(self):
        stream = poisson_stream(3e8, 2e-4, seed=5)  # rate * window = 30
        self.check(stream, 2e-9, 100e-9)

    @pytest.mark.parametrize("ts", [[5e-7], [2e-7, 3e-7]])
    def test_one_and_two_photons(self, ts):
        stream = montecarlo.PhotonStream(np.array(ts), np.zeros(len(ts)), 1e-6, 0)
        self.check(stream, 1e-8, 1e-7)

    def test_no_pair_within_the_window(self):
        stream = montecarlo.PhotonStream(np.arange(10) * 1e-6, np.zeros(10), 1e-5, 0)
        assert not self.check(stream, 1e-8, 1e-7).any()

    def test_chunked_dense_stream(self, monkeypatch):
        # rate * window = 30 in 15 chunks: dozens of pairs cross each chunk edge
        monkeypatch.setattr(montecarlo, "CHUNK_STARTS", 4096)
        stream = poisson_stream(3e8, 2e-4, seed=5)
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
            self.check(stream, 2e-9, 100e-9)

    def test_pairs_across_chunk_edges(self, split):
        stream = poisson_stream(3e8, 5e-7, seed=5)  # rate * window = 30: pairs span dozens of starts
        assert self.check(stream, 2e-9, 100e-9).sum() > 2 * len(stream) * 20

    @pytest.mark.parametrize("ts", [[5e-7], [2e-7, 3e-7]])
    def test_one_and_two_photons_chunked(self, ts, split):
        stream = montecarlo.PhotonStream(np.array(ts), np.zeros(len(ts)), 1e-6, 0)
        self.check(stream, 1e-8, 1e-7)

    def test_every_photon_in_one_window(self, split):
        stream = montecarlo.PhotonStream(np.linspace(0.0, 5e-8, 40), np.zeros(40), 1e-6, 0)
        assert self.check(stream, 1e-8, 1e-7).sum() == 40 * 39  # every ordered pair

    def test_one_chunk_runs_in_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_workers", lambda: 3)
        monkeypatch.setattr(montecarlo.threading, "Thread", None)  # any use of it raises
        self.check(poisson_stream(3e8, 2e-6, seed=5), 2e-9, 100e-9)

    def test_worker_count_follows_the_cpu_affinity(self):
        workers = montecarlo._workers()
        assert 1 <= workers <= montecarlo.MAX_WORKERS
        if hasattr(os, "sched_getaffinity"):
            assert workers == min(len(os.sched_getaffinity(0)), montecarlo.MAX_WORKERS)

    def test_duplicate_timestamps(self):
        # photons on a 1 ns grid, three to a tick on average: their zero
        # delays fall in bin 0, which the full histogram counts twice
        ps = np.sort(np.random.default_rng(8).integers(0, 1000, 3000)) * 1000
        stream = montecarlo.PhotonStream(ps / 1e12, np.zeros(ps.size), 1e-6, 0)
        counts = self.check(stream, 2e-9, 20e-9)
        zero_delays = sum(m * (m - 1) // 2 for m in np.unique(ps, return_counts=True)[1].tolist())
        assert zero_delays > 0 and counts[counts.size // 2] >= 2 * zero_delays

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_dense_stream_on_the_bin_edges_in_sorts_of_any_size(self, split, monkeypatch, block):
        # rate * window = 30 on a 1 ns grid: with 2 ns bins every other delay
        # lies on a bin edge. A lag of at least block delays is sorted alone,
        # shorter ones are held and sorted together when they reach block
        # delays and at the chunk's end
        monkeypatch.setattr(montecarlo, "SORT_BLOCK", block)
        ps = np.sort(np.random.default_rng(9).integers(0, 500, 150)) * 1000
        stream = montecarlo.PhotonStream(ps / 1e12, np.zeros(ps.size), 5e-7, 0)
        assert self.check(stream, 2e-9, 100e-9).sum() > 2 * len(stream) * 20

    def test_pair_exactly_at_the_limit(self):
        # limit = (n_half + 0.5) * bin_width is the last bin's outer edge
        limit = (10 + 0.5) * 0.25
        for dt in (limit, np.nextafter(limit, np.inf)):
            stream = montecarlo.PhotonStream(np.array([1.0, 1.0 + dt]), np.zeros(2), 10.0, 0)
            counts = self.check(stream, 0.25, 2.5)
            assert counts.sum() == (2 if dt == limit else 0)


class TestCorrelate:
    def test_curve_is_counts_over_normalization_at_bin_centers(self):
        hist = montecarlo.HbtHistogram([-2.0, -1.0, 0.0, 1.0, 2.0], [4, 0, 9, 1], 2.0)
        curve = hist.to_curve()
        assert curve.delays.tolist() == hist.centers.tolist() == [-1.5, -0.5, 0.5, 1.5]
        assert curve.values.tolist() == [2.0, 0.0, 4.5, 0.5]
        assert curve.sigmas.tolist() == [1.0, 0.5, 1.5, 0.5]  # an empty bin counts as one

    def test_poisson_stream_is_flat(self):
        stream = poisson_stream(2e6, 0.5, seed=31)
        hist = montecarlo.correlate(stream, 0.5e-6, 10e-6)
        curve = hist.to_curve()
        # every bin within 3 sigma of 1, plus a global chi-square sanity band
        pulls = (curve.values - 1.0) / curve.sigmas
        assert np.max(np.abs(pulls)) < 4.0
        assert np.mean(pulls**2) < 2.0

    def test_antibunched_dip_significant(self, mc_rates, radiative_budget):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 5e-3, 1.0, seed=37)
        hist = montecarlo.correlate(stream, 0.2e-9, 50e-9)
        curve = hist.to_curve()
        center = np.argmin(np.abs(curve.delays))
        pull = (1.0 - curve.values[center]) / curve.sigmas[center]
        assert pull > 5.0

    def test_matches_analytic_g2(self, mc_rates, radiative_budget):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 8e-3, 1.0, seed=41)
        params = dynamics.g2_params_from_rates(mc_rates)
        hist = montecarlo.correlate(stream, 0.4e-9, 10.0 * params.tau2)
        curve = hist.to_curve()
        mask = curve.delays >= 0.0
        centers = curve.delays[mask]
        # bin-averaged analytic oracle (the histogram estimates the bin mean)
        sub = np.linspace(-0.2e-9, 0.2e-9, 21)
        tau_fine = np.unique(np.abs((centers[:, None] + sub[None, :]).ravel()))
        fine = dynamics.g2_analytic(mc_rates, tau_fine)
        lookup = dict(zip(fine.delays, fine.values))
        expected = np.array(
            [np.mean([lookup[abs(t)] for t in row]) for row in centers[:, None] + sub[None, :]]
        )
        sup = np.max(np.abs(curve.values[mask] - expected))
        assert sup < 0.05

    def test_symmetric_histogram(self, mc_rates, radiative_budget):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 1e-3, 1.0, seed=43)
        hist = montecarlo.correlate(stream, 1e-9, 20e-9)
        assert np.array_equal(hist.counts, hist.counts[::-1])

    def test_start_stop_agrees_with_full_at_low_rate(self):
        # rate * window << 1: the classic regime where start-stop is unbiased
        stream = poisson_stream(5e4, 2.0, seed=47)
        window = 2e-6  # rate * window = 0.1
        full = montecarlo.correlate(stream, 0.2e-6, window, mode="full")
        ss = montecarlo.correlate(stream, 0.2e-6, window, mode="start-stop", seed=48)
        curve_ss = ss.to_curve()
        pulls = (curve_ss.values - 1.0) / curve_ss.sigmas
        assert np.max(np.abs(pulls)) < 4.0
        full_curve = full.to_curve()
        pulls_full = (full_curve.values - 1.0) / full_curve.sigmas
        assert np.max(np.abs(pulls_full)) < 4.0

    def test_start_stop_deterministic_per_seed(self):
        stream = poisson_stream(1e5, 0.2, seed=51)
        h1 = montecarlo.correlate(stream, 1e-7, 2e-6, mode="start-stop", seed=3)
        h2 = montecarlo.correlate(stream, 1e-7, 2e-6, mode="start-stop", seed=3)
        assert np.array_equal(h1.counts, h2.counts)

    def test_empty_stream_rejected(self):
        empty = montecarlo.PhotonStream(np.empty(0), np.empty(0, dtype=np.uint8), 1.0, 0)
        with pytest.raises(DomainError):
            montecarlo.correlate(empty, 1e-9, 1e-6)

    def test_estimator_error_scales_inverse_sqrt_n(self, mc_rates, radiative_budget):
        params = dynamics.g2_params_from_rates(mc_rates)

        def sup_error(duration, seed):
            stream = montecarlo.simulate_stream(mc_rates, radiative_budget, duration, 1.0, seed=seed)
            hist = montecarlo.correlate(stream, 0.8e-9, 10.0 * params.tau2)
            curve = hist.to_curve()
            mask = curve.delays >= 3.0e-9  # away from the curved dip region
            tau = curve.delays[mask]
            analytic = dynamics.g2_analytic(mc_rates, tau)
            return np.sqrt(np.mean((curve.values[mask] - analytic.values) ** 2))

        errs_small = [sup_error(1.2e-3, s) for s in (61, 62, 63)]
        errs_large = [sup_error(12e-3, s) for s in (64, 65, 66)]
        ratio = np.median(errs_small) / np.median(errs_large)
        assert 2.0 < ratio < 5.0  # ~sqrt(10) = 3.2


class TestStreamIO:
    def test_round_trip(self, mc_rates, radiative_budget, tmp_path):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 2e-5, 1.0, seed=81)
        path = tmp_path / "stream.csv"
        montecarlo.save_stream(stream, path, rates=mc_rates, meta={"note": "test"})
        back, meta = montecarlo.load_stream(path)
        # the file holds integer picoseconds: the stream comes back rounded to 1 ps
        assert np.array_equal(back.timestamps, np.rint(stream.timestamps * 1e12) / 1e12)
        assert np.array_equal(back.channel_tags, stream.channel_tags)
        assert back.duration == stream.duration
        assert back.seed == stream.seed
        assert meta["rng"] == back.rng_algorithm == stream.rng_algorithm == montecarlo.RNG_COXIAN
        assert meta["time_unit"] == "ps"
        assert meta["note"] == "test"

    def test_saving_a_loaded_stream_gives_the_same_bytes(self, mc_rates, radiative_budget, tmp_path):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 2e-5, 1.0, seed=82)
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        montecarlo.save_stream(stream, first, rates=mc_rates)
        montecarlo.save_stream(montecarlo.load_stream(first)[0], again, rates=mc_rates)
        assert again.read_bytes() == first.read_bytes()

    def test_old_rng_tag_loads_and_is_kept(self, tmp_path):
        # float-seconds files from before the picosecond format, by any
        # sampler (the per-cycle one tagged without a suffix), and the tags
        # of the sfc64 draws from one generator per stream
        assert (montecarlo.RNG_SKIP, montecarlo.RNG_COXIAN) == ("sfc64/skip-2", "sfc64/cox-2")
        path, again = tmp_path / "old.csv", tmp_path / "again.csv"
        for tag in ("philox4x64", "philox4x64/skip-1", "philox4x64/cox-1", "sfc64/skip-1", "sfc64/cox-1"):
            path.write_text(f"# seed=3\n# rng={tag}\n# duration_s=1e-05\n"
                            "# timestamp_s,channel\n1e-06,ZPL\n2.5e-06,PSB\n")
            stream, meta = montecarlo.load_stream(path)
            assert stream.rng_algorithm == meta["rng"] == tag
            assert stream.timestamps.tolist() == [1e-6, 2.5e-6]
            montecarlo.save_stream(stream, again)
            assert again.read_text() == (f"# seed=3\n# rng={tag}\n# duration_s=1e-05\n# time_unit=ps\n"
                                         "# timestamp_ps,channel\n1000000,ZPL\n2500000,PSB\n")
            back, _meta = montecarlo.load_stream(again)
            assert back.rng_algorithm == tag
            assert back.timestamps.tolist() == [1e-6, 2.5e-6]

    def test_file_without_rng_header_names_no_sampler(self, tmp_path):
        # a time tagger's file has no rng header: no sampler drew it
        path = tmp_path / "untagged.csv"
        path.write_text("# duration_s=1e-05\n# time_unit=ps\n1000000,ZPL\n")
        assert montecarlo.load_stream(path)[0].rng_algorithm == montecarlo.RNG_NONE == "none"

    def test_stream_built_by_hand_names_no_sampler(self, tmp_path):
        stream = montecarlo.PhotonStream(np.array([1e-6]), np.array([0], dtype=np.uint8), 1e-5, 0)
        assert stream.rng_algorithm == montecarlo.RNG_NONE == "none"
        path = tmp_path / "hand.csv"
        montecarlo.save_stream(stream, path)
        assert "# rng=none\n" in path.read_text()
        assert montecarlo.load_stream(path)[0].rng_algorithm == "none"

    @pytest.mark.parametrize("duration", [0.019, 2e-5, 1e-4, 0.1 + 0.2, 2e-5 + 0.7e-12])
    def test_photons_at_the_end_of_the_window(self, tmp_path, duration):
        # a photon exactly at the duration and one 0.3 ps before it load
        # back inside the window; at 2e-5 + 0.7 ps, rounding alone would put
        # the last photon 0.3 ps past it
        ts = np.array([0.0, duration - 0.3e-12, duration])
        rounded_past = np.rint(ts * 1e12) / 1e12 > duration
        assert rounded_past.tolist() == [False, False, duration == 2e-5 + 0.7e-12]
        stream = montecarlo.PhotonStream(ts, np.zeros(3, dtype=np.uint8), duration, 1)
        path, again = tmp_path / "edge.csv", tmp_path / "again.csv"
        montecarlo.save_stream(stream, path)
        back, _meta = montecarlo.load_stream(path)
        assert back.duration == duration
        assert back.timestamps[-1] <= duration
        assert np.all(np.abs(back.timestamps - ts) <= 1e-12)
        montecarlo.save_stream(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_duration_limit_of_2_pow_51_ps(self, tmp_path):
        path = tmp_path / "long.csv"
        limit = 2.0**51 / 1e12  # about 2252 s
        assert limit * 1e12 == 2**51
        for duration in (limit, 2 * limit, 4 * limit):
            stream = montecarlo.PhotonStream(np.array([1.0]), np.zeros(1, dtype=np.uint8), duration, 1)
            with pytest.raises(DomainError) as err:
                montecarlo.save_stream(stream, path)
            assert str(err.value) == f"duration {duration!r} s is 2^51 ps or more"
            assert not path.exists()
        below = np.nextafter(limit, 0.0)
        stream = montecarlo.PhotonStream(np.array([1.0, below]), np.zeros(2, dtype=np.uint8), below, 1)
        montecarlo.save_stream(stream, path)
        last = montecarlo._last_ps(below)
        assert path.read_text().endswith(f"# timestamp_ps,channel\n1000000000000,ZPL\n{last},ZPL\n")
        back, _meta = montecarlo.load_stream(path)
        assert back.timestamps.tolist() == [1.0, last / 1e12]
        assert back.timestamps[1] <= below
        path.write_text(f"# duration_s={limit!r}\n# time_unit=ps\n1000000000000,ZPL\n")
        with pytest.raises(InputFormatError) as err:
            montecarlo.load_stream(path)
        assert str(err.value) == f"{path}:0: duration_s={limit!r} is 2^51 ps or more"
        path.write_text(f"# duration_s={4 * limit!r}\n1.0,ZPL\n")  # float seconds: no limit
        assert montecarlo.load_stream(path)[0].timestamps.tolist() == [1.0]

    def test_counts_just_below_2_pow_51_save_to_the_same_bytes(self, tmp_path):
        duration = float(np.nextafter(2.0**51 / 1e12, 0.0))
        last = montecarlo._last_ps(duration)
        counts = np.sort(np.random.default_rng(51).integers(last - 2**44, last, 200_000, endpoint=True))
        tags = np.random.default_rng(52).integers(0, 2, counts.size)
        path, again = tmp_path / "first.csv", tmp_path / "again.csv"
        path.write_text(f"# seed=1\n# rng={montecarlo.RNG_COXIAN}\n# duration_s={duration!r}\n"
                        "# time_unit=ps\n# timestamp_ps,channel\n"
                        + "".join(f"{c},{montecarlo.CHANNEL_LABELS[t]}\n"
                                  for c, t in zip(counts.tolist(), tags.tolist())))
        stream, _meta = montecarlo.load_stream(path)
        assert np.array_equal(stream.timestamps, counts / 1e12)
        montecarlo.save_stream(stream, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("field", ["1.5", "-1", "-0.5", "2e-3", "nan"])
    def test_picosecond_field_not_a_count(self, tmp_path, field):
        path = tmp_path / "bad.csv"
        path.write_text(f"# duration_s=1.0\n# time_unit=ps\n# timestamp_ps,channel\n"
                        f"1000,ZPL\n{field},PSB\n3000,ZPL\n")
        with pytest.raises(InputFormatError) as err:
            montecarlo.load_stream(path)
        assert str(err.value) == f"{path}:5: bad timestamp"

    def test_unknown_time_unit(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# duration_s=1.0\n# time_unit=ns\n1000,ZPL\n")
        with pytest.raises(InputFormatError) as err:
            montecarlo.load_stream(path)
        assert str(err.value) == f"{path}:2: unknown time_unit 'ns'"

    def test_histogram_round_trip_as_curve(self, mc_rates, radiative_budget, tmp_path):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 2e-4, 1.0, seed=83)
        hist = montecarlo.correlate(stream, 1e-9, 10e-9)
        path = tmp_path / "hist.csv"
        montecarlo.save_histogram(hist, path)
        curve = montecarlo.load_g2_csv(path)
        ref = hist.to_curve()
        assert np.array_equal(curve.delays, ref.delays)
        assert np.array_equal(curve.values, ref.values)
        assert np.array_equal(curve.sigmas, ref.sigmas)

    def test_malformed_stream_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# duration_s=1.0\n# seed=0\n1e-6,ZPL\nbogus,PSB\n")
        with pytest.raises(InputFormatError, match="bad.csv:4"):
            montecarlo.load_stream(path)

    def test_unknown_channel_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# duration_s=1.0\n1e-6,XYZ\n")
        with pytest.raises(InputFormatError, match="bad.csv:2"):
            montecarlo.load_stream(path)

    def test_save_stream_matches_per_line_writer(self, mc_rates, radiative_budget, tmp_path):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 2e-5, 1.0, seed=85)
        assert {montecarlo.CHANNEL_LABELS[tag] for tag in stream.channel_tags.tolist()} == {"ZPL", "PSB"}
        path = tmp_path / "stream.csv"
        montecarlo.save_stream(stream, path, rates=mc_rates, meta={"note": "x"})
        rows = "".join(f"{round(t * 1e12)},{montecarlo.CHANNEL_LABELS[tag]}\n"
                       for t, tag in zip(stream.timestamps.tolist(), stream.channel_tags.tolist()))
        assert path.read_text().endswith("# timestamp_ps,channel\n" + rows)

    def test_save_histogram_matches_per_line_writer(self, mc_rates, radiative_budget, tmp_path):
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 2e-4, 1.0, seed=86)
        curve = montecarlo.correlate(stream, 1e-9, 10e-9).to_curve()
        path = tmp_path / "hist.csv"
        montecarlo.save_histogram(montecarlo.correlate(stream, 1e-9, 10e-9), path)
        rows = "".join(f"{t!r},{g!r},{s!r}\n" for t, g, s in
                       zip(curve.delays.tolist(), curve.values.tolist(), curve.sigmas.tolist()))
        assert path.read_text().endswith("# tau_s,g2,sigma\n" + rows)

    @pytest.mark.parametrize("body, where", [
        ("1e-6,ZPL\n2e-6,PSB\nbogus,ZPL\n4e-6,PSB\n", ":5: bad timestamp"),
        ("1e-6,ZPL\n2e-6,XYZ\n", ":4: unknown channel 'XYZ'"),
        ("1e-6,ZPL\n2e-6, psb \n", ":4: unknown channel 'psb'"),
        ("1e-6,ZPL\n2e-6,PSB,3\n", ":4: expected 'timestamp,channel'"),
        ("1e-6\n", ":3: expected 'timestamp,channel'"),
        ("1e-6,ZPL\n\n# note=1\n2e-6,QQQ\n", ":6: unknown channel 'QQQ'"),
        ("1e-6,ZPL\n\n# note=1\n\t\n 2e-6 , PSB \n3e-6,x,ZPL\n", ":8: expected 'timestamp,channel'"),
    ])
    def test_reader_error_matrix(self, tmp_path, body, where):
        path = tmp_path / "bad.csv"
        path.write_text("# duration_s=1.0\n# seed=0\n" + body)
        with pytest.raises(InputFormatError) as err:
            montecarlo.load_stream(path)
        assert str(err.value) == f"{path}{where}"

    def test_missing_duration_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# seed=1\n1e-6,ZPL\n")
        with pytest.raises(InputFormatError, match="bad.csv:0: missing '# duration_s='"):
            montecarlo.load_stream(path)

    @pytest.mark.parametrize("body", [
        "1e-6,ZPL\n\n# a comment\n   \n2e-6, PSB \n",  # blank and comment lines between rows
        "1e-6,ZPL\n2e-6,PSB",  # last line without a newline
    ])
    def test_reader_accepts(self, tmp_path, body):
        path = tmp_path / "ok.csv"
        path.write_text("# duration_s=1.0\n" + body)
        stream, _meta = montecarlo.load_stream(path)
        assert stream.timestamps.tolist() == [1e-6, 2e-6]
        assert stream.channel_tags.tolist() == [montecarlo.CHANNEL_ZPL, montecarlo.CHANNEL_PSB]

    def test_fault_deep_in_a_long_stream(self, tmp_path):
        rows = [f"{k * 1e-6!r},ZPL" for k in range(5000)]
        rows[4321] = "1e-3,ZPL,"
        path = tmp_path / "long.csv"
        path.write_text("# duration_s=1.0\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputFormatError, match="long.csv:4323: expected"):
            montecarlo.load_stream(path)
        rows[4321] = "1e-3,ZPLX"
        path.write_text("# duration_s=1.0\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputFormatError, match="long.csv:4323: unknown channel 'ZPLX'"):
            montecarlo.load_stream(path)

    def test_g2_rows_of_two_and_three_fields(self, tmp_path):
        path = tmp_path / "g2.csv"
        path.write_text("# tau_s,g2,sigma\n-1e-9,0.5,0.1\n0.0,0.0\n1e-9,0.5,0.1\n")
        with pytest.raises(InputFormatError, match="g2.csv:3: expected 'tau_s,g2"):
            montecarlo.load_g2_csv(path)  # a row without sigma would drop every sigma
        path.write_text("-1e-9,0.5,0.1\n0.0,0.0,0.1,7\n")
        with pytest.raises(InputFormatError, match="g2.csv:2: expected 'tau_s,g2"):
            montecarlo.load_g2_csv(path)


def stream_outcome(path):
    """What load_stream makes of a file: the stream's arrays, duration, seed,
    rng tag and meta, or the text of its InputFormatError."""
    try:
        stream, meta = montecarlo.load_stream(path)
    except InputFormatError as err:
        return str(err)
    return (stream.timestamps.tolist(), stream.channel_tags.tolist(), stream.duration,
            stream.seed, stream.rng_algorithm, meta)


def stream_outcome_by_table(monkeypatch, path):
    """load_stream's outcome when every file goes through _table.read_table."""
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "read_counts", lambda *args: None)
        return stream_outcome(path)


STREAM_CODES = {label: i for i, label in enumerate(montecarlo.CHANNEL_LABELS)}
STREAM_HEADERS = {"time_unit": montecarlo._time_unit}


def counts_parsed(path):
    return _table.read_counts(path, STREAM_CODES, STREAM_HEADERS) is not None


def counts_values(path):
    """The meta and the counts and codes of read_counts for a stream file,
    None where it leaves the file to read_table."""
    counts = _table.read_counts(path, STREAM_CODES, STREAM_HEADERS)
    return counts and (counts.meta, [counts.counts.tolist(), counts.codes.tolist()])


def table_values(path):
    """The meta and the columns of read_table for a stream file, as load_stream
    reads it, or the text of its InputFormatError."""
    try:
        table = _table.read_table(path, (2,), "expected 'timestamp,channel'", "bad timestamp",
                                  labels={1: (STREAM_CODES, "unknown channel {!r}")},
                                  headers=STREAM_HEADERS)
    except InputFormatError as err:
        return str(err)
    return table.meta, table.columns.tolist()


class TestStreamBytes:
    """The byte-level stream rows against the table reader, which reads every
    file and alone reports faults."""

    @pytest.mark.parametrize("ts, tags, duration", [
        ([0.0, 1e-12, 0.5, 1.0], [0, 1, 1, 0], 1.0),  # a photon at 0 and at the duration
        ([0.0, 1e-12, 1000.0, 1500.0], [1, 0, 1, 1], 1500.0),  # 1-digit and 16-digit tags
        ([0.25], [1], 0.5),  # one photon
        (np.linspace(0.0, 1e-6, 50), np.zeros(50), 1e-6),  # a single channel
    ])
    def test_edge_streams(self, tmp_path, monkeypatch, ts, tags, duration):
        stream = montecarlo.PhotonStream(np.array(ts), np.array(tags, dtype=np.uint8), duration, 4)
        path = tmp_path / "edge.csv"
        montecarlo.save_stream(stream, path)
        assert counts_parsed(path)
        outcome = stream_outcome(path)
        assert outcome == stream_outcome_by_table(monkeypatch, path)
        assert outcome[0] == (np.rint(np.asarray(ts) * 1e12) / 1e12).tolist()
        assert outcome[1] == np.asarray(tags).tolist()

    @pytest.mark.parametrize("block_rows", [1, 7, 1 << 16])
    def test_simulated_stream_in_blocks(self, mc_rates, radiative_budget, tmp_path, monkeypatch,
                                        block_rows):
        monkeypatch.setattr(_table, "BLOCK_ROWS", block_rows)
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 3e-5, 1.0, seed=91)
        path, again = tmp_path / "sim.csv", tmp_path / "again.csv"
        montecarlo.save_stream(stream, path, rates=mc_rates, meta={"note": "x"})
        rows = "".join(f"{round(t * 1e12)},{montecarlo.CHANNEL_LABELS[tag]}\n"
                       for t, tag in zip(stream.timestamps.tolist(), stream.channel_tags.tolist()))
        assert path.read_text().endswith("# timestamp_ps,channel\n" + rows)
        assert counts_parsed(path)
        assert stream_outcome(path) == stream_outcome_by_table(monkeypatch, path)
        montecarlo.save_stream(montecarlo.load_stream(path)[0], again, rates=mc_rates, meta={"note": "x"})
        assert again.read_bytes() == path.read_bytes()

    def test_mixed_channels_over_blocks(self, tmp_path):
        # 150,000 rows, half ZPL and half PSB at random, over three blocks of rows
        stream = poisson_stream(1e6, 0.15, seed=7)
        path = tmp_path / "mixed.csv"
        montecarlo.save_stream(stream, path)
        assert len(stream) > 2 * _table.BLOCK_ROWS
        meta, (counts, codes) = counts_values(path)
        assert (meta, [counts, codes]) == table_values(path)
        assert codes == stream.channel_tags.tolist()
        other = _table.read_counts(path, {"ZPL": 5, "PSB": 9}, STREAM_HEADERS)  # codes other than 0 and 1
        assert other.codes.tolist() == (5 + 4 * stream.channel_tags).tolist()

    @pytest.mark.parametrize("mutate", [
        lambda rows: rows.__setitem__(2, rows[2].replace(",", ", ")),  # a space
        lambda rows: rows.__setitem__(2, rows[2] + " "),
        lambda rows: rows.__setitem__(2, rows[2] + "\r"),  # CRLF on one row
        lambda rows: rows.__setitem__(slice(None), [row + "\r" for row in rows]),  # CRLF
        lambda rows: rows.insert(3, "# note=between rows"),  # a comment between rows
        lambda rows: rows.insert(3, "# time_unit=ns"),
        lambda rows: rows.insert(3, ""),  # a blank line between rows
        lambda rows: rows.__setitem__(2, rows[2].lower()),  # a lowercase label
        lambda rows: rows.__setitem__(2, "+" + rows[2]),  # rows 2-4 hold 10-digit tags
        lambda rows: rows.__setitem__(3, "x" + rows[3][1:]),
        lambda rows: rows.__setitem__(3, rows[3][:1] + ":" + rows[3][2:]),
        lambda rows: rows.__setitem__(4, rows[4][:1] + "/" + rows[4][2:]),
        lambda rows: rows.__setitem__(2, rows[2].replace(",", ".0,")),
        lambda rows: rows.__setitem__(2, rows[2][:3] + "." + rows[2][3:]),
        lambda rows: rows.__setitem__(2, "1e3," + rows[2].split(",")[1]),
        lambda rows: rows.__setitem__(2, "1" + "0" * 16 + ",ZPL"),  # a 17-digit tag
        lambda rows: rows.__setitem__(2, "0" * 17 + rows[2]),  # 17+ digits that read small
        lambda rows: rows.__setitem__(2, rows[2] + ",PSB"),
        lambda rows: rows.__setitem__(2, rows[2].replace(",", ";")),
        lambda rows: rows.__setitem__(2, ",ZPL"),
        lambda rows: rows.__setitem__(2, rows[2].split(",")[0]),
        lambda rows: rows.__setitem__(2, rows[2] + "Z"),
        lambda rows: rows.__setitem__(2, rows[2].replace("ZPL", "ZP").replace("PSB", "PS")),
    ])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_mutated_rows_go_through_the_table_reader(self, tmp_path, monkeypatch, mutate, final_newline):
        stream = montecarlo.PhotonStream(np.array([1e-9, 2e-9, 3.5e-3, 4e-3, 9e-3]),
                                         np.array([0, 1, 0, 1, 1], dtype=np.uint8), 1e-2, 5)
        path = tmp_path / "mutated.csv"
        montecarlo.save_stream(stream, path)
        lines = path.read_text().split("\n")[:-1]
        body = len(lines) - 5
        rows = lines[body:]
        mutate(rows)
        path.write_bytes(("\n".join(lines[:body] + rows) + "\n" * final_newline).encode())
        assert not counts_parsed(path)
        assert stream_outcome(path) == stream_outcome_by_table(monkeypatch, path)

    def test_leading_zeros_within_16_digits(self, tmp_path, monkeypatch):
        path = tmp_path / "zeros.csv"
        path.write_text("# duration_s=1e-08\n# time_unit=ps\n0,ZPL\n0001000,PSB\n"
                        "0000000000002000,ZPL\n")
        assert counts_parsed(path)
        assert stream_outcome(path) == stream_outcome_by_table(monkeypatch, path)
        assert stream_outcome(path)[0] == [0.0, 1e-9, 2e-9]

    @pytest.mark.parametrize("text, where", [
        ("# duration_s=1e-08\n# time_unit=ns\n1000,ZPL\n", ":2: unknown time_unit 'ns'"),
        ("# duration_s=1e-08\n# time_unit=ps\n1000,ZPL\n99999,PSB\n", ":0: timestamps must lie"),
        ("# duration_s=1e-08\n# time_unit=ps\n2000,ZPL\n1000,PSB\n", ":0: timestamps must be sorted"),
        ("# time_unit=ps\n1000,ZPL\n", ":0: missing '# duration_s='"),
        ("# duration_s=1e-08s\n# time_unit=ps\n1000,ZPL\n", ":1: could not convert string to float: '1e-08s'"),
        ("# duration_s=1e-08\n# seed=1.5\n# time_unit=ps\n1000,ZPL\n", ":2: invalid literal for int() with base 10: '1.5'"),
        (f"# duration_s={2.0**51 / 1e12!r}\n# time_unit=ps\n1000,ZPL\n", ":0: duration_s="),
    ])
    def test_faults_of_well_formed_rows(self, tmp_path, monkeypatch, text, where):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        outcome = stream_outcome(path)
        assert outcome == stream_outcome_by_table(monkeypatch, path)
        assert outcome.startswith(f"{path}{where}")

    @pytest.mark.parametrize("text, parsed", [
        # 12-byte rows around two 6-byte rows, whose second newline lands on the stride
        ("# time_unit=ps\n" + "1000000,ZPL\n" * 3 + "1,PSB\n2,ZPL\n" + "1000001,PSB\n" * 10, True),
        ("# a=1\n7,PSB\n12,ZPL\n345,ZPL\n", True),  # a first row after a short header
        ("7,PSB\n12,ZPL\n", True),  # no header
        ("# time_unit=ps\n" + "9999999999999999,ZPL\n1000000000000000,PSB\n" * 5, True),  # 16 digits
        ("1,ZPL\n22,PSB\n" * 10, True),  # 20 runs of one row
        ("1,ZPL\n22,PSB\n" * 50, False),  # 100 runs of one row: more than sorted counts take
        ("# time_unit=ps\n" + "1000000,ZPL\n" * 8 + "1000000,ZPX\n" + "1000000,PSB\n" * 3, False),
        ("# time_unit=ps\r\n" + "1000000,ZPL\r\n" * 9, False),  # CRLF
        ("# time_unit=ps\n" + "1000000,ZPL\n" * 8 + "1000000,ZPL\r\n", False),
        ("# time_unit=ps\n" + "1000000,ZPL\n" * 8 + "1000000,ZPL", False),  # no final newline
    ])
    def test_run_wise_reader_against_the_table_reader(self, tmp_path, monkeypatch, text, parsed):
        monkeypatch.setattr(_table, "BLOCK_ROWS", 7)
        path = tmp_path / "rows.csv"
        path.write_bytes(text.encode())
        assert counts_parsed(path) == parsed
        if parsed:
            assert counts_values(path) == table_values(path)
        assert stream_outcome(path) == stream_outcome_by_table(monkeypatch, path)

    def test_write_counts_matches_str(self, monkeypatch):
        def check(counts, tags):
            fh = io.BytesIO()
            _table.write_counts(fh, counts, tags, ("ZPL", "PSB"))
            assert fh.getvalue() == "".join(f"{c},{('ZPL', 'PSB')[t]}\n"
                                            for c, t in zip(counts.tolist(), tags.tolist())).encode()

        counts = np.array([0, 9, 10, 99, 100, 12345678, 99999999, 100000000, 10**15 - 1, 10**15,
                           2**51 - 1, 10**16 - 1])
        check(counts, np.arange(counts.size) % 2)
        # sorted, 1 to 16 digits three times each, then unsorted: in one block of
        # 64 rows, and in blocks of 7 whose edges fall inside runs of one width
        counts = np.array([0, *(10**d + j for d in range(1, 16) for j in (-1, 0, 1)), 10**16 - 1])
        tags = np.random.default_rng(7).integers(0, 2, counts.size)
        for block_rows in (64, 7):
            monkeypatch.setattr(_table, "BLOCK_ROWS", block_rows)
            check(counts, tags)
            check(np.random.default_rng(block_rows).permutation(counts), tags)
        for bad in (-1, 10**16):
            with pytest.raises(ValueError, match="counts must lie in"):
                _table.write_counts(io.BytesIO(), np.array([bad]), np.array([0]), ("ZPL", "PSB"))


def rows_of(counts, width=0):
    """Stream rows of the counts, zero-padded to width digits, labels alternating."""
    return "".join(f"{c:0{width}d},{montecarlo.CHANNEL_LABELS[i % 2]}\n" for i, c in enumerate(counts))


HEAD = "# duration_s=1e-05\n# time_unit=ps\n"
ROWS_OF_12 = rows_of(range(1_000_000, 1_000_040))  # 40 rows of 12 bytes


class TestChunkEdges:
    """read_counts in chunks of one 12-byte row and of a few odd byte counts,
    held == to read_table, and load_stream to its table path."""

    @pytest.fixture(params=[1, 5, 12, 13, 18, 37])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(_table, "CHUNK_BYTES", request.param)
        return request.param

    @pytest.mark.parametrize("text, parsed", [
        (HEAD + ROWS_OF_12, True),  # rows straddling the edges of all but chunks of 1 and 12
        # 12-byte rows, then 13-byte ones: the width changes at the body's byte
        # 36, an edge of chunks of 1, 12 and 18
        (HEAD + rows_of(range(1_000_000, 1_000_003)) + rows_of(range(10**7, 10**7 + 9)), True),
        (HEAD + rows_of([7, 12, 345, 6789, 10**6, 10**9, 10**12, 10**15, 10**16 - 1]), True),
        (HEAD + rows_of(range(1_000_000, 1_000_004), 16) + ROWS_OF_12, True),  # leading zeros
        ("# note=" + "x" * 60 + "\n" + HEAD + ROWS_OF_12, True),  # a header longer than a chunk
        (HEAD + ROWS_OF_12[:-1], False),  # no final newline
        (HEAD + ROWS_OF_12 + "1000040,ZPL", False),
        (HEAD + ROWS_OF_12 + "\n", False),  # a blank last line
        (HEAD + ROWS_OF_12.replace("1000031,PSB", "1000031,PSX"), False),  # faults in a later chunk
        (HEAD + ROWS_OF_12.replace("1000031,PSB", "10000 31,PSB"), False),
        (HEAD + ROWS_OF_12.replace("1000031,PSB", "1000031,PSB,1"), False),
        (HEAD + ROWS_OF_12.replace("1000031,PSB", "1" * 40 + ",PSB"), False),  # a row too long
    ], ids=["straddling", "width-change-at-36", "1-to-16-digits", "leading-zeros", "long-header",
            "no-final-newline", "last-row-unended", "blank-last-line", "unknown-label", "space",
            "three-fields", "long-row"])
    def test_against_the_table_reader(self, tmp_path, monkeypatch, chunk, text, parsed):
        path = tmp_path / "rows.csv"
        path.write_text(text)
        assert counts_parsed(path) == parsed
        if parsed:
            assert counts_values(path) == table_values(path)
        assert stream_outcome(path) == stream_outcome_by_table(monkeypatch, path)

    @pytest.mark.parametrize("fault, message", [
        ("1000031,PSX", "unknown channel 'PSX'"),
        ("10000x1,PSB", "bad timestamp"),
        ("1000031;PSB", "expected 'timestamp,channel'"),
    ])
    def test_fault_in_a_later_chunk_at_its_line(self, tmp_path, monkeypatch, chunk, fault, message):
        path = tmp_path / "rows.csv"
        path.write_text(HEAD + ROWS_OF_12.replace("1000031,PSB", fault))
        assert stream_outcome(path) == f"{path}:34: {message}"  # the 32nd row, after two headers
        assert stream_outcome_by_table(monkeypatch, path) == stream_outcome(path)

    @pytest.mark.parametrize("chunk_bytes", [997, 4096])
    def test_simulated_stream_is_never_left_to_the_table_reader(
            self, mc_rates, radiative_budget, tmp_path, monkeypatch, chunk_bytes):
        # 33k rows in 452 or 111 chunks, each splitting a run, against a budget
        # of 32 runs for the widths and the blocks alone
        monkeypatch.setattr(_table, "CHUNK_BYTES", chunk_bytes)
        stream = montecarlo.simulate_stream(mc_rates, radiative_budget, 5e-4, 1.0, seed=92)
        path = tmp_path / "sim.csv"
        montecarlo.save_stream(stream, path)
        assert counts_parsed(path)
        assert counts_values(path) == table_values(path)
        assert stream_outcome(path) == stream_outcome_by_table(monkeypatch, path)
