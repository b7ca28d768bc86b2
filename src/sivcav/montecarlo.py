"""Stochastic photon-stream simulation and HBT correlation estimation.

The three-level system is a continuous-time Markov chain, sampled exactly
from one detected photon to the next, with no time discretization. A decay
to the ground state emits with probability eta_qe, lands in ZPL or PSB by
the budget's branching ratio and is thinned by the detection efficiency, so
a cycle ends in a detected photon with probability
q = (1 - p_shelf) * eta_qe * eta_det. After a detection the emitter is in
the ground state, so the gaps are independent: K ~ Geometric(q) cycles, of
which M ~ Binomial(K - 1, p_dark) shelved, take
Gamma(K, 1/k12) + Gamma(K, 1/(k21 + k23)) + Gamma(M, 1/k31).

Randomness comes from the counter-based Philox generator, so streams are
bit-reproducible from their seed. Draws are made in fixed per-photon order
(K, M, the three gamma waits, channel coin), vectorized over batches of
photons; a new order bumps RNG_ALGORITHM, which saved streams record.

Streams and histograms are stored as CSV through the package's one table
reader and writer. A stream file holds one row per photon with its timestamp
as an integer number of picoseconds, as hardware time taggers record them
(header '# time_unit=ps'); 1 ps is far below any bin width or timing jitter
of the HBT analysis. Loading divides by 1e12, so a saved stream loads back
rounded to the picosecond, clipped to its duration. Durations stay below
2^51 ps (about 2252 s), where float seconds resolve every picosecond, so a
loaded stream saves to the same bytes. The rows are written and, when every
row is '<digits>,ZPL|PSB' as written, read as bytes with numpy, block by
block (_table.write_counts, read_counts); any other file, float seconds
included, goes through the table reader, which reports faults at their line.
Files without the time_unit header hold float seconds and still load.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._table import read_columns, read_counts, read_table, write_counts, write_table
from .errors import DomainError, InputFormatError, ValidationError
from .models import G2Curve, RadiativeBudget, ThreeLevelRates, _arrays, _floats, _number, _raise_if

RNG_ALGORITHM = "philox4x64/skip-1"

PS_PER_S = 1e12  # time tags of stream files are integer picoseconds
MAX_PS = 2**51  # below it, float seconds resolve every picosecond

CHANNEL_ZPL = 0
CHANNEL_PSB = 1
CHANNEL_LABELS = ("ZPL", "PSB")

MODE_FULL = "full"
MODE_START_STOP = "start-stop"


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True, eq=False)
class PhotonStream:
    """Detected photon timestamps (s) with per-photon channel tags.

    channel_tags holds CHANNEL_ZPL / CHANNEL_PSB codes; ``seed`` is the seed
    of the generating simulation and ``rng_algorithm`` names the generator so
    streams can be reproduced.
    """

    timestamps: np.ndarray
    channel_tags: np.ndarray
    duration: float
    seed: int
    rng_algorithm: str = RNG_ALGORITHM

    def __post_init__(self):
        bag = []
        tags = np.asarray(self.channel_tags, dtype=np.uint8)
        (duration,) = _floats(self, bag, "duration")
        if duration <= 0:
            bag.append("duration must be positive")
        if np.ndim(self.timestamps) != 1 or tags.ndim != 1:
            bag.append("timestamps and channel_tags must be 1-D")
        if np.shape(self.timestamps) != tags.shape:
            bag.append("timestamps and channel_tags must align")
        (ts,) = _arrays(self, bag, "timestamps")
        if ts.size and np.all(np.isfinite(ts)):
            if not np.all(np.diff(ts) >= 0):
                bag.append("timestamps must be sorted")
            elif ts[0] < 0 or ts[-1] > duration:
                bag.append("timestamps must lie in [0, duration]")
        if ts.size and not np.all(np.isin(tags, (CHANNEL_ZPL, CHANNEL_PSB))):
            bag.append("channel_tags must be ZPL/PSB codes")
        _raise_if(bag)
        tags.setflags(write=False)
        object.__setattr__(self, "channel_tags", tags)
        object.__setattr__(self, "seed", int(self.seed))

    def __len__(self):
        return self.timestamps.size

    @property
    def detected_rate(self):
        return self.timestamps.size / self.duration

    def labels(self):
        return np.array(CHANNEL_LABELS)[self.channel_tags]


@dataclass(frozen=True, eq=False)
class HbtHistogram:
    """Coincidence histogram with the flat-background normalization.

    ``normalization`` is the expected number of coincidences per bin for
    uncorrelated light at the measured mean rate, so counts/normalization
    estimates g2 per bin.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    normalization: float
    mode: str = MODE_FULL

    MODES: ClassVar[tuple[str, str]] = (MODE_FULL, MODE_START_STOP)

    def __post_init__(self):
        bag = []
        (edges,) = _arrays(self, bag, "bin_edges")
        try:
            counts = np.asarray(self.counts, dtype=np.int64)
        except OverflowError:
            bag.append("counts must lie in the int64 range")
            counts = np.asarray(self.counts, dtype=object)
        if edges.ndim != 1 or counts.ndim != 1:
            bag.append("bin_edges and counts must be 1-D")
        elif counts.size != edges.size - 1:
            bag.append("counts must have one entry per bin")
        if edges.size >= 2 and not np.all(np.diff(edges) > 0):
            bag.append("bin_edges must be strictly increasing")
        if counts.size and np.any(counts < 0):
            bag.append("counts must be non-negative")
        (norm,) = _floats(self, bag, "normalization")
        if norm <= 0:
            bag.append("normalization must be positive")
        if self.mode not in self.MODES:
            bag.append(f"mode must be one of {self.MODES}")
        _raise_if(bag)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def to_curve(self) -> G2Curve:
        """Normalized histogram as a G2Curve with Poisson uncertainties."""
        g2 = self.counts / self.normalization
        sigmas = np.sqrt(np.clip(self.counts, 1, None)) / self.normalization
        return G2Curve(self.centers, g2, sigmas)


def simulate_stream(
    rates: ThreeLevelRates,
    budget: RadiativeBudget,
    duration: float,
    detection_eff: float,
    seed: int,
) -> PhotonStream:
    """Simulate detected photon timestamps over an acquisition window.

    The budget sets the emission split: a |2> -> |1> transition emits with
    probability budget.eta_qe, lands in the ZPL channel with probability
    budget.zpl_fraction, and survives detection with probability
    detection_eff. Fully reproducible from the seed.
    """
    duration = _number("duration", duration, "be positive")
    detection_eff = _number("detection_eff", detection_eff, "lie in [0, 1]")

    empty = PhotonStream(np.empty(0), np.empty(0, dtype=np.uint8), duration, seed)
    q_detect = budget.eta_qe * detection_eff
    if detection_eff == 0.0:
        warnings.warn("detection_eff = 0: no photons are recorded", stacklevel=2)
        return empty
    if rates.k12 == 0.0:
        warnings.warn("k12 = 0: the emitter is never pumped", stacklevel=2)
        return empty

    k2t = rates.k21 + rates.k23
    p_shelf = rates.k23 / k2t
    q = (1.0 - p_shelf) * q_detect
    # P(shelved | undetected); p_shelf / (1 - q) can round above 1 at q_detect = 1
    undetected = p_shelf + (1.0 - p_shelf) * (1.0 - q_detect)
    p_dark = p_shelf / undetected if undetected > 0.0 else 0.0
    mean_gap = (1.0 / rates.k12 + 1.0 / k2t + p_shelf / rates.k31) / q
    rng = _rng(seed)

    times, tags = [], []
    t0 = 0.0
    while t0 <= duration:
        n = max(1024, int((duration - t0) / mean_gap * 1.2) + 16)
        n = min(n, 500_000)  # cap batch memory; the loop continues if needed
        cycles = rng.geometric(q, n)
        shelved = rng.binomial(cycles - 1, p_dark)
        t = rng.gamma(cycles, 1.0 / rates.k12)
        t += rng.gamma(cycles, 1.0 / k2t)
        t += rng.gamma(shelved, 1.0 / rates.k31)
        np.cumsum(t, out=t)
        t += t0
        kept = int(np.searchsorted(t, duration, side="right"))
        zpl = rng.random(kept) < budget.zpl_fraction
        times.append(t[:kept])
        tags.append(np.where(zpl, CHANNEL_ZPL, CHANNEL_PSB).astype(np.uint8))
        t0 = float(t[-1])

    return PhotonStream(np.concatenate(times), np.concatenate(tags), duration, seed)


def apply_jitter(stream: PhotonStream, sigma_irf: float, seed: int) -> PhotonStream:
    """Add independent Gaussian timing offsets to every photon and re-sort.

    Photons jittered outside the acquisition window are dropped. sigma = 0
    returns the stream unchanged. Deterministic per seed. Note that pairwise
    delays between jittered photons acquire a kernel of width sqrt(2) * sigma.
    """
    sigma_irf = _number("sigma_irf", sigma_irf, "be non-negative")
    if sigma_irf == 0.0 or len(stream) == 0:
        return stream
    rng = _rng(seed)
    jittered = stream.timestamps + rng.normal(0.0, sigma_irf, len(stream))
    inside = (jittered >= 0.0) & (jittered <= stream.duration)
    jittered = jittered[inside]
    tags = stream.channel_tags[inside]
    order = np.argsort(jittered, kind="stable")
    return PhotonStream(jittered[order], tags[order], stream.duration, stream.seed)


def correlate(
    stream: PhotonStream,
    bin_width: float,
    window: float,
    mode: str = MODE_FULL,
    seed: int = 0,
) -> HbtHistogram:
    """Estimate the intensity correlation of a photon stream.

    full mode: counts every ordered photon pair with |dt| <= window into bins
    centered on integer multiples of bin_width; the normalization
    rate^2 * duration * bin_width uses the stream's own mean detected rate,
    so counts/normalization estimates g2.

    start-stop mode: photons are split 50/50 between two virtual detectors by
    a seeded fair coin and each start is paired with the nearest subsequent
    stop (non-negative delays only). This classic estimator is unbiased only
    while rate * window << 1; beyond that pile-up suppresses large delays.
    """
    if len(stream) == 0:
        raise DomainError("cannot correlate an empty photon stream")
    bin_width = _number("bin_width", bin_width, "be positive")
    window = _number("window", window, "be positive")
    if not bin_width <= window:
        raise DomainError("need 0 < bin_width <= window")
    t = stream.timestamps
    n = t.size
    duration = stream.duration

    if mode == MODE_FULL:
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
        edges = (np.arange(-n_half, n_half + 2) - 0.5) * bin_width
        rate = n / duration
        normalization = rate**2 * duration * bin_width
        return HbtHistogram(edges, counts, normalization, MODE_FULL)

    if mode == MODE_START_STOP:
        coin = _rng(seed).random(n) < 0.5
        starts = t[coin]
        stops = t[~coin]
        if starts.size == 0 or stops.size == 0:
            raise DomainError("start-stop split left one detector empty")
        idx = np.searchsorted(stops, starts, side="right")
        valid = idx < stops.size
        delays = stops[idx[valid]] - starts[valid]
        n_bins = max(int(math.ceil(window / bin_width)), 1)
        edges = np.arange(n_bins + 1) * bin_width
        counts = np.histogram(delays[delays <= edges[-1]], edges)[0]
        normalization = starts.size * (stops.size / duration) * bin_width
        return HbtHistogram(edges, counts.astype(np.int64), normalization, MODE_START_STOP)

    raise DomainError(f"unknown correlation mode {mode!r}")


def merge_histograms(histograms) -> HbtHistogram:
    """Merge per-trajectory histograms (associative and commutative)."""
    histograms = list(histograms)
    if not histograms:
        raise DomainError("nothing to merge")
    first = histograms[0]
    counts = np.zeros_like(first.counts)
    norm = 0.0
    for h in histograms:
        if h.mode != first.mode or not np.array_equal(h.bin_edges, first.bin_edges):
            raise DomainError("histograms must share binning and mode to merge")
        counts = counts + h.counts
        norm += h.normalization
    return HbtHistogram(first.bin_edges, counts, norm, first.mode)


# --- file formats -------------------------------------------------------------
#
# PhotonStream CSV: '# key=value' headers (seed, rng, duration_s, time_unit=ps,
# optionally rates_hz and detection_eff), then rows 'timestamp_ps,channel' with
# integer picoseconds below 2^51. A file without the time_unit header holds
# float seconds, rows 'timestamp_s,channel'; such files still load.
# HbtHistogram CSV: '# key=value' headers, then rows 'tau_s,g2,sigma'.


def _last_ps(duration):
    """The largest picosecond count that loads back to at most duration."""
    last = math.floor(duration * PS_PER_S)
    while last / PS_PER_S > duration:
        last -= 1
    return last


def _time_unit(value):
    if value != "ps":
        raise ValueError(f"unknown time_unit {value!r}")
    return value


def save_stream(stream: PhotonStream, path, rates: ThreeLevelRates | None = None, meta=None):
    """Write a stream CSV, its timestamps rounded to integer picoseconds and
    clipped to the duration. DomainError for a duration of 2^51 ps or more."""
    if stream.duration * PS_PER_S >= MAX_PS:
        raise DomainError(f"duration {stream.duration!r} s is 2^51 ps or more")
    ps = np.minimum(np.rint(stream.timestamps * PS_PER_S), _last_ps(stream.duration)).astype(np.int64)
    header = [f"seed={stream.seed}", f"rng={stream.rng_algorithm}",
              f"duration_s={stream.duration!r}", "time_unit=ps"]
    if rates is not None:
        header.append(f"rates_hz={rates.k12!r},{rates.k21!r},{rates.k23!r},{rates.k31!r}")
    header += [f"{key}={value}" for key, value in (meta or {}).items()]
    header.append("timestamp_ps,channel")
    with open(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in header).encode())
        write_counts(fh, ps, stream.channel_tags, CHANNEL_LABELS)


def load_stream(path):
    """Load a stream CSV. Returns (PhotonStream, metadata dict).

    Rows as save_stream writes them are parsed from the file's bytes; any
    other file goes through the table reader, whose faults are reported first.
    Under '# time_unit=ps' a timestamp that is not a non-negative integer
    fails as a bad timestamp at its line."""
    codes = {label: i for i, label in enumerate(CHANNEL_LABELS)}
    headers = {"time_unit": _time_unit}
    table = read_counts(path, codes, headers)
    if table is None:
        table = read_table(path, (2,), "expected 'timestamp,channel'", "bad timestamp",
                           labels={1: (codes, "unknown channel {!r}")}, headers=headers)
    meta = table.meta
    try:
        duration = float(meta["duration_s"])
        seed = int(meta.get("seed", 0))
    except (KeyError, ValueError):
        raise InputFormatError(path, 0, "missing or bad '# duration_s=' header") from None
    times = table.columns[0]
    if "time_unit" in meta:
        if duration * PS_PER_S >= MAX_PS:
            raise InputFormatError(path, 0, f"duration_s={duration!r} is 2^51 ps or more")
        bad = np.flatnonzero(~(times >= 0.0) | (np.floor(times) != times))
        if bad.size:
            raise InputFormatError(path, int(table.lines[bad[0]]), "bad timestamp")
        times = times / PS_PER_S
    try:
        stream = PhotonStream(
            times, table.columns[1].astype(np.uint8), duration, seed,
            meta.get("rng", RNG_ALGORITHM),
        )
    except ValidationError as err:
        raise InputFormatError(path, 0, str(err)) from None
    return stream, meta


def save_histogram(hist: HbtHistogram, path):
    curve = hist.to_curve()
    with open(path, "w") as fh:
        fh.write(f"# mode={hist.mode}\n")
        fh.write(f"# normalization={hist.normalization!r}\n")
        fh.write("# tau_s,g2,sigma\n")
        write_table(fh, curve.delays, curve.values, curve.sigmas)


def load_g2_csv(path) -> G2Curve:
    """Load a correlation curve CSV with columns tau_s,g2[,sigma]."""
    return read_columns(path, (2, 3), "expected 'tau_s,g2[,sigma]'", G2Curve)
