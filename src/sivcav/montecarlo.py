"""Stochastic photon-stream simulation and HBT correlation estimation.

The three-level system is a continuous-time Markov chain, sampled exactly
from one detected photon to the next, with no time discretization. A decay
to the ground state emits with probability eta_qe, lands in ZPL or PSB by
the budget's branching ratio and is thinned by the detection efficiency, so
a cycle ends in a detected photon with probability
q = (1 - p_shelf) * eta_qe * eta_det. After a detection the emitter is in
the ground state, so the gaps are independent and identically distributed,
and simulate_stream draws them with one of two exact samplers:

- Coxian (tag sfc64/cox-2). The gap's Laplace transform is
  q_d k12 k21 (s + k31) / det(sI - S), with q_d = eta_qe * eta_det and S the
  generator of the chain between detections. Where the cubic det(sI - S)
  has real roots -mu1 > -mu2 > -mu3, this is a 3-phase Coxian (Cumani,
  Microelectron. Reliab. 22, 583 (1982)): the gap is
  E3/mu3 + E2/mu2 + [U < beta1] E1/mu1, beta1 = 1 - mu1/k31, from three
  standard exponentials E and one uniform U. Equal roots give an Erlang.
- Event skipping (tag sfc64/skip-2), the fallback where the cubic has
  complex roots: K ~ Geometric(q) cycles, of which M ~ Binomial(K - 1,
  p_dark) shelved, take Gamma(K, 1/k12) + Gamma(K, 1/(k21 + k23)) +
  Gamma(M, 1/k31).

The sign of the cubic's discriminant, with a bound on its round-off, picks
the sampler; the stream's rng_algorithm names the one that ran.

Randomness comes from numpy's SFC64 generator. A stream is cut into
batches of one size, the expected photon count (with its margin) or
GEN_BATCH photons, whichever is less, and batch b draws from its own
generator, the child of the seed's SeedSequence spawned under the key (b,).
Each batch draws its gaps (Coxian: the three exponentials, then U; event
skipping: K, M, then the three gamma waits), then a channel coin for each
of its photons. So a stream is bit-reproducible from its seed and the batch
size, whatever the number of threads that draw it; a new generator or order
means a new tag, which saved streams record. Old tags (sfc64/*-1: one
generator per stream; philox4x64/*) still load and keep their tags.

Each stage of the photon path holds one array per stream, and no other
temporary larger than a batch or a block per thread. simulate_stream draws
the batches on the threads of _map, each into its slice of one output,
sized in whole batches from the expected photon count and its margin and
grown, in whole batches, only past it; a round draws the batches the
photons expected without the margin fill, and another round follows where
they fall short. Each batch sums its own gaps; the batches' starts are
carried from one to the next, added on the threads, and the stream is cut
at the duration. A batch's scratch array holds E2, then E1, then the
channel coin, and the Coxian's U comes in chunks of DRAW_CHUNK (the same
draws as one call). apply_jitter draws the Gaussian offsets per block of
GEN_BATCH photons, block b from the jitter seed's child (b,), and sorts
the jittered times in place: cut into blocks of SORT_BLOCK, a cut is kept
where no time before it exceeds one after it, and each span between kept
cuts is stable-sorted alone, the spans on the threads of _map, so the
order is that of one stable argsort of the stream. Only where no cut holds
does a span, and its temporaries, cover the whole stream.

A full-mode histogram counts each pair (i, i + k) of photons with
t[i + k] - t[i] within the window once, under its start i: lag by lag over
the starts whose pairs still fit (Laurence et al., Opt. Lett. 31, 829
(2006)), kept from one lag to the next as an index array. The starts are cut
into chunks of CHUNK_STARTS, each chunk counts its own pairs reading the
whole stream, and the chunks run on the threads of _map. A lag's delays are
sorted in place and binned by searching the bin edges in them, as
np.histogram bins them; a lag of fewer than SORT_BLOCK delays waits for
others, and they are sorted together once they hold SORT_BLOCK or the chunk
ends. So a chunk holds one lag's arrays and fewer than SORT_BLOCK waiting
delays. Every delay is the same subtraction and the integer counts add in
any order, so the histogram does not depend on the chunk size, the thread
count or SORT_BLOCK.

_map, the one thread helper of the photon path, runs a function over a
list of items on one thread per CPU the process may run on (its affinity
mask), at most MAX_WORKERS, the calling thread among them; a list of one
item runs in the calling thread alone. Its threads come from the threading
module, which numpy has imported already.

Streams and histograms are stored as CSV through the package's one table
reader and writer. A stream file holds one row per photon with its timestamp
as an integer number of picoseconds, as hardware time taggers record them
(header '# time_unit=ps'); 1 ps is far below any bin width or timing jitter
of the HBT analysis. Loading divides by 1e12, so a saved stream loads back
rounded to the picosecond, clipped to its duration. Durations stay below
2^51 ps (about 2252 s), where float seconds resolve every picosecond, so a
loaded stream saves to the same bytes. The rows are written as bytes with
numpy, block by block (_table.write_counts), each block's timestamps turned
into picoseconds as it is written. When every row is '<digits>,ZPL|PSB' as
written, the file is read from its bytes in chunks, run by run, a run being
rows of one width (_table.read_counts), into the float64 counts and uint8
codes that the stream takes as they are, the counts divided to seconds in
place; any other file, float seconds included, goes through the table
reader, which reports faults at their line. So saving and loading, too,
hold no temporary larger than a block or a chunk besides the stream's own
arrays. Files without the time_unit header hold float seconds and still
load.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._table import read_columns, read_counts, read_table, write_counts, write_table
from .errors import DomainError, InputFormatError, ValidationError
from .models import (G2Curve, RadiativeBudget, ThreeLevelRates, _arrays, _float_array, _floats,
                     _increasing, _number, _raise_if, _read_only, _shaped)

RNG_SKIP = "sfc64/skip-2"  # event skipping
RNG_COXIAN = "sfc64/cox-2"
RNG_NONE = "none"  # a stream no sampler drew: built by hand, or read from a file without an rng header

PS_PER_S = 1e12  # time tags of stream files are integer picoseconds
MAX_PS = 2**51  # below it, float seconds resolve every picosecond

CHANNEL_ZPL = 0
CHANNEL_PSB = 1
CHANNEL_LABELS = ("ZPL", "PSB")

MODE_FULL = "full"
MODE_START_STOP = "start-stop"

CHUNK_STARTS = 1 << 16  # pair starts per chunk of a full-mode correlate
MAX_WORKERS = 4  # threads of a _map, at most
GEN_BATCH = 1 << 17  # photons per spawned generator: a batch of simulate_stream, a block of apply_jitter
DRAW_CHUNK = 1 << 14  # uniforms per draw of the Coxian's coin U
# keys per sort: a block of apply_jitter's sort (MAX_WORKERS spans of it hold 1 << 16), and the
# delays a correlate chunk sorts at once: a longer lag alone, shorter ones held together up to it
SORT_BLOCK = 1 << 14


def _rng(seed, *spawn_key):
    """The SFC64 generator of seed, or of its child spawned under spawn_key."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def _workers():
    """Threads for _map: the CPUs this process may run on, at most MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def _map(fn, items):
    """[fn(item) for item in items] on up to _workers() threads, the calling
    one among them, each taking the next item as it finishes one; with one
    item or one worker, in the calling thread alone. An exception raised by
    fn stops the items not yet taken and is raised here once every thread
    has ended."""
    items = list(items)
    workers = min(_workers(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    results, failed = [None] * len(items), []
    todo, lock = iter(range(len(items))), threading.Lock()

    def work():
        try:
            while not failed:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                results[i] = fn(items[i])
        except BaseException as err:  # raised again in the caller
            failed.append(err)

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]
    return results


def _channel_codes(tags):
    """Whether every entry of the array tags is CHANNEL_ZPL or CHANNEL_PSB
    (0 or 1); integer arrays are checked by their extremes, with no
    temporary of their size."""
    if tags.size == 0:
        return True
    kind = tags.dtype.kind
    if kind in "bu":
        return tags.max() <= 1
    if kind == "i":
        return tags.min() >= 0 and tags.max() <= 1
    if kind not in "fO":  # strings, complex numbers, dates
        return False
    return bool(np.all((tags == CHANNEL_ZPL) | (tags == CHANNEL_PSB)))


@dataclass(frozen=True, eq=False)
class PhotonStream:
    """Detected photon timestamps (s) with per-photon channel tags.

    channel_tags holds CHANNEL_ZPL / CHANNEL_PSB codes (whole numbers 0 or
    1 of any dtype, stored as uint8); ``seed`` is the seed of the generating
    simulation and ``rng_algorithm`` names the generator so streams can be
    reproduced (RNG_NONE where no sampler drew the stream).
    """

    timestamps: np.ndarray
    channel_tags: np.ndarray
    duration: float
    seed: int
    rng_algorithm: str = RNG_NONE

    def __post_init__(self):
        bag = []
        tags = _shaped(bag, "channel_tags", self.channel_tags)
        (duration,) = _floats(self, bag, duration="be positive")
        own = []  # faults of the timestamps' entries, listed after the shape's
        (ts,) = _arrays(self, own, timestamps="be finite")
        if ts.ndim != 1 or tags.ndim != 1:
            bag.append("timestamps and channel_tags must be 1-D")
        if ts.shape != tags.shape:
            bag.append("timestamps and channel_tags must align")
        bag += own
        if ts.ndim == 1 and ts.size and not own:  # own holds any non-finite entry
            if not np.all(ts[1:] >= ts[:-1]):
                bag.append("timestamps must be sorted")
            elif ts[0] < 0 or (ts[-1] > duration and math.isfinite(duration)):  # -inf: reported already
                bag.append("timestamps must lie in [0, duration]")
        if not _channel_codes(tags):
            bag.append("channel_tags must be ZPL/PSB codes")
        _raise_if(bag)
        tags = tags.astype(np.uint8, copy=False)
        object.__setattr__(self, "channel_tags", _read_only(tags, self.channel_tags))
        object.__setattr__(self, "seed", int(self.seed))

    def __len__(self):
        return self.timestamps.size

    @property
    def detected_rate(self):
        return self.timestamps.size / self.duration


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
        (edges,) = _arrays(self, bag, bin_edges="be finite")
        given = _shaped(bag, "counts", self.counts)
        if np.can_cast(given.dtype, np.int64):
            counts = given.astype(np.int64, copy=False)
        else:  # floats, uint64, or ints beyond int64 as objects
            values = _float_array(bag, "counts", given)
            fraction = values != np.floor(values)  # NaN included
            beyond = np.abs(values) >= 2.0**63
            if np.any(fraction):
                bag.append("counts must be whole numbers")
            if np.any(beyond):
                bag.append("counts must lie in the int64 range")
            counts = np.where(fraction | beyond, 0.0, values).astype(np.int64)
        if edges.ndim != 1 or counts.ndim != 1:
            bag.append("bin_edges and counts must be 1-D")
        elif counts.size != edges.size - 1:
            bag.append("counts must have one entry per bin")
        if not _increasing(edges):
            bag.append("bin_edges must be strictly increasing")
        if counts.size and np.any(counts < 0):
            bag.append("counts must be non-negative")
        _floats(self, bag, normalization="be positive")
        if self.mode not in self.MODES:
            bag.append(f"mode must be one of {self.MODES}")
        _raise_if(bag)
        object.__setattr__(self, "counts", _read_only(counts, self.counts))

    @property
    def centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def to_curve(self) -> G2Curve:
        """Normalized histogram as a G2Curve with Poisson uncertainties."""
        g2 = self.counts / self.normalization
        sigmas = np.sqrt(np.clip(self.counts, 1, None)) / self.normalization
        return G2Curve(self.centers, g2, sigmas)


def _handed_over(times, tags, duration, seed, rng_algorithm):
    """PhotonStream of a producer's own new arrays, made read-only first so
    that the stream takes them without a copy."""
    times.setflags(write=False)
    tags.setflags(write=False)
    return PhotonStream(times, tags, duration, seed, rng_algorithm)


def _coxian(rates, q_detect):
    """(mu1, mu2, mu3, beta1) of the Coxian law of the gap between detected
    photons, mu1 <= mu2 <= mu3, or None where det(sI - S) has complex roots."""
    k12, k21, k23, k31 = rates.k12, rates.k21, rates.k23, rates.k31
    # det(sI - S) = s^3 + c2 s^2 + c1 s + c0, each a sum of positive terms
    c2 = k12 + k21 + k23 + k31
    c1 = k12 * k23 + q_detect * k12 * k21 + k12 * k31 + (k21 + k23) * k31
    c0 = q_detect * k12 * k21 * k31
    # discriminant of x^3 + x^2 + b x + c, the cubic in s = c2 x; its sign is
    # that of the discriminant in s, and its terms stay in range
    b, c = c1 / c2**2, c0 / c2**3
    terms = (18.0 * b * c, -4.0 * c, b * b, -4.0 * b**3, -27.0 * c * c)
    # round-off bound, to first order in u = eps/2: c2, c1, c0 are off by at
    # most 3u, 5u, 3u relative, so b and c by 13u and 16u, a term (degree <= 3
    # in them) by 41u and the sum by 4u of sum |terms| more: 45u < 32 eps.
    # Inside the bound the discriminant is zero up to round-off: the roots
    # are taken as real (.real drops imaginary parts of round-off size), and
    # equal ones give an Erlang, which the Coxian form covers
    if sum(terms) < -32.0 * np.finfo(float).eps * sum(abs(t) for t in terms):
        return None
    mu1, mu2, mu3 = np.sort(-np.roots([1.0, c2, c1, c0]).real)
    # beta1 >= 0: at s = -k31 the cubic is -k31 k12 k23 <= 0, so
    # (k31 - mu1)(k31 - mu2)(k31 - mu3) <= 0 and some mu <= k31, hence
    # mu1 <= k31; max() absorbs round-off where mu1 = k31 (k23 = 0)
    return mu1, mu2, mu3, max(1.0 - mu1 / k31, 0.0)


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
    detection_eff. Fully reproducible from the seed; the stream's
    rng_algorithm names the sampler (module docstring).
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
    mean_gap = (1.0 / rates.k12 + 1.0 / k2t + p_shelf / rates.k31) / q

    def expected(t0):  # the photons expected after t0, with a margin
        return max(1024, int((duration - t0) / mean_gap * 1.2) + 16)

    # one output for the stream in whole batches, grown only past the expected count
    batch = min(expected(0.0), GEN_BATCH)
    size = _whole(expected(0.0), batch)
    times, tags = np.empty(size), np.empty(size, np.uint8)
    coxian = _coxian(rates, q_detect)
    if coxian is not None:
        mu1, mu2, mu3, beta1 = coxian

        def draw_gaps(rng, t, e):
            rng.standard_exponential(out=t)
            t /= mu3
            rng.standard_exponential(out=e)
            e /= mu2
            t += e
            rng.standard_exponential(out=e)
            e /= mu1
            coin = np.empty(min(DRAW_CHUNK, e.size))
            for lo in range(0, e.size, DRAW_CHUNK):  # U in chunks: the draws of one rng.random(n)
                u = rng.random(out=coin[:e.size - lo])
                e[lo:lo + u.size] *= u < beta1  # +0.0 where U >= beta1, which adds nothing
            t += e
    else:
        # P(shelved | undetected); p_shelf / (1 - q) can round above 1 at q_detect = 1
        undetected = p_shelf + (1.0 - p_shelf) * (1.0 - q_detect)
        p_dark = p_shelf / undetected if undetected > 0.0 else 0.0

        def draw_gaps(rng, t, e):
            cycles = rng.geometric(q, t.size)
            shelved = rng.binomial(cycles - 1, p_dark)
            t[:] = rng.gamma(cycles, 1.0 / rates.k12)
            t += rng.gamma(cycles, 1.0 / k2t)
            t += rng.gamma(shelved, 1.0 / rates.k31)

    def draw(b):
        """Batch b from its own generator: its gaps summed from 0 and its
        channel coins; the sum of its gaps."""
        span = slice(b * batch, (b + 1) * batch)
        rng, t, e = _rng(seed, b), times[span], np.empty(batch)  # e: E2, then E1, then the coin
        draw_gaps(rng, t, e)
        np.greater_equal(rng.random(out=e), budget.zpl_fraction, out=tags[span])  # PSB = 1
        np.cumsum(t, out=t)
        return float(t[-1])

    done, t0, starts = 0, 0.0, []  # batches drawn, the end of the last, the start of each
    while t0 <= duration:
        # the batches of the photons expected after t0, without the margin:
        # where they fall short, the next round draws more
        todo = range(done, done + max(1, math.ceil((duration - t0) / mean_gap / batch)))
        if todo.stop * batch > times.size:
            size = done * batch + _whole(expected(t0), batch)
            times, tags = _grown(times, done * batch, size), _grown(tags, done * batch, size)
        for b, end in zip(todo, _map(draw, todo)):
            if t0 > duration:  # batches past the one that crosses duration hold no photon
                break
            starts.append(t0)
            t0 += end  # the last time of batch b, as in times once its start is added
            done = b + 1

    def shift(b):  # batch b's times from its start on
        t = times[b * batch:(b + 1) * batch]
        t += starts[b]

    _map(shift, range(1, done))  # batch 0 starts at 0
    last = (done - 1) * batch
    pos = last + int(np.searchsorted(times[last:last + batch], duration, side="right"))
    return _handed_over(times[:pos], tags[:pos], duration, seed,
                        RNG_SKIP if coxian is None else RNG_COXIAN)


def _whole(n, batch):
    """n rounded up to whole batches."""
    return -(-n // batch) * batch


def _grown(a, pos, size):
    """A new array of size entries, a[:pos] at its head."""
    out = np.empty(size, a.dtype)
    out[:pos] = a[:pos]
    return out


def _block_sort(keys, tags):
    """Sort keys in place and return tags in their new order, as a stable
    argsort of all keys would order them, with temporaries of one span per
    thread.

    A cut between two blocks of SORT_BLOCK keys is kept where no key before
    it exceeds a key after it; each span between kept cuts is stable-sorted
    on its own, and the spans are then in order. Where no cut holds the span
    is every key."""
    starts = np.arange(0, keys.size, SORT_BLOCK)
    before = np.maximum.accumulate(np.maximum.reduceat(keys, starts))[:-1]  # largest key before each cut
    after = np.minimum.accumulate(np.minimum.reduceat(keys, starts)[::-1])[::-1][1:]  # smallest after it
    cuts = [0, *starts[1:][before <= after].tolist(), keys.size]
    out = np.empty(keys.size, np.uint8)

    def sort(span):
        lo, hi = span
        order = np.argsort(keys[lo:hi], kind="stable")
        keys[lo:hi] = keys[lo:hi][order]
        out[lo:hi] = tags[lo:hi][order]

    _map(sort, zip(cuts, cuts[1:]))
    return out


def apply_jitter(stream: PhotonStream, sigma_irf: float, seed: int) -> PhotonStream:
    """Add independent Gaussian timing offsets to every photon and re-sort.

    Photons jittered outside the acquisition window are dropped. sigma = 0
    returns the stream unchanged. Deterministic per seed (the offsets come
    per block of GEN_BATCH photons, module docstring). Note that pairwise
    delays between jittered photons acquire a kernel of width sqrt(2) * sigma.
    """
    sigma_irf = _number("sigma_irf", sigma_irf, "be non-negative")
    if sigma_irf == 0.0 or len(stream) == 0:
        return stream
    jittered = np.empty(len(stream))

    def draw(b):  # block b of the offsets from its own generator: t + normal(0, sigma), bit for bit
        span = slice(b * GEN_BATCH, (b + 1) * GEN_BATCH)
        z = _rng(seed, b).standard_normal(out=jittered[span])
        z *= sigma_irf
        z += stream.timestamps[span]

    _map(draw, range(math.ceil(len(stream) / GEN_BATCH)))
    tags = _block_sort(jittered, stream.channel_tags)
    # the photons inside [0, duration]: a slice, ordered as a stable sort of them alone
    inside = slice(jittered.searchsorted(0.0), jittered.searchsorted(stream.duration, "right"))
    return _handed_over(jittered[inside], tags[inside], stream.duration, stream.seed,
                        stream.rng_algorithm)


def _sorted_counts(d, pos_edges):
    """np.histogram(d, pos_edges)[0] of delays 0 <= d <= pos_edges[-1], with d
    sorted in place: each bin's count by searching its edges, its upper one
    excluded but for the last bin's."""
    d.sort()
    return np.diff(np.append(d.searchsorted(pos_edges[:-1]), d.searchsorted(pos_edges[-1], "right")))


def _chunk_counts(t, lo, hi, limit, pos_edges):
    """Counts over pos_edges of the delays t[i + k] - t[i] <= limit, k >= 1,
    of the starts i in [lo, hi): the pairs that chunk of starts owns. A lag
    of at least SORT_BLOCK delays is counted alone; shorter ones are held
    and counted together once they reach SORT_BLOCK, or at the chunk's end.
    So the temporaries are one lag's arrays and fewer than SORT_BLOCK held
    delays (twice that while they are joined)."""
    n = t.size
    counts = np.zeros(pos_edges.size - 1, dtype=np.int64)
    held, n_held = [], 0
    # lag k keeps the i with t[i + k] - t[i] <= limit: t is sorted, so they are among lag k-1's
    d, k = t[lo + 1:hi + 1] - t[lo:hi], 1
    start = np.flatnonzero(d <= limit)
    d = d[start]
    start += lo
    while start.size:
        if d.size >= SORT_BLOCK:
            counts += _sorted_counts(d, pos_edges)
        else:
            held.append(d)
            n_held += d.size
            if n_held >= SORT_BLOCK:
                counts += _sorted_counts(np.concatenate(held), pos_edges)
                held, n_held = [], 0
        k += 1
        start = start[: np.searchsorted(start, n - k)]  # start + k < n
        d = t[start + k] - t[start]
        within = np.flatnonzero(d <= limit)
        start, d = start[within], d[within]
    if held:
        counts += _sorted_counts(np.concatenate(held), pos_edges)
    return counts


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
    so counts/normalization estimates g2. The pair starts are split into
    chunks of CHUNK_STARTS, counted on the threads of _map and summed; the
    counts are exact integers, the same for any chunk size or thread count.

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
    t, n, duration = stream.timestamps, len(stream), stream.duration

    if mode == MODE_FULL:
        n_half = max(int(round(window / bin_width)), 1)
        limit = (n_half + 0.5) * bin_width
        pos_edges = np.concatenate(([0.0], (np.arange(n_half + 1) + 0.5) * bin_width))
        parts = _map(lambda lo: _chunk_counts(t, lo, min(lo + CHUNK_STARTS, n - 1), limit, pos_edges),
                     range(0, n - 1, CHUNK_STARTS))  # chunks of the starts i of the pairs (i, i + k)
        pos_counts = sum(parts, np.zeros(n_half + 1, dtype=np.int64))
        counts = np.concatenate((pos_counts[:0:-1], [2 * pos_counts[0]], pos_counts[1:]))
        edges = (np.arange(-n_half, n_half + 2) - 0.5) * bin_width
        normalization = (n / duration) ** 2 * duration * bin_width
        return HbtHistogram(edges, counts, normalization, MODE_FULL)

    if mode == MODE_START_STOP:
        coin = _rng(seed).random(n) < 0.5
        starts, stops = t[coin], t[~coin]
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
    clipped to the duration, block by block as the rows are written.
    DomainError for a duration of 2^51 ps or more."""
    if stream.duration * PS_PER_S >= MAX_PS:
        raise DomainError(f"duration {stream.duration!r} s is 2^51 ps or more")
    last = _last_ps(stream.duration)

    def to_ps(times):
        ps = times * PS_PER_S
        return np.minimum(np.rint(ps, out=ps), last, out=ps).astype(np.int64)

    header = [f"seed={stream.seed}", f"rng={stream.rng_algorithm}",
              f"duration_s={stream.duration!r}", "time_unit=ps"]
    if rates is not None:
        header.append(f"rates_hz={rates.k12!r},{rates.k21!r},{rates.k23!r},{rates.k31!r}")
    header += [f"{key}={value}" for key, value in (meta or {}).items()]
    header.append("timestamp_ps,channel")
    with open(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in header).encode())
        write_counts(fh, stream.timestamps, stream.channel_tags, CHANNEL_LABELS, to_ps)


def load_stream(path):
    """Load a stream CSV. Returns (PhotonStream, metadata dict).

    Rows as save_stream writes them are parsed from the file's bytes, whose
    integer counts and codes the stream takes without a copy; any other
    file goes through the table reader, whose faults are reported first.
    Under '# time_unit=ps' a timestamp that is not a non-negative integer
    fails as a bad timestamp at its line; a duration_s or seed header that
    float or int rejects fails at its own line."""
    codes = {label: i for i, label in enumerate(CHANNEL_LABELS)}
    headers = {"time_unit": _time_unit, "duration_s": float, "seed": int}
    table = None
    counts = read_counts(path, codes, headers)
    if counts is None:
        table = read_table(path, (2,), "expected 'timestamp,channel'", "bad timestamp",
                           labels={1: (codes, "unknown channel {!r}")}, headers=headers)
        counts = table.meta, table.columns[0], table.columns[1].astype(np.uint8)
    meta, times, tags = counts
    if "duration_s" not in meta:
        raise InputFormatError(path, 0, "missing '# duration_s=' header")
    duration, seed = meta["duration_s"], meta.get("seed", 0)
    if "time_unit" in meta:
        if duration * PS_PER_S >= MAX_PS:
            raise InputFormatError(path, 0, f"duration_s={duration!r} is 2^51 ps or more")
        if table is None:  # rows of digits alone: non-negative integers
            times /= PS_PER_S  # in place, in the reader's own array
        else:
            bad = np.flatnonzero(~(times >= 0.0) | (np.floor(times) != times))
            if bad.size:
                raise InputFormatError(path, int(table.lines[bad[0]]), "bad timestamp")
            times = times / PS_PER_S  # not a view that keeps the table's codes
    try:
        stream = _handed_over(times, tags, duration, seed, meta.get("rng", RNG_NONE))
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
