"""Domain types for emitter-cavity rate modeling and photon-statistics analysis.

Unit conventions used throughout the package: rates in Hz, times in seconds,
wavelengths in nanometers, powers in milliwatts, angles in degrees. Conversion
to or from any other scale happens only at I/O boundaries.

All types are immutable after construction. Constructors validate eagerly and
raise :class:`~sivcav.errors.ValidationError` carrying *every* violated
invariant, so callers can report complete diagnostics in one pass. A type
stores its numeric fields through ``_floats``, ``_arrays`` (read-only arrays)
and ``_samples`` (the two arrays of a sampled curve), each named with its rule
from ``_RULES`` (``k21="be positive"``): a field that is not a finite number
gives one violation, a finite value or entry breaking it "<field> must <rule>".
A function checks each argument by the same rules. A scalar goes through
``_number`` and fails as DomainError "<name> must <rule>, got <value>"; an
array goes through ``_numbers`` and fails as DomainError in the wording of an
array field, its first fault only. A bool is not a number, in a field or an
argument alike, nor in a list among numbers. A ``RadiativeBudget`` is the one
type whose document a file carries (``RadiativeBudget.from_dict``). A budget
in a photonic crystal is a ``RadiativeBudget`` too
(:func:`~sivcav.purcell.modified_budget`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, ValidationError


def _as_float(value):
    """float(value), an int beyond the float range taken as +-inf. A string
    or a bool is not a number, even where float() would take it: TypeError."""
    if isinstance(value, (str, bytes, bytearray, bool, np.bool_)):
        raise TypeError(f"{type(value).__name__} is not a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


_RULES = {
    "be finite": lambda v: np.True_,
    "be positive": lambda v: v > 0,
    "be non-negative": lambda v: v >= 0,
    "be >= 1": lambda v: v >= 1,
    "lie in [0, 1]": lambda v: (0 <= v) & (v <= 1),
    "lie in (0, 1]": lambda v: (0 < v) & (v <= 1),
    "lie in (0, 1)": lambda v: (0 < v) & (v < 1),
}  # each rule also applies entry by entry to an array


def _number(name, value, rule="be finite"):
    """A number a caller passed as argument name, as a float that is finite
    and obeys rule (a key of _RULES); otherwise DomainError
    "<name> must <rule>, got <value>"."""
    try:
        value = _as_float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must {rule}, got {value!r}") from None
    if not (math.isfinite(value) and _RULES[rule](value)):
        raise DomainError(f"{name} must {rule}, got {value}")
    return value


def _floats(obj, bag, **rules):
    """Store each field of obj named in rules as a float, checked to be a
    finite number and then, where finite, to obey its rule; the values."""
    values, broken = [], []
    for name, rule in rules.items():
        try:
            value = _as_float(getattr(obj, name))
        except (TypeError, ValueError):
            bag.append(f"{name} is not a number")
            value = math.nan
        else:
            if not math.isfinite(value):
                bag.append(f"{name} is not finite")
            elif not _RULES[rule](value):
                broken.append(f"{name} must {rule}")
        object.__setattr__(obj, name, value)
        values.append(value)
    bag += broken
    return values


def _holds_bool(given):
    """Whether given is a list or tuple with a bool in it, at any depth."""
    return isinstance(given, (list, tuple)) and any(
        isinstance(entry, (bool, np.bool_)) or _holds_bool(entry) for entry in given)


def _shaped(bag, name, given):
    """np.asarray(given), but nested sequences of unequal lengths put
    "<name> is ragged" into bag, with zeros of the outer length as the
    stand-in that the bag's violation discards. Numbers given with a bool
    among them stay an object array, where numpy would read the bool as 1.0
    or 0.0."""
    try:
        array = np.asarray(given)
    except ValueError:  # numpy's "inhomogeneous shape"
        bag.append(f"{name} is ragged")
        return np.zeros(len(given))
    if array.dtype.kind not in "OSUb" and _holds_bool(given):
        return np.asarray(given, dtype=object)
    return array


def _float_array(bag, name, given):
    """np.asarray(given, dtype=float), but a string, bytes, bool or object
    array is converted entry by entry as _floats converts a scalar: an int
    beyond the float range is +-inf, and where an entry is not a number (a
    numeric string or a bool included) "<name> is not a number" goes into
    bag and the array is zeros, a stand-in that the bag's violation
    discards. A ragged given is handled by _shaped."""
    array = _shaped(bag, name, given)
    if array.dtype.kind not in "OSUb":
        return np.asarray(array, dtype=float)
    try:
        return np.vectorize(_as_float, otypes=[float])(array.astype(object))
    except (TypeError, ValueError):
        bag.append(f"{name} is not a number")
        return np.zeros(array.shape)


def _read_only(value, given):
    """value made read-only, after a copy where it is the caller's own
    writeable array given, so constructing a type never freezes that array.
    Arrays handed over read-only are kept without a copy."""
    if value is given and value.flags.writeable:
        value = value.copy()
    value.setflags(write=False)
    return value


def _entries(bag, name, given):
    """(given as a float array, the entries its rule holds): all, the finite
    ones after "<name> contains non-finite entries", or none after a fault."""
    faults = len(bag)
    value = _float_array(bag, name, given)
    finite = np.isfinite(value)
    if finite.all():
        return value, (value if len(bag) == faults else np.zeros(0))
    bag.append(f"{name} contains non-finite entries")
    return value, value[finite]


def _arrays(obj, bag, **rules):
    """_floats for fields of arrays: each is stored as a read-only float
    array, and its finite entries are held to its rule one by one."""
    values, held = [], []
    for name in rules:
        given = getattr(obj, name)
        value, entries = _entries(bag, name, given)
        held.append(entries)
        value = _read_only(value, given)
        object.__setattr__(obj, name, value)
        values.append(value)
    bag += [f"{name} must {rule}" for (name, rule), entries in zip(rules.items(), held)
            if not _RULES[rule](entries).all()]
    return values


def _numbers(name, values, rule="be finite"):
    """An array a caller passed as argument name, as a float array checked
    as _arrays checks an array field; otherwise DomainError with the first
    fault: "<name> is not a number", "is ragged", "contains non-finite
    entries" or "must <rule>"."""
    bag = []
    values, entries = _entries(bag, name, values)
    if bag:
        raise DomainError(bag[0])
    if not _RULES[rule](entries).all():
        raise DomainError(f"{name} must {rule}")
    return values


def _increasing(values):
    """Whether the finite entries of values (the others _arrays reports) increase strictly."""
    return values.size < 2 or (np.diff(values) > 0).all() or (np.diff(values[np.isfinite(values)]) > 0).all()


def _samples(obj, bag, increasing=True, **rules):
    """_arrays for the abscissa and the ordinate of a sampled curve (rules in
    that order), plus the checks every curve shares: both 1-D and of equal
    length, the abscissa strictly increasing (unless increasing is False)."""
    xs, ys = _arrays(obj, bag, **rules)
    x, y = rules
    if xs.ndim != 1 or ys.ndim != 1:
        bag.append(f"{x} and {y} must be 1-D")
    if xs.shape != ys.shape:
        bag.append(f"{x} and {y} must have equal length")
    if increasing and not _increasing(xs):
        bag.append(f"{x} must be strictly increasing")
    return xs, ys


def _raise_if(bag):
    if bag:
        raise ValidationError(bag)


@dataclass(frozen=True)
class RadiativeBudget:
    """Intrinsic decay channels of the emitter, in Hz.

    gamma_zpl : radiative rate into the zero-phonon line
    gamma_psb : radiative rate into the phonon side bands
    gamma_nr  : non-radiative decay rate
    """

    gamma_zpl: float
    gamma_psb: float
    gamma_nr: float

    def __post_init__(self):
        bag = []
        z, p, _n = _floats(self, bag, gamma_zpl="be non-negative", gamma_psb="be non-negative",
                           gamma_nr="be non-negative")
        if not (z > 0 or p > 0):
            bag.append("at least one radiative rate must be positive")
        _raise_if(bag)

    @classmethod
    def from_dict(cls, doc):
        """The budget of a JSON document: its three rates, and an optional
        ``units`` tag that must read "Hz". Every key that is neither a rate
        nor ``units`` is named; a missing rate raises KeyError."""
        if not isinstance(doc, dict):
            raise TypeError("the document must be an object")
        names = [f.name for f in fields(cls)]
        bag = [f"unknown key {key!r}" for key in doc if key != "units" and key not in names]
        if doc.get("units", "Hz") != "Hz":
            bag.append(f"units mismatch: expected 'Hz', got '{doc['units']}'")
        _raise_if(bag)
        return cls(*(doc[name] for name in names))

    @property
    def gamma_rad(self):
        return self.gamma_zpl + self.gamma_psb

    @property
    def gamma_total(self):
        return self.gamma_rad + self.gamma_nr

    @property
    def eta_qe(self):
        """Intrinsic quantum efficiency gamma_rad / (gamma_rad + gamma_nr)."""
        return self.gamma_rad / self.gamma_total

    @property
    def zpl_fraction(self):
        return self.gamma_zpl / self.gamma_rad


@dataclass(frozen=True, eq=False)
class FieldMap:
    """Mid-plane map of the normalized cavity field amplitude.

    grid[iy, ix] holds the (real or complex) field amplitude at
    x = origin[0] + ix * spacing, y = origin[1] + iy * spacing (nm).
    ``normalization`` is the global maximum amplitude, computed from the
    grid. The map is the paper's epsilon(r) once divided by
    ``normalization``.
    """

    grid: np.ndarray
    spacing: float
    origin: tuple[float, float]
    normalization: float = field(init=False)

    def __post_init__(self):
        bag = []
        grid = _shaped(bag, "grid", self.grid)
        ragged = bool(bag)  # its zeros stand-in has no shape or amplitude to check
        if not ragged and (grid.ndim != 2 or min(grid.shape) < 2):
            bag.append("grid must be 2-D with at least 2 points per axis")
        if np.iscomplexobj(grid):
            grid = grid.astype(complex)
        else:
            grid = grid.astype(float)
        if grid.size and not np.all(np.isfinite(np.abs(grid))):
            bag.append("grid contains non-finite entries")
        _floats(self, bag, spacing="be positive")
        (origin,) = _arrays(self, bag, origin="be finite")
        if origin.shape != (2,):
            bag.append("origin must have two components")
        peak = float(np.max(np.abs(grid))) if grid.size else 0.0
        if peak <= 0 and not ragged:
            bag.append("grid has no nonzero amplitude")
        _raise_if(bag)
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "origin", tuple(origin.tolist()))
        object.__setattr__(self, "normalization", peak)

    def extent(self):
        """((xmin, xmax), (ymin, ymax)) covered by the grid, in nm."""
        ny, nx = self.grid.shape
        x0, y0 = self.origin
        return ((x0, x0 + (nx - 1) * self.spacing), (y0, y0 + (ny - 1) * self.spacing))


@dataclass(frozen=True)
class CavityMode:
    """One optical resonance of the photonic-crystal cavity.

    lambda_c    : center wavelength, nm
    q_factor    : quality factor
    mode_volume : mode volume in units of (lambda/n)^3
    """

    lambda_c: float
    q_factor: float
    mode_volume: float

    def __post_init__(self):
        bag = []
        _floats(self, bag, lambda_c="be positive", q_factor="be positive", mode_volume="be positive")
        _raise_if(bag)

    @property
    def linewidth(self):
        """Cavity linewidth lambda_c / Q, nm."""
        return self.lambda_c / self.q_factor


@dataclass(frozen=True)
class EmitterLine:
    """A single optical transition of the emitter. Its dipole axis is an
    input of purcell.orientation_overlap, not part of the line.

    lambda_i  : transition wavelength, nm
    linewidth : FWHM, nm
    """

    lambda_i: float
    linewidth: float = 0.0

    def __post_init__(self):
        bag = []
        _floats(self, bag, lambda_i="be positive", linewidth="be non-negative")
        _raise_if(bag)


@dataclass(frozen=True)
class ThreeLevelRates:
    """Transition rates of the pumped three-level system, in Hz.

    k12 : ground -> excited pump rate
    k21 : excited -> ground total decay rate
    k23 : excited -> shelving rate
    k31 : shelving -> ground deshelving rate
    """

    k12: float
    k21: float
    k23: float
    k31: float

    def __post_init__(self):
        bag = []
        _floats(self, bag, k12="be non-negative", k21="be positive", k23="be non-negative", k31="be positive")
        _raise_if(bag)


@dataclass(frozen=True)
class G2Params:
    """Two-exponential parametrization of the intensity correlation,

        g2(tau) = 1 - (1 + a) exp(-|tau|/tau1) + a exp(-|tau|/tau2).

    Construction canonicalizes the ordering so that tau2 > tau1 where a > 0.
    At a = 0 the curve is 1 - exp(-|tau|/tau1), which tau2 does not enter,
    and the order is kept as given.
    """

    tau1: float
    tau2: float
    a: float

    def __post_init__(self):
        bag = []
        t1, t2, a = _floats(self, bag, tau1="be positive", tau2="be positive", a="be non-negative")
        if t1 == t2:
            bag.append("tau1 and tau2 must be distinct")
        _raise_if(bag)
        if t1 > t2 and a > 0:
            object.__setattr__(self, "tau1", t2)
            object.__setattr__(self, "tau2", t1)


@dataclass(frozen=True, eq=False)
class G2Curve:
    """Sampled normalized intensity-correlation function.

    delays in seconds (strictly increasing, may be negative), values
    dimensionless and non-negative, optional 1-sigma uncertainties.
    """

    delays: np.ndarray
    values: np.ndarray
    sigmas: np.ndarray | None = None

    def __post_init__(self):
        bag = []
        delays, _values = _samples(self, bag, delays="be finite", values="be non-negative")
        if self.sigmas is not None:
            (sigmas,) = _arrays(self, bag, sigmas="be positive")
            if sigmas.shape != delays.shape:
                bag.append("sigmas must match delays in length")
        _raise_if(bag)

    def __len__(self):
        return self.delays.size


@dataclass(frozen=True, eq=False)
class PLSpectrum:
    """Photoluminescence spectrum: wavelength (nm) vs intensity (counts)."""

    wavelengths: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        bag = []
        _samples(self, bag, wavelengths="be finite", intensities="be non-negative")
        _raise_if(bag)

    def __len__(self):
        return self.wavelengths.size


@dataclass(frozen=True, eq=False)
class PolarizationScan:
    """Detected intensity versus analyzer angle (degrees)."""

    angles: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        bag = []
        _samples(self, bag, increasing=False, angles="be finite", intensities="be non-negative")
        _raise_if(bag)


@dataclass(frozen=True, eq=False)
class SaturationCurve:
    """Detected count rate (counts/s) versus excitation power (mW)."""

    powers: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        bag = []
        _samples(self, bag, powers="be positive", rates="be non-negative")
        _raise_if(bag)

