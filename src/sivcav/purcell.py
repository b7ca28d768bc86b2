"""Purcell enhancement and bandgap-inhibition rate algebra.

The effective Purcell factor of a transition coupled to a cavity mode is the
ideal factor F_P = 3 Q / (4 pi^2 V) (mode volume V in (lambda/n)^3 units)
reduced by three overlap factors,

    F_cav = F_P * R_lambda * R_mu * R_r,

with the spectral overlap R_lambda = (1 + 4 Q^2 (lambda_i/lambda_c - 1)^2)^-1,
the orientation overlap R_mu = (eps_hat . mu_hat)^2 and the spatial overlap
R_r = |eps(r)|^2 of the normalized field at the emitter position.

Rate budgets: inside the bandgap all radiative channels are inhibited by
F_PhC < 1; with a mode tuned to the ZPL only that channel is enhanced,

    gamma_cav = F_cav * gamma_zpl + F_PhC * gamma_psb + gamma_nr
    gamma_phc = F_PhC * (gamma_zpl + gamma_psb) + gamma_nr.

This module implements the forward algebra, its exact inversion from measured
rates, quantum-efficiency bookkeeping, and the nanosphere rate reduction.
"""

from __future__ import annotations

import math
import warnings
from functools import partial

import numpy as np

from ._table import parse_floats, read_table, write_table
from .errors import (
    DomainError,
    InfeasibleMeasurementError,
    InputFormatError,
    NarrowCavityWarning,
    ValidationError,
)
from .models import (
    CavityMode,
    EmitterLine,
    FieldMap,
    RadiativeBudget,
    _number,
    _numbers,
)

UNIT_NORM_TOL = 1e-9


def ideal_purcell(mode: CavityMode) -> float:
    """Ideal Purcell factor 3 Q / (4 pi^2 V) of a cavity mode.

    The mode volume is stored in (lambda/n)^3 units, so the (lambda_c/n)^3
    factor of the textbook formula cancels.
    """
    return 3.0 * mode.q_factor / (4.0 * math.pi**2 * mode.mode_volume)


def spectral_overlap(line: EmitterLine, mode: CavityMode) -> float:
    """Lorentzian spectral overlap R_lambda of an emitter line and a mode.

    Warns (NarrowCavityWarning) when the cavity linewidth is smaller than
    the emitter linewidth, where the point-emitter approximation degrades.
    """
    if mode.linewidth < line.linewidth:
        warnings.warn(
            f"cavity linewidth {mode.linewidth:.3g} nm is below the emitter "
            f"linewidth {line.linewidth:.3g} nm; R_lambda is approximate",
            NarrowCavityWarning,
            stacklevel=2,
        )
    detuning = line.lambda_i / mode.lambda_c - 1.0
    return 1.0 / (1.0 + 4.0 * mode.q_factor**2 * detuning**2)


def _unit_axis(name, given):
    """given as a unit 3-vector: divided by its norm, unless that is within
    UNIT_NORM_TOL of 1, where it is kept as given. DomainError naming the
    axis where given is no 3-vector of finite numbers, or is zero."""
    axis = _numbers(name, given)
    if axis.shape != (3,):
        raise DomainError(f"{name} must be a 3-vector")
    norm = math.hypot(*axis)  # unlike sqrt(axis . axis), neither overflows nor underflows
    if norm == 0:
        raise DomainError(f"{name} must be nonzero")
    return axis if abs(norm - 1.0) <= UNIT_NORM_TOL else axis / norm


def orientation_overlap(dipole_axis, field_axis) -> float:
    """Orientation overlap R_mu = (dipole . field)^2 of two axes, each taken
    as a unit vector first (any finite, nonzero 3-vector will do)."""
    r_mu = float(np.dot(_unit_axis("dipole_axis", dipole_axis), _unit_axis("field_axis", field_axis))) ** 2
    return min(r_mu, 1.0)


def spatial_overlap(field: FieldMap, position) -> float:
    """Spatial overlap R_r = |eps(r)|^2 at a lattice position (x, y) in nm.

    The normalized amplitude is interpolated bilinearly; positions outside
    the grid raise a DomainError naming the violated bound.
    """
    pos = _numbers("position", position)
    if pos.shape != (2,):
        raise DomainError("position must be a 2-vector (x, y) in lattice coordinates")
    (xmin, xmax), (ymin, ymax) = field.extent()
    x, y = float(pos[0]), float(pos[1])
    if not (xmin <= x <= xmax):
        raise DomainError(f"position x = {x} outside field grid x-range [{xmin}, {xmax}]")
    if not (ymin <= y <= ymax):
        raise DomainError(f"position y = {y} outside field grid y-range [{ymin}, {ymax}]")
    fx = (x - field.origin[0]) / field.spacing
    fy = (y - field.origin[1]) / field.spacing
    ny, nx = field.grid.shape
    ix = min(int(math.floor(fx)), nx - 2)
    iy = min(int(math.floor(fy)), ny - 2)
    tx = fx - ix
    ty = fy - iy
    g = field.grid
    value = (
        g[iy, ix] * (1 - tx) * (1 - ty)
        + g[iy, ix + 1] * tx * (1 - ty)
        + g[iy + 1, ix] * (1 - tx) * ty
        + g[iy + 1, ix + 1] * tx * ty
    )
    eps = abs(value) / field.normalization
    return min(float(eps) ** 2, 1.0)


def effective_purcell(f_p: float, r_lambda: float = 1.0, r_mu: float = 1.0, r_r: float = 1.0) -> float:
    """Effective Purcell factor F_cav = F_P * R_lambda * R_mu * R_r."""
    r_lambda, r_mu, r_r = (_number(name, r, "lie in [0, 1]")
                           for name, r in (("r_lambda", r_lambda), ("r_mu", r_mu), ("r_r", r_r)))
    return _number("f_p", f_p, "be positive") * (r_lambda * r_mu * r_r)


def modified_budget(
    budget: RadiativeBudget, f_phc: float = 1.0, f_cav: float | None = None
) -> RadiativeBudget:
    """The budget in a photonic crystal: both radiative channels inhibited
    by f_phc (1, the default, is bulk), the ZPL channel instead scaled by
    f_cav where a mode is tuned to it; the non-radiative channel is kept.
    To model a mode coupled to a side-band transition instead, swap the
    roles of gamma_zpl and gamma_psb in the input budget.
    """
    f_phc = _number("f_phc", f_phc, "lie in (0, 1]")
    f_zpl = f_phc if f_cav is None else _number("f_cav", f_cav, "be non-negative")
    return RadiativeBudget(f_zpl * budget.gamma_zpl, f_phc * budget.gamma_psb, budget.gamma_nr)


def pl_enhancement(f_cav: float, f_phc: float) -> float:
    """On/off-resonance PL intensity ratio f_cav / f_phc, f_phc in (0, 1], of the coupled line."""
    f_phc = _number("f_phc", f_phc, "lie in (0, 1]")
    return _number("f_cav", f_cav, "be non-negative") / f_phc


def mode_emission_fractions(budget: RadiativeBudget) -> tuple[float, float]:
    """Fractions of total and of radiative decay emitted into the cavity
    mode, the ZPL channel of a budget placed by modified_budget with f_cav:
    (gamma_zpl / gamma_total, gamma_zpl / gamma_rad)."""
    return budget.gamma_zpl / budget.gamma_total, budget.zpl_fraction


def invert_budget(
    gamma_cav: float,
    gamma_phc: float,
    f_cav: float,
    f_phc: float,
    branching: float,
) -> RadiativeBudget:
    """Recover the intrinsic budget from measured on/off-resonance rates.

    Solves the exact 3x3 linear system

        gamma_cav = f_cav * gamma_zpl + f_phc * gamma_psb + gamma_nr
        gamma_phc = f_phc * (gamma_zpl + gamma_psb) + gamma_nr
        gamma_zpl = branching * gamma_psb

    ``branching`` is the ZPL:PSB ratio (4.0 means 4:1). Systems singular to
    working precision (f_cav near f_phc, or branching near 0: a condition
    number of 1 / (3 eps) or more) and negative solution components raise
    InfeasibleMeasurementError.
    """
    gamma_cav = _number("gamma_cav", gamma_cav)
    gamma_phc = _number("gamma_phc", gamma_phc)
    f_cav = _number("f_cav", f_cav)
    f_phc = _number("f_phc", f_phc)
    branching = _number("branching", branching)
    a = np.array(
        [
            [f_cav, f_phc, 1.0],
            [f_phc, f_phc, 1.0],
            [1.0, -branching, 0.0],
        ],
        dtype=float,
    )
    b = np.array([gamma_cav, gamma_phc, 0.0], dtype=float)
    eps = np.finfo(float).eps
    cond = np.linalg.cond(a)
    # det(A) = branching * (f_cav - f_phc) scales with the inputs; A is
    # singular to working precision by numpy.linalg.matrix_rank's rule: its
    # smallest singular value is at most 3 eps (3 its size) times its largest
    if not cond < 1.0 / (3.0 * eps):
        raise InfeasibleMeasurementError(
            "measurement system is singular (f_cav = f_phc or branching = 0 "
            "leaves the budget underdetermined)"
        )
    zpl, psb, nr = np.linalg.solve(a, b)
    # round-off in the solve reaches about eps * cond(A) * |b| (Higham,
    # Accuracy and Stability of Numerical Algorithms, ch. 7); only negatives
    # beyond it are inconsistent measurements
    clip = eps * cond * np.linalg.norm(b)
    solution = {"gamma_zpl": zpl, "gamma_psb": psb, "gamma_nr": nr}
    negative = [name for name, v in solution.items() if v < -clip]
    if negative:
        detail = ", ".join(f"{name} = {solution[name]:.6g} Hz" for name in negative)
        raise InfeasibleMeasurementError(
            f"measured rates imply negative channel rates: {detail}"
        )
    return RadiativeBudget(max(zpl, 0.0), max(psb, 0.0), max(nr, 0.0))


def infer_bulk_qe_from_inhibition(tau_bulk: float, tau_phc: float, f_phc: float):
    """Quantum efficiencies implied by a bandgap lifetime change.

    With only the radiative fraction eta inhibited by f_phc, the lifetimes
    obey (f_phc * eta + 1 - eta) / tau_bulk = 1 / tau_phc. Returns
    (eta_bulk, eta_phc); raises InfeasibleMeasurementError when the implied
    efficiency falls outside [0, 1].
    """
    tau_bulk = _number("tau_bulk", tau_bulk, "be positive")
    tau_phc = _number("tau_phc", tau_phc)
    if not tau_phc >= tau_bulk:
        raise DomainError("expected tau_phc >= tau_bulk (inhibition lengthens the lifetime)")
    f_phc = _number("f_phc", f_phc, "lie in (0, 1)")
    eta = (1.0 - tau_bulk / tau_phc) / (1.0 - f_phc)
    if eta > 1.0 + 1e-9:
        raise InfeasibleMeasurementError(
            f"lifetime ratio {tau_phc / tau_bulk:.4g} exceeds the maximum 1/f_phc "
            f"= {1.0 / f_phc:.4g} reachable at unit quantum efficiency"
        )
    eta = min(max(eta, 0.0), 1.0)
    return eta, rescale_qe(eta, f_phc)


def nanosphere_factor(n: float) -> float:
    """Radiative-rate reduction (1/n) * (3 / (2 + n^2))^2 for an emitter in a
    sub-wavelength dielectric sphere of refractive index n."""
    n = _number("refractive index", n, "be >= 1")
    return (1.0 / n) * (3.0 / (2.0 + n**2)) ** 2


def rescale_qe(eta: float, radiative_factor: float) -> float:
    """Quantum efficiency after rescaling the radiative rate by a factor.

    The non-radiative rate is unchanged:
    eta' = f * eta / (f * eta + 1 - eta).
    """
    eta = _number("eta", eta, "lie in [0, 1]")
    num = _number("radiative_factor", radiative_factor, "lie in (0, 1]") * eta
    return num / (num + 1.0 - eta) if (num + 1.0 - eta) > 0 else 0.0


# --- field-map file format -------------------------------------------------
#
# CSV with two header comment rows followed by amplitude rows (one per y):
#   # spacing_nm=<float>
#   # origin=<x>,<y>
#   v, v, v, ...
# The normalization is always recomputed on load.


def save_field_map(field: FieldMap, path):
    if np.iscomplexobj(field.grid):
        raise DomainError("the CSV field-map format stores real amplitudes only")
    with open(path, "w") as fh:
        fh.write(f"# spacing_nm={field.spacing!r}\n")
        fh.write(f"# origin={field.origin[0]!r},{field.origin[1]!r}\n")
        write_table(fh, *field.grid.T)


def load_field_map(path) -> FieldMap:
    table = read_table(
        path, None, "inconsistent row length", "bad amplitude value",
        headers={key: partial(parse_floats, counts=(count,), key=key)
                 for key, count in (("spacing_nm", 1), ("origin", 2))},
    )
    for key in ("spacing_nm", "origin"):
        if key not in table.meta:
            raise InputFormatError(path, 0, f"missing '# {key}=' header")
    if not table.lines.size:
        raise InputFormatError(path, 0, "no amplitude rows")
    try:
        return FieldMap(table.columns.T.copy(), *table.meta["spacing_nm"], table.meta["origin"])
    except ValidationError as err:
        raise InputFormatError(path, 0, str(err)) from None
