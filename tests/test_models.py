import ast
import dataclasses
import json
import math
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, strategies as st

from sivcav import cli, dynamics, fitting, models, montecarlo, purcell, spectra
from sivcav.errors import DomainError, ValidationError
from sivcav.models import (
    CavityMode,
    EmitterLine,
    FieldMap,
    G2Curve,
    G2Params,
    PLSpectrum,
    PolarizationScan,
    RadiativeBudget,
    SaturationCurve,
    ThreeLevelRates,
)


class TestRadiativeBudget:
    def test_siv4_budget_valid(self, siv4_budget):
        assert siv4_budget.gamma_rad == pytest.approx(868.36e6, rel=1e-3)
        assert siv4_budget.eta_qe == pytest.approx(0.336, abs=0.001)

    def test_collects_all_violations(self):
        with pytest.raises(ValidationError) as err:
            RadiativeBudget(-1.0, -2.0, -3.0)
        text = "; ".join(err.value.violations)
        assert "gamma_zpl" in text and "gamma_psb" in text and "gamma_nr" in text

    def test_needs_radiative_channel(self):
        with pytest.raises(ValidationError):
            RadiativeBudget(0.0, 0.0, 1e9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            RadiativeBudget(bad, 1e6, 1e6)

    def test_reports_every_violation(self):
        with pytest.raises(ValidationError) as err:
            RadiativeBudget(-1.0, -1.0, -1.0)
        assert err.value.violations == ["gamma_zpl must be non-negative", "gamma_psb must be non-negative",
                                        "gamma_nr must be non-negative",
                                        "at least one radiative rate must be positive"]

    def test_derived_rates_known_values(self):
        budget = RadiativeBudget(1e9, 3e8, 7e8)
        assert (budget.gamma_rad, budget.gamma_total) == (1.3e9, 2e9)
        assert budget.eta_qe == pytest.approx(0.65, rel=1e-15)
        assert budget.zpl_fraction == pytest.approx(1.0 / 1.3, rel=1e-15)

    @given(st.floats(0.0, 1e12), st.floats(0.0, 1e12), st.floats(0.0, 1e12))
    def test_derived_rates_are_fractions_of_the_sum(self, zpl, psb, nr):
        if zpl == psb == 0.0:
            return
        budget = RadiativeBudget(zpl, psb, nr)
        assert budget.gamma_total == budget.gamma_rad + nr
        assert budget.eta_qe == budget.gamma_rad / budget.gamma_total
        assert 0.0 <= budget.eta_qe <= 1.0 and 0.0 <= budget.zpl_fraction <= 1.0


class TestCavityMode:
    def test_linewidth(self):
        mode = CavityMode(739.9, 320.0, 1.3)
        assert mode.linewidth == pytest.approx(739.9 / 320.0)


class TestFieldMap:
    def test_normalization_computed(self):
        grid = np.array([[0.0, 0.5], [0.25, 2.0]])
        fm = FieldMap(grid, 10.0, (0.0, 0.0))
        assert fm.normalization == 2.0

    def test_normalization_is_the_peak_amplitude_of_a_complex_grid(self):
        fm = FieldMap(np.array([[1.0 + 0.2j, 0.1], [0.3j, -1.5]]), 5.0, (-10.0, -10.0))
        assert fm.grid.dtype == complex and fm.normalization == 1.5
        assert purcell.spatial_overlap(fm, (-5.0, -5.0)) == 1.0


class TestG2Params:
    def test_canonical_swap(self):
        p = G2Params(tau1=5e-9, tau2=0.5e-9, a=0.8)
        assert p.tau1 == 0.5e-9 and p.tau2 == 5e-9

    @given(
        st.floats(min_value=1e-12, max_value=1e-3),
        st.floats(min_value=1e-12, max_value=1e-3),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_swap_idempotent(self, t1, t2, a):
        if t1 == t2:
            with pytest.raises(ValidationError):
                G2Params(t1, t2, a)
            return
        p = G2Params(t1, t2, a)
        q = G2Params(p.tau1, p.tau2, p.a)
        assert (q.tau1, q.tau2, q.a) == (p.tau1, p.tau2, p.a)
        if a > 0:
            assert p.tau2 > p.tau1
        else:  # g2 = 1 - exp(-|tau|/tau1): a swap would change the curve
            assert (p.tau1, p.tau2) == (t1, t2)

    def test_order_kept_without_bunching(self):
        p = G2Params(tau1=5e-9, tau2=0.5e-9, a=0.0)
        assert (p.tau1, p.tau2, p.a) == (5e-9, 0.5e-9, 0.0)

    def test_rejects_equal_taus(self):
        with pytest.raises(ValidationError):
            G2Params(1e-9, 1e-9, 0.1)


class TestArrayTypes:
    def test_g2_curve_needs_increasing_delays(self):
        with pytest.raises(ValidationError):
            G2Curve(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.5, 1.0]))

    def test_g2_curve_rejects_negative_values(self):
        with pytest.raises(ValidationError):
            G2Curve(np.array([0.0, 1.0]), np.array([-0.1, 0.5]))

    def test_spectrum_rejects_nan(self):
        with pytest.raises(ValidationError):
            PLSpectrum(np.array([700.0, 701.0]), np.array([1.0, math.nan]))

    def test_saturation_curve_increasing_powers(self):
        with pytest.raises(ValidationError):
            SaturationCurve(np.array([1.0, 0.5]), np.array([10.0, 20.0]))

    def test_callers_arrays_stay_writeable(self):
        wl = np.linspace(1, 2, 5)
        spectrum = PLSpectrum(wl, np.ones(5))
        assert wl.flags.writeable and not spectrum.wavelengths.flags.writeable
        ts, tags, counts = np.array([0.5, 1.5]), np.array([0, 1], dtype=np.uint8), np.array([3])
        stream = montecarlo.PhotonStream(ts, tags, 2.0, 0)
        hist = montecarlo.HbtHistogram(np.array([0.0, 1.0]), counts, 1.0)
        assert ts.flags.writeable and tags.flags.writeable and counts.flags.writeable
        ts[0] = tags[0] = counts[0] = 1
        assert stream.timestamps[0] == 0.5 and stream.channel_tags[0] == 0 and hist.counts[0] == 3

    def test_read_only_arrays_are_taken_without_a_copy(self):
        ts, tags, counts = np.array([0.5, 1.5]), np.array([0, 1], dtype=np.uint8), np.array([3])
        for array in (ts, tags, counts):
            array.setflags(write=False)
        stream = montecarlo.PhotonStream(ts, tags, 2.0, 0)
        assert stream.timestamps is ts and stream.channel_tags is tags
        assert montecarlo.HbtHistogram(np.array([0.0, 1.0]), counts, 1.0).counts is counts


BUDGET = RadiativeBudget(694.4e6, 173.9e6, 1.715e9)


def document(budget):
    """The JSON document of a budget, as a budget file holds it."""
    return json.loads(json.dumps(dict(dataclasses.asdict(budget), units="Hz")))


def test_budget_document_round_trip():
    assert RadiativeBudget.from_dict(document(BUDGET)) == BUDGET


def test_document_with_an_undeclared_key_is_rejected():
    """A key that is neither a rate nor units, such as a field an older
    document still holds, is named, not dropped; so is every such key."""
    with pytest.raises(ValidationError) as err:
        RadiativeBudget.from_dict(dict(document(BUDGET), label="o2", position=[110.0, 0.0, 0.0]))
    assert err.value.violations == ["unknown key 'label'", "unknown key 'position'"]


def test_undeclared_key_and_units_mismatch_reported_together():
    with pytest.raises(ValidationError) as err:
        RadiativeBudget.from_dict(dict(document(BUDGET), pol_angle=45.0, units="MHz"))
    assert err.value.violations == ["unknown key 'pol_angle'", "units mismatch: expected 'Hz', got 'MHz'"]


def test_document_without_a_rate_is_a_key_error():
    doc = document(BUDGET)
    del doc["gamma_psb"]
    with pytest.raises(KeyError, match="gamma_psb"):
        RadiativeBudget.from_dict(doc)


with resources.files("sivcav").joinpath("schemas/model_types.schema.json").open() as _fh:
    MODEL_SCHEMA = json.load(_fh)
BUDGET_SCHEMA = jsonschema.Draft202012Validator(dict(MODEL_SCHEMA, **{"$ref": "#/$defs/RadiativeBudget"}))


def test_model_schema_defines_the_budget_only():
    assert set(MODEL_SCHEMA["$defs"]) == {"RadiativeBudget"}


def test_bundled_model_schema_describes_a_budget_document():
    doc = document(BUDGET)
    BUDGET_SCHEMA.validate(doc)
    assert set(doc) <= set(MODEL_SCHEMA["$defs"]["RadiativeBudget"]["properties"])


def test_model_schema_rejects_an_undeclared_key():
    """The schema holds a document to its declared keys, as from_dict does."""
    assert not BUDGET_SCHEMA.is_valid(dict(document(BUDGET), label="o2"))


def test_document_without_units_carries_hz():
    """The units tag is optional in the schema as in from_dict, which takes
    a document without it as in Hz."""
    doc = {key: value for key, value in document(BUDGET).items() if key != "units"}
    BUDGET_SCHEMA.validate(doc)
    assert RadiativeBudget.from_dict(doc) == BUDGET


@pytest.mark.parametrize("path", sorted(resources.files("sivcav").joinpath("scenarios", "budgets").iterdir(),
                                        key=lambda p: p.name), ids=lambda p: p.name)
def test_bundled_scenario_budgets_match_the_model_schema(path):
    """Each budget file of the bundled scenarios passes the model schema and
    is the document of the budget it loads to: complete, and nothing dropped."""
    doc = json.loads(path.read_text())
    BUDGET_SCHEMA.validate(doc)
    assert document(RadiativeBudget.from_dict(doc)) == doc


@given(
    st.floats(min_value=1e-3, max_value=1e12),
    st.floats(min_value=0.0, max_value=1e12),
    st.floats(min_value=0.0, max_value=1e12),
)
def test_budget_round_trip_floats_exact(zpl, psb, nr):
    budget = RadiativeBudget(zpl, psb, nr)
    clone = RadiativeBudget.from_dict(document(budget))
    # JSON float round trip is exact for doubles
    assert clone.gamma_zpl == budget.gamma_zpl
    assert clone.gamma_psb == budget.gamma_psb
    assert clone.gamma_nr == budget.gamma_nr


def test_units_mismatch_rejected():
    with pytest.raises(ValidationError):
        RadiativeBudget.from_dict(dict(document(RadiativeBudget(1e9, 1e8, 0.0)), units="MHz"))


NAN, INF = math.nan, math.inf
VIOLATION_CASES = {
    "RadiativeBudget": (lambda: RadiativeBudget(-1.0, NAN, "x"), [
        "gamma_psb is not finite", "gamma_nr is not a number", "gamma_zpl must be non-negative",
        "at least one radiative rate must be positive"]),
    "FieldMap": (lambda: FieldMap([[1.0, NAN], [0.0, 2.0]], -1.0, (NAN, 0.0, 1.0)), [
        "grid contains non-finite entries", "spacing must be positive",
        "origin contains non-finite entries", "origin must have two components"]),
    "FieldMap-zero-grid": (lambda: FieldMap(np.zeros((3, 2)), "x", (0.0,)), [
        "spacing is not a number", "origin must have two components",
        "grid has no nonzero amplitude"]),
    "CavityMode": (lambda: CavityMode(-1.0, NAN, 0.0), [
        "q_factor is not finite", "lambda_c must be positive", "mode_volume must be positive"]),
    "EmitterLine": (lambda: EmitterLine(0.0, -1.0), ["lambda_i must be positive", "linewidth must be non-negative"]),
    "EmitterLine-non-numbers": (lambda: EmitterLine("x", NAN), ["lambda_i is not a number", "linewidth is not finite"]),
    "ThreeLevelRates": (lambda: ThreeLevelRates(-1.0, 0.0, NAN, "x"), [
        "k23 is not finite", "k31 is not a number", "k12 must be non-negative", "k21 must be positive"]),
    "G2Params": (lambda: G2Params(0.0, 0.0, -1.0), [
        "tau1 must be positive", "tau2 must be positive", "a must be non-negative",
        "tau1 and tau2 must be distinct"]),
    "G2Curve": (lambda: G2Curve([3.0, 2.0, 1.0], [-1.0, NAN, 1.0], [1.0, 0.0]), [
        "values contains non-finite entries", "values must be non-negative",
        "delays must be strictly increasing", "sigmas must be positive",
        "sigmas must match delays in length"]),
    "G2Curve-shape": (lambda: G2Curve([[1.0, 2.0]], [1.0, 2.0, 3.0], [0.0, 1.0]), [
        "delays and values must be 1-D", "delays and values must have equal length",
        "sigmas must be positive", "sigmas must match delays in length"]),
    "PLSpectrum": (lambda: PLSpectrum([2.0, 1.0, NAN], [1.0, -1.0]), [
        "wavelengths contains non-finite entries", "intensities must be non-negative",
        "wavelengths and intensities must have equal length",
        "wavelengths must be strictly increasing"]),
    "PLSpectrum-scalar": (lambda: PLSpectrum("abc", [1.0]), [
        "wavelengths is not a number", "wavelengths and intensities must be 1-D",
        "wavelengths and intensities must have equal length"]),
    "PolarizationScan": (lambda: PolarizationScan([[30.0, 10.0]], [-1.0, INF]), [
        "intensities contains non-finite entries", "intensities must be non-negative",
        "angles and intensities must be 1-D", "angles and intensities must have equal length"]),
    "SaturationCurve": (lambda: SaturationCurve([0.0, 0.0, -1.0], [-1.0, 2.0, NAN]), [
        "rates contains non-finite entries", "powers must be positive",
        "rates must be non-negative", "powers must be strictly increasing"]),
    "PumpModel": (lambda: dynamics.PumpModel(-INF), ["sigma is not finite"]),
    "PowerSweep": (lambda: dynamics.PowerSweep([2.0, 1.0, -1.0], (G2Params(1e-9, 2e-8, 0.5), "x")), [
        "powers must be positive", "powers must be strictly increasing",
        "params must align with powers", "params entries must be G2Params or None"]),
    "PolarizedChannel": (lambda: spectra.PolarizedChannel("a", -1.0), [
        "angle is not a number", "weight must be non-negative"]),
    "TuningSeries": (lambda: spectra.TuningSeries(
        ((2, PLSpectrum([1.0, 2.0], [1.0, 1.0])), (1, "x")), {}), [
        "steps must hold PLSpectrum instances", "step indices must be strictly increasing"]),
    "PhotonStream": (lambda: montecarlo.PhotonStream([2.0, 1.0, NAN], [0, 3], -1.0, 0), [
        "duration must be positive", "timestamps and channel_tags must align",
        "timestamps contains non-finite entries", "channel_tags must be ZPL/PSB codes"]),
    "PhotonStream-duration": (lambda: montecarlo.PhotonStream([1.0, 2.0], [0, 2], NAN, 0), [
        "duration is not finite", "channel_tags must be ZPL/PSB codes"]),
    "HbtHistogram": (lambda: montecarlo.HbtHistogram([2.0, 1.0, 0.0], [1, -2, 3], NAN, "bad"), [
        "counts must have one entry per bin", "bin_edges must be strictly increasing",
        "counts must be non-negative", "normalization is not finite",
        "mode must be one of ('full', 'start-stop')"]),
}


def test_violation_cases_cover_every_validated_type():
    validated = {cls.__name__ for module in (models, dynamics, montecarlo, purcell, spectra)
                 for cls in vars(module).values()
                 if isinstance(cls, type) and cls.__module__ == module.__name__
                 and "__post_init__" in vars(cls)}
    assert validated == {case.split("-")[0] for case in VIOLATION_CASES}


@pytest.mark.parametrize("case", VIOLATION_CASES)
def test_every_violation_listed_in_order(case):
    """Inputs breaking several invariants at once give the exact violation
    list, in the order the constructor checks them."""
    make, expected = VIOLATION_CASES[case]
    with pytest.raises(ValidationError) as err:
        make()
    assert err.value.violations == expected


_STREAM = dict(timestamps=[0.0, 0.0], channel_tags=[0, 1], duration=1e-5, seed=0)
# (type, keyword arguments of a valid value, field, its declared rule, a
# finite value of the field that breaks the rule)
FIELD_RULES = [
    *((RadiativeBudget, dict(gamma_zpl=1e8, gamma_psb=1e8, gamma_nr=1e8), name, "be non-negative", -1.0)
      for name in ("gamma_zpl", "gamma_psb", "gamma_nr")),
    (FieldMap, dict(grid=[[1.0, 0.5], [0.5, 0.25]], spacing=10.0, origin=(0.0, 0.0)), "spacing",
     "be positive", 0.0),
    *((CavityMode, dict(lambda_c=738.0, q_factor=430.0, mode_volume=1.7), name, "be positive", 0.0)
      for name in ("lambda_c", "q_factor", "mode_volume")),
    (EmitterLine, dict(lambda_i=738.0, linewidth=1.25), "lambda_i", "be positive", 0.0),
    (EmitterLine, dict(lambda_i=738.0, linewidth=1.25), "linewidth", "be non-negative", -1.0),
    *((ThreeLevelRates, dict(k12=1e8, k21=2e9, k23=3e8, k31=5e7), name, rule, bad)
      for name, rule, bad in (("k12", "be non-negative", -1.0), ("k21", "be positive", 0.0),
                              ("k23", "be non-negative", -1.0), ("k31", "be positive", 0.0))),
    *((G2Params, dict(tau1=1e-9, tau2=2e-8, a=0.5), name, rule, bad)
      for name, rule, bad in (("tau1", "be positive", 0.0), ("tau2", "be positive", 0.0),
                              ("a", "be non-negative", -1.0))),
    (G2Curve, dict(delays=[0.0, 1e-9], values=[1.0, 0.5], sigmas=[0.1, 0.1]), "values", "be non-negative",
     [1.0, -0.5]),
    (G2Curve, dict(delays=[0.0, 1e-9], values=[1.0, 0.5], sigmas=[0.1, 0.1]), "sigmas", "be positive",
     [0.1, 0.0]),
    (PLSpectrum, dict(wavelengths=[730.0, 731.0], intensities=[1.0, 2.0]), "intensities", "be non-negative",
     [1.0, -2.0]),
    (PolarizationScan, dict(angles=[90.0, 0.0], intensities=[1.0, 2.0]), "intensities", "be non-negative",
     [1.0, -2.0]),
    (SaturationCurve, dict(powers=[0.5, 1.0], rates=[1e4, 2e4]), "powers", "be positive", [-0.5, 1.0]),
    (SaturationCurve, dict(powers=[0.5, 1.0], rates=[1e4, 2e4]), "rates", "be non-negative", [1e4, -1.0]),
    (dynamics.PumpModel, dict(sigma=3e8), "sigma", "be positive", 0.0),
    (dynamics.PowerSweep, dict(powers=[0.5, 1.0], params=(None, None)), "powers", "be positive", [-0.5, 1.0]),
    (spectra.PolarizedChannel, dict(angle=30.0, weight=1.0), "weight", "be non-negative", -1.0),
    (montecarlo.PhotonStream, _STREAM, "duration", "be positive", 0.0),
    (montecarlo.HbtHistogram, dict(bin_edges=[0.0, 1.0], counts=[1], normalization=1.0), "normalization",
     "be positive", 0.0),
]
FIELD_RULE_IDS = [f"{cls.__name__}.{name}" for cls, _, name, _, _ in FIELD_RULES]


def test_field_rules_cover_every_declared_rule(monkeypatch):
    """FIELD_RULES holds each field that _floats or _arrays holds to a rule
    other than being finite, in the constructors of VIOLATION_CASES and
    FIELD_RULES."""
    declared = set()

    def spy(helper):
        def recorded(obj, bag, **rules):
            declared.update((type(obj), name, rule) for name, rule in rules.items() if rule != "be finite")
            return helper(obj, bag, **rules)
        return recorded

    spies = {name: spy(getattr(models, name)) for name in ("_floats", "_arrays")}
    for module in (models, dynamics, montecarlo, purcell, spectra):
        for name, recorded in spies.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorded)
    for make, _ in VIOLATION_CASES.values():
        with pytest.raises(ValidationError):
            make()
    for cls, valid, _, _, _ in FIELD_RULES:
        cls(**valid)
    assert declared == {(cls, name, rule) for cls, _, name, rule, _ in FIELD_RULES}


@pytest.mark.parametrize("cls, valid, name, rule, bad", FIELD_RULES, ids=FIELD_RULE_IDS)
def test_field_breaking_its_rule_reads_as_an_argument_would(cls, valid, name, rule, bad):
    """A finite value that breaks a field's rule gives the one violation
    "<field> must <rule>", the phrase _number raises for an argument."""
    cls(**valid)
    with pytest.raises(ValidationError) as err:
        cls(**{**valid, name: bad})
    assert err.value.violations == [f"{name} must {rule}"]
    phrases = set()
    for entry in np.ravel(bad):
        try:
            models._number(name, entry, rule)
        except DomainError as err:
            phrases.add(str(err).split(", got ")[0])
    assert phrases == {f"{name} must {rule}"}


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, valid, name, rule, bad", FIELD_RULES, ids=FIELD_RULE_IDS)
def test_non_finite_field_gives_one_violation(cls, valid, name, rule, bad, value):
    """A non-finite field, or an array field with a non-finite entry, gives
    one violation, whatever its rule and the checks across fields."""
    given = value if np.ndim(valid[name]) == 0 else [value, *valid[name][1:]]
    with pytest.raises(ValidationError) as err:
        cls(**{**valid, name: given})
    kind = "is not finite" if np.ndim(given) == 0 else "contains non-finite entries"
    assert err.value.violations == [f"{name} {kind}"]


@pytest.mark.parametrize("make, expected", [
    (lambda: RadiativeBudget(10**400, -10**400, 1.0),
     ["gamma_zpl is not finite", "gamma_psb is not finite"]),
    (lambda: PLSpectrum([1.0, 2.0], [1, -10**400]),
     ["intensities contains non-finite entries"]),
    (lambda: FieldMap([[1.0, 1.0], [1.0, 1.0]], 10.0, [10**400, 0]),
     ["origin contains non-finite entries"]),
    (lambda: montecarlo.PhotonStream([0.0, 10**400], [0, 0], 1.0, 0),
     ["timestamps contains non-finite entries"]),
    (lambda: montecarlo.HbtHistogram([0.0, 10**400], [10**400], 1.0),
     ["bin_edges contains non-finite entries", "counts must lie in the int64 range"]),
], ids=["scalar", "array", "tuple", "stream", "histogram"])
def test_int_beyond_float_range_is_not_finite(make, expected):
    with pytest.raises(ValidationError) as err:
        make()
    assert err.value.violations == expected


def test_numeric_strings_are_not_numbers():
    # float() would parse each of them; a field of a type takes numbers only
    with pytest.raises(ValidationError) as err:
        ThreeLevelRates("1e8", b"2e9", "0", 5e7)
    assert err.value.violations == ["k12 is not a number", "k21 is not a number", "k23 is not a number"]


def test_numeric_strings_in_array_fields_are_not_numbers():
    with pytest.raises(ValidationError) as err:
        PLSpectrum(['730', '731'], ['1', '2'])
    assert err.value.violations[:2] == ["wavelengths is not a number", "intensities is not a number"]
    with pytest.raises(ValidationError) as err:
        PLSpectrum(np.array([730.0, 731.0]), np.array([b"1", b"2"]))
    assert err.value.violations == ["intensities is not a number"]
    with pytest.raises(ValidationError) as err:
        montecarlo.HbtHistogram([0.0, 1.0], ["1"], 1.0)
    assert err.value.violations == ["counts is not a number"]


def test_ragged_array_fields_are_violations():
    # nested lists of unequal length have no array shape; numpy's ValueError
    # must not escape the constructor
    with pytest.raises(ValidationError) as err:
        PLSpectrum([[730.0, 731.0], [732.0]], [1.0, 2.0])
    assert err.value.violations[0] == "wavelengths is ragged"
    with pytest.raises(ValidationError) as err:
        montecarlo.PhotonStream([[1e-6], [2e-6, 3e-6]], [0, 1], 1e-5, 0)
    assert err.value.violations == ["timestamps is ragged"]
    with pytest.raises(ValidationError) as err:
        montecarlo.PhotonStream([1e-6, 2e-6], [[0], [1, 0]], 1e-5, 0)
    assert err.value.violations == ["channel_tags is ragged"]
    with pytest.raises(ValidationError) as err:
        montecarlo.HbtHistogram([0.0, 1.0, 2.0], [[1], [2, 3]], 1.0)
    assert err.value.violations == ["counts is ragged"]
    with pytest.raises(ValidationError) as err:
        FieldMap([[0.2, 1.0, 0.4], [0.1, 0.3]], 10.0, (0.0, 0.0))
    assert err.value.violations == ["grid is ragged"]


@pytest.mark.parametrize("counts, expected", [
    ([1.5], ["counts must be whole numbers"]),
    (np.array([0.25]), ["counts must be whole numbers"]),
    ([math.nan], ["counts must be whole numbers"]),
    ([math.inf], ["counts must lie in the int64 range"]),
    ([2.0**63], ["counts must lie in the int64 range"]),
], ids=["fraction", "fraction-array", "nan", "inf", "2^63"])
def test_histogram_counts_must_be_whole_int64(counts, expected):
    with pytest.raises(ValidationError) as err:
        montecarlo.HbtHistogram([0.0, 1.0], counts, 1.0)
    assert err.value.violations == expected
    whole = montecarlo.HbtHistogram([0.0, 1.0], [2.0**62], 1.0).counts
    assert whole.dtype == np.int64 and whole.tolist() == [2**62]


def valid_call(function):
    """(callable, keyword arguments) of a call of function that succeeds."""
    rates = ThreeLevelRates(100e6, 2e9, 0.3e9, 50e6)
    stream = montecarlo.simulate_stream(rates, RadiativeBudget(1.0, 0.0, 0.0), 1e-5, 1.0, 1)
    tau = np.linspace(-50e-9, 50e-9, 251)
    curve = G2Curve(tau, fitting.g2_model(tau, 0.6, 1.5e-9, 20e-9))
    wl = np.linspace(760.0, 780.0, 400)
    spectrum = PLSpectrum(wl, 50.0 + fitting.lorentzian_peak(wl, 769.0, 2.3, 800.0))
    return {
        "effective_purcell": (purcell.effective_purcell, {"f_p": 19.2, "r_lambda": 1.0, "r_mu": 0.667, "r_r": 0.4}),
        "modified_budget": (purcell.modified_budget, {"budget": RadiativeBudget(1e9, 2e8, 1e9), "f_phc": 0.25,
                                                      "f_cav": 5.15}),
        "pl_enhancement": (purcell.pl_enhancement, {"f_cav": 5.15, "f_phc": 0.25}),
        "invert_budget": (purcell.invert_budget, {"gamma_cav": 5.2e9, "gamma_phc": 1.9e9, "f_cav": 5.15,
                                                  "f_phc": 0.25, "branching": 4.0}),
        "infer_bulk_qe_from_inhibition": (purcell.infer_bulk_qe_from_inhibition,
                                          {"tau_bulk": 1.3e-9, "tau_phc": 2.6e-9, "f_phc": 0.25}),
        "nanosphere_factor": (purcell.nanosphere_factor, {"n": 2.4}),
        "rescale_qe": (purcell.rescale_qe, {"eta": 0.5, "radiative_factor": 0.5}),
        "saturation_curve": (dynamics.saturation_curve, {
            "rates_at_unit_power": rates, "pump": dynamics.PumpModel(0.3e9), "collection_eff": 0.5,
            "powers": [0.5, 1.0], "eta_qe": 0.5}),
        "qe_from_saturation": (dynamics.qe_from_saturation, {"r_inf": 1e5, "p_sat": 1.0, "rates_fit": rates,
                                                             "collection_eff": 0.01}),
        "simulate_stream": (montecarlo.simulate_stream, {"rates": rates, "budget": RadiativeBudget(1.0, 0.0, 0.0),
                                                         "duration": 1e-6, "detection_eff": 0.5, "seed": 1}),
        "apply_jitter": (montecarlo.apply_jitter, {"stream": stream, "sigma_irf": 1e-10, "seed": 1}),
        "correlate": (montecarlo.correlate, {"stream": stream, "bin_width": 1e-9, "window": 1e-8}),
        "fit_g2": (fitting.fit_g2, {"curve": curve, "irf_sigma": 1e-10}),
        "track_modes": (lambda center, fwhm: spectra.track_modes([(0, spectrum)], {"o1": (center, fwhm)}),
                        {"center": 769.0, "fwhm": 2.3}),
        "_mixture": (lambda start, stop: cli._mixture({
            "emitter": {"angle": 60.0, "weight": 1.0}, "line_lambda": 750.0,
            "modes": [{"angle": 0.0, "weight": 50.0, "lambda_c": 760.0, "q_factor": 400.0}],
            "detunings": {"start": start, "stop": stop, "num": 3}}), {"start": -500.0, "stop": -480.0}),
        "power_sweep": (dynamics.power_sweep, {"rates_at_unit_power": rates, "pump": dynamics.PumpModel(0.3e9),
                                               "powers": [0.5, 1.0]}),
        "g2_analytic": (dynamics.g2_analytic, {"rates": rates, "delays": [0.0, 1e-9, 2e-9]}),
        "orientation_overlap": (purcell.orientation_overlap, {"dipole_axis": [1.0, 0.0, 0.0],
                                                              "field_axis": [1.0, 1.0, 0.0]}),
        "spatial_overlap": (purcell.spatial_overlap, {"field": FieldMap([[0.2, 1.0], [0.1, 0.3]], 10.0, (0.0, 0.0)),
                                                      "position": [5.0, 5.0]}),
        "polarization_mixture": (spectra.polarization_mixture, {
            "emitter": spectra.PolarizedChannel(60.0, 1.0), "line_lambda": 750.0, "detunings": [-500.0, -490.0],
            "modes": [(spectra.PolarizedChannel(0.0, 50.0), CavityMode(760.0, 400.0, 1.0))]}),
        "least_squares": (fitting.least_squares, {
            "model": lambda x, a, b: a + b * x, "xdata": np.arange(3.0), "ydata": [1.0, 2.0, 3.5],
            "p0": [0.0, 1.0], "sigma": [1.0, 1.0, 1.0],
            "jacobian": lambda x, a, b: np.column_stack([np.ones_like(x), x])}),
    }[function]


NUMERIC_ARGUMENTS = [
    *(("effective_purcell", arg) for arg in ("f_p", "r_lambda", "r_mu", "r_r")),
    ("modified_budget", "f_phc"), ("modified_budget", "f_cav"),
    ("pl_enhancement", "f_cav"), ("pl_enhancement", "f_phc"),
    *(("invert_budget", arg) for arg in ("gamma_cav", "gamma_phc", "f_cav", "f_phc", "branching")),
    *(("infer_bulk_qe_from_inhibition", arg) for arg in ("tau_bulk", "tau_phc", "f_phc")),
    ("nanosphere_factor", "n"), ("rescale_qe", "eta"), ("rescale_qe", "radiative_factor"),
    ("saturation_curve", "collection_eff"), ("saturation_curve", "eta_qe"),
    *(("qe_from_saturation", arg) for arg in ("r_inf", "p_sat", "collection_eff")),
    ("simulate_stream", "duration"), ("simulate_stream", "detection_eff"), ("apply_jitter", "sigma_irf"),
    ("correlate", "bin_width"), ("correlate", "window"), ("fit_g2", "irf_sigma"),
    ("track_modes", "center"), ("track_modes", "fwhm"), ("_mixture", "start"), ("_mixture", "stop"),
]


@pytest.mark.parametrize("function, argument", NUMERIC_ARGUMENTS,
                         ids=[f"{f}-{a}" for f, a in NUMERIC_ARGUMENTS])
def test_non_finite_argument_raises_domain_error(function, argument):
    """nan, inf and an int beyond the float range, passed as any one numeric
    argument, raise a DomainError that ends with the value read as a float;
    a value that is no number ends it with its repr."""
    call, kwargs = valid_call(function)
    call(**kwargs)
    non_numbers = [("abc", "'abc'"), ("1", "'1'"), (b"1", "b'1'"), ([1.0], "[1.0]"), (True, "True")]
    if (function, argument) not in (("fit_g2", "irf_sigma"), ("modified_budget", "f_cav")):  # None: no kernel, no mode
        non_numbers.append((None, "None"))
    for value, shown in ((math.nan, "nan"), (math.inf, "inf"), (10**400, "inf"), *non_numbers):
        with pytest.raises(DomainError) as err:
            call(**{**kwargs, argument: value})
        assert str(err.value).endswith(f", got {shown}")


# (function, argument, its rule, finite values that break it); an argument
# of an interval rule is broken on both sides where both are finite
ARGUMENT_RULES = [
    ("effective_purcell", "f_p", "be positive", (0.0,)),
    *(("effective_purcell", arg, "lie in [0, 1]", (-0.5, 1.5)) for arg in ("r_lambda", "r_mu", "r_r")),
    ("modified_budget", "f_phc", "lie in (0, 1]", (0.0, 1.5)),
    ("modified_budget", "f_cav", "be non-negative", (-1.0,)),
    ("pl_enhancement", "f_cav", "be non-negative", (-1.0,)),
    ("pl_enhancement", "f_phc", "lie in (0, 1]", (0.0, 1.5)),
    ("infer_bulk_qe_from_inhibition", "tau_bulk", "be positive", (0.0,)),
    ("infer_bulk_qe_from_inhibition", "f_phc", "lie in (0, 1)", (0.0, 1.0)),
    ("rescale_qe", "eta", "lie in [0, 1]", (-0.5, 1.5)),
    ("rescale_qe", "radiative_factor", "lie in (0, 1]", (0.0, 1.5)),
    ("saturation_curve", "collection_eff", "lie in (0, 1]", (0.0, 1.5)),
    ("saturation_curve", "eta_qe", "lie in [0, 1]", (-0.5, 1.5)),
    ("qe_from_saturation", "r_inf", "be non-negative", (-1.0,)),
    ("qe_from_saturation", "p_sat", "be positive", (0.0,)),
    ("qe_from_saturation", "collection_eff", "be positive", (0.0,)),
    ("simulate_stream", "duration", "be positive", (0.0,)),
    ("simulate_stream", "detection_eff", "lie in [0, 1]", (-0.5, 1.5)),
    ("apply_jitter", "sigma_irf", "be non-negative", (-1e-10,)),
    ("correlate", "bin_width", "be positive", (0.0,)),
    ("correlate", "window", "be positive", (0.0,)),
    ("fit_g2", "irf_sigma", "be non-negative", (-1e-10,)),
]
BROKEN_ARGUMENTS = [(f, a, rule, bad) for f, a, rule, bads in ARGUMENT_RULES for bad in bads]


@pytest.mark.parametrize("function, argument, rule, bad", BROKEN_ARGUMENTS,
                         ids=[f"{f}-{a}-{bad}" for f, a, _, bad in BROKEN_ARGUMENTS])
def test_argument_breaking_its_rule_is_named_with_its_value(function, argument, rule, bad):
    """A finite argument outside its range raises DomainError
    "<argument> must <rule>, got <value>"."""
    call, kwargs = valid_call(function)
    with pytest.raises(DomainError) as err:
        call(**{**kwargs, argument: bad})
    assert str(err.value) == f"{argument} must {rule}, got {bad}"


# (function, array argument, its rule, finite entries that break it)
ARRAY_ARGUMENTS = [
    ("power_sweep", "powers", "be positive", (0.0, -1.0)),
    ("saturation_curve", "powers", "be positive", (0.0, -1.0)),
    ("g2_analytic", "delays", "be finite", ()),
    ("orientation_overlap", "dipole_axis", "be finite", ()),
    ("orientation_overlap", "field_axis", "be finite", ()),
    ("spatial_overlap", "position", "be finite", ()),
    ("polarization_mixture", "detunings", "be finite", ()),
    ("least_squares", "ydata", "be finite", ()),
    ("least_squares", "p0", "be finite", ()),
    ("least_squares", "sigma", "be positive", (0.0, -1.0)),
]


@pytest.mark.parametrize("function, argument", [(f, a) for f, a, _, _ in ARRAY_ARGUMENTS],
                         ids=[f"{f}-{a}" for f, a, _, _ in ARRAY_ARGUMENTS])
def test_faulty_array_argument_raises_domain_error(function, argument):
    """A NaN, inf, string or bool entry, or nested entries of unequal
    lengths, in any one array argument raise a DomainError in the wording of
    an array field: the argument and its first fault."""
    call, kwargs = valid_call(function)
    call(**kwargs)
    given = list(kwargs[argument])
    for value, fault in (([math.nan, *given[1:]], "contains non-finite entries"),
                         ([*given[:-1], math.inf], "contains non-finite entries"),
                         (["a", *given[1:]], "is not a number"),
                         ([True] * len(given), "is not a number"),
                         ([True, *given[1:]], "is not a number"),  # numpy alone reads it as 1.0
                         ([given, [*given[:-1], False]], "is not a number"),
                         ([given, given[:1]], "is ragged")):
        with pytest.raises(DomainError) as err:
            call(**{**kwargs, argument: value})
        assert str(err.value) == f"{argument} {fault}"


BROKEN_ARRAYS = [(f, a, rule, bad) for f, a, rule, bads in ARRAY_ARGUMENTS for bad in bads]


@pytest.mark.parametrize("function, argument, rule, bad", BROKEN_ARRAYS,
                         ids=[f"{f}-{a}-{bad}" for f, a, _, bad in BROKEN_ARRAYS])
def test_array_argument_breaking_its_rule_is_named(function, argument, rule, bad):
    """A finite entry outside the argument's range raises DomainError
    "<argument> must <rule>"."""
    call, kwargs = valid_call(function)
    with pytest.raises(DomainError) as err:
        call(**{**kwargs, argument: [bad, *list(kwargs[argument])[1:]]})
    assert str(err.value) == f"{argument} must {rule}"


def test_every_checked_argument_is_in_a_table():
    """Every function of src/sivcav that checks an argument with _number or
    _numbers is listed in NUMERIC_ARGUMENTS or ARRAY_ARGUMENTS, so no newly
    checked argument skips the tests above. A private helper is listed
    through the functions of its module that call it. Parsed with ast."""
    listed = {f for f, _ in NUMERIC_ARGUMENTS} | {f for f, *_ in ARRAY_ARGUMENTS}
    unlisted = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "sivcav").glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for top in tree.body
                     for node in (top, *(top.body if isinstance(top, ast.ClassDef) else ()))
                     if isinstance(node, ast.FunctionDef)]  # module functions and methods
        calls = {node.name: {call.func.id for call in ast.walk(node)
                             if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
                 for node in functions}
        pending = [name for name, called in calls.items() if called & {"_number", "_numbers"}]
        seen = set()
        while pending:
            name = pending.pop()
            if name in listed or name in seen:
                continue
            seen.add(name)
            callers = [caller for caller, called in calls.items() if name in called] if name.startswith("_") else []
            if not callers:
                unlisted.append(f"{path.stem}.{name}")
            pending += callers
    assert unlisted == []
