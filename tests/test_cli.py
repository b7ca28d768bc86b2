import dataclasses
import json
import os
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from sivcav import cli, dynamics, fitting, montecarlo, purcell, report, spectra
from sivcav.errors import ValidationError
from sivcav.models import CavityMode, EmitterLine, PLSpectrum, RadiativeBudget, ThreeLevelRates

SRC = os.path.dirname(os.path.dirname(cli.__file__))


SCHEMA_ORACLE = jsonschema.Draft202012Validator(report.load_report_schema())


def schema_verdicts(doc):
    """(in-house check passes, jsonschema passes) for a report document."""
    try:
        report.validate_report(doc)
    except ValidationError:
        ours = False
    else:
        ours = True
    return ours, SCHEMA_ORACLE.is_valid(doc)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    if out is not None:  # every report a command prints passes both checks
        assert schema_verdicts(out) == (True, True)
    return code, out, captured.err


def strip_timestamp(doc):
    clone = json.loads(json.dumps(doc))
    clone["provenance"].pop("timestamp")
    return clone


def write_field_map(path):
    """A 5x5 Gaussian amplitude map on a 10 nm grid centred at the origin."""
    xs = np.arange(5)
    rows = [",".join(repr(float(np.exp(-((x - 2) ** 2 + (y - 2) ** 2) / 4.0))) for x in xs) for y in xs]
    path.write_text("# spacing_nm=10\n# origin=-20,-20\n" + "\n".join(rows) + "\n")
    return path


def write_spectrum(path):
    """One Lorentzian line, 739.9 nm centre and 2.3 nm fwhm, over 730-750 nm."""
    wl = np.linspace(730.0, 750.0, 500)
    spectra.save_spectrum(PLSpectrum(wl, 40.0 + fitting.lorentzian_peak(wl, 739.9, 2.3, 900.0)), path)
    return path


def write_scan(path):
    """A noise-free cos^2 polarization scan, phi0 = 20 deg."""
    angles = np.linspace(0.0, 175.0, 36)
    with open(path, "w") as fh:
        fh.write("# angle_deg,counts\n")
        for a, v in zip(angles, fitting.cos2_model(angles, 20.0, 200.0, 20.0)):
            fh.write(f"{float(a)!r},{float(v)!r}\n")
    return path


def write_manifest(directory):
    """A tuning manifest of eight spectra: a mode blue-shifting 1.6 nm per
    step from 769 nm and a brightening line at 739.9 nm."""
    wl = np.linspace(725.0, 775.0, 1000)
    entries = []
    for k in range(8):
        y = (50.0 + fitting.lorentzian_peak(wl, 769.0 - 1.6 * k, 2.3, 800.0)
             + fitting.lorentzian_peak(wl, 739.9, 0.35, 40.0 * (1 + k)))
        name = f"step{k:02d}.csv"
        spectra.save_spectrum(PLSpectrum(wl, y), directory / name)
        entries.append({"index": k, "file": name})
    path = directory / "manifest.json"
    path.write_text(json.dumps({"steps": entries}))
    return path, [str(directory / entry["file"]) for entry in entries]


# purcell runs: (argv, dimensionless results, rates_* entries as (kind,
# gamma_total, channel_zpl, channel_psb, channel_nr, eta_qe)); {tmp}/budget.json
# holds the siv4 budget
_SIV1_BULK = ("bulk", 769230769.2307692, 410256410.25641024, 102564102.56410256, 256410256.4102564,
              0.6666666666666666)
_SIV4_BULK = ("bulk", 2583623354.131968, 694444444.4444444, 173913043.47826087, 1715265866.2092626,
              0.3361006497072989)
_SIV4_PHC = ("bandgap_only", 1932355238.189939, 173611111.1111111, 43478260.86956522, 1715265866.2092626,
             0.11234444251773634)
_SIV3_CHAIN = {"f_p": 18.705449287816204, "r_lambda": 1.0, "r_mu": 0.25, "r_r": 0.2500000000000001,
               "f_cav": 1.1690905804885132}
_SIV4_CHAIN = {"f_p": 19.22122454391408, "r_lambda": 1.0, "r_mu": 0.6666666666666669, "r_r": 0.3999871531119777,
               "f_cav": 5.125495256430844, "eta_qe_bulk": 0.3361006497072989}
_MODE_ONLY = ["--q", "430", "--vmode", "1.7", "--lambda-c", "738"]
_MODE_FLAGS = [*_MODE_ONLY, "--lambda-i", "738"]
_BUDGET_FLAGS = ["--f-phc", "0.25", "--budget", "{tmp}/budget.json"]
PURCELL_PINS = {
    "siv1": (["--scenario", "siv1"], {"eta_qe_bulk": 0.6666666666666666, "eta_qe_phc": 0.3333333333333333}, {
        "bulk": _SIV1_BULK,
        "phc": ("bandgap_only", 384615384.6153846, 102564102.56410256, 25641025.64102564, 256410256.4102564,
                0.3333333333333333)}),
    "siv1-f_phc-0.5": (["--scenario", "siv1", "--f-phc", "0.5"], {
        "eta_qe_bulk": 0.6666666666666666, "eta_qe_phc": 0.5}, {
        "bulk": _SIV1_BULK,
        "phc": ("bandgap_only", 512820512.8205128, 205128205.12820512, 51282051.28205128, 256410256.4102564, 0.5)}),
    "siv1-f_phc-1": (["--scenario", "siv1", "--f-phc", "1.0"], {"eta_qe_bulk": 0.6666666666666666},
                     {"bulk": _SIV1_BULK}),
    "siv3": (["--scenario", "siv3"], dict(_SIV3_CHAIN, i_pl=4.676362321954053), {}),
    "siv3-f_phc-0.5": (["--scenario", "siv3", "--f-phc", "0.5"], dict(_SIV3_CHAIN, i_pl=2.3381811609770264), {}),
    "siv3-f_phc-1": (["--scenario", "siv3", "--f-phc", "1.0"], dict(_SIV3_CHAIN, i_pl=1.1690905804885132), {}),
    "siv4": (["--scenario", "siv4"], dict(
        _SIV4_CHAIN, i_pl=20.501981025723374, eta_qe_phc=0.11234444251773634, eta_qe_cav=0.6774673737666433,
        beta_total=0.6692918728495109, beta_radiative=0.9879322588308902), {
        "bulk": _SIV4_BULK, "phc": _SIV4_PHC,
        "cav": ("cavity_coupled", 5318115832.93358, 3559371705.8547525, 43478260.86956522, 1715265866.2092626,
                0.6774673737666433)}),
    "siv4-f_phc-0.5": (["--scenario", "siv4", "--f-phc", "0.5"], dict(
        _SIV4_CHAIN, i_pl=10.250990512861687, eta_qe_phc=0.2019957815646569, eta_qe_cav=0.6800828566653819,
        beta_total=0.6638644484424183, beta_radiative=0.9761523054668858), {
        "bulk": _SIV4_BULK,
        "phc": ("bandgap_only", 2149444610.170615, 347222222.2222222, 86956521.73913044, 1715265866.2092626,
                0.2019957815646569),
        "cav": ("cavity_coupled", 5361594093.803145, 3559371705.8547525, 86956521.73913044, 1715265866.2092626,
                0.6800828566653819)}),
    "siv4-f_phc-1": (["--scenario", "siv4", "--f-phc", "1.0"], dict(
        _SIV4_CHAIN, i_pl=5.125495256430844, eta_qe_cav=0.6851885965202604,
        beta_total=0.6532694576978799, beta_radiative=0.9534155428381582), {
        "bulk": _SIV4_BULK,
        "cav": ("cavity_coupled", 5448550615.542276, 3559371705.8547525, 173913043.47826087, 1715265866.2092626,
                0.6851885965202604)}),
    "flags": ([*_MODE_FLAGS, "--dipole", "1,1,1", "--field-axis", "1,1,0", *_BUDGET_FLAGS], {
        "f_p": 19.22122454391408, "r_lambda": 1.0, "r_mu": 0.6666666666666666, "r_r": 1.0,
        "f_cav": 12.814149695942719, "i_pl": 51.256598783770876, "eta_qe_bulk": 0.3361006497072989,
        "eta_qe_phc": 0.11234444251773634, "eta_qe_cav": 0.8390548971351167,
        "beta_total": 0.8349752886581503, "beta_radiative": 0.9951378527306187}, {
        "bulk": _SIV4_BULK, "phc": _SIV4_PHC,
        "cav": ("cavity_coupled", 10657459193.705717, 8898715066.626888, 43478260.86956522, 1715265866.2092626,
                0.8390548971351167)}),
    "budget": (_BUDGET_FLAGS, {"eta_qe_bulk": 0.3361006497072989, "eta_qe_phc": 0.11234444251773634},
               {"bulk": _SIV4_BULK, "phc": _SIV4_PHC}),
    "orthogonal": ([*_MODE_FLAGS, "--dipole", "1,0,0", "--field-axis", "0,1,0", *_BUDGET_FLAGS], {
        "f_p": 19.22122454391408, "r_lambda": 1.0, "r_mu": 0.0, "r_r": 1.0, "f_cav": 0.0, "i_pl": 0.0,
        "eta_qe_bulk": 0.3361006497072989, "eta_qe_phc": 0.11234444251773634, "eta_qe_cav": 0.024721197472755797,
        "beta_total": 0.0, "beta_radiative": 0.0}, {
        "bulk": _SIV4_BULK, "phc": _SIV4_PHC,
        "cav": ("cavity_coupled", 1758744127.0788279, 0.0, 43478260.86956522, 1715265866.2092626,
                0.024721197472755797)}),
}


SCENARIOS = sorted(p.stem for p in cli._SCENARIOS.glob("*.json"))
SIV4_BUDGET = RadiativeBudget(694444444.4444444, 173913043.47826087, 1715265866.2092626)
SIV4_MAP = resources.files("sivcav") / "scenarios" / "o_mode_field.csv"


def siv4_results(q=430.0, lambda_i=738.0, dipole=(0.5773502691896258,) * 3,
                 field_axis=(0.7071067811865476, 0.7071067811865476, 0.0), fieldmap=SIV4_MAP, pos=(110.0, 0.0),
                 budget=SIV4_BUDGET, f_phc=0.25):
    """{result: value} of purcell --scenario siv4, computed from its values
    or from the ones the keywords give instead."""
    mode = CavityMode(738.0, q, 1.7)
    f_p = purcell.ideal_purcell(mode)
    r_lambda = purcell.spectral_overlap(EmitterLine(lambda_i, 1.25), mode)
    r_mu = purcell.orientation_overlap(dipole, field_axis)
    r_r = purcell.spatial_overlap(purcell.load_field_map(fieldmap), pos)
    f_cav = purcell.effective_purcell(f_p, r_lambda, r_mu, r_r)
    bandgap, cavity = purcell.modified_budget(budget, f_phc), purcell.modified_budget(budget, f_phc, f_cav)
    beta_total, beta_radiative = purcell.mode_emission_fractions(cavity)
    results = {"f_p": f_p, "r_lambda": r_lambda, "r_mu": r_mu, "r_r": r_r, "f_cav": f_cav,
               "i_pl": purcell.pl_enhancement(f_cav, f_phc), "beta_total": beta_total,
               "beta_radiative": beta_radiative}
    for key, kind, rates in (("bulk", "bulk", budget), ("phc", "bandgap_only", bandgap),
                             ("cav", "cavity_coupled", cavity)):
        results[f"eta_qe_{key}"] = rates.eta_qe
        results[f"rates_{key}"] = {"kind": kind, "gamma_total": rates.gamma_total, "channel_zpl": rates.gamma_zpl,
                                   "channel_psb": rates.gamma_psb, "channel_nr": rates.gamma_nr,
                                   "eta_qe": rates.eta_qe, "units": "Hz"}
    return results


SIV4_FILES = {"sivcav/scenarios/budgets/siv4.json", "sivcav/scenarios/o_mode_field.csv"}
OTHER_BUDGET = RadiativeBudget(0.8e9, 0.2e9, 0.1e9)
# flag given with --scenario siv4: (its argv, the siv4_results keywords it
# changes, the inputs.files keys of the run); {tmp} is the test's directory
SCENARIO_OVERRIDES = {
    "q": (["--q", "500"], {"q": 500.0}, SIV4_FILES),
    "lambda-i": (["--lambda-i", "737"], {"lambda_i": 737.0}, SIV4_FILES),
    "dipole": (["--dipole", "1,0,0"], {"dipole": (1.0, 0.0, 0.0)}, SIV4_FILES),
    "field-axis": (["--field-axis", "0,0,1"], {"field_axis": (0.0, 0.0, 1.0)}, SIV4_FILES),
    "pos": (["--pos", "0,0"], {"pos": (0.0, 0.0)}, SIV4_FILES),
    "fieldmap": (["--fieldmap", "{tmp}/field.csv", "--pos", "0,5"],
                 {"fieldmap": "{tmp}/field.csv", "pos": (0.0, 5.0)},
                 {"sivcav/scenarios/budgets/siv4.json", "{tmp}/field.csv"}),
    "budget": (["--budget", "{tmp}/budget.json"], {"budget": OTHER_BUDGET},
               {"{tmp}/budget.json", "sivcav/scenarios/o_mode_field.csv"}),
    "f-phc": (["--f-phc", "0.5"], {"f_phc": 0.5}, SIV4_FILES),
}
# every purcell flag but --scenario and --out, as the parser lists them
PURCELL_FLAGS = sorted(f"--{dest.replace('_', '-')}" for dest in vars(cli.build_parser().parse_args(["purcell"]))
                       if dest not in ("command", "func", "scenario", "out"))
# purcell flag: (the flags it needs, two values of it); {tmp} is the test's
# directory, which holds field.csv, budget.json (siv4) and other.json
PURCELL_FLAG_RUNS = {
    "--q": (["--vmode", "1.7", "--lambda-c", "738"], "430", "500"),
    "--vmode": (["--q", "430", "--lambda-c", "738"], "1.7", "2.0"),
    "--lambda-c": (["--q", "430", "--vmode", "1.7", "--lambda-i", "738"], "738", "739"),
    "--lambda-i": (_MODE_ONLY, "738", "739"),
    "--line-width": (_MODE_FLAGS, "0", "5"),
    "--dipole": ([*_MODE_ONLY, "--field-axis", "1,0,0"], "1,0,0", "1,1,0"),
    "--field-axis": ([*_MODE_ONLY, "--dipole", "1,0,0"], "1,0,0", "1,1,0"),
    "--fieldmap": ([*_MODE_ONLY, "--pos", "0,5"], "{tmp}/field.csv", str(SIV4_MAP)),
    "--pos": ([*_MODE_ONLY, "--fieldmap", "{tmp}/field.csv"], "0,0", "0,5"),
    "--f-phc": (_MODE_ONLY, "0.25", "0.5"),
    "--budget": ([], "{tmp}/budget.json", "{tmp}/other.json"),
}


class TestPurcellCommand:
    def test_siv4_scenario(self, capsys):
        code, doc, _err = run_cli(capsys, "purcell", "--scenario", "siv4")
        assert code == 0
        r = doc["results"]
        assert r["f_p"]["value"] == pytest.approx(19.2, rel=0.005)
        assert r["f_cav"]["value"] == pytest.approx(5.15, rel=0.01)
        assert r["i_pl"]["value"] == pytest.approx(20.6, rel=0.01)
        assert r["rates_phc"]["value"]["gamma_total"] == pytest.approx(1.932e9, rel=0.01)
        assert r["rates_cav"]["value"]["gamma_total"] == pytest.approx(5.238e9, rel=0.03)
        assert r["eta_qe_bulk"]["value"] == pytest.approx(0.34, abs=0.02)
        assert r["eta_qe_phc"]["value"] == pytest.approx(0.11, abs=0.02)
        assert r["eta_qe_cav"]["value"] == pytest.approx(0.67, abs=0.02)
        assert r["beta_radiative"]["value"] == pytest.approx(0.988, abs=0.002)
        report.validate_report(doc)

    def test_siv3_scenario(self, capsys):
        code, doc, _err = run_cli(capsys, "purcell", "--scenario", "siv3")
        assert code == 0
        r = doc["results"]
        assert r["f_p"]["value"] == pytest.approx(18.71, abs=0.01)
        assert r["f_cav"]["value"] == pytest.approx(1.17, rel=0.01)
        assert r["i_pl"]["value"] == pytest.approx(4.7, abs=0.03)

    def test_siv1_scenario(self, capsys):
        code, doc, _err = run_cli(capsys, "purcell", "--scenario", "siv1")
        assert code == 0
        r = doc["results"]
        assert r["rates_bulk"]["value"]["gamma_total"] == pytest.approx(1.0 / 1.3e-9, rel=1e-6)
        assert r["rates_phc"]["value"]["gamma_total"] == pytest.approx(1.0 / 2.6e-9, rel=1e-6)
        assert r["eta_qe_bulk"]["value"] == pytest.approx(2.0 / 3.0, abs=0.01)
        assert r["eta_qe_phc"]["value"] == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_bulk_passthrough_flags(self, capsys, tmp_path, siv4_budget):
        budget_file = tmp_path / "budget.json"
        budget_file.write_text(json.dumps(dataclasses.asdict(siv4_budget)))
        code, doc, _err = run_cli(
            capsys, "purcell", "--budget", str(budget_file), "--f-phc", "1"
        )
        assert code == 0
        assert doc["results"]["rates_bulk"]["value"]["gamma_total"] == pytest.approx(
            siv4_budget.gamma_total, rel=1e-9
        )
        assert "rates_phc" not in doc["results"]

    def test_explicit_flags_match_scenario(self, capsys):
        code, doc, _err = run_cli(
            capsys,
            "purcell",
            "--q", "430", "--vmode", "1.7", "--lambda-c", "738.0",
            "--lambda-i", "738.0", "--dipole", "1,1,1", "--field-axis", "1,1,0",
            "--f-phc", "0.25",
        )
        assert code == 0
        assert doc["results"]["r_mu"]["value"] == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert doc["results"]["f_cav"]["value"] == pytest.approx(19.22 * 2.0 / 3.0, rel=1e-3)

    def test_f_phc_flag_overrides_scenario(self, capsys):
        code, doc, _err = run_cli(capsys, "purcell", "--scenario", "siv4", "--f-phc", "0.5")
        assert code == 0
        r = doc["results"]
        assert r["i_pl"]["value"] == r["f_cav"]["value"] / 0.5
        assert doc["inputs"]["flags"]["f_phc"] == 0.5

    def test_fieldmap_and_pos_give_r_r(self, capsys, tmp_path):
        path = write_field_map(tmp_path / "field.csv")
        code, doc, _err = run_cli(
            capsys, "purcell", "--q", "430", "--vmode", "1.7", "--lambda-c", "738",
            "--fieldmap", str(path), "--pos", "0,5",
        )
        assert code == 0
        r_r = purcell.spatial_overlap(purcell.load_field_map(path), (0.0, 5.0))
        assert 0.0 < r_r < 1.0
        assert doc["results"]["r_r"]["value"] == r_r
        assert doc["results"]["f_cav"]["value"] == pytest.approx(doc["results"]["f_p"]["value"] * r_r)
        assert doc["inputs"]["files"] == {str(path): report.file_sha256(path)}

    def test_fieldmap_without_pos_exit_2(self, capsys, tmp_path):
        path = write_field_map(tmp_path / "field.csv")
        code, out, err = run_cli(capsys, "purcell", "--fieldmap", str(path))
        assert code == 2
        assert out is None
        assert json.loads(err)["error"] == {"type": "domain", "message": "--fieldmap requires --pos x,y"}

    def test_budget_rate_beyond_float_range_exit_2(self, capsys, tmp_path):
        budget_file = tmp_path / "big.json"
        budget_file.write_text('{"gamma_zpl": 1' + "0" * 400 + ', "gamma_psb": 2e8, "gamma_nr": 1e8}')
        code, out, err = run_cli(capsys, "purcell", "--budget", str(budget_file), "--f-phc", "1")
        assert code == 2
        assert out is None
        error = json.loads(err)["error"]
        assert error["type"] == "input-format"
        assert error["message"].startswith(f"{budget_file}:0: ")
        assert "gamma_zpl is not finite" in error["message"]

    def test_unknown_scenario_exit_2(self, capsys):
        code, _out, err = run_cli(capsys, "purcell", "--scenario", "nope")
        assert code == 2
        assert "unknown scenario" in err

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_bundled_scenario_loads(self, capsys, name):
        code, doc, _err = run_cli(capsys, "purcell", "--scenario", name)
        assert code == 0
        assert doc["inputs"]["flags"]["scenario"] == name

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_bundled_scenario_is_purcell_flags(self, name):
        """A scenario's flags parse alone, and each file they name is in the
        scenarios directory."""
        flags = json.loads((cli._SCENARIOS / f"{name}.json").read_text())["flags"]
        args = cli.build_parser().parse_args(["purcell", *flags])
        for path in (args.budget, args.fieldmap):
            assert path is None or (cli._SCENARIOS / path).is_file()

    def test_scenario_with_an_unknown_flag_exit_2(self, capsys, monkeypatch, tmp_path):
        """A flag a scenario holds that purcell does not know names the
        scenario file at line 0, as a fault in a --budget file names that file."""
        doc = json.loads((cli._SCENARIOS / "siv4.json").read_text())
        doc["flags"] += ["--pol-angle", "45"]
        (tmp_path / "siv4.json").write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "_SCENARIOS", tmp_path)
        code, out, err = run_cli(capsys, "purcell", "--scenario", "siv4")
        assert code == 2
        assert out is None
        assert json.loads(err)["error"] == {
            "type": "input-format",
            "message": f"{tmp_path / 'siv4.json'}:0: sivcav: unrecognized arguments: --pol-angle 45"}

    @pytest.mark.parametrize("flags", [["--q", 430], 5], ids=["number-in-list", "not-a-list"])
    def test_scenario_with_malformed_flags_exit_2(self, capsys, monkeypatch, tmp_path, flags):
        """Scenario flags that are not a list of strings name the scenario
        file at line 0."""
        (tmp_path / "bad.json").write_text(json.dumps({"description": "malformed", "flags": flags}))
        monkeypatch.setattr(cli, "_SCENARIOS", tmp_path)
        code, out, err = run_cli(capsys, "purcell", "--scenario", "bad")
        assert code == 2
        assert out is None
        assert json.loads(err)["error"] == {
            "type": "input-format", "message": f"{tmp_path / 'bad.json'}:0: 'flags' must be a list of strings"}

    @pytest.mark.parametrize("run, f_phc", [("siv4", 0.25), ("siv4-f_phc-0.5", 0.5)])
    def test_siv4_results_are_the_pinned_ones(self, run, f_phc):
        """siv4_results, the oracle of the override test, gives siv4's pins."""
        _argv, scalars, rates = PURCELL_PINS[run]
        expected = dict(scalars, **{f"rates_{key}": dict(zip(
            ("kind", "gamma_total", "channel_zpl", "channel_psb", "channel_nr", "eta_qe"), entry), units="Hz")
            for key, entry in rates.items()})
        assert siv4_results(f_phc=f_phc) == expected

    @pytest.mark.parametrize("case", SCENARIO_OVERRIDES)
    def test_a_flag_given_wins_over_the_scenario(self, capsys, tmp_path, case):
        """Each flag siv4 holds, given again, replaces the scenario's value
        and only it; a file the flag replaces is neither read nor hashed."""
        flags, changes, files = SCENARIO_OVERRIDES[case]
        write_field_map(tmp_path / "field.csv")
        (tmp_path / "budget.json").write_text(json.dumps(dataclasses.asdict(OTHER_BUDGET)))
        code, doc, _err = run_cli(capsys, "purcell", "--scenario", "siv4", *(f.format(tmp=tmp_path) for f in flags))
        assert code == 0
        changes = {key: value.format(tmp=tmp_path) if isinstance(value, str) else value
                   for key, value in changes.items()}
        assert {key: entry["value"] for key, entry in doc["results"].items()} == siv4_results(**changes)
        assert set(doc["inputs"]["files"]) == {key.format(tmp=tmp_path) for key in files}

    @pytest.mark.parametrize("argv, message", [
        (["--scenario", "siv1", "--dipole", "1,0,0"], "--dipole requires --field-axis"),
        ([*_MODE_FLAGS, "--dipole", "0,1,0"], "--dipole requires --field-axis"),
        (["--scenario", "siv1", "--line-width", "0.5"], "--line-width requires --lambda-i"),
        (["--scenario", "siv1", "--line-width", "nan"], "--line-width requires --lambda-i"),
        (["--scenario", "siv1", "--field-axis", "1,0,0"], "--field-axis requires --dipole"),
        (["--scenario", "siv1", "--pos", "0,0"], "--pos requires --fieldmap"),
        ([*_MODE_FLAGS, "--pos", "0,0"], "--pos requires --fieldmap"),
        (["--budget", "{tmp}/budget.json", "--lambda-i", "737"], "--lambda-i requires --q, --vmode and --lambda-c"),
        (["--budget", "{tmp}/budget.json", "--dipole", "1,0,0", "--field-axis", "0,1,0"],
         "--dipole requires --q, --vmode and --lambda-c"),
        (["--budget", "{tmp}/budget.json", "--fieldmap", "{tmp}/field.csv", "--pos", "0,0"],
         "--fieldmap requires --q, --vmode and --lambda-c"),
    ], ids=["dipole", "dipole-with-mode", "line-width", "line-width-nan", "field-axis", "pos-siv1", "pos",
            "lambda-i-without-mode", "axes-without-mode", "fieldmap-without-mode"])
    def test_a_flag_without_the_flags_it_needs_exit_2(self, capsys, tmp_path, siv4_budget, argv, message):
        """No purcell flag goes unused: one that needs another exits 2 where
        the other is missing, before any file is read."""
        write_field_map(tmp_path / "field.csv")
        (tmp_path / "budget.json").write_text(json.dumps(dataclasses.asdict(siv4_budget)))
        code, out, err = run_cli(capsys, "purcell", *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2
        assert out is None
        assert json.loads(err)["error"] == {"type": "domain", "message": message}

    @pytest.mark.parametrize("flag", PURCELL_FLAGS)
    def test_every_flag_is_used(self, capsys, tmp_path, siv4_budget, flag):
        """Two values of each purcell flag, given with the flags it needs,
        give different outcomes: results, exit code or warnings (--line-width
        only sets NarrowCavityWarning). A flag new to the parser fails here
        until PURCELL_FLAG_RUNS holds a run of it."""
        needs, *values = PURCELL_FLAG_RUNS[flag]
        write_field_map(tmp_path / "field.csv")
        (tmp_path / "budget.json").write_text(json.dumps(dataclasses.asdict(siv4_budget)))
        (tmp_path / "other.json").write_text(json.dumps(dataclasses.asdict(OTHER_BUDGET)))
        outcomes = []
        for value in values:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, doc, err = run_cli(capsys, "purcell", *(a.format(tmp=tmp_path) for a in [*needs, flag, value]))
            outcomes.append((code, doc["results"] if doc else err, [str(w.message) for w in caught]))
        assert outcomes[0] != outcomes[1]

    @pytest.mark.parametrize("flag, value, message", [
        ("--dipole", "nan,1,0", "dipole_axis contains non-finite entries"),
        ("--field-axis", "nan,1,0", "field_axis contains non-finite entries"),
        ("--pos", "nan,1", "position contains non-finite entries"),
    ], ids=["dipole", "field-axis", "pos"])
    def test_non_finite_vector_flag_is_a_domain_error(self, capsys, flag, value, message):
        """A vector flag with a non-finite entry exits 2 as a domain error
        that names its parameter, as the overlap factor that reads it says."""
        code, out, err = run_cli(capsys, "purcell", "--scenario", "siv4", flag, value)
        assert code == 2
        assert out is None
        assert json.loads(err)["error"] == {"type": "domain", "message": message}

    def test_no_inputs_exit_2(self, capsys):
        code, _out, err = run_cli(capsys, "purcell")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "domain"

    @pytest.mark.parametrize("run", PURCELL_PINS)
    def test_results_pinned_exactly(self, capsys, tmp_path, siv4_budget, run):
        """Every result equals the value the rate algebra gave before it was
        rewritten, to the last bit: a reordered product shows here."""
        argv, scalars, rates = PURCELL_PINS[run]
        (tmp_path / "budget.json").write_text(json.dumps(dataclasses.asdict(siv4_budget)))
        code, doc, _err = run_cli(capsys, "purcell", *(a.format(tmp=tmp_path) for a in argv))
        assert code == 0
        expected = {name: {"value": value, "units": "dimensionless"} for name, value in scalars.items()}
        for key, (kind, total, zpl, psb, nr, eta) in rates.items():
            expected[f"rates_{key}"] = {"value": {
                "gamma_total": total, "channel_zpl": zpl, "channel_psb": psb, "channel_nr": nr,
                "eta_qe": eta, "kind": kind, "units": "Hz"}, "units": "Hz"}
        assert doc["results"] == expected

    def test_f_phc_flag_out_of_range_exit_2(self, capsys, tmp_path, siv4_budget):
        budget_file = tmp_path / "b.json"
        budget_file.write_text(json.dumps(dataclasses.asdict(siv4_budget)))
        code, out, err = run_cli(capsys, "purcell", "--q", "430", "--vmode", "1.7", "--lambda-c", "738",
                                 "--lambda-i", "738", "--f-phc", "1.5", "--budget", str(budget_file))
        assert code == 2
        assert out is None
        assert json.loads(err)["error"] == {"type": "domain", "message": "f_phc must lie in (0, 1], got 1.5"}


class TestSimulateCommand:
    def test_deterministic_streams(self, capsys, tmp_path):
        args = [
            "simulate", "--rates", "100e6,2e9,0.3e9,50e6", "--duration", "0.0005",
            "--seed", "7", "--det-eff", "0.8",
        ]
        f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        code1, doc1, _ = run_cli(capsys, *args, "--out-stream", str(f1))
        code2, doc2, _ = run_cli(capsys, *args, "--out-stream", str(f2))
        assert code1 == code2 == 0
        assert f1.read_bytes() == f2.read_bytes()
        d1, d2 = strip_timestamp(doc1), strip_timestamp(doc2)
        d1["inputs"]["flags"].pop("out_stream")
        d2["inputs"]["flags"].pop("out_stream")
        d1["inputs"]["files"] = sorted(d1["inputs"]["files"].values())
        d2["inputs"]["files"] = sorted(d2["inputs"]["files"].values())
        assert d1 == d2

    def test_budget_and_jitter(self, capsys, tmp_path, siv4_budget):
        budget_file = tmp_path / "budget.json"
        budget_file.write_text(json.dumps(dataclasses.asdict(siv4_budget)))
        out = tmp_path / "s.csv"
        code, doc, _err = run_cli(
            capsys, "simulate", "--rates", "100e6,2e9,0.3e9,50e6", "--duration", "0.0005",
            "--seed", "5", "--budget", str(budget_file), "--jitter", "3e-10", "--out-stream", str(out),
        )
        assert code == 0
        rates = ThreeLevelRates(100e6, 2e9, 0.3e9, 50e6)
        plain = montecarlo.simulate_stream(rates, siv4_budget, 0.0005, 1.0, 5)
        expected = tmp_path / "expected.csv"
        montecarlo.save_stream(montecarlo.apply_jitter(plain, 3e-10, 6), expected, rates=rates,
                               meta={"detection_eff": 1.0, "jitter_s": 3e-10})
        unjittered = tmp_path / "plain.csv"
        montecarlo.save_stream(plain, unjittered, rates=rates, meta={"detection_eff": 1.0, "jitter_s": 3e-10})
        assert out.read_bytes() == expected.read_bytes() != unjittered.read_bytes()
        assert doc["provenance"]["rng_algorithm"] == montecarlo.RNG_COXIAN  # README rates: real roots
        p2 = float(dynamics.steady_state(rates)[1])
        assert doc["results"]["predicted_rate"]["value"] == pytest.approx(
            siv4_budget.eta_qe * rates.k21 * p2, rel=1e-12)
        assert doc["inputs"]["files"] == {
            str(budget_file): report.file_sha256(budget_file), str(out): report.file_sha256(out)}

    def test_detected_rate_within_3_sigma(self, capsys, tmp_path):
        code, doc, _err = run_cli(
            capsys, "simulate", "--rates", "100e6,2e9,0.3e9,50e6",
            "--duration", "0.005", "--seed", "3",
            "--out-stream", str(tmp_path / "s.csv"),
        )
        assert code == 0
        n = doc["results"]["photon_count"]["value"]
        predicted = doc["results"]["predicted_rate"]["value"] * 0.005
        assert abs(n - predicted) < 3.0 * np.sqrt(predicted)
        report.validate_report(doc)

    def test_zero_det_eff_warns_empty(self, capsys, tmp_path):
        with pytest.warns(UserWarning):
            code, doc, _err = run_cli(
                capsys, "simulate", "--rates", "100e6,2e9,0.3e9,50e6",
                "--duration", "0.001", "--det-eff", "0",
                "--out-stream", str(tmp_path / "s.csv"),
            )
        assert code == 0
        assert doc["results"]["photon_count"]["value"] == 0

    def test_invalid_rates_exit_2(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "simulate", "--rates=100e6,2e9,-1,50e6", "--duration", "0.001",
            "--out-stream", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "k23" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("argv, needle", [
        (["--seed", "abc", "--out-stream", "s.csv"], "argument --seed: invalid int value: 'abc'"),
        ([], "the following arguments are required: --out-stream"),
    ])
    def test_usage_error_exit_2_with_error_json(self, capsys, argv, needle):
        code, out, err = run_cli(
            capsys, "simulate", "--rates", "100e6,2e9,0.3e9,50e6", "--duration", "0.001", *argv
        )
        assert code == 2
        assert out is None
        error = json.loads(err)["error"]
        assert error["type"] == "usage"
        assert error["message"] == f"sivcav simulate: {needle}"


def test_cli_import_leaves_scipy_signal_and_linalg_out():
    """`import sivcav.cli` must not pull in the heavy SciPy subpackages."""
    code = (
        "import sys, sivcav.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.linalg') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


# each stage of the chain simulate -> g2 correlate -> g2 fit, and the sivcav
# modules it must leave out: a subcommand imports only the modules it runs
CHAIN_STAGES = {
    "simulate": (["simulate", "--rates", "100e6,2e9,0.3e9,50e6", "--duration", "1e-4",
                  "--out-stream", "{tmp}/s.csv"], ("fitting", "purcell", "spectra")),
    "g2-correlate": (["g2", "correlate", "--stream", "{stream}", "--bin-width", "0.4e-9",
                      "--window", "120e-9", "--out-hist", "{tmp}/h.csv"],
                     ("dynamics", "fitting", "purcell", "spectra")),
    "g2-fit": (["g2", "fit", "--hist", "{tmp}/h.csv"], ("dynamics", "purcell", "spectra")),
}


@pytest.mark.parametrize("stage", list(CHAIN_STAGES))
def test_chain_stage_leaves_unused_modules_out(tmp_path, stream_file, stage):
    argv = {name: [arg.format(tmp=tmp_path, stream=stream_file) for arg in args]
            for name, (args, _absent) in CHAIN_STAGES.items()}
    if stage == "g2-fit":
        assert cli.main([*argv["g2-correlate"], "--out", str(tmp_path / "c.json")]) == 0
    code = (
        "import json, sys, sivcav.cli\n"
        "code = sivcav.cli.main(sys.argv[1:])\n"
        "print(code, json.dumps(sorted(m for m in sys.modules if m.startswith(('sivcav.', 'concurrent.')))))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code, *argv[stage], "--out", str(tmp_path / "r.json")],
                            capture_output=True, text=True, env=env, check=True)
    exit_code, loaded = result.stdout.split(" ", 1)
    assert exit_code == "0"
    loaded = set(json.loads(loaded))
    assert "sivcav.montecarlo" in loaded
    assert not loaded & {f"sivcav.{name}" for name in CHAIN_STAGES[stage][1]}
    assert "concurrent.futures" not in loaded  # the photon path's threads come from threading


def test_power_sweep_path_loads_no_scipy():
    """The CLI import, the power sweep, its zero-power fit and the degenerate
    g2 run on numpy alone."""
    code = (
        "import sys, numpy as np, sivcav.cli\n"
        "from sivcav import dynamics\n"
        "from sivcav.models import ThreeLevelRates\n"
        "sweep = dynamics.power_sweep(ThreeLevelRates(0.0, 2.2e9, 0.3e9, 60e6), "
        "dynamics.PumpModel(1.5e9), [0.1, 0.3, 0.6, 1.0, 1.6, 2.4])\n"
        "dynamics.extrapolate_zero_power(sweep)\n"
        "dynamics.g2_analytic(ThreeLevelRates(1e9, 1e9, 1e9, 1e9), np.linspace(0.0, 1e-8, 50))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


def test_cli_and_simulate_load_no_jsonschema(tmp_path):
    """Reports are checked in-house: jsonschema is a test dependency only."""
    code = (
        "import sys, sivcav.cli\n"
        "assert 'jsonschema' not in sys.modules\n"
        f"code = sivcav.cli.main(['simulate', '--rates', '100e6,2e9,0.3e9,50e6', '--duration', '1e-4',"
        f" '--out-stream', {str(tmp_path / 's.csv')!r}, '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "0 []"
    assert schema_verdicts(json.loads((tmp_path / "r.json").read_text())) == (True, True)


@pytest.fixture
def stream_file(tmp_path):
    rates = ThreeLevelRates(100e6, 2e9, 0.3e9, 50e6)
    from sivcav.models import RadiativeBudget

    budget = RadiativeBudget(0.8e9, 0.2e9, 0.0)
    stream = montecarlo.simulate_stream(rates, budget, 0.004, 1.0, seed=19)
    path = tmp_path / "stream.csv"
    montecarlo.save_stream(stream, path, rates=rates)
    return path


class TestG2Commands:
    def test_correlate_then_fit(self, capsys, tmp_path, stream_file):
        hist_file = tmp_path / "hist.csv"
        code, doc, _err = run_cli(
            capsys, "g2", "correlate", "--stream", str(stream_file),
            "--bin-width", "0.4e-9", "--window", "120e-9",
            "--out-hist", str(hist_file),
        )
        assert code == 0
        assert doc["results"]["mode"]["value"] == "full"
        code, doc, _err = run_cli(capsys, "g2", "fit", "--hist", str(hist_file))
        assert code == 0
        true = dynamics.g2_params_from_rates(ThreeLevelRates(100e6, 2e9, 0.3e9, 50e6))
        assert doc["results"]["tau1"]["value"] == pytest.approx(true.tau1, rel=0.15)
        assert doc["results"]["tau2"]["value"] == pytest.approx(true.tau2, rel=0.15)
        report.validate_report(doc)

    def test_correlate_poisson_flat(self, capsys, tmp_path):
        rng = np.random.Generator(np.random.Philox(5))
        ts = np.sort(rng.uniform(0.0, 0.5, 800000))
        tags = np.zeros(ts.size, dtype=np.uint8)
        stream = montecarlo.PhotonStream(ts, tags, 0.5, 5)
        path = tmp_path / "poisson.csv"
        montecarlo.save_stream(stream, path)
        hist_file = tmp_path / "hist.csv"
        code, doc, _err = run_cli(
            capsys, "g2", "correlate", "--stream", str(path),
            "--bin-width", "1e-7", "--window", "2e-6", "--out-hist", str(hist_file),
        )
        assert code == 0
        curve = montecarlo.load_g2_csv(hist_file)
        pulls = (curve.values - 1.0) / curve.sigmas
        assert np.max(np.abs(pulls)) < 4.5

    def test_sweep_zero_power_extrapolation(self, capsys, tmp_path):
        base = ThreeLevelRates(0.0, 1.0 / 2.6e-9, 0.01 / 2.6e-9, 30e6)
        pump = dynamics.PumpModel(0.3e9)
        sweep = dynamics.power_sweep(base, pump, np.array([0.15, 0.4, 0.8, 1.3, 2.0]))
        path = tmp_path / "sweep.csv"
        dynamics.save_power_sweep(sweep, path)
        code, doc, _err = run_cli(capsys, "g2", "sweep", "--sweep", str(path))
        assert code == 0
        assert doc["results"]["tau1_zero"]["value"] == pytest.approx(2.6e-9, rel=0.05)
        report.validate_report(doc)

    def test_fit_flat_histogram_converges_unresolved(self, capsys, tmp_path):
        # a constant histogram cannot constrain the model: the fit converges
        # with a on its bound and reports tau2 unresolved through its sigma
        path = tmp_path / "flat.csv"
        tau = np.linspace(-2e-8, 2e-8, 41)
        with open(path, "w") as fh:
            for t in tau:
                fh.write(f"{float(t)!r},1.0\n")
        code, doc, _err = run_cli(
            capsys, "g2", "fit", "--hist", str(path), "--init", "0.5,1e-9,8e-9"
        )
        assert code == 0
        results = doc["results"]
        assert results["converged"]["value"] is True
        assert results["fit"]["value"]["converged"] is True
        assert results["a"]["value"] == 0.0
        assert results["tau2"]["sigma"] > 1e3 * results["tau2"]["value"]

    def test_seed_is_for_start_stop_mode_only(self, capsys, tmp_path, stream_file):
        """The splitter's --seed with full mode exits 2 before writing. A
        full-mode report records no seed; a start-stop one records the
        splitter's, 0 unless given."""
        hist = tmp_path / "hist.csv"
        argv = ["g2", "correlate", "--stream", str(stream_file), "--bin-width", "0.4e-9",
                "--window", "40e-9", "--out-hist", str(hist)]
        code, out, err = run_cli(capsys, *argv, "--seed", "5")
        assert (code, out) == (2, None)
        assert json.loads(err)["error"] == {"type": "domain", "message": "--seed requires --mode start-stop"}
        assert not hist.exists()
        code, doc, _err = run_cli(capsys, *argv)
        assert code == 0 and "seed" not in doc["provenance"]
        histograms = []
        for seed in ([], ["--seed", "0"], ["--seed", "5"]):
            code, doc, _err = run_cli(capsys, *argv, "--mode", "start-stop", *seed)
            assert code == 0 and doc["provenance"]["seed"] == (int(seed[1]) if seed else 0)
            histograms.append(hist.read_bytes())
        assert histograms[0] == histograms[1] != histograms[2]

    @pytest.mark.parametrize("field", ["2000.5", "-2000"])
    def test_picosecond_field_not_a_count_exit_2(self, capsys, tmp_path, field):
        path = tmp_path / "bad.csv"
        path.write_text(f"# duration_s=1e-3\n# time_unit=ps\n1000,ZPL\n{field},PSB\n")
        code, _out, err = run_cli(capsys, "g2", "correlate", "--stream", str(path),
                                  "--bin-width", "1e-9", "--window", "1e-8",
                                  "--out-hist", str(tmp_path / "hist.csv"))
        assert code == 2
        assert not (tmp_path / "hist.csv").exists()
        error = json.loads(err)["error"]
        assert error["type"] == "input-format"
        assert error["message"] == f"{path}:4: bad timestamp"

    def test_missing_file_exit_2(self, capsys):
        code, _out, err = run_cli(capsys, "g2", "fit", "--hist", "/nonexistent.csv")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "missing-file"


class TestSpectraCommands:
    @pytest.fixture
    def manifest(self, tmp_path):
        wl = np.linspace(725.0, 775.0, 1000)
        entries = []
        for k in range(8):
            c = 769.0 - 1.6 * k
            y = 50.0 + fitting.lorentzian_peak(wl, c, 2.3, 800.0)
            name = f"step{k:02d}.csv"
            spectra.save_spectrum(PLSpectrum(wl, y), tmp_path / name)
            entries.append({"index": k, "file": name})
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"steps": entries}))
        return path

    def test_track(self, capsys, manifest):
        code, doc, _err = run_cli(
            capsys, "spectra", "track", "--manifest", str(manifest),
            "--seeds", "o1=769.0:2.3",
        )
        assert code == 0
        mode = doc["results"]["modes"]["value"]["o1"]
        assert mode["rate_nm_per_step"] == pytest.approx(-1.6, abs=0.05)
        report.validate_report(doc)

    @pytest.fixture
    def spectrum_file(self, tmp_path):
        return write_spectrum(tmp_path / "spec.csv")

    @pytest.mark.parametrize("peaks", ["739.0", "739.5:2.0:800"])
    def test_fit_spectrum(self, capsys, spectrum_file, peaks):
        code, doc, _err = run_cli(
            capsys, "spectra", "fit", "--spectrum", str(spectrum_file), "--peaks", peaks
        )
        assert code == 0
        peak = doc["results"]["peaks"]["value"][0]
        assert peak["center"] == pytest.approx(739.9, abs=1e-6)
        assert peak["q"] == pytest.approx(739.9 / 2.3, rel=1e-4)

    @pytest.mark.parametrize("entry, fault", [
        ("739:2", "needs 1 or 3 numbers joined by ':', got 2"),
        ("739:2:800:1", "needs 1 or 3 numbers joined by ':', got 4"),
        ("abc", "holds 'abc', which is not a number"),
        ("739:x:800", "holds 'x', which is not a number"),
    ], ids=["739:2", "739:2:800:1", "abc", "739:x:800"])
    def test_bad_peaks_entry_exit_2(self, capsys, spectrum_file, entry, fault):
        code, out, err = run_cli(
            capsys, "spectra", "fit", "--spectrum", str(spectrum_file), "--peaks", f"739.0,{entry}"
        )
        assert code == 2
        assert out is None
        assert json.loads(err)["error"] == {
            "type": "usage", "message": f"sivcav spectra fit: argument --peaks: {entry!r} {fault}"}

    def test_track_emit_curves_rows(self, capsys, tmp_path):
        manifest, _steps = write_manifest(tmp_path)
        curves = tmp_path / "curves.csv"
        code, doc, _err = run_cli(
            capsys, "spectra", "track", "--manifest", str(manifest),
            "--seeds", "o1=769.0:2.3,zpl=739.9:0.35", "--emit-curves", str(curves),
        )
        assert code == 0
        header, *rows = curves.read_text().splitlines()
        assert header == "# label,step,center_nm,fwhm_nm"
        fields = [row.split(",") for row in rows]
        modes = doc["results"]["modes"]["value"]
        assert [f[0] for f in fields] == ["o1"] * modes["o1"]["n_steps"] + ["zpl"] * modes["zpl"]["n_steps"]
        o1 = [(int(step), float(c), float(w)) for label, step, c, w in fields if label == "o1"]
        assert [step for step, _c, _w in o1] == list(range(8))
        for step, center, fwhm in o1:
            assert center == pytest.approx(769.0 - 1.6 * step, abs=0.01)
            assert fwhm == pytest.approx(2.3, rel=0.01)

    @pytest.mark.parametrize("seeds, message", [
        ("o1=769.0", "'o1=769.0' needs 2 numbers joined by ':', got 1"),
        ("o1:769.0:2.3", "'o1:769.0:2.3' is not label=center:fwhm"),
        ("o1=769.0:2.3,zpl=abc:0.35", "'zpl=abc:0.35' holds 'abc', which is not a number"),
        ("o1=770:2.3,o1=750:2.3", "seed label 'o1' appears twice"),
    ], ids=["no-fwhm", "no-label", "non-numeric", "label-twice"])
    def test_malformed_seeds_exit_2(self, capsys, tmp_path, seeds, message):
        manifest, _steps = write_manifest(tmp_path)
        code, out, err = run_cli(
            capsys, "spectra", "track", "--manifest", str(manifest), "--seeds", seeds
        )
        assert code == 2
        assert out is None
        assert json.loads(err)["error"] == {
            "type": "usage", "message": f"sivcav spectra track: argument --seeds: {message}"}

    def test_step_index_twice_exit_2_before_any_fit(self, capsys, tmp_path, monkeypatch):
        """A manifest that lists a step index twice fails on the steps'
        own rule before the first fit, not in the tracks' rate prediction."""
        manifest, steps = write_manifest(tmp_path)
        entries = [{"index": index, "file": os.path.basename(step)} for index, step in zip((0, 0, 1), steps)]
        manifest.write_text(json.dumps({"steps": entries}))
        fits = []
        monkeypatch.setattr(fitting, "fit_lorentzians", lambda *args, **kwargs: fits.append(args))
        code, out, err = run_cli(capsys, "spectra", "track", "--manifest", str(manifest),
                                 "--seeds", "o1=769.0:2.3")
        assert code == 2
        assert out is None
        error = json.loads(err)["error"]
        assert (error["type"], error["violations"]) == ("validation", ["step indices must be strictly increasing"])
        assert fits == []

    def test_nonconverged_fit_exit_3_with_report(self, capsys, tmp_path, monkeypatch):
        fit_cos2 = fitting.fit_cos2
        monkeypatch.setattr(
            fitting, "fit_cos2", lambda scan: dataclasses.replace(fit_cos2(scan), converged=False)
        )
        path = write_scan(tmp_path / "scan.csv")
        code, doc, _err = run_cli(capsys, "spectra", "polarization", "--scan", str(path))
        assert code == 3
        assert doc["results"]["converged"] == {"value": False, "units": "flag"}
        assert doc["results"]["fit"]["value"]["converged"] is False

    def test_polarization_scan_fit(self, capsys, tmp_path, rng):
        angles = np.linspace(0.0, 175.0, 36)
        counts = np.clip(
            fitting.cos2_model(angles, 0.0, 200.0, 20.0) + rng.normal(0, 6.0, 36), 0, None
        )
        path = tmp_path / "scan.csv"
        with open(path, "w") as fh:
            fh.write("# angle_deg,counts\n")
            for a, v in zip(angles, counts):
                fh.write(f"{float(a)!r},{float(v)!r}\n")
        code, doc, _err = run_cli(capsys, "spectra", "polarization", "--scan", str(path))
        assert code == 0
        assert abs(doc["results"]["phi0"]["value"]) < 10.0

    def test_polarization_mixture_sweep(self, capsys, tmp_path):
        config = {
            "emitter": {"angle": 60.0, "weight": 1.0},
            "modes": [
                {"angle": 0.0, "weight": 50.0, "lambda_c": 760.0, "q_factor": 400.0},
                {"angle": -45.0, "weight": 50.0, "lambda_c": 770.0, "q_factor": 400.0},
            ],
            "line_lambda": 750.0,
            "detunings": {"start": -500.0, "stop": -480.0, "num": 21},
        }
        path = tmp_path / "mix.json"
        path.write_text(json.dumps(config))
        curves = tmp_path / "curve.csv"
        code, doc, _err = run_cli(
            capsys, "spectra", "polarization", "--mixture", str(path),
            "--emit-curves", str(curves),
        )
        assert code == 0
        assert doc["results"]["phi_first"]["value"] == pytest.approx(60.0, abs=0.5)
        assert curves.exists()

    @pytest.mark.parametrize("num", [0, 2.5, -1, "21", True])
    def test_mixture_sweep_of_no_whole_number_of_points_exit_2(self, capsys, tmp_path, num):
        path = tmp_path / "mix.json"
        path.write_text(json.dumps({
            "emitter": {"angle": 60.0, "weight": 1.0},
            "modes": [{"angle": 0.0, "weight": 50.0, "lambda_c": 760.0, "q_factor": 400.0}],
            "line_lambda": 750.0, "detunings": {"start": -500.0, "stop": -480.0, "num": num}}))
        code, out, err = run_cli(capsys, "spectra", "polarization", "--mixture", str(path))
        assert code == 2
        assert out is None
        assert json.loads(err)["error"] == {
            "type": "input-format",
            "message": f"{path}:0: detunings num must be a whole number of at least 1, got {num!r}"}

    @pytest.mark.parametrize("end, value, shown", [
        ("start", np.nan, "nan"), ("start", np.inf, "inf"), ("start", "a", "'a'"), ("start", True, "True"),
        ("stop", -np.inf, "-inf"), ("stop", None, "None"),
    ], ids=["start-nan", "start-inf", "start-string", "start-bool", "stop-minus-inf", "stop-null"])
    def test_mixture_sweep_end_not_a_finite_number_exit_2(self, capsys, tmp_path, end, value, shown):
        """A sweep end that is no finite number is a fault of the document,
        named with its file."""
        detunings = {"start": -500.0, "stop": -480.0, "num": 21, end: value}
        path = tmp_path / "mix.json"
        path.write_text(json.dumps({
            "emitter": {"angle": 60.0, "weight": 1.0},
            "modes": [{"angle": 0.0, "weight": 50.0, "lambda_c": 760.0, "q_factor": 400.0}],
            "line_lambda": 750.0, "detunings": detunings}))
        code, out, err = run_cli(capsys, "spectra", "polarization", "--mixture", str(path))
        assert code == 2
        assert out is None
        assert json.loads(err)["error"] == {
            "type": "input-format", "message": f"{path}:0: detunings {end} must be finite, got {shown}"}

    @pytest.mark.parametrize("flags, error", [
        (["--scan", "{tmp}/scan.csv", "--mixture", "{tmp}/mix.json", "--emit-curves", "{tmp}/c.csv"],
         {"type": "usage",
          "message": "sivcav spectra polarization: argument --mixture: not allowed with argument --scan"}),
        (["--scan", "{tmp}/scan.csv", "--emit-curves", "{tmp}/c.csv"],
         {"type": "domain", "message": "--emit-curves requires --mixture"}),
    ], ids=["scan-and-mixture", "curves-of-a-scan"])
    def test_polarization_flags_it_would_not_use_exit_2(self, capsys, tmp_path, flags, error):
        write_scan(tmp_path / "scan.csv")
        code, out, err = run_cli(capsys, "spectra", "polarization", *(f.format(tmp=tmp_path) for f in flags))
        assert code == 2
        assert out is None
        assert json.loads(err)["error"] == error
        assert not (tmp_path / "c.csv").exists()

    def test_enhance(self, capsys, tmp_path):
        import warnings as _warnings
        from sivcav import purcell
        from sivcav.models import CavityMode, EmitterLine

        wl = np.linspace(720.0, 790.0, 1400)
        line = EmitterLine(739.9, 0.35)
        centers = [753.0, 750.0, 747.0, 744.5, 742.5, 741.1, 738.7, 736.5, 734.0, 731.5]
        dets = [abs(c - 739.9) for c in centers]
        kon, koff = int(np.argmin(dets)), int(np.argmax(dets))
        rls = np.array(
            [purcell.spectral_overlap(line, CavityMode(c, c / 2.3, 1.3)) for c in centers]
        )
        w = (rls - rls[koff]) / (rls[kon] - rls[koff])
        amps = 40.0 * (1.0 + 18.0 * w)
        entries = []
        for k, c in enumerate(centers):
            y = (
                50.0
                + fitting.lorentzian_peak(wl, c, 2.3, 800.0)
                + fitting.lorentzian_peak(wl, 739.9, 0.35, amps[k])
            )
            name = f"e{k:02d}.csv"
            spectra.save_spectrum(PLSpectrum(wl, y), tmp_path / name)
            entries.append({"index": k, "file": name})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"steps": entries}))
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            code, doc, _err = run_cli(
                capsys, "spectra", "enhance", "--manifest", str(manifest),
                "--seeds", "o2=753.0:2.3,zpl=739.9:0.35",
                "--lambda-i", "739.9", "--line-width", "0.35",
            )
        assert code == 0
        assert doc["results"]["enhancement_ratio"]["value"] == pytest.approx(19.0, rel=0.05)

    def test_malformed_manifest_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _out, err = run_cli(
            capsys, "spectra", "track", "--manifest", str(path), "--seeds", "a=1:1"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "input-format"

    def test_malformed_polarization_scan_exit_2(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("# angle_deg,counts\n0.0,200.0\n10.0,n/a\n20.0,150.0\n")
        code, _out, err = run_cli(capsys, "spectra", "polarization", "--scan", str(path))
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "input-format"
        assert "scan.csv:3" in error["message"]

    def test_malformed_spectrum_exit_2(self, capsys, tmp_path):
        spec = tmp_path / "bad.csv"
        spec.write_text("720.0,1.0\noops\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"steps": [{"index": 0, "file": "bad.csv"}]}))
        code, _out, err = run_cli(
            capsys, "spectra", "track", "--manifest", str(manifest), "--seeds", "a=720:1"
        )
        assert code == 2
        message = json.loads(err)["error"]["message"]
        assert "bad.csv:2" in message


def every_subcommand(tmp_path, stream_file):
    """{case: (argv, {inputs.files key: path} of every file the run reads or
    writes)}, one case per subcommand and both kinds of polarization run;
    inputs are written to tmp_path. A file is keyed by its path, the bundled
    field map by its name inside the package."""
    budget = tmp_path / "budget.json"
    budget.write_text(json.dumps(dataclasses.asdict(RadiativeBudget(0.8e9, 0.2e9, 0.1e9))))
    bundled_map = ("sivcav/scenarios/o_mode_field.csv",
                   resources.files("sivcav").joinpath("scenarios", "o_mode_field.csv"))
    tau = np.linspace(-50e-9, 50e-9, 251)
    hist = tmp_path / "g2.csv"
    with open(hist, "w") as fh:
        for t, g in zip(tau, fitting.g2_model(tau, 0.6, 1.5e-9, 20e-9)):
            fh.write(f"{float(t)!r},{float(g)!r},0.02\n")
    sweep = tmp_path / "sweep.csv"
    dynamics.save_power_sweep(dynamics.power_sweep(
        ThreeLevelRates(0.0, 1.0 / 2.6e-9, 0.01 / 2.6e-9, 30e6), dynamics.PumpModel(0.3e9),
        np.array([0.15, 0.4, 0.8, 1.3, 2.0])), sweep)
    spectrum = write_spectrum(tmp_path / "spec.csv")
    manifest, steps = write_manifest(tmp_path)
    seeds = "o1=769.0:2.3,zpl=739.9:0.35"
    scan = write_scan(tmp_path / "scan.csv")
    mixture = tmp_path / "mix.json"
    mixture.write_text(json.dumps({
        "emitter": {"angle": 60.0, "weight": 1.0},
        "modes": [{"angle": 0.0, "weight": 50.0, "lambda_c": 760.0, "q_factor": 400.0},
                  {"angle": -45.0, "weight": 50.0, "lambda_c": 770.0, "q_factor": 400.0}],
        "line_lambda": 750.0, "detunings": {"start": -500.0, "stop": -480.0, "num": 21},
    }))
    out_stream, out_hist = tmp_path / "out_stream.csv", tmp_path / "out_hist.csv"
    tracks, sweep_curve = tmp_path / "tracks.csv", tmp_path / "mix_curve.csv"
    cases = {
        "purcell": (["purcell", "--scenario", "siv4", "--budget", budget], [bundled_map, budget]),
        "simulate": (["simulate", "--rates", "100e6,2e9,0.3e9,50e6", "--duration", "2e-4",
                      "--seed", "3", "--budget", budget, "--out-stream", out_stream],
                     [budget, out_stream]),
        "g2-correlate": (["g2", "correlate", "--stream", stream_file, "--bin-width", "0.4e-9",
                          "--window", "40e-9", "--out-hist", out_hist], [stream_file, out_hist]),
        "g2-fit": (["g2", "fit", "--hist", hist], [hist]),
        "g2-sweep": (["g2", "sweep", "--sweep", sweep], [sweep]),
        "spectra-fit": (["spectra", "fit", "--spectrum", spectrum, "--peaks", "739.0"], [spectrum]),
        "spectra-track": (["spectra", "track", "--manifest", manifest, "--seeds", seeds,
                           "--emit-curves", tracks], [manifest, *steps, tracks]),
        "spectra-enhance": (["spectra", "enhance", "--manifest", manifest, "--seeds", seeds,
                             "--lambda-i", "739.9", "--line-width", "0.35", "--modes", "o1"],
                            [manifest, *steps]),
        "spectra-polarization": (["spectra", "polarization", "--scan", scan], [scan]),
        "spectra-polarization-mixture": (["spectra", "polarization", "--mixture", mixture,
                                          "--emit-curves", sweep_curve], [mixture, sweep_curve]),
    }
    return {name: ([str(a) for a in argv],
                   {str(key): str(path) for key, path in (f if isinstance(f, tuple) else (f, f) for f in files)})
            for name, (argv, files) in cases.items()}


SUBCOMMAND_CASES = ["purcell", "simulate", "g2-correlate", "g2-fit", "g2-sweep", "spectra-fit",
                    "spectra-track", "spectra-enhance", "spectra-polarization",
                    "spectra-polarization-mixture"]


@pytest.mark.parametrize("case, flags, message", [
    ("simulate", ["--jitter=-1e-10"], "sigma_irf must be non-negative, got -1e-10"),
    ("simulate", ["--jitter", "nan"], "sigma_irf must be non-negative, got nan"),
    ("g2-fit", ["--irf=-1e-10"], "irf_sigma must be non-negative, got -1e-10"),
    ("g2-fit", ["--irf", "nan"], "irf_sigma must be non-negative, got nan"),
    ("g2-correlate", ["--window", "inf"], "window must be positive, got inf"),
    ("spectra-track", ["--seeds", "o1=nan:2.3"], "seed 'o1' center must be finite, got nan"),
    ("spectra-track", ["--seeds", "o1=769:-2.3"], "seed 'o1' fwhm must be positive, got -2.3"),
    ("spectra-track", ["--seeds", "o1=inf:2.3"], "seed 'o1' center must be finite, got inf"),
    ("spectra-enhance", ["--seeds", "o1=nan:2.3"], "seed 'o1' center must be finite, got nan"),
    ("spectra-enhance", ["--seeds", "o1=769:-2.3"], "seed 'o1' fwhm must be positive, got -2.3"),
    ("purcell", ["--f-phc", "1.5"], "f_phc must lie in (0, 1], got 1.5"),
    ("purcell", ["--f-phc", "0"], "f_phc must lie in (0, 1], got 0.0"),
    ("purcell", ["--f-phc", "nan"], "f_phc must lie in (0, 1], got nan"),
])
def test_bad_numeric_flag_exit_2_before_writing(capsys, tmp_path, stream_file, case, flags, message):
    """An out-of-range or non-finite numeric flag exits 2 with a domain error
    naming the parameter and the value, and no output file is written."""
    argv, _files = every_subcommand(tmp_path, stream_file)[case]
    before = set(tmp_path.rglob("*"))
    code, out, err = run_cli(capsys, *argv, *flags, "--out", str(tmp_path / "report.json"))
    assert code == 2
    assert out is None
    assert json.loads(err)["error"] == {"type": "domain", "message": message}
    assert set(tmp_path.rglob("*")) == before


# (case, flag, a value of a wrong count, a value with a part that is no number);
# a fault of --peaks or --seeds names the entry at fault
NUMBER_LIST_FLAGS = [
    ("simulate", "--rates", "1,2,3", "1,2,x,4"),
    ("g2-fit", "--init", "0.5,1e-9", "0.5,1e-9,x"),
    ("purcell", "--dipole", "1,1", "1,1,x"),
    ("purcell", "--field-axis", "1,1,0,0", "x,1,0"),
    ("purcell", "--pos", "1", "1,"),
    ("spectra-fit", "--peaks", "739:2", "739,x"),
    ("spectra-track", "--seeds", "o1=769", "o1=769:x"),
]


@pytest.mark.parametrize("case, flag, value, fault", [
    pytest.param(case, flag, value, fault, id=f"{flag[2:]}-{kind}") for case, flag, *values in NUMBER_LIST_FLAGS
    for value, fault, kind in zip(values, (" numbers joined by ", ", which is not a number"), ("count", "non-number"))
])
def test_malformed_number_list_flag_is_a_usage_error(capsys, tmp_path, stream_file, case, flag, value, fault):
    """Every number-list flag is parsed by argparse: a wrong count or a part
    that is no number exits 2 with a usage error naming the flag, and no
    output file is written."""
    argv, _files = every_subcommand(tmp_path, stream_file)[case]
    before = set(tmp_path.rglob("*"))
    code, out, err = run_cli(capsys, *argv, flag, value, "--out", str(tmp_path / "report.json"))
    assert code == 2
    assert out is None
    error = json.loads(err)["error"]
    assert error["type"] == "usage"
    assert error["message"].startswith(f"sivcav {case.replace('-', ' ')}: argument {flag}: '")
    assert fault in error["message"]
    assert set(tmp_path.rglob("*")) == before


def test_number_list_flags_echo_parsed(capsys, tmp_path, stream_file):
    """inputs.flags holds a number-list flag as its parsed value."""
    argv, _files = every_subcommand(tmp_path, stream_file)["spectra-enhance"]
    code, doc, _err = run_cli(capsys, *argv)
    assert code == 0
    flags = doc["inputs"]["flags"]
    assert flags["seeds"] == {"o1": [769.0, 2.3], "zpl": [739.9, 0.35]}
    assert flags["modes"] == ["o1"]
    code, doc, _err = run_cli(capsys, "purcell", "--scenario", "siv4", "--dipole", "1,1,0", "--pos", "0,5")
    assert code == 0
    assert (doc["inputs"]["flags"]["dipole"], doc["inputs"]["flags"]["pos"]) == ([1.0, 1.0, 0.0], [0.0, 5.0])


@pytest.mark.parametrize("argv, error_type, message", [
    (["simulate", "--rates", "1,2,3", "--duration", "1e-4", "--out-stream", "{tmp}/s.csv"],
     "usage", "sivcav simulate: argument --rates: '1,2,3' needs 4 numbers joined by ',', got 3"),
    (["simulate", "--rates", "1,2,x,4", "--duration", "1e-4", "--out-stream", "{tmp}/s.csv"],
     "usage", "sivcav simulate: argument --rates: '1,2,x,4' holds 'x', which is not a number"),
    (["simulate", "--rates", "1,2,3,4", "--jitter", "abc", "--duration", "1e-4", "--out-stream", "{tmp}/s.csv"],
     "usage", "sivcav simulate: argument --jitter: invalid float value: 'abc'"),
    (["purcell", "--scenario", "siv4", "--dipole", "1,1"],
     "usage", "sivcav purcell: argument --dipole: '1,1' needs 3 numbers joined by ',', got 2"),
    (["purcell", "--scenario", "siv4", "--pos", "1"],
     "usage", "sivcav purcell: argument --pos: '1' needs 2 numbers joined by ',', got 1"),
    (["purcell", "--scenario", "siv3", "--f-phc", "1.5"], "domain", "f_phc must lie in (0, 1], got 1.5"),
    (["purcell", *_MODE_FLAGS, "--dipole", "0,0,0", "--field-axis", "0,1,0"], "domain", "dipole_axis must be nonzero"),
    (["purcell", "--budget", "{tmp}/bad.json"], "input-format", "{tmp}/bad.json:2: bad JSON: Expecting value"),
    (["purcell", "--q", "430"], "domain", "--q, --vmode and --lambda-c must be given together"),
    (["spectra", "polarization"], "usage",
     "sivcav spectra polarization: one of the arguments --scan --mixture is required"),
    (["purcell", "--scenario", "siv4", "--out", "{tmp}"], "io", "[Errno 21] Is a directory: '{tmp}'"),
    (["spectra", "polarization", "--mixture", "{tmp}/no_modes.json"],
     "input-format", "{tmp}/no_modes.json:0: missing key 'modes'"),
    (["purcell", "--budget", "{tmp}/no_psb.json"],
     "input-format", "{tmp}/no_psb.json:0: missing key 'gamma_psb'"),
    (["simulate", "--rates", "1e8,2e9,1e8,5e7", "--duration", "1e-4", "--budget",
      "{tmp}/list.json", "--out-stream", "{tmp}/s.csv"],
     "input-format", "{tmp}/list.json:0: the document must be an object"),
    (["spectra", "track", "--manifest", "{tmp}/no_file.json", "--seeds", "a=720:1"],
     "input-format", "{tmp}/no_file.json:0: manifest must be an object with a 'steps' list whose "
     "entries have 'index' and 'file'"),
    (["purcell", "--budget", "{tmp}/stale.json"], "input-format", "{tmp}/stale.json:0: unknown key 'label'"),
    (["simulate", "--rates", "1e8,2e9,1e8,5e7", "--duration", "1e-4", "--budget",
      "{tmp}/stale.json", "--out-stream", "{tmp}/s.csv"],
     "input-format", "{tmp}/stale.json:0: unknown key 'label'"),
    (["purcell", "--budget", "{tmp}/bools.json", "--f-phc", "1"],
     "input-format", "{tmp}/bools.json:0: gamma_zpl is not a number; gamma_nr is not a number"),
    (["simulate", "--rates", "1e8,2e9,1e8,5e7", "--duration", "1e-4", "--budget",
      "{tmp}/bools.json", "--out-stream", "{tmp}/s.csv"],
     "input-format", "{tmp}/bools.json:0: gamma_zpl is not a number; gamma_nr is not a number"),
], ids=["rates-count", "rates-non-numeric", "jitter-non-numeric", "unused-dipole-count",
        "unused-pos-count", "siv3-f_phc-above-1", "zero-dipole", "bad-budget-json", "q-without-vmode",
        "polarization-without-input", "out-is-directory", "mixture-without-modes",
        "budget-without-key", "budget-not-an-object", "manifest-step-without-file",
        "purcell-budget-with-stale-key", "simulate-budget-with-stale-key",
        "purcell-budget-with-bool-rates", "simulate-budget-with-bool-rates"])
def test_malformed_input_exit_2(capsys, tmp_path, argv, error_type, message):
    (tmp_path / "bad.json").write_text('{"gamma_zpl": 1,\n "gamma_psb": }')
    (tmp_path / "no_modes.json").write_text(json.dumps(
        {"emitter": {"angle": 60.0, "weight": 1.0}, "line_lambda": 750.0}))
    (tmp_path / "no_psb.json").write_text(json.dumps({"gamma_zpl": 1e8, "gamma_nr": 1e8}))
    (tmp_path / "list.json").write_text("[1e8, 2e8, 1e8]")
    (tmp_path / "no_file.json").write_text(json.dumps({"steps": [{"index": 0}]}))
    (tmp_path / "stale.json").write_text(json.dumps(
        {"gamma_zpl": 1e8, "gamma_psb": 1e8, "gamma_nr": 1e8, "label": "siv4", "units": "Hz"}))
    (tmp_path / "bools.json").write_text(json.dumps({"gamma_zpl": True, "gamma_psb": 1e8, "gamma_nr": False}))
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out is None
    assert json.loads(err)["error"] == {"type": error_type, "message": message.format(tmp=tmp_path)}


class TestReportContract:
    @pytest.mark.parametrize("case", SUBCOMMAND_CASES)
    def test_determinism_and_file_hashes(self, capsys, tmp_path, stream_file, case):
        """Two runs give equal reports up to the timestamp, and inputs.files
        names every file the run read or wrote, with its SHA-256."""
        argv, files = every_subcommand(tmp_path, stream_file)[case]
        code1, d1, _ = run_cli(capsys, *argv)
        code2, d2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert d1["command"] == case.removesuffix("-mixture")
        assert strip_timestamp(d1) == strip_timestamp(d2)
        assert d1["inputs"]["files"] == {key: report.file_sha256(path) for key, path in files.items()}

    def test_file_hashes_present(self, capsys, tmp_path, siv4_budget):
        budget_file = tmp_path / "budget.json"
        budget_file.write_text(json.dumps(dataclasses.asdict(siv4_budget)))
        _code, doc, _err = run_cli(
            capsys, "purcell", "--budget", str(budget_file), "--f-phc", "0.25"
        )
        hashes = doc["inputs"]["files"]
        assert str(budget_file) in hashes
        assert hashes[str(budget_file)] == report.file_sha256(budget_file)

    def test_out_file_written(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, printed, _err = run_cli(
            capsys, "purcell", "--scenario", "siv4", "--out", str(out)
        )
        assert code == 0
        assert printed is None
        doc = json.loads(out.read_text())
        report.validate_report(doc)

    def test_nan_result_exit_2_and_nothing_written(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "_num", lambda value, units, sigma=None: report.result_entry(float("nan"), units)
        )
        out = tmp_path / "report.json"
        code, printed, err = run_cli(capsys, "purcell", "--scenario", "siv4", "--out", str(out))
        assert code == 2
        assert printed is None
        error = json.loads(err)["error"]
        assert error["type"] == "validation"
        assert "strict JSON" in error["message"]
        assert not out.exists()

    def test_schema_violation_rejected_before_writing(self, tmp_path):
        doc = report.build_report("purcell", {"flags": {}, "files": {}}, {"f_p": {"value": 1.0}})
        out = tmp_path / "report.json"
        with pytest.raises(ValidationError, match="schema"):
            report.emit_report(doc, str(out))
        assert not out.exists()

    def test_bundled_report_schema_is_valid(self):
        schema = report.load_report_schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("mutate", [
        *(lambda doc, key=key: doc.pop(key)
          for key in ("schema", "command", "inputs", "results", "provenance")),
        *(lambda doc, key=key: doc["provenance"].pop(key) for key in ("tool", "version", "timestamp")),
        lambda doc: doc["results"]["f_p"].pop("value"),
        lambda doc: doc["results"]["f_p"].pop("units"),
        lambda doc: doc.update(schema="sivcav-report/2"),
        lambda doc: doc["provenance"].update(tool="other"),
        lambda doc: doc.update(command=""),
        lambda doc: doc.update(command=7),
        lambda doc: doc["inputs"]["files"].update(a="A" * 64),
        lambda doc: doc["inputs"]["files"].update(a="a" * 63),
        lambda doc: doc["inputs"]["files"].update(a="a" * 64 + "\n"),
        lambda doc: doc["inputs"]["files"].update(a=None),
        lambda doc: doc["results"]["f_p"].update(sigma=True),
        lambda doc: doc["results"]["f_p"].update(sigma="0.1"),
        lambda doc: doc["results"]["f_p"].update(sigma=None),
        lambda doc: doc["results"]["f_p"].update(value=True),
        lambda doc: doc["results"]["f_p"].update(value=[1, {"a": None}]),
        lambda doc: doc["results"]["f_p"].update(units=None),
        lambda doc: doc["results"].update(x=1.0),
        lambda doc: doc["results"].update(x={"value": 1.0, "units": "", "extra": 1}),
        lambda doc: doc["provenance"].update(seed=1.0),  # integral float: an integer
        lambda doc: doc["provenance"].update(seed=1.5),
        lambda doc: doc["provenance"].update(seed=True),
        lambda doc: doc["provenance"].update(seed="1"),
        lambda doc: doc["provenance"].update(seed=None),
        lambda doc: doc["provenance"].update(timestamp=0),
        lambda doc: doc.update(inputs=[]),
        lambda doc: doc.update(extra={"anything": 1}),
        lambda doc: doc.clear(),
    ])
    def test_report_check_agrees_with_jsonschema(self, mutate):
        doc = report.build_report(
            "simulate", {"flags": {"seed": 3}, "files": {"s.csv": "0123456789abcdef" * 4}},
            {"f_p": report.result_entry(19.2, "", 0.1), "n": report.result_entry(7, "count")}, seed=3)
        assert schema_verdicts(doc) == (True, True)
        mutate(doc)
        ours, oracle = schema_verdicts(doc)
        assert ours == oracle

    def test_report_check_messages(self):
        doc = report.build_report("purcell", {"files": {"a": "A" * 64}}, {})
        with pytest.raises(ValidationError) as err:
            report.validate_report(doc)
        assert str(err.value) == f"report fails its schema: {'A' * 64!r} does not match '^[0-9a-f]{{64}}$'"
        doc = report.build_report("", {}, {})
        with pytest.raises(ValidationError, match="report fails its schema: '' should be non-empty"):
            report.validate_report(doc)

    @pytest.mark.parametrize("where", [(), ("properties", "inputs"), ("properties", "results",
                                                                       "additionalProperties")])
    def test_report_check_raises_on_an_unchecked_keyword(self, monkeypatch, where):
        schema = report.load_report_schema()
        sub = schema
        for key in where:
            sub = sub[key]
        sub["maxLength"] = 3
        monkeypatch.setattr(report, "load_report_schema", lambda: schema)
        doc = report.build_report("purcell", {}, {})
        with pytest.raises(NotImplementedError, match="maxLength"):
            report.validate_report(doc)
