"""Command-line surface: exit codes, file formats, manifests, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from sympcool import (MASS_RB87, constants_table, phase_diagram,
                      total_energy)
from sympcool.cli import main
from sympcool.constants import K_B
from sympcool.errors import SympcoolError

pytestmark = pytest.mark.filterwarnings(
    "ignore::sympcool.errors.CellUnderflowWarning")


def write_config(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return str(path)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def digest_of(obj):
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


TRAP_56G = {"B0_gauss": 56, "G_kG_per_cm": 1.0, "C_gauss_per_cm2": 56}


# ------------------------------------------------------------------ trap

def test_trap_command_outputs(tmp_path):
    cfg = write_config(tmp_path / "trap.json", TRAP_56G)
    assert main(["trap", "--config", cfg, "--out", str(tmp_path)]) == 0
    freqs = read_json(tmp_path / "trap_frequencies.json")
    assert freqs["buffer"]["omega_z_rad_per_s"] == pytest.approx(
        756.2847626124884, rel=1e-12)
    assert freqs["buffer"]["omega_x_rad_per_s"] == pytest.approx(
        42.41851115930682, rel=1e-12)
    for axis in ("omega_x_rad_per_s", "omega_y_rad_per_s",
                 "omega_z_rad_per_s"):
        assert freqs["target"][axis] / freqs["buffer"][axis] == \
            pytest.approx(math.sqrt(2), rel=1e-12)
    assert freqs["delta_um"] == pytest.approx(8.572746448087147, rel=1e-12)
    assert read_json(tmp_path / "constants.json") == constants_table()

    manifest = read_json(tmp_path / "trap_manifest.json")
    assert manifest["command"].startswith("sympcool trap")
    assert manifest["config_digest"] == digest_of(TRAP_56G)
    assert manifest["seed"] == 0
    assert manifest["wall_time"] >= 0
    for name in manifest["outputs"]:
        assert (tmp_path / name).exists()


# ---------------------------------------------------------------- budget

def test_budget_command_values(tmp_path):
    w1 = 289.49564890835956
    cfg_obj = {"eta": 6.5, "N1_ini": 1e8, "N2": 1e4, "T_ini_uK": 300,
               "omega1_bar_rad_per_s": w1,
               "omega2_bar_rad_per_s": w1 * math.sqrt(2)}
    cfg = write_config(tmp_path / "budget.json", cfg_obj)
    assert main(["budget", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = read_json(tmp_path / "budget_outcome.json")
    assert out["alpha"] == pytest.approx(1.5, rel=1e-12)
    assert out["t_min_nK"] == pytest.approx(0.3, rel=1e-9)
    assert out["n2_a"] / out["n2_c"] == pytest.approx(
        0.17799277036528824, rel=1e-10)
    assert out["n2_b"] / out["n2_c"] == pytest.approx(
        0.3760196393123218, rel=1e-10)
    assert isinstance(out["region"], str) and out["region"]
    manifest = read_json(tmp_path / "budget_manifest.json")
    assert manifest["config_digest"] == digest_of(cfg_obj)


def test_budget_no_interior_peak_emits_null(tmp_path):
    """eta = 2.5 has no interior buffer peak; the JSON must carry null,
    never a bare NaN token."""
    cfg = write_config(tmp_path / "b.json",
                       {"eta": 2.5, "N1_ini": 1e8, "N2": 1e4,
                        "T_ini_uK": 300, "omega1_bar_rad_per_s": 500.0,
                        "omega2_bar_rad_per_s": 500.0})
    assert main(["budget", "--config", cfg, "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "budget_outcome.json").read_text()
    assert "NaN" not in raw
    out = json.loads(raw)
    assert out["n2_a"] is None and out["n2_b"] is None


# ----------------------------------------------------------- phase diagram

def test_phase_diagram_csv_example(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["phase-diagram", "--eta-min", "4", "--eta-max", "10",
                 "--ratio", "1.414", "--out", "fig3.csv"]) == 0
    lines = (tmp_path / "fig3.csv").read_text().splitlines()
    assert lines[0] == "eta,n2_over_n2c,region,d1max,d2max,dequal"
    assert len(lines) == 1 + 13 * 9          # default grid
    regions = {line.split(",")[2] for line in lines[1:]}
    assert len(regions) >= 2
    first = lines[1].split(",")
    assert float(first[0]) == 4.0
    assert "." in first[3] or "e" in first[3] or first[3] == "nan"
    bounds = read_json(tmp_path / "fig3_boundaries.json")
    assert len(bounds) == 13
    assert all("eta" in b for b in bounds)
    manifest = read_json(tmp_path / "fig3_manifest.json")
    assert set(manifest["outputs"]) == {"fig3.csv", "fig3_boundaries.json"}


def test_phase_diagram_json_format(tmp_path):
    assert main(["phase-diagram", "--ratio", "1.414", "--eta-points", "3",
                 "--n2-points", "4", "--format", "json",
                 "--out", str(tmp_path)]) == 0
    rows = read_json(tmp_path / "phase_diagram.json")
    assert len(rows) == 12
    assert set(rows[0]) == {"eta", "n2_over_n2c", "region", "d1max",
                            "d2max", "dequal"}


def test_phase_diagram_rejects_bad_grid(tmp_path, capsys):
    assert main(["phase-diagram", "--ratio", "1.414", "--eta-min", "1.5",
                 "--out", str(tmp_path)]) == 2
    assert "eta" in capsys.readouterr().err


def _diagram_rows(argv, out):
    """Run phase-diagram with warnings as errors; its rows as written,
    and the rows phase_diagram gives for the same grid."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    manifest = read_json(out / "phase_diagram_manifest.json")
    grid = manifest["config"]
    table = phase_diagram(
        np.linspace(grid["eta_min"], grid["eta_max"], grid["eta_points"]),
        np.geomspace(grid["n2_min"], grid["n2_max"], grid["n2_points"]),
        trap_ratio=grid["ratio"])
    return read_json(out / "phase_diagram.json"), table["rows"]


@pytest.mark.parametrize("argv", [
    ["--ratio", "1.41", "--n2-max", "8"],
    ["--ratio", "1.41", "--n2-max", "10"],
    ["--ratio", "1", "--eta-min", "3.01", "--eta-max", "3.01",
     "--eta-points", "1"]], ids=["n2max_8", "n2max_10", "eta_3.01"])
def test_phase_diagram_writes_cells_the_reference_numbers_refused(tmp_path,
                                                                  argv):
    """Cells whose N2 reached the buffer number the diagram used to hide
    (--n2-max 8 or 10), and eta 3.01 at ratio 1, where N2_c underflowed at
    those numbers, are written: finite numbers, phase_diagram's rows, and
    no numpy RuntimeWarning."""
    written, rows = _diagram_rows(["phase-diagram", *argv], tmp_path)
    assert written == rows
    assert all(math.isfinite(row[k]) and row[k] > 0 for row in written
               for k in ("d1max", "d2max", "dequal"))


@pytest.mark.parametrize("ratio, eta", [("1", "3.0001"), ("0.3", "3.001")])
def test_phase_diagram_rejects_eta_next_to_three(tmp_path, capsys, ratio,
                                                 eta):
    """Just above eta = 3 the boundary N2_a/N2_c or N2_b/N2_c underflows
    (or overflows): a config error naming eta, not a traceback, and
    nothing is written."""
    out = tmp_path / "out"
    assert main(["phase-diagram", "--ratio", ratio, "--eta-min", eta,
                 "--eta-max", eta, "--eta-points", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sympcool: config error: eta = {eta} is too "
                          "close to 3")
    assert not out.exists()


def test_phase_diagram_rejects_cells_that_overflow(tmp_path, capsys):
    """At eta 3.026 and ratio 0.3 the cells' model curves overflowed at the
    old reference numbers; now they are written with finite numbers.  A
    cell whose D_equal underflows (eta 12, ratio 10) is a config error
    naming eta and the cell, not a row with dequal 0, and nothing is
    written."""
    written, rows = _diagram_rows(
        ["phase-diagram", "--ratio", "0.3", "--eta-min", "3.026",
         "--eta-max", "3.026", "--eta-points", "1"], tmp_path / "near3")
    assert written == rows and len(rows) == 9
    assert all(0 < row["dequal"] < math.inf for row in written)
    out = tmp_path / "out"
    assert main(["phase-diagram", "--ratio", "10", "--eta-min", "12",
                 "--eta-max", "12", "--eta-points", "1", "--n2-min", "6.6e33",
                 "--n2-max", "6.6e33", "--n2-points", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "sympcool: config error: eta = 12, N2 = 6.6e+33 N2_c: ")
    assert not out.exists()


@pytest.mark.parametrize("column", [
    [True, False, True], [np.bool_(True), False, np.bool_(False)],
    [0.5, -0.0, math.nan], [True, 1.5], ["G", True, np.float64(2.0)]],
    ids=["bool", "numpy_bool", "float", "bool_float", "mixed"])
def test_column_text_writes_each_cell_as_cell_does(column):
    """A CSV column comes out as _cell writes each of its cells, whether
    it is written in one pass (all floats, all booleans) or cell by
    cell."""
    from sympcool.cli import _cell, _column_text
    assert _column_text(column) == [_cell(c, False) for c in column]


def test_phase_diagram_blames_n2_min_for_a_tiny_cell(tmp_path, capfd):
    """At eta 8 and ratio 2 the cell N2 = 1e-152 N2_c, the --n2-min cell,
    has a D2_max past the floats: the config error names that cell and
    eta, not eta alone as too close to 3, no numpy RuntimeWarning reaches
    stderr, and nothing is written."""
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["phase-diagram", "--ratio", "2", "--eta-min", "8",
                     "--eta-max", "8", "--eta-points", "1", "--n2-min",
                     "1e-152", "--n2-max", "1e-152", "--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capfd.readouterr().err
    assert err == ("sympcool: config error: eta = 8, N2 = 1e-152 N2_c: a "
                   "phase-space density over- or underflows\n")
    assert not out.exists()


@pytest.mark.parametrize("eta, omega2", [(3.001, 200.0), (3.001, 888.6),
                                         (3.01, 888.6)])
def test_budget_rejects_eta_next_to_three(tmp_path, capsys, eta, omega2):
    """Critical numbers that overflow, or underflow to 0, are a config
    error at the eta line, not a traceback or zeros written as values,
    and nothing is written."""
    path = tmp_path / "b.json"
    cfg = write_config(path, {**README_BUDGET, "eta": eta,
                              "omega2_bar_rad_per_s": omega2})
    out = tmp_path / "out"
    assert main(["budget", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"(line {_line_of(path, 'eta')})" in err
    assert "too close to 3" in err
    assert not out.exists()


@pytest.mark.parametrize("changes, key", [
    ({"eta": 3.45, "omega2_bar_rad_per_s": 5.26e277}, "omega2_bar_rad_per_s"),
    ({"eta": 18.2, "N1_ini": 4.84e37, "omega2_bar_rad_per_s": 1.92e-295},
     "N1_ini")], ids=["omega2_overflows", "three_out_of_range"])
def test_budget_refuses_values_outside_the_domain(tmp_path, capsys, changes,
                                                  key):
    """These configs ended in an OverflowError traceback in equal_psd and
    classify, or a math domain error in critical_numbers; the values lie
    outside their domains, so exit 2 at the first such key's line."""
    path = tmp_path / "b.json"
    cfg = write_config(path, {**README_BUDGET, **changes})
    out = tmp_path / "out"
    assert main(["budget", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"(line {_line_of(path, key)}): key '{key}'" in err
    assert "must lie in" in err
    assert not out.exists()


# ---------------------------------------------------------------- contact

def contact_state(tmp_path):
    """Both clouds at 400 nK with omega_z tuned so the pair width
    rho_z is 12 um; the 26 um offset then overlaps at ~0.096."""
    w_z = math.sqrt(2 * K_B * 400e-9 / MASS_RB87) / 12e-6
    trap = {"omega_x_rad_per_s": w_z, "omega_y_rad_per_s": w_z,
            "omega_z_rad_per_s": w_z, "gravity_m_per_s2": 0.0}
    obj = {"N1": 1e6, "N2": 1e4, "T1_uK": 0.4, "T2_uK": 0.4,
           "M1_amu": MASS_RB87 / 1.66053906660e-27,
           "M2_amu": MASS_RB87 / 1.66053906660e-27,
           "sigma12_m2": 2e-15, "delta_um": 26.0,
           "trap1": trap, "trap2": trap}
    return write_config(tmp_path / "state.json", obj), obj


def test_contact_summary_and_sweep(tmp_path):
    cfg, _ = contact_state(tmp_path)
    assert main(["contact", "--state", cfg, "--out", str(tmp_path),
                 "--sweep", "delta:0:40e-6:81"]) == 0
    summary = read_json(tmp_path / "contact_summary.json")
    assert summary["rho_z_um"] == pytest.approx(12.0, rel=1e-9)
    assert summary["overlap"] == pytest.approx(0.0956344448325386,
                                               rel=1e-9)
    assert summary["tau_s"] == pytest.approx(
        1.0 / summary["thermalization_rate_per_s"], rel=1e-12)

    lines = (tmp_path / "contact_sweep.csv").read_text().splitlines()
    assert lines[0] == "delta,rho_z,overlap,gamma,w,inv_tau"
    assert len(lines) == 1 + 81
    row = lines[1 + 52].split(",")          # delta = 26 um
    assert float(row[0]) == pytest.approx(26e-6, rel=1e-12)
    assert float(row[2]) == pytest.approx(0.0956344448325386, rel=1e-6)
    assert "," not in row[2] and "." in row[2]
    # heat flow is zero at equal temperatures
    assert float(row[4]) == 0.0


def test_contact_sweep_evaluates_pair_rates_once_per_state(tmp_path,
                                                          monkeypatch):
    """The summary and each of the 40 sweep rows cost one pair-rate
    evaluation: widths, overlap, Gamma, W and 1/tau all come from it."""
    import sympcool.contact as contact
    calls = []
    pair_rates = contact._pair_rates

    def counted(*args):
        calls.append(args)
        return pair_rates(*args)

    monkeypatch.setattr(contact, "_pair_rates", counted)
    cfg, _ = contact_state(tmp_path)
    assert main(["contact", "--state", cfg, "--out", str(tmp_path),
                 "--sweep", "T:0.2:0.6:40"]) == 0
    assert len(calls) == 41


def test_contact_sweep_validation(tmp_path, capsys):
    cfg, _ = contact_state(tmp_path)
    assert main(["contact", "--state", cfg, "--out", str(tmp_path),
                 "--sweep", "bogus:0:1:10"]) == 2
    assert "sweep" in capsys.readouterr().err.lower()
    assert main(["contact", "--state", cfg, "--out", str(tmp_path),
                 "--sweep", "delta:0:1:1"]) == 2
    assert main(["contact", "--state", cfg, "--out", str(tmp_path),
                 "--sweep", "T:abc:1:5"]) == 2


def test_contact_sweep_error_prints_a_plain_float(tmp_path, capsys):
    """A sweep value the state refuses is named as a plain float, not as
    a numpy scalar's repr."""
    cfg, _ = contact_state(tmp_path)
    assert main(["contact", "--state", cfg, "--out", str(tmp_path),
                 "--sweep", "T:0:1e-6:3"]) == 2
    assert capsys.readouterr().err == (
        "sympcool: config error: --sweep value 0.0: T1 must be positive\n")


# ------------------------------------------------------------------- traj

def traj_config(tmp_path, **over):
    trap = {"omega_x_rad_per_s": 628.3, "omega_y_rad_per_s": 628.3,
            "omega_z_rad_per_s": 628.3, "gravity_m_per_s2": 0.0}
    obj = {
        "eta": 6.5,
        "contact_mode": "instant",
        "t_end_s": 30.0,
        "dt_max_s": 0.05,
        "initial": {"N1": 1e6, "N2": 1e4, "T1_uK": 10.0, "T2_uK": 10.0,
                    "M1_amu": 86.909180531, "M2_amu": 86.909180531,
                    "sigma12_m2": 2e-15, "delta_um": 0.0,
                    "trap1": trap, "trap2": trap},
        "evaporation": {"model": "rate", "prefactor": 5.0,
                        "sigma_self_m2": 2e-15},
    }
    obj.update(over)
    return write_config(tmp_path / "traj.json", obj), obj


def test_traj_csv_and_events(tmp_path):
    cfg, obj = traj_config(tmp_path)
    assert main(["traj", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0] == "t,N1,T1,T2,D1,D2,Gamma,overlap,stalled,bec1,bec2"
    assert len(lines) > 10
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[8] in ("0", "1")
        assert cells[9] in ("0", "1") and cells[10] in ("0", "1")
    events = read_json(tmp_path / "traj_events.json")
    assert isinstance(events["region"], str)
    assert isinstance(events["events"], list)
    assert events["energy_audit"]["max_drift_J"] is None   # instant mode
    manifest = read_json(tmp_path / "traj_manifest.json")
    assert manifest["config_digest"] == digest_of(obj)


def test_traj_finite_mode_energy_audit(tmp_path):
    cfg, _ = traj_config(tmp_path, contact_mode="finite", t_end_s=5.0)
    assert main(["traj", "--config", cfg, "--out", str(tmp_path)]) == 0
    audit = read_json(tmp_path / "traj_events.json")["energy_audit"]
    assert audit["energy_removed_J"] > 0
    assert audit["max_drift_J"] < 1e-6 * audit["energy_removed_J"]


def test_traj_plot_script(tmp_path):
    cfg, _ = traj_config(tmp_path)
    assert main(["traj", "--config", cfg, "--out", str(tmp_path),
                 "--plot-script"]) == 0
    gp = (tmp_path / "traj.gp").read_text()
    assert "traj.csv" in gp
    manifest = read_json(tmp_path / "traj_manifest.json")
    assert "traj.gp" in manifest["outputs"]


def test_traj_manifest_solver_diagnostics(tmp_path):
    """The traj manifest carries nfev, rk_steps, status and the located
    events from the run's audit: six RHS calls per RK45 step plus two at
    the start, at least one step per dt_max; a ramp in instant mode runs
    no solver (0, 0, null and null).  Run to 30 s, both phase-space
    densities cross the threshold, and traj_events.json's BEC times are
    the solver's roots, which the sample grid holds."""
    ramp = {"model": "ramp", "times_s": [0.0, 10.0], "numbers": [1e6, 0.0]}
    cases = (({"contact_mode": "finite", "t_end_s": 5.0}, "finite"),
             ({"contact_mode": "finite"}, "crossing"),
             ({"evaporation": ramp}, "ramp"))
    found = {}
    for over, name in cases:
        cfg, _ = traj_config(tmp_path, **over)
        assert main(["traj", "--config", cfg, "--out",
                     str(tmp_path / name)]) == 0
        found[name] = read_json(tmp_path / name / "traj_manifest.json")[
            "diagnostics"]
    assert found["ramp"] == {"nfev": 0, "rk_steps": 0, "status": None,
                             "events": None}
    finite = found["finite"]
    assert finite["status"] == 0
    assert finite["rk_steps"] >= 100
    assert finite["nfev"] == 6 * finite["rk_steps"] + 2
    assert finite["events"] == {"buffer_floor": [], "D1_crossing": [],
                                "D2_crossing": []}
    roots = found["crossing"]["events"]
    bec = {e["kind"]: e["t"] for e in read_json(
        tmp_path / "crossing" / "traj_events.json")["events"]}
    assert roots["buffer_floor"] == []
    assert roots["D1_crossing"] == [bec["bec1"]]
    assert roots["D2_crossing"] == [bec["bec2"]]


def test_traj_rejects_unknown_evaporation(tmp_path, capsys):
    cfg, _ = traj_config(tmp_path,
                         evaporation={"model": "magic"})
    assert main(["traj", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "model" in capsys.readouterr().err


@pytest.mark.parametrize("evaporation", [
    {"model": "rate", "prefactor": 5.0, "sigma_self_m2": 2e-15},
    {"model": "ramp", "times_s": [0.0, 10.0], "numbers": [1e4, 0.0]}],
    ids=["rate", "ramp"])
def test_traj_instant_n2_not_below_n1_is_config_error(tmp_path, capsys,
                                                      evaporation):
    """Instant contact with N2 above N1 exited 1 with "need N1_ini > N2",
    naming no key and no line: now exit 2 at the line of `initial`, the
    message naming N1 and N2, and nothing written."""
    obj = traj_config(tmp_path, evaporation=evaporation)[1]
    obj = _with(_with(obj, ("initial", "N1"), 1e4), ("initial", "N2"), 2e4)
    cfg = write_config(tmp_path / "traj.json", obj)
    out = tmp_path / "out"
    assert main(["traj", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"sympcool: config error (line {_written_line(obj, ('initial',))})"
        ": key 'initial' in config: ")
    assert "initial.N2 < initial.N1" in err
    assert not out.exists()


# ------------------------------------------------------------------- dsmc

def dsmc_config(tmp_path, two_species=True, n=400):
    sp = {"n_test": n, "T_uK": 1.3, "sigma_self_m2": 1.4e-15,
          "sigma_cross_m2": 1.4e-15}
    trap = {"omega_x_rad_per_s": 502.65, "omega_y_rad_per_s": 628.32,
            "omega_z_rad_per_s": 785.40, "gravity_m_per_s2": 0.0}
    obj = {"species": [sp], "traps": [trap], "dt_s": 3.2e-4,
           "t_end_s": 0.02, "cell_size_um": 2.4, "seed": 7,
           "record_every": 5}
    if two_species:
        obj["species"] = [sp, {**sp, "T_uK": 0.7}]
        obj["traps"] = [trap, trap]
    return write_config(tmp_path / "dsmc.json", obj), obj


def test_dsmc_two_species_files(tmp_path):
    cfg, obj = dsmc_config(tmp_path)
    assert main(["dsmc", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "dsmc.csv").read_text().splitlines()
    assert lines[0] == "t,T1_kin,T2_kin,collisions_cum"
    assert len(lines) > 5
    summary = read_json(tmp_path / "dsmc_summary.json")
    assert summary["analytic_thermalization_rate_per_s"] > 0
    assert summary["analytic_pair_rate_per_s"] > 0
    assert summary["overlap"] == pytest.approx(1.0)
    assert "measured_pair_rate_per_s" in summary
    # far too short for two e-folds: the fit must decline, not lie
    assert summary["fitted_rate_per_s"] is None
    assert "fit_note" in summary


def test_dsmc_manifest_diagnostics_match_the_run(tmp_path, monkeypatch):
    """The dsmc manifest carries the run's per-channel counters, keyed
    "a-b", its lone-particle fraction, the relative drift of the weighted
    total energy and the seconds spent per step phase, which no data file
    carries."""
    import sympcool.cli as cli
    seen = []

    def recorded(cfg):
        seen.append((cfg, cli_run(cfg)))
        return seen[-1][1]

    cli_run = cli.dsmc_run
    monkeypatch.setattr(cli, "dsmc_run", recorded)
    cfg, _ = dsmc_config(tmp_path)
    assert main(["dsmc", "--config", cfg, "--out", str(tmp_path)]) == 0
    (dsmc_cfg, result), = seen
    diagnostics = read_json(tmp_path / "dsmc_manifest.json")["diagnostics"]
    assert diagnostics["channels"] == {
        f"{a}-{b}": counts for (a, b), counts in result.diagnostics.items()}
    assert set(diagnostics["channels"]) == {"0-0", "1-1", "0-1"}
    assert set(diagnostics["channels"]["0-1"]) == {
        "candidates", "accepted", "dropped", "overflows"}
    assert diagnostics["lone_particle_fraction"] \
        == result.lone_particle_fraction
    start, end = (sum(e.weight * total_energy(e, f)
                      for e, f in zip(ens, dsmc_cfg.traps))
                  for ens in (dsmc_cfg.ensembles, result.ensembles))
    assert diagnostics["relative_energy_drift"] == (end - start) / start
    assert abs(diagnostics["relative_energy_drift"]) < 1e-9
    assert diagnostics["timings_s"] == result.timings
    assert set(result.timings) == {"propagate", "cell_table", "select",
                                   "collide", "record"}
    assert all(t >= 0.0 for t in result.timings.values())
    for name in ("dsmc.csv", "dsmc_summary.json"):
        assert "relative_energy_drift" not in (tmp_path / name).read_text()


def test_dsmc_rejects_mismatched_cross_sections(tmp_path, capsys):
    """Two species that disagree on sigma_cross are a config error at the
    species key, and nothing is written."""
    _, obj = dsmc_config(tmp_path)
    obj["species"][1]["sigma_cross_m2"] = 2.8e-15
    cfg = write_config(tmp_path / "dsmc.json", obj)
    out = tmp_path / "out"
    assert main(["dsmc", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    raw = Path(cfg).read_text().splitlines()
    line = next(i for i, text in enumerate(raw, 1) if '"species"' in text)
    assert err.startswith(f"sympcool: config error (line {line}): ")
    assert "species" in err and "sigma_cross" in err
    assert not out.exists()


@pytest.mark.parametrize("two_species", [False, True], ids=["one", "two"])
def test_dsmc_t_end_below_half_a_step_is_config_error(tmp_path, capsys,
                                                      two_species):
    """t_end_s 1e-4 with dt_s 3.2e-4 rounds to no step: the summary's
    measured rates divided by the zero final time, a ZeroDivisionError
    traceback.  Now exit 2 at t_end_s's line, and nothing written."""
    _, obj = dsmc_config(tmp_path, two_species=two_species)
    path = tmp_path / "short.json"
    cfg = write_config(path, {**obj, "t_end_s": 1e-4})
    out = tmp_path / "out"
    assert main(["dsmc", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"(line {_line_of(path, 't_end_s')}): key 't_end_s'" in err
    assert "rounds to no step" in err
    assert not out.exists()


def test_dsmc_single_species_summary(tmp_path):
    cfg, _ = dsmc_config(tmp_path, two_species=False)
    assert main(["dsmc", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "dsmc.csv").read_text().splitlines()
    assert lines[1].split(",")[2] == "nan"    # no second species
    summary = read_json(tmp_path / "dsmc_summary.json")
    assert summary["analytic_collision_rate_per_atom_per_s"] > 0
    assert summary["measured_collision_rate_per_atom_per_s"] >= 0


def test_dsmc_byte_identical_reruns(tmp_path):
    cfg, _ = dsmc_config(tmp_path)
    out = tmp_path / "run"
    assert main(["dsmc", "--config", cfg, "--out", str(out)]) == 0
    first_csv = (out / "dsmc.csv").read_bytes()
    first_manifest = read_json(out / "dsmc_manifest.json")
    assert main(["dsmc", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "dsmc.csv").read_bytes() == first_csv
    second_manifest = read_json(out / "dsmc_manifest.json")
    for m in (first_manifest, second_manifest):
        m.pop("wall_time")
        # wall-clock seconds per step phase, like wall_time
        assert set(m["diagnostics"].pop("timings_s")) == {
            "propagate", "cell_table", "select", "collide", "record"}
    assert first_manifest == second_manifest


def test_dsmc_seed_flag_changes_data(tmp_path):
    cfg, _ = dsmc_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["dsmc", "--config", cfg, "--out", str(a)]) == 0
    assert main(["dsmc", "--config", cfg, "--out", str(b),
                 "--seed", "8"]) == 0
    assert (a / "dsmc.csv").read_bytes() != (b / "dsmc.csv").read_bytes()
    assert read_json(b / "dsmc_manifest.json")["seed"] == 8


@pytest.mark.parametrize("seed", ["-3", str(1 << 64)])
def test_dsmc_bad_seed_flag_is_config_error(tmp_path, capsys, seed):
    cfg, _ = dsmc_config(tmp_path)
    assert main(["dsmc", "--config", cfg, "--out", str(tmp_path),
                 "--seed", seed]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "dsmc.csv").exists()


def test_dsmc_bad_seed_key_is_line_anchored(tmp_path, capsys):
    _, obj = dsmc_config(tmp_path)
    cfg = write_config(tmp_path / "neg.json", {**obj, "seed": -3})
    lines = (tmp_path / "neg.json").read_text().splitlines()
    line = 1 + next(i for i, text in enumerate(lines) if '"seed"' in text)
    assert main(["dsmc", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "seed" in err and f"line {line}" in err


# ------------------------------------------------------------- exit codes

def test_invalid_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json\n")
    assert main(["trap", "--config", str(bad), "--out",
                 str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "line 1" in err


def test_unknown_key_is_line_anchored(tmp_path, capsys):
    cfg = tmp_path / "trap.json"
    cfg.write_text('{\n  "B0_gauss": 56,\n  "G_kG_per_cm": 1.0,\n'
                   '  "C_gauss_per_cm2": 56,\n  "bogus": 1\n}\n')
    assert main(["trap", "--config", str(cfg), "--out",
                 str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "line 5" in err


def test_missing_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "b.json", {"N1_ini": 1e8})
    assert main(["budget", "--config", str(cfg), "--out",
                 str(tmp_path)]) == 2
    assert "eta" in capsys.readouterr().err


def test_domain_violation_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "b.json",
                       {"eta": 2.0, "N1_ini": 1e8, "N2": 1e4,
                        "T_ini_uK": 300, "omega1_bar_rad_per_s": 500.0,
                        "omega2_bar_rad_per_s": 500.0})
    assert main(["budget", "--config", str(cfg), "--out",
                 str(tmp_path)]) == 2
    assert "eta" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["trap", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_blocked_output_dir_is_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not dir\n")
    cfg = write_config(tmp_path / "t.json", TRAP_56G)
    assert main(["trap", "--config", cfg, "--out", str(blocker)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, flag, value", [
    *((cmd, "--seed", "3")
      for cmd in ("trap", "budget", "phase-diagram", "contact", "traj")),
    ("trap", "--format", "json"), ("budget", "--format", "json")])
def test_flags_a_subcommand_does_not_read_are_refused(tmp_path, capsys, cmd,
                                                      flag, value):
    """--seed belongs to dsmc alone and --format to the subcommands that
    write a table; anywhere else argparse refuses it (exit 2)."""
    argv = [cmd, flag, value, "--out", str(tmp_path / "out")]
    if cmd == "phase-diagram":
        argv += ["--ratio", "1.414"]
    else:
        argv += ["--config", write_config(tmp_path / "c.json", TRAP_56G)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------ entry point

def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _python(*args):
    """A fresh interpreter on args; it does not see pytest's pythonpath,
    so src/ goes first on its PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_console_script_runs():
    proc = _python("-m", "sympcool.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip()


# ------------------------------------------------------- frozen CLI digests

README_TRAP = {**TRAP_56G, "buffer": {"F": 1, "mF": -1},
               "target": {"F": 2, "mF": 2}}
README_BUDGET = {"eta": 6.5, "N1_ini": 1e8, "N2": 1e4, "T_ini_uK": 300,
                 "omega1_bar_rad_per_s": 628.3,
                 "omega2_bar_rad_per_s": 888.6}
_W = {"omega_x_rad_per_s": 628.3, "omega_y_rad_per_s": 628.3,
      "omega_z_rad_per_s": 628.3}
README_STATE = {"N1": 1e6, "N2": 1e4, "T1_uK": 0.4, "T2_uK": 0.4,
                "M1_amu": 86.909, "M2_amu": 86.909, "sigma12_m2": 2e-15,
                "delta_um": 26, "trap1": _W, "trap2": _W}
README_TRAJ = {
    "eta": 6.5, "contact_mode": "finite", "t_end_s": 30, "dt_max_s": 0.05,
    "initial": {"N1": 1e6, "N2": 1e4, "T1_uK": 10, "T2_uK": 10,
                "M1_amu": 86.909, "M2_amu": 86.909, "sigma12_m2": 2e-15,
                "trap1": {**_W, "gravity_m_per_s2": 0},
                "trap2": {**_W, "gravity_m_per_s2": 0}},
    "evaporation": {"model": "rate", "prefactor": 5, "sigma_self_m2": 2e-15},
}
_DSMC_W = {"omega_x_rad_per_s": 502.65, "omega_y_rad_per_s": 628.32,
           "omega_z_rad_per_s": 785.40}
# the README's dsmc example cut from 2.2 s to 0.02 s of evolution
README_DSMC = {
    "species": [{"n_test": 20000, "T_uK": 1.15, "sigma_self_m2": 1.4e-15,
                 "sigma_cross_m2": 1.4e-15},
                {"n_test": 20000, "T_uK": 0.85, "sigma_self_m2": 1.4e-15,
                 "sigma_cross_m2": 1.4e-15}],
    "traps": [_DSMC_W, _DSMC_W], "dt_s": 3.2e-4, "t_end_s": 0.02,
    "cell_size_um": 2.4, "record_every": 20, "seed": 11}


# an extrapolation-zone classify, then a short finite trajectory, the one
# call that loads scipy; run in a fresh interpreter and, as the reference,
# in this one
_SCIPY_CALLS = """
import dataclasses, sys
from sympcool import (MASS_RB87, BudgetParams, RateDriven, TrajectoryConfig,
                      TrapFrequencies, TwoGasState, classify,
                      simulate_with_audit)
w1 = 289.49564890835956
extrap = classify(1e4, BudgetParams(eta=6.5, N1_ini=1e8, N2=1e4,
                                    T_ini=300e-6, omega1_bar=w1,
                                    omega2_bar=0.5 * w1))
after_classify = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
f = TrapFrequencies.from_axes(628.3, 628.3, 628.3, gravity=0.0)
state = TwoGasState(N1=1e6, N2=1e4, T1=10e-6, T2=12e-6, f1=f, f2=f,
                    M1=MASS_RB87, M2=MASS_RB87, sigma12=2e-15, delta=0.0)
points, audit = simulate_with_audit(TrajectoryConfig(
    initial=state, eta=6.5, t_end=2.0, dt_max=0.05,
    evaporation_model=RateDriven(prefactor=5.0, sigma_self=2e-15)))
values = repr((extrap, [dataclasses.astuple(p) for p in points],
               audit["nfev"], audit["rk_steps"], audit["status"]))
"""

_COLD_START = """
import json, sys
import sympcool, sympcool.cli
for argv in json.loads(sys.argv[1]):
    assert sympcool.cli.main(argv) == 0, argv
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(scipy_modules()))
""" + _SCIPY_CALLS + """
print(json.dumps(after_classify))
print(json.dumps(scipy_modules()))
print(values)
"""


def test_cold_start_loads_scipy_only_to_integrate_or_find_roots(tmp_path):
    """Importing sympcool and running the README trap, budget (under the
    closed-form ordering and, with a soft target trap, outside it),
    phase-diagram and contact sweep loads no scipy module, and neither
    does an extrapolation-zone classify; a finite trajectory then loads
    scipy on first use.  Both return exactly what they return in this
    process, where scipy was loaded up front.  The budget and
    phase-diagram manifests carry no diagnostics."""
    trap = write_config(tmp_path / "trap.json", README_TRAP)
    budget = write_config(tmp_path / "budget.json", README_BUDGET)
    soft = write_config(tmp_path / "soft.json", {
        **README_BUDGET, "omega2_bar_rad_per_s": 314.15})
    state = write_config(tmp_path / "state.json", README_STATE)
    out = tmp_path / "out"
    runs = [["trap", "--config", trap, "--out", str(out)],
            ["budget", "--config", budget, "--out", str(out / "ordered")],
            ["budget", "--config", soft, "--out", str(out / "soft")],
            ["phase-diagram", "--ratio", "0.9", "--eta-min", "3.5",
             "--eta-points", "3", "--n2-points", "4", "--out", str(out)],
            ["contact", "--state", state, "--sweep", "delta:0:40e-6:81",
             "--out", str(out)]]
    proc = _python("-c", _COLD_START, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    before, after_classify, after, values = proc.stdout.splitlines()
    assert json.loads(before) == json.loads(after_classify) == []
    assert {"scipy.integrate", "scipy.optimize"} <= set(json.loads(after))
    assert read_json(out / "soft" / "budget_outcome.json")[
        "closed_form_ordering"] is False
    for manifest in (out / "ordered" / "budget_manifest.json",
                     out / "soft" / "budget_manifest.json",
                     out / "phase_diagram_manifest.json"):
        assert "diagnostics" not in read_json(manifest)
    here: dict = {}
    exec(_SCIPY_CALLS, here)
    assert "closed_form_ordering=False" in values
    assert values == here["values"]


def _frozen_cases(tmp_path):
    """(name, argv without --out, --out file name or None) of every config
    this module runs, the README examples and the JSON table variants."""
    _, traj = traj_config(tmp_path)
    _, dsmc2 = dsmc_config(tmp_path)
    _, dsmc1 = dsmc_config(tmp_path, two_species=False)
    _, state = contact_state(tmp_path)
    ramp = {**traj, "t_end_s": 12.0, "dt_max_s": 0.25,
            "initial": {**traj["initial"], "N2": 2e4, "T1_uK": 2.0,
                        "T2_uK": 2.0},
            "evaporation": {"model": "ramp", "times_s": [0.0, 10.0],
                            "numbers": [1e6, 0.0]}}
    budget = {"eta": 6.5, "N1_ini": 1e8, "N2": 1e4, "T_ini_uK": 300,
              "omega1_bar_rad_per_s": 289.49564890835956,
              "omega2_bar_rad_per_s": 289.49564890835956 * math.sqrt(2)}
    shallow = {"eta": 2.5, "N1_ini": 1e8, "N2": 1e4, "T_ini_uK": 300,
               "omega1_bar_rad_per_s": 500.0, "omega2_bar_rad_per_s": 500.0}
    pd = ["phase-diagram", "--ratio", "1.414"]
    small = pd + ["--eta-points", "3", "--n2-points", "4"]
    configs = {
        "trap_56G": ("trap", TRAP_56G), "trap_readme": ("trap", README_TRAP),
        "budget": ("budget", budget), "budget_shallow": ("budget", shallow),
        "budget_readme": ("budget", README_BUDGET),
        "contact_sweep": ("contact", state),
        "contact_readme": ("contact", README_STATE),
        "traj_instant": ("traj", traj),
        "traj_finite": ("traj", {**traj, "contact_mode": "finite",
                                 "t_end_s": 5.0}),
        "traj_ramp": ("traj", ramp), "traj_readme": ("traj", README_TRAJ),
        "dsmc_two": ("dsmc", dsmc2), "dsmc_one": ("dsmc", dsmc1),
        "dsmc_readme": ("dsmc", README_DSMC)}
    paths = {name: write_config(tmp_path / f"{name}.json", obj)
             for name, (_, obj) in configs.items()}

    def run(name, *extra, config=None):
        sub, _ = configs[config or name]
        return [sub, "--config", paths[config or name], *extra]

    sweep = ["--sweep", "delta:0:40e-6:81"]
    return [
        ("trap_56G", run("trap_56G"), None),
        ("trap_readme", run("trap_readme"), None),
        ("budget", run("budget"), None),
        ("budget_shallow", run("budget_shallow"), None),
        ("budget_readme", run("budget_readme"), None),
        ("pd_fig3", pd + ["--eta-min", "4", "--eta-max", "10"], "fig3.csv"),
        ("pd_readme", pd + ["--eta-min", "4", "--eta-max", "10",
                            "--eta-points", "13", "--plot-script"],
         "fig3.csv"),
        ("pd_json", small + ["--format", "json"], None),
        ("pd_json_path", small, "grid.json"),
        ("contact_sweep", run("contact_sweep", *sweep), None),
        ("contact_sweep_json", run("contact_sweep", *sweep, "--format",
                                   "json", config="contact_sweep"), None),
        ("contact_T_json", run("contact_sweep", "--sweep", "T:2e-7:2e-6:5",
                               "--format", "json", config="contact_sweep"),
         None),
        ("contact_readme", run("contact_readme", *sweep), None),
        ("traj_instant", run("traj_instant"), None),
        ("traj_instant_json", run("traj_instant", "--format", "json",
                                  config="traj_instant"), None),
        ("traj_finite", run("traj_finite"), None),
        ("traj_plot", run("traj_instant", "--plot-script",
                          config="traj_instant"), None),
        ("traj_ramp", run("traj_ramp"), None),
        ("traj_readme", run("traj_readme", "--plot-script"), None),
        ("dsmc_two", run("dsmc_two"), None),
        ("dsmc_two_json", run("dsmc_two", "--format", "json",
                              config="dsmc_two"), None),
        ("dsmc_one", run("dsmc_one"), None),
        ("dsmc_seed8", run("dsmc_two", "--seed", "8", config="dsmc_two"),
         None),
        ("dsmc_readme", run("dsmc_readme", "--seed", "7"), None),
    ]


def _file_digests(out):
    """sha256 of every file in out; a manifest is hashed without its
    wall_time and command (which holds the --out path), and without its
    diagnostics (traj solver statistics, dsmc counters and energy drift),
    which test_traj_manifest_solver_diagnostics and
    test_dsmc_manifest_diagnostics_match_the_run pin and which the digests
    below predate."""
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name.endswith("_manifest.json"):
            manifest = json.loads(data)
            del manifest["wall_time"], manifest["command"]
            manifest.pop("diagnostics", None)
            data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        digests[f"{out.name}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return digests


# recorded before the config schema and the one table writer, except
# budget_shallow/budget_outcome.json: its eta 2.5 lies in the extrapolation
# zone, where dequal became the exact closed form (one ulp below the scan's
# Brent root, 3.1656990015916262e-09); and the phase-diagram tables and
# boundaries (pd_*), re-recorded when the diagram moved to the closed-form
# ratios in logs: same regions, numbers within 3.3e-14 relative (CSV) and
# 2.0e-14 (JSON), boundaries within 6.1e-16
FROZEN = {
    "trap_56G/constants.json":
        "f735db0aca6fc9b7c058fc01c344e21044871b4ddcc1f8afbb43bb0e0ac27b8b",
    "trap_56G/trap_frequencies.json":
        "24e9b5b1b45ac06074e86430d040ee88f7bf6af9d050b5053ce81de3f11baf11",
    "trap_56G/trap_manifest.json":
        "9c0cbea95bad226b30db245fa4ca487aaa0f40c5fe0af7115ae65c4f905946c3",
    "trap_readme/constants.json":
        "f735db0aca6fc9b7c058fc01c344e21044871b4ddcc1f8afbb43bb0e0ac27b8b",
    "trap_readme/trap_frequencies.json":
        "24e9b5b1b45ac06074e86430d040ee88f7bf6af9d050b5053ce81de3f11baf11",
    "trap_readme/trap_manifest.json":
        "52b2bcbd8ca29418baa4297398fa19e360ecbb944074fd0717842db9ed976db3",
    "budget/budget_manifest.json":
        "957478dc84f30e2a50e9f2684851ee67a4e07fe0771f45cc886f76af3c56124b",
    "budget/budget_outcome.json":
        "b9a0995add2a21618682c87f492216beb2a5752bc7fcec4c42c2592051287971",
    "budget_shallow/budget_manifest.json":
        "f356c450db0c19d8bf6cee062e2279e24bfbdcd1469b6a364a818957d7037a76",
    "budget_shallow/budget_outcome.json":
        "a502d01fb133aa2bc0c67401be330218244f20d5e64e73e879eaf4fe120930c4",
    "budget_readme/budget_manifest.json":
        "34dc775c51a5e566ffe788b8a1baebb286a4632f3f719b9735139ed6805e995c",
    "budget_readme/budget_outcome.json":
        "291347a191ccea1fca39c56b695d1663feea9a87f454294eacd1b8c2f76bc10e",
    "pd_fig3/fig3.csv":
        "12c71ca2b8f4e8000ad17856cd6bf57a60d153f3e439903ee236e55598738c7a",
    "pd_fig3/fig3_boundaries.json":
        "e83e46de177955ca20d5b18e3f88d4f00439347fe1a242bffc310e377c331edd",
    "pd_fig3/fig3_manifest.json":
        "cba9b0013ac3fa1587a84ff34072706aff4e40c2710cc8d9c77258689f64c00c",
    "pd_readme/fig3.csv":
        "12c71ca2b8f4e8000ad17856cd6bf57a60d153f3e439903ee236e55598738c7a",
    "pd_readme/fig3.gp":
        "9adb759031177f05c2a2a001e39edd596bd0e02c9670b6a2ab8f4d1e9eddb6dc",
    "pd_readme/fig3_boundaries.json":
        "e83e46de177955ca20d5b18e3f88d4f00439347fe1a242bffc310e377c331edd",
    "pd_readme/fig3_manifest.json":
        "f9edeced30ee8fbfd7c9b9fc80a573199143a10331020811267fc8692a27540e",
    "pd_json/phase_diagram.json":
        "17593bcc87b4904fd06ecb567246da5c444c987d80de2069c75875cf0f62baa3",
    "pd_json/phase_diagram_boundaries.json":
        "cf8c3f7651a5606ad85cbcbe58c78a794d25371c2d8785112abead7d7ff10e26",
    "pd_json/phase_diagram_manifest.json":
        "0e883fd74a9f6d7967cfbd75bf813e6adb0008c968784a1d64ae9a001e4f3903",
    "pd_json_path/grid.json":
        "17593bcc87b4904fd06ecb567246da5c444c987d80de2069c75875cf0f62baa3",
    "pd_json_path/grid_boundaries.json":
        "cf8c3f7651a5606ad85cbcbe58c78a794d25371c2d8785112abead7d7ff10e26",
    "pd_json_path/grid_manifest.json":
        "63467900662e3a1d60f7cafd7d0b464737e4922f3c44536f3eca13baa800e5af",
    "contact_sweep/contact_manifest.json":
        "eb0d600f8e6295cde313bbd97f5431b6faf3f3230e7d9e382cb1dc3d7a940396",
    "contact_sweep/contact_summary.json":
        "fbfdfdc0395cd9dd74b7bd002c70f5a1c4921c8cc64fb53b3f3170f14155c893",
    "contact_sweep/contact_sweep.csv":
        "c829e9c6c3ab57dbf06353c4085d1c6d9e41396fadfbc2862f925573f9852232",
    "contact_sweep_json/contact_manifest.json":
        "0f533bcc5ae052d66a9739421ab172199848c114d1e5d91ff892898c1cf740da",
    "contact_sweep_json/contact_summary.json":
        "fbfdfdc0395cd9dd74b7bd002c70f5a1c4921c8cc64fb53b3f3170f14155c893",
    "contact_sweep_json/contact_sweep.json":
        "7f2370f7e8c7583428e6f6a82095fa17cc169e5edc88cfc9d63b5c42557f31ca",
    "contact_T_json/contact_manifest.json":
        "0f533bcc5ae052d66a9739421ab172199848c114d1e5d91ff892898c1cf740da",
    "contact_T_json/contact_summary.json":
        "fbfdfdc0395cd9dd74b7bd002c70f5a1c4921c8cc64fb53b3f3170f14155c893",
    "contact_T_json/contact_sweep.json":
        "a1570f59caa3f531f5cf9e125d92f2603363258b6ecc39ccb717b6108af8e0ea",
    "contact_readme/contact_manifest.json":
        "249fd2e9cd84593b38215d8f7a3b37014df3ac6d593b589760c5634de83b1546",
    "contact_readme/contact_summary.json":
        "9492b9e6abff052248b526223f2b271ed58dcc12973ad0f21b4bb1960cede682",
    "contact_readme/contact_sweep.csv":
        "ad6e93f5bc484e929b5f33d153f068ca9e89e3e278d7be0ee9d556eba05d60a2",
    "traj_instant/traj.csv":
        "4f37dca10ca1a7412e57bea864700630e996d9a953face2cb9fbf4749a9f185c",
    "traj_instant/traj_events.json":
        "20068ced2e97571e81100640a4f35316fb1f3898b978dd1b1c6af9d6979deec0",
    "traj_instant/traj_manifest.json":
        "5ce1d24e7c5c17e65a99772bbb43e3a0c4b64bd8321fbeea8d993fe9589a755a",
    "traj_instant_json/traj.json":
        "7a6a4a09ecfafd11827fca30fcb8544d64f63a9b5eab7e1213ee39c00aa14521",
    "traj_instant_json/traj_events.json":
        "20068ced2e97571e81100640a4f35316fb1f3898b978dd1b1c6af9d6979deec0",
    "traj_instant_json/traj_manifest.json":
        "ecf310a700a7a38d93287c921cdcd3622461a69924b584bb2a3b016aa62153f9",
    "traj_finite/traj.csv":
        "6d8fb3e8d54f88da5357d58c4b6ee4de152762b8caee03da32719077b611df9b",
    "traj_finite/traj_events.json":
        "8621110dcc61e5e5d4d528885548a7f54b70674f1a90ac8cc0e3686547e42850",
    "traj_finite/traj_manifest.json":
        "5ba375d669051415c82887c948454cc6f7fa0d7a25288224e5cb56ef7b88e353",
    "traj_plot/traj.csv":
        "4f37dca10ca1a7412e57bea864700630e996d9a953face2cb9fbf4749a9f185c",
    "traj_plot/traj.gp":
        "a5d497dcea71876c0711e542480b9419d40be80f193bda93130b60b36b2f3f3d",
    "traj_plot/traj_events.json":
        "20068ced2e97571e81100640a4f35316fb1f3898b978dd1b1c6af9d6979deec0",
    "traj_plot/traj_manifest.json":
        "4384b3dd5150fbeb83f90ba228f2a901cdf59a105672b8ea77858530029e4452",
    "traj_ramp/traj.csv":
        "44f66c99813d737a3f28b0610048331bb8ec276a129ea510f2cc71c90f70af11",
    "traj_ramp/traj_events.json":
        "a072eda63d82514b769c9b40f04e0eecea7fd788f85f7bb85a0bf2e0a78aaf01",
    "traj_ramp/traj_manifest.json":
        "73c77737780816f0cfc92bca2d751200ffa05d07734e628b862b690afe697e5e",
    "traj_readme/traj.csv":
        "737ca4627872723080dc61fed7175a49729042797ce0d1a3718f5c6bc07645fe",
    "traj_readme/traj.gp":
        "a5d497dcea71876c0711e542480b9419d40be80f193bda93130b60b36b2f3f3d",
    "traj_readme/traj_events.json":
        "89f25949d43d224a00081c53bdff96deb533d29f4fcd61ecfdef32f3e29ff97b",
    "traj_readme/traj_manifest.json":
        "980b1d662de2be773b94901272d6322c6152be4d5c92004ad755460081ef2b54",
    "dsmc_two/dsmc.csv":
        "d7e9dfb0d1f5ec73d56e33dabfb7950140ee6dd0ff30f8c8fe6f3ca89486bdd1",
    "dsmc_two/dsmc_manifest.json":
        "e3fe41cecae3e44f86a3b3138a59a7b8546d80c7bc28ebbc382c5dbf91b4cff0",
    "dsmc_two/dsmc_summary.json":
        "985f858a33828c35c5139a4138dc909c1b0b33be3ecd4adc92a01293e507cfe8",
    "dsmc_two_json/dsmc.json":
        "1bf72e4cf23146de3214ae48e397154833816678ec80cd63766d1286f1cabf9c",
    "dsmc_two_json/dsmc_manifest.json":
        "d994ae44e55a61b11b7536b03e6fbb317885a686e93236e636834637ed141383",
    "dsmc_two_json/dsmc_summary.json":
        "985f858a33828c35c5139a4138dc909c1b0b33be3ecd4adc92a01293e507cfe8",
    "dsmc_one/dsmc.csv":
        "fe05e013f3251af6d7f4d043c79e75e53e8a19013c4b5d8a435b7bc64c88d651",
    "dsmc_one/dsmc_manifest.json":
        "3e718df055d5141c3442cbab69bc1fb6f054cb931598e6fb314516e0b6a6a819",
    "dsmc_one/dsmc_summary.json":
        "046fa75b16195f379608b8fe512e22674ac87f89e83541fcacc2622937991abb",
    "dsmc_seed8/dsmc.csv":
        "35f80950f7c5040eb76b675515a862c6908aeaa570e8546e069c324ec3a12177",
    "dsmc_seed8/dsmc_manifest.json":
        "7ae6e904bc97014bc4e5d5a3a792ab9648183cfb87d03bceddb51d01925b8c3a",
    "dsmc_seed8/dsmc_summary.json":
        "1b35edcd254ff7408328cbed649ce041da92e079a54d05dc7f3f918f8a26990e",
    "dsmc_readme/dsmc.csv":
        "e544a03aa5efa1b426a62dcd967cffd9c90c02d6075016b0d7ca98916d084a99",
    "dsmc_readme/dsmc_manifest.json":
        "4f0a8a6b8864604d0f1c5a21d822b3ad43b3398067f992e4d8b054824c74c4ca",
    "dsmc_readme/dsmc_summary.json":
        "e7b8b26be7bee894a5fc169f6f6a8d5fbbd8b9a67175278ab19d6e9b5b9d014d",
}


@pytest.mark.filterwarnings("error")
def test_frozen_cli_digests(tmp_path, recording_math):
    """Every data file and manifest of the covered configs is byte-identical
    to the one recorded before the config parsing and table writing were
    rewritten, with every warning raised as an error."""
    found = {}
    (tmp_path / "cfg").mkdir()
    for name, argv, out_file in _frozen_cases(tmp_path / "cfg"):
        out = tmp_path / name
        target = out / out_file if out_file else out
        assert main(argv + ["--out", str(target)]) == 0, name
        found.update(_file_digests(out))
    assert found == FROZEN


# ------------------------------------------------ non-finite input, anchors

def _line_of(path, key):
    lines = path.read_text().splitlines()
    return 1 + next(i for i, text in enumerate(lines) if f'"{key}"' in text)


@pytest.mark.parametrize("key", sorted(README_BUDGET))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_budget_rejects_non_finite_values(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "b.json", {**README_BUDGET, key: value})
    out = tmp_path / "out"
    assert main(["budget", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line {_line_of(tmp_path / 'b.json', key)})" in err
    assert key in err and "finite" in err
    assert not out.exists()


def test_json_writer_refuses_non_finite():
    from sympcool.cli import _json_text
    with pytest.raises(SympcoolError, match="budget_outcome.json"):
        _json_text("budget_outcome.json", {"t_min_nK": math.nan})


def _csv_by_row(header, rows):
    """The CSV writer before it formatted by column: every cell through
    _cell, row by row."""
    from sympcool.cli import _cell
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(c, False) for c in row))
    return "\n".join(lines) + "\n"


_FLOATS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                                  5e-324, -2.5e-310, 1e300, -1e-300]))
_COLUMN_CELLS = {
    "float": _FLOATS, "float64": _FLOATS.map(np.float64),
    "bool": st.booleans(), "bool_": st.booleans().map(np.bool_),
    "str": st.text(alphabet="abcXYZ_ ", max_size=6),
    "mixed": st.one_of(_FLOATS, _FLOATS.map(np.float64), st.booleans(),
                       st.integers(-10, 10))}


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_CELLS)),
                          min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 6))
    columns = [draw(st.lists(_COLUMN_CELLS[k], min_size=n_rows,
                             max_size=n_rows)) for k in kinds]
    header = [f"c{i}" for i in range(len(kinds))]
    return header, [list(row) for row in zip(*columns)]


@settings(max_examples=300, deadline=None)
@given(table=_tables())
def test_csv_by_column_equals_csv_by_row(table):
    """Float columns go through float.__repr__ in one pass, any other
    column cell by cell; the text is the row-wise rendering's, for a
    header-only table too."""
    from sympcool.cli import _table_text
    header, rows = table
    assert _table_text("t.csv", header, rows) == _csv_by_row(header, rows)


def test_non_finite_result_is_runtime_error(tmp_path, capsys, monkeypatch):
    """A NaN that reaches an output is reported with exit 1, and no file
    is written, not even the ones rendered before it."""
    from sympcool import cli
    monkeypatch.setattr(cli, "_rates_of", lambda s: (
        (1e-6, 1e-6, 1e-6), math.nan, 1.0, 1.0, 1.0))
    cfg, _ = contact_state(tmp_path)
    out = tmp_path / "out"
    assert main(["contact", "--state", cfg, "--out", str(out),
                 "--sweep", "delta:0:5:3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sympcool: error: cannot write contact_")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--eta-max", "--n2-min", "--ratio"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_phase_diagram_rejects_non_finite_flags(tmp_path, flag, value):
    argv = ["phase-diagram", "--ratio", "1.414", "--out", str(tmp_path)]
    assert main(argv + [flag, value]) == 2
    assert not (tmp_path / "phase_diagram.csv").exists()


def test_contact_sweep_rejects_non_finite_bounds(tmp_path):
    cfg, _ = contact_state(tmp_path)
    assert main(["contact", "--state", cfg, "--out", str(tmp_path),
                 "--sweep", "delta:0:inf:5"]) == 2


def test_dsmc_cell_size_error_names_its_key(tmp_path, capsys):
    """The cell-size bound is checked by DsmcConfig; its error names the
    line of cell_size_um (20 in this layout), not of dt_s (18)."""
    _, obj = dsmc_config(tmp_path, two_species=False)
    path = tmp_path / "big.json"
    cfg = write_config(path, {**obj, "cell_size_um": 50.0})
    assert _line_of(path, "cell_size_um") == 20
    assert main(["dsmc", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "(line 20)" in err and "cell_size" in err


def test_second_species_error_names_its_own_line(tmp_path, capsys):
    """An error in species[1] points into the second species object, not
    at the same key of the first."""
    _, obj = dsmc_config(tmp_path)
    obj["species"][1] = {**obj["species"][1], "T_uK": math.nan}
    path = tmp_path / "nan.json"
    cfg = write_config(path, obj)
    lines = path.read_text().splitlines()
    second = [i + 1 for i, text in enumerate(lines) if '"T_uK"' in text][1]
    assert main(["dsmc", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"(line {second})" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, obj, change, key, below", [
    ("budget", README_BUDGET, {"N2": 1e9}, "N1_ini", 0),
    ("budget", README_BUDGET, {"eta": 1.5}, "eta", 0),
    ("contact", README_STATE, {"sigma12_m2": -1e-15}, "sigma12_m2", 0),
    # the mF line inside target, not the buffer's mF line above it
    ("trap", README_TRAP, {"target": {"mF": -2}}, "target", 1),
])
def test_constructor_errors_name_their_key(tmp_path, capsys, cmd, obj,
                                           change, key, below):
    """A constructor's DomainError is anchored at the key whose field its
    message names."""
    path = tmp_path / "c.json"
    cfg = write_config(path, {**obj, **change})
    assert main([cmd, "--config", cfg, "--out", str(tmp_path)]) == 2
    line = _line_of(path, key) + below
    assert f"(line {line})" in capsys.readouterr().err


def test_trap_radially_unconfined_names_the_gradient(tmp_path, capsys):
    """G^2/B0 <= C does not close the trap: a config error at the line of
    G_kG_per_cm, exit 2, and nothing written."""
    path = tmp_path / "c.json"
    cfg = write_config(path, {**README_TRAP, "G_kG_per_cm": 0.005})
    out = tmp_path / "out"
    assert main(["trap", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"(line {_line_of(path, 'G_kG_per_cm')})" in err
    assert "does not exceed" in err
    assert not out.exists()


@pytest.mark.parametrize("omega_z", [1e200, 1e-170])
def test_contact_extreme_omega_z_is_config_error(tmp_path, capsys, omega_z):
    """omega_z ** 2 overflows (1e200) or underflows to 0 (1e-170), where
    the sag g / omega_z^2 had no finite value; both lie outside the
    frequency domain: exit 2 at the key's line, not a traceback."""
    keys = ("trap1", "omega_z_rad_per_s")
    obj = _with(contact_state(tmp_path)[1], keys, omega_z)
    cfg = write_config(tmp_path / "extreme.json", obj)
    out = tmp_path / "out"
    assert main(["contact", "--state", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error (line {_written_line(obj, keys)})" in err
    assert "omega_z_rad_per_s" in err
    assert not out.exists()


_TINY_AXES = {"omega_x_rad_per_s": 1e-150, "omega_y_rad_per_s": 1e-150,
              "omega_z_rad_per_s": 1e-140, "gravity_m_per_s2": 0.0}


@pytest.mark.parametrize("trap", ["trap1", "trap2"])
@pytest.mark.parametrize("cmd", ["contact", "traj"])
def test_tiny_trap_axes_are_config_error(tmp_path, capsys, cmd, trap):
    """M omega^2 of these axes underflows to 0, which divided by zero in
    the pair widths (a ZeroDivisionError traceback); they lie outside the
    frequency domain, so exit 2 at the first axis' line."""
    if cmd == "contact":
        keys, obj = (trap,), contact_state(tmp_path)[1]
    else:
        keys, obj = ("initial", trap), traj_config(tmp_path)[1]
    obj = _with(obj, keys, _TINY_AXES)
    cfg = write_config(tmp_path / "tiny.json", obj)
    out = tmp_path / "out"
    assert main([cmd, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    line = _written_line(obj, (*keys, "omega_x_rad_per_s"))
    assert f"config error (line {line})" in err
    assert "key 'omega_x_rad_per_s'" in err and "must lie in" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["contact", "traj"])
def test_cold_clouds_in_stiff_traps_are_config_error(tmp_path, capsys, cmd):
    """omega_x 1e150 in both traps and 1e-30 uK: k_B T / (M omega_x^2)
    underflowed, rho_x was 0 and the collision rate divided by zero (a
    ZeroDivisionError traceback, later exit 1).  Both values lie outside
    the domain: exit 2 at trap1's omega_x."""
    trap = {"omega_x_rad_per_s": 1e150, "omega_y_rad_per_s": 628.3,
            "omega_z_rad_per_s": 628.3, "gravity_m_per_s2": 0.0}
    if cmd == "contact":
        keys, obj = (), contact_state(tmp_path)[1]
    else:
        keys, obj = ("initial",), traj_config(tmp_path,
                                              contact_mode="finite")[1]
    for key, value in (("trap1", trap), ("trap2", trap), ("T1_uK", 1e-30),
                       ("T2_uK", 1e-30)):
        obj = _with(obj, (*keys, key), value)
    cfg = write_config(tmp_path / "cold.json", obj)
    out = tmp_path / "out"
    assert main([cmd, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    line = _written_line(obj, (*keys, "trap1", "omega_x_rad_per_s"))
    assert f"config error (line {line})" in err
    assert "key 'omega_x_rad_per_s'" in err
    assert not out.exists()


def test_traj_events_use_configured_threshold(tmp_path):
    """Instant mode with bec_threshold 1.5: each BEC time is the linear
    interpolation of D through 1.5 between the bracketing traj.csv rows."""
    cfg, _ = traj_config(
        tmp_path, t_end_s=12.0, dt_max_s=0.25, bec_threshold=1.5,
        initial={"N1": 1e6, "N2": 2e4, "T1_uK": 2.0, "T2_uK": 2.0,
                 "M1_amu": 86.909180531, "M2_amu": 86.909180531,
                 "sigma12_m2": 2e-15,
                 "trap1": {**_W, "gravity_m_per_s2": 0},
                 "trap2": {**_W, "gravity_m_per_s2": 0}},
        evaporation={"model": "ramp", "times_s": [0.0, 10.0],
                     "numbers": [1e6, 0.0]})
    assert main(["traj", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in line.split(",")]
                     for line in lines[1:]])
    events = {e["kind"]: e["t"]
              for e in read_json(tmp_path / "traj_events.json")["events"]}
    for kind, d in (("bec1", "D1"), ("bec2", "D2")):
        i = int(np.flatnonzero(rows[:, header.index(kind)] > 0.5)[0])
        (t0, d0), (t1, d1) = rows[i - 1:i + 1, [0, header.index(d)]]
        want = t0 + (1.5 - d0) / (d1 - d0) * (t1 - t0)
        assert events[kind] == pytest.approx(want, rel=1e-12)
        assert t0 < events[kind] < t1


def test_parser_is_built_once():
    from sympcool.cli import build_parser
    assert build_parser() is build_parser()


# ------------------------------------------------------------------- fuzz

# values a mutation puts in place of a config value
_MUTANTS = [math.nan, math.inf, -math.inf, 0, 0.0, -1.0, -7, "text", [],
            [1.0], {}, True, None]
# the instant-mode ramp of _frozen_cases' traj_ramp
_RAMP_TRAJ = {
    "eta": 6.5, "contact_mode": "instant", "t_end_s": 12.0, "dt_max_s": 0.25,
    "initial": {"N1": 1e6, "N2": 2e4, "T1_uK": 2.0, "T2_uK": 2.0,
                "M1_amu": 86.909180531, "M2_amu": 86.909180531,
                "sigma12_m2": 2e-15, "delta_um": 0.0,
                "trap1": {**_W, "gravity_m_per_s2": 0.0},
                "trap2": {**_W, "gravity_m_per_s2": 0.0}},
    "evaporation": {"model": "ramp", "times_s": [0.0, 10.0],
                    "numbers": [1e6, 0.0]}}
# name: (subcommand, config, extra flags); each run takes well under a
# second: a finite traj of 0.5 s, a dsmc of 2 x 300 particles for 0.002 s
_FUZZ_RUNS = {
    "trap": ("trap", README_TRAP, []),
    "budget": ("budget", README_BUDGET, []),
    "contact": ("contact", README_STATE, ["--sweep", "delta:0:40e-6:5",
                                          "--format", "json"]),
    "traj": ("traj", {**README_TRAJ, "t_end_s": 0.5}, []),
    "traj_ramp": ("traj", _RAMP_TRAJ, []),
    "dsmc": ("dsmc", {**README_DSMC, "t_end_s": 0.002, "species": [
        {**sp, "n_test": 300} for sp in README_DSMC["species"]]}, [])}


def _paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _mutate(draw, obj):
    obj = json.loads(json.dumps(obj))
    path = draw(st.sampled_from(sorted(_paths(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    op = draw(st.sampled_from(["drop", "add", "value"]))
    if op == "drop":
        del parent[path[-1]]
    elif op == "add":
        parent[draw(st.sampled_from(["bogus", "T_uK", "eta_"]))] = 1.0
    else:
        parent[path[-1]] = draw(st.sampled_from(_MUTANTS))
    return obj


def _strict(text):
    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_configs_fail_on_a_line_or_write_strict_json(data):
    """A config with dropped or unknown keys, wrong types, non-finite,
    zero or negative values either fails with exit 2 and a line number or
    runs and writes only strict JSON."""
    cmd, base, extra = _FUZZ_RUNS[data.draw(st.sampled_from(
        sorted(_FUZZ_RUNS)))]
    obj = base
    for _ in range(data.draw(st.integers(1, 3))):
        obj = _mutate(data.draw, obj)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "c.json", obj)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([cmd, "--config", cfg, "--out", tmp + "/out", *extra])
        if code == 2:
            assert re.search(r"\(line \d+\)", err.getvalue()), err.getvalue()
        else:
            assert code == 0, err.getvalue()
            for out in (Path(tmp) / "out").glob("*.json"):
                _strict(out.read_text())


# ---------------------------------------- bad values: exit code and line

# each number of a _FUZZ_RUNS config, array items included, is replaced by
# each of these; the magnitudes lie outside the domain of every quantity
# that has one (a dt_s of 1e-300 would ask for an astronomic number of
# steps)
_BAD_VALUES = [math.nan, math.inf, -math.inf, 0, 0.0, -1.0, 1e-300, 1e300]
# recorded before the constructors took over the finiteness and sign
# checks from the CLI schema: the cases that run (exit 0), as
# "run path value" ...
_RUNS_FINE = {
    "trap target.F 0",
    "contact sigma12_m2 0", "contact sigma12_m2 0.0",
    "contact delta_um 0", "contact delta_um 0.0", "contact delta_um -1.0",
    "traj initial.sigma12_m2 0", "traj initial.sigma12_m2 0.0",
    "traj_ramp initial.sigma12_m2 0", "traj_ramp initial.sigma12_m2 0.0",
    "traj_ramp initial.delta_um 0", "traj_ramp initial.delta_um 0.0",
    "traj_ramp initial.delta_um -1.0",
    "traj_ramp evaporation.times_s[0] 0",
    "traj_ramp evaporation.times_s[0] 0.0",
    "traj_ramp evaporation.numbers[1] 0",
    "traj_ramp evaporation.numbers[1] 0.0",
    "dsmc species[0].sigma_self_m2 0", "dsmc species[0].sigma_self_m2 0.0",
    "dsmc species[1].sigma_self_m2 0", "dsmc species[1].sigma_self_m2 0.0",
    "dsmc seed 0",
    *(f"{run} initial.{trap}.gravity_m_per_s2 {v}"
      for run in ("traj", "traj_ramp") for trap in ("trap1", "trap2")
      for v in ("0", "0.0", "-1.0", "1e-300")),
    # a rate-driven ramp without self collisions does not evaporate
    "traj evaporation.sigma_self_m2 0", "traj evaporation.sigma_self_m2 0.0",
    # ... and the magnitudes inside a domain, or of a key without one
    "contact sigma12_m2 1e-300", "contact delta_um 1e-300",
    "dsmc species[0].sigma_self_m2 1e-300",
    "dsmc species[1].sigma_self_m2 1e-300",
    "traj initial.sigma12_m2 1e-300", "traj evaporation.sigma_self_m2 1e-300",
    "traj_ramp initial.sigma12_m2 1e-300", "traj_ramp initial.delta_um 1e-300",
    "traj_ramp evaporation.times_s[1] 1e-300",
    "traj_ramp evaporation.times_s[1] 1e+300",
    "traj_ramp evaporation.numbers[1] 1e-300"}
# ... and the cases that exit 2 at a line other than the value's (an
# array item's line is its array's): the line of this key or section
_ANCHORED_ELSEWHERE = {
    # (F, mF) is not low-field seeking: F is named first
    "trap buffer.mF 0": "buffer.F", "trap target.mF 0": "target.F",
    # the ramp does not start at the initial buffer number
    **{f"traj_ramp evaporation.numbers[0] {v}": "initial"
       for v in ("0", "0.0", "1e-300", "1e+300")},
    # two species that disagree on their cross section
    **{f"dsmc species[{i}].sigma_cross_m2 {v}": "species"
       for i in (0, 1) for v in ("0", "0.0", "1e-300")},
    # the curvatures put a trap frequency out of its domain, or leave the
    # trap radially open: the radial gradient's line
    **{f"trap {key} {v}": "G_kG_per_cm"
       for key in ("B0_gauss", "C_gauss_per_cm2")
       for v in ("1e-300", "1e+300")}}


def _keys(path: str) -> tuple:
    """("species", 0, "T_uK") of "species[0].T_uK"."""
    return tuple(int(k) if k.isdigit() else k
                 for k in re.findall(r"[^.\[\]]+", path))


def _numbers(obj, prefix=""):
    """Path strings of every number in obj, array items included."""
    items = obj.items() if isinstance(obj, dict) else (
        (f"[{i}]", v) for i, v in enumerate(obj))
    for key, value in items:
        path = f"{prefix}{'.' if prefix and key[0] != '[' else ''}{key}"
        if isinstance(value, (dict, list)):
            yield from _numbers(value, path)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path


def _with(obj, keys: tuple, value):
    """A copy of obj with the item at keys replaced; the JSON round trip
    also splits dicts that obj shares between keys."""
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    return obj


def _written_line(obj, keys: tuple) -> int:
    """Line of the item at keys in obj as write_config lays it out."""
    text = json.dumps(_with(obj, keys, "@@"), indent=2)
    return text[:text.index('"@@"')].count("\n") + 1


@pytest.mark.parametrize("run", sorted(_FUZZ_RUNS))
def test_bad_values_keep_their_exit_code_and_line(tmp_path, run):
    """NaN, +-inf, 0, 0.0, -1.0, 1e-300 or 1e300 in place of any number
    of a config gives exit 2 at the value's line (an array item's: its
    array's) with the key named in the message, unless the case is listed
    above; the first six as recorded before the constructors became the
    only owners of finiteness and sign."""
    cmd, base, extra = _FUZZ_RUNS[run]
    cfg = tmp_path / "c.json"
    found, want = {}, {}
    for path in _numbers(base):
        keys = _keys(path)
        for value in _BAD_VALUES:
            case = f"{run} {path} {value!r}"
            write_config(cfg, _with(base, keys, value))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([cmd, "--config", str(cfg),
                             "--out", str(tmp_path / "out"), *extra])
            line = re.search(r"\(line (\d+)\)", err.getvalue())
            found[case] = (code, line and int(line.group(1)))
            if case in _RUNS_FINE:
                want[case] = (0, None)
                continue
            if case in _ANCHORED_ELSEWHERE:
                anchor = _keys(_ANCHORED_ELSEWHERE[case])
            else:
                anchor = keys[:-1] if isinstance(keys[-1], int) else keys
            want[case] = (2, _written_line(base, anchor))
            name = next(k for k in reversed(anchor) if isinstance(k, str))
            if name not in err.getvalue():
                found[case] += (f"{name} not named",)
    assert found == want
    listed = {case for case in (*_RUNS_FINE, *_ANCHORED_ELSEWHERE)
              if case.split()[0] == run}
    assert listed <= set(found)
