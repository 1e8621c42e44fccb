"""Command-line surface: exit codes, file formats, manifests, determinism."""

import hashlib
import json
import math
import subprocess
import sys

import pytest

from sympcool import MASS_RB87, constants_table
from sympcool.cli import main
from sympcool.constants import K_B

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


def test_contact_sweep_validation(tmp_path, capsys):
    cfg, _ = contact_state(tmp_path)
    assert main(["contact", "--state", cfg, "--out", str(tmp_path),
                 "--sweep", "bogus:0:1:10"]) == 2
    assert "sweep" in capsys.readouterr().err.lower()
    assert main(["contact", "--state", cfg, "--out", str(tmp_path),
                 "--sweep", "delta:0:1:1"]) == 2
    assert main(["contact", "--state", cfg, "--out", str(tmp_path),
                 "--sweep", "T:abc:1:5"]) == 2


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


def test_traj_rejects_unknown_evaporation(tmp_path, capsys):
    cfg, _ = traj_config(tmp_path,
                         evaporation={"model": "magic"})
    assert main(["traj", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "model" in capsys.readouterr().err


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


# ------------------------------------------------------------ entry point

def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "sympcool.cli",
                           "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
