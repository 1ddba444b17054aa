"""Batch front-end: config parsing, command dispatch, reports, exit codes."""
import json

import numpy as np
import pytest

import qpscat as q
from qpscat.cli import load_config, main, run

K_EX = float(np.pi / (2 * np.sqrt(2)))
ALPHA_EX = float(1 - np.pi * np.sqrt(3) / 4)

SLAB_SOLVE = """
[incidence]
k = 1.0
theta1 = 0.0
theta2 = 0.0
h = 1.0

[medium]
kind = homogeneous
q0 = 2.0

[discretization]
N = 0
M = 32
"""

LAP_CONFIG = f"""
[run]
command = lap

[incidence]
k = {K_EX!r}
alpha = {ALPHA_EX!r},0.0
h = 1.0

[medium]
kind = homogeneous
q0 = 2.0

[discretization]
N = 2
M = 24

[lap]
eps_start = 0.1
eps_levels = 8
"""

DISPERSION_CONFIG = f"""
[incidence]
k = {K_EX!r}
theta1 = 0.0
theta2 = 0.0
h = 1.0

[slab]
q0 = 2.0
parity = even
grid = 128
"""


def write_cfg(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestSolveCommand:
    def test_matches_transfer_oracle(self, tmp_path):
        cfg = write_cfg(tmp_path, SLAB_SOLVE)
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "rayleigh.json").read_text())
        inc = q.IncidenceSpec.from_angles(1.0, 0.0, 0.0, 1.0)
        rd = q.transfer_matrix_scattering(q.SlabParams(q0=2.0, h=1.0, k=1.0), inc)
        got = complex(*payload["u_plus"]["0,0"])
        assert abs(got - rd.u_plus[(0, 0)]) < 1e-10
        assert payload["config_sha256"]
        assert payload["version"] == q.__version__
        eff = (out / "efficiencies.csv").read_text().splitlines()
        assert eff[0].split(",")[-1] == "balance_residual"
        assert len(eff) == 2

    def test_golden_stability(self, tmp_path):
        cfg = write_cfg(tmp_path, SLAB_SOLVE)
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "rayleigh.json").read_bytes())
        assert outs[0] == outs[1]

    def test_near_singular_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, LAP_CONFIG)
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_strict_escalates_hypothesis_warning(self, tmp_path):
        text = SLAB_SOLVE.replace("q0 = 2.0", "q0 = 0.3").replace(
            "theta1 = 0.0", "theta1 = 1.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "a")]) == 0
        assert main(["solve", "--config", str(cfg), "--strict", "--out",
                     str(tmp_path / "b")]) == 4

    def test_override(self, tmp_path):
        cfg = write_cfg(tmp_path, SLAB_SOLVE)
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(cfg), "--out", str(out),
                   "--override", "medium.q0=1.0"])
        assert rc == 0
        payload = json.loads((out / "rayleigh.json").read_text())
        assert abs(complex(*payload["u_plus"]["0,0"])) < 1e-12


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_missing_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "[incidence]\nk = 1.0\n")
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 2

    def test_bad_override(self, tmp_path):
        cfg = write_cfg(tmp_path, SLAB_SOLVE)
        assert main(["solve", "--config", str(cfg), "--override", "nonsense"]) == 2

    def test_bad_value(self, tmp_path):
        cfg = write_cfg(tmp_path, SLAB_SOLVE.replace("k = 1.0", "k = banana"))
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, override", [
        ("lap", "lap.eps_start=nan"),
        ("lap", "lap.eps_start=inf"),
        ("lap", "lap.eps_start=-0.1"),
        ("lap", "lap.eps_levels=1100"),  # the last level underflows to 0
        ("modes", "lap.svd_threshold=nan"),
        ("modes", "lap.svd_threshold=inf"),
        ("modes", "lap.svd_threshold=0"),
        ("modes", "lap.svd_threshold=1"),
    ])
    def test_bad_lap_setting_is_a_config_error(self, tmp_path, capsys, command,
                                               override):
        cfg = write_cfg(tmp_path, LAP_CONFIG)
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--override", override])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")


class TestModesCommand:
    def test_kernel_report(self, tmp_path):
        text = LAP_CONFIG.replace("command = lap", "command = modes")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "modes.json").read_text())
        assert payload["kernel_dimension"] == 1
        assert payload["singular_values"][0] < 1e-10 * payload["sigma_max"]
        tails = payload["tail_coefficients"][0]
        assert "-1,0" in tails


class TestLapCommand:
    def test_sweep_and_report(self, tmp_path):
        cfg = write_cfg(tmp_path, LAP_CONFIG)
        out = tmp_path / "out"
        assert main(["lap", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "lap.json").read_text())
        assert payload["kernel_dimension"] == 1
        assert 0.8 <= payload["slope"] <= 1.2
        assert payload["two_step_agreement"] < 1e-8
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 8
        deltas = [float(r.split(",")[1]) for r in lines[1:]]
        assert deltas[-1] < deltas[0]


class TestDispersionCommand:
    def test_roots_and_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, DISPERSION_CONFIG)
        out = tmp_path / "out"
        assert main(["dispersion", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "dispersion.json").read_text())
        assert len(payload["roots"]) == 1
        assert payload["roots"][0]["abs_alpha"] == pytest.approx(
            np.pi * np.sqrt(3) / 4, abs=1e-9)
        assert payload["cutoff_cells"] > 0 and payload["propagative_cells"] > 0
        lines = (out / "brillouin.csv").read_text().splitlines()
        assert lines[0] == "alpha1,alpha2,class"
        # two circle families present
        classes = {row.split(",")[2] for row in lines[1:]}
        assert {"1", "2"} <= classes


class TestSlabCommand:
    def test_analytic_scattering(self, tmp_path):
        text = SLAB_SOLVE + "\n[slab]\nq0 = 2.0\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["slab", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "rayleigh.json").read_text())
        assert payload["balance_residual"] < 1e-12


class TestMaxwellCheckCommand:
    def test_property_report(self, tmp_path):
        cfg = write_cfg(tmp_path, SLAB_SOLVE)
        out = tmp_path / "out"
        assert main(["maxwell-check", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "maxwell_checks.json").read_text())
        assert payload["calderon_two_route_max_err"] < 1e-12
        assert payload["im_form_min"] >= -1e-12
        assert payload["maxwell_slab_determinant_min"] > 0
        assert payload["incident_trace_two_route_max_err"] < 1e-12


def test_command_from_run_section(tmp_path):
    cfg = write_cfg(tmp_path, LAP_CONFIG)
    rc = run(load_config(cfg, command=None, out_dir=str(tmp_path / "o")))
    assert rc == 0


def test_sampled_medium_through_cli(tmp_path):
    # a transversely constant sampled grid must reproduce the slab answer
    med_path = tmp_path / "medium.dat"
    q.save_sampled_medium(med_path, np.full((8, 8, 4), 2.0), 1.0)
    text = SLAB_SOLVE.replace(
        "kind = homogeneous\nq0 = 2.0",
        f"kind = sampled\npath = {med_path}")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "rayleigh.json").read_text())
    inc = q.IncidenceSpec.from_angles(1.0, 0.0, 0.0, 1.0)
    rd = q.transfer_matrix_scattering(q.SlabParams(q0=2.0, h=1.0, k=1.0), inc)
    got = complex(*payload["u_plus"]["0,0"])
    assert abs(got - rd.u_plus[(0, 0)]) < 1e-10


def test_aliased_medium_exits_3_with_one_line_error(tmp_path, capsys):
    # 4 points per period cannot resolve the couplings of N = 2 (needs 10)
    med_path = tmp_path / "medium.dat"
    x = 2 * np.pi * np.arange(4) / 4
    q.save_sampled_medium(med_path, (2.0 + 0.5 * np.cos(x))[:, None, None]
                          * np.ones((4, 4, 1)), 1.0)
    text = SLAB_SOLVE.replace(
        "kind = homogeneous\nq0 = 2.0",
        f"kind = sampled\npath = {med_path}").replace("N = 0", "N = 2").replace(
        "k = 1.0", "k = 1.3")
    cfg = write_cfg(tmp_path, text)
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "too coarse" in err[0]


def test_oversized_operator_exits_3_with_one_line_error(tmp_path, capsys):
    # N = 40, M = 64 on a sampled medium: a dense operator of about 2.8 TB
    med_path = tmp_path / "medium.dat"
    q.save_sampled_medium(med_path, np.full((4, 4, 1), 2.0), 1.0)
    text = SLAB_SOLVE.replace(
        "kind = homogeneous\nq0 = 2.0",
        f"kind = sampled\npath = {med_path}").replace("N = 0", "N = 40").replace(
        "M = 32", "M = 64")
    cfg = write_cfg(tmp_path, text)
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "physical memory" in err[0]


def test_sampled_file_h_mismatch_is_a_config_error(tmp_path, capsys):
    # the file says h = 2, the [incidence] section h = 1
    med_path = tmp_path / "medium.dat"
    q.save_sampled_medium(med_path, np.full((8, 8, 4), 2.0), 2.0)
    text = SLAB_SOLVE.replace(
        "kind = homogeneous\nq0 = 2.0",
        f"kind = sampled\npath = {med_path}")
    cfg = write_cfg(tmp_path, text)
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: ") and "h = 2.0" in err[0]
