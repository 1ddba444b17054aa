"""Batch front-end: config parsing, command dispatch, reports, exit codes."""
import json
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import qpscat as q
from qpscat.cli import load_config, main, run
from test_reports_golden import run_case

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

    @pytest.mark.parametrize("override, got", [
        ("lap.eps_start=0", "eps_start=0.0, eps_levels=8"),
        ("lap.eps_start=-1", "eps_start=-1.0, eps_levels=8"),
        ("lap.eps_start=nan", "eps_start=nan, eps_levels=8"),
        ("lap.eps_levels=1", "eps_start=0.1, eps_levels=1"),
    ])
    def test_bad_eps_schedule_names_what_it_got(self, tmp_path, capsys, override, got):
        cfg = write_cfg(tmp_path, LAP_CONFIG)
        rc = main(["lap", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--override", override])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: eps_start must be")
        assert err[0].endswith(f", got {got}")

    @pytest.mark.parametrize("command, overrides", [
        ("dispersion", "slab.parity=sideways"),
        ("dispersion", "slab.parity=sideways slab.q0=0.5"),  # no roots to find
        ("dispersion", "slab.grid=0"),
        ("dispersion", "slab.grid=-3"),
        ("dispersion", "slab.mode_radius=abc"),
        ("dispersion", "slab.mode_radius=-1"),
        ("dispersion", "slab.mode_radius=inf"),
        ("dispersion", "slab.q0=nan"),
        ("dispersion", "slab.q0=inf"),
        ("dispersion", "slab.q0=0"),
        ("slab", "slab.q0=0"),
        ("slab", "slab.q0=-2"),
        ("slab", "slab.q0=nan"),
    ])
    def test_bad_slab_setting_is_a_config_error(self, tmp_path, capsys, command,
                                                overrides):
        cfg = write_cfg(tmp_path, DISPERSION_CONFIG)
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        for ov in overrides.split():
            argv += ["--override", ov]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not any(out.iterdir())  # refused before any report is written

    @pytest.mark.parametrize("raw", [
        b"k = 1.0\n[incidence]\nh = 1.0\n",               # no section header first
        b"[incidence]\nk = 1.0\nk = 2.0\n",               # a duplicated key
        b"[medium]\nkind = homogeneous\n[incidence\nk = 1.0\n",  # unclosed header
        b"\xff\xfe[\x00i\x00n\x00c\x00]\x00",              # UTF-16 bytes: not UTF-8
    ], ids=["no_section", "duplicate_key", "unclosed_header", "not_utf8"])
    def test_malformed_config_file(self, tmp_path, capsys, raw):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(raw)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_medium_path(self, tmp_path, capsys, monkeypatch, where):
        path = tmp_path / "medium.txt"
        if where == "directory":
            path.mkdir()
        cfg = write_cfg(tmp_path, SLAB_SOLVE)
        out = tmp_path / "o"
        assemble = []
        monkeypatch.setattr(q.cli, "assemble", lambda *a: assemble.append(a))
        rc = main(["solve", "--config", str(cfg), "--out", str(out),
                   "--override", "medium.kind=sampled",
                   "--override", f"medium.path={path}"])
        assert rc == 2 and assemble == []
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: bad medium")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("header, values", [
        ("n1 -1\nn2 -1\nn3 1", "2.0"),  # once numpy's "one unknown dimension"
        ("n1 0\nn2 1\nn3 1", ""),       # once a reduction of an empty grid
    ], ids=["negative", "zero"])
    def test_medium_size_below_one(self, tmp_path, capsys, header, values):
        path = tmp_path / "medium.dat"
        path.write_text(f"qpscat-medium v1\n{header}\nh 1.0\ndata csv\n{values}\n")
        cfg = write_cfg(tmp_path, SLAB_SOLVE)
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--override", "medium.kind=sampled",
                   "--override", f"medium.path={path}"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: bad medium")
        assert "header key n1" in err[0]

    @pytest.mark.parametrize("source", ["layers", "file"])
    def test_non_finite_medium_bound(self, tmp_path, capsys, source):
        # NaN compares False: a NaN layer bound once passed the tiling check
        # and a NaN file h the h-mismatch check
        if source == "layers":
            overrides = ["medium.kind=slab", "medium.layers=-1:nan:1.5,0.2:1:2.0"]
        else:
            path = tmp_path / "medium.dat"
            q.save_sampled_medium(path, np.full((8, 8, 1), 2.0), float("nan"))
            assert "\nh nan\n" in path.read_text()
            overrides = ["medium.kind=sampled", f"medium.path={path}"]
        cfg = write_cfg(tmp_path, SLAB_SOLVE)
        argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]
        rc = main(argv + [a for o in overrides for a in ("--override", o)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: bad medium")
        assert "finite" in err[0]

    @pytest.mark.parametrize("layers, piece", [
        ("-1:0:2.0,0:1", "0:1"),  # once "not enough values to unpack"
        ("-1:1:2:3", "-1:1:2:3"),  # once "too many values to unpack"
        ("", ""),
        ("a:1:2", "a:1:2"),  # once float()'s message
    ], ids=["two_values", "four_values", "empty", "not_a_number"])
    def test_bad_layers_piece_is_named(self, tmp_path, capsys, layers, piece):
        cfg = write_cfg(tmp_path, SLAB_SOLVE)
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--override", "medium.kind=slab", "--override", f"medium.layers={layers}"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"config error: bad medium: layers piece {piece!r} must be "
                       f"z0:z1:q, three numbers"]

    def test_output_path_is_a_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SLAB_SOLVE)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert out.read_text() == "not a directory\n"


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
    def test_run_holds_at_most_two_operators(self, tmp_path, monkeypatch):
        # A(0) and A'(0) of a constrained solve; the kernel's A(0) is not kept
        live, peak, init = [], [0], q.DiscreteOperator.__init__

        def tracking(op, *args, **kwargs):
            init(op, *args, **kwargs)
            live.append(weakref.ref(op))
            peak[0] = max(peak[0], sum(r() is not None for r in live))

        monkeypatch.setattr(q.DiscreteOperator, "__init__", tracking)
        run_case("lap_guided_sampled", tmp_path)
        assert peak == [2]

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

    @pytest.mark.parametrize("levels", [2, 5])
    def test_short_schedule_writes_strict_json_with_null_slope(self, tmp_path, levels):
        # the slope fit starts at the fifth level and needs two points, so
        # 2..5 levels leave it undefined: null, never the non-JSON NaN
        cfg = write_cfg(tmp_path, LAP_CONFIG)
        out = tmp_path / "out"
        assert main(["lap", "--config", str(cfg), "--out", str(out),
                     "--override", f"lap.eps_levels={levels}"]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads((out / "lap.json").read_text(), parse_constant=reject)
        assert payload["slope"] is None
        assert payload["kernel_dimension"] == 1


@pytest.mark.parametrize("command, override", [
    ("lap", "lap.eps_start=1e160"),   # k^2 overflows at the first eps level
    ("lap", "lap.eps_start=1e200"),
    ("lap", "lap.eps_start=1e154"),   # k^2 is finite, the load e^{-ikh cos t1} is not
    ("lap", "lap.eps_start=1e3"),     # so is every beta_n^2
    ("lap", "incidence.k=1e200"),
    ("solve", "incidence.k=1e200"),
])
def test_overflowing_wavenumber_exits_3_with_one_line_error(tmp_path, capsys, command,
                                                            override):
    cfg = write_cfg(tmp_path, LAP_CONFIG)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out), "--override", override])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "overflows double precision" in err[0]
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["dispersion", "slab"])
@pytest.mark.parametrize("k", ["1e300", "1e154"])  # k^2 q0 overflows, k^2 too at 1e300
def test_overflowing_slab_wavenumber_exits_3_with_one_line_error(tmp_path, capsys,
                                                                 command, k):
    cfg = write_cfg(tmp_path, DISPERSION_CONFIG)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out),
               "--override", f"incidence.k={k}"])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "overflows double precision" in err[0]
    assert not any(out.iterdir())


H_OVERFLOW_CONFIG = """
[incidence]
k = 1.0
theta1 = 0.3
h = 1e300

[medium]
kind = homogeneous
q0 = 2.0

[discretization]
N = 1
M = 17
depth_scheme = finite_difference_order2
"""


@pytest.mark.parametrize("command", ["solve", "modes", "lap"])
def test_overflowing_whitened_operator_exits_3_with_one_line_error(tmp_path, capsys,
                                                                   command):
    # the raw blocks are finite at h = 1e300, the whitened ones are not
    cfg = write_cfg(tmp_path, H_OVERFLOW_CONFIG)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "whitened operator overflows" in err[0]
    assert not any(out.iterdir())


EXTREME_H_CONFIG = """
[incidence]
k = 1.0
theta1 = 0.3
h = 1.0

[medium]
kind = homogeneous
q0 = 2.0

[discretization]
N = 1
M = 16
"""


@pytest.mark.parametrize("command, overrides", [
    ("solve", "incidence.h=1e-310"),
    ("modes", "incidence.h=1e-310"),
    ("lap", "incidence.h=1e-310"),
    ("solve", "incidence.h=1e308"),
    ("solve", "incidence.h=1e308 discretization.M=17 "
              "discretization.depth_scheme=finite_difference_order2"),
    ("modes", "incidence.h=1e-310 discretization.M=17 "
              "discretization.depth_scheme=finite_difference_order2"),
])
def test_overflowing_depth_grid_exits_3_with_one_line_error(tmp_path, capsys, command,
                                                            overrides):
    # refused before eigh of a non-finite W, with no numpy warning line
    cfg = write_cfg(tmp_path, EXTREME_H_CONFIG)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    rc = main(argv + [a for o in overrides.split() for a in ("--override", o)])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: depth grid overflows double precision")
    assert not any(out.iterdir())


@pytest.mark.parametrize("h", ["1e200", "1e300"])
def test_indefinite_weighted_product_exits_3_with_one_line_error(tmp_path, capsys, h):
    # a finite Chebyshev grid at M = 16 whose W_0 is not positive definite
    # in double precision: a DomainError that names h and M
    cfg = write_cfg(tmp_path, EXTREME_H_CONFIG)
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfg), "--out", str(out),
               "--override", f"incidence.h={h}"])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: weighted inner product not positive definite in double "
                   f"precision at h = {float(h):.6g}, M = 16"]
    assert not any(out.iterdir())


@pytest.mark.parametrize("override, code, prefix", [
    ("incidence.theta2=inf", 2, "config error: "),
    ("incidence.theta1=nan", 2, "config error: "),
    ("incidence.k=inf", 2, "config error: "),
    ("incidence.alpha=0.1,1e300", 3, "error: "),  # sin^2(theta1) overflows
])
def test_non_finite_incidence_gives_one_line(tmp_path, capsys, override, code, prefix):
    # refused before any trigonometry or overflowing product warns
    cfg = write_cfg(tmp_path, EXTREME_H_CONFIG)
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfg), "--out", str(out), "--override", override])
    assert rc == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix)
    assert not any(out.iterdir())


@pytest.mark.parametrize("source, alpha", [("theta1 = 0.3", "(0.29552020666133955, 0.0)"),
                                           ("alpha = 0.3,0.0", "(0.3, 0.0)")])
def test_non_finite_h_names_plain_floats(tmp_path, capsys, source, alpha):
    # from_angles and from_alpha store alpha as Python floats, not numpy scalars
    cfg = write_cfg(tmp_path, EXTREME_H_CONFIG.replace("theta1 = 0.3", source))
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfg), "--out", str(out),
               "--override", "incidence.h=inf"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: k, h and alpha must be finite, got "
                   f"k=(1+0j), h=inf, alpha={alpha}"]
    assert not any(out.iterdir())


def test_overflowing_beta_squared_prints_no_numpy_warning(tmp_path, capsys):
    # sin^2(theta1) = 1e300 is finite and breaks the uniqueness hypotheses;
    # |n + alpha|^2 overflows, and assembly refuses it
    cfg = write_cfg(tmp_path, EXTREME_H_CONFIG)
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"),
               "--override", "incidence.alpha=0.1,1e160",
               "--override", "incidence.k=1e10"])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2
    assert err[0].startswith("warning: ") and "uniqueness hypotheses" in err[0]
    assert err[1].startswith("error: beta_n^2 overflows double precision")


@pytest.mark.parametrize("k", ["1e-160", "1e-200"])
@pytest.mark.parametrize("command", ["solve", "modes", "lap"])
def test_underflowing_k_squared_exits_3_with_one_line_error(tmp_path, capsys, command, k):
    # k^2 is subnormal or 0: refused before any beta_n, not a silent cut-off
    cfg = write_cfg(tmp_path, EXTREME_H_CONFIG)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out),
               "--override", f"incidence.k={k}"])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: k^2 underflows double precision at k = {k}")
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["solve", "modes", "lap"])
def test_overflowing_medium_term_exits_3_with_one_line_error(tmp_path, capsys, command):
    # k^2 = 1e10 and every beta_n^2 are finite, k^2 (q - 1) is not
    cfg = write_cfg(tmp_path, EXTREME_H_CONFIG)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out),
               "--override", "medium.q0=1e300", "--override", "incidence.k=1e5"])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: the (q - 1) term of the operator overflows")
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, overrides, hint", [
    # the real-k operator of a plain solve: route to the LAP tools
    ("solve", [], "run the 'modes' and 'lap' commands instead"),
    # an eps level of the lap schedule itself: the schedule is to change
    ("lap", ["lap.eps_start=1e-12"], "raise lap.eps_start"),
    # a threshold below the singular direction leaves the kernel empty, so the
    # plain solve at eps = 0 is refused: the threshold is to change
    ("lap", ["lap.svd_threshold=1e-17"], "raise lap.svd_threshold"),
])
def test_near_singular_hint_names_the_remedy(tmp_path, capsys, command, overrides, hint):
    cfg = write_cfg(tmp_path, LAP_CONFIG)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv + [a for o in overrides for a in ("--override", o)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2
    assert err[0].startswith("error: ") and "numerically singular" in err[0]
    assert err[1].startswith("hint: ") and err[1].endswith(hint)


@pytest.mark.parametrize("override", ["medium.q0=1e200", "medium.q0=1e300",
                                      "lap.eps_start=1e-320"])
def test_extreme_lap_setting_exits_0_with_no_stderr(tmp_path, capsys, override):
    # q0 = 1e200 leaves a field whose squares underflow; eps_start = 1e-320 a
    # subnormal eps step.  A RuntimeWarning would fail the test.
    text = SLAB_SOLVE.replace("theta1 = 0.0", "theta1 = 0.3").replace(
        "N = 0", "N = 1").replace("M = 32", "M = 16")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    rc = main(["lap", "--config", str(cfg), "--out", str(out), "--override", override])
    assert rc == 0
    assert capsys.readouterr().err.strip().splitlines() == []
    payload = json.loads((out / "lap.json").read_text())
    assert 0.0 <= payload["final_relative_delta"] < 1e-3
    assert payload["two_step_agreement"] < 1e-10


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


    def test_grid_beyond_physical_memory_exits_3_with_one_line_error(self, tmp_path,
                                                                      capsys):
        # 10^7 x 10^7 cells: petabytes of map, refused before any is allocated
        cfg = write_cfg(tmp_path, DISPERSION_CONFIG)
        out = tmp_path / "out"
        t0 = time.perf_counter()
        rc = main(["dispersion", "--config", str(cfg), "--out", str(out),
                   "--override", "slab.grid=10000000"])
        assert time.perf_counter() - t0 < 5.0
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "physical memory" in err[0]
        assert not (out / "brillouin.csv").exists()


class TestSlabCommand:
    def test_analytic_scattering(self, tmp_path):
        text = SLAB_SOLVE + "\n[slab]\nq0 = 2.0\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["slab", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "rayleigh.json").read_text())
        assert payload["balance_residual"] < 1e-12

    @pytest.mark.parametrize("k", ["1e-200", "1e-300"])
    def test_underflowing_wavenumber_exits_3_with_one_line_error(self, tmp_path,
                                                                 capsys, k):
        # the transfer-matrix system is singular in floating point below
        # k of about 1e-162; 1e-100 still solves
        cfg = write_cfg(tmp_path, SLAB_SOLVE + "\n[slab]\nq0 = 2.0\n")
        out = tmp_path / "out"
        rc = main(["slab", "--config", str(cfg), "--out", str(out),
                   "--override", f"incidence.k={k}"])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "singular" in err[0]
        assert not (out / "rayleigh.json").exists()


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


def test_one_sample_per_period_file_is_its_slab_stack(tmp_path):
    # a 1 x 1 x 3 file is the stack of its three cells: once an AliasError
    med_path = tmp_path / "medium.dat"
    q.save_sampled_medium(med_path, np.array([2.0, 3.2, 1.4])[None, None], 1.0)
    text = SLAB_SOLVE.replace("N = 0", "N = 1").replace("theta1 = 0.0", "theta1 = 0.3")
    cfg = write_cfg(tmp_path, text)
    z = np.linspace(-1.0, 1.0, 4).tolist()
    layers = ",".join(f"{a!r}:{b!r}:{v}" for a, b, v in zip(z, z[1:], (2.0, 3.2, 1.4)))
    reports = []
    for name, overrides in (("file", ["medium.kind=sampled", f"medium.path={med_path}"]),
                            ("slab", ["medium.kind=slab", f"medium.layers={layers}"])):
        out = tmp_path / name
        argv = ["solve", "--config", str(cfg), "--out", str(out)]
        assert main(argv + [a for o in overrides for a in ("--override", o)]) == 0
        payload = json.loads((out / "rayleigh.json").read_text())
        reports.append({s: payload[s] for s in ("u_plus", "u_minus")})
    assert reports[0] == reports[1]


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


def test_operator_and_space_beyond_memory_exit_3_before_the_space(tmp_path, capsys,
                                                                   monkeypatch):
    # N = 300, M = 16 on a homogeneous layer with 4 GiB of memory: its two
    # operators' stacks take 2.8 GiB, its space's W and F 1.4 GiB more, its
    # whitened pieces 0.4 GiB and the table's whitened c0 0.2 GiB;
    # refused before the space is built, with nothing large allocated
    def no_space(*args):
        raise AssertionError("FieldSpace built")

    monkeypatch.setattr(q.helmholtz.os, "sysconf", lambda name:
                        4096 if name == "SC_PAGE_SIZE" else 4 * 2 ** 30 // 4096)
    monkeypatch.setattr(q.helmholtz.FieldSpace, "__init__", no_space)
    cfg = write_cfg(tmp_path, SLAB_SOLVE.replace("N = 0", "N = 300").replace("M = 32", "M = 16"))
    tracemalloc.start()
    try:
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3 and peak < 16e6
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "needs 4.697 GiB" in err[0]


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
