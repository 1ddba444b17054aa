"""The package namespace: `slab` and `maxwell` are imported on first use, and
a CLI run loads neither OpenSSL nor `numpy.polynomial`."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpscat as q
from qpscat.cli import load_config
from qpscat.helmholtz import _gauss_legendre
from test_cli import LAP_CONFIG, SLAB_SOLVE
from test_reports_golden import CASES, GOLDEN

SRC = str(Path(q.__file__).resolve().parents[1])
DEFERRED = ("qpscat.slab", "qpscat.maxwell")
SLAB_EXPORTS = ("BrillouinMap", "DispersionRoot", "SlabParams", "brillouin_map",
                "dispersion_residual", "find_dispersion_roots", "guided_mode_profile",
                "no_mode_determinant", "transfer_matrix_scattering",
                "write_brillouin_csv")
MAXWELL_EXPORTS = ("FieldSegment", "MaxwellIncidence", "ModeField", "TangentialField",
                   "calderon_apply", "calderon_forms", "calderon_halfspace_oracle",
                   "calderon_pairing", "divergence_close", "gradient_trace_field",
                   "gradient_trace_form", "incident_trace_vector",
                   "incident_trace_vector_assembled", "incident_trace_vector_dk",
                   "maxwell_constraint_residual", "maxwell_slab_determinant")


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, text=True,
                          capture_output=True, timeout=120)


def test_import_loads_neither_slab_nor_maxwell(tmp_path):
    probe = ("import sys, qpscat; "
             f"print([m for m in {DEFERRED!r} if m in sys.modules])")
    done = run_python(["-c", probe], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_library_imports_neither_test_tool(tmp_path):
    probe = ("import sys, qpscat, qpscat.cli, qpscat.slab, qpscat.maxwell; "
             "print([m for m in ('pytest', 'hypothesis') if m in sys.modules])")
    done = run_python(["-c", probe], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def imported_modules(args, cwd) -> set[str]:
    """The modules `python -X importtime <args>` lists."""
    done = run_python(["-X", "importtime", *args], cwd)
    assert done.returncode == 0, done.stderr
    return {line.split("|")[-1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}


def run_command(command, config, tmp_path) -> set[str]:
    """The modules one `qpscat <command>` process imports; its report is written."""
    cfg = tmp_path / f"{command}.ini"
    cfg.write_text(config)
    out = tmp_path / f"{command}-out"
    imported = imported_modules(["-m", "qpscat.cli", command, "--config", str(cfg),
                                 "--out", str(out)], tmp_path)
    assert "qpscat.helmholtz" in imported and any(out.iterdir())
    return imported


def test_lap_command_imports_neither_slab_nor_maxwell(tmp_path):
    imported = run_command("lap", LAP_CONFIG, tmp_path)
    assert "qpscat.lap" in imported
    assert not set(DEFERRED) & imported


@pytest.mark.parametrize("command", ["lap", "solve"])
def test_cli_run_loads_neither_openssl_nor_numpy_polynomial(tmp_path, command):
    # numpy 1.x imports numpy.polynomial itself: only what a bare
    # `import numpy` leaves out is the command's own
    config = LAP_CONFIG if command == "lap" else SLAB_SOLVE
    own = run_command(command, config, tmp_path) \
        - imported_modules(["-c", "import numpy"], tmp_path)
    assert not [m for m in own if m == "_hashlib" or m == "numpy.polynomial"
                or m.startswith("numpy.polynomial.")]


@pytest.mark.parametrize("name", sorted(CASES))
def test_config_hash_is_the_sha256_of_the_resolved_config(tmp_path, name):
    command, _, text = CASES[name]
    path = tmp_path / "run.ini"
    path.write_text(text.format(path=tmp_path / "medium.dat"), encoding="utf-8")
    cfg = load_config(path, command)
    lines = [f"command={command}"] + [f"{sec}.{key}={val}"
                                      for sec in sorted(cfg.sections)
                                      for key, val in sorted(cfg.sections[sec].items())]
    assert cfg.config_hash() == hashlib.sha256("\n".join(lines).encode()).hexdigest()
    if "{path}" not in text:  # the config names no temporary file: the golden's hash
        report = GOLDEN / name / {"solve": "rayleigh.json"}.get(command, f"{command}.json")
        assert json.loads(report.read_text(encoding="utf-8"))["config_sha256"] \
            == cfg.config_hash()


def test_gauss_legendre_rule_matches_numpy():
    # above M = 128 leggauss's end weights drift (6.8e-10 relative, 3.1e-14
    # absolute at M = 406, and x^(2M - 2) off by up to 9.2e-14), so there the
    # weights are held to 5e-14 and this rule's exactness to 1e-15
    leggauss = np.polynomial.legendre.leggauss
    for M in [*range(2, 65), 100, 128, 255, 256, 406, 511, 512]:
        t, w = _gauss_legendre(M)
        T, W = leggauss(M)
        assert np.max(np.abs(t - T)) <= 2e-16, M
        assert np.max(np.abs(w - W)) <= (1e-14 if M <= 128 else 5e-14), M
        p, exact = 2 * M - 2, 2 / (2 * M - 1)
        assert abs(w @ t ** p - exact) <= 1e-15, M
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1]), M


@pytest.mark.parametrize("module, names", [("slab", SLAB_EXPORTS),
                                           ("maxwell", MAXWELL_EXPORTS)])
def test_deferred_exports_resolve_to_their_module_objects(module, names):
    mod = getattr(q, module)
    assert mod is sys.modules[f"qpscat.{module}"]
    listed = dir(q)
    for name in names:
        assert getattr(q, name) is getattr(mod, name)
        assert name in listed
    assert module in listed


def test_from_import_of_a_deferred_name():
    from qpscat import SlabParams
    from qpscat.slab import SlabParams as direct
    assert SlabParams is direct


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        q.no_such_name
    assert not hasattr(q, "no_such_name")
