"""The package namespace: `slab` and `maxwell` are imported on first use."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpscat as q
from test_cli import LAP_CONFIG

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


def test_lap_command_imports_neither_slab_nor_maxwell(tmp_path):
    cfg = tmp_path / "lap.ini"
    cfg.write_text(LAP_CONFIG)
    done = run_python(["-X", "importtime", "-m", "qpscat.cli", "lap", "--config",
                       str(cfg), "--out", str(tmp_path / "out")], tmp_path)
    assert done.returncode == 0, done.stderr
    imported = [line.split("|")[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "qpscat.lap" in imported
    assert not set(DEFERRED) & set(imported)
    assert (tmp_path / "out" / "lap.json").is_file()


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
