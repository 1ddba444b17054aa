"""CLI reports against stored golden copies, field by field.

Each case writes its config (and sampled medium, if any) to a temporary
directory, runs the command in-process and compares every report with the
copy under tests/golden/<case>/: numbers at rel=1e-12, abs=1e-12, strings
exactly.  `config_sha256` hashes the temporary medium path and is skipped.
`slope`, a log-log least-squares fit over eps down to 1e-4, is compared at
rel=1e-10: its round-off floor is about 1e-11, so a reordered LU or another
BLAS thread count moves it past 1e-12 while every other field stays put.

Regenerate the goldens (only when a report change is intended) with

    PYTHONPATH=src python tests/test_reports_golden.py
"""
import csv
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import qpscat as q
from qpscat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = ATOL = 1e-12
#: relative tolerance of the fields named here, in place of RTOL
FIELD_RTOL = {"slope": 1e-10}
K_GUIDED = float(np.pi / (2 * np.sqrt(2)))
ALPHA_GUIDED = float(1 - np.pi * np.sqrt(3) / 4)


def disc_inclusion(n=16, q_in=2.5, q_out=1.5, radius=0.35 * 2 * np.pi):
    """z-invariant disc of index q_in in a square of index q_out, n x n x 1."""
    x = (np.arange(n) + 0.5) * 2 * np.pi / n
    r2 = (x[:, None] - np.pi) ** 2 + (x[None, :] - np.pi) ** 2
    return np.where(r2 < radius ** 2, q_in, q_out)[:, :, None]


def sampled_stack(n=12):
    """Three depth cells, each varying in x1 and x2 differently."""
    x = 2 * np.pi * np.arange(n) / n
    c1, s2 = np.cos(x)[:, None], np.sin(x)[None, :]
    cells = [1.8 + 0.4 * c1 + 0.2 * s2, 2.4 - 0.3 * c1 * s2, 1.4 + 0.3 * s2 ** 2]
    return np.stack([np.broadcast_to(c, (n, n)) for c in cells], axis=2)


def guided_q2(n=16):
    return np.full((n, n, 1), 2.0)


GUIDED = f"""
[incidence]
k = {K_GUIDED!r}
alpha = {ALPHA_GUIDED!r},0.0
h = 1.0
"""

CASES = {
    "solve_inclusion": ("solve", disc_inclusion, """
[incidence]
k = 1.3
theta1 = 0.3
theta2 = 0.7
h = 1.0
[medium]
kind = sampled
path = {path}
[discretization]
N = 3
M = 16
"""),
    "solve_sampled_stack": ("solve", sampled_stack, """
[incidence]
k = 1.1
theta1 = 0.45
theta2 = 2.0
h = 1.0
[medium]
kind = sampled
path = {path}
[discretization]
N = 2
M = 24
"""),
    "solve_slab_stack_fd": ("solve", None, """
[incidence]
k = 1.7
theta1 = 0.4
theta2 = 0.3
h = 1.0
[medium]
kind = slab
layers = -1:-0.3:2.0,-0.3:0.45:3.2,0.45:1:1.4
[discretization]
N = 1
M = 64
depth_scheme = finite_difference_order2
"""),
    "modes_guided_sampled": ("modes", guided_q2, GUIDED + """
[medium]
kind = sampled
path = {path}
[discretization]
N = 2
M = 16
"""),
    "lap_guided_sampled": ("lap", guided_q2, GUIDED + """
[medium]
kind = sampled
path = {path}
[discretization]
N = 2
M = 16
"""),
    "lap_guided_slab": ("lap", None, GUIDED + """
[medium]
kind = homogeneous
q0 = 2.0
[discretization]
N = 2
M = 24
[lap]
eps_start = 0.1
eps_levels = 8
"""),
}


def run_case(name, workdir: Path) -> Path:
    """Write the inputs of one case under workdir, run it, return the report dir."""
    command, medium, config = CASES[name]
    path = workdir / "medium.dat"
    if medium is not None:
        q.save_sampled_medium(path, medium(), 1.0)
    cfg = workdir / "run.ini"
    cfg.write_text(config.format(path=path), encoding="utf-8")
    out = workdir / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 0, f"{name}: exit code {rc}"
    return out


def _number(s):
    try:
        return float(s)
    except ValueError:
        return None


def _assert_close(got, want, where, rtol=RTOL):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            if key != "config_sha256":
                _assert_close(got[key], want[key], f"{where}.{key}",
                              FIELD_RTOL.get(key, rtol))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]", rtol)
    elif isinstance(want, str):
        gw, ww = _number(got), _number(want)
        if ww is None:
            assert got == want, where
        else:
            _assert_close(gw, ww, where, rtol)
    elif isinstance(want, bool) or want is None:
        assert got is want, where
    elif math.isnan(want):
        assert math.isnan(got), where
    else:
        assert got == pytest.approx(want, rel=rtol, abs=ATOL), where


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden(name, tmp_path):
    out = run_case(name, tmp_path)
    want_dir = GOLDEN / name
    wanted = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in out.iterdir()) == wanted
    for fname in wanted:
        _assert_close(_load(out / fname), _load(want_dir / fname), f"{name}/{fname}")


def regenerate():
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            out = run_case(name, Path(tmp))
            dest = GOLDEN / name
            shutil.rmtree(dest, ignore_errors=True)
            shutil.copytree(out, dest)
            print(f"wrote {dest}")


if __name__ == "__main__":
    sys.exit(regenerate())
