"""Tests of the benchmark's own reference, checks and traced counts.

    PYTHONPATH=src python3 -m pytest -q qpbench
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qpscat as q  # noqa: E402
from qpscat.slab import SlabParams, transfer_matrix_scattering  # noqa: E402

import run  # noqa: E402
from reference import stack_scattering  # noqa: E402
from spans import COUNT_METRICS, per_layer  # noqa: E402
from worker import DEFAULT_SEED, GratingDense, SlabSweep, measure  # noqa: E402


def test_stack_reference_matches_slab_transfer_matrix():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k, t1, t2 = rng.uniform(0.3, 3.0), rng.uniform(0.0, 1.3), rng.uniform(0, 2 * np.pi)
        q0, h = rng.uniform(0.2, 4.0), rng.uniform(0.3, 2.0)
        inc = q.IncidenceSpec.from_angles(k, t1, t2, h)
        rd = transfer_matrix_scattering(
            SlabParams(q0=q0, h=h, k=k, abs_alpha=float(np.linalg.norm(inc.alpha_vec))), inc)
        want = (rd.u_plus[(0, 0)], rd.u_minus[(0, 0)])
        split = [(-h, -h / 3, q0), (-h / 3, h / 2, q0), (h / 2, h, q0)]
        for layers in ([(-h, h, q0)], split):
            got = stack_scattering(k, inc.alpha_vec, layers, h)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-13


def test_grating_check_uses_stored_reference():
    wl = GratingDense(DEFAULT_SEED)
    inc = wl.draw()
    rd = wl.run(inc)
    assert (inc.k.real, inc.theta1, inc.theta2) in wl.reference
    assert wl.check(inc, rd)[0]
    # an evanescent order: the energy balance cannot see this change
    rd.u_plus[(4, 4)] += 1e-6 * abs(rd.u_plus[(0, 0)])
    assert not wl.check(inc, rd)[0]


def _counts(spans, ops, walls=None):
    layer = per_layer(spans, ops, walls)
    return {k: layer[k] for k in COUNT_METRICS}


@pytest.mark.parametrize("cls, ops, svd_calls", [(GratingDense, 1, 1), (SlabSweep, 5, 25)])
def test_traced_counts_repeat(cls, ops, svd_calls):
    runs = []
    for _ in range(2):
        res = measure(cls(DEFAULT_SEED), 0.0, trace=True, max_ops=2 * ops)
        assert all(res["ok"])
        traced = [i + 1 for i, on in enumerate(res["traced"]) if on]
        runs.append(_counts(res["tracer"].spans, traced))
    assert runs[0] == runs[1]
    assert runs[0]["linalg.svd_calls"] == svd_calls
    assert runs[0]["helmholtz.assemble_calls"] == 1


def test_traced_counts_repeat_guided_lap(tmp_path):
    lap = run.GuidedLap(tmp_path)
    lap.write_inputs()
    runs = []
    for _ in range(2):
        spans_file = tmp_path / "spans.jsonl"
        wall, _, ok = lap.attempt(spans_file)
        assert ok
        spans = [{**json.loads(line), "op": 1}
                 for line in spans_file.read_text().splitlines()]
        runs.append(_counts(spans, [1], {1: wall}))
    assert runs[0] == runs[1]
    # 14 assemble + 2 assemble_eps_derivative; 1 kernel SVD + 11 eps screens
    assert runs[0]["helmholtz.assemble_calls"] == 16
    assert runs[0]["linalg.svd_calls"] == 12
    assert runs[0]["linalg.lstsq_calls"] == 2
    assert runs[0]["medium.profiles_calls"] == 28


def test_windowed_p50_averages_phases_and_ignores_outliers():
    fast, slow = [0.25] * 4, [0.5] * 2
    # two 1 s windows at different speeds average, where a plain median would pick one
    assert run.windowed_p50(fast + slow) == pytest.approx(0.375)
    # one slow operation in a window moves its median, not the mean of its neighbours
    assert run.windowed_p50([0.1] * 9 + [5.0]) == pytest.approx(0.1)
    # a trailing part-window is dropped unless it is the only window
    assert run.windowed_p50(fast + [0.9]) == pytest.approx(0.25)
    assert run.windowed_p50([0.2, 0.3, 0.4]) == pytest.approx(0.3)
