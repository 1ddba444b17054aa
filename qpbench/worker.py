"""In-process workloads: `grating_dense` and `slab_sweep`.

    PYTHONPATH=src python3 qpbench/worker.py --workload grating_dense --seed 0 \
        --seconds 5 --trace 0 --result out.json [--setup-only]

Started by run.py, which times the set-up from spawn to the "ready" line
and reads the process's peak memory.  One operation is the README pattern
assemble -> solve -> rayleigh_data for one freshly drawn incidence, in a
closed loop from a single caller.  Outputs are checked after each operation,
outside its timed interval.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import qpscat as q
from reference import energy_balance, near_cutoff, stack_scattering
from spans import Tracer, per_layer

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
GRATING_REFERENCE = HERE / "grating_reference.json"
#: draws closer than this to a Rayleigh cut-off |n + alpha| = k are redrawn
CUTOFF_MARGIN = 1e-3
BALANCE_TOL = 1e-10
#: stack error allowed before a slab_sweep answer counts as wrong; catches
#: wrong answers without failing on the known first-order depth defect
STACK_TOL = 0.1
#: slab_sweep operations whose stack error enters helmholtz.stack_max_err
STACK_ERR_OPS = 200


def inclusion(n=32, q_in=2.5, q_out=1.5, radius=0.35 * 2 * np.pi):
    """z-invariant disc of index q_in in a square of index q_out, n x n x 1."""
    x = (np.arange(n) + 0.5) * 2 * np.pi / n
    r2 = (x[:, None] - np.pi) ** 2 + (x[None, :] - np.pi) ** 2
    return np.where(r2 < radius ** 2, q_in, q_out)[:, :, None]


def _coeffs(u):
    return [[n[0], n[1], c.real, c.imag] for n, c in sorted(u.items())]


class Workload:
    """Seeded incidence draws, one operation, and its output check."""

    k_range: tuple[float, float]
    theta1_max: float

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def draw(self):
        while True:
            k = self.rng.uniform(*self.k_range)
            t1 = self.rng.uniform(0.0, self.theta1_max)
            t2 = self.rng.uniform(0.0, 2 * np.pi)
            inc = q.IncidenceSpec.from_angles(k, t1, t2, h=1.0)
            if not near_cutoff(k, inc.alpha_vec, self.disc.N, CUTOFF_MARGIN):
                return inc

    def run(self, inc):
        op = q.assemble(inc, self.medium, self.disc)
        v = q.solve(op, q.rhs(inc, self.disc, op.space))
        return q.rayleigh_data(v, inc)

    def balance(self, inc, rd):
        return energy_balance(inc.k.real, inc.alpha_vec, self.disc.N,
                              rd.u_plus, rd.u_minus)


class GratingDense(Workload):
    k_range, theta1_max = (1.0, 1.6), 0.6

    def __init__(self, seed):
        super().__init__(seed)
        self.medium = q.MediumModel.sampled(inclusion(), h=1.0)
        self.disc = q.Discretization(N=4, M=16)
        stored = json.loads(GRATING_REFERENCE.read_text()) if seed == DEFAULT_SEED else []
        self.reference = {(r["k"], r["theta1"], r["theta2"]): r for r in stored}

    def check(self, inc, rd):
        """Energy balance; for stored draws of the default seed also the coefficients."""
        ok = bool(self.balance(inc, rd) <= BALANCE_TOL)
        ref = self.reference.get((inc.k.real, inc.theta1, inc.theta2))
        if ref is not None:
            got = np.array([[c[2], c[3]] for c in _coeffs(rd.u_plus) + _coeffs(rd.u_minus)])
            want = np.array([[c[2], c[3]] for c in ref["u_plus"] + ref["u_minus"]])
            scale = np.max(np.abs(want[:, 0] + 1j * want[:, 1]))
            ok &= bool(np.max(np.abs(got - want)) <= 1e-9 * scale)
        return ok, 0.0


class SlabSweep(Workload):
    k_range, theta1_max = (0.5, 2.5), 1.2
    LAYERS = ((-1.0, -0.3, 2.0), (-0.3, 0.45, 3.2), (0.45, 1.0, 1.4))

    def __init__(self, seed):
        super().__init__(seed)
        self.medium = q.MediumModel.slab_stack(self.LAYERS, h=1.0)
        self.disc = q.Discretization(N=2, M=32)

    def check(self, inc, rd):
        """Energy balance and the (0, 0) coefficients against the stack reference."""
        up, um = stack_scattering(inc.k.real, inc.alpha_vec, self.LAYERS, 1.0)
        err = float(max(abs(rd.u_plus[(0, 0)] - up), abs(rd.u_minus[(0, 0)] - um)))
        return bool(self.balance(inc, rd) <= BALANCE_TOL and err <= STACK_TOL), err


WORKLOADS = {"grating_dense": GratingDense, "slab_sweep": SlabSweep}


def attempt(wl, inc):
    """Run and check one operation: (seconds, ok, stack error)."""
    t0 = time.perf_counter()
    try:
        rd = wl.run(inc)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        return time.perf_counter() - t0, False, 0.0
    dt = time.perf_counter() - t0
    ok, err = wl.check(inc, rd)
    return dt, ok, err


def measure(wl, seconds, trace, max_ops=None):
    """Closed loop for `seconds`, or for `max_ops` operations, after the warm-up.

    With tracing, odd operations run traced and even ones untraced, so one
    run gives per-layer numbers and the tracing overhead; it then runs at
    least one of each.
    """
    tracer = Tracer() if trace else None
    times, traced, ok_flags, errs = [], [], [], []
    start = time.perf_counter()
    i = 1
    while (i <= max_ops) if max_ops is not None else \
            (time.perf_counter() - start < seconds or (trace and i <= 2)):
        inc = wl.draw()
        on = tracer is not None and i % 2 == 1
        if on:
            tracer.op = i
            tracer.install()
        try:
            dt, ok, err = attempt(wl, inc)
        finally:
            if on:
                tracer.uninstall()
        times.append(dt)
        traced.append(on)
        ok_flags.append(ok)
        errs.append(err)
        i += 1
    return {"times": times, "traced": traced, "ok": ok_flags,
            "stack_max_err": max(errs[:STACK_ERR_OPS]), "tracer": tracer}


def environment():
    """nproc, BLAS vendor and version, and the thread counts of this process."""
    import ctypes
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"nproc": os.cpu_count(), "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "QPSCAT_THREADS": os.environ.get("QPSCAT_THREADS", "unset (1)"),
            "blas_threads": None, "process_threads": None}
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                info["process_threads"] = int(line.split()[1])
        for line in Path("/proc/self/maps").read_text().splitlines():
            if "openblas" in line:
                lib = ctypes.CDLL(line.split()[-1])
                for sym in ("scipy_openblas_get_num_threads64_",
                            "openblas_get_num_threads64_", "openblas_get_num_threads"):
                    if hasattr(lib, sym):
                        info["blas_threads"] = int(getattr(lib, sym)())
                        break
                break
    return info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed)
    _, warm_ok, _ = attempt(wl, wl.draw())
    print("ready", flush=True)
    if args.setup_only:
        return 0 if warm_ok else 1
    res = measure(wl, args.seconds, args.trace)
    tracer = res.pop("tracer")
    res["ok"].insert(0, warm_ok)
    res["env"] = environment()
    if tracer is not None:
        ops = [i + 1 for i, on in enumerate(res["traced"]) if on]
        res["per_layer"] = per_layer(tracer.spans, ops)
        tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(res), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
