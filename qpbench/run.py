"""qpscat benchmark: one command per workload.

    python3 qpbench/run.py --workload grating_dense --seed 0 --seconds 30 --trace 0

Workloads: grating_dense, guided_lap, slab_sweep (see qpbench/NOTES.md).
With --trace 0 the last stdout line is a JSON object carrying the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced pass,
whose spans are written to .qpbench_out/<workload>/spans.jsonl.  Every
operation's output is checked; a failed check or an exception counts as a
failed operation.  The thread variables QPSCAT_THREADS, OPENBLAS_NUM_THREADS
and OMP_NUM_THREADS are cleared, so the program's defaults are measured.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".qpbench_out"
WORKLOADS = ("grating_dense", "guided_lap", "slab_sweep")
THREAD_VARS = ("QPSCAT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
#: fresh set-ups per run: at least SETUP_MIN and until SETUP_SECONDS have
#: passed, at most SETUP_MAX; setup_s is their median
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 2.0
#: op_p50_s takes the median operation time within each window of at least
#: this many seconds of consecutive operations, then averages the windows
WINDOW_SECONDS = 1.0

# guided_lap: the README guided scenario through the CLI on a q = 2 sampled file
GUIDED_K = math.pi / (2 * math.sqrt(2))
GUIDED_ALPHA = (1 - math.pi * math.sqrt(3) / 4, 0.0)
GUIDED_CONFIG = """[incidence]
k = {k!r}
h = 1.0
alpha = {a1!r},{a2!r}

[medium]
kind = sampled
path = {path}

[discretization]
N = 3
M = 16
"""


def spawn(cmd, **kw):
    """Start a child and return (process, wall-clock start)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen([sys.executable, *map(str, cmd)], env=env,
                            cwd=ROOT, **kw), time.perf_counter()


def reap(p):
    """Wait for a child: (exit code, its peak RSS in MB)."""
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, ru.ru_maxrss / 1024.0


# -- grating_dense and slab_sweep: closed loop inside one worker process -----

def worker(args, out, setup_only):
    """Run worker.py: (set-up seconds or None, exit code, peak RSS in MB)."""
    cmd = [HERE / "worker.py", "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--result", out / "result.json", "--spans", out / "spans.jsonl"]
    p, t0 = spawn(cmd + (["--setup-only"] if setup_only else []),
                  stdout=subprocess.PIPE, text=True)
    ready = p.stdout.readline().strip() == "ready"
    setup = time.perf_counter() - t0
    p.stdout.read()
    p.stdout.close()
    code, rss = reap(p)
    return (setup if ready else None), code, rss


def windowed_p50(times, window=WINDOW_SECONDS):
    """Mean over consecutive windows of >= `window` s of each window's median.

    A shared host runs in phases of a few seconds that differ in speed by up
    to a third.  The median of a whole run snaps to one phase or the other;
    the mean of window medians averages over the phases and still ignores
    single slow operations.  A trailing part-window counts only if it is the
    only one.
    """
    medians, cur, total = [], [], 0.0
    for t in times:
        cur.append(t)
        total += t
        if total >= window:
            medians.append(statistics.median(cur))
            cur, total = [], 0.0
    if cur and not medians:
        medians.append(statistics.median(cur))
    return statistics.fmean(medians)


def setup_probes(probe):
    """Results of `probe()` calls, leaving room for one more set-up."""
    out, t0 = [], time.perf_counter()
    while len(out) + 1 < SETUP_MAX and (
            len(out) + 1 < SETUP_MIN or time.perf_counter() - t0 < SETUP_SECONDS):
        out.append(probe())
    return out


def run_in_process(args, out):
    probes = setup_probes(lambda: worker(args, out, setup_only=True))
    setups = [setup for setup, _, _ in probes]
    failed = sum(code != 0 for _, code, _ in probes)
    setup, code, rss = worker(args, out, setup_only=False)
    if setup is None or code != 0:
        raise SystemExit(f"worker for {args.workload} exited with code {code}")
    setups.append(setup)
    res = json.loads((out / "result.json").read_text(encoding="utf-8"))
    ok = res["ok"]
    times = res["times"]
    plain = [t for t, on in zip(times, res["traced"]) if not on]
    good = sum(ok[1:])
    summary = {"ops": len(times), "env": res["env"]}
    if args.workload == "slab_sweep":
        summary["op_p90_s"] = statistics.quantiles(plain, n=10)[-1]
        summary["max_err"] = res["stack_max_err"]
    e2e = {"setup_s": statistics.median(setups), "op_p50_s": windowed_p50(plain),
           "ops_per_s": good / sum(times), "peak_rss_mb": rss}
    layer = None
    if args.trace:
        layer = res["per_layer"]
        layer["helmholtz.stack_max_err"] = res["stack_max_err"] \
            if args.workload == "slab_sweep" else 0.0
        layer["trace.overhead_pct"] = overhead(times, res["traced"])
    return e2e, layer, len(ok) + len(probes), failed + len(ok) - sum(ok), summary


def overhead(times, traced):
    on = statistics.median(t for t, f in zip(times, traced) if f)
    off = statistics.median(t for t, f in zip(times, traced) if not f)
    return 100.0 * (on - off) / off


# -- guided_lap: one fresh CLI process per operation ------------------------

def guided_reference():
    """(u+, u-) of order (0, 0) from the closed-form slab transfer matrix."""
    from qpscat import IncidenceSpec
    from qpscat.slab import SlabParams, transfer_matrix_scattering
    inc = IncidenceSpec.from_alpha(GUIDED_K, GUIDED_ALPHA, 1.0)
    rd = transfer_matrix_scattering(
        SlabParams(q0=2.0, h=1.0, k=GUIDED_K, abs_alpha=abs(GUIDED_ALPHA[0])), inc)
    return rd.u_plus[(0, 0)], rd.u_minus[(0, 0)]


class GuidedLap:
    """Inputs, one CLI operation and its checks, all under the directory `out`."""

    def __init__(self, out):
        self.medium = out / "medium.dat"
        self.config = out / "lap.ini"
        self.report = out / "op" / "lap.json"
        self.first = None
        self.reference = guided_reference()

    def write_inputs(self):
        """Write the q = 2 sampled medium (16 x 16 x 1) and the lap config."""
        self.medium.write_text("qpscat-medium v1\nn1 16\nn2 16\nn3 1\nh 1.0\ndata csv\n"
                               + ",".join(["2.0"] * 256) + "\n", encoding="utf-8")
        self.config.write_text(GUIDED_CONFIG.format(
            k=GUIDED_K, a1=GUIDED_ALPHA[0], a2=GUIDED_ALPHA[1],
            path=os.path.relpath(self.medium, ROOT)), encoding="utf-8")

    def attempt(self, spans=None):
        """One CLI process: (wall seconds, peak RSS MB, output ok)."""
        self.report.unlink(missing_ok=True)
        cmd = [HERE / "cli_traced.py", spans] if spans else ["-m", "qpscat.cli"]
        p, t0 = spawn(cmd + ["lap", "--config", self.config, "--out", self.report.parent],
                      stdout=subprocess.DEVNULL)
        code, rss = reap(p)
        wall = time.perf_counter() - t0
        return wall, rss, code == 0 and self.report.is_file() and self.check()

    def check(self):
        raw = self.report.read_bytes()
        if self.first is None:
            self.first = raw
        rep = json.loads(raw)
        up, um = (complex(*rep["rayleigh"][side]["0,0"]) for side in ("u_plus", "u_minus"))
        return (raw == self.first and rep["kernel_dimension"] == 1
                and abs(rep["slope"] - 1.0) <= 0.05
                and rep["two_step_agreement"] <= 1e-8
                and max(abs(up - self.reference[0]), abs(um - self.reference[1])) <= 1e-10)


def run_guided(args, out):
    from spans import per_layer
    from worker import environment
    lap = GuidedLap(out)

    def setup():
        t0 = time.perf_counter()
        lap.write_inputs()
        good = lap.attempt()[2]
        return time.perf_counter() - t0, good

    warm = setup_probes(setup) + [setup()]
    setups, ok = [t for t, _ in warm], [good for _, good in warm]
    times, traced, rss, walls, spans = [], [], [], {}, []
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < args.seconds or (args.trace and i <= 2):
        on = bool(args.trace) and i % 2 == 1
        span_file = out / "op_spans.jsonl" if on else None
        wall, peak, good = lap.attempt(span_file)
        times.append(wall)
        traced.append(on)
        rss.append(peak)
        ok.append(good)
        if on:
            walls[i] = wall
            for line in span_file.read_text(encoding="utf-8").splitlines():
                spans.append({**json.loads(line), "op": i})
        i += 1
    plain = [t for t, f in zip(times, traced) if not f]
    e2e = {"setup_s": statistics.median(setups), "op_p50_s": windowed_p50(plain),
           "ops_per_s": sum(ok[len(warm):]) / sum(times), "peak_rss_mb": max(rss)}
    layer = None
    if args.trace:
        layer = per_layer(spans, list(walls), walls)
        layer["helmholtz.stack_max_err"] = 0.0
        layer["trace.overhead_pct"] = overhead(times, traced)
        with open(out / "spans.jsonl", "w", encoding="utf-8") as f:
            for s in spans:
                f.write(json.dumps(s, sort_keys=True) + "\n")
    return e2e, layer, len(ok), len(ok) - sum(ok), {"ops": len(times), "env": environment()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "qpscat" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'qpscat'} not found; the benchmark needs the "
                 "repository that holds it")
    for var in THREAD_VARS:  # measure the program's defaults, here and in children
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    runner = run_guided if args.workload == "guided_lap" else run_in_process
    e2e, layer, attempted, failed, summary = runner(args, out)

    print(f"workload {args.workload}, seed {args.seed}, {summary.pop('ops')} timed "
          f"operations, fail_ratio {failed / attempted:g} ({failed}/{attempted})")
    for key, val in summary.items():
        print(f"{key} = {val}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values, declared = (e2e, spec["end_to_end"]) if layer is None else (layer, spec["per_layer"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
