"""Batch front-end: INI configuration in, machine-readable reports out.

    qpscat <command> --config <path> [--strict] [--out <dir>]
                     [--override section.key=value ...]

Commands: solve, modes, lap, dispersion, slab, maxwell-check.  Exit codes:
0 success, 2 configuration error, 3 numerical failure (any solver error,
e.g. a near-singular solve without limiting-absorption routing, a cut-off
violation, an aliased sampled medium or an operator or Brillouin map larger
than physical memory; reported as one `error:` line),
4 hypothesis warning escalated by --strict.

Configuration grammar (INI in UTF-8; keys grouped by section; CLI overrides win):

    [incidence]   k, h, theta1+theta2 (radians) or alpha = a1,a2
    [medium]      kind = homogeneous|slab|sampled; q0 | layers = z0:z1:q,... | path
    [discretization]  N, M, depth_scheme
    [lap]         eps_start, eps_levels, svd_threshold
    [slab]        q0, parity, mode_radius, grid      (dispersion/slab commands)
    [output]      directory

Reports embed the resolved-configuration hash and the tool version; repeated
runs on identical inputs are byte-identical.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, NearSingular, QpscatError
from .helmholtz import Discretization, assemble, rayleigh_data, rhs, solve
from .lap import constrained_solve, eps_sweep, write_sweep_csv
from .medium import MediumModel, load_sampled_medium, validate
from .modes import kernel
from .qpcore import IncidenceSpec
from .slab import SlabParams, brillouin_map, find_dispersion_roots, \
    transfer_matrix_scattering, write_brillouin_csv
from . import maxwell as mx

COMMANDS = ("solve", "modes", "lap", "dispersion", "slab", "maxwell-check")


def _cplx(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _mode_key(n) -> str:
    return f"{n[0]},{n[1]}"


class RunConfig:
    """Resolved, validated configuration of one batch run."""

    def __init__(self, command: str, sections: dict[str, dict[str, str]],
                 strict: bool = False, out_dir: str | None = None):
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
        self.command = command
        self.sections = sections
        self.strict = strict
        out = out_dir or self._get("output", "directory", "out")
        self.out_dir = Path(out)

    def _get(self, section, key, default=None):
        val = self.sections.get(section, {}).get(key)
        if val is None:
            if default is None:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default
        return val

    def _getfloat(self, section, key, default=None):
        raw = self._get(section, key, default)
        try:
            return float(raw)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"[{section}] {key} = {raw!r}: not a number") from e

    def _getint(self, section, key, default=None):
        raw = self._get(section, key, default)
        try:
            return int(raw)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"[{section}] {key} = {raw!r}: not an integer") from e

    # -- builders ----------------------------------------------------------
    def incidence(self) -> IncidenceSpec:
        k = self._getfloat("incidence", "k")
        h = self._getfloat("incidence", "h")
        alpha = self.sections.get("incidence", {}).get("alpha")
        try:
            if alpha is not None:
                a = [float(t) for t in alpha.split(",")]
                return IncidenceSpec.from_alpha(k, a, h)
            t1 = self._getfloat("incidence", "theta1")
            t2 = self._getfloat("incidence", "theta2", "0")
            return IncidenceSpec.from_angles(k, t1, t2, h)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def medium(self) -> MediumModel:
        kind = self._get("medium", "kind")
        h = self._getfloat("incidence", "h")
        try:
            if kind == "homogeneous":
                return MediumModel.homogeneous(self._getfloat("medium", "q0"), h)
            if kind == "slab":
                raw = self.sections.get("medium", {}).get("layers")
                if raw is None:
                    q0 = self._getfloat("medium", "q0")
                    return MediumModel.slab_stack([(-h, h, q0)], h)
                layers = []
                for part in raw.split(","):
                    z0, z1, q = part.split(":")
                    layers.append((float(z0), float(z1), complex(q)))
                return MediumModel.slab_stack(layers, h)
            if kind == "sampled":
                medium = load_sampled_medium(self._get("medium", "path"))
                if abs(medium.h - h) > 1e-12:
                    raise ValueError(f"sampled file has h = {medium.h!r}, "
                                     f"[incidence] h = {h!r}")
                return medium
        except (ValueError, OSError, QpscatError) as e:
            raise ConfigError(f"bad medium: {e}") from e
        raise ConfigError(f"unknown medium kind {kind!r}")

    def discretization(self) -> Discretization:
        try:
            return Discretization(N=self._getint("discretization", "N", "2"),
                                  M=self._getint("discretization", "M", "32"),
                                  depth_scheme=self._get("discretization",
                                                         "depth_scheme",
                                                         "chebyshev_collocation"))
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def eps_schedule(self) -> tuple[float, ...]:
        start = self._getfloat("lap", "eps_start", "0.1")
        levels = self._getint("lap", "eps_levels", "11")
        # the last level must not underflow to 0; this also caps eps_levels
        if levels < 2 or not (np.isfinite(start) and start * 2.0 ** (1 - levels) > 0):
            raise ConfigError("eps_start must be finite and > 0, eps_levels >= 2, and "
                              "the last level eps_start * 2^(1 - eps_levels) > 0")
        return tuple(start * 2.0 ** -j for j in range(levels))

    def svd_threshold(self) -> float:
        t = self._getfloat("lap", "svd_threshold", "1e-8")
        if not 0.0 < t < 1.0:  # also rejects NaN
            raise ConfigError(f"svd_threshold must lie in (0, 1), got {t!r}")
        return t

    def slab_q0(self, default=None) -> float:
        q0 = self._getfloat("slab", "q0", default)
        if not (np.isfinite(q0) and q0 > 0):
            raise ConfigError(f"q0 must be finite and > 0, got {q0!r}")
        return q0

    def dispersion_settings(self) -> tuple[str, int, float | None]:
        """[slab] parity, grid and mode_radius (None: the first root's |alpha|)."""
        parity = self._get("slab", "parity", "even")
        if parity not in ("even", "odd"):
            raise ConfigError(f"[slab] parity must be even or odd, got {parity!r}")
        grid = self._getint("slab", "grid", "512")
        if grid < 1:
            raise ConfigError(f"[slab] grid must be >= 1, got {grid!r}")
        radius = None
        if self.sections.get("slab", {}).get("mode_radius"):
            radius = self._getfloat("slab", "mode_radius")
            if not (np.isfinite(radius) and radius >= 0):
                raise ConfigError(f"[slab] mode_radius must be finite and >= 0, "
                                  f"got {radius!r}")
        return parity, grid, radius

    def config_hash(self) -> str:
        lines = [f"command={self.command}"]
        for sec in sorted(self.sections):
            for key in sorted(self.sections[sec]):
                lines.append(f"{sec}.{key}={self.sections[sec][key]}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def meta(self) -> dict:
        return {"tool": "qpscat", "version": __version__,
                "command": self.command, "config_sha256": self.config_hash()}


def load_config(path, command: str, overrides=(), strict=False,
                out_dir=None) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str  # keys are case-sensitive (N vs n)
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        detail = " ".join(str(e).split())  # configparser spreads its message over lines
        raise ConfigError(f"cannot parse config file {path}: {detail}") from e
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    sections = {s: dict(cp.items(s)) for s in cp.sections()}
    for ov in overrides:
        key, _, val = ov.partition("=")
        sec, _, k = key.partition(".")
        if not sec or not k or not _:
            raise ConfigError(f"override {ov!r} must look like section.key=value")
        sections.setdefault(sec, {})[k] = val
    cmd = command or sections.get("run", {}).get("command")
    if not cmd:
        raise ConfigError("no command given (argv or [run] command)")
    return RunConfig(cmd, sections, strict=strict, out_dir=out_dir)


def _write_json(path: Path, payload: dict) -> None:
    """Write strict RFC 8259 JSON: a NaN or infinity raises ValueError."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
                    + "\n", encoding="utf-8")


def _write_efficiencies_csv(path: Path, rd) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        wr = csv.writer(f)
        wr.writerow(["n1", "n2", "efficiency_up", "efficiency_down",
                     "balance_residual"])
        for n in sorted(rd.efficiencies_up):
            wr.writerow([n[0], n[1], f"{rd.efficiencies_up[n]:.15e}",
                         f"{rd.efficiencies_down[n]:.15e}",
                         f"{rd.balance_residual:.15e}"])


def _rayleigh_payload(rd, meta) -> dict:
    return {
        **meta,
        "u_plus": {_mode_key(n): _cplx(c) for n, c in sorted(rd.u_plus.items())},
        "u_minus": {_mode_key(n): _cplx(c) for n, c in sorted(rd.u_minus.items())},
        "efficiencies_up": {_mode_key(n): v for n, v in sorted(rd.efficiencies_up.items())},
        "efficiencies_down": {_mode_key(n): v for n, v in sorted(rd.efficiencies_down.items())},
        "balance_residual": rd.balance_residual,
        "total_efficiency": rd.total_efficiency,
    }


def _check_hypotheses(cfg: RunConfig, medium, inc) -> int:
    rep = validate(medium, inc)
    for w in rep.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if cfg.strict and rep.warnings:
        print("error: hypothesis warnings escalated by --strict", file=sys.stderr)
        return 4
    return 0


def run(cfg: RunConfig) -> int:
    """Dispatch one configured command; returns the process exit code."""
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {e}") from e
    meta = cfg.meta()
    try:
        if cfg.command in ("solve", "modes", "lap"):
            inc = cfg.incidence()
            medium = cfg.medium()
            rc = _check_hypotheses(cfg, medium, inc)
            if rc:
                return rc
            disc = cfg.discretization()
            op = assemble(inc, medium, disc)

        if cfg.command == "solve":
            v = solve(op, rhs(inc, disc))
            rd = rayleigh_data(v, inc)
            _write_json(cfg.out_dir / "rayleigh.json", _rayleigh_payload(rd, meta))
            _write_efficiencies_csv(cfg.out_dir / "efficiencies.csv", rd)

        elif cfg.command == "modes":
            basis = kernel(op, cfg.svd_threshold())
            payload = {
                **meta,
                "kernel_dimension": basis.dimension,
                "singular_values": [float(s) for s in basis.singular_values],
                "sigma_max": basis.sigma_max,
                # each vector's Rayleigh tails are its end nodes; modes ascending
                "tail_coefficients": [
                    {_mode_key(n): {"plus": _cplx(v[i, -1]), "minus": _cplx(v[i, 0])}
                     for i, n in enumerate(basis.space.modes)
                     if max(abs(v[i, -1]), abs(v[i, 0])) > 1e-14}
                    for v in basis.vectors],
            }
            _write_json(cfg.out_dir / "modes.json", payload)

        elif cfg.command == "lap":
            basis = kernel(op, cfg.svd_threshold())
            del op  # the constrained solves assemble A(0) with A'(0) again
            result = eps_sweep(basis, medium, cfg.eps_schedule())
            write_sweep_csv(result, cfg.out_dir / "sweep.csv")
            limit = result.v_limit_constrained
            cross = constrained_solve(basis, medium, method="two_step")
            agree = basis.space.norm(cross.field.values - limit.field.values) \
                / max(limit.field.norm(), 1e-300)
            payload = {
                **meta,
                "kernel_dimension": basis.dimension,
                # null when too few eps levels, or a zero delta, leave no fit
                "slope": result.slope if np.isfinite(result.slope) else None,
                "final_relative_delta": result.final_relative_delta,
                "constraint_residuals": [abs(r) for r in result.constraint_residuals],
                "kernel_coefficients": [_cplx(c) for c in limit.kernel_coefficients],
                "two_step_agreement": agree,
            }
            rd = rayleigh_data(result.v_limit_constrained.field, inc)
            payload["rayleigh"] = _rayleigh_payload(rd, meta)
            _write_json(cfg.out_dir / "lap.json", payload)

        elif cfg.command == "dispersion":
            inc = cfg.incidence()
            k = inc.k.real
            q0 = cfg.slab_q0()
            h = inc.h
            parity, grid, mode_radius = cfg.dispersion_settings()
            roots = find_dispersion_roots(q0, h, k, parity)
            if mode_radius is None:
                mode_radius = roots[0].abs_alpha if roots else 0.0
            bmap = brillouin_map(k, mode_radius, grid=grid)
            write_brillouin_csv(bmap, cfg.out_dir / "brillouin.csv")
            payload = {
                **meta,
                "q0": q0, "k": k, "h": h, "parity": parity,
                "roots": [{"abs_alpha": r.abs_alpha,
                           "inner_wavenumber": r.inner_wavenumber,
                           "decay": r.decay} for r in roots],
                "mode_radius": mode_radius,
                "grid": grid,
                "cutoff_cells": bmap.count(1),
                "propagative_cells": bmap.count(2),
            }
            _write_json(cfg.out_dir / "dispersion.json", payload)

        elif cfg.command == "slab":
            inc = cfg.incidence()
            q0 = cfg.slab_q0(cfg._get("medium", "q0", "1"))
            rd = transfer_matrix_scattering(SlabParams(q0=q0, h=inc.h, k=inc.k.real), inc)
            _write_json(cfg.out_dir / "rayleigh.json", _rayleigh_payload(rd, meta))
            _write_efficiencies_csv(cfg.out_dir / "efficiencies.csv", rd)

        elif cfg.command == "maxwell-check":
            payload = {**meta, **_maxwell_checks(cfg)}
            _write_json(cfg.out_dir / "maxwell_checks.json", payload)

    except ConfigError:
        raise
    except QpscatError as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, NearSingular):
            print("hint: the operator is singular at this quasi-momentum; "
                  "run the 'modes' and 'lap' commands instead", file=sys.stderr)
        return 3
    return 0


def _maxwell_checks(cfg: RunConfig) -> dict:
    """Seeded randomized verification of the electromagnetic operator layer."""
    rng = np.random.default_rng(int(cfg.config_hash()[:8], 16))
    worst_cal = 0.0
    for _ in range(100):
        alpha = rng.uniform(-0.5, 0.5, 2)
        k = rng.uniform(0.5, 2.5)
        n = tuple(int(t) for t in rng.integers(-3, 4, 2))
        if abs(np.linalg.norm(np.asarray(n) + alpha) - k) < 1e-2:
            continue
        vn = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        vn[2] = 0.0
        tf = mx.TangentialField(coeffs={n: vn}, alpha=(alpha[0], alpha[1]), k=k)
        a = mx.calderon_apply(tf).coeffs[n]
        b = mx.calderon_halfspace_oracle(tf).coeffs[n]
        worst_cal = max(worst_cal, float(np.max(np.abs(a - b))))
    min_im = np.inf
    for _ in range(1000):
        alpha = rng.uniform(-0.5, 0.5, 2)
        k = rng.uniform(0.5, 2.5)
        coeffs = {}
        for _ in range(5):
            n = tuple(int(t) for t in rng.integers(-3, 4, 2))
            if abs(np.linalg.norm(np.asarray(n) + alpha) - k) < 1e-2:
                continue
            vn = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            vn[2] = 0.0
            coeffs[n] = vn
        if not coeffs:
            continue
        tf = mx.TangentialField(coeffs=coeffs, alpha=(alpha[0], alpha[1]), k=k)
        _, im = mx.calderon_forms(tf)
        min_im = min(min_im, im)
    min_det = np.inf
    for _ in range(1000):
        q0 = rng.uniform(0.01, 0.99)
        k = rng.uniform(0.2, 3.0)
        an = rng.uniform(k * 1.001, 4 * k)
        min_det = min(min_det, mx.maxwell_slab_determinant(q0, k, an))
    worst_q = 0.0
    for _ in range(100):
        t1 = rng.uniform(-1.2, 1.2)
        t2 = rng.uniform(0, 2 * np.pi)
        k = rng.uniform(0.5, 2.5)
        minc = _random_incidence(rng, k, t1, t2)
        d = mx.incident_trace_vector(minc, 1.0) \
            - mx.incident_trace_vector_assembled(minc, 1.0)
        worst_q = max(worst_q, float(np.max(np.abs(d))))
    return {
        "calderon_two_route_max_err": worst_cal,
        "im_form_min": float(min_im),
        "maxwell_slab_determinant_min": float(min_det),
        "incident_trace_two_route_max_err": worst_q,
    }


def _random_incidence(rng, k, t1, t2) -> mx.MaxwellIncidence:
    th = np.array([np.sin(t1) * np.cos(t2), np.sin(t1) * np.sin(t2), -np.cos(t1)])
    s = rng.standard_normal(3)
    s = s - (s @ th) * th
    s /= np.linalg.norm(s)
    return mx.MaxwellIncidence(k=k, theta1=t1, theta2=t2, s=tuple(s))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="qpscat", description=__doc__.split("\n")[0])
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", required=True)
    ap.add_argument("--strict", action="store_true",
                    help="escalate hypothesis warnings to exit code 4")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--override", action="append", default=[],
                    metavar="section.key=value")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, overrides=args.override,
                          strict=args.strict, out_dir=args.out)
        return run(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
