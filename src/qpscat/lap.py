"""Limiting-absorption machinery at a propagative wave vector.

When the quasi-momentum of the incident wave supports guided modes, the
real-k operator is singular and the physical solution is defined as the
limit of the unique absorbing solutions at k + i*eps.  Numerically the limit
is reached two ways and cross-validated:

  * eps_sweep: assemble-and-solve along a decreasing eps schedule, with
    Richardson extrapolation of the last two iterates;
  * constrained_solve: the augmented system  A v = f,  P A'(0) v = P f'(0),
    where P projects onto the kernel along the weighted-orthogonal splitting;
    solved stacked (least squares) with a two-step variant (particular
    solution + kernel correction) as an internal cross-check.

The orthogonality constraint satisfied by the limit is evaluated
independently by quadrature over the cell plus closed-form evanescent tail
integrals.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintSingular, NonEvanescentMode
from .helmholtz import _SPLIT_TOL, Discretization, DiscreteOperator, \
    FieldCoefficients, FieldSpace, _block_diag, _medium_profiles, \
    _require_field, assemble, assemble_eps_derivative, rayleigh_data, rhs, \
    rhs_eps_derivative, solve
from .medium import MediumModel
from .modes import KernelBasis, LiftedMode, mode_lift
from .qpcore import IncidenceSpec, beta, classify_modes

DEFAULT_EPS_SCHEDULE = tuple(0.1 * 2.0 ** -j for j in range(11))


@dataclass
class LapScenario:
    """A limiting-absorption run: incidence at real k, medium, grid, kernel."""

    inc: IncidenceSpec
    medium: MediumModel
    disc: Discretization
    kernel: KernelBasis
    eps_schedule: tuple[float, ...] = DEFAULT_EPS_SCHEDULE

    def __post_init__(self):
        if self.inc.k.imag != 0:
            raise ValueError("scenario wavenumber must be real")
        eps = np.asarray(self.eps_schedule, dtype=float)
        if not np.all(np.isfinite(eps)) or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
            raise ValueError("eps_schedule must be finite, positive and decreasing")

    @property
    def space(self) -> FieldSpace:
        return self.kernel.space


def derivative_operator(scn: LapScenario) -> DiscreteOperator:
    """The eps-derivative A'(0) of the assembled operator family at real k."""
    return assemble_eps_derivative(scn.inc, scn.medium, scn.disc, scn.space)


class KernelProjector:
    """Projection onto the kernel span along the weighted-orthogonal splitting.

    P u = sum_l <u, v_l> v_l for the W-orthonormal kernel basis; P^2 = P and
    P annihilates the range of the real-k operator up to the evanescence
    quality of the kernel.
    """

    def __init__(self, basis: KernelBasis):
        self.basis = basis

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        for v in self.basis.vectors:
            out += self.basis.space.inner(u, v) * v
        return out


def projection(scn: LapScenario) -> KernelProjector:
    return KernelProjector(scn.kernel)


@dataclass
class ConstrainedSolution:
    field: FieldCoefficients
    kernel_coefficients: np.ndarray
    solve_residual: float
    constraint_block_residual: float
    gram_condition: float
    method: str


def _constraint_rows(scn: LapScenario, dop: DiscreteOperator):
    """Rows v_l^H A'(0) (flat) and the kernel-restricted Gram v_i^H A'(0) v_j."""
    vecs = scn.kernel.vectors
    rows = []
    for v in vecs:
        r = dop.apply_adjoint(v)  # A'(0)^H v
        rows.append(np.conj(r.ravel()))
    m = len(vecs)
    gram = np.zeros((m, m), dtype=complex)
    for j, vj in enumerate(vecs):
        av = dop.apply(vj)
        for i, vi in enumerate(vecs):
            gram[i, j] = np.vdot(vi.ravel(), av.ravel())
    return rows, gram


def constrained_solve(scn: LapScenario, load: np.ndarray | None = None,
                      load_deriv: np.ndarray | None = None,
                      method: str = "stacked") -> ConstrainedSolution:
    """Solve  A v = f  subject to  v_l^H A'(0) v = v_l^H f'(0)  per kernel vector.

    The system is solved on the whitened diagonal blocks of A, through
    their maps (`DiscreteOperator.stack`, `to` and `back`: one block per
    mode group and depth parity, as A was assembled).  A block
    holds a constraint when its part of some mapped constraint row exceeds
    _SPLIT_TOL of that row's norm: on a split operator, the blocks of the
    kernel vectors.  The blocks that hold none are regular and get one
    batched LU.  The holding blocks, taken together as one matrix H, get one
    least-squares call: method='stacked' solves [H; scaled rows] z = [g; d],
    which is consistent with full column rank, so whitening leaves its
    solution unchanged; method='two_step' takes the rcond=1e-10 least-squares
    particular solution of H and corrects it along the kernel by the m x m
    constraint system (raises ConstraintSingular when that system has
    condition above 1e8).  With an empty kernel both reduce to the plain
    solve.  An unknown method, or a `load` or `load_deriv` that is not a
    finite field (n_modes, M) of the scenario's space, raises ValueError
    before any assembly.
    """
    if method not in ("stacked", "two_step"):
        raise ValueError(f"unknown method {method!r}")
    sp = scn.space
    if load is None:
        load = rhs(scn.inc, scn.disc, sp)
    if load_deriv is None:
        load_deriv = rhs_eps_derivative(scn.inc, scn.disc, sp)
    _require_field(sp, "load", load)
    _require_field(sp, "load_deriv", load_deriv)
    op = assemble(scn.inc, scn.medium, scn.disc, sp)
    m = scn.kernel.dimension
    if m == 0:
        fieldv = solve(op, load)
        resid = np.linalg.norm((op.apply(fieldv.values) - load).ravel())
        return ConstrainedSolution(field=fieldv, kernel_coefficients=np.zeros(0),
                                   solve_residual=float(resid),
                                   constraint_block_residual=0.0,
                                   gram_condition=0.0, method="plain")
    dop = derivative_operator(scn)
    rows, gram = _constraint_rows(scn, dop)
    dvals = np.array([np.vdot(v.ravel(), load_deriv.ravel())
                      for v in scn.kernel.vectors])
    gcond = float(np.linalg.cond(gram))
    if gcond > 1e8:
        raise ConstraintSingular(
            f"kernel-restricted derivative Gram has condition {gcond:.3e}")

    g = op.to(load)
    R = np.array([op.to(row.reshape(load.shape)) for row in rows])  # (m, B, n)
    share = np.linalg.norm(R, axis=2)  # each row's part in each block
    hold = np.any(share > _SPLIT_TOL * np.linalg.norm(share, axis=1)[:, None],
                  axis=0)
    z = np.zeros_like(g)
    free = ~hold
    if free.any():
        z[free] = np.linalg.solve(op.stack[free], g[free][..., None])[..., 0]
    H = _block_diag(op.stack[hold])
    Rh = R[:, hold].reshape(m, -1)
    gh = g[hold].ravel()
    if method == "stacked":
        scale = np.linalg.norm(H, ord="fro") / np.sqrt(len(H))
        f = scale / np.maximum(np.linalg.norm(Rh, axis=1), 1e-300)
        zh, *_ = np.linalg.lstsq(np.vstack([H, f[:, None] * Rh]),
                                 np.concatenate([gh, f * dvals]), rcond=None)
    else:
        # particular solution with kernel directions truncated
        zh, *_ = np.linalg.lstsq(H, gh, rcond=1e-10)
    z[hold] = zh.reshape(-1, z.shape[1])
    vals = op.back(z)
    if method == "two_step":
        rhs_c = dvals - np.array([row @ vals.ravel() for row in rows])
        coeffs = np.linalg.solve(gram, rhs_c)
        vals = vals + sum(c * v for c, v in zip(coeffs, scn.kernel.vectors))

    fieldv = FieldCoefficients(space=sp, inc=scn.inc, values=vals)
    resid = np.linalg.norm((op.apply(vals) - load).ravel())
    cres = max(abs(row @ vals.ravel() - d) for row, d in zip(rows, dvals))
    kcoeffs = scn.kernel.coefficients(vals)
    return ConstrainedSolution(field=fieldv, kernel_coefficients=kcoeffs,
                               solve_residual=float(resid),
                               constraint_block_residual=float(cres),
                               gram_condition=gcond, method=method)


@dataclass
class LapResult:
    eps_schedule: tuple[float, ...]
    v_eps: list[FieldCoefficients]
    v_limit_extrapolated: FieldCoefficients
    v_limit_constrained: ConstrainedSolution
    sweep_deltas: np.ndarray
    cond_estimates: np.ndarray
    constraint_residuals_eps: np.ndarray  # (n_eps, kernel_dim)
    constraint_residuals: np.ndarray      # of the constrained limit
    slope: float

    @property
    def final_relative_delta(self) -> float:
        return float(self.sweep_deltas[-1] / self.v_limit_constrained.field.norm())


def eps_sweep(scn: LapScenario, load_provider=None, load_deriv=None) -> LapResult:
    """Assemble-and-solve along the eps schedule; cross-validate the limits.

    load_provider(inc_eps) supplies the load per perturbed incidence
    (default: the plane-wave load at k + i*eps); the constrained limit uses
    the eps-derivative of the load at 0 (load_deriv, default the plane-wave
    one; pass a zero field for eps-independent synthetic loads).
    """
    sp = scn.space
    k = scn.inc.k.real
    if load_provider is None:
        def load_provider(inc_e):
            return rhs(inc_e, scn.disc, sp)
    limit = constrained_solve(scn, load=load_provider(scn.inc),
                              load_deriv=load_deriv)
    lifted = mode_lift(scn.kernel, scn.inc)

    def solve_at(eps):
        inc_e = scn.inc.with_k(k + 1j * eps)
        op_e = assemble(inc_e, scn.medium, scn.disc, sp)
        smin, smax = op_e.singularity_report()
        return solve(op_e, load_provider(inc_e)), smax / smin

    v_eps, deltas, conds, res_eps = [], [], [], []
    for ve, cond in map(solve_at, scn.eps_schedule):
        v_eps.append(ve)
        deltas.append(sp.norm(ve.values - limit.field.values))
        conds.append(cond)
        if lifted:
            res_eps.append(constraint_residual(ve, lifted, scn.inc, scn.medium))
        else:
            res_eps.append(np.zeros(0, dtype=complex))
    if len(v_eps) >= 2:
        e1, e0 = scn.eps_schedule[-2], scn.eps_schedule[-1]
        vex = v_eps[-1].values + (v_eps[-1].values - v_eps[-2].values) * e0 / (e1 - e0)
    else:
        vex = v_eps[-1].values.copy()
    v_ex = FieldCoefficients(space=sp, inc=scn.inc, values=vex)
    deltas = np.array(deltas)
    tail = slice(4, None)  # the slope is fitted from the fifth eps level on
    eps_arr = np.array(scn.eps_schedule)
    slope = float(np.polyfit(np.log(eps_arr[tail]), np.log(deltas[tail]), 1)[0]) \
        if len(deltas[tail]) >= 2 and np.all(deltas[tail] > 0) else float("nan")
    res_limit = constraint_residual(limit.field, lifted, scn.inc, scn.medium) \
        if lifted else np.zeros(0, dtype=complex)
    return LapResult(eps_schedule=tuple(scn.eps_schedule), v_eps=v_eps,
                     v_limit_extrapolated=v_ex, v_limit_constrained=limit,
                     sweep_deltas=deltas, cond_estimates=np.array(conds),
                     constraint_residuals_eps=np.array(res_eps),
                     constraint_residuals=res_limit, slope=slope)


def constraint_residual(u: FieldCoefficients, mode_basis: list[LiftedMode],
                        inc: IncidenceSpec, medium: MediumModel,
                        form: str = "theta",
                        evanescence_tol: float = 1e-6) -> np.ndarray:
    """Orthogonality functional of the limit against each guided mode.

    Evaluates   integral over the infinite cell of
    [tilde_theta . grad_x~ u - i k q u] conj(phi)   (form='theta'), or the
    k-scaled variant [alpha . grad_x~ u - i k^2 q u] conj(phi)
    (form='alpha', exactly k times the former), by mass-matrix quadrature
    over the layer plus closed-form evanescent tail integrals.  The q u term
    is the coupling sum of the table that assembly caches per (medium,
    space) (`_medium_profiles`, `_CouplingTable.couple`), which the
    operator's `apply` also takes, so repeated residuals on one medium
    build no mass.  Modes must
    be evanescent: propagating tail content above evanescence_tol raises
    NonEvanescentMode.  The incident-wave tail pairs only with the (absent)
    propagating mode content and is dropped.
    """
    if form not in ("theta", "alpha"):
        raise ValueError("form must be 'theta' or 'alpha'")
    sp = u.space
    grid = sp.grid
    k = inc.k.real
    tt = inc.tilde_theta
    al = inc.alpha_vec
    cls = classify_modes(inc, sp.disc.N)
    qu = _medium_profiles(medium, sp).couple(u.values)  # (q u)_n = sum_m C_{n-m} u_m
    rd = rayleigh_data(u, inc)

    if form == "theta":
        def vol_coeff(n):
            nv = np.asarray(n, dtype=float)
            return 1j * float(nv @ tt), 1j * k * inc.sin2_theta1, -1j * k
        def tail_coeff(n):
            nv = np.asarray(n, dtype=float)
            return 1j * float(nv @ tt) - 1j * k * inc.cos2_theta1
    else:
        k2c2 = k * k - float(al @ al)
        def vol_coeff(n):
            nv = np.asarray(n, dtype=float)
            return 1j * float(nv @ al), 1j * float(al @ al), -1j * k * k
        def tail_coeff(n):
            nv = np.asarray(n, dtype=float)
            return 1j * float(nv @ al) - 1j * k2c2

    out = []
    for phi in mode_basis:
        nrm = max(sp.norm(phi.field.values), 1e-300)
        bad = max([max(abs(phi.tail_plus.get(n, 0.0)), abs(phi.tail_minus.get(n, 0.0)))
                   for n in cls.propagating], default=0.0)
        if bad > evanescence_tol * nrm:
            raise NonEvanescentMode(
                f"mode carries propagating Rayleigh content {bad:.3e}")
        total = 0.0 + 0.0j
        # interior: sum_n int [c_grad v_n + c_shift v_n + c_pot (q*v)_n] psi_n~
        for i, n in enumerate(sp.modes):
            psi = phi.field.values[i]
            if np.max(np.abs(psi)) == 0.0:
                continue
            c_grad, c_shift, c_pot = vol_coeff(n)
            vn = u.values[i]
            total += (c_grad + c_shift) * (np.conj(psi) @ (grid.mass @ vn))
            total += c_pot * (np.conj(psi) @ qu[i])
        # evanescent tails
        for n in cls.evanescent:
            pp = phi.tail_plus.get(n, 0.0)
            pm = phi.tail_minus.get(n, 0.0)
            if pp == 0.0 and pm == 0.0:
                continue
            babs = abs(beta(n, inc))
            c = tail_coeff(n) / (2.0 * babs)
            total += c * (rd.u_plus.get(n, 0.0) * np.conj(pp)
                          + rd.u_minus.get(n, 0.0) * np.conj(pm))
        out.append(4 * np.pi ** 2 * total)
    return np.array(out, dtype=complex)


def write_sweep_csv(result: LapResult, path) -> None:
    """Emit eps, ||v(eps) - v*||, condition estimate, |constraint residuals|."""
    m = result.constraint_residuals_eps.shape[1] if result.constraint_residuals_eps.size \
        else 0
    with open(path, "w", newline="", encoding="utf-8") as f:
        wr = csv.writer(f)
        wr.writerow(["eps", "delta_to_constrained", "cond_estimate"]
                    + [f"constraint_res_{l + 1}" for l in range(m)])
        for i, eps in enumerate(result.eps_schedule):
            row = [f"{eps:.12e}", f"{result.sweep_deltas[i]:.12e}",
                   f"{result.cond_estimates[i]:.6e}"]
            for l in range(m):
                row.append(f"{abs(result.constraint_residuals_eps[i, l]):.12e}")
            wr.writerow(row)
