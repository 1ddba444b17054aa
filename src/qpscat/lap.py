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

from .errors import ConstraintSingular, NearSingular, NonEvanescentMode
from .helmholtz import _SPLIT_TOL, FieldCoefficients, _block_diag, _medium_profiles, \
    _rayleigh_tails, _require_field, _solve_loaded, assemble, assemble_eps_derivative, \
    rhs, rhs_eps_derivative, solve
from .medium import MediumModel
from .modes import KernelBasis

DEFAULT_EPS_SCHEDULE = tuple(0.1 * 2.0 ** -j for j in range(11))


@dataclass
class ConstrainedSolution:
    field: FieldCoefficients
    kernel_coefficients: np.ndarray
    solve_residual: float
    constraint_block_residual: float
    gram_condition: float
    method: str


def constrained_solve(basis: KernelBasis, medium: MediumModel,
                      load: np.ndarray | None = None,
                      load_deriv: np.ndarray | None = None,
                      method: str = "stacked") -> ConstrainedSolution:
    """Solve  A v = f  subject to  v_l^H A'(0) v = v_l^H f'(0)  per kernel vector.

    A and A'(0) are the medium's at `basis.inc` on `disc = basis.space.disc`;
    the fields live on `disc.space(inc.h)`, `basis.space` for every basis of
    `kernel`.  The system is solved on the whitened diagonal blocks of A,
    through their maps (`DiscreteOperator.stack`, `to` and `back`: one block
    per mode group and depth parity, as A was assembled).  A block holds a
    constraint when its part of some mapped constraint row exceeds
    _SPLIT_TOL of that row's norm: on a split operator, the blocks of the
    kernel vectors.  The blocks that hold none are regular: those that the
    mapped load reaches get one batched LU (`_solve_loaded`), and the rest
    solve to 0.  The holding blocks, taken together as one matrix H, get one
    least-squares call: method='stacked' solves [H; scaled rows] z = [g; d],
    which is consistent with full column rank, so whitening leaves its
    solution unchanged; method='two_step' takes the rcond=1e-10 least-squares
    particular solution of H and corrects it along the kernel by the m x m
    constraint system (raises ConstraintSingular when that system has
    condition above 1e8).  With an empty kernel both reduce to the plain
    solve.  An unknown method, or a `load` or `load_deriv` that is not a
    finite field (n_modes, M) of that space, raises ValueError before any
    assembly.
    """
    if method not in ("stacked", "two_step"):
        raise ValueError(f"unknown method {method!r}")
    inc, disc = basis.inc, basis.space.disc
    sp = disc.space(inc.h)
    if load is None:
        load = rhs(inc, disc)
    if load_deriv is None:
        load_deriv = rhs_eps_derivative(inc, disc)
    _require_field(sp, "load", load)
    _require_field(sp, "load_deriv", load_deriv)
    op = assemble(inc, medium, disc)
    m = basis.dimension
    if m == 0:
        fieldv = solve(op, load)
        resid = np.linalg.norm((op.apply(fieldv.values) - load).ravel())
        return ConstrainedSolution(field=fieldv, kernel_coefficients=np.zeros(0),
                                   solve_residual=float(resid),
                                   constraint_block_residual=0.0,
                                   gram_condition=0.0, method="plain")
    dop = assemble_eps_derivative(inc, medium, disc)
    V = basis.vectors
    rows = np.conj(dop.apply_adjoint(V))  # v_l^H A'(0), as fields
    gram = np.tensordot(V.conj(), dop.apply(V), axes=([1, 2], [1, 2]))
    dvals = np.tensordot(V.conj(), load_deriv, axes=2)
    gcond = float(np.linalg.cond(gram))
    if gcond > 1e8:
        raise ConstraintSingular(
            f"kernel-restricted derivative Gram has condition {gcond:.3e}")

    g = op.to(load)
    R = np.array([op.to(row) for row in rows])  # (m, B, n)
    share = np.linalg.norm(R, axis=2)  # each row's part in each block
    hold = np.any(share > _SPLIT_TOL * np.linalg.norm(share, axis=1)[:, None],
                  axis=0)
    z = _solve_loaded(op.stack, g, ~hold)
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
        coeffs = np.linalg.solve(gram, dvals - np.tensordot(rows, vals, axes=2))
        vals = vals + np.tensordot(coeffs, V, axes=1)

    fieldv = FieldCoefficients(space=sp, inc=inc, values=vals)
    resid = np.linalg.norm((op.apply(vals) - load).ravel())
    cres = np.abs(np.tensordot(rows, vals, axes=2) - dvals).max()
    kcoeffs = basis.coefficients(vals)
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


def eps_sweep(basis: KernelBasis, medium: MediumModel,
              eps_schedule: tuple[float, ...] = DEFAULT_EPS_SCHEDULE,
              load_provider=None, load_deriv=None) -> LapResult:
    """Assemble-and-solve along the eps schedule; cross-validate the limits.

    At k + i*eps about `basis.inc`, on the fields of `constrained_solve`.
    load_provider(inc_eps) supplies the load per perturbed incidence
    (default: the plane-wave load at k + i*eps); the constrained limit uses
    the eps-derivative of the load at 0 (load_deriv, default the plane-wave
    one; pass a zero field for eps-independent synthetic loads).  A
    schedule that is empty, or not finite, positive and decreasing, is a
    ValueError, raised before any assembly.  A level whose operator the
    solve screen refuses raises NearSingular with that level as its `eps`.
    """
    eps_arr = np.asarray(eps_schedule, dtype=float)
    if not (eps_arr.size and np.all(np.isfinite(eps_arr) & (eps_arr > 0))
            and np.all(np.diff(eps_arr) < 0)):
        raise ValueError("eps_schedule must be non-empty, finite, positive and decreasing")
    inc, disc = basis.inc, basis.space.disc
    sp = disc.space(inc.h)
    k = inc.k.real
    if load_provider is None:
        def load_provider(inc_e):
            return rhs(inc_e, disc)
    limit = constrained_solve(basis, medium, load=load_provider(inc),
                              load_deriv=load_deriv)

    def solve_at(eps):
        inc_e = inc.with_k(k + 1j * eps)
        op_e = assemble(inc_e, medium, disc)
        smin, smax = op_e.singularity_report()
        try:
            return solve(op_e, load_provider(inc_e)), smax / smin
        except NearSingular as e:
            raise NearSingular(f"at eps = {eps:.3e}: {e}", e.smallest_singular_value,
                               e.sigma_max, eps=eps) from e

    v_eps, deltas, conds, res_eps = [], [], [], []
    for ve, cond in map(solve_at, eps_schedule):
        v_eps.append(ve)
        deltas.append(sp.norm(ve.values - limit.field.values))
        conds.append(cond)
        res_eps.append(constraint_residual(ve, basis, medium))
    if len(v_eps) >= 2:
        # not over e1 - e0: near the underflow threshold it is subnormal, and
        # a complex division by it overflows
        e1, e0 = eps_schedule[-2], eps_schedule[-1]
        vex = v_eps[-1].values + (v_eps[-1].values - v_eps[-2].values) / (e1 / e0 - 1)
    else:
        vex = v_eps[-1].values.copy()
    v_ex = FieldCoefficients(space=sp, inc=inc, values=vex)
    deltas = np.array(deltas)
    tail = slice(4, None)  # the slope is fitted from the fifth eps level on
    slope = float(np.polyfit(np.log(eps_arr[tail]), np.log(deltas[tail]), 1)[0]) \
        if len(deltas[tail]) >= 2 and np.all(deltas[tail] > 0) else float("nan")
    res_limit = constraint_residual(limit.field, basis, medium)
    return LapResult(eps_schedule=tuple(eps_schedule), v_eps=v_eps,
                     v_limit_extrapolated=v_ex, v_limit_constrained=limit,
                     sweep_deltas=deltas, cond_estimates=np.array(conds),
                     constraint_residuals_eps=np.array(res_eps),
                     constraint_residuals=res_limit, slope=slope)


def constraint_residual(u: FieldCoefficients, basis: KernelBasis,
                        medium: MediumModel) -> np.ndarray:
    """Orthogonality functional of the limit against each kernel vector.

    Evaluates, for each guided mode phi of the basis, the integral over the
    infinite cell of  [tilde_theta . grad_x~ u - i k q u] conj(phi)  at the
    basis's real-k incidence `basis.inc`, by mass-matrix quadrature over the
    layer plus closed-form evanescent tail integrals, for all vectors at
    once.  The q u term is the coupling sum of the table that assembly
    caches per (medium, space) (`_medium_profiles`, `_CouplingTable.couple`),
    which the operator's `apply` also takes, plus its diagonal (c0 + mass)
    u_n, so repeated residuals on one medium build no mass.  The tails
    pair the Rayleigh coefficients of u (`_rayleigh_tails`, as
    `rayleigh_data` reports them) with the modes' end nodes over the
    evanescent orders.  What depends on the basis alone (the mode weights,
    the evanescent orders and their tail coefficients, the conjugated
    vectors and their propagating content) is computed on the first call
    and kept on the basis.  Every vector must be evanescent, on every call:
    propagating tail content above 1e-6 of its norm raises
    NonEvanescentMode.  The incident-wave tail pairs only with the (absent)
    propagating mode content and is dropped.  Raises ValueError unless u
    lives on a space of the basis's discretization and h; an empty basis
    gives an empty array.
    """
    sp = u.space
    if sp.disc != basis.space.disc or sp.h != basis.space.h:
        raise ValueError(
            f"field space (N={sp.disc.N}, M={sp.M}, h={sp.h!r}) does not match the "
            f"kernel space (N={basis.space.disc.N}, M={basis.space.M}, "
            f"h={basis.space.h!r})")
    if basis.dimension == 0:
        return np.zeros(0, dtype=complex)
    for bad in basis._propagating_tail:
        if bad > 1e-6:
            raise NonEvanescentMode(
                f"mode carries propagating Rayleigh content {bad:.3e}")
    w, ev, c, V, V_top, V_bottom = basis._constraint_terms
    k = basis.inc.k.real
    # interior: sum_n int [i (n.theta~ + k sin^2 t1) u_n - i k (q u)_n] conj(phi_n)
    table = _medium_profiles(medium, sp)
    um = u.values @ sp.grid.mass
    qu = table.couple(u.values) + (u.values @ table.c0 + um)  # (q u)_n
    f = w[:, None] * um - 1j * k * qu
    total = V @ f.ravel()
    # evanescent tails: u's Rayleigh coefficients against the modes' end nodes
    u_plus, u_minus = _rayleigh_tails(u, basis.inc)
    total += V_top @ (c * u_plus[ev]) + V_bottom @ (c * u_minus[ev])
    return 4 * np.pi ** 2 * total


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
