"""Closed-form machinery for constant-index layers.

Guided-mode dispersion of the symmetric slab, the Brillouin-zone map of
cut-off and propagative wave vectors, 4x4 transfer-matrix scattering for the
zeroth order, and the explicit determinant showing a q0 < 1 slab carries no
guided modes.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolveFailed
from .helmholtz import RayleighData, _require_memory
from .qpcore import IncidenceSpec, branch_sqrt


@dataclass(frozen=True)
class SlabParams:
    """Constant layer index q0 over |x3| < h at real wavenumber k.

    Raises ValueError unless q0, h and k are positive and abs_alpha >= 0,
    and DomainError when k^2 or k^2 q0 overflows double precision.
    """

    q0: float
    h: float
    k: float
    abs_alpha: float = 0.0

    def __post_init__(self):
        if self.q0 <= 0 or self.h <= 0 or self.k <= 0:
            raise ValueError("q0, h, k must be positive")
        if self.abs_alpha < 0:
            raise ValueError("abs_alpha must be >= 0")
        k = float(self.k)
        if not math.isfinite(k * k * float(self.q0)):  # Python floats: no warning
            raise DomainError(f"k^2 q0 overflows double precision at k = {k:.6g}, "
                              f"q0 = {self.q0:.6g}")


@dataclass(frozen=True)
class DispersionRoot:
    """A guided-mode root: surface wave outside, oscillatory inside."""

    abs_alpha: float
    parity: str
    inner_wavenumber: float  # gamma = sqrt(k^2 q0 - |alpha|^2)
    decay: float             # sqrt(|alpha|^2 - k^2)


def _gamma_decay(p: SlabParams, abs_alpha: float):
    g2 = p.k ** 2 * p.q0 - abs_alpha ** 2
    d2 = abs_alpha ** 2 - p.k ** 2
    return g2, d2


def dispersion_residual(p: SlabParams, parity: str, abs_alpha: float | None = None) -> float:
    """Interface-matching residual of the symmetric-slab guided mode.

    Even ansatz cos(gamma x3):   residual = decay cos(gamma h) - gamma sin(gamma h)
    Odd  ansatz sin(gamma x3):   residual = decay sin(gamma h) + gamma cos(gamma h)

    Zero exactly at guided modes.  Requires k < |alpha| < k sqrt(q0) so the
    field decays outside and oscillates inside.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    a = p.abs_alpha if abs_alpha is None else float(abs_alpha)
    g2, d2 = _gamma_decay(p, a)
    if g2 <= 0 or d2 <= 0:
        raise DomainError(
            f"|alpha| = {a:g} outside the admissible interval "
            f"({p.k:g}, {p.k * np.sqrt(p.q0):g})")
    g, d = np.sqrt(g2), np.sqrt(d2)
    if parity == "even":
        return float(d * np.cos(g * p.h) - g * np.sin(g * p.h))
    return float(d * np.sin(g * p.h) + g * np.cos(g * p.h))


def find_dispersion_roots(q0: float, h: float, k: float,
                          parity: str) -> list[DispersionRoot]:
    """All guided-mode roots in |alpha| in (k, k sqrt(q0)), by bisection.

    Scans a uniform bracket grid of 4000 points for sign changes and bisects
    each to |residual| < 1e-12.  Returns the empty list when q0 <= 1 (the
    admissible interval is empty: no surface can both decay outside and
    oscillate inside).  Raises what SlabParams(q0, h, k) raises.
    """
    p = SlabParams(q0=q0, h=h, k=k)
    if q0 <= 1.0:
        return []
    lo, hi = k, k * np.sqrt(q0)
    margin = (hi - lo) * 1e-9
    grid = np.linspace(lo + margin, hi - margin, 4000)
    vals = np.array([dispersion_residual(p, parity, a) for a in grid])
    roots = []
    for i in range(len(grid) - 1):
        f0, f1 = vals[i], vals[i + 1]
        if f0 == 0.0:
            roots.append(grid[i])
            continue
        if f0 * f1 < 0:
            a, b, fa = grid[i], grid[i + 1], f0
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = dispersion_residual(p, parity, m)
                if abs(fm) < 1e-12:
                    a = b = m
                    break
                if fa * fm < 0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    out = []
    for a in roots:
        g2, d2 = _gamma_decay(p, a)
        out.append(DispersionRoot(abs_alpha=float(a), parity=parity,
                                  inner_wavenumber=float(np.sqrt(g2)),
                                  decay=float(np.sqrt(d2))))
    return out


def guided_mode_profile(root: DispersionRoot, h: float, x3) -> np.ndarray:
    """Depth profile of the closed-form guided mode (unit interior amplitude)."""
    x3 = np.asarray(x3, dtype=float)
    g, d = root.inner_wavenumber, root.decay
    inner = np.cos(g * x3) if root.parity == "even" else np.sin(g * x3)
    top_val = np.cos(g * h) if root.parity == "even" else np.sin(g * h)
    bot_val = top_val if root.parity == "even" else -top_val
    out = np.where(np.abs(x3) <= h, inner,
                   np.where(x3 > h, top_val * np.exp(-d * (x3 - h)),
                            bot_val * np.exp(d * (x3 + h))))
    return out


@dataclass(frozen=True)
class BrillouinMap:
    """Per-cell classification of the zone [-1/2, 1/2]^2.

    classes[i, j]: 0 plain, 1 cut-off circle, 2 propagative circle, 3 both.
    Cell centers at ((i + .5)/grid - .5, (j + .5)/grid - .5).
    """

    grid: int
    k: float
    mode_radius: float
    classes: np.ndarray

    def centers(self):
        c = (np.arange(self.grid) + 0.5) / self.grid - 0.5
        return c

    def count(self, cls: int) -> int:
        mask = (self.classes & cls) > 0 if cls in (1, 2) else self.classes == cls
        return int(np.count_nonzero(mask))


def brillouin_map(k: float, mode_radius: float, grid: int = 512) -> BrillouinMap:
    """Mark zone cells lying on lattice translates of the two circle families.

    A cell is a cut-off cell when min over |l|_inf <= 2 of ||alpha + l| - k|
    is below half the cell diagonal, and a propagative cell with k replaced
    by mode_radius.  Both families restricted to radii < 2 are covered by
    the translate range.  The translates are taken one at a time, so the
    map holds a few arrays of grid^2 entries; OperatorTooLarge is raised,
    before anything is allocated, when they exceed physical memory.
    """
    # 74 bytes a cell at the peak under numpy 2.4: the centres, one translate
    # with the temporaries of its norm, and the masks; 96 leaves room for
    # numpy versions that keep one more temporary
    _require_memory(96 * grid ** 2, f"Brillouin map on a {grid} x {grid} grid",
                    "lower the grid")
    cell = 1.0 / grid
    cell_tolerance = 0.5 * np.sqrt(2.0) * cell
    c = (np.arange(grid) + 0.5) * cell - 0.5
    pts = np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1).reshape(-1, 2)
    cutoff = np.zeros(len(pts), dtype=bool)
    propagative = np.zeros(len(pts), dtype=bool)
    for l in itertools.product(range(-2, 3), repeat=2):
        dist = np.linalg.norm(pts + np.array(l, dtype=float), axis=1)
        if k > 0:
            cutoff |= np.abs(dist - k) < cell_tolerance
        if mode_radius > 0:
            propagative |= np.abs(dist - mode_radius) < cell_tolerance
    if not mode_radius > 0:
        # radius zero: only the cell(s) touching the origin qualify
        propagative = np.linalg.norm(pts, axis=1) <= cell_tolerance * (1 + 1e-9)
    classes = cutoff.astype(np.int8)
    classes[propagative] |= 2
    return BrillouinMap(grid=grid, k=k, mode_radius=mode_radius,
                        classes=classes.reshape(grid, grid))


def write_brillouin_csv(bmap: BrillouinMap, path) -> None:
    """Emit (alpha1, alpha2, class) rows for external plotting."""
    c = bmap.centers()
    with open(path, "w", newline="", encoding="utf-8") as f:
        wr = csv.writer(f)
        wr.writerow(["alpha1", "alpha2", "class"])
        for i in range(bmap.grid):
            for j in range(bmap.grid):
                cls = int(bmap.classes[i, j])
                if cls:
                    wr.writerow([f"{c[i]:.9f}", f"{c[j]:.9f}", cls])


def transfer_matrix_scattering(p: SlabParams, inc: IncidenceSpec) -> RayleighData:
    """Analytic zeroth-order scattering off the constant slab.

    Solves the 4-unknown continuity system (field and normal derivative at
    x3 = +-h) for the reflected/transmitted coefficients and the interior
    amplitudes; exact up to round-off.  Requires propagating incidence
    |alpha| < k and real k.  Raises SolveFailed when the system is singular
    in floating point, as it is for k below about 1e-162, where the
    products of the derivative rows underflow.
    """
    if inc.k.imag != 0:
        raise ValueError("transfer-matrix oracle requires real k")
    k = inc.k.real
    al = float(np.linalg.norm(inc.alpha_vec))
    if al >= k:
        raise DomainError(f"|alpha| = {al:g} >= k = {k:g}: incidence not propagating")
    h = inc.h
    b0 = np.sqrt(k * k - al * al)
    g = branch_sqrt(k * k * p.q0 - al * al)
    eg, emg = np.exp(1j * g * h), np.exp(-1j * g * h)
    e0 = np.exp(-1j * b0 * h)
    A = np.array([
        [1.0, 0.0, -eg, -emg],
        [1j * b0, 0.0, -1j * g * eg, 1j * g * emg],
        [0.0, 1.0, -emg, -eg],
        [0.0, -1j * b0, -1j * g * emg, 1j * g * eg],
    ], dtype=complex)
    rhs = np.array([-e0, 1j * b0 * e0, 0.0, 0.0], dtype=complex)
    try:
        up, um, _, _ = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        raise SolveFailed(f"transfer-matrix system singular in floating point "
                          f"at k = {k:g}") from None
    eff_up = {(0, 0): float(abs(up) ** 2)}
    eff_dn = {(0, 0): float(abs(um) ** 2)}
    balance = abs(eff_up[(0, 0)] + eff_dn[(0, 0)] - 1.0)
    return RayleighData(u_plus={(0, 0): complex(up)}, u_minus={(0, 0): complex(um)},
                        efficiencies_up=eff_up, efficiencies_down=eff_dn,
                        balance_residual=float(balance))


def no_mode_determinant(p: SlabParams, abs_alpha_n: float | None = None) -> float:
    """Determinant of the guided-mode continuity system for a q0 < 1 slab.

    Returns (e^{-2|gamma_n|} - e^{2|gamma_n|}) k^2 (1 - q0), strictly negative
    on the valid domain, so the system admits only the trivial solution:
    such slabs support no guided modes.  Requires 0 < q0 < 1 and
    k sqrt(q0) < |alpha_n| < k (interior evanescent, order propagating).
    The h = 1 normalization of the underlying expansion is used.
    """
    a = p.abs_alpha if abs_alpha_n is None else float(abs_alpha_n)
    if not 0 < p.q0 < 1:
        raise DomainError(f"q0 = {p.q0:g} must lie in (0, 1)")
    if a >= p.k:
        raise DomainError(f"|alpha_n| = {a:g} must be < k = {p.k:g}")
    g2 = p.k ** 2 * p.q0 - a ** 2
    if g2 >= 0:
        raise DomainError(
            f"|alpha_n| = {a:g} <= k sqrt(q0) = {p.k * np.sqrt(p.q0):g}: "
            "gamma_n not purely imaginary")
    gam = np.sqrt(-g2)
    return float((np.exp(-2 * gam) - np.exp(2 * gam)) * p.k ** 2 * (1.0 - p.q0))
