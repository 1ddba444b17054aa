"""Periodic Fourier-Galerkin solver for the layer scattering problem.

The quasi-periodic total field u is reduced to a periodic unknown
v = e^{-i alpha.x~} u.  Transversally v is expanded in Fourier modes
e^{i n.x~} (exact diagonalization of the DtN closure); in depth each modal
profile v_n(x3) lives on a nodal basis over [-h, h], either Chebyshev-Lobatto
points with exactly integrated Galerkin matrices (default, spectral) or a
uniform grid with the standard second-order stencil.  Per mode the operator
realizes

    v_n'' + beta_n^2 v_n + k^2 sum_m (qhat_{n-m}(x3) - delta_{nm}) v_m = 0

in weak form, closed by the radiation rows v_n'(+-h) = +-i beta_n v_n(+-h);
the constant background is folded into beta_n^2 so a q == 1 layer is
transparent to round-off.  The incident load sits in the n = 0 row at the
top boundary with value -2ik cos(t1) e^{-ikh cos(t1)}.

The weighted inner product used for kernels/projections is

    <v, psi> = int grad v . grad psi~  +  4 pi^2 sum_n (1+|n|^2)^{1/2}
               (v_n^+ psi_n^+~ + v_n^- psi_n^-~),

realized per mode by W_n = 4 pi^2 [K + |n|^2 Mass + sqrt(1+|n|^2)(E_t + E_b)].
Singularity detection and kernel extraction run on the whitened matrix
W^{-1/2} G W^{-1/2}, whose conditioning stays O(1) in the resolution.
"""
from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasError, NearSingular, OperatorTooLarge, SolveFailed
from .medium import MediumModel
from .qpcore import IncidenceSpec, ModeIndex, _field_point, beta, beta_table, \
    classify_modes, d_beta_d_eps, mode_range, rayleigh_eval

CHEBYSHEV = "chebyshev_collocation"
FINITE_DIFFERENCE = "finite_difference_order2"

#: relative smallest singular value below which a solve refuses to proceed
NEAR_SINGULAR_THRESHOLD = 1e-8

#: relative Frobenius norm of the even/odd cross blocks below which a dense
#: operator counts as mirror-symmetric in depth (round-off leaves ~1e-15)
_PARITY_CROSS_TOL = 1e-13

#: mass matrix of the second-order depth scheme: average of the consistent
#: and lumped P1 masses.  The average cancels the leading interior dispersion
#: term of either choice (the standard reduced-dispersion mass); the scheme
#: stays second order through its boundary treatment, which dominates the
#: error at desk resolutions.  Plain lumped or consistent masses leave ~4e-3
#: coefficient errors at M = 64 for k h = 2 slabs; the average leaves ~9e-4.
FD_MASS_BLEND = 0.5


@dataclass(frozen=True)
class Discretization:
    """Transverse truncation |n|_inf <= N and M depth nodes on [-h, h].

    Owns one FieldSpace per layer half-height h (see `space`), so repeated
    solves on one discretization build the depth grid, the W_n factors and
    the depth-parity basis once.  The cache takes no part in equality,
    hashing or repr.
    """

    N: int
    M: int
    depth_scheme: str = CHEBYSHEV
    _spaces: dict = field(default_factory=dict, init=False, compare=False,
                          hash=False, repr=False)

    def __post_init__(self):
        for name in ("N", "M"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.M < 8:
            raise ValueError("M must be at least 8")
        if self.N < 0:
            raise ValueError("N must be >= 0")
        if self.depth_scheme not in (CHEBYSHEV, FINITE_DIFFERENCE):
            raise ValueError(f"unknown depth scheme {self.depth_scheme!r}")

    @property
    def unknowns(self) -> int:
        return (2 * self.N + 1) ** 2 * self.M

    def space(self, h: float) -> FieldSpace:
        """The FieldSpace of this discretization on [-h, h], built on first use."""
        h = float(h)
        if h not in self._spaces:
            self._spaces[h] = FieldSpace(self, h)
        return self._spaces[h]


# ---------------------------------------------------------------------------
# depth grids


def _cheb_nodes_diff(M: int, h: float):
    """Chebyshev-Lobatto nodes (ascending) and differentiation matrix on [-h, h]."""
    n = M - 1
    x = np.cos(np.pi * np.arange(M) / n)
    c = np.ones(M)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(M)
    dX = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (dX + np.eye(M))
    D -= np.diag(D.sum(axis=1))
    return h * x[::-1], D[::-1, ::-1] / h


def _clencurt(M: int, h: float):
    """Clenshaw-Curtis weights on the M Chebyshev-Lobatto points, ascending."""
    n = M - 1
    theta = np.pi * np.arange(M) / n
    w = np.zeros(M)
    ii = np.arange(1, n)
    v = np.ones(n - 1)
    if n % 2 == 0:
        w[0] = w[n] = 1.0 / (n * n - 1)
        for m in range(1, n // 2):
            v -= 2.0 * np.cos(2 * m * theta[ii]) / (4 * m * m - 1)
        v -= np.cos(n * theta[ii]) / (n * n - 1)
    else:
        w[0] = w[n] = 1.0 / (n * n)
        for m in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * m * theta[ii]) / (4 * m * m - 1)
    w[ii] = 2.0 * v / n
    return h * w[::-1]


def _cheb_bary_weights(M: int) -> np.ndarray:
    wb = np.ones(M)
    wb[0] = wb[-1] = 0.5
    wb *= (-1.0) ** np.arange(M)
    return wb


class DepthGrid:
    """Nodal basis in depth with exact (or scheme-consistent) Galerkin matrices.

    Exposes nodes, stiffness K = int l_i' l_j', mass = int l_i l_j, a
    differentiation matrix for diagnostics, quadrature data for profile-
    weighted mass matrices, and barycentric/linear interpolation.
    """

    def __init__(self, disc: Discretization, h: float):
        self.scheme = disc.depth_scheme
        self.M = disc.M
        self.h = float(h)
        M = disc.M
        if self.scheme == CHEBYSHEV:
            self.nodes, self.diff = _cheb_nodes_diff(M, h)
            self._bary = _cheb_bary_weights(M)
            Q = 2 * M
            self.quad_x, _ = _cheb_nodes_diff(Q, h)
            self.quad_w = _clencurt(Q, h)
            E = self._interp_matrix(self.quad_x)
            self.quad_interp = E
            mass = E.T @ (self.quad_w[:, None] * E)
            self.mass = 0.5 * (mass + mass.T)
            ED = E @ self.diff
            stiff = ED.T @ (self.quad_w[:, None] * ED)
            self.stiffness = 0.5 * (stiff + stiff.T)
        else:
            self.nodes = np.linspace(-h, h, M)
            d = self.nodes[1] - self.nodes[0]
            K = np.zeros((M, M))
            idx = np.arange(M - 1)
            np.add.at(K, (idx, idx), 1.0 / d)
            np.add.at(K, (idx + 1, idx + 1), 1.0 / d)
            np.add.at(K, (idx, idx + 1), -1.0 / d)
            np.add.at(K, (idx + 1, idx), -1.0 / d)
            self.stiffness = K
            self.mass = self._fd_weighted_mass(np.ones(M)).real
            D = np.zeros((M, M))
            D[1:-1, 2:] += np.eye(M - 2) / (2 * d)
            D[1:-1, :-2] -= np.eye(M - 2) / (2 * d)
            D[0, :3] = np.array([-3.0, 4.0, -1.0]) / (2 * d)
            D[-1, -3:] = np.array([1.0, -4.0, 3.0]) / (2 * d)
            self.diff = D
            self.quad_x = self.nodes
            w = np.full(M, d)
            w[0] = w[-1] = d / 2
            self.quad_w = w
            self.quad_interp = np.eye(M)

    def _fd_weighted_mass(self, profile_at_nodes: np.ndarray) -> np.ndarray:
        """Per-element blended mass with a piecewise-constant profile."""
        M = self.M
        d = self.nodes[1] - self.nodes[0]
        th = FD_MASS_BLEND
        diag_c, off_c = d / 3.0, d / 6.0       # consistent element mass
        diag_l = d / 2.0                       # lumped element mass
        out = np.zeros((M, M), dtype=complex)
        pe = 0.5 * (profile_at_nodes[:-1] + profile_at_nodes[1:])
        dg = th * diag_c + (1 - th) * diag_l
        off = th * off_c
        idx = np.arange(M - 1)
        np.add.at(out, (idx, idx), pe * dg)
        np.add.at(out, (idx + 1, idx + 1), pe * dg)
        np.add.at(out, (idx, idx + 1), pe * off)
        np.add.at(out, (idx + 1, idx), pe * off)
        return out

    def weighted_mass(self, profile_at_quad: np.ndarray) -> np.ndarray:
        """Matrix of int p(x3) l_i(x3) l_j(x3) dx3 for p given at the quadrature nodes."""
        if self.scheme == FINITE_DIFFERENCE:
            return self._fd_weighted_mass(np.asarray(profile_at_quad))
        E = self.quad_interp
        return E.T.astype(complex) @ ((self.quad_w * profile_at_quad)[:, None] * E)

    def _interp_matrix(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros((len(pts), self.M))
        x = self.nodes
        for a, xx in enumerate(pts):
            diff = xx - x
            hit = np.flatnonzero(np.abs(diff) < 1e-13 * max(self.h, 1.0))
            if hit.size:
                out[a, hit[0]] = 1.0
            else:
                t = self._bary / diff
                out[a] = t / t.sum()
        return out

    def interpolate(self, values: np.ndarray, x3: float) -> np.ndarray:
        """Evaluate nodal profiles, shape (..., M), at a point in [-h, h].

        The interpolation row is built once and applied to every profile.
        """
        if self.scheme == CHEBYSHEV:
            return values @ self._interp_matrix(np.array([x3]))[0]
        j = np.searchsorted(self.nodes, x3) - 1
        j = min(max(j, 0), self.M - 2)
        t = (x3 - self.nodes[j]) / (self.nodes[j + 1] - self.nodes[j])
        return (1 - t) * values[..., j] + t * values[..., j + 1]


# ---------------------------------------------------------------------------
# discrete field space (layout + weighted inner product)


class FieldSpace:
    """Layout of discrete periodic fields: Fourier modes x depth nodes.

    Fields are arrays of shape (n_modes, M).  The space owns everything that
    depends only on the discretization and h, built once at construction:
    the depth grid; the weighted inner-product blocks W_n and their symmetric
    square roots, stacked in mode order as W, W_sqrt and W_isqrt of shape
    (n_modes, M, M), with one eigendecomposition per distinct |n|^2; and, for
    even M, the depth-parity basis `parity` = (P, S) that splits operators
    mirror-symmetric in depth (None for odd M).  The depth reflection
    x3 -> -x3 maps node j to M-1-j; P is orthonormal with columns
    (e_j +- e_{M-1-j}) / sqrt(2) for j < M/2, even ones first, and S, of shape
    (2, n_modes, M/2, M/2), holds the even and odd blocks of P^T W_n^{-1/2} P,
    whose cross blocks vanish because every W_n commutes with the reflection.
    """

    def __init__(self, disc: Discretization, h: float):
        self.disc = disc
        self.h = float(h)
        self.grid = g = DepthGrid(disc, h)
        self.modes: list[ModeIndex] = mode_range(disc.N)
        self.mode_index = {n: i for i, n in enumerate(self.modes)}
        self.M = M = disc.M
        self.size = len(self.modes) * M
        n2, which = np.unique([a * a + b * b for a, b in self.modes],
                              return_inverse=True)
        W = g.stiffness + n2[:, None, None] * g.mass
        s = np.sqrt(1.0 + n2)
        W[:, 0, 0] += s
        W[:, -1, -1] += s
        W *= 4 * np.pi ** 2
        roots = []
        for Wd in W:
            lam, U = np.linalg.eigh(Wd)
            if lam[0] <= 0:
                raise SolveFailed("weighted inner product not positive definite")
            roots.append((U * np.sqrt(lam) @ U.T, U * (1 / np.sqrt(lam)) @ U.T))
        W_sqrt, W_isqrt = map(np.array, zip(*roots))
        self.W, self.W_sqrt, self.W_isqrt = W[which], W_sqrt[which], W_isqrt[which]
        self.parity = None
        if M % 2 == 0:
            half = M // 2
            j = np.arange(half)
            P = np.zeros((M, M))
            P[j, j] = P[M - 1 - j, j] = P[j, half + j] = np.sqrt(0.5)
            P[M - 1 - j, half + j] = -np.sqrt(0.5)
            S = P.T @ self.W_isqrt @ P
            self.parity = (P, np.stack([S[:, :half, :half], S[:, half:, half:]]))

    def zeros(self) -> np.ndarray:
        return np.zeros((len(self.modes), self.M), dtype=complex)

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        """<u, v> in the weighted product (conjugate-linear in v)."""
        return complex(np.vdot(v, (self.W @ u[..., None])[..., 0]))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(u, u).real, 0.0)))

    def whiten(self, u: np.ndarray) -> np.ndarray:
        """Map a field to whitened coordinates y = W^{1/2} u (per mode)."""
        return (self.W_sqrt @ u[..., None])[..., 0]

    def unwhiten(self, y: np.ndarray) -> np.ndarray:
        return (self.W_isqrt @ y[..., None])[..., 0]


# ---------------------------------------------------------------------------
# the discrete operator


class DiscreteOperator:
    """Assembled bilinear-form matrix of the layer problem at one wavenumber.

    Block-diagonal over the transverse modes whenever the medium is
    transversely uniform (`blocks`, one (modes, M, M) array); otherwise
    dense over the full layout.  `matrix` exposes the flat representation
    with row (mode index) * M + (depth index).  Everything that depends only
    on the layout and the weighted product lives on `space`; the operator
    keeps its matrix and caches its whitened matrix, its whitened singular
    values and, when it is dense and mirror-symmetric in depth, its whitened
    parity halves, which serve both the screen and `solve`.
    """

    def __init__(self, inc, space, blocks=None, dense=None):
        self.inc = inc
        self.space = space
        self.blocks = blocks
        self.dense = dense
        self._whitened = None
        self._svals = None
        self._halves = None

    @property
    def block_diagonal(self) -> bool:
        return self.blocks is not None

    @property
    def matrix(self) -> np.ndarray:
        if self.dense is not None:
            return self.dense
        nm, M = self.blocks.shape[:2]
        out = np.zeros((nm, M, nm, M), dtype=complex)
        diag = np.arange(nm)
        out[diag, :, diag, :] = self.blocks
        return out.reshape(self.space.size, -1)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Matrix action on a field of shape (n_modes, M)."""
        if self.block_diagonal:
            return (self.blocks @ u[..., None])[..., 0]
        return (self.dense @ u.reshape(-1)).reshape(u.shape)

    def apply_adjoint(self, u: np.ndarray) -> np.ndarray:
        if self.block_diagonal:
            return (self.blocks.conj().swapaxes(1, 2) @ u[..., None])[..., 0]
        return (self.dense.conj().T @ u.reshape(-1)).reshape(u.shape)

    def whitened(self) -> np.ndarray:
        """W^{-1/2} G W^{-1/2}: stacked (modes, M, M) blocks, or a dense matrix."""
        if self._whitened is None:
            sp = self.space
            if self.block_diagonal:
                # faster than a batched real @ complex product or np.stack
                Gt = np.empty_like(self.blocks)
                for i, (S, B) in enumerate(zip(sp.W_isqrt, self.blocks)):
                    np.matmul(S @ B, S, out=Gt[i])
                self._whitened = Gt
            else:
                M = sp.M
                Gt = sp.W_isqrt @ self.dense.reshape(len(sp.modes), M, -1)
                Gt = Gt.reshape(sp.size, -1)
                for j, S in enumerate(sp.W_isqrt):
                    Gt[:, j * M:(j + 1) * M] = Gt[:, j * M:(j + 1) * M] @ S
                self._whitened = Gt
        return self._whitened

    def whitened_singular_values(self) -> np.ndarray:
        """All singular values of W^{-1/2} G W^{-1/2}, descending, cached.

        Block-diagonal operators are decomposed block by block.  Dense ones
        go through `_dense_singular_values`: two half-size blocks when the
        operator is mirror-symmetric in depth, else the full whitened matrix.
        """
        if self._svals is None:
            if self.block_diagonal:
                s = np.concatenate([np.linalg.svd(B, compute_uv=False)
                                    for B in self.whitened()])
                self._svals = np.sort(s)[::-1]
            else:
                self._svals = _dense_singular_values(self)
        return self._svals

    def singularity_report(self) -> tuple[float, float]:
        s = self.whitened_singular_values()
        return float(s[-1]), float(s[0])


def _parity_halves(op: DiscreteOperator):
    """The whitened depth-parity halves of a dense operator, or None; cached.

    In the parity basis P of `op.space.parity` each mode block of G splits
    into even/even, even/odd, odd/even and odd/odd parts.  When the cross
    parts vanish (a medium mirror-symmetric in depth, e.g. z-invariant), the
    whitened matrix is orthogonally similar to the direct sum of its even and
    odd halves, whitened by the space's parity blocks S of W_n^{-1/2}.  The
    halves are built one mode row at a time, so the full whitened matrix is
    never formed.

    Returns the halves, shape (2, n/2, n/2): the whitened even and odd blocks
    of G, rows and columns ordered (mode, parity node).  None for odd M, or
    when the cross parts exceed _PARITY_CROSS_TOL of the total.
    """
    if op._halves is None:
        op._halves = False  # not split, unless the test below passes
        sp = op.space
        if sp.parity is not None:
            P, S = sp.parity
            nm, M = len(sp.modes), sp.M
            h = M // 2
            sls = (slice(None, h), slice(h, None))
            halves = np.empty((2, nm, h, nm, h), dtype=complex)
            cross = total = 0.0
            for i, row in enumerate(op.dense.reshape(nm, M, nm * M)):
                t = ((P.T @ row).reshape(M * nm, M) @ P).reshape(M, nm, M)
                eo, oe = t[:h, :, h:], t[h:, :, :h]
                cross += np.vdot(eo, eo).real + np.vdot(oe, oe).real
                total += np.vdot(t, t).real
                for p, sl in enumerate(sls):
                    # column mode m times S[p, m], then row mode i times S[p, i]
                    b = np.matmul(t[sl, :, sl].transpose(1, 0, 2), S[p])
                    halves[p, i] = (S[p, i] @ b).transpose(1, 0, 2)
            if cross <= _PARITY_CROSS_TOL ** 2 * total:
                op._halves = halves.reshape(2, nm * h, nm * h)
    return None if op._halves is False else op._halves


def _dense_singular_values(op: DiscreteOperator) -> np.ndarray:
    """Singular values of a dense operator's whitened matrix, descending.

    One batched SVD of the two `_parity_halves` when the operator splits
    (about a quarter of the work), else of the full whitened matrix.
    """
    halves = _parity_halves(op)
    if halves is not None:
        s = np.linalg.svd(halves, compute_uv=False)
        return np.sort(s.ravel())[::-1]
    return np.linalg.svd(op.whitened(), compute_uv=False)


def _solve_parity(space: FieldSpace, halves: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve G v = b through the whitened parity halves of `_parity_halves`.

    With (P, S) = space.parity and H = S P^T G P S the direct sum of the
    halves, G v = b reads H z = g for g = S P^T b and v = P S z (per mode);
    both halves are factored in one batched LAPACK call.
    """
    P, S = space.parity
    nm, M = b.shape
    h = M // 2
    g = np.matmul(S, (b @ P).reshape(nm, 2, h).transpose(1, 0, 2)[..., None])
    z = np.linalg.solve(halves, g.reshape(2, nm * h, 1))
    w = np.matmul(S, z.reshape(2, nm, h, 1))
    return w.reshape(2, nm, h).transpose(1, 0, 2).reshape(nm, M) @ P.T


def _check_operator_bytes(medium: MediumModel, disc: Discretization) -> None:
    """Raise OperatorTooLarge if the operator cannot fit in physical memory.

    A dense operator takes unknowns^2 complex entries, a block-diagonal one
    (2N+1)^2 blocks of M^2.  Checked before anything is allocated.
    """
    if medium.transversely_uniform:
        need = 16 * (2 * disc.N + 1) ** 2 * disc.M ** 2
    else:
        need = 16 * disc.unknowns ** 2
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: no guard
        return
    if 0 < have < need:
        raise OperatorTooLarge(
            f"operator with {disc.unknowns} unknowns (N={disc.N}, M={disc.M}) "
            f"needs {need / 2**30:.4g} GiB, more than the {have / 2**30:.4g} "
            f"GiB of physical memory; lower N or M")


def _medium_profiles(medium: MediumModel, grid: DepthGrid, N: int):
    """qhat_d(x3) at the quadrature depths for every difference |d|_inf <= 2N."""
    if medium.transversely_uniform:
        return medium.fourier_profiles(grid.quad_x, 0)
    res = medium.transverse_resolution()
    need = 2 * (2 * N + 1)
    if res[0] < need or res[1] < need:
        raise AliasError(
            f"sampled medium resolution {res} too coarse for N={N}; "
            f"need at least {need} points per period to resolve the "
            f"qhat_(n-m) couplings without aliasing")
    return medium.fourier_profiles(grid.quad_x, 2 * N)


def _build_operator(inc, medium, space, volume, boundary, scale) -> DiscreteOperator:
    """Assemble the operator for both `assemble` and `assemble_eps_derivative`.

    `volume` stacks one (M, M) block per mode, in the order of space.modes.
    Mode n gets the diagonal block volume[n] - scale C_0, with i boundary[n]
    subtracted at both end nodes; off the diagonal, block (n, m) is
    -scale C_{n-m}.  Here C_d = int qhat_d(x3) l_i l_j dx3, except that C_0
    integrates qhat_0 - 1 (the background sits in volume).
    """
    grid = space.grid
    profs = _medium_profiles(medium, grid, space.disc.N)
    c0 = scale * grid.weighted_mass(profs[(0, 0)] - np.ones_like(grid.quad_x))
    ib = 1j * np.array([boundary[n] for n in space.modes])
    blocks = volume - c0
    blocks[:, 0, 0] -= ib
    blocks[:, -1, -1] -= ib
    if medium.transversely_uniform:
        return DiscreteOperator(inc, space, blocks=blocks)
    # -scale C_d for every |d|_inf <= 2N, as 0 - x so a vanishing coupling
    # gives +0.0 entries
    N2 = 2 * space.disc.N
    span = range(-N2, N2 + 1)
    coupling = np.subtract(0.0, np.array(
        [[scale * grid.weighted_mass(profs[(d1, d2)]) for d2 in span] for d1 in span]))
    nm, M = len(space.modes), space.M
    n = np.array(space.modes)
    d = n[:, None, :] - n[None, :, :] + N2  # (n - m) + 2N, shape (nm, nm, 2)
    dense = np.empty((nm, M, nm, M), dtype=complex)
    for i in range(nm):  # one mode row at a time: no (nm, nm, M, M) gather
        dense[i] = coupling[d[i, :, 0], d[i, :, 1]].transpose(1, 0, 2)
    diag = np.arange(nm)
    dense[diag, :, diag, :] = blocks
    return DiscreteOperator(inc, space, dense=dense.reshape(space.size, -1))


def assemble(inc: IncidenceSpec, medium: MediumModel, disc: Discretization,
             space: FieldSpace | None = None) -> DiscreteOperator:
    """Assemble the layer operator at inc.k (real or complex).

    Without `space` the discretization's own `disc.space(inc.h)` is used, so
    the depth grid and W_n factors are shared by every call on one disc.
    Raises CutoffViolation if some order sits at a grazing cut-off (real k
    only), AliasError if a sampled medium under-resolves the couplings, and
    OperatorTooLarge, before allocating, if the operator exceeds physical
    memory.
    """
    if abs(inc.h - medium.h) > 1e-12:
        raise ValueError("incidence h and medium h disagree")
    _check_operator_bytes(medium, disc)
    if space is None:
        space = disc.space(inc.h)
    grid = space.grid
    k = inc.k
    if k.imag == 0:
        bt = beta_table(inc, disc.N)  # raises CutoffViolation at grazing orders
        betas = dict(bt.entries)
    else:
        betas = {n: beta(n, inc) for n in space.modes}
    b2 = np.array([betas[n] * betas[n] for n in space.modes])
    volume = grid.stiffness.astype(complex) - b2[:, None, None] * grid.mass
    return _build_operator(inc, medium, space, volume, betas, k * k)


def assemble_eps_derivative(inc: IncidenceSpec, medium: MediumModel,
                            disc: Discretization,
                            space: FieldSpace | None = None) -> DiscreteOperator:
    """d/d eps of the assembled operator at k + i*eps, eps = 0 (real k).

    Volume coefficient -2i(k cos^2 t1 - n.tilde_theta) per mode plus
    -2ik times the (q - 1) coupling; boundary entries -i d(beta_n)/d(eps).
    Without `space`, `disc.space(inc.h)` is used, as in `assemble`.
    """
    if inc.k.imag != 0:
        raise ValueError("derivative operator is defined at real k")
    _check_operator_bytes(medium, disc)
    if space is None:
        space = disc.space(inc.h)
    grid = space.grid
    k = inc.k.real
    tt = inc.tilde_theta
    c2 = inc.cos2_theta1
    beta_table(inc, disc.N)  # raises CutoffViolation at grazing orders
    dbetas = {n: d_beta_d_eps(n, inc) for n in space.modes}
    coef = np.array([-2j * (k * c2 - float(np.asarray(n, dtype=float) @ tt))
                     for n in space.modes])
    volume = coef[:, None, None] * grid.mass.astype(complex)
    return _build_operator(inc, medium, space, volume, dbetas, 2j * k)


def rhs(inc: IncidenceSpec, disc: Discretization,
        space: FieldSpace | None = None) -> np.ndarray:
    """Incident load: -2ik cos(t1) e^{-ikh cos(t1)} in the n = 0 top boundary row.

    Laid out on `space`, by default the discretization's `disc.space(inc.h)`.
    """
    if space is None:
        space = disc.space(inc.h)
    load = space.zeros()
    k = inc.k
    ct = inc.cos_theta1
    load[space.mode_index[(0, 0)], -1] = -2j * k * ct * np.exp(-1j * k * inc.h * ct)
    return load


def rhs_eps_derivative(inc: IncidenceSpec, disc: Discretization,
                       space: FieldSpace | None = None) -> np.ndarray:
    """d/d eps at eps = 0 of the load: 2 cos(t1)(1 - ikh cos(t1)) e^{-ikh cos(t1)}.

    Laid out on `space`, by default the discretization's `disc.space(inc.h)`.
    """
    if space is None:
        space = disc.space(inc.h)
    load = space.zeros()
    k = inc.k
    ct = inc.cos_theta1
    load[space.mode_index[(0, 0)], -1] = \
        2.0 * ct * (1.0 - 1j * k * inc.h * ct) * np.exp(-1j * k * inc.h * ct)
    return load


@dataclass
class FieldCoefficients:
    """Depth profiles v_n(x3_j) of the periodic solution, per transverse mode."""

    space: FieldSpace
    inc: IncidenceSpec
    values: np.ndarray  # (n_modes, M)

    def profile(self, n: ModeIndex) -> np.ndarray:
        return self.values[self.space.mode_index[tuple(n)]]

    def trace_top(self) -> dict[ModeIndex, complex]:
        return {n: complex(self.values[i, -1]) for i, n in enumerate(self.space.modes)}

    def trace_bottom(self) -> dict[ModeIndex, complex]:
        return {n: complex(self.values[i, 0]) for i, n in enumerate(self.space.modes)}

    def norm(self) -> float:
        return self.space.norm(self.values)


def solve(op: DiscreteOperator, load: np.ndarray) -> FieldCoefficients:
    """Direct factorization solve with singularity screening.

    Raises NearSingular when the whitened relative smallest singular value
    drops below NEAR_SINGULAR_THRESHOLD (the signature of a propagative wave
    vector; route such scenarios to the kernel/limiting-absorption tools).
    Block-diagonal operators are factored block by block, and dense ones
    that the screen split by depth parity through their two whitened
    half-size blocks, in one batched LAPACK call either way; other dense
    operators by one full LU.  The residual is always checked against the
    assembled matrix: the returned profiles satisfy
    ||A v - load|| <= 1e-10 ||load||, after at most one refinement sweep.
    """
    smin, smax = op.singularity_report()
    if smin < NEAR_SINGULAR_THRESHOLD * smax:
        raise NearSingular(
            f"operator numerically singular: sigma_min/sigma_max = "
            f"{smin / smax:.3e} (propagative wave vector?)",
            smallest_singular_value=smin, sigma_max=smax)

    halves = None if op.block_diagonal else _parity_halves(op)

    def direct(b):
        if op.block_diagonal:  # one batched LAPACK call over the mode blocks
            return np.linalg.solve(op.blocks, b[..., None])[..., 0]
        if halves is not None:
            return _solve_parity(op.space, halves, b)
        return np.linalg.solve(op.dense, b.reshape(-1)).reshape(b.shape)

    vals = direct(load)
    resid = np.linalg.norm((op.apply(vals) - load).ravel())
    scale = np.linalg.norm(load.ravel())
    if scale > 0 and resid > 1e-10 * scale:
        # one sweep of iterative refinement
        vals = vals + direct(load - op.apply(vals))
        resid = np.linalg.norm((op.apply(vals) - load).ravel())
        if resid > 1e-10 * scale:
            raise SolveFailed(f"residual {resid / scale:.3e} above 1e-10")
    return FieldCoefficients(space=op.space, inc=op.inc, values=vals)


@dataclass
class RayleighData:
    """Scattered/transmitted Rayleigh coefficients and grating efficiencies."""

    u_plus: dict[ModeIndex, complex]
    u_minus: dict[ModeIndex, complex]
    efficiencies_up: dict[ModeIndex, float]
    efficiencies_down: dict[ModeIndex, float]
    balance_residual: float

    @property
    def total_efficiency(self) -> float:
        return sum(self.efficiencies_up.values()) + sum(self.efficiencies_down.values())


def rayleigh_data(v: FieldCoefficients, inc: IncidenceSpec,
                  cutoff_tol: float = 1e-9) -> RayleighData:
    """Extract u_n^+ = v_n(h) - delta_n0 e^{-ikh cos t1}, u_n^- = v_n(-h).

    Efficiencies (Re beta_n / beta_0) |u_n|^2 for the propagating orders of a
    real-k solve; the balance residual is |sum - 1| (meaningful for lossless
    media).
    """
    top = v.trace_top()
    bot = v.trace_bottom()
    k = inc.k
    ct = inc.cos_theta1
    u_plus = dict(top)
    u_plus[(0, 0)] = top[(0, 0)] - np.exp(-1j * k * inc.h * ct)
    u_minus = dict(bot)
    eff_up: dict[ModeIndex, float] = {}
    eff_dn: dict[ModeIndex, float] = {}
    balance = float("nan")
    if k.imag == 0:
        cls = classify_modes(inc, v.space.disc.N, tol=cutoff_tol)
        b0 = beta((0, 0), inc).real
        for n in cls.propagating:
            bn = beta(n, inc).real
            eff_up[n] = bn / b0 * abs(u_plus[n]) ** 2
            eff_dn[n] = bn / b0 * abs(u_minus[n]) ** 2
        balance = abs(sum(eff_up.values()) + sum(eff_dn.values()) - 1.0)
    return RayleighData(u_plus=u_plus, u_minus=u_minus, efficiencies_up=eff_up,
                        efficiencies_down=eff_dn, balance_residual=balance)


def _interior_field(v: FieldCoefficients, inc: IncidenceSpec, x) -> complex:
    """e^{i alpha.x~} sum_n v_n(x3) e^{i n.x~} at a point x inside the layer."""
    xt, x3 = x[:2], x[2]
    phases = np.exp(1j * (np.array(v.space.modes) @ xt))
    total = v.space.grid.interpolate(v.values, x3) @ phases
    return complex(np.exp(1j * (inc.alpha_vec @ xt)) * total)


def quasiperiodic_lift(v: FieldCoefficients, inc: IncidenceSpec, x) -> complex:
    """Total quasi-periodic field u(x) = e^{i alpha.x~} v(x) everywhere.

    Inside the layer the modal profiles are interpolated; outside, the
    Rayleigh extension is used, with the incident wave added above.
    """
    x = _field_point(x)
    xt, x3 = x[:2], x[2]
    h = inc.h
    if abs(x3) <= h:
        return _interior_field(v, inc, x)
    rd = rayleigh_data(v, inc)
    if x3 > h:
        inc_wave = np.exp(1j * (inc.alpha_vec @ xt) - 1j * inc.k * inc.cos_theta1 * x3)
        return complex(inc_wave + rayleigh_eval(rd.u_plus, "above", inc, x))
    return rayleigh_eval(rd.u_minus, "below", inc, x)
