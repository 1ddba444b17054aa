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
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasError, DomainError, NearSingular, OperatorTooLarge, \
    SolveFailed
from .medium import MediumModel
from .qpcore import IncidenceSpec, ModeIndex, _beta_array, _field_point, beta, \
    beta_table, classify_modes, d_beta_d_eps, mode_range, rayleigh_eval

CHEBYSHEV = "chebyshev_collocation"
FINITE_DIFFERENCE = "finite_difference_order2"

#: relative smallest singular value below which a solve refuses to proceed
NEAR_SINGULAR_THRESHOLD = 1e-8

#: relative Frobenius norm below which the even/odd cross parts of a dense
#: operator count as zero when its whitened blocks are split by depth parity
#: (a medium mirror-symmetric in depth leaves ~1e-15 of round-off); the split
#: between coupling groups needs none, as it is exact
_SPLIT_TOL = 1e-13

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
    the depth grid; the weighted inner-product blocks W_n and their inverse
    symmetric square roots, stacked in mode order as W and W_isqrt of shape
    (n_modes, M, M), with one eigendecomposition per distinct |n|^2; and, for
    even M, the depth-parity basis `parity` = (P, S): the two depth classes
    of `_whitened_blocks`, which takes W_isqrt as one class otherwise (None
    for odd M).  The reflection x3 -> -x3 maps node j to M-1-j; P is
    orthonormal with columns (e_j +- e_{M-1-j}) / sqrt(2), j < M/2, even ones
    first, and S (2, n_modes, M/2, M/2) holds the even and odd blocks of
    P^T W_n^{-1/2} P, whose cross blocks vanish (W_n commutes with it).
    It also keeps the coupling table of each medium assembled on it
    (`_medium_profiles`), for as long as that medium lives.
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
        isqrt = []
        for Wd in W:
            lam, U = np.linalg.eigh(Wd)
            if lam[0] <= 0:
                raise SolveFailed("weighted inner product not positive definite")
            isqrt.append(U * (1 / np.sqrt(lam)) @ U.T)
        self.W, self.W_isqrt = W[which], np.array(isqrt)[which]
        self._couplings = weakref.WeakKeyDictionary()
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

    def unwhiten(self, y: np.ndarray) -> np.ndarray:
        return (self.W_isqrt @ y[..., None])[..., 0]


# ---------------------------------------------------------------------------
# the discrete operator


class DiscreteOperator:
    """Assembled bilinear-form matrix of the layer problem at one wavenumber.

    Block-diagonal over the transverse modes whenever the medium is
    transversely uniform (`blocks`, one (modes, M, M) array).  Otherwise the
    operator is stored as the diagonal blocks of its coupling groups:
    `groups` (nc, c) lists the modes of each group (the medium's
    `_CouplingTable.groups`) and `group_blocks` (nc, c, M, c, M) holds the
    coupling of each group, the blocks between groups being exactly zero.
    `dense` is the full matrix, row (mode index) * M + (depth index), when
    there is one group (a view of `group_blocks`), and None otherwise;
    `matrix` is the full matrix of every layout, scattered from the blocks.
    A block-diagonal operator has one group per mode.  Everything that
    depends only on the layout and the weighted product lives on `space`.
    The operator caches its whitened matrix (`whitened`), its whitened
    singular values and its whitened diagonal blocks with their maps
    (`_whitened_stack`), which the screen, the dense solves, the kernel and
    the constrained solve read.
    """

    def __init__(self, inc, space, blocks=None, groups=None, group_blocks=None):
        self.inc = inc
        self.space = space
        self.blocks = blocks
        self.groups = np.arange(len(space.modes))[:, None] if groups is None else groups
        self.group_blocks = group_blocks
        self.dense = None
        if group_blocks is not None and len(group_blocks) == 1:
            self.dense = group_blocks.reshape(space.size, space.size)
        self._whitened = None
        self._svals = None
        self._stack = None

    @property
    def block_diagonal(self) -> bool:
        return self.blocks is not None

    @property
    def matrix(self) -> np.ndarray:
        if self.block_diagonal:
            return _block_diag(self.blocks)
        return _scatter(self.groups, self.group_blocks)

    def _per_group(self, u: np.ndarray, act) -> np.ndarray:
        """act(G, x) on the (nc, cM, cM) group blocks G and the (nc, cM) parts x of u."""
        nc, c = self.groups.shape
        n = c * u.shape[-1]
        out = np.empty_like(u)
        y = act(self.group_blocks.reshape(nc, n, n), u[self.groups].reshape(nc, n))
        out[self.groups] = y.reshape(nc, c, -1)
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Matrix action on a field of shape (n_modes, M)."""
        if self.block_diagonal:
            return (self.blocks @ u[..., None])[..., 0]
        return self._per_group(u, lambda G, x: (G @ x[..., None])[..., 0])

    def apply_adjoint(self, u: np.ndarray) -> np.ndarray:
        """Action of the conjugate transpose, as (u^H G)^H: no copy of the matrix."""
        if self.block_diagonal:
            return (u.conj()[:, None, :] @ self.blocks)[:, 0].conj()
        return self._per_group(u, lambda G, x: (x.conj()[:, None, :] @ G)[:, 0].conj())

    def whitened(self) -> np.ndarray:
        """W^{-1/2} G W^{-1/2}: stacked (modes, M, M) blocks, or a dense matrix."""
        if self._whitened is None:
            sp = self.space
            if self.block_diagonal:
                # about half the time of `_whitened_blocks`; faster than a batched product
                Gt = np.empty_like(self.blocks)
                for i, (S, B) in enumerate(zip(sp.W_isqrt, self.blocks)):
                    np.matmul(S @ B, S, out=Gt[i])
                self._whitened = Gt
            else:
                Gt = _whitened_blocks(self, None).reshape(self.group_blocks.shape)
                self._whitened = _scatter(self.groups, Gt)
        return self._whitened

    def whitened_singular_values(self) -> np.ndarray:
        """All singular values of W^{-1/2} G W^{-1/2}, descending, cached.

        Taken from the blocks of `_whitened_stack`: one SVD per mode block of
        a block-diagonal operator, one batched SVD of the stack of a dense
        one (one block per coupling group and depth parity).
        """
        if self._svals is None:
            blocks = _whitened_stack(self)[0]
            if self.block_diagonal:
                s = np.concatenate([np.linalg.svd(B, compute_uv=False)
                                    for B in blocks])
            else:
                s = np.linalg.svd(blocks, compute_uv=False).ravel()
            self._svals = np.sort(s)[::-1]
        return self._svals

    def singularity_report(self) -> tuple[float, float]:
        s = self.whitened_singular_values()
        return float(s[-1]), float(s[0])


def _parity_cross(op: DiscreteOperator) -> float:
    """Squared norm of the raw even/odd and odd/even parts of the group blocks.

    M is even.  With R the depth reflection of every mode (node j -> M-1-j)
    and P the parity basis, the cross parts of P^T G P have squared norm
    ||G - R G R||^2 / 4, taken here one row slot of every group at a time,
    without any product: R G R reverses both depth axes of a mode block.
    """
    h = op.space.M // 2
    cross = 0.0
    for t in op.group_blocks.swapaxes(0, 1):  # (group, row depth, column mode, column depth)
        # G - R G R is odd under R: its first M/2 depth rows hold half its norm
        t = t[:, :h] - t[:, ::-1, :, ::-1][:, :h]
        cross += np.vdot(t, t).real
    return cross / 2


def _whitened_blocks(op: DiscreteOperator, parity):
    """The whitened diagonal blocks of a dense operator over its mode groups.

    Without parity: one block W^{-1/2} G W^{-1/2} per group, (nc, cM, cM),
    ordered (mode, node).  With parity = space.parity: each group's even and
    odd halves in the parity basis, (2 nc, cM/2, cM/2), leaving out the
    even/odd cross parts (`_parity_cross`).  One row slot of every group at
    a time: P^T (M x cM), (Mc x M) P, then S of the column modes and of the
    row mode; no full-size copy is made.
    """
    M = op.space.M
    nc, c = op.groups.shape
    P, S = parity or (None, op.space.W_isqrt[None])
    K, n = len(S), M // len(S)
    Scol = S[:, op.groups]  # (K, nc, c, n, n)
    out = np.empty((nc, K, c, n, c, n), dtype=complex)
    for r in range(c):
        rows = op.groups[:, r]
        t = op.group_blocks[:, r]  # (group, row depth, column mode, column depth)
        if P is not None:
            t = P.T @ t.reshape(nc, M, c * M)
            t = (t.reshape(nc, M * c, M) @ P).reshape(nc, M, c, M)
        for p in range(K):
            sl = slice(p * n, (p + 1) * n)
            b = np.matmul(t[:, sl, :, sl].transpose(0, 2, 1, 3), Scol[p])
            b = S[p, rows] @ b.transpose(0, 2, 1, 3).reshape(nc, n, c * n)
            out[:, p, r] = b.reshape(nc, n, c, n)
    return out.reshape(nc * K, c * n, c * n)


def _whitened_stack(op: DiscreteOperator):
    """The whitened diagonal blocks of an operator, with the maps onto them.

    Returns (blocks, to, back), built once and cached on the operator:
    `blocks` of shape (B, n, n) and two maps such that G v = b reads
    blocks z = to(b) (one right-hand side per block, shape (B, n)) with
    v = back(z) (a field).  `to` and `back` are one real linear map and its
    transpose, so a row r acting on v acts on z as to(r).  This is the only
    place that picks the layout: the operator's mode groups (nc, c) times K
    depth classes, block g K + p.  A block-diagonal operator has one group
    per mode and K = 1.  A dense one keeps its coupling groups, between
    which it is exactly zero, and takes the parity halves of
    `_whitened_blocks` (K = 2) when the parity cross parts are at most
    _SPLIT_TOL of the total in Frobenius norm, the whitened matrix being
    then orthogonally similar to their direct sum up to that remainder;
    otherwise (or with odd M) each group's full whitened block (K = 1).
    The cross parts are measured on the group blocks alone (`_parity_cross`)
    before any whitened block is built, so only the chosen layout is built.
    For every layout to(b) is b @ P (parity only), then S per class and
    mode, then a gather of each group's modes; back(z) is its transpose.
    """
    if op._stack is not None:
        return op._stack
    sp = op.space
    nm, M = len(sp.modes), sp.M
    parity = None
    if op.block_diagonal:
        blocks = op.whitened()
    else:
        total = np.vdot(op.group_blocks, op.group_blocks).real
        if sp.parity is not None and _parity_cross(op) <= _SPLIT_TOL ** 2 * total:
            parity = sp.parity
        blocks = _whitened_blocks(op, parity)
    P, S = parity or (None, sp.W_isqrt[None])
    K, n = len(S), M // len(S)
    nc, c = op.groups.shape
    order = op.groups.ravel()
    inv = np.argsort(order)

    def to(b):
        y = (b if P is None else b @ P).reshape(nm, K, n).swapaxes(0, 1)
        y = np.matmul(S, y[..., None])[..., 0][:, order]  # (K, nc c, n)
        return y.reshape(K, nc, c * n).swapaxes(0, 1).reshape(nc * K, c * n)

    def back(z):
        y = z.reshape(nc, K, c * n).swapaxes(0, 1).reshape(K, nm, n)[:, inv]
        y = np.matmul(S, y[..., None])[..., 0].swapaxes(0, 1).reshape(nm, M)
        return y if P is None else y @ P.T

    op._stack = blocks, to, back
    return op._stack


def _scatter(groups: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The dense matrix of the (nc, c, n, c, n) diagonal blocks of index groups.

    `groups` (nc, c) lists the indices of each group; entries between groups
    are zero.  One group (of every index, in order) is a view of its block.
    """
    nc, c, n = blocks.shape[:3]
    if nc == 1:
        return blocks.reshape(c * n, c * n)
    B = groups.size
    out = np.zeros((B, n, B, n), dtype=blocks.dtype)
    out[groups[:, :, None], :, groups[:, None, :], :] = blocks.transpose(0, 1, 3, 2, 4)
    return out.reshape(B * n, B * n)


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """The dense matrix of a (B, n, n) stack of diagonal blocks."""
    B = len(blocks)
    return _scatter(np.arange(B)[:, None], blocks[:, None, :, None, :])


def _check_operator_bytes(medium: MediumModel, disc: Discretization) -> None:
    """Raise OperatorTooLarge if the operator cannot fit in physical memory.

    A coupled operator takes at most unknowns^2 complex entries (one group;
    split groups take less, but the groups are not known yet), a
    block-diagonal one (2N+1)^2 blocks of M^2.  Checked before anything is
    allocated, the coupling table included.
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


class _CouplingTable:
    """What assembly takes from a medium on one FieldSpace, independent of k.

    `profiles` maps each difference |d|_inf <= 2N (only d = 0 for a
    transversely uniform medium) to qhat_d at the quadrature depths.
    `diffs` lists, in that order, the d whose profile is not identically
    zero, and `masses` stacks their C_d = int qhat_d l_i l_j, (len(diffs),
    M, M); `c0` is C_0 of qhat_0 - 1, the diagonal coupling (the background
    sits in the volume term).  `pairs[t]` holds the (rows, columns) of the
    mode pairs (n, m) with n - m = diffs[t].

    `groups` (nc, c) are the mode groups of the operator: the connected
    components of the graph that links modes n and m when n - m or m - n is
    in `diffs`, rows ordered by their first mode, modes ascending, when
    there are several components, all of one size; otherwise one group of
    every mode.  No coupling runs between groups, so the split is exact.
    `place` gives each mode's (group, slot) and `rows` the mode rows with a
    nonvanishing coupling off the diagonal as (group, slot, column slots,
    indices into diffs).
    """

    def __init__(self, medium: MediumModel, space: FieldSpace):
        grid, N = space.grid, space.disc.N
        uniform = medium.transversely_uniform
        self.profiles = medium.fourier_profiles(grid.quad_x, 0 if uniform else 2 * N)
        live = np.any(np.array(list(self.profiles.values())), axis=1)
        self.diffs = [d for d, on in zip(self.profiles, live) if on]
        self.masses = np.array([grid.weighted_mass(self.profiles[d]) for d in self.diffs])
        self.c0 = grid.weighted_mass(self.profiles[(0, 0)] - np.ones_like(grid.quad_x))
        n = np.array(space.modes)
        nm = len(n)
        d = n[:, None, :] - n[None, :, :] + 2 * N  # (n - m) + 2N, shape (nm, nm, 2)
        index = np.full((4 * N + 1, 4 * N + 1), -1)
        for t, (d1, d2) in enumerate(self.diffs):
            index[d1 + 2 * N, d2 + 2 * N] = t
        didx = index[d[..., 0], d[..., 1]]  # (nm, nm): index into diffs, or -1
        self.pairs = [np.nonzero(didx == t) for t in range(len(self.diffs))]
        np.fill_diagonal(didx, -1)
        live = didx >= 0
        link = live | live.T
        label = np.arange(nm)
        while True:  # every mode takes the least label among its neighbours
            new = np.minimum(label, np.where(link, label, nm).min(axis=1))
            if np.array_equal(new, label):
                break
            label = new
        _, comp, sizes = np.unique(label, return_inverse=True, return_counts=True)
        self.groups = np.arange(nm)[None]
        if len(sizes) > 1 and np.all(sizes == sizes[0]):
            self.groups = np.argsort(comp, kind="stable").reshape(len(sizes), -1)
        nc, c = self.groups.shape
        group, slot = np.empty(nm, dtype=int), np.empty(nm, dtype=int)
        group[self.groups], slot[self.groups] = np.arange(nc)[:, None], np.arange(c)
        self.place = group, slot
        self.rows = [(group[i], slot[i], slot[live[i]], didx[i, live[i]])
                     for i in np.flatnonzero(live.any(axis=1))]


def _medium_profiles(medium: MediumModel, space: FieldSpace) -> _CouplingTable:
    """The coupling table of `medium` on `space`: qhat_d and the masses C_d.

    Built on first use and kept on the space for as long as the medium
    lives (keyed weakly by the medium object), so every assembly and
    constraint residual on one (medium, space) shares one table.  A sampled
    medium too coarse for the |d|_inf <= 2N couplings raises AliasError on
    every call.
    """
    table = space._couplings.get(medium)
    if table is not None:
        return table
    if not medium.transversely_uniform:
        res = medium.transverse_resolution()
        need = 2 * (2 * space.disc.N + 1)
        if res[0] < need or res[1] < need:
            raise AliasError(
                f"sampled medium resolution {res} too coarse for N={space.disc.N}; "
                f"need at least {need} points per period to resolve the "
                f"qhat_(n-m) couplings without aliasing")
    table = space._couplings[medium] = _CouplingTable(medium, space)
    return table


def _build_operator(inc, medium, space, volume, boundary, scale) -> DiscreteOperator:
    """Assemble the operator for both `assemble` and `assemble_eps_derivative`.

    `volume` stacks one (M, M) block per mode and `boundary` one value per
    mode, in the order of space.modes.  Mode n gets the diagonal block
    volume[n] - scale C_0, with i boundary[n] subtracted at both end nodes;
    off the diagonal, block (n, m) is -scale C_{n-m}.  Here C_d = int
    qhat_d(x3) l_i l_j dx3, except that C_0 integrates qhat_0 - 1 (the
    background sits in volume).  The C_d and the mode groups come from the
    cached coupling table (`_medium_profiles`), so a call forms only the
    scaled couplings, the diagonal and the fill of each group's block; no
    full matrix is built unless there is one group.
    """
    table = _medium_profiles(medium, space)
    ib = 1j * boundary
    blocks = volume - scale * table.c0
    blocks[:, 0, 0] -= ib
    blocks[:, -1, -1] -= ib
    if medium.transversely_uniform:
        return DiscreteOperator(inc, space, blocks=blocks)
    # -scale C_d as 0 - x, so that no entry is -0.0; blocks of vanishing
    # couplings keep the +0.0 of np.zeros
    coupling = np.subtract(0.0, scale * table.masses)
    nc, c = table.groups.shape
    M = space.M
    G = np.zeros((nc, c, M, c, M), dtype=complex)
    for g, r, cols, idx in table.rows:  # one mode row at a time: no (c, c, M, M) gather
        G[g, r][:, cols] = coupling[idx].transpose(1, 0, 2)
    group, slot = table.place
    G[group, slot, :, slot, :] = blocks
    return DiscreteOperator(inc, space, groups=table.groups, group_blocks=G)


def _require_finite(inc: IncidenceSpec, name: str, value) -> None:
    """Raise DomainError unless the scalar (or every entry of) `value` is finite."""
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{name} overflows double precision at k = {inc.k:.6g}")


def assemble(inc: IncidenceSpec, medium: MediumModel, disc: Discretization,
             space: FieldSpace | None = None) -> DiscreteOperator:
    """Assemble the layer operator at inc.k (real or complex).

    Without `space` the discretization's own `disc.space(inc.h)` is used, so
    the depth grid and W_n factors are shared by every call on one disc.
    Raises CutoffViolation if some order sits at a grazing cut-off (real k
    only), CutProximity if some beta_n^2 lies on the branch cut, AliasError
    if a sampled medium under-resolves the couplings, and OperatorTooLarge,
    before allocating, if the operator exceeds physical memory, and
    DomainError if k^2 or some beta_n^2 overflows.  All beta_n come from one
    array operation (`qpcore.beta_table`).
    """
    if abs(inc.h - medium.h) > 1e-12:
        raise ValueError("incidence h and medium h disagree")
    _check_operator_bytes(medium, disc)
    if space is None:
        space = disc.space(inc.h)
    grid = space.grid
    k = inc.k
    k2 = k * k
    _require_finite(inc, "k^2", k2)  # also the coupling scale
    if k.imag == 0:
        betas = beta_table(inc, disc.N).values  # raises CutoffViolation at grazing orders
    else:
        betas = _beta_array(inc, disc.N)
    # beta_n^2 by Python's complex product: numpy's may fuse and round differently
    b2 = np.array([b * b for b in betas.tolist()])
    _require_finite(inc, "beta_n^2", b2)
    volume = grid.stiffness.astype(complex) - b2[:, None, None] * grid.mass
    return _build_operator(inc, medium, space, volume, betas, k2)


def assemble_eps_derivative(inc: IncidenceSpec, medium: MediumModel,
                            disc: Discretization,
                            space: FieldSpace | None = None) -> DiscreteOperator:
    """d/d eps of the assembled operator at k + i*eps, eps = 0 (real k).

    Volume coefficient -2i(k cos^2 t1 - n.tilde_theta) per mode plus
    -2ik times the (q - 1) coupling; boundary entries -i d(beta_n)/d(eps).
    Without `space`, `disc.space(inc.h)` is used, as in `assemble`, and the
    same DomainError guards k^2.
    """
    if inc.k.imag != 0:
        raise ValueError("derivative operator is defined at real k")
    _check_operator_bytes(medium, disc)
    if space is None:
        space = disc.space(inc.h)
    grid = space.grid
    k = inc.k.real
    _require_finite(inc, "k^2", k * k)  # then beta_n^2 and the scale 2ik are too
    tt = inc.tilde_theta
    c2 = inc.cos2_theta1
    beta_table(inc, disc.N)  # raises CutoffViolation at grazing orders
    dbetas = np.array([d_beta_d_eps(n, inc) for n in space.modes])
    coef = np.array([-2j * (k * c2 - float(np.asarray(n, dtype=float) @ tt))
                     for n in space.modes])
    volume = coef[:, None, None] * grid.mass.astype(complex)
    return _build_operator(inc, medium, space, volume, dbetas, 2j * k)


def rhs(inc: IncidenceSpec, disc: Discretization,
        space: FieldSpace | None = None) -> np.ndarray:
    """Incident load: -2ik cos(t1) e^{-ikh cos(t1)} in the n = 0 top boundary row.

    Laid out on `space`, by default the discretization's `disc.space(inc.h)`.
    Raises DomainError if the load overflows (large Im k).
    """
    k = inc.k
    ct = inc.cos_theta1
    with np.errstate(over="ignore", invalid="ignore"):
        value = -2j * k * ct * np.exp(-1j * k * inc.h * ct)
    return _incident_load(inc, disc, space, value)


def _incident_load(inc, disc, space, value) -> np.ndarray:
    """A field that is `value` in the n = 0 top boundary row and zero elsewhere."""
    _require_finite(inc, "the incident load", value)
    if space is None:
        space = disc.space(inc.h)
    load = space.zeros()
    load[space.mode_index[(0, 0)], -1] = value
    return load


def rhs_eps_derivative(inc: IncidenceSpec, disc: Discretization,
                       space: FieldSpace | None = None) -> np.ndarray:
    """d/d eps at eps = 0 of the load: 2 cos(t1)(1 - ikh cos(t1)) e^{-ikh cos(t1)}.

    Laid out on `space`, by default the discretization's `disc.space(inc.h)`;
    DomainError as for `rhs`.
    """
    k = inc.k
    ct = inc.cos_theta1
    with np.errstate(over="ignore", invalid="ignore"):
        value = 2.0 * ct * (1.0 - 1j * k * inc.h * ct) * np.exp(-1j * k * inc.h * ct)
    return _incident_load(inc, disc, space, value)


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
    Dense operators are solved on the blocks of `_whitened_stack` (one per
    coupling group and depth parity) through its maps, block-diagonal
    ones on their raw mode blocks (the W^{-1/2} maps would only add work
    there); one batched LAPACK call either way.  The residual is always
    checked against the assembled matrix: the returned profiles satisfy
    ||A v - load|| <= 1e-10 ||load||, after at most one refinement sweep.
    """
    smin, smax = op.singularity_report()
    if smin < NEAR_SINGULAR_THRESHOLD * smax:
        raise NearSingular(
            f"operator numerically singular: sigma_min/sigma_max = "
            f"{smin / smax:.3e} (propagative wave vector?)",
            smallest_singular_value=smin, sigma_max=smax)

    if op.block_diagonal:
        def direct(b):
            return np.linalg.solve(op.blocks, b[..., None])[..., 0]
    else:
        blocks, to, back = _whitened_stack(op)

        def direct(b):
            return back(np.linalg.solve(blocks, to(b)[..., None])[..., 0])

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


def rayleigh_data(v: FieldCoefficients, inc: IncidenceSpec) -> RayleighData:
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
        cls = classify_modes(inc, v.space.disc.N)
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
