"""Assembly, solve, Rayleigh extraction, lift: oracles and invariants."""
import gc
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qpscat as q
from qpscat.modes import _canonical_phase
from test_medium import depth_coefficients
from test_reports_golden import sampled_stack

K_EX = np.pi / (2 * np.sqrt(2))
ALPHA_EX = (1 - np.pi * np.sqrt(3) / 4, 0.0)


def solve_slab(q0, k, theta1, M, scheme=q.CHEBYSHEV, N=0, h=1.0):
    inc = q.IncidenceSpec.from_angles(k, theta1, 0.0, h)
    med = q.MediumModel.homogeneous(q0, h)
    disc = q.Discretization(N=N, M=M, depth_scheme=scheme)
    op = q.assemble(inc, med, disc)
    v = q.solve(op, q.rhs(inc, disc))
    return inc, v, q.rayleigh_data(v, inc)


def dense(op):
    """The full matrix of an operator, row and column (mode index) * M + (depth
    index), built column by column from its `apply` on unit fields."""
    sp = op.space
    units = np.eye(sp.size, dtype=complex).reshape(sp.size, len(sp.modes), sp.M)
    return np.stack([op.apply(e).ravel() for e in units], axis=1)


def diagonal_blocks(op):
    """The diagonal mode blocks of an operator, (n_modes, M, M), read from `dense`."""
    nm, M = len(op.space.modes), op.space.M
    return dense(op).reshape(nm, M, nm, M)[np.arange(nm), :, np.arange(nm)]


def raw_rows(op):
    """Raw row slot r of every mode group of an operator, (nc, M, c, M), as a
    function of r, read from its full matrix (`dense`)."""
    return reference_rows(dense(op), op.groups, op.space.M)


def parity_basis(M):
    """The orthonormal depth-parity basis of an even M: columns
    (e_j +- e_{M-1-j}) / sqrt(2), j < M/2, the even ones first."""
    h, j = M // 2, np.arange(M // 2)
    P = np.zeros((M, M))
    P[j, j] = P[M - 1 - j, j] = P[j, h + j] = np.sqrt(0.5)
    P[M - 1 - j, h + j] = -np.sqrt(0.5)
    return P


def whitening_factor(space):
    """F_n with F_n^T W_n F_n = I for every mode, from space.W by its own eigh:
    W_n^{-1/2} for odd M; for even M, P blockdiag(S_e, S_o), S_e and S_o the
    diagonal blocks of P^T W_n^{-1/2} P (`parity_basis`)."""
    lam, U = np.linalg.eigh(space.W)
    F = (U / np.sqrt(lam)[:, None]) @ U.swapaxes(1, 2)
    M = space.M
    if M % 2 == 0:
        P, h = parity_basis(M), M // 2
        S = P.T @ F @ P
        S[:, :h, h:] = S[:, h:, :h] = 0.0
        F = P @ S
    return F


def whitened_formula(space, groups, G, K):
    """The whitened blocks of a full (mode, node) matrix G by the complex
    formula F_n^T G_nm F_m over each mode group (`whitening_factor`), in K
    depth classes, with every real factor cast to complex: (nc K, c n, c n),
    the layout of `DiscreteOperator.stack`."""
    nm, M, n = len(space.modes), space.M, space.M // K
    F = whitening_factor(space).astype(complex)
    T = F.swapaxes(1, 2)[:, None] @ G.reshape(nm, M, nm, M).swapaxes(1, 2) @ F[None]
    nc, c = groups.shape
    out = np.empty((nc, K, c, n, c, n), dtype=complex)
    for p in range(K):
        sl = slice(p * n, (p + 1) * n)
        out[:, p] = T[:, :, sl, sl][groups[:, :, None], groups[:, None]].swapaxes(2, 3)
    return out.reshape(nc * K, c * n, c * n)


def oracle_u(q0, k, theta1, h=1.0):
    inc = q.IncidenceSpec.from_angles(k, theta1, 0.0, h)
    p = q.SlabParams(q0=q0, h=h, k=k)
    rd = q.transfer_matrix_scattering(p, inc)
    return rd.u_plus[(0, 0)], rd.u_minus[(0, 0)]


class TestDiscretization:
    @pytest.mark.parametrize("N, M", [(1.5, 16), (1, 16.0), (1.0, 16), (1, "16")])
    def test_rejects_non_integer_sizes(self, N, M):
        with pytest.raises(ValueError, match="must be an integer"):
            q.Discretization(N=N, M=M)

    def test_accepts_numpy_integers(self):
        disc = q.Discretization(N=np.int64(1), M=np.int32(16))
        assert disc.unknowns == 9 * 16


class TestAssemble:
    def test_transparent_layer_no_scattering(self):
        _, _, rd = solve_slab(1.0, 1.3, 0.37, 32, N=2)
        assert all(abs(c) < 1e-12 for c in rd.u_plus.values())

    def test_block_diagonal_for_slab(self):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 1.0)
        med = q.MediumModel.slab_stack([(-1.0, 1.0, 2.0)], 1.0)
        op = q.assemble(inc, med, q.Discretization(N=1, M=16))
        assert op.block_diagonal

    def test_constant_sampled_medium_off_blocks_vanish(self):
        # a transversely constant sampled grid must produce exactly zero coupling
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 1.0)
        vals = np.full((8, 8, 4), 2.0)
        med = q.MediumModel.sampled(vals, 1.0)
        disc = q.Discretization(N=1, M=12)
        op = q.assemble(inc, med, disc)
        assert not op.block_diagonal
        M = disc.M
        G = dense(op)
        for i, n in enumerate(op.space.modes):
            for j, m in enumerate(op.space.modes):
                if i != j:
                    blk = G[i * M:(i + 1) * M, j * M:(j + 1) * M]
                    assert np.all(blk == 0.0)

    @pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE])
    def test_vanishing_profiles_take_no_coupling_mass(self, monkeypatch, scheme):
        # masses are built per depth cell, none per difference d: four in one
        # call for the constant 8 x 8 x 4 medium, whose (4N+1)^2 - 1 vanishing
        # profiles fill their blocks with +0.0, and one for the depth-invariant
        # inclusion
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 1.0)
        disc = q.Discretization(N=1, M=12, depth_scheme=scheme)
        disc.space(1.0)  # the grid's own mass is not counted
        calls = []
        masses = q.helmholtz.DepthGrid.cell_masses

        def counting(grid, breaks):
            calls.append(len(breaks) - 1)
            return masses(grid, breaks)

        monkeypatch.setattr(q.helmholtz.DepthGrid, "cell_masses", counting)
        G = dense(q.assemble(inc, q.MediumModel.sampled(np.full((8, 8, 4), 2.0), 1.0), disc))
        assert calls == [4]
        off = G.reshape(9, 12, 9, 12).swapaxes(1, 2)[~np.eye(9, dtype=bool)]
        assert not np.any(off) and not np.signbit(off.view(float)).any()
        calls.clear()
        q.assemble(inc, inclusion_medium(), disc)  # no vanishing profile
        assert calls == [1]  # its one depth cell serves c0 and every d != 0

    def test_zero_order_block_matches_transfer_matrix_problem(self):
        # N=0 discrete solve converges to the analytic 1-d oracle
        up_o, um_o = oracle_u(2.0, 1.0, 0.0)
        _, _, rd = solve_slab(2.0, 1.0, 0.0, 40)
        assert abs(rd.u_plus[(0, 0)] - up_o) < 1e-12
        assert abs(rd.u_minus[(0, 0)] - um_o) < 1e-12

    def test_cutoff_violation_real_k(self):
        inc = q.IncidenceSpec.from_alpha(1.0, (0.0, 0.0), 1.0)  # |(±1,0)| = k
        med = q.MediumModel.homogeneous(2.0, 1.0)
        with pytest.raises(q.CutoffViolation):
            q.assemble(inc, med, q.Discretization(N=1, M=16))

    @pytest.mark.parametrize("medium", [lambda h: q.MediumModel.homogeneous(2.0, h),
                                        lambda h: inclusion_medium(h=h)],
                             ids=["homogeneous", "inclusion"])
    def test_overflowing_whitened_operator_is_a_domain_error(self, monkeypatch, medium):
        # at h = 1e300 the raw blocks are finite but their whitened blocks
        # overflow: refused before any LAPACK call, with no numpy warning
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on a non-finite stack")

        inc = q.IncidenceSpec.from_angles(1.0, 0.3, 0.0, 1e300)
        disc = q.Discretization(N=1, M=17, depth_scheme=q.FINITE_DIFFERENCE)
        for name in ("svd", "solve", "lstsq"):
            monkeypatch.setattr(np.linalg, name, no_lapack)
        for build in (q.assemble, q.assemble_eps_derivative):
            with pytest.raises(q.DomainError, match="whitened operator overflows"):
                build(inc, medium(h=1e300), disc)

    @pytest.mark.parametrize("medium", [
        lambda: q.MediumModel.homogeneous(1e300, 1.0),
        lambda: q.MediumModel.sampled(
            1e300 * (2.0 + np.cos(2 * np.pi * np.arange(12) / 12))[:, None, None]
            * np.ones((1, 12, 1)), 1.0),
    ], ids=["homogeneous", "lamellar"])
    def test_overflowing_medium_term_is_a_domain_error(self, monkeypatch, medium):
        # k^2 and every beta_n^2 are finite, k^2 (q - 1) is not: refused before
        # the product, with no numpy warning and no LAPACK call
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on a non-finite stack")

        inc = q.IncidenceSpec.from_angles(1e10, 0.3, 0.0, 1.0)
        disc = q.Discretization(N=1, M=16)
        med = medium()
        for name in ("svd", "solve", "lstsq"):
            monkeypatch.setattr(np.linalg, name, no_lapack)
        for build in (q.assemble, q.assemble_eps_derivative):
            with pytest.raises(q.DomainError, match=r"\(q - 1\) term of the operator"):
                build(inc, med, disc)

    def test_complex_k_no_cutoff_screening(self):
        inc = q.IncidenceSpec.from_alpha(1.0 + 0.01j, (0.0, 0.0), 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        q.assemble(inc, med, q.Discretization(N=1, M=16))  # must not raise

    def test_alias_error(self):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 1.0)
        vals = np.full((8, 8, 4), 2.0)
        med = q.MediumModel.sampled(vals, 1.0)
        with pytest.raises(q.AliasError):
            q.assemble(inc, med, q.Discretization(N=2, M=12))  # needs >= 10 points


def coupled_medium(n=12, h=1.0):
    """12 x 12 x 3 sampled grid varying in x1, x2 and x3."""
    x = 2 * np.pi * np.arange(n) / n
    c1, s2 = np.cos(x)[:, None, None], np.sin(x)[None, :, None]
    z = np.array([-0.5, 0.1, 0.7])[None, None, :]
    vals = 2.0 + 0.4 * c1 + 0.3 * s2 * (1 + z) + 0.2 * c1 * s2 * z
    return q.MediumModel.sampled(vals, h)


class TestCoupledMedium:
    N, M = 2, 16

    def setup_method(self):
        self.med = coupled_medium()
        self.disc = q.Discretization(N=self.N, M=self.M)
        self.space = self.disc.space(1.0)
        # criterion 10's incidence; its FD constant is set by the beta_n
        # curvature near cut-off and is the same on a homogeneous layer
        self.inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)

    def test_dense_blocks_are_fourier_coupling_masses(self):
        M, k = self.M, self.inc.k
        C = reference_masses(self.med, self.space)
        G = dense(q.assemble(self.inc, self.med, self.disc))
        got, want = [], []
        for i, n in enumerate(self.space.modes):
            for j, m in enumerate(self.space.modes):
                if i == j:
                    continue
                want.append(-k * k * C[(n[0] - m[0], n[1] - m[1])])
                got.append(G[i * M:(i + 1) * M, j * M:(j + 1) * M])
        assert relative_error(np.array(got), np.array(want)) <= 1e-14

    def test_eps_derivative_matches_finite_difference(self):
        A0 = dense(q.assemble(self.inc, self.med, self.disc))
        Ap = dense(q.assemble_eps_derivative(self.inc, self.med, self.disc))
        nm = len(self.space.modes)
        assert np.abs(Ap.reshape(nm, self.M, nm, self.M)[0, :, 1]).max() > 0  # coupled
        errs = []
        for delta in (1e-4, 1e-5):
            Ad = dense(q.assemble(self.inc.with_k(K_EX + 1j * delta), self.med, self.disc))
            errs.append(np.linalg.norm((Ad - A0) / delta - Ap) / np.linalg.norm(Ap))
            assert errs[-1] <= 5 * delta
        assert 2.0 < errs[0] / errs[1] < 50.0  # first order

    def test_cell_coefficients_are_each_cells_dft(self):
        coef = self.med.cell_coefficients(2 * self.N)
        vals = self.med.values
        assert self.med.breaks.tolist() == np.linspace(-1.0, 1.0, 4).tolist()
        for c in range(3):
            fh = np.fft.fft2(vals[:, :, c]) / vals[:, :, c].size
            for m in q.mode_range(2 * self.N):
                assert coef[c, m[0] + 2 * self.N, m[1] + 2 * self.N] == \
                    pytest.approx(fh[m[0] % 12, m[1] % 12], abs=1e-15)


def inclusion_medium(n=12, h=1.0):
    """z-invariant disc of index 2.5 in a square of index 1.5, n x n x 1."""
    x = (np.arange(n) + 0.5) * 2 * np.pi / n
    r2 = (x[:, None] - np.pi) ** 2 + (x[None, :] - np.pi) ** 2
    vals = np.where(r2 < (0.35 * 2 * np.pi) ** 2, 2.5, 1.5)
    return q.MediumModel.sampled(vals[:, :, None], h)


def recorded_shapes(monkeypatch, name):
    """Patch numpy.linalg.<name> to record the shape of its first argument."""
    shapes, fn = [], getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return shapes


class TestParityScreen:
    """The dense singularity screen against a full SVD of the whitened matrix."""

    def svd_shapes(self, monkeypatch, op):
        """Singular values from the screen, and the shape of each SVD it ran."""
        with monkeypatch.context() as m:
            shapes = recorded_shapes(m, "svd")
            return op.whitened_singular_values(), shapes

    @pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE])
    @pytest.mark.parametrize("k", [1.3, 1.3 + 0.05j])
    def test_symmetric_medium_splits_into_two_halves(self, monkeypatch, scheme, k):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0).with_k(k)
        disc = q.Discretization(N=2, M=16, depth_scheme=scheme)
        op = q.assemble(inc, inclusion_medium(), disc)
        s, shapes = self.svd_shapes(monkeypatch, op)
        half = disc.unknowns // 2
        assert shapes == [(2, half, half)]  # one batched call per screen
        full = np.linalg.svd(op.whitened(), compute_uv=False)
        assert np.all(np.diff(s) <= 0)
        assert np.max(np.abs(s - full)) <= 1e-13 * full[0]

    @pytest.mark.parametrize("medium, M", [(coupled_medium, 16), (inclusion_medium, 15)])
    def test_fallback_is_the_full_svd(self, monkeypatch, medium, M):
        # a depth-asymmetric medium, and odd M, keep the full whitened SVD
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        disc = q.Discretization(N=2, M=M)
        op = q.assemble(inc, medium(), disc)
        s, shapes = self.svd_shapes(monkeypatch, op)
        assert shapes == [(1, disc.unknowns, disc.unknowns)]  # a stack of one
        full = np.linalg.svd(op.whitened(), compute_uv=False)
        assert np.max(np.abs(s - full)) <= 1e-13 * s[0]

    def test_near_singular_on_guided_sampled_medium(self):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.sampled(np.full((8, 8, 1), 2.0), 1.0)
        disc = q.Discretization(N=1, M=16)
        op = q.assemble(inc, med, disc)
        assert not op.block_diagonal
        with pytest.raises(q.NearSingular) as exc:
            q.solve(op, q.rhs(inc, disc))
        assert exc.value.smallest_singular_value < 1e-8 * exc.value.sigma_max


class TestParitySolve:
    """Dense solves through the screen's parity halves against the full LU."""

    @pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE])
    @pytest.mark.parametrize("k", [1.3, 1.3 + 0.05j])
    def test_symmetric_medium_solves_in_two_halves(self, monkeypatch, scheme, k):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0).with_k(k)
        disc = q.Discretization(N=2, M=16, depth_scheme=scheme)
        op = q.assemble(inc, inclusion_medium(), disc)
        load = q.rhs(inc, disc)
        full = np.linalg.solve(dense(op), load.ravel()).reshape(load.shape)
        shapes = recorded_shapes(monkeypatch, "solve")
        v = q.solve(op, load).values
        half = disc.unknowns // 2
        assert shapes == [(2, half, half)]  # one batched LU, no refinement
        assert np.linalg.norm((v - full).ravel()) <= 1e-12 * np.linalg.norm(full.ravel())

    @pytest.mark.parametrize("medium, M", [(coupled_medium, 16), (inclusion_medium, 15)])
    def test_fallback_is_the_full_lu(self, monkeypatch, medium, M):
        # the full whitened matrix as a stack of one, against the raw LU
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        disc = q.Discretization(N=2, M=M)
        op = q.assemble(inc, medium(), disc)
        load = q.rhs(inc, disc)
        full = np.linalg.solve(dense(op), load.ravel()).reshape(load.shape)
        shapes = recorded_shapes(monkeypatch, "solve")
        v = q.solve(op, load).values
        assert shapes == [(1, disc.unknowns, disc.unknowns)]  # no refinement
        assert np.linalg.norm((v - full).ravel()) <= 1e-12 * np.linalg.norm(full.ravel())

    def test_near_singular_before_any_factorization(self, monkeypatch):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.sampled(np.full((8, 8, 1), 2.0), 1.0)
        disc = q.Discretization(N=1, M=16)
        op = q.assemble(inc, med, disc)
        shapes = recorded_shapes(monkeypatch, "solve")
        with pytest.raises(q.NearSingular):
            q.solve(op, q.rhs(inc, disc))
        # every mode is its own component: 2 (2N+1)^2 parity blocks of M/2
        assert op.stack.shape == (18, 8, 8)
        assert shapes == []


def lamellar_medium(n=12, h=1.0):
    """A z-invariant grating varying in x1 only: couples modes of equal n2."""
    x = 2 * np.pi * np.arange(n) / n
    vals = 2.0 + 0.5 * np.cos(x) + 0.3 * np.sin(2 * x)
    return q.MediumModel.sampled(vals[:, None, None] * np.ones((1, n, 1)), h)


def diagonal_medium(n=12, h=1.0):
    """2 + 0.5 cos(x1 + x2): couples n to n +- (1, 1), diagonals of unequal length."""
    x = 2 * np.pi * np.arange(n) / n
    return q.MediumModel.sampled((2.0 + 0.5 * np.cos(x[:, None] + x[None, :]))[:, :, None], h)


def guided_medium():
    """The guided q = 2 layer, sampled 16 x 16 x 1."""
    return q.MediumModel.sampled(np.full((16, 16, 1), 2.0), 1.0)


class TestCouplingComponents:
    """Dense operators split by the components of their transverse coupling."""

    # the plane-wave load reaches the group of mode (0, 0), in each depth parity
    @pytest.mark.parametrize("medium, N, M, shape, loaded", [
        (lamellar_medium, 2, 16, (10, 40, 40), (2, 40, 40)),  # 5 rows n2 of 5 modes
        (diagonal_medium, 2, 16, (2, 200, 200), (2, 200, 200)),  # unequal: two halves
        (guided_medium, 3, 15, (49, 15, 15), (1, 15, 15)),  # odd M: one block per mode
        (guided_medium, 3, 16, (98, 8, 8), (2, 8, 8)),      # the guided layer
    ], ids=["lamellar", "diagonal", "constant_M15", "guided"])
    def test_blocks_match_the_full_operator(self, monkeypatch, medium, N, M, shape,
                                            loaded):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        med, disc = medium(), q.Discretization(N=N, M=M)
        op = q.assemble(inc, med, disc)
        assert op.groups is q.helmholtz._medium_profiles(med, op.space).groups
        assert op.stack.shape == shape
        with monkeypatch.context() as m:
            svd = recorded_shapes(m, "svd")
            s = op.whitened_singular_values()
        assert svd == [shape]  # one batched SVD of the blocks
        full = np.linalg.svd(op.whitened(), compute_uv=False)
        assert np.max(np.abs(s - full)) <= 1e-13 * full[0]
        load = q.rhs(inc, disc)
        want = np.linalg.solve(dense(op), load.ravel()).reshape(load.shape)
        with monkeypatch.context() as m:
            solve = recorded_shapes(m, "solve")
            v = q.solve(op, load).values
        assert solve == [loaded]  # one batched LU of the loaded blocks, no refinement
        assert np.linalg.norm((v - want).ravel()) <= 1e-12 * np.linalg.norm(want.ravel())

    def test_fully_loaded_stack_is_solved_without_a_copy(self, monkeypatch):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        op = q.assemble(inc, diagonal_medium(), q.Discretization(N=2, M=16))
        seen, solve = [], np.linalg.solve

        def recording(a, *args, **kwargs):
            seen.append(a)
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", recording)
        q.solve(op, q.rhs(inc, op.space.disc))
        assert len(seen) == 1 and seen[0].shape == op.stack.shape
        assert np.shares_memory(seen[0], op.stack)

    def test_unloaded_blocks_solve_to_exact_zeros(self):
        # the loaded blocks get the bits of the full batched LU
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        op = q.assemble(inc, guided_medium(), q.Discretization(N=3, M=16))
        g = op.to(q.rhs(inc, op.space.disc))
        z = q.helmholtz._solve_loaded(op.stack, g)
        full = np.linalg.solve(op.stack, g[..., None])[..., 0]
        loaded = g.any(axis=1)
        assert loaded.sum() == 2
        assert np.array_equal(z[loaded], full[loaded])
        assert not z[~loaded].any() and not full[~loaded].any()

    def test_components_of_a_lamellar_medium(self):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        med = lamellar_medium()
        op = q.assemble(inc, med, q.Discretization(N=2, M=16))
        comps = op.groups
        modes = np.array(op.space.modes)
        assert comps.shape == (5, 5)
        assert [set(modes[c, 1]) for c in comps] == [{-2}, {-1}, {0}, {1}, {2}]
        # lamellar couplings vanish exactly: every live difference has d2 = 0
        n, m = np.nonzero(op.table.toeplitz.any(axis=0))
        diffs = {tuple(d) for d in modes[n] - modes[m]}
        assert {d[1] for d in diffs} == {0} and len(diffs) > 1

    @pytest.mark.parametrize("M", [16, 15])
    def test_kernel_vector_is_the_full_svd_null_vector(self, M):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        disc = q.Discretization(N=2, M=M)
        op = q.assemble(inc, q.MediumModel.sampled(np.full((12, 12, 1), 2.0), 1.0), disc)
        assert len(op.stack) == 25 * (2 if M % 2 == 0 else 1)
        basis = q.kernel(op)
        assert basis.dimension == 1
        _, s, Vh = np.linalg.svd(op.whitened())
        assert s[-1] < 1e-8 * s[0] < s[-2]
        want = _canonical_phase(op.space.unwhiten(np.conj(Vh[-1]).reshape(len(op.space.modes), M)))
        v = basis.vectors[0]
        assert np.linalg.norm((v - want).ravel()) <= 1e-10 * np.linalg.norm(want.ravel())
        assert basis.singular_values[0] == pytest.approx(s[-1], abs=1e-15 * s[0])


def slab_operator(N=2, M=16):
    inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
    return q.assemble(inc, q.MediumModel.slab_stack(STACK_LAYERS, 1.0),
                      q.Discretization(N=N, M=M))


def sampled_operator(medium, N=2, M=16):
    inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
    return q.assemble(inc, medium(), q.Discretization(N=N, M=M))


def constant_medium():
    return q.MediumModel.sampled(np.full((12, 12, 1), 2.0), 1.0)


def relative_error(got, want):
    return np.linalg.norm((got - want).ravel()) / np.linalg.norm(want.ravel())


class TestWhitenedBlocks:
    """The one builder of whitened blocks and the maps onto them."""

    @pytest.mark.parametrize("build", [
        lambda: sampled_operator(inclusion_medium),      # mirror-symmetric in depth
        lambda: sampled_operator(coupled_medium),        # depth-asymmetric
        lambda: sampled_operator(inclusion_medium, M=15),
        slab_operator,                                   # block-diagonal
    ], ids=["symmetric", "asymmetric", "odd_M", "block_diagonal"])
    def test_whitened_is_the_weighted_product(self, build):
        op = build()
        F = q.helmholtz._block_diag(whitening_factor(op.space))
        want = F.T @ dense(op) @ F
        assert relative_error(op.whitened(), want) <= 1e-13

    @pytest.mark.parametrize("medium, comps", [
        (inclusion_medium, 1),   # one group of all modes
        (lamellar_medium, 5),    # five rows n2 of five modes
        (coupled_medium, 1),     # depth-asymmetric: the cross parts do not vanish
    ])
    def test_parity_halves_are_blocks_of_the_parity_basis(self, medium, comps):
        op = sampled_operator(medium)
        sp = op.space
        nm, M, h = len(sp.modes), sp.M, sp.M // 2
        groups = op.groups
        assert groups.shape == (comps, nm // comps)
        halves = whitened_formula(sp, groups, dense(op), 2)
        G = dense(op).reshape(nm, M, nm, M)
        cross = np.linalg.norm(G - G[:, ::-1, :, ::-1]) ** 2 / 4  # ||G - R G R||^2 / 4
        Q = q.helmholtz._block_diag(np.broadcast_to(parity_basis(M), (nm, M, M)))
        raw = (Q.T @ G.reshape(sp.size, -1) @ Q).reshape(nm, 2, h, nm, 2, h)
        eo_oe = np.sum(np.abs(raw[:, 0, :, :, 1]) ** 2 + np.abs(raw[:, 1, :, :, 0]) ** 2)
        assert abs(cross - eo_oe) <= 1e-13 * np.linalg.norm(G) ** 2
        # F's even columns come first: whitened() is already in parity blocks
        T = op.whitened().reshape(nm, 2, h, nm, 2, h)
        for g, idx in enumerate(groups):
            for p in range(2):
                want = T[idx][:, p][:, :, idx][:, :, :, p].reshape(len(idx) * h, -1)
                assert relative_error(halves[2 * g + p], want) <= 1e-13

    @pytest.mark.parametrize("medium, split", [
        (coupled_medium, False),   # depth-asymmetric: no halves, the full block only
        (inclusion_medium, True),  # mirror-symmetric: the halves only
    ])
    def test_only_the_chosen_layout_is_built(self, monkeypatch, medium, split):
        # the table whitens its cell masses per class pair once, in the chosen
        # layout only; the assembly whitens no raw block
        calls, builder, K = [], q.FieldSpace.whiten_pairs, 2 if split else 1

        def recording(space, parts, K):
            calls.append(K)
            return builder(space, parts, K)

        monkeypatch.setattr(q.FieldSpace, "whiten_pairs", recording)
        op = sampled_operator(medium)  # a fresh space: builds the coupling table
        table, sp = op.table, op.space
        assert calls == [K] and table.K == K
        want = builder(sp, table.cell_masses[table.live], K)
        assert np.array_equal(table.pair_pieces, want)
        classes = len(sp.classes)
        assert table.pair_pieces.shape == (len(table.live), K, classes, 16 // K,
                                           classes, 16 // K)

    @pytest.mark.parametrize("build, shape", [
        (slab_operator, (25, 16, 16)),
        (lambda: sampled_operator(inclusion_medium), (2, 200, 200)),
        (lambda: sampled_operator(lamellar_medium), (10, 40, 40)),
        (lambda: sampled_operator(constant_medium), (50, 8, 8)),
        (lambda: sampled_operator(coupled_medium), (1, 400, 400)),
        (lambda: sampled_operator(lamellar_medium, M=15), (5, 75, 75)),
    ], ids=["slab", "inclusion_parity", "lamellar", "constant_singletons",
            "coupled_fallback", "lamellar_M15"])
    def test_maps_are_one_transpose_pair(self, build, shape):
        op = build()
        sp = op.space
        blocks, to, back = op.stack, op.to, op.back
        assert blocks.shape == shape
        rng = np.random.default_rng(5)
        x, b = (rng.standard_normal((2, len(sp.modes), sp.M))
                + 1j * rng.standard_normal((2, len(sp.modes), sp.M)))
        z = rng.standard_normal(shape[:2]) + 1j * rng.standard_normal(shape[:2])
        # back(to(.)) is F F^T = W^{-1}
        assert relative_error(back(to(b)), np.linalg.solve(sp.W, b[..., None])[..., 0]) \
            <= 1e-13
        # and back is the (real) transpose of to
        lhs, rhs = np.sum(to(x) * z), np.sum(x * back(z))
        assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(to(x)) * np.linalg.norm(z)


class TestOperatorSizeGuard:
    @pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "block_diagonal"])
    def test_guard_counts_the_stored_arrays(self, monkeypatch, coupled):
        # the space's W and F ((2N+1)^2 blocks of 8 M^2 bytes each) and its
        # whitened pieces (3 of 8 M^2 bytes per |n|^2 class, 3 classes at N = 1, and half as many again
        # for the parity halves); two live operators, each its stack at K = 1
        # (16 unknowns^2 bytes when coupled, (2N+1)^2 blocks of 16 M^2 bytes
        # otherwise); the table's whitened c0 (16 M^2 bytes per class) and,
        # when coupled, for its one depth cell the Toeplitz matrix
        # (16 (2N+1)^4 bytes) and the whitened mass per pair of classes
        # (8 M^2 bytes for each of 3^2 pairs)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        disc = q.Discretization(N=1, M=8)
        med = inclusion_medium() if coupled else q.MediumModel.homogeneous(2.0, 1.0)
        space = 8 * 9 * 8 ** 2 * 2 + 8 * 3 * 3 * 8 ** 2 * 3 // 2
        blocks, c0 = 16 * 9 * 8 ** 2, 16 * 3 * 8 ** 2
        need = space + c0 + (2 * 16 * 72 ** 2 + 16 * 9 ** 2 + 8 * 3 ** 2 * 8 ** 2
                             if coupled else 2 * blocks)
        for have, fits in ((need - 1, False), (need, True)):
            monkeypatch.setattr(q.helmholtz.os, "sysconf", lambda name, have=have:
                                1 if name == "SC_PAGE_SIZE" else have)
            if fits:
                op = q.assemble(inc, med, disc)
                assert op.block_diagonal != coupled
            else:
                with pytest.raises(q.OperatorTooLarge,
                                   match=f"needs {need / 2**30:.4g} GiB"):
                    q.assemble(inc, med, disc)

    def test_terabyte_dense_operator_fails_before_allocating(self):
        # 81^2 modes x 64 nodes: a dense operator of about 2.8 TB; the 4 x 4
        # grid would also alias at N = 40, so only the guard can raise first
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        med = q.MediumModel.sampled(np.full((4, 4, 1), 2.0), 1.0)
        disc = q.Discretization(N=40, M=64)
        assert 16 * disc.unknowns ** 2 > 2.8e12
        for build in (q.assemble, q.assemble_eps_derivative):
            t0 = time.perf_counter()
            with pytest.raises(q.OperatorTooLarge, match="physical memory"):
                build(inc, med, disc)
            assert time.perf_counter() - t0 < 0.1


class TestRhs:
    def test_plugin_value(self):
        inc = q.IncidenceSpec.from_angles(2.0, 0.0, 0.0, 1.0)
        disc = q.Discretization(N=1, M=16)
        load = q.rhs(inc, disc)
        i0 = disc.space(1.0).mode_index[(0, 0)]
        assert load[i0, -1] == pytest.approx(-4j * np.exp(-2j), rel=1e-15)
        mask = np.ones(load.shape, dtype=bool)
        mask[i0, -1] = False
        assert np.all(load[mask] == 0.0)

    def test_grazing_limit(self):
        disc = q.Discretization(N=0, M=16)
        t1 = np.pi / 2 - 1e-8
        inc = q.IncidenceSpec.from_angles(2.0, t1, 0.0, 1.0)
        load = q.rhs(inc, disc)
        assert np.max(np.abs(load)) < 1e-7

    def test_eps_derivative_against_finite_difference(self):
        # d/d eps of the load: 2 cos t1 (1 - ikh cos t1) e^{-ikh cos t1}
        inc = q.IncidenceSpec.from_angles(1.7, 0.4, 0.2, 1.0)
        disc = q.Discretization(N=0, M=16)
        dl = q.rhs_eps_derivative(inc, disc)
        ct = np.cos(0.4)
        expected = 2 * ct * (1 - 1j * 1.7 * 1.0 * ct) * np.exp(-1j * 1.7 * 1.0 * ct)
        assert dl[0, -1] == pytest.approx(expected, rel=1e-14)
        errs = []
        for delta in (1e-5, 1e-6):
            fd = (q.rhs(inc.with_k(1.7 + 1j * delta), disc) - q.rhs(inc, disc)) / delta
            errs.append(np.max(np.abs(fd - dl)))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-4


def bad_loads(load):
    """A NaN entry, an infinite entry and a wrong shape: no finite field of the space."""
    nan, inf = load.copy(), load.copy()
    nan[0, 0], inf[-1, -1] = np.nan, np.inf
    return [nan, inf, load[:, :-1]]


class TestSolve:
    @pytest.mark.parametrize("medium", [
        lambda: q.MediumModel.homogeneous(2.0, 1.0),  # block-diagonal
        inclusion_medium,                              # coupled
    ], ids=["uniform", "coupled"])
    def test_bad_load_fails_before_any_factorization(self, monkeypatch, medium):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        disc = q.Discretization(N=1, M=16)
        op = q.assemble(inc, medium(), disc)
        for load in bad_loads(q.rhs(inc, disc)):
            with monkeypatch.context() as m:
                svd, lu = recorded_shapes(m, "svd"), recorded_shapes(m, "solve")
                with pytest.raises(ValueError, match="load"):
                    q.solve(op, load)
            assert svd == lu == []

    def test_transparent_layer_field_is_incident(self):
        inc, v, _ = solve_slab(1.0, 1.3, 0.37, 32, N=1)
        x3 = v.space.grid.nodes
        exact = np.exp(-1j * 1.3 * np.cos(0.37) * x3)
        assert np.max(np.abs(v.profile((0, 0)) - exact)) < 1e-10
        for n in v.space.modes:
            if n != (0, 0):
                assert np.max(np.abs(v.profile(n))) < 1e-12

    def test_residual_contract(self):
        inc, v, _ = solve_slab(2.0, 1.0, 0.0, 24)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        op = q.assemble(inc, med, q.Discretization(N=0, M=24))
        load = q.rhs(inc, q.Discretization(N=0, M=24))
        resid = np.linalg.norm((op.apply(v.values) - load).ravel())
        assert resid <= 1e-10 * np.linalg.norm(load.ravel())

    def test_near_singular_at_propagative_wave_vector(self):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        disc = q.Discretization(N=2, M=32)
        op = q.assemble(inc, med, disc)
        with pytest.raises(q.NearSingular) as exc:
            q.solve(op, q.rhs(inc, disc))
        assert exc.value.smallest_singular_value < 1e-10 * exc.value.sigma_max

    @pytest.mark.parametrize("scheme,tol64", [(q.CHEBYSHEV, 1e-6),
                                              (q.FINITE_DIFFERENCE, 1e-3)])
    def test_slab_convergence(self, scheme, tol64):
        up_o, um_o = oracle_u(4.0, 2.0, 0.0)
        errs = []
        for M in (16, 32, 64):
            _, _, rd = solve_slab(4.0, 2.0, 0.0, M, scheme)
            errs.append(max(abs(rd.u_plus[(0, 0)] - up_o),
                            abs(rd.u_minus[(0, 0)] - um_o)))
        assert errs[-1] < tol64
        if scheme == q.FINITE_DIFFERENCE:
            slope = -np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
            assert 1.6 < slope < 2.6
        else:
            assert max(errs) < 1e-10  # at the round-off floor from M=16 on

    def test_chebyshev_geometric_decay_preasymptotic(self):
        # below the round-off floor the depth error decays geometrically;
        # visible at small M for a high-contrast slab
        up_o, um_o = oracle_u(4.0, 2.0, 0.0)
        errs = []
        for M in (8, 10, 12, 14):
            _, _, rd = solve_slab(4.0, 2.0, 0.0, M)
            errs.append(max(abs(rd.u_plus[(0, 0)] - up_o),
                            abs(rd.u_minus[(0, 0)] - um_o)))
        assert errs[0] > errs[1] > errs[2] > errs[3]
        assert errs[3] < 1e-4 * errs[0]

    def test_complex_k_solvable_and_bounded_at_resonance(self):
        inc0 = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        disc = q.Discretization(N=2, M=24)
        norms = []
        for eps in (1e-1, 1e-2, 1e-3):
            inc = inc0.with_k(K_EX + 1j * eps)
            op = q.assemble(inc, med, disc)
            v = q.solve(op, q.rhs(inc, disc))
            norms.append(v.norm())
        assert max(norms) < 10 * min(norms)  # stays bounded as eps -> 0


class TestRayleighData:
    def test_transparent_layer_bookkeeping(self):
        _, _, rd = solve_slab(1.0, 1.3, 0.37, 32)
        ct = np.cos(0.37)
        assert rd.u_minus[(0, 0)] == pytest.approx(np.exp(1j * 1.3 * ct), abs=1e-11)
        assert abs(abs(rd.u_minus[(0, 0)]) - 1.0) < 1e-11
        assert rd.total_efficiency == pytest.approx(1.0, abs=1e-11)

    def test_slab_energy_balance(self):
        _, _, rd = solve_slab(2.0, 1.0, 0.0, 24)
        assert rd.balance_residual < 1e-8

    def test_energy_balance_many_configs(self):
        # lossless solves balance to near round-off (Hermitian bulk + exact
        # skew boundary part of the discrete form)
        rng = np.random.default_rng(12)
        for _ in range(10):
            q0 = rng.uniform(0.3, 4.0)
            k = rng.uniform(0.4, 2.5)
            t1 = rng.uniform(-1.2, 1.2)
            _, _, rd = solve_slab(q0, k, t1, 20)
            assert rd.balance_residual < 1e-12

    def test_absorbing_medium_loses_energy(self):
        inc = q.IncidenceSpec.from_angles(1.0, 0.0, 0.0, 1.0)
        med = q.MediumModel.homogeneous(2.0 + 0.3j, 1.0)
        disc = q.Discretization(N=0, M=32)
        op = q.assemble(inc, med, disc)
        v = q.solve(op, q.rhs(inc, disc))
        rd = q.rayleigh_data(v, inc)
        assert rd.total_efficiency < 1.0 - 1e-3

    def test_efficiencies_are_the_scalar_formula(self):
        # a slab_sweep-like draw at k = 2.4 with many propagating orders: the
        # efficiencies read from one beta array equal the per-mode formula
        inc = q.IncidenceSpec.from_angles(2.4, 0.5, 1.1, 1.0)
        disc = q.Discretization(N=2, M=32)
        op = q.assemble(inc, q.MediumModel.slab_stack(STACK_LAYERS, 1.0), disc)
        rd = q.rayleigh_data(q.solve(op, q.rhs(inc, disc)), inc)
        propagating = q.classify_modes(inc, disc.N).propagating
        assert len(propagating) >= 9
        assert list(rd.efficiencies_up) == list(rd.efficiencies_down) == propagating
        b0 = q.beta((0, 0), inc).real
        for n in propagating:
            ratio = q.beta(n, inc).real / b0
            for eff, u in ((rd.efficiencies_up, rd.u_plus), (rd.efficiencies_down, rd.u_minus)):
                assert type(eff[n]) is float
                assert eff[n] == ratio * abs(u[n]) ** 2


class TestQuasiperiodicLift:
    def test_pure_phase(self):
        disc = q.Discretization(N=0, M=16)
        space = q.FieldSpace(disc, 1.0)
        inc = q.IncidenceSpec.from_alpha(1.3, (1.0, 0.0), 1.0)
        v = q.FieldCoefficients(space=space, inc=inc,
                                values=np.ones((1, 16), dtype=complex))
        val = q.quasiperiodic_lift(v, inc, (np.pi, 0.0, 0.2))
        assert val == pytest.approx(-1.0, rel=1e-13)

    def test_transparent_layer_recovers_incident_wave(self):
        inc, v, _ = solve_slab(1.0, 1.3, 0.37, 32, N=1)
        that = np.array([np.sin(0.37), 0.0, -np.cos(0.37)])
        rng = np.random.default_rng(4)
        for _ in range(6):
            x = np.array([rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi),
                          rng.uniform(-2.0, 2.0)])
            exact = np.exp(1j * 1.3 * (that @ x))
            assert q.quasiperiodic_lift(v, inc, x) == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("x", [(0.0, 0.0), (0.0, 0.0, 0.5, 1.0)])
    def test_rejects_points_that_are_not_3_vectors(self, x):
        inc, v, _ = solve_slab(2.0, 1.0, 0.2, 16)
        with pytest.raises(ValueError, match="3-vector"):
            q.quasiperiodic_lift(v, inc, x)

    def test_rejects_an_incidence_not_the_fields(self, monkeypatch):
        inc, v, _ = solve_slab(2.0, 1.0, 0.2, 16)
        x = (0.7, 1.1, 1.5)
        equal = q.IncidenceSpec.from_angles(1.0, 0.2, 0.0, 1.0)
        assert equal is not inc
        assert q.quasiperiodic_lift(v, equal, x) == q.quasiperiodic_lift(v, inc, x)

        def evaluate(*args, **kwargs):
            raise AssertionError("evaluated at a mismatched incidence")

        monkeypatch.setattr(q.helmholtz, "_field_value", evaluate)
        for other in (inc.with_k(1.1), q.IncidenceSpec.from_angles(1.0, 0.25, 0.0, 1.0),
                      q.IncidenceSpec.from_alpha(1.0, inc.alpha, 1.0),
                      q.IncidenceSpec.from_angles(1.0, 0.2, 0.0, 1.5)):
            with pytest.raises(ValueError, match="not the field's"):
                q.quasiperiodic_lift(v, other, x)

    def test_continuity_across_boundaries(self):
        inc, v, _ = solve_slab(2.0, 1.0, 0.2, 40)
        d = 1e-9
        for x3 in (1.0, -1.0):
            inside = q.quasiperiodic_lift(v, inc, (0.7, 1.1, x3 - np.sign(x3) * d))
            outside = q.quasiperiodic_lift(v, inc, (0.7, 1.1, x3 + np.sign(x3) * d))
            assert inside == pytest.approx(outside, rel=1e-7)

    @pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE])
    def test_interior_lift_matches_per_mode_sum(self, monkeypatch, scheme):
        disc = q.Discretization(N=2, M=16, depth_scheme=scheme)
        space = q.FieldSpace(disc, 1.0)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(25, 16)) + 1j * rng.normal(size=(25, 16))
        v = q.FieldCoefficients(space=space, inc=inc, values=vals)
        grid = space.grid
        calls, interp = [], q.helmholtz.DepthGrid._interp_matrix

        def counting(self, pts):
            calls.append(len(pts))
            return interp(self, pts)

        monkeypatch.setattr(q.helmholtz.DepthGrid, "_interp_matrix", counting)
        for x in ((0.7, 1.1, 0.23), (5.0, 2.0, -0.81), (0.1, 0.2, 1.0)):
            calls.clear()
            got = q.quasiperiodic_lift(v, inc, x)
            assert len(calls) == (scheme == q.CHEBYSHEV)  # one row per lift
            want = sum(complex(grid.interpolate(vals[i], x[2]))
                       * np.exp(1j * (n[0] * x[0] + n[1] * x[1]))
                       for i, n in enumerate(space.modes))
            want *= np.exp(1j * (inc.alpha_vec @ np.array(x[:2])))
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_exterior_points_share_one_beta_table(self, monkeypatch):
        # beta_n is computed once per field, on its first exterior point; the
        # values are the Rayleigh sum with a fresh beta table, bit for bit,
        # and agree with `rayleigh_eval`, which computes its own
        disc = q.Discretization(N=2, M=16)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        rng = np.random.default_rng(9)
        vals = rng.normal(size=(25, 16)) + 1j * rng.normal(size=(25, 16))
        v = q.FieldCoefficients(space=disc.space(1.0), inc=inc, values=vals)
        points = [np.array(x) for x in ((0.7, 1.1, -1.5), (5.0, 2.0, -1.2), (0.1, 0.2, -3.0))]
        modes = v.space.mode_array
        want = [q.qpcore._rayleigh_sum(modes, q.qpcore._beta_rows(modes, inc), vals[:, 0],
                                       inc, x) for x in points]
        calls, rows = [], q.helmholtz._beta_rows
        monkeypatch.setattr(q.helmholtz, "_beta_rows",
                            lambda *a: calls.append(1) or rows(*a))
        lifted = [q.modes.LiftedMode(v), q.modes.LiftedMode(v)]
        for x, w in zip(points, want):
            assert [f(x) for f in lifted] + [q.quasiperiodic_lift(v, inc, x)] == [w] * 3
            tails = dict(zip(v.space.modes, vals[:, 0].tolist()))
            assert q.rayleigh_eval(tails, "below", inc, x) == pytest.approx(w, rel=1e-14)
        assert calls == [1]


class TestFieldSpace:
    def test_inner_product_properties(self):
        disc = q.Discretization(N=1, M=16)
        sp = q.FieldSpace(disc, 1.0)
        rng = np.random.default_rng(31)
        u = rng.standard_normal((9, 16)) + 1j * rng.standard_normal((9, 16))
        v = rng.standard_normal((9, 16)) + 1j * rng.standard_normal((9, 16))
        assert sp.inner(u, u).real > 0
        assert abs(sp.inner(u, u).imag) < 1e-12 * sp.inner(u, u).real
        assert sp.inner(u, v) == pytest.approx(np.conj(sp.inner(v, u)), rel=1e-12)

    @pytest.mark.parametrize("e", [-1050, -700, 0, 700])
    def test_norm_scales_exactly_by_powers_of_two(self, e):
        # the squares of a field of max |v| ~ 2^-700 underflow and of 2^700
        # overflow; the norm scales u by a power of two first
        sp = q.FieldSpace(q.Discretization(N=1, M=16), 1.0)
        rng = np.random.default_rng(33)
        u = rng.standard_normal((9, 16)) + 1j * rng.standard_normal((9, 16))
        plain = float(np.sqrt(sp.inner(u, u).real))
        assert sp.norm(u) == plain  # bit for bit in the normal range
        if e > -1000:
            assert sp.norm(np.ldexp(u.real, e) + 1j * np.ldexp(u.imag, e)) \
                == np.ldexp(plain, e)
        else:  # subnormal entries: rounded to about 24 bits
            tiny = np.ldexp(u.real, e) + 1j * np.ldexp(u.imag, e)
            assert sp.norm(tiny) == pytest.approx(np.ldexp(plain, e), rel=1e-5, abs=0)
        assert sp.norm(sp.zeros()) == 0.0

    def test_whiten_roundtrip_and_isometry(self):
        # F maps whitened coordinates y isometrically onto fields
        disc = q.Discretization(N=1, M=16)
        sp = q.FieldSpace(disc, 1.0)
        rng = np.random.default_rng(32)
        y = rng.standard_normal((9, 16)) + 1j * rng.standard_normal((9, 16))
        assert np.linalg.norm(y.ravel()) == pytest.approx(sp.norm(sp.unwhiten(y)),
                                                          rel=1e-12)

    @pytest.mark.parametrize("scheme, M, h", [
        (q.CHEBYSHEV, 16, 1e-310),          # the differentiation matrix overflows
        (q.CHEBYSHEV, 16, 1e308),           # W does
        (q.FINITE_DIFFERENCE, 17, 1e-310),  # the element stiffness 1/d does
        (q.FINITE_DIFFERENCE, 17, 1e308),   # the grid spacing 2h does
    ])
    def test_overflowing_h_is_refused_before_the_eigendecomposition(self, monkeypatch,
                                                                     scheme, M, h):
        disc = q.Discretization(N=1, M=M, depth_scheme=scheme)
        eigh = []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: eigh.append(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning escapes
            with pytest.raises(q.DomainError, match="depth grid overflows double precision"):
                disc.space(h)
        assert eigh == [] and disc._spaces == {}

    @pytest.mark.parametrize("h", [1e200, 1e300])
    def test_indefinite_weighted_product_is_a_domain_error(self, h):
        # a finite grid whose stiffness (order 1/h) is lost beside the end
        # nodes (order 1) in W_0: its eigendecomposition finds a
        # non-positive eigenvalue, a DomainError naming h and M
        disc = q.Discretization(N=1, M=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(q.DomainError, match=re.escape(
                    f"not positive definite in double precision at h = {h:.6g}, M = 16")):
                disc.space(h)
        assert disc._spaces == {}

    @pytest.mark.parametrize("h", [1.0, 1e-300, 1e300])
    def test_interpolation_rows_are_the_pointwise_barycentric_formula(self, h):
        # one point at a time, distances in units of h; a node takes its own row
        grid = q.helmholtz.DepthGrid(q.Discretization(N=0, M=17), h)
        t = np.concatenate([np.linspace(-1.0, 1.0, 41), grid.nodes[[3, 8]] / h])
        want = []
        for x in h * t:
            diff = (x - grid.nodes) / h
            hit = np.flatnonzero(np.abs(diff) < 1e-13)
            row = np.eye(17)[hit[0]] if hit.size else grid._bary / diff
            want.append(row / row.sum())
        assert np.max(np.abs(grid._interp_matrix(h * t) - want)) <= 1e-15


STACK_LAYERS =((-1.0, -0.3, 2.0), (-0.3, 0.45, 3.2), (0.45, 1.0, 1.4))


def stack_oracle(inc, layers):
    """(u+, u-) of order (0, 0) through transversely uniform layers, by the
    exact 2 x 2 transfer matrix of (u, u') from x3 = -h to x3 = h."""
    k, h, a2 = inc.k.real, inc.h, float(inc.alpha_vec @ inc.alpha_vec)
    b0 = np.sqrt(k * k - a2)
    state = np.array([1.0, -1j * b0])  # the transmitted wave u- e^{-i b0 (x3 + h)}
    for z0, z1, qc in layers:
        g, d = np.sqrt(complex(k * k * qc - a2)), z1 - z0
        state = np.array([[np.cos(g * d), np.sin(g * d) / g],
                          [-g * np.sin(g * d), np.cos(g * d)]]) @ state
    incident = np.exp(-1j * b0 * h)
    um = -2j * b0 * incident / (state[1] - 1j * b0 * state[0])
    return um * state[0] - incident, um


class TestStackConvergence:
    """The three-layer stack against its transfer matrix: every depth cell's
    mass is exact, so the error is the depth scheme's own."""

    @pytest.fixture(scope="class")
    def draws(self):
        rng = np.random.default_rng(0)
        return [q.IncidenceSpec.from_angles(rng.uniform(0.5, 2.5), rng.uniform(0.0, 1.2),
                                            rng.uniform(0.0, 2 * np.pi), 1.0)
                for _ in range(20)]

    @staticmethod
    def worst_error(draws, M, scheme):
        med, disc = slab_stack_medium(), q.Discretization(N=0, M=M, depth_scheme=scheme)
        worst = 0.0
        for inc in draws:
            rd = q.rayleigh_data(q.solve(q.assemble(inc, med, disc), q.rhs(inc, disc)), inc)
            up, um = stack_oracle(inc, STACK_LAYERS)
            worst = max(worst, abs(rd.u_plus[(0, 0)] - up), abs(rd.u_minus[(0, 0)] - um))
        return worst

    def test_chebyshev_is_third_order(self, draws):
        errs = [self.worst_error(draws, M, q.CHEBYSHEV) for M in (32, 64, 128)]
        assert errs[0] <= 1e-4
        assert errs[0] >= 6 * errs[1] and errs[1] >= 6 * errs[2]

    def test_finite_difference_is_second_order(self, draws):
        Ms = (32, 64, 128, 256)
        errs = [self.worst_error(draws, M, q.FINITE_DIFFERENCE) for M in Ms]
        slope = -np.polyfit(np.log(Ms), np.log(errs), 1)[0]
        assert 1.6 < slope < 2.6


class TestSharedSpace:
    """A Discretization builds one FieldSpace per h and every solve shares it."""

    def test_space_is_built_once_per_h(self):
        disc = q.Discretization(N=1, M=16)
        assert disc.space(1.0) is disc.space(1.0)
        assert disc.space(1) is disc.space(1.0)
        assert disc.space(2.0) is not disc.space(1.0)
        assert disc.space(2.0).h == 2.0
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        assert q.assemble(inc, med, disc).space is disc.space(1.0)
        assert q.assemble_eps_derivative(inc, med, disc).space is disc.space(1.0)
        assert q.rhs(inc, disc).shape == (9, 16)

    @pytest.mark.parametrize("build", [q.assemble, q.assemble_eps_derivative])
    def test_both_assemblies_refuse_another_medium_h(self, monkeypatch, build):
        # one entry check: h agreement, then the memory guard, then the space
        disc = q.Discretization(N=1, M=16)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 0.5)
        with pytest.raises(ValueError, match="incidence h and medium h disagree"):
            build(inc, q.MediumModel.homogeneous(2.0, 1.0), disc)
        assert disc._spaces == {}
        monkeypatch.setattr(q.helmholtz.os, "sysconf", lambda name: 1)
        with pytest.raises(q.OperatorTooLarge):
            build(inc, q.MediumModel.homogeneous(2.0, 0.5), disc)
        assert disc._spaces == {}

    def test_operators_take_no_space(self):
        # the space is fixed by (disc, inc.h): one of another h or N cannot be passed
        disc = q.Discretization(N=1, M=16)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        for space in (disc.space(0.5), q.Discretization(N=2, M=16).space(1.0)):
            with pytest.raises(TypeError):
                q.assemble(inc, med, disc, space)
            with pytest.raises(TypeError):
                q.assemble_eps_derivative(inc, med, disc, space)
            with pytest.raises(TypeError):
                q.rhs_eps_derivative(inc, disc, space)

    def test_cache_takes_no_part_in_equality(self):
        a, b = q.Discretization(N=1, M=16), q.Discretization(N=1, M=16)
        a.space(1.0)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert a != q.Discretization(N=1, M=16, depth_scheme=q.FINITE_DIFFERENCE)

    def test_w_factors_built_once_across_solves(self, monkeypatch):
        calls, eigh = [], np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        disc = q.Discretization(N=2, M=16)
        med = q.MediumModel.slab_stack(STACK_LAYERS, 1.0)
        for k in (1.1, 1.7):
            inc = q.IncidenceSpec.from_angles(k, 0.3, 0.7, 1.0)
            op = q.assemble(inc, med, disc)
            q.solve(op, q.rhs(inc, disc))
        distinct = {n[0] ** 2 + n[1] ** 2 for n in q.mode_range(disc.N)}
        assert len(calls) == len(distinct)

    @pytest.mark.parametrize("medium, disc", [
        (q.MediumModel.slab_stack(STACK_LAYERS, 1.0), q.Discretization(N=2, M=32)),
        (inclusion_medium(), q.Discretization(N=2, M=16)),
    ])
    def test_shared_space_gives_identical_coefficients(self, medium, disc):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        got = []
        # the shared space, and a fresh discretization's cold one
        for d in (disc, q.Discretization(N=disc.N, M=disc.M)):
            op = q.assemble(inc, medium, d)
            rd = q.rayleigh_data(q.solve(op, q.rhs(inc, d)), inc)
            got.append([rd.u_plus[n] for n in op.space.modes]
                       + [rd.u_minus[n] for n in op.space.modes])
        assert np.array_equal(got[0], got[1])

    @pytest.mark.parametrize("M", [16, 32, 64])
    @pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE],
                             ids=["chebyshev", "fd"])
    @pytest.mark.parametrize("medium, K", [
        (lambda: q.MediumModel.slab_stack(STACK_LAYERS, 1.0), 1),  # depth-asymmetric
        (lambda: q.MediumModel.homogeneous(2.0, 1.0), 2),          # parity halves
    ], ids=["slab_stack", "homogeneous"])
    def test_stack_solve_equals_per_block_solve(self, monkeypatch, medium, K, scheme, M):
        # a block-diagonal operator is solved on its whitened stack, through
        # the maps, as a coupled one is; its raw mode blocks give the reference
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        disc = q.Discretization(N=2, M=M, depth_scheme=scheme)
        op = q.assemble(inc, medium(), disc)
        assert op.block_diagonal and op.stack.shape == (25 * K, M // K, M // K)
        load = q.rhs(inc, disc)
        with monkeypatch.context() as m:
            solve = recorded_shapes(m, "solve")
            v = q.solve(op, load).values
        # one batched LU of the blocks of mode (0, 0), one per depth class, no refinement
        assert solve == [(K, M // K, M // K)]
        ref = np.linalg.solve(diagonal_blocks(op), load[..., None])[..., 0]
        assert relative_error(v, ref) <= 1e-12
        assert relative_error(op.apply(v), load) <= 1e-10


class TestCouplingTable:
    """The k-independent half of the assembly, built once per (medium, space)."""

    @pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE])
    @pytest.mark.parametrize("medium", [
        inclusion_medium, lamellar_medium, constant_medium,
        lambda: q.MediumModel.slab_stack(STACK_LAYERS, 1.0),
    ], ids=["inclusion", "lamellar", "constant", "slab_stack"])
    def test_second_assembly_builds_no_mass(self, monkeypatch, medium, scheme):
        med, disc = medium(), q.Discretization(N=2, M=16, depth_scheme=scheme)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        builds = [lambda d: q.assemble(inc, med, d),
                  lambda d: q.assemble(inc.with_k(1.3 + 0.05j), med, d),
                  lambda d: q.assemble_eps_derivative(inc, med, d)]
        # each cold build on a fresh discretization, whose space has no table
        cold = [dense(build(q.Discretization(N=2, M=16, depth_scheme=scheme)))
                for build in builds]
        q.assemble(inc, med, disc)  # fills the table
        calls, masses = [], q.helmholtz.DepthGrid.cell_masses

        def counting(grid, breaks):
            calls.append(breaks)
            return masses(grid, breaks)

        monkeypatch.setattr(q.helmholtz.DepthGrid, "cell_masses", counting)
        for build, want in zip(builds, cold):
            assert np.array_equal(dense(build(disc)), want)
        assert calls == []

    def test_table_lives_as_long_as_its_medium(self):
        space = q.FieldSpace(q.Discretization(N=1, M=16), 1.0)
        med = inclusion_medium()
        table = q.helmholtz._medium_profiles(med, space)
        assert q.helmholtz._medium_profiles(med, space) is table
        other = inclusion_medium()  # equal values, another medium: its own table
        assert q.helmholtz._medium_profiles(other, space) is not table
        del med, other
        gc.collect()
        assert len(space._couplings) == 0

    @pytest.mark.parametrize("medium", [constant_medium,
                                        lambda: q.MediumModel.homogeneous(2.0, 1.0)],
                             ids=["constant", "homogeneous"])
    def test_uniform_medium_has_no_coupling_difference(self, medium):
        # qhat_0 sits in the diagonal c0; the coupling sum has no term
        space = q.FieldSpace(q.Discretization(N=1, M=16), 1.0)
        table = q.helmholtz._medium_profiles(medium(), space)
        assert table.toeplitz is None
        assert table.groups.tolist() == [[i] for i in range(9)]
        u = space.zeros() + 1.0
        assert np.array_equal(table.couple(u), space.zeros())

    @pytest.mark.parametrize("medium, K", [(lambda: homogeneous_medium(), 2),
                                           (lambda: slab_stack_medium(), 1)],
                             ids=["homogeneous", "slab_stack"])
    def test_uniform_table_holds_no_mode_pair_array(self, medium, K):
        # N = 20, 1681 modes: one complex modes^2 array would take 45 MB, and
        # a Toeplitz per cell, a difference index and per-pair weight rows
        # several; the table's build peaks below 2 MB
        med, space = medium(), q.FieldSpace(q.Discretization(N=20, M=16), 1.0)
        tracemalloc.start()
        try:
            table = q.helmholtz._medium_profiles(med, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert table.toeplitz is None and table.pair_pieces is None
        assert table.groups.tolist() == [[i] for i in range(1681)]
        assert table.K == K
        assert med.values.shape[:2] == (1, 1)
        want = np.tensordot(med.values[0, 0] - 1.0, space.grid.cell_masses(med.breaks), axes=1)
        assert np.array_equal(table.c0, want)

    def test_alias_error_on_every_call(self):
        med = q.MediumModel.sampled(np.full((8, 8, 1), 2.0), 1.0)
        space = q.FieldSpace(q.Discretization(N=2, M=12), 1.0)
        for _ in range(2):
            with pytest.raises(q.AliasError):
                q.helmholtz._medium_profiles(med, space)
        assert len(space._couplings) == 0


#: one warm N = 1 solve, then one solve of the 32 x 32 disc inclusion at
#: N = 4, M = 16; prints the rise of the process's peak resident set over the
#: stack's bytes.  The peak is VmHWM, the high-water mark of the process's own
#: memory: ru_maxrss is not, as exec carries the spawning process's peak over
#: (a test run's, larger than this whole probe)
RSS_PROBE = """
import numpy as np
import qpscat as q

def peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

x = (np.arange(32) + 0.5) * 2 * np.pi / 32
r2 = (x[:, None] - np.pi) ** 2 + (x[None, :] - np.pi) ** 2
med = q.MediumModel.sampled(np.where(r2 < (0.35 * 2 * np.pi) ** 2, 2.5, 1.5)[:, :, None], 1.0)
inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
small = q.Discretization(N=1, M=16)
q.solve(q.assemble(inc, med, small), q.rhs(inc, small))
before = peak()
disc = q.Discretization(N=4, M=16)
op = q.assemble(inc, med, disc)
q.solve(op, q.rhs(inc, disc))
print((peak() - before) * 1024 / op.stack.nbytes)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
class TestCouplingMemory:
    """A coupled run holds one stack-sized array: its stack."""

    def test_inclusion_solve_peaks_below_two_stacks(self, tmp_path):
        # the solve's resident peak rises by its stack, the SVD's and the
        # LU's work arrays (1.6-1.7 stacks); a second stack-sized array, as a
        # kept whitened coupling was, takes it to 2.7
        env = dict(os.environ, PYTHONPATH=str(Path(q.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", RSS_PROBE], cwd=tmp_path, env=env,
                              text=True, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) <= 2.0

    def test_coupled_table_build_peaks_below_1_MB(self):
        # the disc inclusion at N = 4, M = 16: its table holds 15 classes'
        # pair pieces of one cell (230 KB), not a whitened coupling (13.4 MB)
        med = inclusion_medium(n=32)
        space = q.FieldSpace(q.Discretization(N=4, M=16), 1.0)
        tracemalloc.start()
        try:
            table = q.helmholtz._medium_profiles(med, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert table.pair_pieces.nbytes == 8 * 2 * 15 ** 2 * 8 ** 2


class TestStackActions:
    """`apply` and `apply_adjoint` on a stack of fields (m, n_modes, M)."""

    @pytest.mark.parametrize("build", [
        lambda: sampled_operator(inclusion_medium),
        lambda: sampled_operator(coupled_medium),
        slab_operator,
    ], ids=["coupled", "coupled_asymmetric", "block_diagonal"])
    def test_stack_is_the_fields_one_by_one(self, build):
        op = build()
        rng = np.random.default_rng(43)
        shape = (3,) + op.space.zeros().shape
        U = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for act in (op.apply, op.apply_adjoint):
            got = act(U)
            assert got.shape == shape
            assert relative_error(got, np.array([act(u) for u in U])) <= 1e-14

    def test_whitened_is_built_afresh(self):
        op = sampled_operator(inclusion_medium)
        a, b = op.whitened(), op.whitened()
        assert a is not b and np.array_equal(a, b)


class TestApplyAdjoint:
    @pytest.mark.parametrize("build", [
        lambda: sampled_operator(inclusion_medium),
        lambda: sampled_operator(coupled_medium),
        slab_operator,
    ], ids=["dense", "dense_asymmetric", "block_diagonal"])
    def test_matches_the_conjugate_transpose(self, build):
        op = build()
        rng = np.random.default_rng(41)
        shape = op.space.zeros().shape
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = (dense(op).conj().T @ u.ravel()).reshape(u.shape)
        assert relative_error(op.apply_adjoint(u), want) <= 1e-13


def sampled_stack_medium(h=1.0):
    """The three depth cells of the solve_sampled_stack golden case."""
    return q.MediumModel.sampled(sampled_stack(), h)


def reference_masses(medium, space):
    """C_d = int qhat_d l_i l_j dx3 for every |d|_inf <= 2N, C_0 of qhat_0 - 1.

    Integrated piece by piece between the medium's breaks and the grid's
    nodes, qhat_d of each piece from `depth_coefficients` at its midpoint:
    Chebyshev by (M + 2)-point Gauss-Legendre on every piece; finite
    differences as each element's mean of qhat_d times its blended P1 mass.
    """
    grid, N, M = space.grid, space.disc.N, space.M
    cuts = np.union1d(medium.breaks, grid.nodes)
    a, b = cuts[:-1], cuts[1:]
    qhat = depth_coefficients(medium, 0.5 * (a + b), 2 * N)
    qhat[:, 2 * N, 2 * N] -= 1.0
    if grid.scheme == q.CHEBYSHEV:
        t, w = np.polynomial.legendre.leggauss(M + 2)
        x = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * t
        E = grid._interp_matrix(x.ravel()).reshape(len(a), M + 2, M)
        pieces = np.einsum("pk,pki,pkj->pij", 0.5 * (b - a)[:, None] * w, E, E)
    else:
        d, th = grid.nodes[1] - grid.nodes[0], q.helmholtz.FD_MASS_BLEND
        element = d * (th * np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]]) + (1 - th) / 2 * np.eye(2))
        pieces = np.zeros((len(a), M, M))
        for p, e in enumerate(np.searchsorted(grid.nodes, 0.5 * (a + b)) - 1):
            pieces[p, e:e + 2, e:e + 2] = (b[p] - a[p]) / d * element
    C = np.tensordot(qhat, pieces, axes=(0, 0))
    return {d: C[d[0] + 2 * N, d[1] + 2 * N] for d in q.mode_range(2 * N)}


def filled_matrix(inc, medium, space, derivative=False):
    """The operator, or its eps-derivative, filled here mode pair by mode pair
    from the reference masses (`reference_masses`)."""
    C = reference_masses(medium, space)
    grid, M = space.grid, space.M
    scale = 2j * inc.k.real if derivative else inc.k * inc.k
    nm = len(space.modes)
    G = np.zeros((nm, M, nm, M), dtype=complex)
    for i, n in enumerate(space.modes):
        if derivative:
            b = q.d_beta_d_eps(n, inc)
            shift = inc.k.real * inc.cos2_theta1 - float(np.dot(n, inc.tilde_theta))
            volume = -2j * shift * grid.mass
        else:
            b = q.beta(n, inc)
            volume = grid.stiffness - b * b * grid.mass
        G[i, :, i] = volume - scale * C[(0, 0)]
        G[i, 0, i, 0] -= 1j * b
        G[i, -1, i, -1] -= 1j * b
        for j, m in enumerate(space.modes):
            if i != j:
                G[i, :, j] = 0.0 - scale * C[(n[0] - m[0], n[1] - m[1])]
    return G.reshape(space.size, -1)


def matrix_components(G, nm, M):
    """Connected components of the nonzero mode blocks of G, by first mode."""
    link = np.any(G.reshape(nm, M, nm, M) != 0, axis=(1, 3))
    link |= link.T
    comps, seen = [], set()
    for i in range(nm):
        if i in seen:
            continue
        comp, todo = set(), [i]
        while todo:
            j = todo.pop()
            if j not in comp:
                comp.add(j)
                todo.extend(np.flatnonzero(link[j]))
        seen |= comp
        comps.append(sorted(comp))
    return comps


GROUP_CASES = [  # (medium, N, M, number of groups)
    (lamellar_medium, 2, 16, 5),
    (constant_medium, 2, 16, 25),
    (constant_medium, 2, 15, 25),
    (diagonal_medium, 2, 16, 1),
    (inclusion_medium, 2, 16, 1),
    (sampled_stack_medium, 2, 16, 1),
]
GROUP_IDS = ["lamellar", "constant_M16", "constant_M15", "diagonal", "inclusion",
             "sampled_stack"]


class TestGroupStorage:
    """Dense operators kept as the diagonal blocks of their coupling groups."""

    @pytest.mark.parametrize("k", [1.3, 1.3 + 0.05j])
    @pytest.mark.parametrize("medium, N, M, groups", GROUP_CASES, ids=GROUP_IDS)
    def test_matrix_is_the_filled_operator(self, medium, N, M, groups, k):
        med, disc = medium(), q.Discretization(N=N, M=M)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0).with_k(k)
        op = q.assemble(inc, med, disc)
        nm = len(op.space.modes)
        assert len(op.groups) == groups
        assert op.dense is None and not op.block_diagonal
        assert op.groups.shape == (groups, nm // groups)
        got, want = dense(op), filled_matrix(inc, med, op.space)
        # a vanishing coupling block is exactly zero
        off = ~np.eye(nm, dtype=bool)
        blocks = [G.reshape(nm, M, nm, M).swapaxes(1, 2)[off].any(axis=(1, 2))
                  for G in (got, want)]
        assert np.array_equal(*blocks)
        assert relative_error(got, want) <= 1e-14

    @pytest.mark.parametrize("derivative", [False, True], ids=["A", "dA"])
    @pytest.mark.parametrize("medium, N, M, groups", GROUP_CASES, ids=GROUP_IDS)
    def test_actions_agree_with_the_matrix(self, medium, N, M, groups, derivative):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        build = q.assemble_eps_derivative if derivative else q.assemble
        med = medium()
        op = build(inc, med, q.Discretization(N=N, M=M))
        G = filled_matrix(inc, med, op.space, derivative)
        rng = np.random.default_rng(17)
        shape = op.space.zeros().shape
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert relative_error(op.apply(u), (G @ u.ravel()).reshape(shape)) <= 1e-13
        assert relative_error(op.apply_adjoint(u),
                              (G.conj().T @ u.ravel()).reshape(shape)) <= 1e-13
        F = q.helmholtz._block_diag(whitening_factor(op.space))
        assert relative_error(op.whitened(), F.T @ G @ F) <= 1e-13

    @pytest.mark.parametrize("medium, N, M, groups",
                             [c for c in GROUP_CASES if c[3] > 1],
                             ids=[i for i, c in zip(GROUP_IDS, GROUP_CASES) if c[3] > 1])
    def test_split_assembly_allocates_no_full_matrix(self, monkeypatch, medium, N, M,
                                                     groups):
        med, disc = medium(), q.Discretization(N=N, M=M)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        shapes, zeros = [], np.zeros

        def recording(shape, *args, **kwargs):
            shapes.append(shape)
            return zeros(shape, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "zeros", recording)
            ops = [q.assemble(inc, med, disc), q.assemble_eps_derivative(inc, med, disc)]
        full = disc.unknowns ** 2
        assert shapes and max(np.prod(s) for s in shapes) < full
        assert all(op.dense is None and op.stack.size < full
                   for op in ops)


def homogeneous_medium(h=1.0):
    """A transversely uniform layer, mirror-symmetric in depth: K = 2."""
    return q.MediumModel.homogeneous(2.0, h)


def slab_stack_medium(h=1.0):
    """Three transversely uniform layers, depth-asymmetric: K = 1."""
    return q.MediumModel.slab_stack(STACK_LAYERS, h)


def mirrored_stack_medium(h=1.0):
    """Four depth cells mirrored about x3 = 0, two of sampled_stack's each twice:
    the mirror cells' defects cancel, and the table still splits by parity (K = 2)."""
    return q.MediumModel.sampled(sampled_stack()[:, :, [0, 1, 1, 0]], h)


STACK_CASES = GROUP_CASES + [(coupled_medium, 2, 16, 1), (homogeneous_medium, 2, 16, 25),
                             (slab_stack_medium, 2, 16, 25), (mirrored_stack_medium, 2, 16, 1)]
STACK_IDS = GROUP_IDS + ["coupled", "homogeneous", "slab_stack", "mirrored_stack"]
#: A at real and complex k, and A'(0), which is defined at real k only
OPERATOR_KINDS = [(1.3, False), (1.3 + 0.05j, False), (1.3, True)]
OPERATOR_KIND_IDS = ["A", "A_complex_k", "dA"]


def lossy_stack_medium(h=1.0):
    """The three-layer stack with an absorbing middle layer, q = 3.2 + 0.4i: a
    complex c0, whose imaginary part is a whitened piece of its own."""
    return q.MediumModel.slab_stack([(-1.0, -0.3, 2.0), (-0.3, 0.45, 3.2 + 0.4j),
                                     (0.45, 1.0, 1.4)], h)


#: every medium of STACK_CASES once, and the lossy stack
PIECE_MEDIA = [lamellar_medium, constant_medium, diagonal_medium, inclusion_medium,
               sampled_stack_medium, coupled_medium, homogeneous_medium, slab_stack_medium,
               mirrored_stack_medium, lossy_stack_medium]
PIECE_IDS = ["lamellar", "constant", "diagonal", "inclusion", "sampled_stack", "coupled",
             "homogeneous", "slab_stack", "mirrored_stack", "lossy_stack"]


def formula_diagonal(inc, medium, space, derivative=False):
    """The raw diagonal blocks by the assembly formula, operation by operation:
    stiffness - beta^2 mass - k^2 c0, or -2i shift mass - 2ik c0 for A'(0),
    less i beta (or i dbeta/deps) at both end nodes."""
    grid, N = space.grid, space.disc.N
    c0 = q.helmholtz._medium_profiles(medium, space).c0
    if derivative:
        k = inc.k.real
        shift = k * inc.cos2_theta1 - np.array(space.modes, dtype=float) @ inc.tilde_theta
        volume = (-2j * shift)[:, None, None] * grid.mass.astype(complex)
        b, scale = 1j * shift / q.beta_table(inc, N), 2j * k
    else:
        b = q.beta_table(inc, N) if inc.k.imag == 0 else \
            q.helmholtz._beta_array(inc, N)
        b2 = np.array([x * x for x in b.tolist()])
        volume = grid.stiffness.astype(complex) - b2[:, None, None] * grid.mass
        scale = inc.k * inc.k
    G = volume - scale * c0
    G[:, 0, 0] -= 1j * b
    G[:, -1, -1] -= 1j * b
    return G


def reference_rows(G, groups, M):
    """Raw row slot r of every mode group, as a function of r, read from a full
    (mode, node) matrix G."""
    nm = len(groups.ravel())
    G4 = G.reshape(nm, M, nm, M)
    return lambda r: np.stack([G4[g[r]][:, g] for g in groups])


class TestCoupledStack:
    """Every operator assembled straight into its whitened stack."""

    @pytest.mark.parametrize("k, derivative", OPERATOR_KINDS, ids=OPERATOR_KIND_IDS)
    @pytest.mark.parametrize("medium, N, M, groups", STACK_CASES, ids=STACK_IDS)
    def test_raw_diagonal_is_the_assembly_formula(self, medium, N, M, groups, k,
                                                  derivative):
        med, disc = medium(), q.Discretization(N=N, M=M)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0).with_k(k)
        build = q.assemble_eps_derivative if derivative else q.assemble
        op = build(inc, med, disc)
        assert np.array_equal(diagonal_blocks(op), formula_diagonal(inc, med, op.space,
                                                                    derivative))

    @pytest.mark.parametrize("k, derivative", OPERATOR_KINDS, ids=OPERATOR_KIND_IDS)
    @pytest.mark.parametrize("M", [16, 15])
    @pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE],
                             ids=["chebyshev", "fd"])
    @pytest.mark.parametrize("medium", PIECE_MEDIA, ids=PIECE_IDS)
    def test_pieces_build_the_whitened_operator(self, medium, scheme, M, k, derivative):
        # the stack, a combination of whitened pieces per |n|^2 class and
        # class pair, is W^{-1/2} G W^{-1/2} of the operator's own matrix, in
        # its layout
        med, disc = medium(), q.Discretization(N=2, M=M, depth_scheme=scheme)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0).with_k(k)
        build = q.assemble_eps_derivative if derivative else q.assemble
        op = build(inc, med, disc)
        table = op.table
        assert table.c0_pieces.shape[1] == (2 if medium is lossy_stack_medium else 1)
        want = whitened_formula(op.space, table.groups, dense(op), table.K)
        assert op.stack.shape == want.shape
        assert relative_error(op.stack, want) <= 1e-13

    @pytest.mark.parametrize("medium, K", [(homogeneous_medium, 2), (slab_stack_medium, 1)],
                             ids=["homogeneous", "slab_stack"])
    def test_uniform_layout_is_single_modes_by_the_parity_test(self, medium, K):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        op = q.assemble(inc, medium(), q.Discretization(N=2, M=16))
        assert op.block_diagonal and op.table.pair_pieces is None
        assert op.groups.tolist() == [[i] for i in range(25)]
        assert op.stack.shape == (25 * K, 16 // K, 16 // K)

    @pytest.mark.parametrize("k, derivative", OPERATOR_KINDS, ids=OPERATOR_KIND_IDS)
    @pytest.mark.parametrize("M", [16, 15])
    def test_homogeneous_is_the_one_layer_stack(self, M, k, derivative):
        h, disc = 0.8, q.Discretization(N=2, M=M)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, h).with_k(k)
        build = q.assemble_eps_derivative if derivative else q.assemble
        # and a 1 x 1 x 3 sampled medium is the stack of its three cells
        cells = np.array([2.0, 3.2 + 0.4j, 1.4])
        z = h * np.linspace(-1.0, 1.0, 4)
        pairs = [(q.MediumModel.homogeneous(2.0, h), q.MediumModel.slab_stack([(-h, h, 2.0)], h)),
                 (q.MediumModel.sampled(cells[None, None], h),
                  q.MediumModel.slab_stack(zip(z, z[1:], cells), h))]
        load = q.rhs(inc, disc)
        for media in pairs:
            assert all(med.values.shape[:2] == (1, 1) for med in media)
            assert np.array_equal(media[0].values, media[1].values)
            assert np.array_equal(media[0].breaks, media[1].breaks)
            ops = [build(inc, med, disc) for med in media]
            assert ops[0].block_diagonal and ops[1].block_diagonal
            assert np.array_equal(dense(ops[0]), dense(ops[1]))
            assert np.array_equal(ops[0].stack, ops[1].stack)
            assert np.array_equal(q.solve(ops[0], load).values, q.solve(ops[1], load).values)

    @pytest.mark.parametrize("k, derivative", OPERATOR_KINDS, ids=OPERATOR_KIND_IDS)
    @pytest.mark.parametrize("medium, N, M, groups", STACK_CASES, ids=STACK_IDS)
    def test_stack_is_the_whitened_reference(self, medium, N, M, groups, k, derivative):
        med, disc = medium(), q.Discretization(N=N, M=M)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0).with_k(k)
        build = q.assemble_eps_derivative if derivative else q.assemble
        op = build(inc, med, disc)
        table = op.table
        G = filled_matrix(inc, med, op.space, derivative)
        want = whitened_formula(op.space, table.groups, G, table.K)
        got = op.stack
        assert got.shape == want.shape
        assert relative_error(got, want) <= 1e-13

    @pytest.mark.parametrize("k, derivative", OPERATOR_KINDS, ids=OPERATOR_KIND_IDS)
    @pytest.mark.parametrize("medium, N, M, groups", STACK_CASES, ids=STACK_IDS)
    def test_parity_decision_is_the_matrix_test(self, medium, N, M, groups, k, derivative):
        # the table decides once from k-independent pieces; the decision on
        # the filled operator, ||G - R G R||^2 / 4 <= tol^2 ||G||^2, agrees
        med, disc = medium(), q.Discretization(N=N, M=M)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0).with_k(k)
        space = q.FieldSpace(disc, 1.0)
        nm = len(space.modes)
        G = filled_matrix(inc, med, space, derivative).reshape(nm, M, nm, M)
        cross = np.linalg.norm(G - G[:, ::-1, :, ::-1]) ** 2 / 4
        split = M % 2 == 0 and cross <= q.helmholtz._SPLIT_TOL ** 2 * np.linalg.norm(G) ** 2
        table = q.helmholtz._medium_profiles(med, space)
        assert table.K == (2 if split else 1)

    @pytest.mark.parametrize("k, derivative", OPERATOR_KINDS, ids=OPERATOR_KIND_IDS)
    @pytest.mark.parametrize("medium, N, M, groups", STACK_CASES, ids=STACK_IDS)
    def test_matrix_free_actions_match_the_matrix(self, medium, N, M, groups, k,
                                                  derivative):
        med, disc = medium(), q.Discretization(N=N, M=M)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0).with_k(k)
        build = q.assemble_eps_derivative if derivative else q.assemble
        op = build(inc, med, disc)
        G = filled_matrix(inc, med, op.space, derivative)
        assert relative_error(dense(op), G) <= 1e-14
        rng = np.random.default_rng(23)
        shape = op.space.zeros().shape
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert relative_error(op.apply(u), (G @ u.ravel()).reshape(shape)) <= 1e-13
        assert relative_error(op.apply_adjoint(u),
                              (G.conj().T @ u.ravel()).reshape(shape)) <= 1e-13

    @pytest.mark.parametrize("medium, N, M, groups", STACK_CASES, ids=STACK_IDS)
    def test_warm_assembly_allocates_no_raw_matrix(self, monkeypatch, medium, N, M,
                                                   groups):
        # no allocation of a warm assembly is as large as its stack, apart
        # from the stack itself
        med, disc = medium(), q.Discretization(N=N, M=M)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        q.assemble(inc, med, disc)  # builds the coupling table
        builds = [lambda: q.assemble(inc.with_k(1.4), med, disc),
                  lambda: q.assemble(inc.with_k(1.3 + 0.05j), med, disc),
                  lambda: q.assemble_eps_derivative(inc, med, disc)]
        shapes, products = [], []
        zeros, empty, multiply = np.zeros, np.empty, np.multiply

        def recording(fn):
            def wrapped(shape, *args, **kwargs):
                shapes.append(shape)
                return fn(shape, *args, **kwargs)
            return wrapped

        def recording_multiply(*args, **kwargs):
            out = multiply(*args, **kwargs)
            products.append(np.shape(out))
            return out

        with monkeypatch.context() as m:
            m.setattr(np, "zeros", recording(zeros))
            m.setattr(np, "empty", recording(empty))
            m.setattr(np, "multiply", recording_multiply)
            ops = [build() for build in builds]
        stack = ops[0].stack
        # one allocation of the stack's size per assembly, the stack itself
        assert [np.prod(s) for s in shapes if np.prod(s) >= stack.size] == [stack.size] * 3
        # the coupling is written in chunks of at most 1/8 of the stack, one
        # product per live cell and chunk (none without a live cell)
        assert bool(products) == (ops[0].table.pair_pieces is not None)
        assert all(np.prod(s) <= stack.size / 8 for s in products)
        # and at its peak an assembly holds less than a second stack
        for build in builds:
            gc.collect()
            tracemalloc.start()
            try:
                op = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert op.stack.nbytes <= peak < 2 * op.stack.nbytes
        full = disc.unknowns ** 2
        # the stack holds unknowns^2 entries only when the layout does not
        # split (one group at K = 1)
        assert (stack.size < full) == (len(ops[0].groups) > 1 or ops[0].table.K == 2)
        assert all(op.dense is None and op.table is ops[0].table for op in ops)


def many_cell_medium(mirrored=False):
    """8 x 8 x 32 random cells, more depth cells than an M = 8 grid has nodes;
    `mirrored` averages the cells with their mirror images about x3 = 0."""
    v = 1.5 + 0.5 * np.random.default_rng(5).random((8, 8, 32))
    return q.MediumModel.sampled(0.5 * (v + v[:, :, ::-1]) if mirrored else v, 1.0)


def close(got, want, tol=1e-14):
    """||got - want|| <= tol ||want||, in Frobenius norm (both may be zero)."""
    return np.linalg.norm((got - want).ravel()) <= tol * np.linalg.norm(want.ravel())


class TestCellCoupling:
    """The table's coupling as sum_c Q_c (x) M_c over the medium's depth cells."""

    @pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE])
    @pytest.mark.parametrize("M", [12, 16, 17])
    @pytest.mark.parametrize("medium", [inclusion_medium, sampled_stack_medium,
                                        slab_stack_medium],
                             ids=["inclusion", "sampled_stack", "slab_stack"])
    def test_cell_sum_is_the_per_difference_mass(self, medium, M, scheme):
        med, N = medium(), 2
        space = q.FieldSpace(q.Discretization(N=N, M=M, depth_scheme=scheme), 1.0)
        table = q.helmholtz._medium_profiles(med, space)
        qhat = med.cell_coefficients(2 * N)
        qhat[:, 2 * N, 2 * N] -= 1.0
        want = reference_masses(med, space)
        for (d1, d2), C in want.items():
            got = np.tensordot(qhat[:, d1 + 2 * N, d2 + 2 * N], table.cell_masses, axes=1)
            assert close(got, C)
        assert close(table.c0, want[(0, 0)])
        # the coupling sum, both ways, against the dense sum of those masses
        nm = len(space.modes)
        dense_sum = np.zeros((nm, M, nm, M), dtype=complex)
        for i, n in enumerate(space.modes):
            for j, m in enumerate(space.modes):
                if i != j:
                    dense_sum[i, :, j] = want[(n[0] - m[0], n[1] - m[1])]
        dense_sum = dense_sum.reshape(space.size, -1)
        rng = np.random.default_rng(29)
        u = rng.standard_normal((nm, M)) + 1j * rng.standard_normal((nm, M))
        assert close(table.couple(u), (dense_sum @ u.ravel()).reshape(nm, M))
        assert close(table.couple(u, adjoint=True),
                     (dense_sum.conj().T @ u.ravel()).reshape(nm, M))

    @pytest.mark.parametrize("mirrored, K", [(False, 1), (True, 2)],
                             ids=["random", "mirrored"])
    def test_more_cells_than_nodes(self, mirrored, K):
        # FD at M = 8: each of the 32 cells takes its mass, though only eight
        # hold a node; groups, parity and the actions are the per-difference
        # operator's
        med = many_cell_medium(mirrored)
        disc = q.Discretization(N=1, M=8, depth_scheme=q.FINITE_DIFFERENCE)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        op = q.assemble(inc, med, disc)
        space, table = op.space, op.table
        assert len(table.cell_masses) == 32
        G = filled_matrix(inc, med, space)
        nm = len(space.modes)
        assert table.groups.tolist() == matrix_components(G, nm, 8) == [list(range(nm))]
        G4 = G.reshape(nm, 8, nm, 8)
        cross = np.linalg.norm(G4 - G4[:, ::-1, :, ::-1]) ** 2 / 4
        assert (cross <= q.helmholtz._SPLIT_TOL ** 2 * np.linalg.norm(G) ** 2) == (K == 2)
        assert op.stack.shape == (K, nm * 8 // K, nm * 8 // K)
        rng = np.random.default_rng(31)
        u = rng.standard_normal((nm, 8)) + 1j * rng.standard_normal((nm, 8))
        assert close(op.apply(u), (G @ u.ravel()).reshape(nm, 8))
        assert close(op.apply_adjoint(u), (G.conj().T @ u.ravel()).reshape(nm, 8))


class TestCouplingGroups:
    """The table's mode groups, decided once per (medium, space) and exact."""

    @pytest.mark.parametrize("medium, N, M, groups", GROUP_CASES, ids=GROUP_IDS)
    def test_groups_are_the_components_of_the_filled_operator(self, medium, N, M, groups):
        # equal components become the groups; unequal ones stay one group
        med, disc = medium(), q.Discretization(N=N, M=M)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        space = q.FieldSpace(disc, 1.0)
        table = q.helmholtz._medium_profiles(med, space)
        comps = matrix_components(filled_matrix(inc, med, space), len(space.modes), M)
        assert len(table.groups) == groups
        if len({len(c) for c in comps}) == 1:
            assert table.groups.tolist() == comps
        else:
            assert table.groups.tolist() == [list(range(len(space.modes)))]

    @pytest.mark.parametrize("live", [((0, 0), (1, 1), (-1, -1)), ((0, 0), (-1, -1))],
                             ids=["two_sided", "one_sided"])
    def test_unequal_components_stay_one_group(self, monkeypatch, live):
        # only these d live, exactly: nine diagonal components of 1 to 5 modes (a
        # one-sided coupling, as an absorbing medium may have, links both ways)
        med = diagonal_medium()
        coefficients = med.cell_coefficients

        def diagonal_only(order):
            coef = coefficients(order)
            kept = np.zeros_like(coef)
            for d1, d2 in live:
                kept[:, d1 + order, d2 + order] = coef[:, d1 + order, d2 + order]
            return kept

        monkeypatch.setattr(med, "cell_coefficients", diagonal_only)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        space = q.FieldSpace(q.Discretization(N=2, M=16), 1.0)
        comps = matrix_components(filled_matrix(inc, med, space), 25, 16)
        assert sorted(len(c) for c in comps) == [1, 1, 2, 2, 3, 3, 4, 4, 5]
        assert q.helmholtz._medium_profiles(med, space).groups.tolist() == [list(range(25))]

    def test_grating_of_one_x1_sample_is_its_constant_copy(self, tmp_path):
        # a 1 x 12 file varies in x2 only: an axis of one sample is constant
        # along it, so it is its 12 x 12 copy, constant in x1, and no alias
        x = 2 * np.pi * np.arange(12) / 12
        vals = 2.0 + 0.5 * np.cos(x)[None, :, None] * np.array([1.0, -0.4])
        data = []
        for n1 in (1, 12):
            path = tmp_path / f"grating-{n1}.dat"
            q.save_sampled_medium(path, vals.repeat(n1, axis=0), 1.0)
            med, disc = q.load_sampled_medium(path), q.Discretization(N=2, M=16)
            inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
            op = q.assemble(inc, med, disc)
            rd = q.rayleigh_data(q.solve(op, q.rhs(inc, disc)), inc)
            data.append((op.groups, rd))
        (g1, r1), (g12, r12) = data
        assert g1.shape == (5, 5) and np.array_equal(g1, g12)
        for side in ("u_plus", "u_minus"):
            got, want = (np.array(list(getattr(r, side).values())) for r in (r1, r12))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_groups_do_not_depend_on_k(self):
        med, disc = lamellar_medium(), q.Discretization(N=2, M=16)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        ops = [q.assemble(inc, med, disc),
               q.assemble(inc.with_k(2.1 + 0.3j), med, disc),
               q.assemble_eps_derivative(inc, med, disc)]
        assert all(op.groups is ops[0].groups for op in ops)


class TestStructuralInvariants:
    def test_reciprocity_of_symbols(self):
        # beta_n(alpha) = beta_{-n}(-alpha) at the symbol level
        al = np.array([0.21, -0.4])
        inc_p = q.IncidenceSpec.from_alpha(1.7, al, 1.0)
        inc_m = q.IncidenceSpec.from_alpha(1.7, -al, 1.0)
        for n in q.mode_range(3):
            assert q.beta(n, inc_p) == q.beta((-n[0], -n[1]), inc_m)

    def test_solution_satisfies_dtn_closure(self):
        # the weak radiation closure enforces v' = +-i beta v at the traces
        # (and the inhomogeneous variant at the driven order)
        inc, v, _ = solve_slab(2.0, 1.0, 0.3, 48, N=1)
        D = q.helmholtz._cheb_nodes_diff(v.space.M, v.space.h)[1]  # differentiation
        k, ct = 1.0, np.cos(0.3)
        for n in v.space.modes:
            prof = v.profile(n)
            b = q.beta(n, inc)
            top = (D @ prof)[-1] - 1j * b * prof[-1]
            bot = (D @ prof)[0] + 1j * b * prof[0]
            drive = -2j * k * ct * np.exp(-1j * k * ct) if n == (0, 0) else 0.0
            assert abs(top - drive) < 1e-7
            assert abs(bot) < 1e-7

    def test_whitened_conditioning_stays_moderate(self):
        # the weighted-metric normal form keeps singular values O(1) in M
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        conds = []
        for M in (16, 32, 64):
            op = q.assemble(inc, med, q.Discretization(N=1, M=M))
            smin, smax = op.singularity_report()
            conds.append(smax / smin)
        assert max(conds) < 1e4
        assert conds[2] < 10 * conds[0]

    def test_dense_and_block_paths_agree(self):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 1.0)
        disc = q.Discretization(N=1, M=12)
        med_b = q.MediumModel.homogeneous(2.0, 1.0)
        med_d = q.MediumModel.sampled(np.full((8, 8, 3), 2.0), 1.0)
        op_b = q.assemble(inc, med_b, disc)
        op_d = q.assemble(inc, med_d, disc)
        assert np.allclose(dense(op_b), dense(op_d), atol=1e-12)
        vb = q.solve(op_b, q.rhs(inc, disc))
        vd = q.solve(op_d, q.rhs(inc, disc))
        assert np.allclose(vb.values, vd.values, atol=1e-11)

    def test_transversely_varying_medium_energy_balance(self):
        # a true bi-periodic (coupled) lossless medium still balances
        n = 12
        x1 = 2 * np.pi * np.arange(n) / n
        vals = 2.0 + 0.5 * np.cos(x1)[:, None, None] * np.ones((1, n, 6))
        med = q.MediumModel.sampled(vals, 1.0)
        inc = q.IncidenceSpec.from_angles(1.2, 0.25, 0.0, 1.0)
        disc = q.Discretization(N=2, M=20)
        op = q.assemble(inc, med, disc)
        v = q.solve(op, q.rhs(inc, disc))
        rd = q.rayleigh_data(v, inc)
        assert rd.balance_residual < 1e-10
        # the cosine coupling scatters nonzero energy into the (+-1, 0) orders
        assert abs(rd.u_plus[(1, 0)]) > 1e-4


def complex_whitened(space, groups, row, K):
    """The whitened blocks of a raw operator given by its row slots `row`
    (`raw_rows`), by the complex formula F_n^T G_nm F_m mode pair by mode
    pair (`whitening_factor`), with every real factor cast to complex, in
    the layout of a stack of K depth classes."""
    M, n = space.M, space.M // K
    F = whitening_factor(space).astype(complex)
    nc, c = groups.shape
    out = np.empty((nc, K, c, n, c, n), dtype=complex)
    for r in range(c):
        rows = row(r)
        for i, g in enumerate(groups):
            for j in range(c):
                G = rows[i, :, j]
                for p in range(K):
                    sl = slice(p * n, (p + 1) * n)
                    out[i, p, r, :, j] = F[g[r], :, sl].T @ (G @ F[g[j], :, sl])
    return out.reshape(nc * K, c * n, c * n)


class TestRealFactors:
    """Products of the real whitening factors F with complex data, taken in real arithmetic (the whitening's stacked batches
    and `_real_matmul`), and the screen of real blocks."""

    @pytest.mark.parametrize("medium, N, M, groups, K", [
        case + (K,) for case in STACK_CASES for K in (1, 2) if K == 1 or case[2] % 2 == 0
    ], ids=[f"{i}_K{K}" for i, case in zip(STACK_IDS, STACK_CASES) for K in (1, 2)
            if K == 1 or case[2] % 2 == 0])
    def test_whitened_blocks_are_the_complex_formula(self, monkeypatch, medium, N, M,
                                                     groups, K):
        # the whitened coupling of the stack, real pieces per class pair times
        # complex coefficients in the layout forced to K depth classes,
        # against the complex formula on the raw operator: every slot off the
        # diagonal mode slots (none when every group is one mode), whose
        # combinations of per-class pieces test_pieces_build_the_whitened_operator
        # checks
        monkeypatch.setattr(q.helmholtz, "_mirror_symmetric", lambda *args: K == 2)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0).with_k(1.3 + 0.05j)
        op = q.assemble(inc, medium(), q.Discretization(N=N, M=M))
        sp = op.space
        assert op.table.K == K
        got = op.stack
        want = complex_whitened(sp, op.groups, raw_rows(op), K)
        assert got.shape == want.shape and len(got) == groups * K
        c, n = op.groups.shape[1], M // K
        off = ~np.eye(c, dtype=bool)[:, None, :, None].repeat(n, 1).repeat(n, 3)
        off = off.reshape(c * n, c * n)
        assert np.max(np.abs(got - want)[:, off], initial=0.0) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("medium, N, M, groups", STACK_CASES, ids=STACK_IDS)
    def test_maps_are_transposes(self, medium, N, M, groups):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        op = q.assemble(inc, medium(), q.Discretization(N=N, M=M))
        rng = np.random.default_rng(29)
        shape = op.space.zeros().shape
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z = rng.standard_normal(op.stack.shape[:2]) + 1j * rng.standard_normal(op.stack.shape[:2])
        lhs, rhs = np.sum(op.to(b) * z), np.sum(b * op.back(z))
        assert abs(lhs - rhs) <= 1e-14 * np.linalg.norm(op.to(b)) * np.linalg.norm(z)

    @pytest.mark.parametrize("medium", [homogeneous_medium, slab_stack_medium,
                                        inclusion_medium, coupled_medium],
                             ids=["homogeneous", "slab_stack", "inclusion", "coupled"])
    def test_solve_reads_any_memory_layout(self, medium):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        op = q.assemble(inc, medium(), q.Discretization(N=2, M=16))
        rng = np.random.default_rng(31)
        shape = op.space.zeros().shape
        big = rng.standard_normal((2 * shape[0], 3 * shape[1])) \
            + 1j * rng.standard_normal((2 * shape[0], 3 * shape[1]))
        strided = big[::2, 1::3]  # a slice of a larger array
        assert not strided.flags.c_contiguous and strided.strides[-1] != strided.itemsize
        loads = {"C": np.ascontiguousarray(strided), "F": np.asfortranarray(strided),
                 "strided": strided}
        fields = {name: q.solve(op, load).values for name, load in loads.items()}
        for name in ("F", "strided"):
            assert relative_error(fields[name], fields["C"]) <= 1e-14
        resid = op.apply(fields["strided"]) - strided
        assert np.linalg.norm(resid.ravel()) <= 1e-10 * np.linalg.norm(strided.ravel())

    @pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE])
    @pytest.mark.parametrize("medium", [homogeneous_medium, slab_stack_medium],
                             ids=["homogeneous", "slab_stack"])
    def test_real_blocks_are_screened_as_the_symmetric_blocks_they_are(self, medium,
                                                                        scheme):
        # at real k the evanescent modes of a lossless uniform medium give
        # real blocks; the screen takes them from their eigenvalues
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        op = q.assemble(inc, medium(), q.Discretization(N=2, M=16, depth_scheme=scheme))
        real = [not B.imag.any() for B in op.stack]
        assert 0 < sum(real) < len(real)
        for B in op.stack[real]:
            assert np.max(np.abs(B - B.T)) <= 1e-14 * np.max(np.abs(B))
        want = np.sort(np.linalg.svd(op.stack, compute_uv=False).ravel())[::-1]
        got = op.whitened_singular_values()
        assert np.max(np.abs(got - want)) <= 1e-14 * want[0]

    def test_real_matmul_is_the_complex_product_on_any_layout(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal((3, 6, 6))
        z = rng.standard_normal((3, 6, 12)) + 1j * rng.standard_normal((3, 6, 12))
        for x in (z[..., :6], z[..., ::2], np.asfortranarray(z[..., :6]),
                  z[..., :6].swapaxes(1, 2), z[..., :1], z[..., 0][..., None]):
            want = a.astype(complex) @ x
            got = q.helmholtz._real_matmul(a, x)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
