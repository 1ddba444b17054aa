"""Kernel detection, evanescence, adjoint coincidence, mode lifting."""
import dataclasses

import numpy as np
import pytest

import qpscat as q
from qpscat.modes import _canonical_phase
from test_helmholtz import inclusion_medium, recorded_shapes

K_EX = np.pi / (2 * np.sqrt(2))
ALPHA_EX = (1 - np.pi * np.sqrt(3) / 4, 0.0)
MODE_RADIUS = np.pi * np.sqrt(3) / 4


@pytest.fixture(scope="module")
def guided():
    inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
    med = q.MediumModel.homogeneous(2.0, 1.0)
    disc = q.Discretization(N=2, M=32)
    op = q.assemble(inc, med, disc)
    basis = q.kernel(op)
    return inc, med, disc, op, basis


class TestKernel:
    def test_dimension_one_in_resonant_block(self, guided):
        inc, med, disc, op, basis = guided
        assert basis.dimension == 1
        v = basis.vectors[0]
        i_res = op.space.mode_index[(-1, 0)]
        for i, n in enumerate(op.space.modes):
            if i != i_res:
                assert np.all(v[i] == 0.0)
        assert np.max(np.abs(v[i_res])) > 0

    def test_gram_identity(self, guided):
        *_, basis = guided
        g = basis.gram()
        assert np.max(np.abs(g - np.eye(basis.dimension))) < 1e-10

    def test_transparent_layer_trivial_kernel(self):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(1.0, 1.0)
        op = q.assemble(inc, med, q.Discretization(N=2, M=24))
        assert q.kernel(op).dimension == 0

    def test_low_index_slab_no_kernel_sweep(self):
        # q0 < 1 slabs support no guided modes at any tested (k, alpha)
        rng = np.random.default_rng(21)
        med = q.MediumModel.homogeneous(0.5, 1.0)
        disc = q.Discretization(N=2, M=16)
        tried = 0
        while tried < 5:
            k = rng.uniform(0.3, 1.4)
            al = rng.uniform(-0.5, 0.5, 2)
            inc = q.IncidenceSpec.from_alpha(k, al, 1.0)
            try:
                op = q.assemble(inc, med, disc)
            except q.CutoffViolation:
                continue
            assert q.kernel(op).dimension == 0
            tried += 1

    def test_modulation_detunes_resonance_dense_path(self):
        # a transverse index modulation shifts the propagative wave vector:
        # at the slab's resonant alpha the (dense-path) kernel must vanish,
        # with the smallest singular value far above the detection threshold
        n1 = 16
        x1 = 2 * np.pi * np.arange(n1) / n1
        vals = 2.0 + 0.3 * np.cos(x1)[:, None, None] * np.ones((1, n1, 6))
        med = q.MediumModel.sampled(vals, 1.0)
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        op = q.assemble(inc, med, q.Discretization(N=2, M=20))
        assert not op.block_diagonal
        smin, smax = op.singularity_report()
        assert smin > 1e-4 * smax
        assert q.kernel(op).dimension == 0

    def test_dimension_stable_under_resolution_doubling(self):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        dims = []
        for M in (24, 48):
            op = q.assemble(inc, med, q.Discretization(N=2, M=M))
            dims.append(q.kernel(op).dimension)
        assert dims[0] == dims[1] == 1

    def test_fd_resolution_cannot_certify_kernel(self):
        # the second-order depth scheme leaves the resonant operator with a
        # relative smallest singular value ~1e-5 (its discretization error),
        # far above both the detection threshold and the ambiguity window:
        # the scenario reads as regular, without ThresholdAmbiguity
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        op = q.assemble(inc, med, q.Discretization(
            N=2, M=48, depth_scheme=q.FINITE_DIFFERENCE))
        smin, smax = op.singularity_report()
        assert smin / smax > 1e-7
        assert q.kernel(op).dimension == 0

    def test_riesz_gap(self, guided):
        # regular singular values sit far above the retained kernel ones
        *_, op, basis = guided
        svals = op.whitened_singular_values()
        kernel_sigma = max(basis.singular_values)
        next_sigma = min(s for s in svals if s > 10 * kernel_sigma)
        assert next_sigma > 1e3 * kernel_sigma

    def test_threshold_ambiguity_raised(self, guided):
        *_, op, basis = guided
        svals = op.whitened_singular_values()
        # place the threshold right at a mid-spectrum singular value
        mid = svals[len(svals) // 2] / basis.sigma_max
        with pytest.raises(q.ThresholdAmbiguity):
            q.kernel(op, svd_threshold=mid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-8, 1.0])
    def test_rejects_threshold_outside_unit_interval(self, guided, bad):
        *_, op, _ = guided
        with pytest.raises(ValueError, match="svd_threshold"):
            q.kernel(op, svd_threshold=bad)

    def test_orthogonal_splitting(self, guided):
        # kernel vectors are weighted-orthogonal to the operator range
        *_, op, basis = guided
        rng = np.random.default_rng(3)
        sp = op.space
        _, smax = op.singularity_report()
        v = basis.vectors[0]
        for _ in range(5):
            w = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
            val = abs(np.vdot(v.ravel(), op.apply(w).ravel()))
            assert val <= 1e-7 * smax * sp.norm(w)


def guided_sampled(M=16):
    """The guided scenario on a dense (sampled, z-invariant) q = 2 medium, N = 1."""
    inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
    disc = q.Discretization(N=1, M=M)
    return q.assemble(inc, q.MediumModel.sampled(np.full((8, 8, 1), 2.0), 1.0), disc)


class TestKernelBlocks:
    """The kernel from the whitened diagonal blocks, with a canonical phase."""

    def test_split_operator_takes_one_half_size_svd(self, monkeypatch):
        # a coupled medium mirror-symmetric in depth: its two parity halves
        coupled = q.assemble(q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0),
                             inclusion_medium(), q.Discretization(N=1, M=16))
        with monkeypatch.context() as m:
            shapes = recorded_shapes(m, "svd")
            basis = q.kernel(coupled)
        n = coupled.space.size
        assert shapes == [(2, n // 2, n // 2)]
        assert basis.dimension == 0
        full = np.linalg.svd(coupled.whitened(), compute_uv=False)
        assert basis.sigma_max == pytest.approx(full[0], rel=1e-13)
        # the constant medium: every mode is its own component, so the SVD
        # runs on 2 (2N+1)^2 parity blocks of M/2
        op = guided_sampled()
        with monkeypatch.context() as m:
            shapes = recorded_shapes(m, "svd")
            basis = q.kernel(op)
        assert shapes == [(18, 8, 8)]
        assert basis.dimension == 1
        # the null vector of the full whitened matrix, in the same phase
        _, s, Vh = np.linalg.svd(op.whitened())
        assert s[-1] < 1e-8 * s[0] < s[-2]
        full = _canonical_phase(op.space.unwhiten(
            np.conj(Vh[-1]).reshape(basis.vectors[0].shape)))
        v = basis.vectors[0]
        assert np.linalg.norm((v - full).ravel()) <= 1e-10 * np.linalg.norm(full.ravel())
        assert basis.singular_values[0] == pytest.approx(s[-1], abs=1e-15 * s[0])
        assert basis.sigma_max == pytest.approx(s[0], rel=1e-13)

    def test_block_diagonal_operator_takes_one_batched_svd(self, monkeypatch, guided):
        # the homogeneous layer is mirror-symmetric in depth: its stack holds
        # the 2 (2N+1)^2 parity halves of M/2 of its mode blocks
        *_, op, _ = guided
        with monkeypatch.context() as m:
            shapes = recorded_shapes(m, "svd")
            basis = q.kernel(op)
        nm, M = op.diagonal.shape[:2]
        assert shapes == [op.stack.shape] == [(2 * nm, M // 2, M // 2)]
        # the null vector of the resonant block alone, in the same phase
        i = op.space.mode_index[(-1, 0)]
        _, s, Vh = np.linalg.svd(op.whitened().reshape(nm, M, nm, M)[i, :, i])
        y = op.space.zeros()
        y[i] = np.conj(Vh[-1])
        ref = _canonical_phase(op.space.unwhiten(y))
        assert np.max(np.abs(basis.vectors[0] - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("M", [16, 15])
    def test_tails_are_fixed_by_the_phase_rule(self, M):
        # the (-1,0) mode is even in depth: equal, real, positive tails
        basis = q.kernel(guided_sampled(M))
        v = basis.vectors[0][basis.space.mode_index[(-1, 0)]]
        tp, tm = v[-1], v[0]
        assert tp.real > 0 and tm.real > 0
        assert abs(tp.imag) <= 1e-14 * abs(tp) and abs(tp - tm) <= 1e-12 * abs(tp)


class TestKernelBasis:
    """The basis as one (dimension, n_modes, M) array, and its contractions."""

    @staticmethod
    def fields(sp, m, seed=5):
        rng = np.random.default_rng(seed)
        shape = (m, len(sp.modes), sp.M)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("make", [list, np.array], ids=["list", "array"])
    def test_built_from_fields(self, guided, make):
        inc, _, _, op, _ = guided
        vs = self.fields(op.space, 2)
        basis = q.KernelBasis(vectors=make(list(vs)), singular_values=[0.0, 0.0],
                              sigma_max=1.0, space=op.space, inc=inc)
        assert isinstance(basis.vectors, np.ndarray) and basis.vectors.dtype == complex
        assert basis.vectors.shape == vs.shape and basis.dimension == 2
        assert np.array_equal(basis.vectors, vs)
        # each contraction against the weighted product, vector by vector
        sp = op.space
        u = self.fields(sp, 1, seed=6)[0]
        gram = np.array([[sp.inner(a, b) for b in vs] for a in vs])
        coeffs = np.array([sp.inner(u, v) for v in vs])
        assert np.max(np.abs(basis.gram() - gram)) <= 1e-14 * np.max(np.abs(gram))
        assert np.max(np.abs(basis.coefficients(u) - coeffs)) \
            <= 1e-14 * np.max(np.abs(coeffs))
        want = coeffs[0] * vs[0] + coeffs[1] * vs[1]
        assert np.max(np.abs(basis.project(u) - want)) <= 1e-14 * np.max(np.abs(want))

    def test_built_from_no_fields(self, guided):
        inc, _, _, op, _ = guided
        basis = q.KernelBasis(vectors=[], singular_values=[], sigma_max=1.0,
                              space=op.space, inc=inc)
        nm, M = len(op.space.modes), op.space.M
        assert basis.vectors.shape == (0, nm, M) and basis.dimension == 0
        assert basis.gram().shape == (0, 0)
        u = self.fields(op.space, 1)[0]
        assert basis.coefficients(u).shape == (0,)
        assert np.array_equal(basis.project(u), np.zeros((nm, M)))
        assert q.verify_evanescent(basis).per_vector == ()

    def test_refuses_complex_k_and_a_space_at_another_h(self, guided):
        *_, disc, _, basis = guided
        with pytest.raises(ValueError, match="needs real k"):
            dataclasses.replace(basis, inc=basis.inc.with_k(K_EX + 1e-3j))
        with pytest.raises(ValueError, match="needs real k"):
            dataclasses.replace(basis, space=disc.space(0.5))

    @pytest.mark.parametrize("build", ["guided", "sampled"])
    def test_computed_kernel_is_orthonormal(self, guided, build):
        basis = guided[-1] if build == "guided" else q.kernel(guided_sampled())
        assert isinstance(basis.vectors, np.ndarray) and basis.dimension == 1
        g = basis.gram()
        assert np.max(np.abs(g - np.eye(basis.dimension))) <= 1e-12


class TestCanonicalPhase:
    @pytest.mark.parametrize("parity", [1.0, -1.0])
    def test_invariant_under_a_unit_phase(self, parity):
        rng = np.random.default_rng(11)
        M = 16
        v = rng.standard_normal((9, M)) + 1j * rng.standard_normal((9, M))
        # profiles even (+1) or odd (-1) in depth, whose largest entries sit
        # at mirror nodes j and M-1-j and tie in modulus up to one ulp, as in
        # a computed kernel vector; in the odd case, breaking that tie by the
        # larger modulus would flip the sign with the round-off of the phase
        v[:, M // 2:] = parity * v[:, M // 2 - 1::-1]
        v[4, 3], v[4, M - 4] = 10.0, parity * 10.0 * (1 + np.finfo(float).eps)
        ref = _canonical_phase(v)
        a = np.abs(ref.ravel())
        lead = ref.ravel()[np.flatnonzero(a >= (1 - 1e-8) * a.max())[0]]
        assert lead.real > 0 and abs(lead.imag) <= 1e-15 * lead.real
        for theta in rng.uniform(0, 2 * np.pi, 32):
            got = _canonical_phase(np.exp(1j * theta) * v)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestVerifyEvanescent:
    def test_guided_kernel_passes(self, guided):
        *_, basis = guided
        rep = q.verify_evanescent(basis)
        assert rep.passed
        assert rep.max_propagating_coeff <= 1e-8

    def test_empty_basis_passes(self):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(1.0, 1.0)
        op = q.assemble(inc, med, q.Discretization(N=2, M=16))
        basis = q.kernel(op)
        rep = q.verify_evanescent(basis)
        assert rep.passed and rep.max_propagating_coeff == 0.0

    def test_negative_control_flags_solve_output(self):
        # a scattering solution carries propagating content and must be flagged
        inc = q.IncidenceSpec.from_angles(1.3, 0.2, 0.0, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        disc = q.Discretization(N=1, M=20)
        op = q.assemble(inc, med, disc)
        v = q.solve(op, q.rhs(inc, disc))
        fake = q.KernelBasis(vectors=[v.values], singular_values=[0.0], sigma_max=1.0,
                             space=op.space, inc=inc)
        rep = q.verify_evanescent(fake)
        assert not rep.passed


class TestAdjointKernel:
    def test_guided_kernel_small(self, guided):
        *_, op, basis = guided
        assert q.adjoint_kernel_check(op, basis) <= 1e-7

    def test_random_vector_control(self, guided):
        *_, op, basis = guided
        rng = np.random.default_rng(8)
        w = rng.standard_normal(basis.vectors[0].shape) \
            + 1j * rng.standard_normal(basis.vectors[0].shape)
        w /= op.space.norm(w)
        fake = q.KernelBasis(vectors=[w], singular_values=[0.0], sigma_max=1.0,
                             space=op.space, inc=op.inc)
        assert q.adjoint_kernel_check(op, fake) > 1e-3

    @pytest.mark.parametrize("M", [16, 15])
    def test_dense_operator_checked_on_its_stack(self, monkeypatch, M):
        # M = 16 splits by depth parity: the check reads the two halves and
        # never builds the full whitened matrix; M = 15 is the stack of one
        op = guided_sampled(M)
        basis = q.kernel(op)
        if M == 16:
            def no_full_matrix(self):
                raise AssertionError("full whitened matrix built")
            monkeypatch.setattr(q.DiscreteOperator, "whitened", no_full_matrix)
        assert q.adjoint_kernel_check(op, basis) <= 1e-7
        rng = np.random.default_rng(8)
        w = rng.standard_normal(basis.vectors[0].shape) \
            + 1j * rng.standard_normal(basis.vectors[0].shape)
        w /= op.space.norm(w)
        fake = q.KernelBasis(vectors=[w], singular_values=[0.0], sigma_max=1.0,
                             space=op.space, inc=op.inc)
        assert q.adjoint_kernel_check(op, fake) > 1e-3

    def test_basis_of_another_operator_is_refused(self, guided, monkeypatch):
        inc, med, disc, op, basis = guided
        others = [q.assemble(inc.with_k(1.01 * K_EX), med, disc),
                  q.assemble(inc, med, q.Discretization(N=1, M=32)),
                  q.assemble(dataclasses.replace(inc, h=0.5),
                             q.MediumModel.homogeneous(2.0, 0.5), disc)]
        equal = q.assemble(q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0), med,
                           q.Discretization(N=2, M=32))
        assert q.adjoint_kernel_check(equal, basis) <= 1e-7

        def no_product(*args):
            raise AssertionError("multiplied before checking the basis")

        monkeypatch.setattr(q.modes, "_real_matmul", no_product)
        for other in others:
            with pytest.raises(ValueError, match="is not of the operator"):
                q.adjoint_kernel_check(other, basis)

    def test_empty_basis(self):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(1.0, 1.0)
        op = q.assemble(inc, med, q.Discretization(N=2, M=16))
        assert q.adjoint_kernel_check(op, q.kernel(op)) == 0.0


class TestModeLift:
    def test_matches_closed_form_up_to_scalar(self, guided):
        inc, med, disc, op, basis = guided
        [mode] = q.mode_lift(basis)
        grid = op.space.grid
        prof = mode.field.profile((-1, 0))
        exact = np.cos(np.pi * grid.nodes / 4).astype(complex)
        c = (np.conj(exact) @ (grid.mass @ prof)) / \
            (np.conj(exact) @ (grid.mass @ exact))
        rel = np.sqrt(abs(np.conj(prof - c * exact) @ (grid.mass @ (prof - c * exact)))
                      / abs(np.conj(c * exact) @ (grid.mass @ (c * exact))))
        assert rel < 1e-10

    def test_point_evaluation_against_analytic_mode(self, guided):
        *_, basis = guided
        [mode] = q.mode_lift(basis)
        a_mode = np.array([ALPHA_EX[0] - 1.0, 0.0])
        # fix the scalar at one interior point, predict everywhere else
        ref = np.array([0.0, 0.0, 0.0])
        c = mode(ref) / np.cos(0.0)
        rng = np.random.default_rng(2)
        for _ in range(8):
            xt = rng.uniform(0, 2 * np.pi, 2)
            x3 = rng.uniform(-2.5, 2.5)
            g = np.pi / 4
            if abs(x3) <= 1.0:
                prof = np.cos(g * x3)
            else:
                prof = np.cos(g) * np.exp(-g * (abs(x3) - 1.0))
            expected = c * prof * np.exp(1j * (a_mode @ xt))
            assert mode((xt[0], xt[1], x3)) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("x", [(0.0, 0.0), (0.0, 0.0, 0.5, 1.0)])
    def test_rejects_points_that_are_not_3_vectors(self, guided, x):
        *_, basis = guided
        [mode] = q.mode_lift(basis)
        with pytest.raises(ValueError, match="3-vector"):
            mode(x)

    def test_interior_collocation_residual(self, guided):
        # Delta phi + k^2 q phi = 0 at the interior depth nodes, mode by mode:
        # v_n'' + (beta_n^2 + k^2 (q0 - 1)) v_n, by the grid's differentiation
        inc, *_, basis = guided
        [v] = basis.vectors
        g = basis.space.grid
        pot = K_EX ** 2 * (2.0 - 1.0)
        scale = np.max(np.abs(v))
        for n, prof in zip(basis.space.modes, v):
            b = q.beta(n, inc)
            res = g.diff @ (g.diff @ prof) + (b * b + pot) * prof
            assert np.max(np.abs(res[1:-1])) < 1e-8 * scale

    def test_empty_basis_empty_list(self):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(1.0, 1.0)
        op = q.assemble(inc, med, q.Discretization(N=2, M=16))
        assert q.mode_lift(q.kernel(op)) == []
