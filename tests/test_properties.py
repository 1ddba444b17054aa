"""Property-based contracts, drawn by hypothesis.

Every property runs derandomized, on a bounded number of examples, so the
suite sees the same draws on every run.
"""
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qpscat as q
from qpscat.helmholtz import _field_value

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def incidences(draw):
    """Angle-derived and alpha-derived incidences at real k, and either at complex k."""
    kind = draw(st.sampled_from(["angles", "alpha", "complex k"]))
    k = draw(st.floats(0.3, 3.0))
    h = draw(st.floats(0.2, 2.0))
    if kind == "complex k":
        k = complex(k, draw(st.floats(0.0, 0.5)))
    if kind == "alpha" or (kind == "complex k" and draw(st.booleans())):
        alpha = draw(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
        return q.IncidenceSpec.from_alpha(k, alpha, h)
    return q.IncidenceSpec.from_angles(k, draw(st.floats(-1.4, 1.4)),
                                       draw(st.floats(0.0, 2 * np.pi)), h)


@st.composite
def fields(draw):
    """A field of random values on a space of N in {0, 1, 2}, even or odd M, either scheme."""
    inc = draw(incidences())
    disc = q.Discretization(N=draw(st.integers(0, 2)), M=draw(st.integers(8, 17)),
                            depth_scheme=draw(st.sampled_from([q.CHEBYSHEV,
                                                               q.FINITE_DIFFERENCE])))
    space = disc.space(inc.h)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (len(space.modes), space.M)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values *= 10.0 ** rng.uniform(-3, 3, shape)
    return q.FieldCoefficients(space=space, inc=inc, values=values)


@FIXED
@given(fields(), st.sampled_from([1.0, -1.0]), st.booleans(),
       st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)))
def test_field_is_continuous_across_the_layer_boundary(v, side, incident, xt):
    # x3 = +-h is read off the interpolated profiles, the next double outward
    # off the Rayleigh series: the two branches meet at the end nodes
    inc = v.inc
    x3 = side * inc.h
    inside = _field_value(v, (*xt, x3), incident)
    outside = _field_value(v, (*xt, np.nextafter(x3, side * np.inf)), incident)
    scale = np.abs(v.values[:, -1 if side > 0 else 0]).sum()
    if incident and side > 0:  # the trace taken out of the (0, 0) tail, and the wave
        scale += 2 * abs(np.exp(-1j * inc.k * inc.h * inc.cos_theta1))
    assert abs(inside - outside) <= 1e-13 * scale


#: a medium input: finite, huge, tiny, NaN or inf
NUMBERS = st.one_of(st.floats(0.5, 4.0), st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([0.0, 5e-324, 1e-300, 1e-6, 1e300, 1.7e308,
                                     np.nan, np.inf, -np.inf]))


@st.composite
def medium_inputs(draw):
    """(constructor name, arguments) of a medium: `homogeneous`, `slab_stack`
    with layers in any order (zero-width ones too), `sampled` with n3 from 1
    to 64, or `load_sampled_medium` of such a grid written to a file."""
    kind = draw(st.sampled_from(["homogeneous", "slab_stack", "sampled", "file"]))
    h = draw(st.one_of(st.floats(0.2, 2.0), NUMBERS))
    q0 = complex(draw(st.one_of(st.floats(1.0, 4.0), NUMBERS)),
                 draw(st.one_of(st.just(0.0), NUMBERS)))
    if kind == "homogeneous":
        return kind, (q0, h)
    if kind == "slab_stack":
        cuts = draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 0.0, 1.0])),
                             max_size=4))
        bounds = [-h] + sorted(h * c for c in cuts) + [h]
        if draw(st.integers(0, 3)) == 0:
            bounds[draw(st.integers(0, len(bounds) - 1))] = draw(NUMBERS)
        layers = [(a, b, q0 + i) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
        return kind, (draw(st.permutations(layers)), h)
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = q0.real + rng.random(shape)
    if draw(st.booleans()):
        values.flat[rng.integers(values.size)] = draw(NUMBERS)
    return kind, (values, h)


def build(kind, args, workdir):
    if kind == "file":
        path = os.path.join(workdir, "medium.dat")
        q.save_sampled_medium(path, *args)
        return q.load_sampled_medium(path)
    return getattr(q.MediumModel, kind)(*args)


@FIXED
@given(medium_inputs(), st.sampled_from([q.CHEBYSHEV, q.FINITE_DIFFERENCE]),
       st.integers(8, 33))
@example(("homogeneous", (1 + 0j, 1e-300)), q.CHEBYSHEV, 33)  # once an overflow warning
@example(("slab_stack", ([(-1.0, 0.2, 2), (0.2, 0.2, 3), (0.2, 1.0, 4)], 1.0)),
         q.FINITE_DIFFERENCE, 8)  # a zero-width layer
def test_media_have_ascending_breaks_and_cell_masses_that_sum_to_the_mass(inputs, scheme, M):
    # every constructor returns or refuses with ValueError or QpscatError, and
    # no numpy warning escapes; a medium's cells tile [-h, h], so their exact
    # masses sum to the grid's mass
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as workdir:
        warnings.simplefilter("error")
        try:
            med = build(*inputs, workdir)
        except (ValueError, q.QpscatError):
            return
        z = med.breaks
        assert z[0] == -med.h and z[-1] == med.h and np.all(z[1:] > z[:-1])
        try:  # a depth grid that overflows at this h is refused
            grid = q.FieldSpace(q.Discretization(N=0, M=M, depth_scheme=scheme), med.h).grid
        except q.QpscatError:
            return
        total = grid.cell_masses(z).sum(axis=0)
        assert np.max(np.abs(total - grid.mass)) <= 1e-13 * np.max(np.abs(grid.mass))


#: a q value: lossless or absorbing, or one time in four NUMBERS on either
#: part, negative real and imaginary parts too
VALID_Q = st.builds(complex, st.floats(1.0, 4.0), st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
Q_VALUES = st.one_of(VALID_Q, VALID_Q, VALID_Q,
                     st.builds(complex, st.one_of(NUMBERS, st.floats(-4.0, 4.0)),
                               st.one_of(st.just(0.0), NUMBERS, st.floats(-1.0, 1.0))))


@st.composite
def constructor_inputs(draw):
    """(constructor name, arguments): `slab_stack` with drawn h, q and layer
    bounds, zero-width, gapped, overlapping or non-finite ones included; or
    `sampled` with 0 to 3 cells per axis of a numeric or non-numeric dtype."""
    h = draw(st.floats(0.2, 2.0) if draw(st.integers(0, 3)) else
             st.one_of(NUMBERS, st.floats(-2.0, 0.0)))
    if draw(st.booleans()):
        cuts = draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 0.0, 1.0])),
                             max_size=4))
        bounds = [-1.0] + sorted(cuts) + [1.0]
        layers = [[h * a, h * b, draw(Q_VALUES)] for a, b in zip(bounds, bounds[1:])]
        if draw(st.integers(0, 3)) == 0:  # a gap, an overlap or any number at one bound
            layer = draw(st.sampled_from(layers))
            layer[draw(st.integers(0, 1))] = draw(st.one_of(NUMBERS, st.floats(-2.0, 2.0)))
        return "slab_stack", (draw(st.permutations([tuple(x) for x in layers])), h)
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=3, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = (draw(Q_VALUES) + rng.random(shape)).astype(complex)
    if values.size and draw(st.booleans()):
        values.flat[rng.integers(values.size)] = draw(Q_VALUES)
    dtype = draw(st.sampled_from(["complex", "float", "int", "float32", "bool", "str",
                                  "object"]))
    with warnings.catch_warnings():  # the drawn cast itself may overflow or drop Im q
        warnings.simplefilter("ignore")
        values = values if dtype == "complex" else values.real.astype(dtype)
    return "sampled", (values, h)


@FIXED
@given(constructor_inputs())
@example(("sampled", (np.zeros((0, 4, 2)), 1.0)))  # once numpy's empty reduction error
@example(("sampled", (np.array([[["a"]]]), 1.0)))  # once numpy's UFuncTypeError
def test_medium_constructors_return_a_checked_medium_or_raise_value_error(inputs):
    # a medium that is returned holds finite values with Re q >= 1e-6 and
    # Im q >= 0 on at least one cell per axis, read-only, between
    # ascending breaks from -h to h; any other input raises ValueError,
    # and no numpy warning escapes
    name, args = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            med = getattr(q.MediumModel, name)(*args)
        except ValueError:
            return
    v, z = med.values, med.breaks
    assert v.ndim == 3 and min(v.shape) >= 1 and not v.flags.writeable
    assert np.all(np.isfinite(v)) and v.real.min() >= 1e-6 and v.imag.min() >= 0
    assert z.shape == (v.shape[2] + 1,) and not z.flags.writeable
    assert z[0] == -med.h and z[-1] == med.h and np.all(z[1:] > z[:-1])
    if name == "slab_stack":
        assert v.shape[:2] == (1, 1) and med.transversely_uniform


@st.composite
def reciprocity_cases(draw):
    """A drawn sampled medium (n1, n2 <= 12, n3 <= 3), lossless or absorbing,
    fine enough for its N in {1, 2}, and an incidence alpha."""
    N = draw(st.integers(1, 2))
    need = 2 * (2 * N + 1)
    shape = (draw(st.integers(need, 12)), draw(st.integers(need, 12)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = 1.5 + rng.random(shape)
    if draw(st.booleans()):
        values = values + 0.3j * rng.random(shape)
    alpha = draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
    return q.MediumModel.sampled(values, 1.0), N, alpha


def stack_matrix(op):
    """The whitened operator read off its stack, as a dense (mode, node) matrix
    in F coordinates: each block put back in its group's modes and depth
    class (a column block of F)."""
    sp, table = op.space, op.table
    nm, M, K = len(sp.modes), sp.M, table.K
    n = M // K
    nc, c = table.groups.shape
    blocks = op.stack.reshape(nc, K, c, n, c, n)
    T = np.zeros((nm, K, n, nm, K, n), dtype=complex)
    for g, modes in enumerate(table.groups):
        for p in range(K):
            T[modes[:, None], p, :, modes[None, :], p, :] = blocks[g, p].swapaxes(1, 2)
    return T.reshape(sp.size, sp.size)


@pytest.mark.parametrize("kind", ["A", "A_complex_k", "dA"])
@pytest.mark.parametrize("odd", [False, True], ids=["even_M", "odd_M"])
@pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE], ids=["chebyshev", "fd"])
@settings(FIXED, max_examples=8)
@given(case=reciprocity_cases(), M=st.integers(4, 8), k=st.floats(0.5, 2.5),
       damping=st.floats(0.01, 0.5), seed=st.integers(0, 2 ** 32 - 1))
def test_coupled_operators_are_reciprocal(scheme, odd, kind, case, M, k, damping, seed):
    # A(alpha)^T = Pi A(-alpha) Pi, Pi: n -> -n, for A at real and complex k
    # and for A'(0): the q term is -k^2 qhat_{n-m} M_c, symmetric in depth,
    # and beta_n(alpha) = beta_{-n}(-alpha); F_n depends on |n|^2 only, so
    # the identity holds for the whitened operator F^T A F.
    # A(alpha) is read off its stack, A(-alpha) off its stack and off its
    # matrix-free action (`whitened()`); a stack whose coupling were written
    # with qhat_{m-n} would be the mirrored medium's and fail the second.
    # The matrix-free actions keep it too: A(alpha)^T u is the conjugate of
    # `apply_adjoint` on conj(u)
    med, N, alpha = case
    disc = q.Discretization(N=N, M=2 * M + odd, depth_scheme=scheme)
    build = q.assemble_eps_derivative if kind == "dA" else q.assemble
    if kind == "A_complex_k":
        k = complex(k, damping)
    try:
        ops = [build(q.IncidenceSpec.from_alpha(k, a, 1.0), med, disc)
               for a in (alpha, (-alpha[0], -alpha[1]))]
    except q.CutoffViolation:  # a grazing order at real k
        return
    sp = ops[0].space
    mirror = np.array([sp.mode_index[(-n1, -n2)] for n1, n2 in sp.modes])
    Pi = np.arange(sp.size).reshape(len(sp.modes), sp.M)[mirror].ravel()
    got = stack_matrix(ops[0]).T
    scale = np.max(np.abs(got))
    for other in (stack_matrix(ops[1]), ops[1].whitened()):
        assert np.max(np.abs(got - other[Pi][:, Pi])) <= 1e-12 * scale
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(sp.size) + 1j * rng.standard_normal(sp.size)
    shape = (len(sp.modes), sp.M)
    got = np.conj(ops[0].apply_adjoint(np.conj(u).reshape(shape))).ravel()
    want = np.empty_like(u)
    want[Pi] = ops[1].apply(u[Pi].reshape(shape)).ravel()
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def factor_cases(draw):
    """A discretization of either scheme, N <= 2 and M from 8 to 40 (even and
    odd), and a half-height h log-uniform in [1e-2, 1e2]."""
    disc = q.Discretization(N=draw(st.integers(0, 2)), M=draw(st.integers(8, 40)),
                            depth_scheme=draw(st.sampled_from([q.CHEBYSHEV,
                                                               q.FINITE_DIFFERENCE])))
    return disc, 10.0 ** draw(st.floats(-2.0, 2.0))


@FIXED
@given(case=factor_cases())
def test_whitening_factor_is_as_orthonormal_as_the_symmetric_root(case):
    # F_n^T W_n F_n = I to within twice the residual of the symmetric
    # W_n^{-1/2} from an eigh of W_n: the parity blocks of even M, whose
    # cross parts are dropped, cost no accuracy
    disc, h = case
    space = q.FieldSpace(disc, h)
    lam, U = np.linalg.eigh(space.W)
    root = (U / np.sqrt(lam)[:, None]) @ U.swapaxes(1, 2)

    def residual(F):
        R = F.swapaxes(1, 2) @ space.W @ F - np.eye(space.M)
        return np.max(np.linalg.norm(R, axis=(1, 2)))
    assert residual(space.F) <= 2 * residual(root)


@settings(FIXED, max_examples=30)
@given(case=factor_cases(), kh=st.floats(0.5, 2.0), coupled=st.booleans(),
       lossy=st.booleans())
def test_forced_layouts_give_one_operator(case, kh, coupled, lossy):
    # one mirror-symmetric medium, its whitened stack forced to one depth
    # class (K = 1) and, at even M, to two: orthogonally similar operators,
    # with the same singular values and the same solution.  The medium is a
    # symmetric three-layer stack, or a z-invariant grating along x1 (mode
    # groups of 2N + 1 modes)
    disc, h = case
    q1 = 3.2 + 0.4j if lossy else 3.2
    if coupled:
        x = 2 * np.pi * np.arange(10) / 10
        med = q.MediumModel.sampled((2.0 + 0.5 * np.cos(x) + (q1 - 3.2))[:, None, None], h)
    else:
        med = q.MediumModel.slab_stack([(-h, -h / 3, 2.0), (-h / 3, h / 3, q1),
                                        (h / 3, h, 2.0)], h)
    inc = q.IncidenceSpec.from_angles(kh / h, 0.3, 0.7, h)
    svals, fields = [], []
    for K in (1, 2):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(q.helmholtz, "_mirror_symmetric", lambda *args, K=K: K == 2)
            fresh = q.Discretization(N=disc.N, M=disc.M, depth_scheme=disc.depth_scheme)
            try:
                op = q.assemble(inc, med, fresh)
            except q.CutoffViolation:  # a grazing order
                return
            assert op.table.K == (2 if K == 2 and disc.M % 2 == 0 else 1)
            svals.append(op.whitened_singular_values())
            fields.append(q.solve(op, q.rhs(inc, fresh)).values)
    assert np.max(np.abs(svals[0] - svals[1])) <= 1e-13 * svals[0][0]
    assert np.linalg.norm((fields[0] - fields[1]).ravel()) \
        <= 1e-12 * np.linalg.norm(fields[0].ravel())


@st.composite
def lattice_cases(draw):
    """A drawn sampled file (n1, n2 <= 12, n3 <= 3), lossless or absorbing, an
    N in {1, 2} that its grid resolves, M from 8 to 17 and an incidence alpha."""
    N = draw(st.integers(1, 2))
    need = 2 * (2 * N + 1)
    shape = (draw(st.integers(need, 12)), draw(st.integers(need, 12)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = 1.5 + rng.random(shape)
    if draw(st.booleans()):
        values = values + 0.3j * rng.random(shape)
    alpha = draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
    return values, N, draw(st.integers(8, 17)), alpha


def rayleigh_coefficients(values, disc, k, alpha):
    """(u+_n, u-_n) of the sampled file, one row per mode, or None where a real
    k grazes a cut-off or nears a guided mode."""
    inc = q.IncidenceSpec.from_alpha(k, alpha, 1.0)
    try:
        op = q.assemble(inc, q.MediumModel.sampled(values, 1.0), disc)
        rd = q.rayleigh_data(q.solve(op, q.rhs(inc, disc)), inc)
    except (q.CutoffViolation, q.NearSingular):
        return None
    return np.array([[rd.u_plus[n], rd.u_minus[n]] for n in disc.space(1.0).modes])


def lattice(test):
    """Run a lattice property on both schemes at real and complex k, 5 draws each."""
    test = settings(FIXED, max_examples=5)(test)
    test = pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE],
                                   ids=["chebyshev", "fd"])(test)
    return pytest.mark.parametrize("complex_k", [False, True], ids=["real_k", "complex_k"])(test)


@lattice
@given(case=lattice_cases(), k=st.floats(0.5, 2.5), damping=st.floats(0.01, 0.5),
       shift=st.integers(1, 5))
def test_lattice_translation_multiplies_the_coefficients_by_a_phase(scheme, complex_k, case,
                                                                    k, damping, shift):
    # rolling the file by s cells along x_j translates q by 2 pi s / n_j, so
    # qhat_m takes the phase e^{-i m_j 2 pi s / n_j}: A' = D A D^{-1} with D
    # that phase on each mode, the load sits in the n = 0 row, and u'+-_n =
    # e^{-i n_j 2 pi s / n_j} u+-_n.  A coupling written with qhat_{m-n} would
    # take the conjugate phase
    values, N, M, alpha = case
    disc = q.Discretization(N=N, M=M, depth_scheme=scheme)
    k = complex(k, damping) if complex_k else k
    base = rayleigh_coefficients(values, disc, k, alpha)
    if base is None:
        return
    modes = np.array(disc.space(1.0).modes)
    for axis in (0, 1):
        n = values.shape[axis]
        got = rayleigh_coefficients(np.roll(values, shift, axis=axis), disc, k, alpha)
        phase = np.exp(-2j * np.pi * shift * modes[:, axis] / n)
        assert np.max(np.abs(got - phase[:, None] * base)) <= 1e-12 * np.max(np.abs(base))


@lattice
@given(case=lattice_cases(), k=st.floats(0.5, 2.5), damping=st.floats(0.01, 0.5))
def test_lattice_mirror_maps_the_coefficients_to_the_mirrored_orders(scheme, complex_k, case,
                                                                     k, damping):
    # sample j sits at x1 = 2 pi j / n1, so mirroring the file in x1 sends it
    # to -j mod n1; with alpha1 -> -alpha1 the field is u(-x1, x2, x3), and
    # u+-_(n1, n2) goes to u+-_(-n1, n2).  Samples read as cell centres would
    # need values[::-1] and fail this map
    values, N, M, alpha = case
    disc = q.Discretization(N=N, M=M, depth_scheme=scheme)
    k = complex(k, damping) if complex_k else k
    base = rayleigh_coefficients(values, disc, k, alpha)
    if base is None:
        return
    got = rayleigh_coefficients(np.roll(values[::-1], 1, axis=0), disc, k,
                                (-alpha[0], alpha[1]))
    space = disc.space(1.0)
    mirror = [space.mode_index[(-n1, n2)] for n1, n2 in space.modes]
    assert np.max(np.abs(got - base[mirror])) <= 1e-12 * np.max(np.abs(base))
