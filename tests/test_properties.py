"""Property-based contracts, drawn by hypothesis.

Every property runs derandomized, on a bounded number of examples, so the
suite sees the same draws on every run.
"""
import os
import tempfile
import warnings

import numpy as np
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
