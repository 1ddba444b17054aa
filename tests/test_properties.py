"""Property-based contracts, drawn by hypothesis.

Every property runs derandomized, on a bounded number of examples, so the
suite sees the same draws on every run.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

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
