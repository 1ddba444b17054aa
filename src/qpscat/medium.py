"""Bi-periodic refractive-index models and their transverse Fourier data.

Every medium is cell values (n1, n2, L) on the equispaced transverse lattice
over (0,2pi)^2, constant in depth between breaks -h = z_0 < ... < z_L = h
(`MediumModel.breaks`): a stack of constant-index sublayers (a homogeneous
layer is a stack of one) is n1 = n2 = 1 between its layer bounds, a sampled
grid n3 equal cells.  The index is hard-coded to 1 outside |x3| < h.
Transversely a cell's coefficients are its samples' DFT, so the medium is
their trigonometric interpolant, not their cells (ROADMAP item 16 changes
this); an axis of one sample is constant along it.
"""
from __future__ import annotations

import io
import operator
from dataclasses import dataclass

import numpy as np

from .errors import QpscatError
from .qpcore import IncidenceSpec

#: least Re q a medium may take; the index must stay bounded away from zero
_Q_FLOOR = 1e-6


@dataclass(frozen=True)
class MediumReport:
    min_re_q: float
    max_im_q: float
    q_ge_one: bool
    sin2_theta1: float | None
    q_ge_sin2: bool | None
    warnings: tuple[str, ...]

    @property
    def lossless(self) -> bool:
        return self.max_im_q == 0.0


def _check_h(h) -> None:
    """Raise ValueError unless the half-thickness h is positive and finite."""
    if not h > 0 or not np.isfinite(h):
        raise ValueError(f"h must be positive and finite, got {h!r}")


class MediumModel:
    """Refractive index q(x1, x2, x3), 2pi-periodic transversely, q = 1 outside.

    Use the constructors `homogeneous`, `slab_stack`, `sampled` or
    `load_sampled_medium`; q values must satisfy Re q >= 1e-6 and Im q >= 0
    (lossless or absorbing).  `values` (n1, n2, L) are the cell values and
    `breaks` (L + 1,) the depths -h = z_0 < ... < z_L = h between which q is
    constant in depth: a stack's layer bounds with the outer two set to -h
    and h and one value per layer (n1 = n2 = 1), or h times
    linspace(-1, 1, n3 + 1) for a sampled grid; cells of no width are
    refused (ValueError).  The model is immutable: its attributes are
    read-only, and it keeps its own read-only copy of the values it was
    given, so no later edit can bypass the checks or leave the coupling
    tables cached for it stale.
    """

    h = property(operator.attrgetter("_h"))
    values = property(operator.attrgetter("_values"))
    breaks = property(operator.attrgetter("_breaks"))

    def __init__(self, h, values, inner=None):
        """values (n1, n2, L); the L - 1 `inner` breaks, or L equal cells if None."""
        _check_h(h)
        self._h = float(h)
        values = np.asarray(values)
        if values.dtype.kind not in "iufc":
            raise ValueError(f"q values must be numbers, got dtype {values.dtype}")
        # at least double precision, so a float32 grid's coefficients are too
        values = np.array(values, dtype=np.promote_types(values.dtype, float), order="C")
        if 0 in values.shape:
            raise ValueError(f"q values need at least one cell on every axis, "
                             f"got shape {values.shape}")
        values.flags.writeable = False
        self._values = values
        self._check_values()
        if inner is None:
            inner = self._h * np.linspace(-1.0, 1.0, values.shape[2] + 1)[1:-1]
        elif len(inner) != values.shape[2] - 1:
            raise ValueError(f"{values.shape[2]} depth cells need {values.shape[2] - 1} "
                             f"inner breaks, got {len(inner)}")
        self._breaks = np.array([-self._h, *inner, self._h])
        if not np.all(self._breaks[1:] > self._breaks[:-1]):
            raise ValueError(f"depth cells must have positive width, got breaks "
                             f"{self._breaks.tolist()}")
        self._breaks.flags.writeable = False

    # -- constructors ------------------------------------------------------
    @classmethod
    def homogeneous(cls, q0, h):
        """The constant index q0 over |x3| < h: the one-layer `slab_stack`."""
        return cls.slab_stack([(-h, h, q0)], h)

    @classmethod
    def slab_stack(cls, layers, h):
        """layers: iterable of (z_lo, z_hi, q) covering [-h, h] without overlap.

        h is checked first, so a bad h is named as such, whatever the layers.
        """
        _check_h(h)
        ls = sorted(((float(a), float(b), complex(q)) for a, b, q in layers),
                    key=lambda t: t[0])
        if not ls:
            raise ValueError("slab_stack needs at least one layer")
        if not np.all(np.isfinite([z for a, b, _ in ls for z in (a, b)])):
            raise ValueError("layer bounds must be finite")
        if abs(ls[0][0] + h) > 1e-12 or abs(ls[-1][1] - h) > 1e-12:
            raise ValueError("layers must cover [-h, h]")
        for (a0, b0, _), (a1, b1, _) in zip(ls, ls[1:]):
            if abs(b0 - a1) > 1e-12:
                raise ValueError("layers must tile [-h, h] without gaps/overlaps")
        return cls(h, [[[q for _, _, q in ls]]], [a for a, _, _ in ls[1:]])

    @classmethod
    def sampled(cls, values, h):
        """values: array (n1, n2, n3) of q on the cell lattice, row-major (x1,x2,x3)."""
        v = np.asarray(values)
        if v.ndim != 3:
            raise ValueError("sampled values must be a 3-d array")
        if np.iscomplexobj(v) and not v.imag.any():
            v = v.real
        return cls(h, v)

    def _check_values(self):
        re, im = self._extents()
        if not np.all(np.isfinite(re + im)):
            raise ValueError("q values must be finite (no NaN or inf)")
        if re[0] < _Q_FLOOR:
            raise ValueError(f"min Re q = {re[0]:g} below q_floor = {_Q_FLOOR:g}")
        if im[0] < 0:
            raise ValueError(f"Im q must be >= 0 (got min {im[0]:g})")

    def _extents(self):
        re, im = self.values.real, self.values.imag
        return (float(re.min()), float(re.max())), (float(im.min()), float(im.max()))

    # -- queries -----------------------------------------------------------
    @property
    def transversely_uniform(self) -> bool:
        return self.values.shape[:2] == (1, 1)

    def cell_coefficients(self, M: int) -> np.ndarray:
        """q_hat_m of every depth cell c (between breaks c and c + 1) for
        |m|_inf <= M at [c, m1 + M, m2 + M], (L, 2M + 1, 2M + 1): one fft2
        over the transverse axes of every cell, read at m mod n on each
        axis.  Along an axis of one cell the medium is constant, so there
        only m = 0 is kept.
        """
        m = np.arange(-M, M + 1)
        n1, n2, _ = self.values.shape
        fh = np.fft.fft2(self.values, axes=(0, 1)) / (n1 * n2)
        coefficients = fh[(m % n1)[:, None], m % n2].transpose(2, 0, 1)
        coefficients[:, (m != 0) & (n1 == 1)] = 0.0
        coefficients[:, :, (m != 0) & (n2 == 1)] = 0.0
        return coefficients


def validate(model: MediumModel, inc: IncidenceSpec | None = None) -> MediumReport:
    """Check the hypotheses the uniqueness theory relies on; warnings only.

    Reports min Re q, whether q >= sin^2(theta1) holds for the given incidence
    (needed for complex-k invertibility and for the kernel-restricted
    derivative operator to be injective), and whether q >= 1 in the layer
    (which implies the former for every incidence).
    """
    (re_min, _), (_, im_max) = model._extents()
    warnings = []
    q_ge_one = re_min >= 1.0 - 1e-14
    s2 = None
    ok = None
    if inc is not None:
        s2 = inc.sin2_theta1
        ok = re_min >= s2 - 1e-14
        if not ok:
            warnings.append(
                f"min Re q = {re_min:g} < sin^2(theta1) = {s2:g}: "
                "outside the uniqueness hypotheses; results may be unreliable "
                "at propagative wave vectors")
    if not q_ge_one:
        warnings.append(f"min Re q = {re_min:g} < 1")
    return MediumReport(min_re_q=re_min, max_im_q=im_max, q_ge_one=q_ge_one,
                        sin2_theta1=s2, q_ge_sin2=ok, warnings=tuple(warnings))


# -- sampled-medium file format ---------------------------------------------
#
# Plain-text header followed by the values, one file:
#
#     qpscat-medium v1
#     n1 <int>          number of x1 samples per period
#     n2 <int>          number of x2 samples per period
#     n3 <int>          number of depth cells across (-h, h)
#     h <float>
#     data csv
#     <n1*n2*n3 comma- or whitespace-separated values, row-major (x1,x2,x3);
#      complex entries use Python syntax, e.g. 1.5+0.2j>

def load_sampled_medium(path) -> MediumModel:
    """Read a sampled medium in the documented text format.

    Raises QpscatError for a file that is not in the format: a wrong first
    line, no 'data' marker, a missing header key, a size n1, n2 or n3
    below 1, or a value count other than n1 * n2 * n3.
    """
    with open(path, "r", encoding="utf-8") as f:
        first = f.readline().strip()
        if not first.startswith("qpscat-medium"):
            raise QpscatError(f"{path}: not a qpscat medium file")
        header = {}
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition(" ")
            if key == "data":
                break
            header[key] = val.strip()
        else:
            raise QpscatError(f"{path}: missing 'data' marker")
        try:
            n1, n2, n3 = int(header["n1"]), int(header["n2"]), int(header["n3"])
            h = float(header["h"])
        except KeyError as e:
            raise QpscatError(f"{path}: missing header key {e}") from e
        for key, n in (("n1", n1), ("n2", n2), ("n3", n3)):
            if n < 1:
                raise QpscatError(f"{path}: header key {key} = {n} must be >= 1")
        body = f.read().replace(",", " ")
    raw = [complex(tok) for tok in body.split()]
    if len(raw) != n1 * n2 * n3:
        raise QpscatError(
            f"{path}: expected {n1 * n2 * n3} values, found {len(raw)}")
    vals = np.array(raw).reshape(n1, n2, n3)
    return MediumModel.sampled(vals, h)


def save_sampled_medium(path, values, h):
    """Write a sampled 3-D grid in the documented text format (CSV body);
    any other shape raises ValueError before the file is opened."""
    v = np.asarray(values)
    if v.ndim != 3:
        raise ValueError(f"a sampled medium is a 3-D grid (n1, n2, n3), got shape {v.shape}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("qpscat-medium v1\n")
        f.write(f"n1 {v.shape[0]}\nn2 {v.shape[1]}\nn3 {v.shape[2]}\n")
        f.write(f"h {h!r}\n")
        f.write("data csv\n")
        flat = v.ravel()
        buf = io.StringIO()
        for i, val in enumerate(flat):
            if np.iscomplexobj(v):
                buf.write(repr(complex(val)))
            else:
                buf.write(repr(float(val.real)))
            buf.write("\n" if (i + 1) % 8 == 0 else ",")
        f.write(buf.getvalue().rstrip(",\n") + "\n")
