"""Bi-periodic refractive-index models and their transverse Fourier data.

Three kinds are supported: a homogeneous layer, a stack of constant-index
sublayers, and a sampled grid on the equispaced lattice over
(0,2pi)^2 x (-h,h).  The index is hard-coded to 1 outside |x3| < h; models
are only ever queried inside the layer.  Sampled media are interpolated
piecewise-constant per grid cell in every direction.
"""
from __future__ import annotations

import io
import operator
from dataclasses import dataclass

import numpy as np

from .errors import OutOfLayer, QpscatError
from .qpcore import IncidenceSpec


@dataclass(frozen=True)
class FourierSlice:
    """Transverse Fourier coefficients q_hat_m of the index at one depth."""

    depth: float
    coeffs: dict[tuple[int, int], complex]

    def __getitem__(self, m) -> complex:
        return self.coeffs.get(tuple(m), 0.0 + 0.0j)


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


class MediumModel:
    """Refractive index q(x1, x2, x3), 2pi-periodic transversely, q = 1 outside.

    Use the constructors `homogeneous`, `slab_stack`, `sampled` or
    `load_sampled_medium`; q values must satisfy Re q >= q_floor > 0 and
    Im q >= 0 (lossless or absorbing).  The model is immutable: its
    attributes are read-only, and a sampled medium keeps its own read-only
    copy of the values it was given, so no later edit can bypass the checks
    or leave the coupling tables cached for it stale.
    """

    kind = property(operator.attrgetter("_kind"))
    h = property(operator.attrgetter("_h"))
    q_floor = property(operator.attrgetter("_q_floor"))
    q0 = property(operator.attrgetter("_q0"))
    layers = property(operator.attrgetter("_layers"))
    values = property(operator.attrgetter("_values"))

    def __init__(self, kind, h, q_floor=1e-6, q0=None, layers=None, values=None):
        if h <= 0:
            raise ValueError("h must be positive")
        if q_floor <= 0:
            raise ValueError("q_floor must be positive")
        self._kind = kind
        self._h = float(h)
        self._q_floor = float(q_floor)
        self._q0 = q0
        self._layers = layers
        if values is not None:
            values = np.array(values, order="C")
            values.flags.writeable = False
        self._values = values
        self._check_values()

    # -- constructors ------------------------------------------------------
    @classmethod
    def homogeneous(cls, q0, h, q_floor=1e-6):
        return cls("homogeneous", h, q_floor, q0=complex(q0))

    @classmethod
    def slab_stack(cls, layers, h, q_floor=1e-6):
        """layers: iterable of (z_lo, z_hi, q) covering [-h, h] without overlap."""
        ls = sorted(((float(a), float(b), complex(q)) for a, b, q in layers),
                    key=lambda t: t[0])
        if not ls:
            raise ValueError("slab_stack needs at least one layer")
        if abs(ls[0][0] + h) > 1e-12 or abs(ls[-1][1] - h) > 1e-12:
            raise ValueError("layers must cover [-h, h]")
        for (a0, b0, _), (a1, b1, _) in zip(ls, ls[1:]):
            if abs(b0 - a1) > 1e-12:
                raise ValueError("layers must tile [-h, h] without gaps/overlaps")
        return cls("slab_stack", h, q_floor, layers=tuple(ls))

    @classmethod
    def sampled(cls, values, h, q_floor=1e-6):
        """values: array (n1, n2, n3) of q on the cell lattice, row-major (x1,x2,x3)."""
        v = np.asarray(values)
        if v.ndim != 3:
            raise ValueError("sampled values must be a 3-d array")
        if np.iscomplexobj(v) and np.allclose(v.imag, 0.0):
            v = v.real
        return cls("sampled", h, q_floor, values=v)

    def _check_values(self):
        re, im = self._extents()
        if not np.all(np.isfinite(re + im)):
            raise ValueError("q values must be finite (no NaN or inf)")
        if re[0] < self.q_floor:
            raise ValueError(
                f"min Re q = {re[0]:g} below q_floor = {self.q_floor:g}")
        if im[0] < 0:
            raise ValueError(f"Im q must be >= 0 (got min {im[0]:g})")

    def _extents(self):
        if self.kind == "homogeneous":
            q = np.array([self.q0])
        elif self.kind == "slab_stack":
            q = np.array([q for _, _, q in self.layers])
        else:
            q = self.values.ravel()
        return (float(np.min(q.real)), float(np.max(q.real))), \
               (float(np.min(np.imag(q))), float(np.max(np.imag(q))))

    # -- queries -----------------------------------------------------------
    @property
    def transversely_uniform(self) -> bool:
        return self.kind in ("homogeneous", "slab_stack")

    def fourier_slice(self, x3: float, M: int) -> FourierSlice:
        """Coefficients q_hat_m(x3) for |m|_inf <= M at the containing depth cell.

        Homogeneous and stacked slabs have q_hat_0 = q(x3) and zero otherwise;
        sampled grids are transformed by 2-d DFT of the nearest-depth slice.
        """
        profs = self.fourier_profiles([x3], M)
        return FourierSlice(depth=float(x3),
                            coeffs={m: complex(p[0]) for m, p in profs.items()})

    def fourier_profiles(self, depths, M: int) -> dict[tuple[int, int], np.ndarray]:
        """q_hat_m evaluated along an array of depths, for |m|_inf <= M.

        A sampled grid is transformed once (one fft2 over the transverse
        axes of every depth cell); each depth then picks its cell.
        """
        depths = np.asarray(depths, dtype=float)
        if np.any(np.abs(depths) > self.h + 1e-12):
            raise OutOfLayer(f"|x3| = {np.max(np.abs(depths)):g} exceeds h = {self.h:g}")
        orders = [(m1, m2) for m1 in range(-M, M + 1) for m2 in range(-M, M + 1)]
        if self.kind == "sampled":
            n1, n2, n3 = self.values.shape
            cells = np.clip(np.floor((depths + self.h) / (2 * self.h / n3)).astype(int),
                            0, n3 - 1)
            fh = np.fft.fft2(self.values, axes=(0, 1)) / (n1 * n2)
            return {m: fh[m[0] % n1, m[1] % n2, cells] for m in orders}
        out = {m: np.zeros(len(depths), dtype=complex) for m in orders}
        if self.kind == "homogeneous":
            out[(0, 0)][:] = self.q0
        else:
            out[(0, 0)][:] = [next(q for a, b, q in self.layers
                                   if a - 1e-12 <= z <= b + 1e-12) for z in depths]
        return out

    def transverse_resolution(self) -> tuple[int, int] | None:
        if self.kind == "sampled":
            return self.values.shape[0], self.values.shape[1]
        return None


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
    """Read a sampled medium in the documented text format."""
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
        body = f.read().replace(",", " ")
    raw = [complex(tok) for tok in body.split()]
    if len(raw) != n1 * n2 * n3:
        raise QpscatError(
            f"{path}: expected {n1 * n2 * n3} values, found {len(raw)}")
    vals = np.array(raw).reshape(n1, n2, n3)
    return MediumModel.sampled(vals, h)


def save_sampled_medium(path, values, h):
    """Write a sampled grid in the documented text format (CSV body)."""
    v = np.asarray(values)
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
