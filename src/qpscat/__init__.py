"""qpscat: quasi-periodic plane-wave scattering by bi-periodic layers.

A Fourier-Galerkin solver with exact Dirichlet-to-Neumann radiation closure,
guided-mode (kernel) detection, a numerical limiting-absorption principle
(eps-sweep and augmented constrained solve), analytic slab oracles, and the
electromagnetic Calderon operator layer.

The slab oracles (`slab`) and the electromagnetic layer (`maxwell`) are
imported on first use of one of their names (PEP 562), so a run that needs
neither does not load them.
"""

__version__ = "0.1.0"

import importlib

from .errors import (AliasError, ConfigError, ConstraintSingular, CutoffViolation,
                     CutProximity, DomainError, NearSingular, NonEvanescentMode,
                     OperatorTooLarge, QpscatError, SolveFailed,
                     ThresholdAmbiguity, UnsupportedMedium, WrongSide)
from .qpcore import (IncidenceSpec, ModeClassification, beta, beta_table,
                     branch_sqrt, classify_modes, d_beta_d_eps, dtn_symbol,
                     min_im_beta, mode_range, rayleigh_eval)
from .medium import (MediumModel, MediumReport, load_sampled_medium,
                     save_sampled_medium, validate)
from .helmholtz import (CHEBYSHEV, FINITE_DIFFERENCE, Discretization,
                        DiscreteOperator, FieldCoefficients, FieldSpace,
                        RayleighData, assemble, assemble_eps_derivative,
                        quasiperiodic_lift, rayleigh_data, rhs,
                        rhs_eps_derivative, solve)
from .modes import (EvanescenceReport, KernelBasis, LiftedMode,
                    adjoint_kernel_check, kernel, mode_lift, verify_evanescent)
from .lap import (ConstrainedSolution, LapResult, constrained_solve,
                  constraint_residual, eps_sweep, write_sweep_csv)

#: module -> the names the package exports from it on first access
_LAZY = {
    "slab": ("BrillouinMap", "DispersionRoot", "SlabParams", "brillouin_map",
             "dispersion_residual", "find_dispersion_roots", "guided_mode_profile",
             "no_mode_determinant", "transfer_matrix_scattering",
             "write_brillouin_csv"),
    "maxwell": ("FieldSegment", "MaxwellIncidence", "ModeField", "TangentialField",
                "calderon_apply", "calderon_forms", "calderon_halfspace_oracle",
                "calderon_pairing", "divergence_close", "gradient_trace_field",
                "gradient_trace_form", "incident_trace_vector",
                "incident_trace_vector_assembled", "incident_trace_vector_dk",
                "maxwell_constraint_residual", "maxwell_slab_determinant"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    """A `slab` or `maxwell` export, or either module, imported on first access."""
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_HOME))
