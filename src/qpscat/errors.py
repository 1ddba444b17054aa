"""Exception types shared across the solver suite."""


class QpscatError(Exception):
    """Base class for all qpscat errors."""


class CutProximity(QpscatError):
    """Square-root argument lies on (or too close to) the branch cut."""


class CutoffViolation(QpscatError):
    """Some Rayleigh order sits at (or too close to) a grazing cut-off."""

    def __init__(self, message, flagged=None):
        super().__init__(message)
        self.flagged = list(flagged) if flagged is not None else []


class WrongSide(QpscatError):
    """Evaluation point on the wrong side of the layer for the requested expansion."""


class AliasError(QpscatError):
    """Sampled medium grid too coarse for the requested Fourier truncation."""


class NearSingular(QpscatError):
    """Linear system numerically singular (propagative wave vector suspected).

    `eps` is the absorption level of the refused operator at k + i*eps when
    the refusal comes from a limiting-absorption sweep, else None.
    """

    def __init__(self, message, smallest_singular_value=None, sigma_max=None,
                 eps=None):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value
        self.sigma_max = sigma_max
        self.eps = eps


class OperatorTooLarge(QpscatError):
    """An operator, or a Brillouin map, would not fit in the machine's physical memory."""


class SolveFailed(QpscatError):
    """Direct solve did not reach the required residual."""


class ThresholdAmbiguity(QpscatError):
    """A singular value lies too close to the kernel-detection threshold."""

    def __init__(self, message, ambiguous=None):
        super().__init__(message)
        self.ambiguous = list(ambiguous) if ambiguous is not None else []


class ConstraintSingular(QpscatError):
    """Kernel-restricted constraint system is numerically singular."""


class NonEvanescentMode(QpscatError):
    """A mode fed to the constraint evaluator carries propagating content."""


class UnsupportedMedium(QpscatError):
    """Operation only implemented for slab-class (piecewise-constant) inputs."""


class DomainError(QpscatError):
    """Arguments outside the mathematical domain of the formula."""


class ConfigError(QpscatError):
    """Run configuration missing, malformed, or inconsistent."""
