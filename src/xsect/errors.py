"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can map
failures onto its exit-code contract without string matching.
"""


class XsectError(Exception):
    """Base class for all package errors."""

    code = "error"


class Singular(XsectError):
    """Matrix is singular (or numerically indistinguishable from singular)."""

    code = "singular"


class IllConditioned(XsectError):
    """Eigenstructure cannot be resolved reliably at the requested tolerance."""

    code = "ill_conditioned"

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class BorderlineModulus(XsectError):
    """An eigenvalue modulus sits too close to 1 for a trustworthy verdict."""

    code = "borderline_modulus"


class Overflow(XsectError):
    """A computed matrix power left the representable floating-point range."""

    code = "overflow"


class NoSection(XsectError):
    """No cross-section exists for the requested action."""

    code = "no_section"


class ExceptionalPoint(XsectError):
    """Point refused by a scalar call: it lies on the declared measure-zero
    set excluded from the tiling, or its solve overflows or falls below
    floating-point resolution; the message does not tell which."""

    code = "exceptional_point"


class DetOne(XsectError):
    """|det A| = 1: no finite-measure cross-section exists."""

    code = "det_one"


class MixedModuli(XsectError):
    """Eigenvalue moduli straddle 1: no bounded cross-section exists."""

    code = "mixed_moduli"


class QuadratureDivergence(XsectError):
    """Adaptive refinement disagrees with the closed form beyond tolerance."""

    code = "quadrature_divergence"


class BudgetExceeded(XsectError):
    """Evaluation budget exhausted before convergence."""

    code = "budget_exceeded"

    def __init__(self, message, evaluations=None):
        super().__init__(message)
        self.evaluations = evaluations


class SelectorMiss(XsectError):
    """Coset selector found no lattice translate within the search radius."""

    code = "selector_miss"

    def __init__(self, message, point=None, radius=None):
        super().__init__(message)
        self.point = point
        self.radius = radius


class SearchExhausted(XsectError):
    """Bounded lattice search ran out of budget; partial certificate attached."""

    code = "search_exhausted"

    def __init__(self, message, radius=None, certificate=None):
        super().__init__(message)
        self.radius = radius
        self.certificate = certificate or []


class NoWavelet(XsectError):
    """No orthonormal wavelet of infinite order exists for this matrix."""

    code = "no_wavelet"


class DimensionTooHigh(XsectError):
    """Operation only supported in low ambient dimension."""

    code = "dimension_too_high"


class UsageError(XsectError):
    """Malformed command-line or API usage."""

    code = "usage"
