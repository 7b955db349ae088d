"""Exception hierarchy and warning categories for ipdhyp.

Every domain error raised by this package derives from :class:`IpdHypError`,
so callers can catch one base class.  One condition, one type:

* a quantity a transformation needs nonzero vanishes ((f)_m, (c-b-m)_m,
  (1+a+b-c)_m, b, ..., through ``kernel.nonzero``), or a polynomial is
  identically zero (``find_roots``): :class:`DegenerateCaseError`;
* gamma at a nonpositive integer:
  :class:`PoleAtNonpositiveIntegerError`;
* vectors of different lengths: :class:`LengthMismatchError`;
* a coefficient index outside its range: :class:`IndexOutOfRangeError`;
* the series oracle outside its convergence region, at a bottom-parameter
  pole or past its term cap: :class:`DivergentSeriesError`,
  :class:`DenominatorPoleError`, :class:`SlowConvergenceError`.

Usage errors (a missing parameter, an unknown route or variant, a
multiplicity total below one, a polynomial coefficient that is not finite
in ``find_roots``) are plain ``ValueError``.  Warnings
(non-fatal conditions such as a shifted parameter landing on a series pole
that may still terminate first) use :class:`RootWarning`.
"""


class IpdHypError(Exception):
    """Base class for all ipdhyp domain errors."""


class LengthMismatchError(IpdHypError):
    """Parameter vector and multiplicity vector have different lengths."""


class PoleAtNonpositiveIntegerError(IpdHypError):
    """gamma requested at a nonpositive integer."""


class IndexOutOfRangeError(IpdHypError):
    """Coefficient index outside its admissible range."""


class UnsupportedPError(IpdHypError):
    """Closed-form coefficient route requested outside its parameter range."""


class DegenerateCaseError(IpdHypError):
    """A quantity that must not vanish is zero, so the transformation degenerates."""


class NonConvergenceError(IpdHypError):
    """Iterative root solver exceeded its iteration budget."""


class DivergentSeriesError(IpdHypError):
    """Series evaluation requested outside its convergence region."""


class DenominatorPoleError(IpdHypError):
    """A bottom parameter hits a nonpositive integer before termination."""


class SlowConvergenceError(IpdHypError):
    """Series evaluation hit the term cap before meeting the tolerance."""


class OnBranchCutError(IpdHypError):
    """Prefactor evaluation requested on the branch cut [1, oo)."""


class PoleAtOneError(IpdHypError):
    """Moebius argument map requested at its pole x = 1."""


class IntegerDifferenceError(IpdHypError):
    """Series route genericity condition (non-integer differences) fails."""


class DistinctnessViolationError(IpdHypError):
    """Shifted denominator-parameter grid contains coincident entries."""


class RejectionExhaustedError(IpdHypError):
    """Parameter sampler could not satisfy preconditions within its budget."""


class RootWarning(UserWarning):
    """A shifted parameter sits at (or near) a nonpositive integer.

    Non-fatal: evaluation may still succeed if the series terminates before
    the pole is reached.
    """
