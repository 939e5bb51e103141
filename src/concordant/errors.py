"""Exception types shared across the package."""


class ConcordantError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(ConcordantError, ValueError):
    """An argument violates a documented precondition."""


class FactorizationIncomplete(ConcordantError):
    """Factoring ran out of budget with a composite cofactor left over."""

    def __init__(self, n, partial, cofactor):
        super().__init__(f"could not fully factor {n}; composite cofactor {cofactor}")
        self.n = n
        self.partial = partial
        self.cofactor = cofactor

    def __reduce__(self):
        # rebuilt from the fields, so the error crosses a process boundary
        return type(self), (self.n, self.partial, self.cofactor)


class NoSolution(ConcordantError):
    """The equation provably has no nontrivial rational solution."""


class EffortExhausted(ConcordantError):
    """A bounded search finished its schedule without finding a hit."""


class ConditionFailure(ConcordantError):
    """No quadric of the homogeneous space has a zero-coordinate point."""


class NotBiquadratic(ConcordantError):
    """Odd-degree coefficients are nonzero where a biquadratic form was required."""


class DegenerateForm(ConcordantError, ValueError):
    """Singular quadratic form (zero discriminant or zero coefficient block)."""


class DegenerateKernel(ConcordantError):
    """The two linear constraints on the kernel vector are dependent."""


class NotNormalized(ConcordantError):
    """Curve coefficients do not admit the (p, q, k) decomposition."""


class VerificationFailure(ConcordantError):
    """A computed result failed the exact re-check of the equations it must
    satisfy; this signals a defect, never a property of the input."""


class StageMismatch(ConcordantError):
    """A replayed pipeline stage disagreed with the recorded expectation."""

    def __init__(self, stage, expected, actual):
        super().__init__(f"stage {stage!r}: expected {expected}, got {actual}")
        self.stage = stage
        self.expected = expected
        self.actual = actual

    def __reduce__(self):
        return type(self), (self.stage, self.expected, self.actual)
