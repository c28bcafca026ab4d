"""Exception types shared across the package."""


class ConditioningError(RuntimeError):
    """A dense linear system is too ill-conditioned to solve reliably.

    Carries the condition number that tripped the guard: the exact 1-norm
    condition ||A||_1 ||A^-1||_1, except for the collocation system
    A = A_n T, whose value is the bound cond(A_n) cond(T); infinite for a
    matrix numpy cannot factor or a condition that is not finite.
    """

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition number {condition:.3e})")
        self.condition = condition


class DivergenceError(RuntimeError):
    """Time stepping produced non-finite coefficients.

    The explicit convection term has a stability restriction; once the
    solution blows up there is no point continuing.
    """

    def __init__(self, step: int, time: float):
        super().__init__(
            f"non-finite solution coefficients at step {step} (t = {time:.6g})"
        )
        self.step = step
        self.time = time


class SeriesAccuracyError(RuntimeError):
    """The exact series solution cannot be trusted at this point.

    The oracle's one refusal.  At high Reynolds numbers the transformed
    initial data span many orders of magnitude and the series sums large
    terms of both signs, so the moments' quadrature errors and roundoff
    swamp the result; a series that runs out of terms is charged its
    unsummed tails too.  Carries the estimated relative error of u that
    exceeded the oracle's bound.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (estimated relative error {estimate:.3e})")
        self.estimate = estimate
