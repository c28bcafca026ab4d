"""Exception types shared across the package."""


class ConditioningError(RuntimeError):
    """A dense linear system is too ill-conditioned to solve reliably.

    Carries the condition estimate that tripped the guard: LAPACK gecon's
    estimate of the 1-norm condition number from the LU factors, infinite
    for an exactly singular or non-finite matrix.
    """

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
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


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""
