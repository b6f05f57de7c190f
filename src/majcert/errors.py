"""Exception types shared across the package.

Rejected inputs (caller errors) are ValueError subclasses; internal
verification failures are RuntimeError subclasses, because a run whose
built-in postcondition check fails indicates a defect in the algorithm,
never a condition the caller should handle.
"""


class DomainMismatchError(ValueError):
    """Operands live on different input domains."""


class RejectedInputError(ValueError):
    """Input violates an operation's precondition."""


class EnumerationBudgetExceeded(RejectedInputError):
    """A brute-force enumeration would exceed its hard budget."""

    def __init__(self, budget: int, count: int, what: str):
        self.budget = budget
        self.count = count
        self.what = what
        super().__init__(f"{what}: {count} exceeds budget {budget}")


class DimensionCapExceeded(RejectedInputError):
    """Dimension search still shattering at the hard cap.

    Distinct from an exact answer: the true dimension is >= ``cap``.
    """

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"dimension >= cap {cap}; exact value not computed")


class VerificationDefect(RuntimeError):
    """An internal exhaustive postcondition check failed.

    This is a solver defect, not a reportable result.
    """


class RetriesExhausted(RuntimeError):
    """A verify-then-escalate schedule ran out of attempts.

    Carries the name of the stage that failed so diagnostics can point
    at the schedule rather than at the caller.
    """

    def __init__(self, stage: str, detail: str = ""):
        self.stage = stage
        msg = f"retries exhausted at stage '{stage}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
