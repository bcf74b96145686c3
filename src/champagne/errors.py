"""Exception types shared across the package."""


class ChampagneError(Exception):
    """Base class for all package errors."""


class ValidationError(ChampagneError, ValueError):
    """Invalid inputs: out-of-range values, malformed specs, bad geometry."""


class OverlapError(ValidationError):
    """Two closed bubbles intersect.

    Carries the source indices of the offending pair so callers can fix
    the sequence or the radius profile.
    """

    def __init__(self, index_a, index_b, gap, message=None):
        self.index_a = int(index_a)
        self.index_b = int(index_b)
        self.gap = float(gap)
        if message is None:
            message = (
                f"closed bubbles from source indices {self.index_a} and "
                f"{self.index_b} are not disjoint (gap={self.gap:.3e})"
            )
        super().__init__(message)


class WalkBudgetError(ChampagneError):
    """Walks exceeded their step budget; diagnostics attached.

    A walk fails once it has drawn `max_steps` uniforms.  `n_failed` is the
    number of failed walks in the range of walks that raised (with several
    worker ranges, the lowest failing one), and `sample_position` is where
    the lowest-index failed walk stopped.
    """

    def __init__(self, n_failed, max_steps, sample_position=None):
        self.n_failed = int(n_failed)
        self.max_steps = int(max_steps)
        self.sample_position = sample_position
        super().__init__(
            f"{self.n_failed} walk(s) exceeded the step budget of {self.max_steps}"
            + (f"; example stuck near {self.sample_position}" if sample_position is not None else "")
        )


class NumericalRefusalError(ChampagneError):
    """A computation refused to certify a result.  barrier_lower_bound
    raises it when every shell potential vanishes at a boundary sample,
    when its shell weights find no optimum within the simplex pivot limit,
    and when the barrier vanishes on a bubble boundary."""
