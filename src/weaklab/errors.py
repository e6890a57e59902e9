"""Exception hierarchy shared by all weaklab modules."""


class WeakLabError(Exception):
    """Base class for all weaklab errors."""

    # the row of a stack that failed a per-row check, else None
    row: int | None = None


class InvalidConfig(WeakLabError):
    """A configuration object violates its invariants."""


class BasisMismatch(WeakLabError):
    """States/operators living on different bases were combined."""


class NotHermitian(WeakLabError):
    """An operation required a Hermitian operator and did not get one."""


class IncompleteBasis(WeakLabError):
    """A supplied basis is not orthonormal and complete."""


class OrthogonalSelection(WeakLabError):
    """Pre/post selection overlap below threshold; weak values diverge."""


class ArityMismatch(WeakLabError):
    """Operator count does not match the number of selection gaps."""


class GridResolutionError(WeakLabError):
    """Pointer grid cannot resolve or contain the requested wavepacket."""

    # the row of a conditional_pointers stage whose coupling wraps, else None
    selection: int | None = None


class SelectionAnnihilated(WeakLabError):
    """A strong selection left (numerically) zero amplitude."""


class NoAcceptedTrials(WeakLabError):
    """Every Monte Carlo trial failed a selection; statistics undefined."""


class AlphaOutOfRange(WeakLabError):
    """Spin selection angle too close to orthogonality."""


class TruncationWarning(UserWarning):
    """A Fock-space state leans on the truncation edge."""
