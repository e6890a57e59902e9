"""Exception hierarchy shared by all weaklab modules, and the one raiser of
per-row checks."""

import numpy as np


class WeakLabError(Exception):
    """Base class for all weaklab errors."""

    # the row of a stack that failed a per-row check, else None
    row: int | None = None

    def rename_row(self, label: str, index: int) -> None:
        """Name the failing row by the run's own index of it: the message's
        "row r: " becomes "label index: ", and ``row`` becomes ``index``."""
        self.args = (f"{label} {index}: " + str(self).removeprefix(f"row {self.row}: "),)
        self.row = index


def raise_first_row(bad, exc_type, template: str, *values) -> None:
    """Raise exc_type at the first row where ``bad`` holds, with that row's
    ``values`` formatted into ``template``.  When ``bad`` has one entry per
    row, the message starts "row r: " and the error's ``row`` is r."""
    bad = np.asarray(bad)
    r = int(bad.argmax())
    if bad.flat[r]:
        detail = template.format(*(np.ravel(v)[r] for v in values))
        exc = exc_type(f"row {r}: {detail}" if bad.ndim else detail)
        exc.row = r if bad.ndim else None
        raise exc


class InvalidConfig(WeakLabError):
    """A configuration object violates its invariants."""


class BasisMismatch(WeakLabError):
    """States/operators living on different bases were combined."""


class NotHermitian(WeakLabError):
    """An operation required a Hermitian operator and did not get one."""


class OrthogonalSelection(WeakLabError):
    """Pre/post selection overlap below threshold; weak values diverge."""


class ArityMismatch(WeakLabError):
    """Operator count does not match the number of selection gaps."""


class GridResolutionError(WeakLabError):
    """Pointer grid cannot resolve or contain the requested wavepacket."""


class SelectionAnnihilated(WeakLabError):
    """A strong selection left (numerically) zero amplitude."""


class NoAcceptedTrials(WeakLabError):
    """Every Monte Carlo trial failed a selection; statistics undefined."""


class AlphaOutOfRange(WeakLabError):
    """Spin selection angle too close to orthogonality."""


class TruncationWarning(UserWarning):
    """A Fock-space state leans on the truncation edge."""
