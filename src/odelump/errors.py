"""Exception and warning types shared across the package."""

import sys


class OdeLumpError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(OdeLumpError):
    """A denominator evaluated to zero.

    ``where`` is either the offending subexpression (exact evaluation) or the
    simulation time at which the denominator vanished.
    """

    def __init__(self, where):
        self.where = where
        super().__init__(f"division by zero at {where}")


class GroundSetMismatch(OdeLumpError):
    """Two partitions do not share a ground set."""


class PartitionMismatch(OdeLumpError):
    """A partition does not cover the variables of the system it was paired with."""


class ModelSyntaxError(OdeLumpError):
    """Input text does not conform to the model grammar."""

    def __init__(self, line, column, expected):
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(f"line {line}, column {column}: expected {expected}")


class _VariableError(OdeLumpError):
    """An identifier misused in the init section; ``_problem`` says how."""

    def __init__(self, name, line, column=None):
        self.name = name
        self.line = line
        self.column = column
        at = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{at}: {self._problem} variable '{name}'")


class UndeclaredVariable(_VariableError):
    """An identifier was used without being declared in the init section."""
    _problem = "undeclared"


class DuplicateVariable(_VariableError):
    """The same identifier was declared twice in the init section."""
    _problem = "duplicate"


class PartitionCoverageError(OdeLumpError):
    """A declared partition does not partition the variable set."""

    def __init__(self, detail, line=None, column=None):
        self.line = line
        self.column = column
        at = f"line {line}: " if line is not None else ""
        super().__init__(f"{at}{detail}")


class NonPolynomialDrift(OdeLumpError):
    """An operation restricted to polynomial drifts met a general drift expression."""


class _NotAnEquivalence(OdeLumpError):
    """A partition failed an equivalence check; ``_kind`` names which."""

    def __init__(self, counterexample, names=None):
        self.counterexample = counterexample
        super().__init__(f"partition is not {self._kind}: {counterexample.describe(names)}")


class NotAnFde(_NotAnEquivalence):
    """The partition fails the forward differential-equivalence check."""
    _kind = "an FDE"


class NotABde(_NotAnEquivalence):
    """The partition fails the backward differential-equivalence check."""
    _kind = "a BDE"


class TooLarge(OdeLumpError):
    """A computation refused an input beyond its size guard ``limit``: the
    brute-force oracle a system of ``n`` variables, unless ``_guarded`` says
    otherwise."""
    _guarded = "brute force is guarded to n <= {limit}, got n = {n}"

    def __init__(self, n, limit):
        self.n = n
        self.limit = limit
        super().__init__(self._guarded.format(n=n, limit=limit))


class _ProductTooLarge(TooLarge):
    """Lowering drift text refused a product whose operands' term counts
    multiply to ``n``, above ``limit``."""
    _guarded = ("a product in a drift multiplies {n} pairs of terms; lowering "
                "drift text is guarded to {limit}")


class _NumberTooLong(OdeLumpError):
    """Writing a number met an integer with more digits than the
    interpreter turns into text, ``sys.get_int_max_str_digits()``."""

    def __init__(self):
        self.limit = sys.get_int_max_str_digits()
        super().__init__(f"a number has more than {self.limit} digits, the "
                         "interpreter's limit on the text of an integer "
                         "(PYTHONINTMAXSTRDIGITS)")


class NoUniqueCoarsest(OdeLumpError):
    """The enumerated passing partitions have no unique coarsest element."""


class _SolverError(OdeLumpError):
    """The external SMT solver failed; the command line exits 3 on exactly these."""


class SolverNotFound(_SolverError):
    """The external SMT solver command could not be launched."""


class SolverTimeout(_SolverError):
    """The external SMT solver exceeded its time budget."""


class SolverUnknown(_SolverError):
    """The solver answered 'unknown'; carries the partition reached so far."""

    def __init__(self, reason, partition=None):
        self.reason = reason
        self.partition = partition
        super().__init__(f"solver returned unknown: {reason}")


class ProtocolError(_SolverError):
    """The solver produced output this client could not interpret."""

    def __init__(self, raw):
        self.raw = raw
        shown = raw if len(raw) <= 400 else raw[:400] + "..."
        super().__init__(f"unexpected solver output: {shown!r}")


class NonFiniteState(OdeLumpError):
    """Numerical integration produced NaN or infinity."""

    def __init__(self, t):
        self.t = t
        super().__init__(f"state became non-finite at t = {t}")


class GridMismatch(OdeLumpError):
    """Two trajectories do not share a time grid or expected shape."""


class InitMismatchWarning(UserWarning):
    """Backward reduction merged a block whose members have unequal initial values."""
