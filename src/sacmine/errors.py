"""Domain error types raised across the package.

Every condition the library treats as a caller error has its own class so
the CLI can surface the name directly in diagnostics.
"""


class Error(Exception):
    """Base class for all sacmine errors."""


class NoAttendanceTaken(Error):
    """A module-term record has no week in which attendance was recorded."""


class InvalidCounts(Error):
    """Taken-week or total-week counts violate 1 <= taken <= total."""


class InvalidAverage(Error):
    """Attendance average outside the [0, 100] percent range."""


class OutOfRange(Error):
    """Credibility score outside [0, 1], so it cannot be binned."""


class MissingHeader(Error):
    """A CSV input does not start with the expected header row."""


class MalformedInput(Error):
    """An input file is not UTF-8 text that the ``csv`` module can parse."""


class WeekOutOfRange(Error):
    """An attendance event references a week beyond the semester length."""


class TooFewValues(Error):
    """Variance requested for fewer than two values."""


class DegeneratePanel(Error):
    """Panel total-score variance is zero; alpha is undefined."""


class EmptyCounts(Error):
    """Entropy requested for an empty or all-zero count vector."""


class UnknownAttribute(Error):
    """Attribute name not present in the dataset schema."""


class BadThreshold(Error):
    """Threshold supplied for a nominal attribute, or missing for a numeric one."""


class EmptyDataset(Error):
    """Operation requires at least one instance."""


class TreeTooDeep(Error):
    """Tree induction would nest deeper than Python's recursion limit."""


class SchemaMismatch(Error):
    """Input rows or values do not fit their format or schema."""


class InvalidFraction(Error):
    """Train fraction outside the open interval (0, 1)."""


class InvalidParams(Error):
    """Synthetic-generator parameters violate their invariants."""


class InvalidThresholds(Error):
    """Rule thresholds are not a list of numbers strictly decreasing within (0, 100), or leave no room for the margin."""
