"""Exception types shared across the planner.

Names follow the public contract of each operation; all inherit from
PlannerError so callers can catch the whole family at once.
"""


class PlannerError(Exception):
    """Base class for every error raised by this package."""


# --- road network ---

class UnknownNode(PlannerError):
    """A node id referenced in a query does not exist in the network."""


class Unreachable(PlannerError):
    """No directed path exists between the requested nodes."""


class NoNodeWithinRange(PlannerError):
    """Snapping failed: the nearest network node is beyond the allowed distance.

    ``index`` is the failing point's position in the list snapped.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


# --- coverage ---

class NegativeUnits(PlannerError):
    """A building record carries a negative dwelling-unit count."""


class UncoverableDemand(PlannerError):
    """Some demand point has no candidate stop node within the service radius."""


# --- vrp ---

class InfeasibleStop(PlannerError):
    """A stop's demand exceeds the truck capacity."""


class UnreachableStop(PlannerError):
    """The cost matrix has no finite entry for a depot/stop pair the plan needs."""


class ShiftTooShort(PlannerError):
    """A mandatory trip cannot fit inside the working shift."""


# --- impact ---

class NegativeInput(PlannerError):
    """A consumption/emission model received a negative or non-finite quantity."""


class ZeroDistance(PlannerError):
    """Factor calibration requires a positive total distance."""


class NonpositiveBaseline(PlannerError):
    """Percent improvement requires a positive baseline value."""


class InconsistentSummary(PlannerError):
    """Scenario summary fails the totals-vs-averages consistency gate."""


# --- pipeline / cli ---

class ConfigError(PlannerError):
    """Scenario or city-spec configuration is missing or malformed."""


class DataError(PlannerError):
    """An input table could not be parsed or violates its schema, or an
    output file could not be written."""


class StageError(PlannerError):
    """Wraps an error with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause
