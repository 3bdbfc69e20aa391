"""Exception types shared across the simulator."""


class QoesimError(Exception):
    """Base class for all package errors."""


class ParseError(QoesimError):
    """Config file is syntactically malformed."""


class ValidationError(QoesimError):
    """A config or domain invariant is violated; message names the field."""


class ConfigError(QoesimError):
    """Runtime configuration inconsistent with the simulation state."""


class ShapeMismatch(QoesimError):
    """Tensor or state dimensions disagree with the network layout."""


class UnknownStructure(QoesimError):
    """QoE model structure index outside {1, 2, 3}."""


class InsufficientData(QoesimError):
    """Too few (or uninformative) samples for the requested fit."""


class PotentialDecrease(QoesimError):
    """A best-response move lowered the slicing game's potential."""


class EmptyWindow(QoesimError):
    """Metric requested over a window with no records."""


class EmptyInput(QoesimError):
    """Metric requested over an empty value set."""


class TooFewSamples(QoesimError):
    """Box statistics need at least four samples."""
