"""Exception hierarchy shared by all imufresh modules.

Three broad families matter to callers: configuration problems
(:class:`ConfigError`, CLI exit code 2), problems with the data itself
(:class:`DataError`, exit code 3), and the dedicated
:class:`NothingSelected` outcome of the selection step (exit code 4).
"""

from __future__ import annotations


class ImufreshError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ImufreshError):
    """Invalid parameters, configuration files, or CLI arguments."""


class DataError(ImufreshError):
    """Malformed or inconsistent input data."""


# --- recording ingestion and segmentation ---------------------------------

class InconsistentChannels(DataError):
    """A recording or labels CSV has the wrong shape: no channels, channels
    of different lengths, a bad header, line or field count, or fewer than
    2 samples."""


class NonUniformSampling(DataError):
    """Time steps within a channel are not uniform."""


class InvalidValue(DataError):
    """A sample value is NaN or infinite."""


class InvalidKindName(DataError):
    """A channel kind violates the naming rules (e.g. contains ``__``)."""


class WindowTooShort(ConfigError):
    """Requested window length rounds to fewer than 2 samples, or is not finite."""


class OverlappingLabels(DataError):
    """Label intervals overlap."""


class UnknownKind(DataError):
    """A referenced channel kind does not exist in the recording."""


class WindowOutOfRange(DataError):
    """A window does not fit inside the recording."""


# --- virtual sensors -------------------------------------------------------

class DuplicateKind(DataError):
    """A virtual sensor output kind already exists."""


class NoPairsFound(DataError):
    """Automatic channel pairing found no matching accel/gyro pairs."""


# --- feature names and calculators -----------------------------------------

class MalformedFeatureName(DataError):
    """A feature-name string cannot be parsed."""


class UnknownCalculator(DataError):
    """A feature name references a calculator that is not registered."""


class BadParameters(ConfigError):
    """Calculator or operation parameters are outside their domain."""


# --- statistical selection --------------------------------------------------

class DegenerateFeature(DataError):
    """A feature column is unusable for testing (e.g. all NaN or all tied)."""


class DegenerateTable(DataError):
    """A contingency table has a zero margin."""


class DegenerateSplit(DataError):
    """A two-sample test received an empty sample."""


class DegenerateTarget(DataError):
    """The target is constant or otherwise untestable."""


# --- forest -----------------------------------------------------------------

class NaNInFeatures(DataError):
    """Training data contains NaN cells."""


class ShapeMismatch(DataError):
    """Row width does not match the model's feature count."""


# --- pipeline ----------------------------------------------------------------

class NothingSelected(ImufreshError):
    """No feature survived FDR selection; the pipeline cannot continue."""


class FeatureSetMismatch(ConfigError):
    """Restricted extraction settings do not match the model's feature list."""
