"""Exception types shared across the package.

Missing files raise the builtin FileNotFoundError; everything else derives
from OccReidError so callers can catch domain failures in one clause.
"""


class OccReidError(Exception):
    """Base class for all domain errors raised by this package."""


class UnsupportedFormat(OccReidError):
    """Raster file is not a binary PPM (P6) or PGM (P5) with 8-bit samples."""


class CorruptData(OccReidError):
    """File header or payload does not match the declared format."""


class InsufficientSize(OccReidError):
    """Image too small for the requested crop plus jitter margin."""


class InfeasibleGeometry(OccReidError):
    """No integer rectangle satisfies the requested area/aspect/band bounds."""


class MissingBranch(OccReidError):
    """Dataset root lacks the occluded/ or whole/ branch."""


class UnparsableIdentity(OccReidError):
    """Identity directory name is not an integer label."""


class TooFewIdentities(OccReidError):
    """Fewer than two identities, cannot split train/test."""


class InsufficientShots(OccReidError):
    """An identity has fewer full-body images than the requested shot count."""


class ShapeMismatch(OccReidError):
    """Tensor or image shape inconsistent with the model architecture."""


class LabelOutOfRange(OccReidError):
    """Class label outside the classifier's range."""


class NonFiniteGradient(OccReidError):
    """A gradient tensor contains NaN or Inf."""


class NonFiniteParameter(OccReidError):
    """A weight is NaN or Inf after an SGD step, or overflows float32 when
    checkpointed."""


class NonFiniteFeature(OccReidError):
    """A probe-to-gallery distance is NaN or Inf (broken model features)."""


class LengthMismatch(OccReidError):
    """Feature vectors of different lengths compared."""


class UnknownProbeIdentity(OccReidError):
    """Probe identity absent from the gallery."""


class DimMismatch(OccReidError):
    """Mask dimensions differ from the map they are compared against."""


class EmptySalientRegionWarning(UserWarning):
    """Salient set was empty; detection precision reported as 0."""
