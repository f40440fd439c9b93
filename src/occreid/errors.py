"""Exception types shared across the package.

A file that cannot be read or written raises the builtin OSError (such as
FileNotFoundError or IsADirectoryError); everything else derives from
OccReidError so callers can catch domain failures in one clause.
"""


class OccReidError(Exception):
    """Base class for all domain errors raised by this package."""


class UnsupportedFormat(OccReidError):
    """Raster file is not a binary PPM (P6) or PGM (P5) with 8-bit samples."""


class CorruptData(OccReidError):
    """File header or payload does not match the declared format."""


class InfeasibleGeometry(OccReidError):
    """No integer rectangle satisfies the requested area/aspect/band bounds."""


class MissingBranch(OccReidError):
    """Dataset root lacks the occluded/ or whole/ branch."""


class UnparsableIdentity(OccReidError):
    """Identity directory name is not a label of ASCII digits."""


class TooFewIdentities(OccReidError):
    """Fewer than two identities, cannot split train/test."""


class InsufficientShots(OccReidError):
    """An identity has fewer full-body images than the requested shot count."""


class ShapeMismatch(OccReidError):
    """Tensor, image or mask shape inconsistent with the model architecture
    or with the array it is compared against."""


class LabelOutOfRange(OccReidError):
    """Class label outside the classifier's range."""


class NonFiniteGradient(OccReidError):
    """A gradient tensor contains NaN or Inf."""


class NonFiniteParameter(OccReidError):
    """A weight is NaN or Inf after an SGD step, or overflows float32 when
    checkpointed."""


class NonFiniteFeature(OccReidError):
    """A probe-to-gallery distance is NaN or Inf (broken model features)."""


class EmptySalientRegionWarning(UserWarning):
    """Salient set was empty; detection precision reported as 0."""
