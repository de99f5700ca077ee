"""Exception types shared across the calibration laboratory."""


class CaliblabError(Exception):
    """Base class for every error raised by this package."""


class DegenerateConfiguration(CaliblabError):
    """Point pairs cannot determine a unique homography
    (too few, collinear, or duplicated board points)."""


class DegenerateView(CaliblabError):
    """View carries no usable perspective: the board is parallel to the
    image plane, so no symmetry axis exists."""


class AmbiguousDirection(CaliblabError):
    """Symmetry-axis direction is undefined for this homography."""


class TooFewLines(CaliblabError):
    """Not enough lines for the requested estimate."""


class ParallelLines(CaliblabError):
    """Line bundle is (near-)parallel; the intersection is ill-conditioned."""


class AllFlagged(CaliblabError):
    """Outlier screening would leave fewer than three consistent lines."""


class DegenerateSystem(CaliblabError):
    """Constraint system cannot isolate a unique solution."""


class InsufficientViews(DegenerateSystem):
    """Too few usable views. A special case of a rank-deficient system:
    below the minimum view count the constraint system is underdetermined
    before it is even assembled."""


class NoFocalEstimate(CaliblabError):
    """Every per-view focal constraint was degenerate."""


class BehindCamera(CaliblabError):
    """Recovered board pose has no positive viewing distance."""


class TooFewPoints(CaliblabError):
    """Not enough points for trajectory analysis."""


class MissingPose(CaliblabError):
    """Reference pose absent for a focal setting under analysis."""


class BoardOutOfView(CaliblabError):
    """Board corners cannot be placed inside the image bounds."""


class ConfigError(CaliblabError):
    """Invalid scene or run configuration."""
