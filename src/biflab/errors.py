"""Exception types shared across biflab modules."""


class BiflabError(Exception):
    """Base class for all biflab numerical/validation errors."""


# --- family / evaluation ---

class DegenerateMap(BiflabError):
    """Resultant of the homogeneous lift vanishes at this parameter."""


class RootFindingFailure(BiflabError):
    """Polynomial root finder failed to produce the expected roots."""


class NoConvergence(BiflabError):
    """Newton iteration exhausted its budget without meeting tolerance."""


class CriticalOnOrbit(BiflabError):
    """A derivative along the orbit is numerically zero; the multiplier
    product degenerates."""


# --- potential ---

class DegenerateLift(BiflabError):
    """The renormalized lift iterate collapsed to (numerical) zero."""


# --- hyperbolic ---

class LostHyperbolicity(BiflabError):
    """Per-step expansion dropped below the tracking threshold."""


class StepFloorReached(BiflabError):
    """Continuation step size fell below the floor without converging."""


class ChainDivergence(BiflabError):
    """Composed linearization series grew beyond the overflow guard."""


class CoverageError(BiflabError):
    """A generator disk's image fails to cover the required disks, or a
    branch selection was ambiguous."""


# --- misiurewicz ---

class NonRepellingTarget(BiflabError):
    """A landing cycle is not repelling; certification refused."""


# --- bifgrid ---

class ResolutionExceeded(BiflabError):
    """A requested radius is below the grid resolution guard."""


class DegenerateProfile(BiflabError):
    """Too few usable radii remain for a regression."""


class InsufficientScales(BiflabError):
    """Box counting was given too few usable scales."""


class NotPlurisubharmonic(UserWarning):
    """Clamping negative cells removed more than 5% of a wedge's absolute
    Monge-Ampere mass (total_mass + clamp_total)."""
