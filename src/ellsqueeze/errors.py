"""Exception types shared across the package."""


class EllsqueezeError(Exception):
    """Base class for all package-specific errors."""


class AdmissibilityError(EllsqueezeError, ValueError):
    """A coefficient table violates the weighted-homogeneity or Hermitian rules."""


class PositivityError(EllsqueezeError, ValueError):
    """A polynomial that must be positive off the origin is not certified positive."""


class BoundedSearchError(EllsqueezeError, RuntimeError):
    """A sup/inf search did not terminate inside its search cap."""

    def __init__(self, message: str, cap: float):
        super().__init__(f"{message} (search cap {cap:g})")
        self.cap = cap


class ConfigError(EllsqueezeError, ValueError):
    """An experiment configuration failed schema validation."""


class EmptySampleError(EllsqueezeError, ValueError):
    """A parameter excluded every sample, so nothing is left to compute."""


class ToleranceError(EllsqueezeError, RuntimeError):
    """A measured quantity exceeded the tolerance the run manifest advertises."""

    def __init__(self, name: str, value: float, bound: float):
        super().__init__(f"{name} = {value:g} violates its tolerance {bound:g}")
