"""Numerical toolkit for squeezing functions on generalized complex ellipsoids.

Modules by theme: weighted Hermitian polynomials (`wpoly`), ellipsoid
domains and Levi scans (`domain`), the explicit automorphism family
(`automorphisms`), generated approach sequences and their classification
(`sequences`), squeezing lower bounds from embedding chains, exact on
two-dimensional domains and sampled in more variables (`squeeze`), the
boundary scaling method (`scaling`), and the pullback exhaustion check
(`domconv`).
"""

__version__ = "0.1.0"

from .automorphisms import (EllipsoidAutomorphism, NormalizationResult,
                            normalize_point, pullback_coeffs)
from .domain import GeneralEllipsoid, SubdomainParams, contains_sub
from .errors import (AdmissibilityError, BoundedSearchError, ConfigError,
                     EllsqueezeError, EmptySampleError, PositivityError,
                     ToleranceError)
from .hermpoly import HermitianPolynomial
from .scaling import (DefiningFunctionPoly, ScaledFunction, ScalingFrame,
                      build_frame, check_tau_normal, limit_diagnostics,
                      scale_along_normal, scaled_function, tau)
from .sequences import (ApproachSequence, ClassificationRecord, classify,
                        generate, tangency_ratio)
from .squeeze import (BallAutomorphism, EmbeddingChain, FloorReport, Rescale,
                      SqueezeEstimate, chain_family, gamma_floor,
                      squeeze_estimates, squeeze_lower_bound)
from .wpoly import MultiWeight, WeightedPolynomial
