"""Numerical toolkit for squeezing functions on generalized complex ellipsoids.

Modules by theme: weighted Hermitian polynomials (`wpoly`), ellipsoid
domains and Levi scans (`domain`), the explicit automorphism family
(`automorphisms`), approach-sequence classification (`sequences`),
squeezing-function lower bounds (`squeeze`), the boundary scaling method
(`scaling`), and domain-sequence convergence (`domconv`).
"""

__version__ = "0.1.0"

from .automorphisms import (EllipsoidAutomorphism, NormalizationResult,
                            normalize_point, pullback_coeffs)
from .domain import (BoundaryPoint, GeneralEllipsoid, SubdomainParams,
                     contains_sub)
from .errors import (AdmissibilityError, BoundedSearchError, ConfigError,
                     EllsqueezeError, PositivityError)
from .hermpoly import HermitianPolynomial
from .scaling import (DefiningFunctionPoly, ScaledFunction, ScalingFrame,
                      build_frame, check_tau_normal, limit_diagnostics,
                      scale_along_normal, scaled_function, tau)
from .sequences import (ApproachSequence, ClassificationRecord, classify,
                        custom_sequence, generate, tangency_ratio)
from .squeeze import (BallAutomorphism, EmbeddingChain, FloorReport, Rescale,
                      SqueezeEstimate, chain_family,
                      gamma_floor, inscribed_radius, squeeze_lower_bound,
                      squeeze_profile)
from .wpoly import MultiWeight, PositivityReport, WeightedPolynomial
