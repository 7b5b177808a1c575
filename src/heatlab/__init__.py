"""heatlab: numerical verification of Gaussian-weight convexity bounds for
1-D heat evolutions with bounded complex potentials."""

__version__ = "0.1.0"

from .errors import (
    CertificationError,
    ConfigError,
    GridError,
    ResidualError,
    TailViolation,
)
from .grid import (
    Field,
    PotentialSpec,
    SpaceGrid,
    constant_potential,
    gaussian_field,
    gaussian_potential,
    zero_potential,
)
from .heat import (
    Trajectory,
    apply_skew,
    apply_symmetric,
    commutator_identity,
    complex_gaussian,
    evolve,
    pde_residual,
)
from .functionals import (
    BoundReport,
    ConvexityReport,
    SharpnessReport,
    WeightSlice,
    appell_mid_exponent,
    appell_time_map,
    appell_transform,
    check_log_convexity,
    interpolation_exponent,
    sharpness_probe,
    solve_convexity_correction,
    verify_interior_bound,
    weighted_norm,
)
from .timecurve import TimeCurve
from .weights import (
    RefinementTrace,
    WeightFamily,
    antiderivative,
    coefficient_residuals,
    cross_energy,
    curvature_certificate,
    family_from_rate,
    first_family_rate,
    limit_family,
    minimal_stabilizer,
    quadratic_form_coefficients,
    refine_pair,
    run_refinement,
    solve_cross,
    solve_cross_bvp,
    solve_freq,
)

__all__ = [name for name in dir() if not name.startswith("_")]
