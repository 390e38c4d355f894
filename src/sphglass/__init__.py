"""Coupled spherical mixed even p-spin glasses with constrained overlaps.

The package evaluates and minimizes the variational (Parisi-type) functional
whose double infimum over a positive-definite multiplier and a discrete
monotone matrix path gives the limiting constrained free energy, and it ships
independent Monte Carlo oracles for every closed form the functional uses:

- ``mixture``    covariance kernels xi, xi', xi'' and theta of a matrix
- ``geometry``   constraint matrices and discrete monotone PSD paths
- ``functional`` the path kernel, admissible set, evaluation, path increments
- ``optimizer``  inner Newton solve over the multiplier, outer path search,
                 degeneracy dichotomy
- ``cascade``    nested Monte Carlo recursion oracle and the exact cascade
                 limit of the theta sum
- ``montecarlo`` desk-scale direct free-energy estimator on constrained spheres
- ``verify``     seeded suites that judge the path kernel against the Gaussian
                 integral and against its small-x_0 trace limit
- ``cli``        config-driven subcommands with reproducible JSON/CSV reports
"""

from sphglass.mixture import MixtureSpec, xi_matrix, xi_prime_matrix, theta_matrix
from sphglass.geometry import ConstraintMatrix, DiscretePath, validate_path, check_path
from sphglass.functional import (
    FunctionalBreakdown,
    NotInL,
    InvalidPath,
    evaluate,
    theta_term,
    delta_increments,
    closed_form_Y0,
)
from sphglass.optimizer import (
    PathSearchConfig,
    InnerSolveReport,
    OptimizationReport,
    inner_gradient,
    inner_minimize,
    detect_degenerate,
    minimize_over_paths,
)

__version__ = "0.1.0"
