"""Multi-frequency micro-EIT: forward simulation and admittivity reconstruction."""

from .mesh import Grid, build_grid, grad, div, laplacian
from .pde import (
    EllipticOperator,
    SolverError,
    assemble,
    constant_field,
    solve_adjoint,
    solve_dirichlet,
    solve_poisson,
)
from .admissible import AdmissibleParams, MembershipReport, is_member, project_T
from .properbc import CoverageMap, canonical_phi, coverage_lambda, det_gradient_map
from .objective import (
    Dataset,
    FrequencyGrid,
    dF,
    gradient_DJ,
    misfit_J,
)
from .landweber import (
    GenericProblem,
    IterationRecord,
    LandweberConfig,
    generic_run,
    run,
    step,
)
from .initguess import GammaField, gamma_rhs, initial_guess, pinv2x2
from .phantom import Inclusion, PhantomSpec, add_noise, make_phantom, synthesize_data
from .config import ConfigError, RunConfig, parse_config, serialize_config

__version__ = "0.1.0"
