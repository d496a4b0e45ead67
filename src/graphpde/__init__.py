"""Variational calculus and solvers for reaction-diffusion equations on
finite weighted graphs with Dirichlet boundary data.

The pieces, bottom up: weighted graphs and interior/boundary partitions
(graphs), the measure-weighted Laplacian with its quadratic form, norms
and integrals (calculus), the first Dirichlet eigenvalue and embedding
constants (spectral), reaction-term families with sampled hypothesis
checks (nonlinearity), the energy functional and its derivatives
(variational), and the critical-point solvers (solver).  The cli module
wraps everything behind the `graphpde` command.
"""

from .graphs import (
    DomainPartition,
    GraphError,
    GraphFile,
    GraphParseError,
    WeightedGraph,
    build_graph,
    compute_boundary,
    enforce_dirichlet,
    format_graph_text,
    is_dirichlet,
    parse_graph_file,
    parse_graph_text,
)
from .calculus import (
    DIRICHLET_W12,
    FULL_W12,
    H_NORM,
    NormKind,
    dirichlet_energy,
    edge_energy,
    gradient_form,
    green_residual,
    integrate,
    laplacian,
    lp,
    norm,
)
from .spectral import (
    ConstantsReport,
    EigenResult,
    embedding_constants,
    first_eigenvalue,
)
from .nonlinearity import (
    GridSpec,
    HypothesisVerdict,
    Nonlinearity,
    ar_lower_bound,
    check_f,
    check_h,
    f1_verdict,
    odd_poly,
    parse_nonlinearity,
    power,
    power_plus_const,
    smoothness_note,
)
from .variational import (
    BallConstants,
    Problem,
    ball_constants,
    directional_derivative,
    energy,
    gradient,
    pointwise_residual,
)
from .solver import (
    RunLog,
    Solution,
    SolveReport,
    SolverConfig,
    SolverError,
    ball_minimize,
    build_spike_endpoint,
    mountain_pass,
    two_solutions,
)

__version__ = "0.1.0"

__all__ = [
    "BallConstants", "ConstantsReport", "DIRICHLET_W12", "DomainPartition",
    "EigenResult", "FULL_W12", "GraphError", "GraphFile",
    "GraphParseError", "GridSpec", "H_NORM", "HypothesisVerdict",
    "Nonlinearity", "NormKind", "Problem", "RunLog", "Solution",
    "SolveReport", "SolverConfig", "SolverError", "WeightedGraph",
    "ar_lower_bound", "ball_constants", "ball_minimize",
    "build_graph", "build_spike_endpoint", "check_f", "check_h",
    "compute_boundary", "dirichlet_energy", "directional_derivative",
    "edge_energy", "embedding_constants", "energy",
    "enforce_dirichlet", "f1_verdict", "first_eigenvalue",
    "format_graph_text", "gradient", "gradient_form",
    "green_residual", "integrate", "is_dirichlet", "laplacian", "lp",
    "mountain_pass", "norm", "odd_poly", "parse_graph_file",
    "parse_graph_text", "parse_nonlinearity", "pointwise_residual", "power",
    "power_plus_const", "smoothness_note", "two_solutions",
]
