"""Feedback realizations of bilinear couplings between open linear systems.

Given two open linear quantum stochastic systems and a bilinear interaction
Hamiltonian between them, this package synthesizes an equivalent
field-mediated interconnection: extra coupling channels on each system and
a static symplectic feedback gain whose closed loop reproduces the direct
interaction exactly, while the original external channels pass through
unchanged.  A verification layer checks the equivalence both algebraically
(drift, noise, and coupling residuals) and dynamically (moment
trajectories).
"""

__version__ = "0.1.0"

from .errors import (
    AlgebraicLoopError,
    DivergenceError,
    HamlinkError,
    InfeasibleChannelCountError,
    SingularParameterError,
    ValidationError,
)
from .symcore import (
    SpecialSvd,
    build_partition_permutation,
    cayley_sigma_from_x,
    cayley_x_from_sigma,
    is_sharp_skew,
    is_symplectic,
    jmat,
    sharp_adjoint,
    sharp_skew_defect,
    special_svd,
    symplectic_defect,
    unitary_to_quadrature,
)
from .lqss import (
    DirectInteraction,
    LinearDynamics,
    LqssParams,
    TwoPortLqss,
    direct_dynamics,
    feedback_closed_loop,
    realizability_defect,
    system_dynamics,
)
from .synth import (
    FeedbackRealization,
    SynthOptions,
    coupling_relation_residual,
    hamiltonian_corrections,
    min_channels,
    synthesize,
)
from .verify import (
    EquivalenceReport,
    MomentTrajectory,
    check_equivalence,
    closed_loop_dynamics,
    compare_moment_trajectories,
    simulate_moments,
)
from .files import (
    Problem,
    ReportDoc,
    load_problem,
    load_report,
    problem_to_json,
    report_to_json,
    save_problem,
    save_report,
)
from .demo import DAMPING_RATE, DEMO_R_AB, demo_problem

__all__ = [
    "__version__",
    "HamlinkError",
    "ValidationError",
    "AlgebraicLoopError",
    "InfeasibleChannelCountError",
    "SingularParameterError",
    "DivergenceError",
    "jmat",
    "sharp_adjoint",
    "symplectic_defect",
    "is_symplectic",
    "sharp_skew_defect",
    "is_sharp_skew",
    "cayley_sigma_from_x",
    "cayley_x_from_sigma",
    "build_partition_permutation",
    "unitary_to_quadrature",
    "SpecialSvd",
    "special_svd",
    "LqssParams",
    "TwoPortLqss",
    "DirectInteraction",
    "LinearDynamics",
    "system_dynamics",
    "direct_dynamics",
    "feedback_closed_loop",
    "realizability_defect",
    "SynthOptions",
    "FeedbackRealization",
    "min_channels",
    "coupling_relation_residual",
    "hamiltonian_corrections",
    "synthesize",
    "EquivalenceReport",
    "check_equivalence",
    "closed_loop_dynamics",
    "MomentTrajectory",
    "simulate_moments",
    "compare_moment_trajectories",
    "Problem",
    "ReportDoc",
    "load_problem",
    "save_problem",
    "problem_to_json",
    "load_report",
    "save_report",
    "report_to_json",
    "demo_problem",
    "DEMO_R_AB",
    "DAMPING_RATE",
]
