"""Mixed finite element solver for the acoustic wave equation.

Lowest-order Raviart-Thomas velocities and piecewise-constant pressures on
uniform rectangle meshes, advanced by a three-level theta scheme that
conserves a discrete energy. Ships with a verification harness covering
energy conservation, the CFL stability boundary, and first-order-in-space /
second-order-in-time convergence against manufactured solutions.
"""

from .linalg import (
    CgResult,
    CsrMatrix,
    InputError,
    IterationCap,
    NonConvergence,
    SolverConfig,
    cg_solve,
    spmv,
)
from .mesh import (
    BoundaryKind,
    BoundaryPartition,
    EdgeClassification,
    RectMesh,
    build_rect_mesh,
    edge_classify,
)
from .multigrid import VCycle
from .scheme import (
    CompatibilityWarning,
    EnergySample,
    ProblemSpec,
    RunResult,
    RunSetup,
    SchemeState,
    SeparableForce,
    SeparableSolution,
    StepSolver,
    ThetaConfig,
    discrete_energy,
    initialize,
    prepare,
    run,
    step,
    step_matrix,
)
from .spaces import (
    MaterialField,
    MixedOperators,
    assemble_load,
    assemble_operators,
    element_blocks,
    material_field,
    project_pressure_p_h,
    project_velocity_pi_h,
    schur_matrix,
    stiffness_bound,
)
from .verify import (
    ConvergenceTable,
    ManufacturedSolution,
    cfl_max_dt,
    convergence_study,
    energy_drift,
    error_linf_l2,
    estimate_inverse_constant,
    make_problem,
    mms_forced,
    mms_standing_wave,
    residual_check,
    stability_sweep,
    temporal_study,
)

__version__ = "0.1.0"
