"""Simulation and boundary-control design for stop-and-go traffic on two
connected freeway segments, with ramp metering actuated at the junction."""

from .errors import (
    AssumptionError,
    ConfigError,
    DomainError,
    InfeasibleError,
    RepresentationError,
    SimulationError,
    StopngoError,
)
from .model import (
    NetworkParams,
    SegmentParams,
    SteadyState,
    admissible_flux_interval,
    congested_flux_root,
    critical_density,
    equilibrium_flow,
    equilibrium_velocity,
    make_network,
    pressure,
    solve_steady_states,
)
from .riemann import (
    BoundaryRows,
    FieldState,
    boundary_rows,
    coupling_coefficient,
    scale_w,
    to_riemann,
)
from .stability import (
    DifferenceModel,
    build_difference_model,
    closed_form_condition,
    coupling_matrix,
    fit_envelope_rate,
    simulate_difference,
    sp1,
)
from .kernels import KernelTable, kernel_residual, save_table, solve_kernels
from .control import FeedbackOperators, TargetState, backstepping_transform, control_input, target_residual
from .sim import (
    ICSpec,
    SimConfig,
    SimRecord,
    export_norms_csv,
    export_states_csv,
    initial_condition,
    norms_and_rate,
    run_linear,
    run_nonlinear,
)
from .config import RunConfig, default_config, default_network, emit_resolved, parse_config

__version__ = "0.1.0"
