"""H2-optimal output feedback for two-player systems with nested information."""

from .statespace import (
    StateSpace,
    vcat,
    lft_lower,
    lft_upper,
    is_block_lower_tf,
    tf_mismatch,
    minreal,
)
from .linalg import (
    AreSolution,
    SolverError,
    is_hurwitz,
    solve_lyapunov,
    solve_sylvester,
    solve_are,
    screen_are,
    pbh_stabilizable,
    pbh_detectable,
    axis_rank_ok,
    gramian,
    h2_norm,
    stable_antistable_decompose,
)
from .plant import (
    Partition,
    TwoPlayerPlant,
    CostCovariance,
    cost_cov_matrices,
    AssumptionError,
    AssumptionReport,
    check_assumptions,
    load_plant,
    save_plant,
    plant_from_dict,
    plant_to_dict,
)
from .stabilization import (
    StabilizabilityDiagnostics,
    exists_triangular_stabilizing,
    NominalGains,
    nominal_gains,
    nominal_controller,
    ModelMatchData,
    youla_data,
    controller_from_q,
    q_from_controller,
)
from .synthesis import (
    AreBundle,
    CouplingSolution,
    SynthesisResult,
    solve_four_ares,
    solve_phi_psi,
    structured_gains,
    controller_realizations,
    optimal_controller,
    centralized_h2,
    swap_transpose,
    dual_plant,
)
from . import fixtures

__version__ = "0.1.0"
