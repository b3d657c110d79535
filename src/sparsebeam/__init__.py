"""Joint-sparse transmit beamformer design for dual-function radar-communications.

Designs beamformers that shape a radar beampattern (mainlobe floor, sidelobe
ceiling), serve downlink users at target SINRs, and respect per-antenna power
limits, while driving all users onto a common K-antenna support through an
l2,1 regularizer.  The nonconvex quadratically constrained program is solved
by consensus ADMM with closed-form primal updates and per-constraint
nearest-point projections; the power on the K selected antennas is then
minimized by sequential quadratic programming, the one local solver, which
also finishes the feasibility search where the projections stall.
"""

from .admm import (
    AdmmConfig,
    AdmmState,
    IterationRecord,
    WeakPenaltyWarning,
    check_penalty_ratio,
    cyclic_projection,
    find_feasible_point,
    initialize,
    solve,
    update_u,
    update_v,
    update_w,
)
from .arrays import (
    AngleGrids,
    ArrayGeometry,
    build_grids,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    los_channel,
    rayleigh_channel,
    steering_vector,
)
from .errors import ConfigurationError, InfeasibleProblemError, ProjectionError
from .metrics import (
    DesignReport,
    FeasibilityReport,
    antenna_power,
    beampattern,
    design_report,
    feasibility_report,
    msrr,
    tx_power,
)
from .problem import (
    BeamformerStack,
    ProblemInstance,
    assemble,
    group_norms,
    objective,
    user_blocks,
)
from .scenario import (
    Scenario,
    bundled_scenario_path,
    load_scenario,
    scenario_sha256,
    scenario_to_dict,
    write_scenario,
)
from .selection import (
    BaselineResult,
    random_selection_baseline,
    rank_groups,
    refit,
    select_support,
)
from .shrinkage import group_shrink

__version__ = "0.1.0"
