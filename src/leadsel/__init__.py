"""Leader selection and follower association toolkit.

Exact exhaustive solver, two-phase distributed protocol simulator, and a
seeded benchmark harness comparing the two.
"""
from .model import (
    Assignment,
    ConstraintReport,
    FeasibilityReport,
    Instance,
    attach_edge_server,
    check_constraints,
    feasibility_scan,
    generate_instance,
    leader_candidates,
    load_instance,
    nobody_willing,
    save_instance,
    utility,
)
from .counting import (
    count_configs_distributed_bound,
    count_configs_exhaustive,
    stirling2,
)
from .exhaustive import (
    Infeasible,
    LimitExceeded,
    OptimalSolution,
    brute_force_oracle,
    solve_exhaustive,
)
from .protocol import (
    EpisodeOutcome,
    IncentivePolicy,
    ProtocolConfig,
    ProtocolViolation,
    run_episode,
    run_fallback_process,
)
from .harness import (
    ExperimentConfig,
    LeaderSizeStats,
    check_message_bounds,
    derive_seed,
    rho_rule,
    run_benchmark,
)

__version__ = "0.1.0"
