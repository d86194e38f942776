"""Zero-forcing scheduling and erasure Monte Carlo experiments for linear
interference networks."""

__version__ = "0.1.0"

from .assignment import (
    MessageAssignment,
    RuleOverlapWarning,
    assignment_label,
    build_assignment,
    format_assignment,
    random_assignment,
    remove_transmitter,
)
from .montecarlo import (
    AssignmentSpec,
    SweepConfig,
    SweepRow,
    TableRow,
    best_assignment_table,
    estimate_pudof,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)
from .network import (
    Cluster,
    NetworkRealization,
    attach_generic_coefficients,
    derive_seed,
    parse_realization,
    partition_into_clusters,
    realization_to_string,
    sample_realization,
)
from .oracle import (
    ORACLE_K_LIMIT,
    exact_expected_dof,
    optimal_zero_forcing_dof,
)
from .scheduler import (
    BeamformingPlan,
    Schedule,
    ZeroForcingReport,
    build_transmit_signals,
    schedule_network,
    verify_zero_forcing,
)

__all__ = [name for name in dir() if not name.startswith("_")]
