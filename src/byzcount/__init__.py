"""Byzantine-resilient network size counting on sparse small-world expanders.

The package builds d-regular multigraphs from random Hamiltonian cycles,
augments them with a small-world shortcut layer, and runs a phased
max-flooding protocol whose first successful phase index encodes log n.
A hardened variant survives Byzantine nodes by cross-checking claimed
topology during setup and verifying the provenance of every received
color against the claimed forwarding chain.
"""

from .graph import (
    HMultigraph,
    Topology,
    NodeClassification,
    SpectralEstimate,
    PowerIterationError,
    generate_h_graph,
    derive_node_ids,
    augment_small_world,
    default_k,
    default_a_radius,
    default_tree_radius,
    ball,
    balls,
    boundary,
    g_ball,
    reach_within,
    full_tree_ball_size,
    is_locally_tree_like,
    census_locally_tree_like,
    place_byzantine,
    classify_nodes,
    longest_byzantine_chain,
    count_parallel_pairs,
    estimate_spectral_gap,
    save_topology,
    load_topology,
)
from .protocol import (
    ORIGIN,
    Token,
    PhaseParams,
    NodeState,
    RoundContext,
    TopologyConflict,
    LocalView,
    draw_colors,
    alpha_subphases,
    continuation_threshold,
    phase_params,
    honest_node_step,
    byzantine_node_step,
    reconstruct_local_topology,
    verify_color_provenance,
)
from .adversary import (
    TRUTHFUL,
    Injection,
    AdversaryStrategy,
    CompositeStrategy,
    default_injection_color,
    strategy_honest_mimic,
    strategy_silent,
    strategy_max_injector,
    strategy_late_injector,
    strategy_topology_liar,
    make_strategy,
    STRATEGY_NAMES,
)
from .engine import (
    ExperimentConfig,
    ConfigError,
    RunResult,
    SubphaseTrace,
    run_experiment,
    run_trials,
    simulate_subphase,
    deliver_round,
    collect_metrics,
    verification_subround_scheduler,
    write_trial_csv,
    write_summary_json,
)
from .baseline import (
    SupportEstimate,
    run_support_estimation,
    write_baseline_csv,
    write_baseline_summary,
)
from .rng import stream

__version__ = "0.1.0"

__all__ = [
    "HMultigraph", "Topology", "NodeClassification", "SpectralEstimate",
    "PowerIterationError", "generate_h_graph", "derive_node_ids",
    "augment_small_world", "default_k", "default_a_radius",
    "default_tree_radius", "ball", "balls", "boundary", "g_ball",
    "full_tree_ball_size", "is_locally_tree_like", "census_locally_tree_like",
    "place_byzantine", "classify_nodes", "longest_byzantine_chain",
    "count_parallel_pairs", "estimate_spectral_gap", "save_topology",
    "load_topology", "reach_within",
    "ORIGIN", "Token", "PhaseParams", "NodeState", "RoundContext",
    "TopologyConflict", "LocalView", "draw_colors",
    "alpha_subphases", "continuation_threshold", "phase_params",
    "honest_node_step", "byzantine_node_step", "reconstruct_local_topology",
    "verify_color_provenance",
    "TRUTHFUL", "Injection", "AdversaryStrategy", "CompositeStrategy",
    "default_injection_color",
    "strategy_honest_mimic", "strategy_silent", "strategy_max_injector",
    "strategy_late_injector", "strategy_topology_liar", "make_strategy",
    "STRATEGY_NAMES",
    "ExperimentConfig", "ConfigError", "RunResult", "SubphaseTrace",
    "run_experiment", "run_trials", "simulate_subphase", "deliver_round",
    "collect_metrics", "verification_subround_scheduler", "write_trial_csv",
    "write_summary_json",
    "SupportEstimate", "run_support_estimation", "write_baseline_csv",
    "write_baseline_summary",
    "stream",
    "__version__",
]
