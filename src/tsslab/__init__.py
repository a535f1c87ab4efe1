"""Threshold-activation influence problems on graphs.

Instances pair a simple undirected graph with per-vertex activation
thresholds.  The package provides the deterministic propagation engine,
exact and heuristic seed-set solvers, monotone-circuit machinery, gadget
constructions that rewrite instances while preserving their optima, and
randomized verification suites that check everything against naive
reference oracles.
"""

from .circuits import (
    MonotoneCircuit,
    build_circuit,
    evaluate,
    min_weight_satisfying,
    parse_circuit,
    write_circuit,
)
from .gadgets import (
    InstanceBuilder,
    ReducedInstance,
    reduce_thresholds_to_two,
)
from .instance import (
    GeneratorConfig,
    Graph,
    Instance,
    ParseError,
    generate_random,
    parse_instance,
    write_instance,
)
from .propagation import (
    PropagationTrace,
    Propagator,
    activate,
    activate_round,
    influence,
    is_target_set,
)
from .reductions import (
    GapParameters,
    choose_gap_padding,
    clique_to_max_influence,
    is_to_influence_decision,
    is_to_min_closed_influence,
    map_target_set_to_assignment,
    mcs_to_tss,
    rho_preset,
)
from .solvers import (
    SolveResult,
    greedy_target_set,
    k_influence,
    min_open_influence_unanimity,
    optimal_target_set,
    unanimity_target_set_2approx,
)

__version__ = "0.1.0"

__all__ = [
    "GapParameters",
    "GeneratorConfig",
    "Graph",
    "Instance",
    "InstanceBuilder",
    "MonotoneCircuit",
    "ParseError",
    "PropagationTrace",
    "Propagator",
    "ReducedInstance",
    "SolveResult",
    "activate",
    "activate_round",
    "build_circuit",
    "choose_gap_padding",
    "clique_to_max_influence",
    "evaluate",
    "generate_random",
    "greedy_target_set",
    "influence",
    "is_target_set",
    "is_to_influence_decision",
    "is_to_min_closed_influence",
    "k_influence",
    "map_target_set_to_assignment",
    "mcs_to_tss",
    "min_open_influence_unanimity",
    "min_weight_satisfying",
    "optimal_target_set",
    "parse_circuit",
    "parse_instance",
    "reduce_thresholds_to_two",
    "rho_preset",
    "unanimity_target_set_2approx",
    "write_circuit",
    "write_instance",
]
