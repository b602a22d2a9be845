"""Simulator and verification toolkit for a reinforced growth process on
finite graphs.

Particles are allocated one per step, each vertex weighted by the exponential
of a linear function of the counts in its closed neighbourhood.  With positive
own-weight alpha and neighbour-weight beta the process localises: on a single
vertex when beta < alpha, on a maximal clique when alpha <= beta.  The package
samples the chain, detects final maximal cliques, computes exact small-horizon
probabilities and certified lower bounds, and aggregates Monte Carlo evidence
for the localisation behaviour.
"""

from .analysis import (
    Classification,
    LocalisationReport,
    ReplicaOutcome,
    ZChainPath,
    c_matrix,
    classify_outcome,
    lln_deviation,
    localisation_set,
    monte_carlo_report,
    replica_outcome,
    z_chain,
)
from .detection import check_final_properties, final_maximal_clique
from .graphs import (
    DPartition,
    Graph,
    GraphParseError,
    OrderedClique,
    complete_graph,
    d_sets,
    enumerate_maximal_cliques,
    is_clique,
    is_connected,
    is_maximal_clique,
    parse_graph,
    path_graph,
    validate_partition,
)
from .oracle import (
    confinement_prob,
    drift_shell_max,
    epsilon_lower_bound,
    epsilon_n,
    negative_drift_radius,
    p11_bound,
    q_measure,
    single_vertex_bound,
    z_drift,
    z_transition_probs,
)
from .process import (
    RateParams,
    State,
    Trajectory,
    exponent_vector,
    make_rng,
    run,
    transition_probs,
    write_trajectory_csv,
)

__version__ = "0.1.0"
