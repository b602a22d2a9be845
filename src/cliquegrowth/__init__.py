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

# Each module's __all__ is the one list of its public names; the package
# republishes them all.
from .analysis import *
from .detection import *
from .graphs import *
from .oracle import *
from .process import *

__version__ = "0.1.0"
