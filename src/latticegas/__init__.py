"""Exact independent-set statistics for hard-particle lattice models.

Count configurations on finite pieces of four lattice families (plane,
cylinder or torus), take Perron roots of the matching transfer chains,
and squeeze the per-vertex entropy constant between a strip lower
bound and a wrapped upper bound.
"""

from .statespace import StateKind, StateSpace, enumerate_states
from .compat import StepMatrix
from .chain import (
    Boundary,
    Direction,
    Family,
    LatticeInstance,
    Topology,
    TransferChain,
    count_lattice,
    transfer_chain,
)
from .spectral import ConvergenceError, EigenResult, dominant_eigenvalue
from .oracle import brute_count, build_graph, sweep, verify_instance
from .bounds import BoundReport, entropy_interval, bound_table

__version__ = "0.1.0"

__all__ = [
    "StateKind",
    "StateSpace",
    "enumerate_states",
    "StepMatrix",
    "Family",
    "Direction",
    "Boundary",
    "Topology",
    "TransferChain",
    "transfer_chain",
    "LatticeInstance",
    "count_lattice",
    "ConvergenceError",
    "EigenResult",
    "dominant_eigenvalue",
    "build_graph",
    "brute_count",
    "verify_instance",
    "sweep",
    "BoundReport",
    "entropy_interval",
    "bound_table",
    "__version__",
]
