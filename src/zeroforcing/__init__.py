"""Zero forcing and failed zero forcing on small simple graphs.

The package computes exact zero forcing and failed zero forcing numbers
(by the wavefront and from forts), builds guaranteed large stalled sets
constructively, reads and writes graph6, and tallies census tables over
all connected isomorphism classes for small vertex counts.
"""

from .census import (
    BUILTIN_MAX,
    CensusTable,
    Finding,
    canonical_form,
    check_values,
    generate_graphs,
    run_census,
)
from .exact import (
    EXACT_CAP_DEFAULT,
    ExactCapExceeded,
    ExactResult,
    failed_zero_forcing_number,
    zero_forcing_number,
)
from .forcing import (
    derived_set,
    is_zero_forcing,
)
from .graph6_io import Graph6Error, parse_graph6, write_graph6
from .graph_core import (
    Graph,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    from_edges,
    is_connected,
    iter_bits,
    mask_of,
    path_graph,
    vertices_of,
)
from .witness import (
    ConstructionError,
    WitnessReport,
    verify_witness,
    witness_delta3,
    witness_general,
)

__all__ = [
    "BUILTIN_MAX",
    "CensusTable",
    "ConstructionError",
    "EXACT_CAP_DEFAULT",
    "ExactCapExceeded",
    "ExactResult",
    "Finding",
    "Graph",
    "Graph6Error",
    "WitnessReport",
    "canonical_form",
    "check_values",
    "complete_bipartite",
    "complete_graph",
    "connected_components",
    "cycle_graph",
    "derived_set",
    "failed_zero_forcing_number",
    "from_edges",
    "generate_graphs",
    "is_connected",
    "is_zero_forcing",
    "iter_bits",
    "mask_of",
    "parse_graph6",
    "path_graph",
    "run_census",
    "verify_witness",
    "vertices_of",
    "witness_delta3",
    "witness_general",
    "write_graph6",
    "zero_forcing_number",
]

__version__ = "0.1.0"
