"""networkx's weighted Blossom as an independent oracle for the matchers.

The library's ``"blossom"`` solver is :func:`repro.core.matching.exact_matching`,
a pure-Python Edmonds search.  This module keeps a second implementation
of the same problem, a maximum-cardinality matching on the complement of the
column conflict graph, so the tests can check that every maximum matching
pads the same number of zero columns.  networkx is a test-only dependency.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.core.conflict import conflict_matrix
from repro.core.matching import MatchingResult


def blossom_matching(matrix: np.ndarray) -> MatchingResult:
    """Maximum pairing of conflict-free columns by networkx's Blossom."""
    adjacency = conflict_matrix(np.asarray(matrix, dtype=float))
    n = adjacency.shape[0]
    complement = nx.Graph()
    complement.add_nodes_from(range(n))
    free_rows, free_cols = np.nonzero(np.triu(~adjacency, k=1))
    complement.add_edges_from(zip(free_rows.tolist(), free_cols.tolist()))
    matching = nx.max_weight_matching(complement, maxcardinality=True)
    matched = {column for edge in matching for column in edge}
    pairs = sorted((min(u, v), max(u, v)) for u, v in matching)
    pairs += [(column, None) for column in range(n) if column not in matched]
    return MatchingResult(pairs=tuple(pairs), n_columns=n, method="blossom")
