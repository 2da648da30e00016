"""Column matching for 2:4 conversion (§3.2, Algorithm 1).

The 2:4 constraint decomposes into 1:2 sub-patterns: if columns are arranged
in consecutive *pairs* such that no row holds a nonzero in both columns of a
pair, then any two adjacent pairs form a 4-group with at most two nonzeros
per row.  Finding such pairs while inserting as few all-zero columns as
possible is the Minimum Zero-Column Matching problem (Problem 1).

Three solvers are provided:

* :func:`hierarchical_matching` — Algorithm 1 of the paper.  It exploits the
  self-similar k-staircase structure of the morphed kernel matrix: blocks at
  least ``k`` apart never conflict (Theorem 1), so pairing block ``i`` with
  block ``i + s1`` (``s1 = max(⌊m/2⌋, k)``) and, inside leftover blocks,
  column ``u`` with ``u + s2`` (``s2 = max(⌊g/2⌋, k)``) yields a valid
  matching with the minimum number of zero columns (Theorem 2) in ``O(|V|)``.
* :func:`greedy_matching` — first-fit pairing, the bounded fallback for
  conflict graphs too large for an exact solver.
* :func:`exact_matching` — the general fallback for arbitrary sparsity, the
  paper's Blossom step: a maximum-cardinality matching on the *complement*
  of the conflict graph by Edmonds' algorithm (1965), in pure Python over
  neighbour lists.  The greedy pairing is grown by augmenting-path search
  with blossom contraction.

The layout search scores every candidate with :func:`exact_matching`, and
the conversion of the winning layout runs it once more; its pairing fixes
the plan's permutation (and with it the fp32 accumulation order of the
sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.conflict import conflict_matrix
from repro.core.staircase import BlockStructure
from repro.util.arrays import ceil_div
from repro.util.validation import require, require_array

__all__ = [
    "MatchingResult",
    "hierarchical_matching",
    "greedy_matching",
    "exact_matching",
    "matching_to_permutation",
]

#: Partner value meaning "paired with an inserted all-zero column".
ZERO_PAD = None


@dataclass(frozen=True)
class MatchingResult:
    """A pairing of the kernel-matrix columns.

    Attributes
    ----------
    pairs:
        One entry per pair ``(i, j)``; ``j is None`` means column ``i`` is
        paired with an inserted zero column.
    n_columns:
        Number of original columns covered.
    method:
        ``"hierarchical"``, ``"greedy"`` or ``"exact"``.
    """

    pairs: Tuple[Tuple[int, Optional[int]], ...]
    n_columns: int
    method: str

    @property
    def n_pad(self) -> int:
        """Zero columns required by the pairing itself (before 4-alignment)."""
        return sum(1 for _, j in self.pairs if j is None)

    def covered_columns(self) -> List[int]:
        """All original column indices covered by the matching, in pair order."""
        covered: List[int] = []
        for i, j in self.pairs:
            covered.append(i)
            if j is not None:
                covered.append(j)
        return covered

    def is_cover(self) -> bool:
        """Coverage requirement of Definition 3: every column in exactly one pair."""
        covered = self.covered_columns()
        return len(covered) == self.n_columns and set(covered) == set(range(self.n_columns))

    def is_conflict_free(self, matrix: np.ndarray) -> bool:
        """Conflict-freedom requirement of Definition 3 against a concrete matrix."""
        adjacency = conflict_matrix(matrix)
        for i, j in self.pairs:
            if j is not None and adjacency[i, j]:
                return False
        return True


def hierarchical_matching(structure: BlockStructure) -> MatchingResult:
    """Algorithm 1: Hierarchical Two-Level Matching.

    Operates purely on the block structure — the k-staircase property
    guarantees that the produced pairs are conflict-free, which callers can
    (and the conversion stage does) double-check against the actual matrix.
    """
    g = structure.block_size
    k = structure.k
    m_blocks = structure.n_blocks

    # ----- level 1: match whole blocks that are >= s1 apart ----------------
    s1 = max(m_blocks // 2, k)
    block_matched = [False] * m_blocks
    block_pairs: List[Tuple[int, int]] = []
    for i in range(m_blocks):
        if not block_matched[i] and i + s1 < m_blocks and not block_matched[i + s1]:
            block_pairs.append((i, i + s1))
            block_matched[i] = True
            block_matched[i + s1] = True

    # ----- level 2: match columns inside the leftover blocks ----------------
    s2 = max(g // 2, k)
    column_pairs: List[Tuple[int, Optional[int]]] = []
    for block in range(m_blocks):
        if block_matched[block]:
            continue
        base = block * g
        col_matched = [False] * g
        for u in range(g):
            if col_matched[u]:
                continue
            v = u + s2
            if v < g and not col_matched[v]:
                column_pairs.append((base + u, base + v))
                col_matched[u] = True
                col_matched[v] = True
            else:
                column_pairs.append((base + u, ZERO_PAD))
                col_matched[u] = True

    # ----- merge: expand block pairs column-by-column -----------------------
    pairs: List[Tuple[int, Optional[int]]] = []
    for p, q in block_pairs:
        base_p, base_q = p * g, q * g
        for t in range(g):
            pairs.append((base_p + t, base_q + t))
    pairs.extend(column_pairs)

    return MatchingResult(pairs=tuple(pairs),
                          n_columns=structure.n_columns,
                          method="hierarchical")


def greedy_matching(matrix: np.ndarray) -> MatchingResult:
    """First-fit pairing on the conflict graph.

    Scans columns left to right and pairs each unmatched column with the first
    later unmatched column it does not conflict with, padding with a zero
    column when none exists.  Runs in ``O(|V|^2)`` with vectorised adjacency
    lookups and produces minimal padding on the banded conflict structures the
    morphed kernel matrices exhibit; it is the default fallback for layouts
    whose block structure is not a clean two-level staircase (e.g. 3D tiles),
    where an exact matching's cubic worst case would dominate compilation
    time.
    """
    matrix = require_array(matrix, "matrix", ndim=2)
    mate = _first_fit(conflict_matrix(matrix))
    return MatchingResult(pairs=_pairs_from_mates(mate), n_columns=len(mate),
                          method="greedy")


def _first_fit(adjacency: np.ndarray) -> List[int]:
    """Greedy partners (``-1`` for unpaired) over a conflict adjacency."""
    n = adjacency.shape[0]
    matched = np.zeros(n, dtype=bool)
    mate = [-1] * n
    for column in range(n):
        if matched[column]:
            continue
        matched[column] = True
        tail = ~adjacency[column, column + 1:] & ~matched[column + 1:]
        candidates = np.nonzero(tail)[0]
        if candidates.size:
            partner = column + 1 + int(candidates[0])
            matched[partner] = True
            mate[column], mate[partner] = partner, column
    return mate


def _pairs_from_mates(mate: List[int]) -> Tuple[Tuple[int, Optional[int]], ...]:
    """Pairs in order of their first column; unpaired columns get a zero pad."""
    return tuple((column, ZERO_PAD if partner == -1 else partner)
                 for column, partner in enumerate(mate)
                 if partner == -1 or partner > column)


def exact_matching(matrix: np.ndarray) -> MatchingResult:
    """Maximum-cardinality pairing on the complement of the conflict graph.

    Any two columns *not* connected in the conflict graph may share a pair;
    maximising the number of such pairs minimises the zero columns needed.
    Starts from the first-fit pairing of :func:`greedy_matching` and grows
    it with Edmonds' augmenting-path search: a breadth-first alternating
    tree from each exposed column, odd cycles (blossoms) contracted onto
    their base.  A column with no augmenting path never gains one after
    later augmentations, so each exposed column is searched once, and the
    search stops as soon as fewer than two columns are exposed.
    """
    matrix = require_array(matrix, "matrix", ndim=2)
    adjacency = conflict_matrix(matrix)
    mate = _first_fit(adjacency)
    exposed = [column for column, partner in enumerate(mate) if partner == -1]
    if len(exposed) >= 2:
        free = ~adjacency
        np.fill_diagonal(free, False)
        neighbours = [np.flatnonzero(row).tolist() for row in free]
        n_exposed = len(exposed)
        for root in exposed:
            if n_exposed < 2:
                break
            if mate[root] == -1 and _augment(root, neighbours, mate):
                n_exposed -= 2
    return MatchingResult(pairs=_pairs_from_mates(mate), n_columns=len(mate),
                          method="exact")


def _augment(root: int, neighbours: List[List[int]], mate: List[int]) -> bool:
    """Augment ``mate`` along one alternating path from exposed ``root``.

    Edmonds' search: ``parent`` links odd (outer-to-inner) tree edges,
    ``base`` maps each vertex to the base of the blossom it was contracted
    into, and ``outer`` marks vertices at even depth, which are the ones the
    queue expands.  Returns ``False``, leaving ``mate`` unchanged, when no
    augmenting path exists.
    """
    n = len(mate)
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    outer[root] = True
    queue = [root]

    def common_base(u: int, v: int) -> int:
        seen = [False] * n
        while True:
            u = base[u]
            seen[u] = True
            if mate[u] == -1:
                break
            u = parent[mate[u]]
        while True:
            v = base[v]
            if seen[v]:
                return v
            v = parent[mate[v]]

    def mark_path(v: int, stop: int, child: int, in_blossom: List[bool]) -> None:
        while base[v] != stop:
            in_blossom[base[v]] = in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for u in neighbours[v]:
            if base[v] == base[u] or mate[v] == u:
                continue
            if u == root or (mate[u] != -1 and parent[mate[u]] != -1):
                # an outer-outer edge closes an odd cycle: contract it
                new_base = common_base(v, u)
                in_blossom = [False] * n
                mark_path(v, new_base, u, in_blossom)
                mark_path(u, new_base, v, in_blossom)
                for w in range(n):
                    if in_blossom[base[w]]:
                        base[w] = new_base
                        if not outer[w]:
                            outer[w] = True
                            queue.append(w)
            elif parent[u] == -1:
                parent[u] = v
                if mate[u] == -1:
                    # exposed endpoint: flip the path back to the root
                    while u != -1:
                        v = parent[u]
                        after = mate[v]
                        mate[u], mate[v] = v, u
                        u = after
                    return True
                outer[mate[u]] = True
                queue.append(mate[u])
    return False


def matching_to_permutation(matching: MatchingResult) -> Tuple[np.ndarray, int]:
    """Turn a matching into a column permutation over the zero-padded matrix.

    Returns ``(order, n_total)`` where ``n_total`` is the padded column count
    (a multiple of 4 so fragments tile cleanly) and ``order`` is an index
    array of length ``n_total``: entries below ``matching.n_columns`` select
    original columns, entries at or above it select inserted zero columns.
    Laying columns out in ``order`` puts each matched pair in adjacent slots,
    which is exactly what makes every 4-group 2:4-compliant.
    """
    require(matching.is_cover(),
            "matching does not cover every column exactly once")
    n = matching.n_columns
    order: List[int] = []
    next_pad = n
    for i, j in matching.pairs:
        order.append(i)
        if j is None:
            order.append(next_pad)
            next_pad += 1
        else:
            order.append(j)

    # Pad with whole zero pairs until the column count is a multiple of 4.
    while len(order) % 4 != 0:
        order.append(next_pad)
        next_pad += 1

    return np.asarray(order, dtype=np.int64), len(order)
