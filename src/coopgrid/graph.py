"""Communication graph and averaging-consensus primitives.

Mixing weights follow the Metropolis-Hastings rule

    w_ij = 1 / (1 + max(deg_i, deg_j))   for each edge {i, j}
    w_ii = 1 - sum_j w_ij

which yields a symmetric doubly stochastic matrix on any connected graph, so
repeated mixing drives every node to the average of the initial values while
conserving their sum at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_CONSENSUS_ROUNDS = 100_000


class GraphError(ValueError):
    pass


@dataclass
class CommGraph:
    node_ids: tuple[int, ...]            # sorted, stable node order
    edges: tuple[tuple[int, int], ...]
    weights: np.ndarray = field(compare=False)   # (n, n) Metropolis matrix of the above


@dataclass
class ConsensusState:
    values: np.ndarray    # (n,) or (n, T): one row per node
    iteration: int = 0


def metropolis_weights(node_ids, edges) -> CommGraph:
    """Build a CommGraph with Metropolis mixing weights.

    One pass over `edges` maps each node to its neighbours, from which the
    walk, the sorted edges and the degrees all read.  Raises GraphError when
    the graph is disconnected or an edge is malformed.
    """
    node_ids = tuple(sorted(int(i) for i in node_ids))
    nbrs = {i: set() for i in node_ids}
    if len(nbrs) != len(node_ids):
        raise GraphError("duplicate node ids")
    for a, b in edges:
        a, b = int(a), int(b)
        if a == b:
            raise GraphError(f"self-loop on node {a}")
        if a not in nbrs or b not in nbrs:
            raise GraphError(f"edge ({a}, {b}) references an unknown node")
        nbrs[a].add(b)
        nbrs[b].add(a)
    seen, stack = set(node_ids[:1]), list(node_ids[:1])
    while stack:   # depth-first walk from the first node
        fresh = nbrs[stack.pop()] - seen
        seen |= fresh
        stack.extend(fresh)
    if not node_ids or len(seen) < len(node_ids):
        raise GraphError("communication graph is not connected")
    pos = {v: k for k, v in enumerate(node_ids)}
    edges = tuple(sorted((a, b) for a in node_ids for b in nbrs[a] if a < b))
    w = np.zeros((len(node_ids), len(node_ids)))
    for a, b in edges:
        w[pos[a], pos[b]] = w[pos[b], pos[a]] = 1.0 / (1.0 + max(len(nbrs[a]), len(nbrs[b])))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return CommGraph(node_ids, edges, w)


def run_consensus(initial, graph: CommGraph, tol: float = 1e-9) -> ConsensusState:
    """Mix until every node is within tol of the average of the initial values.

    Each round is one synchronous mixing step x_i += sum_j w_ij (x_j - x_i),
    and the returned state reports how many rounds were used.  A start value
    that is not finite (a diverged cost, say) has no average to reach: it
    raises GraphError before any round.  The average is summed from the
    values divided by n, so finite starts cannot overflow it.  The test never
    asks for more than floats resolve: a round's n-term sums can move the
    nodes' mean by about n * spacing(max |start|), so after k rounds tol is
    at least (k + 1) times that.  The round cap is fixed at
    MAX_CONSENSUS_ROUNDS; hitting it without agreement raises GraphError since
    on a connected graph the iteration provably contracts.
    """
    values = np.array(initial, dtype=float)
    if not np.isfinite(values).all():
        raise GraphError("consensus cannot start: a start value is not finite")
    n = values.shape[0]
    target = (values / n).sum(axis=0)
    rounding = n * float(np.spacing(np.abs(values).max()))
    rounds = 0
    while np.abs(values - target).max() > max(tol, (rounds + 1) * rounding):
        if rounds >= MAX_CONSENSUS_ROUNDS:
            raise GraphError(f"consensus not within {tol} after {MAX_CONSENSUS_ROUNDS} rounds")
        values = graph.weights @ values
        rounds += 1
    return ConsensusState(values, rounds)
