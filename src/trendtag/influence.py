"""Influence graph construction, personalized random walks, and the
iterative influence-prominence weight learner.

The per-hashtag influence graph inverts Wikipedia link directions (a link
endorses its source), weights edges by in-link relatedness, and drives a
damped random walk restarted from the fused similarity scores. The
learner alternates walk scoring with projected gradient steps on the
fusion weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .wiki import WikiSnapshot

WALK_TOL = 1e-10
WALK_MAX_ITER = 200


def milne_witten(e1: str, e2: str, snapshot: WikiSnapshot) -> float:
    """In-link overlap relatedness of two entities, clamped to [0, 1].

    Degenerate cases (empty in-link sets, empty intersection, corpus not
    larger than the bigger in-link set) return 0.
    """
    i1 = snapshot.incoming(e1)
    i2 = snapshot.incoming(e2)
    inter = len(i1 & i2)
    lo, hi = sorted((len(i1), len(i2)))
    total = snapshot.entity_count
    if inter == 0 or lo == 0 or total <= hi:
        return 0.0
    denom = math.log(total) - math.log(lo)
    if denom <= 0:
        return 0.0
    mw = 1.0 - (math.log(hi) - math.log(inter)) / denom
    return min(max(mw, 0.0), 1.0)


@dataclass
class InfluenceGraph:
    """Candidate entities with a column-stochastic influence transition matrix.

    Column i holds the out-distribution of node i; mass flows along
    inverted Wikipedia links (from a link's target entity back to its
    source entity). Columns with no outgoing relatedness mass are dangling.
    """

    nodes: tuple[str, ...]
    matrix: np.ndarray
    dangling: np.ndarray

    @property
    def size(self) -> int:
        return len(self.nodes)


def build_influence_graph(entities, snapshot: WikiSnapshot) -> InfluenceGraph:
    """Restrict the inverted link graph to the candidates and weight it.

    A Wikipedia link a -> b becomes an influence edge b -> a, so column b
    sends mass to a. Edge weights are pairwise relatedness, normalized per
    column; zero-mass columns are marked dangling.
    """
    nodes = tuple(sorted(set(entities)))
    n = len(nodes)
    if n == 0:
        raise ValueError("candidate set is empty")
    idx = {e: i for i, e in enumerate(nodes)}
    matrix = np.zeros((n, n))
    for i, e in enumerate(nodes):
        # influence out-neighbors of e: candidates whose articles link to e
        for src in snapshot.incoming(e):
            j = idx.get(src)
            if j is not None and j != i:
                matrix[j, i] = milne_witten(e, src, snapshot)
    sums = matrix.sum(axis=0)
    dangling = sums <= 0
    matrix[:, ~dangling] /= sums[~dangling]
    return InfluenceGraph(nodes, matrix, dangling)


def random_walk(graph: InfluenceGraph, s: np.ndarray,
                tau: float = 0.85) -> tuple[np.ndarray, bool]:
    """Fixed point of r = tau*B'r + (1-tau)*s, where B' completes dangling
    columns with the uniform distribution.

    Uniform (rather than s-dependent) dangling completion keeps the walk an
    exactly linear function of the teleport vector, which the weight
    learner's gradient relies on. Power iteration stops once an update
    moves r by less than WALK_TOL in L1. Returns the score vector and a
    convergence flag; after WALK_MAX_ITER updates the last iterate is
    returned with the flag False.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0) or not math.isclose(s.sum(), 1.0, abs_tol=1e-9):
        raise ValueError("teleport vector must be a probability distribution")
    if not 0 <= tau < 1:
        raise ValueError("damping factor must be in [0, 1)")
    n = graph.size
    r = s.copy()
    for _ in range(WALK_MAX_ITER):
        nxt = tau * (graph.matrix @ r + r[graph.dangling].sum() / n) + (1 - tau) * s
        if np.abs(nxt - r).sum() < WALK_TOL:
            return nxt, True
        r = nxt
    return r, False


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    n = len(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, n + 1) > css - 1.0)[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1)
    return np.clip(v - theta, 0.0, None)


@dataclass
class IPLConfig:
    k: int = 15
    mu: float = 0.003
    epsilon: float = 1e-6
    max_iterations: int = 500
    tau: float = 0.85

    def __post_init__(self):
        if self.k < 1 or self.mu <= 0 or self.epsilon <= 0:
            raise ValueError("k must be >= 1 and mu, epsilon positive")
        if not 0 <= self.tau < 1:
            raise ValueError("tau must be in [0, 1)")


@dataclass
class IPLStep:
    loss: float
    top_k: tuple[int, ...]
    weights: tuple[float, float, float]


@dataclass
class IPLResult:
    weights: tuple[float, float, float]  # (alpha, beta, gamma)
    ranking: list[tuple[str, float]]     # top-k (entity, walk score), descending
    scores: np.ndarray                   # final walk scores, all nodes
    fused: np.ndarray                    # final fused similarity, all nodes
    history: list[IPLStep] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.history)


def top_k_indices(scores: np.ndarray, nodes, k: int) -> np.ndarray:
    """Indices of the k highest scores, ties broken by entity id (or by any
    key that sorts like it, such as the ids' integer ranks)."""
    order = np.lexsort((np.asarray(nodes), -scores))
    return order[:k]


def ipl(f_m, f_c, f_t, graph: InfluenceGraph,
        config: IPLConfig | None = None) -> IPLResult:
    """Learn the fusion weights by alternating walk scoring and gradient steps.

    Inputs are the component similarity vectors, each normalized to sum 1.
    Each iteration fuses them with the current weights, scores the walk
    from the fused distribution, and takes a projected gradient step on
    the squared top-k error between fused and walk scores. The walk is
    linear in its teleport vector, so walk(C @ omega) == W @ omega for the
    three component walks W: they are the only walks run, and both the
    scores and the gradient come from them. The returned weights are the
    last ones scored, so they produce the returned fused and walk scores.
    """
    config = config or IPLConfig()
    components = np.column_stack([
        np.asarray(f_m, dtype=float),
        np.asarray(f_c, dtype=float),
        np.asarray(f_t, dtype=float),
    ])
    for col in range(3):
        if not math.isclose(components[:, col].sum(), 1.0, abs_tol=1e-9):
            raise ValueError("each similarity component must be normalized to sum 1")
    walks = np.column_stack([random_walk(graph, components[:, col], config.tau)[0]
                             for col in range(3)])

    # integer ranks of the entity ids: the same tie order, cheaper to sort
    rank = np.empty(graph.size, dtype=np.int64)
    rank[np.argsort(np.asarray(graph.nodes), kind="stable")] = np.arange(graph.size)

    def score(omega):
        scores = walks @ omega
        return components @ omega, scores, top_k_indices(scores, rank, config.k)

    omega = np.full(3, 1.0 / 3.0)
    fused, scores, top = score(omega)
    history: list[IPLStep] = []
    converged = False
    for step in range(1, config.max_iterations + 1):
        residual = fused[top] - scores[top]
        loss = 0.5 * float(residual @ residual)
        history.append(IPLStep(loss, tuple(top.tolist()), tuple(omega)))
        if loss < config.epsilon:
            converged = True
            break
        if step < config.max_iterations:
            gradient = residual @ (components[top] - walks[top])
            omega = project_simplex(omega - config.mu * gradient)
            fused, scores, top = score(omega)

    ranking = [(graph.nodes[i], float(scores[i])) for i in top.tolist()]
    return IPLResult(tuple(float(x) for x in omega), ranking, scores, fused,
                     history, converged)
