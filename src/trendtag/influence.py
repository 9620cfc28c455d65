"""Influence graph construction, personalized random walks, and the
iterative influence-prominence weight learner.

The per-hashtag influence graph inverts Wikipedia link directions (a link
endorses its source), weights edges by in-link relatedness, and drives a
damped random walk restarted from the fused similarity scores. The graph
is held as edge arrays (source, target, weight), not as a dense matrix:
it is very sparse, and each walk step is one np.bincount over the edges.
The learner alternates walk scoring with projected gradient steps on the
fusion weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import check_field_types
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
    """Candidate entities with a column-stochastic influence transition,
    held as edge arrays.

    Edge k sends the share weight[k] of node src[k]'s mass to node dst[k];
    mass flows along inverted Wikipedia links (from a link's target entity
    back to its source entity). The weights leaving each node sum to 1,
    except at dangling nodes, which have no outgoing relatedness mass and
    no edges. The dense matrix, column i holding node i's out-distribution,
    is built only on request.
    """

    nodes: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    dangling: np.ndarray

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def matrix(self) -> np.ndarray:
        """The dense transition matrix: entry (dst, src) is the edge weight."""
        dense = np.zeros((self.size, self.size))
        dense[self.dst, self.src] = self.weight
        return dense

    @classmethod
    def from_matrix(cls, nodes, matrix, dangling) -> InfluenceGraph:
        """The graph of a dense column-stochastic matrix over nodes.

        Every column must sum to 1, except dangling ones, which must be
        all zero; no entry may be negative.
        """
        nodes = tuple(nodes)
        matrix = np.asarray(matrix, dtype=float)
        dangling = np.asarray(dangling, dtype=bool)
        n = len(nodes)
        if matrix.shape != (n, n) or dangling.shape != (n,):
            raise ValueError("matrix must be square and dangling a flag per node")
        if np.any(matrix < 0):
            raise ValueError("matrix entries must be non-negative")
        if np.any(matrix[:, dangling] != 0):
            raise ValueError("dangling columns must be all zero")
        sums = matrix[:, ~dangling].sum(axis=0)
        if not np.allclose(sums, 1.0, rtol=0, atol=1e-9):
            raise ValueError("non-dangling columns must sum to 1")
        src, dst = np.nonzero(matrix.T)
        return cls(nodes, src, dst, matrix[dst, src], dangling)


def build_influence_graph(entities, snapshot: WikiSnapshot) -> InfluenceGraph:
    """Restrict the inverted link graph to the candidates and weight it.

    A Wikipedia link a -> b becomes an influence edge b -> a, so node b
    sends mass to a. Edge weights are pairwise relatedness, normalized per
    source node; nodes with no positive-weight edge are dangling. Edges
    are ordered by source, then target, whatever the hash seed, so each
    per-node sum adds its terms in one fixed order.
    """
    nodes = tuple(sorted(set(entities)))
    n = len(nodes)
    if n == 0:
        raise ValueError("candidate set is empty")
    idx = {e: i for i, e in enumerate(nodes)}
    src: list[int] = []
    dst: list[int] = []
    weight: list[float] = []
    for i, e in enumerate(nodes):
        # influence out-neighbors of e: candidates whose articles link to e
        for linker in sorted(snapshot.incoming(e)):
            j = idx.get(linker)
            if j is not None and j != i:
                mw = milne_witten(e, linker, snapshot)
                if mw > 0:
                    src.append(i)
                    dst.append(j)
                    weight.append(mw)
    src_a = np.array(src, dtype=np.intp)
    weight_a = np.array(weight, dtype=float)
    sums = np.bincount(src_a, weights=weight_a, minlength=n)
    dangling = sums <= 0
    return InfluenceGraph(nodes, src_a, np.array(dst, dtype=np.intp),
                          weight_a / sums[src_a], dangling)


def random_walk(graph: InfluenceGraph, s: np.ndarray,
                tau: float = 0.85) -> tuple[np.ndarray, bool]:
    """Fixed point of r = tau*B'r + (1-tau)*s, where B' completes dangling
    columns with the uniform distribution.

    Uniform (rather than s-dependent) dangling completion keeps the walk an
    exactly linear function of the teleport vector, which the weight
    learner's gradient relies on. Each power-iteration step scatters
    weight * r[src] onto dst over the edge arrays and spreads the dangling
    mass uniformly; iteration stops once an update moves r by less than
    WALK_TOL in L1. Returns the score vector and a convergence flag; after
    WALK_MAX_ITER updates the last iterate is returned with the flag False.
    """
    s = np.asarray(s, dtype=float)
    n = graph.size
    if s.shape != (n,):
        raise ValueError("teleport vector must have one entry per node")
    if np.any(s < 0) or not math.isclose(s.sum(), 1.0, abs_tol=1e-9):
        raise ValueError("teleport vector must be a probability distribution")
    if not 0 <= tau < 1:
        raise ValueError("damping factor must be in [0, 1)")
    src, dst, weight, dangling = graph.src, graph.dst, graph.weight, graph.dangling
    r = s.copy()
    for _ in range(WALK_MAX_ITER):
        spread = np.bincount(dst, weights=weight * r[src], minlength=n)
        nxt = tau * (spread + r[dangling].sum() / n) + (1 - tau) * s
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
        check_field_types(self)
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
