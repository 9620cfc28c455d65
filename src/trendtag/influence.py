"""Influence graph construction, personalized random walks, and the
iterative influence-prominence weight learner.

The per-hashtag influence graph inverts Wikipedia link directions (a link
endorses its source), weights edges by in-link relatedness, and drives a
damped random walk restarted from the fused similarity scores. The graph
is held as edge arrays (source, target, weight), not as a dense matrix:
it is very sparse, and each walk step is one np.bincount over the edges.
The learner alternates walk scoring with projected gradient steps on the
fusion weights; between changes of its top-k set those steps are a linear
map of the three weights, so it computes them in runs of matrix powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import check_field_types
from .wiki import WikiSnapshot, gather

WALK_TOL = 1e-10
WALK_MAX_ITER = 200
# relative slack of the learner's box test: a node outside the top-k whose
# score bound comes this close to the top-k's is checked step by step
BOX_MARGIN = 1e-9
# scores held at once by that step-by-step check
CHECK_BUDGET = 1 << 16
# the learner takes runs shorter than this one step at a time, as that is
# cheaper than checking a run
SHORTEST_RUN = 4


def milne_witten(a, b, snapshot: WikiSnapshot):
    """In-link overlap relatedness, clamped to [0, 1]: of two entities
    given by title, as a float, or of each pair (a[k], b[k]) of two
    equal-length code arrays (either side may be one code), as an array.

    Degenerate cases (an empty in-link list, an empty intersection, a
    corpus not larger than the bigger in-link list) give 0. Each pair
    costs the length of its smaller in-link list: each of those links is
    looked up in the other entity's list through snapshot.in_key. The
    logs come from snapshot.log_table, so every value equals the scalar
    formula's math.log arithmetic bit for bit.
    """
    titles = isinstance(a, str)
    if titles:
        if a not in snapshot.code or b not in snapshot.code:
            return 0.0
        a, b = snapshot.code[a], snapshot.code[b]
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=np.int64)),
                               np.atleast_1d(np.asarray(b, dtype=np.int64)))
    ptr = snapshot.in_ptr
    size_a = ptr[a + 1] - ptr[a]
    size_b = ptr[b + 1] - ptr[b]
    a_smaller = size_a <= size_b
    lo = np.where(a_smaller, size_a, size_b)
    hi = np.where(a_smaller, size_b, size_a)
    linkers, pair = gather(ptr, snapshot.in_src, np.where(a_smaller, a, b))
    total = snapshot.entity_count
    wanted = np.where(a_smaller, b, a)[pair] * total + linkers
    key = snapshot.in_key
    at = np.minimum(np.searchsorted(key, wanted), len(key) - 1)
    inter = np.bincount(pair[key[at] == wanted], minlength=len(a))
    log = snapshot.log_table
    denom = log[total] - log[lo]
    ok = (inter > 0) & (lo > 0) & (total > hi) & (denom > 0)
    mw = np.zeros(len(a))
    mw[ok] = 1.0 - (log[hi[ok]] - log[inter[ok]]) / denom[ok]
    mw = np.clip(mw, 0.0, 1.0)
    return float(mw[0]) if titles else mw


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
    code = snapshot.code
    # the nodes in the snapshot, by node index and by code; both ascend,
    # as codes follow title order
    at = np.array([i for i, e in enumerate(nodes) if e in code], dtype=np.intp)
    codes = np.array([code[nodes[i]] for i in at], dtype=np.int64)
    # influence out-neighbors of each node: candidates whose articles link
    # to it, found by position in codes
    linkers, linked = gather(snapshot.in_ptr, snapshot.in_src, codes)
    linker = np.minimum(np.searchsorted(codes, linkers), len(codes) - 1)
    keep = (codes[linker] == linkers) & (linker != linked)
    linked, linker = linked[keep], linker[keep]
    mw = milne_witten(codes[linked], codes[linker], snapshot)
    related = mw > 0
    src, dst, weight = at[linked[related]], at[linker[related]], mw[related]
    sums = np.bincount(src, weights=weight, minlength=n)
    dangling = sums <= 0
    return InfluenceGraph(nodes, src, dst, weight / sums[src], dangling)


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
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
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


def weigh(rows: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """rows @ omegas for n x 3 rows and 3 x m weights, summed term by term:
    equal rows give equal scores whatever their position or count, and no
    BLAS matrix product runs (its work buffer adds half a MB to peak RSS)."""
    return rows[:, :1] * omegas[0] + rows[:, 1:2] * omegas[1] + rows[:, 2:] * omegas[2]


def powers(step: np.ndarray, omega: np.ndarray, length: int) -> np.ndarray:
    """The iterates step^j @ omega for j = 1..length, as columns, by
    repeated squaring. An iterate past the point where the iterates leave
    the simplex may overflow; the caller cuts those columns off."""
    omegas = weigh(step, omega[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        while omegas.shape[1] < length:
            omegas = np.concatenate([omegas, weigh(step, omegas)], axis=1)
            step = weigh(step, step)
    return omegas[:, :length]


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

    Iterations are computed in runs, not one at a time. With D = C - W and
    the top-k set T fixed, the loss is |D_T omega|^2 / 2; while a step
    stays strictly inside the simplex, the projection only takes out the
    gradient's mean, so the step is omega <- A omega with the 3 x 3
    A = I - mu (I - 11'/3) D_T' D_T. A run is a stretch of such steps,
    and its length doubles from 1 while T holds and the weights stay
    inside. Runs shorter than SHORTEST_RUN are taken one step at a time,
    as the one-step loop takes them: a projection, then T over all nodes.
    A longer run computes its iterates A^j omega by repeated squaring,
    their losses in one product, and each step's ordered top-k from the k
    scores of T. It ends at the first iterate that leaves the open simplex
    (that step is then taken with project_simplex), at the first change
    of T (recomputed there over all nodes), at a loss below epsilon, or
    at max_iterations.

    T is checked without scoring every node at every iterate: W >= 0, so
    over the box spanned by a run's iterates a node's score lies between
    its scores at the box's low and high corners. Only the nodes outside T
    whose high score reaches the lowest low score in T are scored step by
    step, in blocks, and compared by top_k_indices' key. The steps, top-k
    sets and convergence are those of the one-step loop; the weights and
    scores differ from it by float rounding (below 1e-13 on the benchmark
    worlds and the test graphs).
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
    gaps = components - walks  # D: the residual on the top-k is gaps[top] @ omega
    mu, max_steps = config.mu, config.max_iterations

    # integer ranks of the entity ids: the same tie order, cheaper to sort
    rank = np.empty(graph.size, dtype=np.int64)
    rank[np.argsort(np.asarray(graph.nodes), kind="stable")] = np.arange(graph.size)
    history: list[IPLStep] = []

    def score(omega):
        """Record omega's step, its top-k found over all nodes, as the
        one-step loop does; return that top-k, its residual and whether
        the step converged."""
        scores = walks @ omega
        top = top_k_indices(scores, rank, config.k)
        residual = (components @ omega)[top] - scores[top]
        loss = 0.5 * float(residual @ residual)
        history.append(IPLStep(loss, tuple(top.tolist()), tuple(omega.tolist())))
        return top, residual, loss < config.epsilon

    def record_run(omegas, tops, losses) -> bool:
        """Record a step per column of omegas, up to the first whose loss is
        below epsilon; True if there is one."""
        below = np.flatnonzero(losses < config.epsilon)
        count = below[0] + 1 if len(below) else len(losses)
        history.extend(map(IPLStep, losses[:count].tolist(),
                           map(tuple, tops[:count].tolist()),
                           map(tuple, omegas[:, :count].T.tolist())))
        return len(below) > 0

    def kept(omegas, top) -> int:
        """The number of leading iterates whose top-k set is still top's."""
        rest = np.ones(graph.size, dtype=bool)
        rest[top] = False
        corners = weigh(walks, np.column_stack([omegas.min(axis=1), omegas.max(axis=1)]))
        floor = corners[top, 0].min()
        rivals = np.flatnonzero(rest & (corners[:, 1] >= floor * (1 - BOX_MARGIN)))
        if not len(rivals):
            return omegas.shape[1]
        inner, outer = walks[top], walks[rivals]
        inner_rank, outer_rank = rank[top][:, None], rank[rivals][:, None]
        block = max(1, CHECK_BUDGET // (len(top) + len(rivals)))
        for start in range(0, omegas.shape[1], block):
            part = omegas[:, start:start + block]
            low, high = weigh(inner, part), weigh(outer, part)
            low_score, high_score = low.min(axis=0), high.max(axis=0)
            # the weakest node of T and the strongest rival, by their rank on ties
            low_rank = np.where(low == low_score, inner_rank, -1).max(axis=0)
            high_rank = np.where(high == high_score, outer_rank, graph.size).min(axis=0)
            lost = (high_score > low_score) | ((high_score == low_score)
                                               & (high_rank < low_rank))
            if lost.any():
                return start + int(lost.argmax())
        return omegas.shape[1]

    omega = np.full(3, 1.0 / 3.0)
    converged = False
    if max_steps:
        top, residual, converged = score(omega)
    length = 1  # of the next run; shorter runs than SHORTEST_RUN go step by step
    while not converged and len(history) < max_steps:
        gap = gaps[top]
        if length < SHORTEST_RUN:  # one step, as the one-step loop takes it
            omega = project_simplex(omega - mu * (residual @ gap))
            top, residual, converged = score(omega)
            before, after = history[-2:]
            held = set(before.top_k) == set(after.top_k)
            length = 2 * length if held and min(after.weights) > 0 else 1
            continue
        gram = np.einsum("ki,kj->ij", gap, gap)  # gap.T @ gap, without BLAS
        want = min(length, max_steps - len(history))
        omegas = powers(np.eye(3) - mu * (gram - gram.sum(axis=0) / 3), omega, want)
        inside = np.all((omegas > 0) & (omegas < 1), axis=0)
        linear = want if inside.all() else int(inside.argmin())
        held = kept(omegas[:, :linear], top) if linear else 0
        if held:
            scores = weigh(walks[top], omegas[:, :held])
            order = np.lexsort((np.broadcast_to(rank[top][:, None], scores.shape),
                                -scores), axis=0)
            residuals = weigh(gap, omegas[:, :held])
            converged = record_run(omegas, top[order].T,
                                   0.5 * np.einsum("ij,ij->j", residuals, residuals))
            omega, residual = omegas[:, held - 1], residuals[:, held - 1]
        if converged or len(history) == max_steps:
            break
        if held < linear:  # T changed at this iterate
            omega = omegas[:, held]
            top, residual, converged = score(omega)
            length = 1
        else:
            length = 2 * length if linear == want else 1

    omega = np.array(history[-1].weights) if history else omega
    fused, scores = components @ omega, walks @ omega
    top = top_k_indices(scores, rank, config.k)
    ranking = [(graph.nodes[i], float(scores[i])) for i in top.tolist()]
    return IPLResult(tuple(float(x) for x in omega), ranking, scores, fused,
                     history, converged)
