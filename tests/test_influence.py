"""Relatedness, influence graph, random walk, and the weight learner."""

import itertools
import math
import random
import tracemalloc
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trendtag.influence as influence
from trendtag.influence import (InfluenceGraph, IPLConfig, IPLResult, IPLStep,
                                build_influence_graph, ipl, milne_witten,
                                project_simplex, random_walk, top_k_indices)
from trendtag.corpus import HashtagBurst, load_tweets
from trendtag.linking import build_candidates
from trendtag.wiki import build_snapshot


def snapshot_from_links(entities, links):
    pages = [(e, "ARTICLE") for e in entities]
    return build_snapshot(pages, [], list(links), [], [])


def random_graph(rng, n):
    """Random column-stochastic influence graph with some dangling columns."""
    matrix = np.zeros((n, n))
    dangling = np.zeros(n, dtype=bool)
    for col in range(n):
        if rng.random() < 0.2:
            dangling[col] = True
            continue
        targets = rng.sample([i for i in range(n) if i != col],
                             rng.randint(1, max(1, n // 2)))
        for t in targets:
            matrix[t, col] = rng.random() + 0.05
        matrix[:, col] /= matrix[:, col].sum()
    if dangling.all():
        dangling[0] = False
        matrix[(0 + 1) % n, 0] = 1.0
    nodes = tuple(f"e{i:03d}" for i in range(n))
    return InfluenceGraph.from_matrix(nodes, matrix, dangling)


def all_dangling_graph(n):
    """n candidates with no relatedness mass: every column is dangling."""
    nodes = tuple(f"e{i:03d}" for i in range(n))
    return InfluenceGraph.from_matrix(nodes, np.zeros((n, n)),
                                      np.ones(n, dtype=bool))


def random_simplex(rng, n=3):
    cuts = sorted(rng.random() for _ in range(n - 1))
    parts = np.diff([0.0] + cuts + [1.0])
    return np.array(parts)


def random_distribution(rng, n):
    v = np.array([rng.random() + 1e-3 for _ in range(n)])
    return v / v.sum()


def walk_columns(graph, f_m, f_c, f_t):
    """The walks ipl() runs, one restarted from each component, as columns."""
    return np.column_stack([random_walk(graph, f)[0] for f in (f_m, f_c, f_t)])


def reference_ipl(f_m, f_c, f_t, graph, config):
    """The learner as a loop of one projected gradient step per iteration,
    each scored over all nodes: the oracle for ipl()'s runs."""
    components = np.column_stack([f_m, f_c, f_t])
    walks = walk_columns(graph, f_m, f_c, f_t)
    rank = np.empty(graph.size, dtype=np.int64)
    rank[np.argsort(np.asarray(graph.nodes), kind="stable")] = np.arange(graph.size)

    def score(omega):
        scores = walks @ omega
        return components @ omega, scores, top_k_indices(scores, rank, config.k)

    omega = np.full(3, 1.0 / 3.0)
    fused, scores, top = score(omega)
    history = []
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


def assert_matches_reference(f_m, f_c, f_t, graph, config, tol=1e-12):
    """ipl() takes the reference loop's steps: the same top-k at every
    step, the same stop and ranking, and weights and scores equal up to
    float rounding. Returns ipl()'s result."""
    got = ipl(f_m, f_c, f_t, graph, config)
    want = reference_ipl(f_m, f_c, f_t, graph, config)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert [s.top_k for s in got.history] == [s.top_k for s in want.history]
    assert [e for e, _ in got.ranking] == [e for e, _ in want.ranking]
    for mine, theirs in zip(got.history, want.history):
        np.testing.assert_allclose(mine.weights, theirs.weights, rtol=0, atol=tol)
        assert mine.loss == pytest.approx(theirs.loss, rel=1e-9, abs=1e-15)
    np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=tol)
    np.testing.assert_allclose(got.scores, want.scores, rtol=0, atol=tol)
    np.testing.assert_allclose(got.fused, want.fused, rtol=0, atol=tol)
    return got


class TestMilneWitten:
    def make(self, e, i1, i2, inter):
        """Snapshot where A has i1 in-links, B i2, sharing `inter`, |E| = e."""
        entities = ["A", "B"] + [f"x{k}" for k in range(e - 2)]
        links = []
        for k in range(i1):
            links.append((f"x{k}", "A"))
        for k in range(inter):
            links.append((f"x{k}", "B"))
        for k in range(i1, i1 + i2 - inter):
            links.append((f"x{k}", "B"))
        return snapshot_from_links(entities, links)

    def test_identical_in_link_sets(self):
        snap = self.make(100, 10, 10, 10)
        assert milne_witten("A", "B", snap) == pytest.approx(1.0)

    def test_empty_intersection(self):
        snap = self.make(50, 5, 5, 0)
        assert milne_witten("A", "B", snap) == 0.0

    def test_worked_example(self):
        snap = self.make(1000, 100, 10, 5)
        expected = 1 - (math.log(100) - math.log(5)) / \
            (math.log(1000) - math.log(10))
        assert milne_witten("A", "B", snap) == pytest.approx(expected)
        assert milne_witten("A", "B", snap) == pytest.approx(0.3494, abs=1e-4)

    def test_symmetry_exhaustive(self):
        snap = self.make(60, 12, 7, 4)
        for a, b in itertools.combinations(snap.entities, 2):
            assert milne_witten(a, b, snap) == milne_witten(b, a, snap)

    def test_no_in_links_degenerate(self):
        snap = snapshot_from_links(["A", "B", "C"], [("C", "A")])
        assert milne_witten("A", "B", snap) == 0.0

    def test_clamped_to_unit_interval(self):
        snap = self.make(200, 30, 20, 10)
        assert 0.0 <= milne_witten("A", "B", snap) <= 1.0


class TestBuildInfluenceGraph:
    def test_link_direction_inverted(self):
        # Wikipedia link A -> B becomes influence edge B -> A:
        # column B carries the mass, column A is dangling
        snap = snapshot_from_links(
            ["A", "B", "x1", "x2"],
            [("A", "B"), ("x1", "A"), ("x1", "B"), ("x2", "A"), ("x2", "B")])
        graph = build_influence_graph(["A", "B"], snap)
        ia, ib = graph.nodes.index("A"), graph.nodes.index("B")
        assert graph.matrix[ia, ib] == pytest.approx(1.0)
        assert graph.dangling[ia]
        assert not graph.dangling[ib]

    def test_symmetric_clique_columns(self):
        entities = ["A", "B", "C"] + [f"x{k}" for k in range(20)]
        links = [(a, b) for a in "ABC" for b in "ABC" if a != b]
        links += [(f"x{k}", e) for k in range(6) for e in "ABC"]
        graph = build_influence_graph(["A", "B", "C"],
                                      snapshot_from_links(entities, links))
        for col in range(3):
            column = sorted(graph.matrix[:, col])
            assert column == pytest.approx([0.0, 0.5, 0.5])

    def test_isolated_candidate_dangling(self):
        snap = snapshot_from_links(["A", "B", "C"], [("A", "B"), ("B", "A")])
        graph = build_influence_graph(["A", "B", "C"], snap)
        assert graph.dangling[graph.nodes.index("C")]

    def test_columns_stochastic_or_dangling(self):
        entities = [f"n{k}" for k in range(10)]
        rng = random.Random(1)
        links = [(rng.choice(entities), rng.choice(entities)) for _ in range(40)]
        links = [(a, b) for a, b in links if a != b]
        graph = build_influence_graph(entities,
                                      snapshot_from_links(entities, links))
        sums = graph.matrix.sum(axis=0)
        for col in range(graph.size):
            if graph.dangling[col]:
                assert sums[col] == 0.0
            else:
                assert sums[col] == pytest.approx(1.0, abs=1e-12)

    def test_edges_ordered_positive_and_normalized(self):
        entities = [f"n{k}" for k in range(12)]
        rng = random.Random(2)
        links = [(rng.choice(entities), rng.choice(entities)) for _ in range(60)]
        graph = build_influence_graph(entities,
                                      snapshot_from_links(entities, links))
        pairs = list(zip(graph.src.tolist(), graph.dst.tolist()))
        assert pairs and pairs == sorted(set(pairs))
        assert all(s != d for s, d in pairs)
        assert np.all(graph.weight > 0)
        out_mass = np.bincount(graph.src, weights=graph.weight,
                               minlength=graph.size)
        np.testing.assert_allclose(out_mass[~graph.dangling], 1.0,
                                   rtol=0, atol=1e-12)
        assert np.all(out_mass[graph.dangling] == 0)

    def test_empty_candidates_rejected(self):
        snap = snapshot_from_links(["A"], [])
        with pytest.raises(ValueError):
            build_influence_graph([], snap)


class TestFromMatrix:
    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(30):
            graph = random_graph(rng, rng.randint(1, 20))
            again = InfluenceGraph.from_matrix(graph.nodes, graph.matrix,
                                               graph.dangling)
            assert np.array_equal(again.matrix, graph.matrix)
            assert np.array_equal(again.src, graph.src)
            assert np.array_equal(again.dst, graph.dst)
            assert np.array_equal(again.weight, graph.weight)

    def test_edges_are_the_nonzero_entries(self):
        matrix = np.array([[0.0, 0.25, 0.0],
                           [0.0, 0.0, 0.0],
                           [0.0, 0.75, 0.0]])
        graph = InfluenceGraph.from_matrix("abc", matrix, [True, False, True])
        assert graph.src.tolist() == [1, 1]
        assert graph.dst.tolist() == [0, 2]
        assert graph.weight.tolist() == [0.25, 0.75]
        assert np.array_equal(graph.matrix, matrix)

    @pytest.mark.parametrize("nodes, matrix, dangling", [
        (("a", "b"), np.zeros((2, 3)), [True, True]),
        (("a", "b", "c"), np.zeros((2, 2)), [True, True]),
        (("a", "b"), np.zeros((2, 2)), [True]),
        (("a", "b"), [[-0.5, 0.0], [1.5, 0.0]], [False, True]),
        (("a", "b"), [[0.0, 0.0], [0.9, 0.0]], [False, True]),
        (("a", "b"), [[0.0, 0.0], [0.0, 0.0]], [False, True]),
        (("a", "b"), [[0.0, 0.5], [1.0, 0.0]], [False, True]),
    ], ids=["not-square", "size-not-nodes", "flags-not-nodes", "negative",
            "column-sums-0.9", "empty-live-column", "dangling-with-mass"])
    def test_invalid_matrix_rejected(self, nodes, matrix, dangling):
        with pytest.raises(ValueError):
            InfluenceGraph.from_matrix(nodes, matrix, dangling)


def dense_walk_oracle(graph, s, tau):
    """Solve (I - tau*(B + D/n)) r = (1 - tau)*s, with D holding a column
    of ones for every dangling node."""
    n = graph.size
    complete = graph.matrix + np.outer(np.ones(n), graph.dangling) / n
    return np.linalg.solve(np.eye(n) - tau * complete, (1 - tau) * s)


@st.composite
def graphs_and_teleports(draw):
    """A random graph over 1-12 nodes, with edgeless and all-dangling
    graphs among the draws, and a teleport distribution over its nodes."""
    n = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    matrix = rng.uniform(0.05, 1.0, (n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(matrix, 0.0)
    sums = matrix.sum(axis=0)
    dangling = sums == 0
    matrix[:, ~dangling] /= sums[~dangling]
    s = rng.uniform(1e-3, 1.0, n)
    nodes = tuple(f"e{i:03d}" for i in range(n))
    return InfluenceGraph.from_matrix(nodes, matrix, dangling), s / s.sum()


class TestRandomWalk:
    @given(graphs_and_teleports(), st.sampled_from([0.0, 0.5, 0.85]))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_linear_system(self, graph_and_s, tau):
        graph, s = graph_and_s
        r, converged = random_walk(graph, s, tau=tau)
        assert converged
        assert np.abs(r - dense_walk_oracle(graph, s, tau)).sum() < 1e-9

    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_wrong_length_teleport_rejected(self, length):
        # a length-1 vector would otherwise broadcast over all the nodes
        graph = random_graph(random.Random(0), 4)
        with pytest.raises(ValueError):
            random_walk(graph, np.full(length, 1.0 / length))

    def test_tau_zero_returns_teleport(self):
        rng = random.Random(0)
        graph = random_graph(rng, 6)
        s = random_distribution(rng, 6)
        r, converged = random_walk(graph, s, tau=0.0)
        assert converged
        assert r == pytest.approx(s)

    def test_symmetric_cycle_fixed_point(self):
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = InfluenceGraph.from_matrix(("a", "b"), matrix,
                                           np.array([False, False]))
        r, _ = random_walk(graph, np.array([0.5, 0.5]), tau=0.85)
        assert r == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_hand_solved_two_node_system(self):
        # one-way edge a -> b, column b dangling (completed uniformly),
        # tau = 0.5, s = (1/2, 1/2); direct linear solve is the oracle
        matrix = np.array([[0.0, 0.0], [1.0, 0.0]])
        dangling = np.array([False, True])
        graph = InfluenceGraph.from_matrix(("a", "b"), matrix, dangling)
        tau, s = 0.5, np.array([0.5, 0.5])
        uniform = np.full((2, 1), 0.5)
        complete = matrix + uniform @ dangling.reshape(1, 2).astype(float)
        oracle = np.linalg.solve(np.eye(2) - tau * complete, (1 - tau) * s)
        r, converged = random_walk(graph, s, tau=tau)
        assert converged
        assert r == pytest.approx(oracle, abs=1e-9)
        assert r == pytest.approx([0.4, 0.6], abs=1e-9)

    def test_result_is_probability_vector(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(2, 30)
            graph = random_graph(rng, n)
            r, _ = random_walk(graph, random_distribution(rng, n))
            assert r.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(r >= -1e-12)

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_all_dangling_closed_form(self, n):
        # every column completes to uniform, so B'r = 1/n for any
        # distribution r, and the fixed point is tau/n + (1 - tau)s
        s = random_distribution(random.Random(n), n)
        r, converged = random_walk(all_dangling_graph(n), s, tau=0.85)
        assert converged
        np.testing.assert_allclose(r, 0.85 / n + 0.15 * s, rtol=0, atol=1e-12)

    def test_bad_teleport_rejected(self):
        graph = random_graph(random.Random(0), 4)
        with pytest.raises(ValueError):
            random_walk(graph, np.array([0.5, 0.5, 0.5, 0.5]))

    def test_linearity_in_teleport_vector(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(3, 25)
            graph = random_graph(rng, n)
            f = [random_distribution(rng, n) for _ in range(3)]
            w = random_simplex(rng)
            mixed, _ = random_walk(graph, w[0] * f[0] + w[1] * f[1] + w[2] * f[2])
            parts = [random_walk(graph, fi)[0] for fi in f]
            combo = w[0] * parts[0] + w[1] * parts[1] + w[2] * parts[2]
            assert np.max(np.abs(mixed - combo)) < 1e-8


class TestProjectSimplex:
    def projection_oracle(self, v):
        """Bisection on the threshold; independent of the sort-based path."""
        v = np.asarray(v, float)
        lo, hi = v.min() - 1.0, v.max()
        for _ in range(200):
            mid = (lo + hi) / 2
            if np.clip(v - mid, 0, None).sum() > 1.0:
                lo = mid
            else:
                hi = mid
        return np.clip(v - (lo + hi) / 2, 0, None)

    def test_feasible_point_unchanged(self):
        w = np.array([1 / 3, 1 / 3, 1 / 3])
        assert project_simplex(w) == pytest.approx(w)

    def test_vertex_projection(self):
        assert project_simplex([1.2, -0.1, -0.1]) == pytest.approx([1, 0, 0])

    def test_symmetric_shift(self):
        assert project_simplex([0.5, 0.5, 0.5]) == pytest.approx([1 / 3] * 3)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            v = rng.uniform(-2, 2, rng.integers(2, 8))
            p = project_simplex(v)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(p >= 0)
            assert p == pytest.approx(self.projection_oracle(v), abs=1e-6)


def frozen_loss(omega, components, walks, top):
    fused = components @ omega
    scores = walks @ omega
    res = fused[top] - scores[top]
    return 0.5 * float(res @ res)


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(100):
            n = rng.randint(4, 20)
            graph = random_graph(rng, n)
            components = np.column_stack(
                [random_distribution(rng, n) for _ in range(3)])
            walks = walk_columns(graph, *components.T)
            omega = random_simplex(rng)
            scores = walks @ omega
            top = top_k_indices(scores, graph.nodes, min(5, n))
            fused = components @ omega
            residual = fused[top] - scores[top]
            analytic = residual @ (components[top] - walks[top])
            h = 1e-6
            for axis in range(3):
                step = np.zeros(3)
                step[axis] = h
                fd = (frozen_loss(omega + step, components, walks, top)
                      - frozen_loss(omega - step, components, walks, top)) / (2 * h)
                if abs(fd) > 1e-9:
                    assert abs(analytic[axis] - fd) / abs(fd) < 1e-4
                    checked += 1
        assert checked > 100


def funnel_graph_and_components():
    """Six nodes where only the temporal component agrees with the walk's
    favorite node (node f0, which every other node sends its mass to)."""
    nodes = tuple(f"f{i}" for i in range(6))
    matrix = np.zeros((6, 6))
    for col in range(1, 6):
        matrix[0, col] = 0.8
        matrix[(col % 5) + 1 if (col % 5) + 1 != col else 1, col] = 0.2
    dangling = np.array([True] + [False] * 5)
    graph = InfluenceGraph.from_matrix(nodes, matrix, dangling)
    ft = np.array([0.75, 0.05, 0.05, 0.05, 0.05, 0.05])
    fm = np.array([0.02, 0.02, 0.9, 0.02, 0.02, 0.02])
    fc = np.array([0.02, 0.02, 0.02, 0.9, 0.02, 0.02])
    return graph, fm, fc, ft


class TestIPL:
    def test_symmetric_inputs_keep_uniform_weights(self):
        rng = random.Random(31)
        graph = random_graph(rng, 8)
        f = random_distribution(rng, 8)
        result = ipl(f, f, f, graph, IPLConfig(k=4, epsilon=1e-6,
                                               max_iterations=50))
        # identical components leave the gradient symmetric across weights
        assert result.weights == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-9)

    def test_single_candidate_immediate_stop(self):
        graph = InfluenceGraph.from_matrix(("only",), np.zeros((1, 1)),
                                           np.array([True]))
        f = np.array([1.0])
        result = ipl(f, f, f, graph, IPLConfig(k=1))
        assert result.converged
        assert result.iterations == 1
        assert result.ranking == [("only", pytest.approx(1.0))]

    def test_all_dangling_graph(self):
        rng = random.Random(5)
        fm, fc, ft = (random_distribution(rng, 12) for _ in range(3))
        result = ipl(fm, fc, ft, all_dangling_graph(12), IPLConfig(k=5))
        assert min(result.weights) >= 0
        assert sum(result.weights) == pytest.approx(1.0, abs=1e-12)
        titles = [title for title, _ in result.ranking]
        assert len(set(titles)) == 5
        scores = [score for _, score in result.ranking]
        assert scores == sorted(scores, reverse=True)

    def test_temporal_component_learns_dominant_weight(self):
        graph, fm, fc, ft = funnel_graph_and_components()
        config = IPLConfig(k=3, mu=0.05, epsilon=1e-9, max_iterations=400)
        result = ipl(fm, fc, ft, graph, config)
        alpha, beta, gamma = result.weights
        assert gamma > alpha and gamma > beta
        assert result.ranking[0][0] == "f0"
        assert sum(result.weights) == pytest.approx(1.0, abs=1e-9)
        assert min(result.weights) >= 0

    def test_grid_search_confirms_temporal_optimum(self):
        graph, fm, fc, ft = funnel_graph_and_components()
        components = np.column_stack([fm, fc, ft])
        walks = walk_columns(graph, fm, fc, ft)
        best, best_loss = None, None
        for a in np.arange(0, 1.0001, 0.01):
            for b in np.arange(0, 1.0001 - a, 0.01):
                omega = np.array([a, b, 1 - a - b])
                scores = walks @ omega
                top = top_k_indices(scores, graph.nodes, 3)
                loss = frozen_loss(omega, components, walks, top)
                if best_loss is None or loss < best_loss:
                    best, best_loss = omega, loss
        assert best[2] > best[0] and best[2] > best[1]

    def test_loss_non_increasing_while_topk_stable(self):
        graph, fm, fc, ft = funnel_graph_and_components()
        result = ipl(fm, fc, ft, graph,
                     IPLConfig(k=3, mu=0.003, epsilon=1e-12, max_iterations=300))
        for prev, cur in zip(result.history, result.history[1:]):
            if prev.top_k == cur.top_k:
                assert cur.loss <= prev.loss + 1e-12

    @pytest.mark.parametrize("max_iterations", [-1, -5])
    def test_negative_max_iterations_rejected(self, max_iterations):
        with pytest.raises(ValueError, match="max_iterations"):
            IPLConfig(max_iterations=max_iterations)

    def test_unnormalized_components_rejected(self):
        graph = random_graph(random.Random(2), 5)
        f = np.full(5, 0.3)
        with pytest.raises(ValueError):
            ipl(f, f, f, graph)

    def test_deterministic(self):
        graph, fm, fc, ft = funnel_graph_and_components()
        a = ipl(fm, fc, ft, graph, IPLConfig(k=3))
        b = ipl(fm, fc, ft, graph, IPLConfig(k=3))
        assert a.weights == b.weights
        assert a.ranking == b.ranking

    def test_topk_ties_broken_by_entity_id(self):
        scores = np.array([0.25, 0.25, 0.5])
        assert list(top_k_indices(scores, ("b", "a", "c"), 3)) == [2, 1, 0]

    @pytest.mark.parametrize("max_iterations", [0, 1, 7, 300])
    def test_only_the_three_component_walks_run(self, monkeypatch,
                                                max_iterations):
        calls = []

        def spy(graph, s, *args, **kwargs):
            calls.append(np.array(s))
            return random_walk(graph, s, *args, **kwargs)

        monkeypatch.setattr(influence, "random_walk", spy)
        graph, fm, fc, ft = funnel_graph_and_components()
        result = influence.ipl(fm, fc, ft, graph,
                               IPLConfig(k=3, epsilon=1e-12,
                                         max_iterations=max_iterations))
        assert result.iterations == max_iterations
        assert len(calls) == 3
        for teleport, component in zip(calls, (fm, fc, ft)):
            assert np.array_equal(teleport, component)

    @pytest.mark.parametrize("config", [
        IPLConfig(k=3, mu=0.003, epsilon=1e-12, max_iterations=1),
        IPLConfig(k=3, mu=0.003, epsilon=1e-12, max_iterations=37),
        IPLConfig(k=3, mu=0.05, epsilon=1e-12, max_iterations=500),
        IPLConfig(k=3, mu=0.05, epsilon=5e-3, max_iterations=500),
    ])
    def test_weights_produce_fused_and_scores(self, config):
        graph, fm, fc, ft = funnel_graph_and_components()
        result = ipl(fm, fc, ft, graph, config)
        if config.epsilon == 5e-3:
            assert result.converged and result.iterations < config.max_iterations
        else:
            assert not result.converged
            assert result.iterations == config.max_iterations
        omega = np.array(result.weights)
        components = np.column_stack([fm, fc, ft])
        walks = walk_columns(graph, fm, fc, ft)
        np.testing.assert_allclose(components @ omega, result.fused,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(walks @ omega, result.scores,
                                   rtol=0, atol=1e-12)
        assert result.weights == result.history[-1].weights

    def test_integer_rank_ties_match_entity_ids(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 12)
            nodes = tuple(rng.sample(["b", "a", "c", "ab", "ba", "Z", "z", "aa",
                                      "b0", "a9", "é", "_"], n))
            scores = np.array([rng.choice([0.1, 0.2, 0.3]) for _ in range(n)])
            rank = np.empty(n, dtype=np.int64)
            rank[np.argsort(np.asarray(nodes), kind="stable")] = np.arange(n)
            assert top_k_indices(scores, rank, n).tolist() == \
                top_k_indices(scores, nodes, n).tolist()

    def test_scores_equal_walk_from_fused(self):
        cases = [(funnel_graph_and_components(), 3)]
        rng = random.Random(47)
        for _ in range(20):
            n = rng.randint(2, 30)
            graph = random_graph(rng, n)
            comps = [random_distribution(rng, n) for _ in range(3)]
            cases.append(((graph, *comps), rng.randint(1, n)))
        for (graph, fm, fc, ft), k in cases:
            result = ipl(fm, fc, ft, graph, IPLConfig(k=k, mu=0.05))
            assert result.iterations > 0
            walked, converged = random_walk(graph, result.fused)
            assert converged
            np.testing.assert_allclose(result.scores, walked, rtol=0, atol=1e-9)
            top = top_k_indices(walked, graph.nodes, k)
            assert [e for e, _ in result.ranking] == [graph.nodes[i] for i in top]


@st.composite
def learner_problems(draw):
    """A graph over 1-60 nodes with ids in shuffled order, built from edge
    arrays or from a dense matrix and often with dangling nodes; three
    positive components; and a learner config."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nodes = tuple(f"e{i:03d}" for i in rng.permutation(n))
    if draw(st.booleans()):
        density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
        matrix = rng.uniform(0.05, 1.0, (n, n)) * (rng.random((n, n)) < density)
        np.fill_diagonal(matrix, 0.0)
        sums = matrix.sum(axis=0)
        dangling = sums == 0
        matrix[:, ~dangling] /= sums[~dangling]
        graph = InfluenceGraph.from_matrix(nodes, matrix, dangling)
    else:
        # up to 3 out-edges per node to distinct other nodes, in random order
        degree = rng.integers(0, 4, n) if n > 1 else np.zeros(1, dtype=int)
        src = np.repeat(np.arange(n), degree)
        dst = rng.integers(0, max(n - 1, 1), len(src))
        dst += dst >= src
        src, dst = np.divmod(np.unique(src * n + dst), n)
        shuffle = rng.permutation(len(src))
        src, dst = src[shuffle], dst[shuffle]
        weight = rng.uniform(0.05, 1.0, len(src))
        out = np.bincount(src, weights=weight, minlength=n)
        graph = InfluenceGraph(nodes, src, dst, weight / out[src], out == 0)
    sharpness = draw(st.sampled_from([1, 4]))
    f_m, f_c, f_t = (v / v.sum() for v in rng.uniform(1e-3, 1.0, (3, n)) ** sharpness)
    config = IPLConfig(k=draw(st.integers(1, 20)),
                       mu=draw(st.sampled_from([0.003, 0.05, 0.5, 5.0])),
                       epsilon=draw(st.sampled_from([1e-6, 1e-3])),
                       max_iterations=draw(st.integers(0, 300)))
    return f_m, f_c, f_t, graph, config


def changed_steps(history):
    """Indices of the steps whose top-k set differs from the step before."""
    return [i for i in range(1, len(history))
            if set(history[i].top_k) != set(history[i - 1].top_k)]


class TestMatchesReferenceLoop:
    """ipl() computes runs of steps at once; reference_ipl() takes one step
    per iteration. They must take the same steps."""

    @given(learner_problems())
    @settings(deadline=None)
    def test_random_problems(self, problem):
        assert_matches_reference(*problem)

    def test_top_set_changes_inside_a_run(self):
        graph, fm, fc, ft = funnel_graph_and_components()
        result = assert_matches_reference(
            fm, fc, ft, graph, IPLConfig(k=2, mu=0.003, epsilon=1e-12,
                                         max_iterations=400))
        # stable for well over the first runs' lengths, then changing
        assert changed_steps(result.history)[0] > 100

    def test_weight_reaches_zero_inside_a_run(self):
        rng = random.Random(6)
        n = rng.randint(5, 12)
        graph = random_graph(rng, n)
        fm, fc, ft = (random_distribution(rng, n) for _ in range(3))
        result = assert_matches_reference(
            fm, fc, ft, graph, IPLConfig(k=3, mu=0.5, epsilon=1e-12,
                                         max_iterations=200))
        on_boundary = [i for i, s in enumerate(result.history) if min(s.weights) == 0]
        assert on_boundary and on_boundary[0] > 50
        assert not changed_steps(result.history)

    def test_single_node(self):
        graph = InfluenceGraph.from_matrix(("only",), np.zeros((1, 1)), [True])
        f = np.array([1.0])
        result = assert_matches_reference(f, f, f, graph,
                                          IPLConfig(k=3, epsilon=1e-12))
        assert result.converged and result.iterations == 1

    @pytest.mark.parametrize("graph", [
        all_dangling_graph(9),
        InfluenceGraph.from_matrix([f"c{i}" for i in (4, 0, 3, 1, 2)],
                                   np.roll(np.eye(5), 1, axis=0),
                                   np.zeros(5, dtype=bool)),
    ], ids=["all-dangling", "cycle"])
    def test_all_scores_tied(self, graph):
        f = np.full(graph.size, 1.0 / graph.size)
        result = assert_matches_reference(f, f, f, graph,
                                          IPLConfig(k=3, epsilon=1e-12))
        assert [e for e, _ in result.ranking] == sorted(graph.nodes)[:3]

    def test_kth_place_inside_a_tie(self):
        # six nodes tie at the top for any weights, so T is the three of
        # them with the lowest ids at every step while the weights move
        n = 12
        high = np.arange(n) % 2 == 0
        components = []
        for top, rest in [(3.0, 1.0), (2.0, 1.5), (5.0, 0.5)]:
            v = np.where(high, top, rest)
            components.append(v / v.sum())
        graph = all_dangling_graph(n)
        result = assert_matches_reference(
            *components, graph, IPLConfig(k=3, mu=0.05, epsilon=1e-15,
                                          max_iterations=300))
        assert result.iterations == 300
        assert {s.top_k for s in result.history} == {(0, 2, 4)}
        assert max(abs(w - 1 / 3) for w in result.weights) > 1e-3


class TestVeryLargeCandidateSet:
    """A candidate set of 15,000 nodes, far above the workloads': a dense
    n x n float matrix of it would take 1.8 GB, so the walk and the
    learner must stay on the edge arrays."""

    N = 15_000

    @staticmethod
    def sparse_graph(n, seed):
        """About 3 out-edges per node to random other nodes, 2% dangling."""
        rng = np.random.default_rng(seed)
        dangling = rng.random(n) < 0.02
        src = np.repeat(np.arange(n), np.where(dangling, 0, rng.integers(1, 6, n)))
        dst = rng.integers(0, n - 1, len(src))
        dst += dst >= src  # no self-links
        src, dst = np.divmod(np.unique(src * n + dst), n)  # no repeated edge
        weight = rng.random(len(src)) + 0.05
        weight /= np.bincount(src, weights=weight, minlength=n)[src]
        nodes = tuple(f"e{i:05d}" for i in range(n))
        return InfluenceGraph(nodes, src, dst, weight, dangling), rng

    def test_walk_and_learner_stay_sparse(self):
        n = self.N
        graph, rng = self.sparse_graph(n, seed=3)
        assert 0 < graph.dangling.sum() < n and 2.5 < len(graph.src) / n < 3.5
        f_m, f_c, f_t = (v / v.sum() for v in rng.random((3, n)) + 1e-3)
        tracemalloc.start()
        try:
            r, converged = random_walk(graph, f_m)
            results = [ipl(f_m, f_c, f_t, graph, IPLConfig(k=15, max_iterations=m))
                       for m in (3, 500)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert converged
        assert np.all(r >= 0) and r.sum() == pytest.approx(1.0, abs=1e-9)
        for result in results:
            assert len({e for e, _ in result.ranking}) == 15
        assert peak < n * n * 8 / 100  # under 1% of one dense matrix

    def test_learner_with_the_kth_place_inside_a_wide_tie(self):
        # no edges, and the top 5,000 nodes get one value from each
        # component and the rest a lower one: the walk scores of the top
        # 5,000 tie for any weights, so each run checks T against 4,985
        # tied rivals at every step
        n = self.N
        nodes = tuple(f"e{i:05d}" for i in range(n))
        no_edges = np.zeros(0, dtype=np.intp)
        graph = InfluenceGraph(nodes, no_edges, no_edges, np.zeros(0),
                               np.ones(n, dtype=bool))
        tied = np.random.default_rng(4).permutation(n)[:5_000]
        components = []
        for high, low in [(3.0, 1.0), (2.0, 1.5), (5.0, 0.5)]:
            v = np.full(n, low)
            v[tied] = high
            components.append(v / v.sum())
        config = IPLConfig(k=15, epsilon=1e-15, max_iterations=500)
        tracemalloc.start()
        try:
            result = ipl(*components, graph, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        want = reference_ipl(*components, graph, config)
        assert result.iterations == want.iterations == 500
        assert [e for e, _ in result.ranking] == [e for e, _ in want.ranking]
        assert [e for e, _ in result.ranking] == sorted(nodes[i] for i in tied)[:15]
        assert peak < n * n * 8 / 100  # under 1% of one dense matrix


# The link-graph code as it was before entity codes: in-link title sets,
# one relatedness call per pair, a graph built node by node and an
# expansion ranked seed by seed. The array code must match it exactly.

def reference_link_sets(entities, links):
    """In- and out-link title sets of the rows between two entities,
    without self-links; a repeated row is merged."""
    in_links, out_links = {}, {}
    for s, d in links:
        if s in entities and d in entities and s != d:
            out_links.setdefault(s, set()).add(d)
            in_links.setdefault(d, set()).add(s)
    return ({e: frozenset(v) for e, v in in_links.items()},
            {e: frozenset(v) for e, v in out_links.items()})


def reference_milne_witten(e1, e2, in_links, total):
    i1 = in_links.get(e1, frozenset())
    i2 = in_links.get(e2, frozenset())
    inter = len(i1 & i2)
    lo, hi = sorted((len(i1), len(i2)))
    if inter == 0 or lo == 0 or total <= hi:
        return 0.0
    denom = math.log(total) - math.log(lo)
    if denom <= 0:
        return 0.0
    mw = 1.0 - (math.log(hi) - math.log(inter)) / denom
    return min(max(mw, 0.0), 1.0)


def reference_graph(entities, in_links, total):
    """(nodes, src, dst, weight, dangling) of the per-node graph builder."""
    nodes = tuple(sorted(set(entities)))
    idx = {e: i for i, e in enumerate(nodes)}
    src, dst, weight = [], [], []
    for i, e in enumerate(nodes):
        for linker in sorted(in_links.get(e, ())):
            j = idx.get(linker)
            if j is not None and j != i:
                mw = reference_milne_witten(e, linker, in_links, total)
                if mw > 0:
                    src.append(i)
                    dst.append(j)
                    weight.append(mw)
    src_a = np.array(src, dtype=np.intp)
    weight_a = np.array(weight, dtype=float)
    sums = np.bincount(src_a, weights=weight_a, minlength=len(nodes))
    return (nodes, src_a, np.array(dst, dtype=np.intp),
            weight_a / sums[src_a], sums <= 0)


def reference_expansion(provenance, in_links, out_links, total, cap):
    """The seeds of provenance, each followed by its expansion in turn."""
    expanded = {e: p for e, p in provenance.items() if p == "seed"}
    for seed in sorted(expanded):
        neighbors = (in_links.get(seed, frozenset())
                     | out_links.get(seed, frozenset())) - {seed}
        ranked = sorted(sorted(neighbors), key=lambda nb: (
            -reference_milne_witten(seed, nb, in_links, total), nb))
        for nb in ranked[:cap]:
            expanded.setdefault(nb, f"expanded-from:{seed}")
    return expanded


def candidates_for(seeds, snap, cap):
    """build_candidates over one tweet that mentions each seed title."""
    corpus, _ = load_tweets([{"id": "t0", "timestamp": "2014-02-10T00:00:00Z",
                              "text": " ".join(seeds), "user_id": "u0"}])
    day = date(2014, 2, 10)
    burst = HashtagBurst("tag", day, day, day, 1.0, ("t0",))
    return build_candidates(burst, corpus, snap, expansion_cap=cap)


@st.composite
def link_tables(draw):
    """Pages in shuffled order, titles whose sort is not their number's,
    and link rows that hold references to non-pages (x0, x1), self-links,
    repeated rows and often one entity linked from every other (in-degree
    N - 1, the largest a snapshot allows)."""
    n = draw(st.integers(1, 30))
    entities = [f"e{i}" for i in range(n)]
    names = entities + ["x0", "x1"]
    links = draw(st.lists(st.tuples(st.sampled_from(names),
                                    st.sampled_from(names)), max_size=120))
    if draw(st.booleans()):
        hub = draw(st.sampled_from(entities))
        links += [(e, hub) for e in entities]
    if links:
        links += draw(st.lists(st.sampled_from(links), max_size=10))
    links = draw(st.permutations(links))
    pages = [(e, "ARTICLE") for e in draw(st.permutations(entities))]
    return entities, links, build_snapshot(pages, [], links, [], [])


class TestLinkGraphOracle:
    @given(link_tables())
    @settings(deadline=None)
    def test_milne_witten_equals_the_set_formula(self, table):
        entities, links, snap = table
        in_links, _ = reference_link_sets(set(entities), links)
        total = len(entities)
        assert snap.entities == tuple(sorted(entities))
        names = sorted(entities) + ["x0"]
        for a in names:
            expected = [reference_milne_witten(a, b, in_links, total) for b in names]
            assert [milne_witten(a, b, snap) for b in names] == expected
            if a in snap.code:
                codes = np.arange(total)
                one_to_many = milne_witten(snap.code[a], codes, snap)
                assert one_to_many.tolist() == expected[:-1]
                pairs = milne_witten(np.full(total, snap.code[a]), codes, snap)
                assert pairs.tolist() == expected[:-1]

    @given(link_tables(), st.data())
    @settings(deadline=None)
    def test_graph_bytes_equal_the_per_node_builder(self, table, data):
        entities, links, snap = table
        in_links, _ = reference_link_sets(set(entities), links)
        chosen = data.draw(st.lists(st.sampled_from(entities + ["x0"]),
                                    min_size=1))
        graph = build_influence_graph(chosen, snap)
        nodes, src, dst, weight, dangling = reference_graph(
            chosen, in_links, len(entities))
        assert graph.nodes == nodes
        assert graph.src.tobytes() == src.tobytes()
        assert graph.dst.tobytes() == dst.tobytes()
        assert graph.weight.tobytes() == weight.tobytes()
        assert np.array_equal(graph.dangling, dangling)

    @given(link_tables(), st.data())
    @settings(deadline=None)
    def test_expansion_equals_the_per_seed_ranking(self, table, data):
        entities, links, snap = table
        in_links, out_links = reference_link_sets(set(entities), links)
        seeds = data.draw(st.lists(st.sampled_from(entities), min_size=1))
        cap = data.draw(st.integers(0, 6))
        cs = candidates_for(seeds, snap, cap)
        expected = reference_expansion(cs.provenance, in_links, out_links,
                                       len(entities), cap)
        assert list(cs.provenance.items()) == list(expected.items())

    def test_hub_pairs_cost_the_smaller_list(self):
        # a hub linked from 19,143 entities, each also linked from the one
        # before it; 5,000 candidates hold the hub. Every pair's smaller
        # list is a candidate's one in-link, so no pair copies the hub's.
        # np.log(19143) is one ulp off math.log(19143), so the hub's
        # relatedness check also pins the logs to math.log
        n = 19_143
        others = [f"n{i:05d}" for i in range(n)]
        links = [(e, "hub") for e in others]
        links += [(others[i - 1], e) for i, e in enumerate(others)]
        snap = build_snapshot([(e, "ARTICLE") for e in others + ["hub"]],
                              [], links, [], [])
        chosen = ["hub"] + others[:4_999]
        in_links, out_links = reference_link_sets(set(snap.entities), links)
        candidates_for(["hub"], snap, 50)  # fills the snapshot's caches
        peaks = []
        tracemalloc.start()
        try:
            graph = build_influence_graph(chosen, snap)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            cs = candidates_for(["hub"], snap, 50)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # copying the hub's list once per graph pair would take 383 MB
        per_pair_copy = 4_999 * n * snap.in_src.itemsize
        assert max(peaks) < per_pair_copy / 40
        nodes, src, dst, weight, _ = reference_graph(chosen, in_links, n + 1)
        assert len(src) == 4_999  # the hub and each other candidate
        assert milne_witten("hub", others[1], snap) == \
            reference_milne_witten("hub", others[1], in_links, n + 1) > 0
        assert graph.src.tobytes() == src.tobytes()
        assert graph.dst.tobytes() == dst.tobytes()
        assert graph.weight.tobytes() == weight.tobytes()
        expected = reference_expansion(cs.provenance, in_links, out_links,
                                       n + 1, 50)
        assert list(cs.provenance.items()) == list(expected.items())
