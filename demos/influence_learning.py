"""The influence random walk and the fusion-weight learner.

Six candidate entities form a funnel: every node sends most of its
influence mass to node f0. Only the temporal similarity component agrees
that f0 matters, so the learner should discover a large temporal weight
gamma. The demo prints the walk scores, the loss trajectory, and the
learned weights, and verifies the walk's linearity in the teleport
vector -- the property the gradient step relies on.

Run with: python3 demos/influence_learning.py
"""

import numpy as np

from trendtag import InfluenceGraph, IPLConfig, ipl, random_walk


def funnel_graph():
    nodes = tuple(f"f{i}" for i in range(6))
    matrix = np.zeros((6, 6))
    for col in range(1, 6):
        matrix[0, col] = 0.8                      # funnel into f0
        other = (col % 5) + 1
        matrix[other if other != col else 1, col] = 0.2
    dangling = np.array([True] + [False] * 5)     # f0 keeps nothing
    return InfluenceGraph.from_matrix(nodes, matrix, dangling)


def main():
    graph = funnel_graph()
    # three normalized similarity components; only f_t favors the funnel sink
    f_t = np.array([0.75, 0.05, 0.05, 0.05, 0.05, 0.05])
    f_m = np.array([0.02, 0.02, 0.90, 0.02, 0.02, 0.02])
    f_c = np.array([0.02, 0.02, 0.02, 0.90, 0.02, 0.02])

    print("== Component walks ==")
    r_m, r_c, r_t = (random_walk(graph, f)[0] for f in (f_m, f_c, f_t))
    for name, r in (("r_m", r_m), ("r_c", r_c), ("r_t", r_t)):
        print(f"  {name} =", np.round(r, 4))

    print("\n== Linearity of the walk in the teleport vector ==")
    omega = np.array([0.2, 0.3, 0.5])
    direct, _ = random_walk(graph, omega[0] * f_m + omega[1] * f_c
                            + omega[2] * f_t)
    combined = omega[0] * r_m + omega[1] * r_c + omega[2] * r_t
    print(f"  walk(sum w_i f_i) vs sum w_i walk(f_i): "
          f"max abs diff = {np.max(np.abs(direct - combined)):.2e}")

    print("\n== Weight learning ==")
    result = ipl(f_m, f_c, f_t, graph,
                 IPLConfig(k=3, mu=0.05, epsilon=1e-9, max_iterations=400))
    print(f"  converged: {result.converged} after {result.iterations} steps")
    for step in result.history[:: max(1, result.iterations // 8)]:
        w = ", ".join(f"{x:.3f}" for x in step.weights)
        print(f"  loss {step.loss:.6f}  omega = ({w})  top-k {step.top_k}")
    alpha, beta, gamma = result.weights
    print(f"\n  learned weights: alpha={alpha:.3f} beta={beta:.3f} "
          f"gamma={gamma:.3f} (sum {alpha + beta + gamma:.3f})")
    print("  final ranking:",
          [(e, round(s, 4)) for e, s in result.ranking])
    winner = "temporal" if gamma == max(result.weights) else "unexpected"
    print(f"  the {winner} component earned the largest weight")


if __name__ == "__main__":
    main()
