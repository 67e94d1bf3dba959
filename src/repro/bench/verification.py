"""Self-verification: solvers vs the exhaustive oracle on random instances.

``repro verify`` gives a user who just installed the library a one-command
confidence check (beyond the unit tests): it generates a batch of small
random weighted graphs and certifies, per instance,

* Algorithm 1 and Algorithm 2 (eps=0) against brute force under sum;
* the Theorem 6 bound for Approx at several eps;
* the min/max community forest against the Definition 3 oracle;
* local-search outputs against the certifier (validity, size, disjointness);
* the Theorem 4 clique gadget round trip.

Returns a structured report; any failure names the instance seed so it can
be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.generators.random_graphs import gnp_random_graph
from repro.graphs.graph import Graph
from repro.hardness.certificates import CertificationError, certify_result_set
from repro.influential.bruteforce import bruteforce_communities, bruteforce_top_r
from repro.influential.improved import tic_improved
from repro.influential.local_search import local_search
from repro.influential.minmax_solvers import max_communities, min_communities
from repro.influential.naive_sum import sum_naive
from repro.utils.rng import make_rng


@dataclass
class VerificationReport:
    """Outcome of one verification batch."""

    checks_run: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, passed: bool, message: str) -> None:
        self.checks_run += 1
        if not passed:
            self.failures.append(message)

    def render(self) -> str:
        lines = [f"verification: {self.checks_run} checks"]
        if self.ok:
            lines.append("all checks passed")
        else:
            lines.append(f"{len(self.failures)} FAILURES:")
            lines.extend(f"  - {msg}" for msg in self.failures)
        return "\n".join(lines)


def _random_instance(seed: int, n: int = 10, p: float = 0.4) -> Graph:
    graph = gnp_random_graph(n, p, seed=seed)
    rng = make_rng(seed + 10_000)
    return graph.with_weights(np.round(rng.uniform(0.5, 9.5, size=n), 3))


def verify_solvers(
    instances: int = 8,
    base_seed: int = 1_000,
    k_values: tuple[int, ...] = (1, 2, 3),
    r: int = 4,
) -> VerificationReport:
    """Run the oracle cross-checks; see the module docstring."""
    report = VerificationReport()
    for index in range(instances):
        seed = base_seed + index
        graph = _random_instance(seed)
        for k in k_values:
            tag = f"seed={seed} k={k}"
            oracle = bruteforce_top_r(graph, k, r, "sum")

            improved = tic_improved(graph, k, r)
            report.record(
                improved.values() == oracle.values()
                or np.allclose(improved.values(), oracle.values()),
                f"{tag}: Algorithm 2 != brute force under sum",
            )
            naive = sum_naive(graph, k, r)
            report.record(
                np.allclose(naive.values(), oracle.values()),
                f"{tag}: Algorithm 1 != brute force under sum",
            )
            for eps in (0.1, 0.5):
                approx = tic_improved(graph, k, r, eps=eps)
                bound_ok = len(oracle) == 0 or (
                    len(approx) >= len(oracle)
                    and approx.rth_value(len(oracle))
                    >= (1 - eps) * oracle.rth_value(len(oracle)) - 1e-9
                )
                report.record(
                    bound_ok, f"{tag} eps={eps}: Theorem 6 bound violated"
                )

            for name, solver in (("min", min_communities), ("max", max_communities)):
                ours = {(c.vertices, c.value) for c in solver(graph, k)}
                expected = {
                    (c.vertices, c.value)
                    for c in bruteforce_communities(graph, k, name)
                }
                report.record(
                    ours == expected,
                    f"{tag}: {name} family != Definition 3 oracle",
                )

            s = k + 2
            if s <= graph.n:
                for greedy in (False, True):
                    result = local_search(
                        graph, k, r, s, "avg",
                        greedy=greedy, non_overlapping=True,
                    )
                    try:
                        certify_result_set(
                            graph, result, k=k, s=s, non_overlapping=True
                        )
                        report.record(True, "")
                    except CertificationError as exc:
                        report.record(
                            False,
                            f"{tag} greedy={greedy}: local search output "
                            f"failed certification ({exc})",
                        )

    # Theorem 4 gadget round trip on fixed instances.
    from repro.graphs.builder import graph_from_edges
    from repro.hardness.reductions import clique_decision_via_tic

    triangle_plus = graph_from_edges(
        [(0, 1), (1, 2), (0, 2), (2, 3)], weights=[1.0] * 4
    )
    c5 = graph_from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], weights=[1.0] * 5
    )
    report.record(
        clique_decision_via_tic(triangle_plus, 3) is True,
        "Theorem 4 gadget: planted triangle not detected",
    )
    report.record(
        clique_decision_via_tic(c5, 3) is False,
        "Theorem 4 gadget: false positive on C5",
    )
    return report
