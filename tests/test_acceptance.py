"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances: exact rational equality for the counting
identity and the oracle equivalence; zero tolerance in rational arithmetic
for the local-density minima and the family, tree and flower deficits (a
value below 0 fails); for the uniformized bound, zero tolerance in rational
arithmetic when every path exponent is integral and 1e-12 relative in float
otherwise; 1e-6 relative for the gradient check.  Each criterion also
enforces its wall-clock budget.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

from sidlab.contraction import contract_float
from sidlab.graphs import (
    Graph,
    ReplacementSpec,
    Theorem12Case,
    classify_theorem12,
    complete_graph,
    cycle_graph,
    generalized_theta,
)
from sidlab.homdensity import density_gradient, hom_density
from sidlab.search import search_counterexample
from sidlab.stepgraphon import (
    StepGraphon,
    counting_kernel,
    local_density_deficit,
    regularity,
)
from sidlab.verify import (
    _random_regular_graphon,
    _theorem12_instances,
    sidorenko_family_instances,
    verify_counting_identity,
    verify_flower_knrs,
    verify_holder,
    verify_sidorenko_families,
)


def report(number, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} {label} "
          f"({elapsed:.1f}s < {budget:.0f}s budget)")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s"


def random_symmetric(rng, n, den=6):
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = F(rng.randrange(den + 1), den)
            grid[i][j] = grid[j][i] = x
    return StepGraphon(grid)


def test_criterion_1_counting_kernel_identity():
    t0 = time.perf_counter()
    rep = verify_counting_identity(trials=200, seed=101)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and rep.trials == 200 and rep.max_gap == 0.0
    report(1, "counting-kernel identity, 200 exact trials", ok, elapsed, 60)


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(202)
    mismatches = 0
    for _ in range(200):
        nv = rng.randint(2, 6)
        edges = tuple(
            (u, v) for u in range(nv) for v in range(u + 1, nv)
            if rng.random() < 0.6
        )
        graph = Graph(nv, edges)
        w = random_symmetric(rng, rng.randint(2, 4))
        a = hom_density(graph, w, strategy="eliminate").value
        b = hom_density(graph, w, strategy="bruteforce").value
        if a != b:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(2, f"elimination == brute force, {mismatches} mismatches in 200",
           mismatches == 0, elapsed, 60)


def test_criterion_3_local_density_of_counting_kernels():
    t0 = time.perf_counter()
    rng = random.Random(303)
    worst = 0.0
    failures = 0
    for _ in range(50):
        n = rng.randint(2, 6)
        w = _random_regular_graphon(rng, n)
        lengths = [2 * rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        theta = generalized_theta(lengths, "even")
        kernel = counting_kernel(w, theta)
        d = regularity(w)[0]
        rep = local_density_deficit(kernel, d ** theta.num_edges)
        worst = min(worst, rep.deficit)
        if rep.deficit_exact < 0:
            failures += 1
    # the corner-insufficiency instance must be flagged with a fractional
    # witness even though all four corners satisfy the subset bound
    w2 = StepGraphon([[F(8, 10), F(1, 20)], [F(1, 20), F(35, 100)]])
    rep2 = local_density_deficit(w2, F(3, 10))
    flagged = (
        rep2.deficit_exact == F(-3, 160)
        and any(0 < x < 1 for x in rep2.witness)
    )
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and flagged
    report(3, f"kernel local density (worst exact deficit {worst:.2e}; "
              f"2x2 instance flagged={flagged})", ok, elapsed, 60)


def test_criterion_4_sidorenko_family_deficits():
    t0 = time.perf_counter()
    rep = verify_sidorenko_families(trials=100, seed=404)
    names = {name for name, _ in sidorenko_family_instances()}
    required_markers = ["C6", "theta22_K3", "theta22_K4", "clique_subdiv",
                        "glued", "odd_theta", "subdiv"]
    covered = all(any(m in n for n in names) for m in required_markers)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and covered
    report(4, f"family deficits on 100 regular graphons each "
              f"({rep.trials} checks, max shortfall {rep.max_gap:.2e})",
           ok, elapsed, 60)


def test_criterion_5_flower_knrs():
    t0 = time.perf_counter()
    rep = verify_flower_knrs(trials=100, seed=505)
    elapsed = time.perf_counter() - t0
    report(5, f"flowers vs pointwise-dense graphons ({rep.trials} trials)",
           rep.passed, elapsed, 60)


def test_criterion_6_holder_bound():
    t0 = time.perf_counter()
    rep = verify_holder(trials=50, seed=606)
    elapsed = time.perf_counter() - t0
    report(6, f"uniformized lower bound, 50 trials incl. exact equality cases",
           rep.passed, elapsed, 180)


def test_criterion_7_gradient_check():
    t0 = time.perf_counter()
    rng = random.Random(707)
    checked = 0
    worst = 0.0
    h = 1e-5
    while checked < 20:
        nv = rng.randint(2, 5)
        edges = tuple(
            (u, v) for u in range(nv) for v in range(u + 1, nv)
            if rng.random() < 0.6
        )
        graph = Graph(nv, edges)
        if graph.num_edges == 0:
            continue
        n = rng.randint(2, 4)
        grid = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = F(rng.randrange(1, 8), 8)  # keep the stencil inside [0,1]
                grid[i][j] = grid[j][i] = x
        w = StepGraphon(grid)
        grad = np.array([[float(x) for x in row]
                         for row in density_gradient(graph, w)])
        a0 = w.float_matrix
        fd = np.zeros((n, n))
        for u in range(n):
            for v in range(u, n):
                ap, am = a0.copy(), a0.copy()
                ap[u, v] += h
                am[u, v] -= h
                if u != v:
                    ap[v, u] += h
                    am[v, u] -= h
                tp = contract_float(graph.n, graph.edges, ap, n)
                tm = contract_float(graph.n, graph.edges, am, n)
                fd[u, v] = fd[v, u] = (tp - tm) / (2 * h)
        rel = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-9))
        worst = max(worst, float(rel))
        checked += 1
    elapsed = time.perf_counter() - t0
    report(7, f"gradient vs central differences, worst rel err {worst:.2e}",
           worst <= 1e-6, elapsed, 60)


def test_criterion_8_search_negative_controls():
    t0 = time.perf_counter()
    res4 = search_counterexample(cycle_graph(4), n=4, d=F(1, 2), starts=32,
                                 iters=500, seed=808)
    res6 = search_counterexample(cycle_graph(6), n=4, d=F(1, 2), starts=32,
                                 iters=500, seed=808)
    elapsed = time.perf_counter() - t0
    ok = (
        res4.best_deficit >= 0 and res6.best_deficit >= 0
        and not res4.certified_violation and not res6.certified_violation
    )
    report(8, f"search controls C4/C6 (deficits {res4.best_deficit:.2e}, "
              f"{res6.best_deficit:.2e})", ok, elapsed, 60)


def test_criterion_9_classifier():
    t0 = time.perf_counter()
    k3 = complete_graph(3)
    hand_cases = [
        (ReplacementSpec.uniform(k3, [2]), Theorem12Case.DIVISIBLE),
        (ReplacementSpec(3, {(0, 1): {2: 1}, (0, 2): {4: 1}, (1, 2): {6: 1}}),
         Theorem12Case.NOT_COVERED),
        (ReplacementSpec.uniform(k3, [4]), Theorem12Case.DIVISIBLE),
    ]
    hand_ok = all(
        classify_theorem12(spec).case is expected
        for spec, expected in hand_cases
    )
    offending = classify_theorem12(hand_cases[1][0]).certificate["k"] == 1
    # suite consistency: every non-uniform replacement instance the family
    # suite runs must be admitted by the classifier
    suite_ok = all(
        classify_theorem12(spec).case is not Theorem12Case.NOT_COVERED
        for _, spec in _theorem12_instances()
    )
    elapsed = time.perf_counter() - t0
    ok = hand_ok and offending and suite_ok
    report(9, "classifier hand cases and suite instance selection", ok,
           elapsed, 60)
