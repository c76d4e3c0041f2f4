"""Randomized verification suites, one per proved inequality or identity.

Each suite is a list of ``(check, trial_seed)`` tasks run by one runner.  A
check ``check(trial_seed, sizes=None) -> (gap, record | None, sizes_used)``
draws its instance from ``random.Random(trial_seed)`` and tests the claimed
relation; ``gap = lhs - rhs`` and a record is returned only on failure.
Every check draws its sizes before it applies a ``sizes`` override, so the
rest of the stream does not depend on the override.  A failing trial is then
re-run over the size lattice ``product(range(2, s + 1) for s in sizes_used)``
in product order, and the first failing point is reported, marked
``minimized``; the lattice's top point is the drawn instance itself.

Every exact check returns through ``_decide``, which tests ``lhs == rhs``
(an identity: Lemma 3.1, trees, Hölder equality) or ``lhs >= rhs`` (a
bound: families, flowers, integral-exponent Hölder, and the local-density
deficit against 0, decided exactly by ``local_density_deficit`` on the
suite's kernels of at most 6 steps) in rationals with zero tolerance.  Only
a failure serializes the instance's inputs; its record writes both sides as
``"p/q"``, and a local-density record adds its exact ``witness``.  Only the
Hölder bound with a fractional exponent is checked in float, to the
relative tolerance ``FLOAT_TOL``, and records float sides.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial

from .graphs import (
    Graph,
    ReplacementSpec,
    Theorem12Case,
    _integer,
    classify_theorem12,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    flower,
    generalized_theta,
    path_graph,
    replace_edges,
    replace_edges_nonuniform,
    semidirect_product,
    subdivide,
)
from .homdensity import deficit, hom_density, holder_lower_bound
from .stepgraphon import (
    StepGraphon,
    _frac_str,
    circulant_graphon,
    counting_kernel,
    hadamard,
    kernel_power,
    local_density_deficit,
    mixture_graphon,
    permute_steps,
    pointwise_dense_graphon,
    regular_graph_graphon,
    regularity,
)

__all__ = [
    "SuiteReport",
    "verify_counting_identity",
    "verify_local_density",
    "verify_sidorenko_families",
    "verify_flower_knrs",
    "verify_holder",
    "SUITES",
]

FLOAT_TOL = 1e-12


@dataclass
class SuiteReport:
    """Aggregate outcome of one suite run.

    Failure records carry ``gap = lhs - rhs`` (negative means violation)
    along with the trial seed that reproduces them.  ``max_gap`` tracks the
    largest observed shortfall ``rhs - lhs`` across all checks, so creeping
    tolerance regressions stay visible even while the suite passes.
    """

    suite: str
    trials: int
    failures: list
    seed: int
    max_gap: float
    runtime_ms: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SuiteReport":
        """The report a JSON dict describes: ``suite`` must be a string,
        ``trials`` and ``seed`` JSON integers, ``max_gap`` and ``runtime_ms``
        numbers and ``failures`` a list, each read as is."""
        suite, failures = data["suite"], data["failures"]
        trials, seed = data["trials"], data["seed"]
        numbers = data["max_gap"], data.get("runtime_ms", 0.0)
        if not (type(suite) is str and type(failures) is list
                and type(trials) is int and type(seed) is int
                and all(type(x) in (int, float) for x in numbers)):
            raise ValueError("suite must be a string, trials and seed "
                             "integers, max_gap and runtime_ms numbers, and "
                             "failures a list")
        return cls(suite, trials, failures, seed, *map(float, numbers))


def _rel_ok(lhs: float, rhs: float, tol: float) -> bool:
    return lhs >= rhs - tol * max(1.0, abs(lhs), abs(rhs))


def _json_inputs(inputs: dict) -> dict:
    """A failing instance as JSON: each graph, spec and graphon through its
    ``to_json_dict``, each rational as ``"p/q"``, anything else as is."""
    return {
        k: _frac_str(v) if isinstance(v, Fraction)
        else v.to_json_dict() if hasattr(v, "to_json_dict") else v
        for k, v in inputs.items()
    }


def _decide(lhs, rhs, sizes, inputs, equal=False, **extra):
    """The exact verdict of one check: ``lhs == rhs`` if ``equal``, else
    ``lhs >= rhs``, both rationals.  Returns ``(gap, record | None, sizes)``
    with ``gap = -|lhs - rhs|`` for an identity and ``lhs - rhs`` for a
    bound.  Only a failure serializes ``inputs`` and builds its record, with
    both sides as ``"p/q"`` and ``extra`` appended."""
    diff = lhs - rhs
    gap = -abs(float(diff)) if equal else float(diff)
    if (diff == 0) if equal else (diff >= 0):
        return gap, None, sizes
    record = {"inputs": _json_inputs(inputs), "lhs": _frac_str(lhs),
              "rhs": _frac_str(rhs), "gap": gap, **extra}
    return gap, record, sizes


def _run_suite(suite_id, seed, tasks):
    """Run ``(check, trial_seed)`` tasks in order, minimize each failure over
    its size lattice, and collect the failures and the worst observed gap."""
    t0 = time.perf_counter()
    gaps = []
    failures = []
    for check, trial_seed in tasks:
        gap, record, sizes = check(trial_seed)
        gaps.append(gap)
        if record is None:
            continue
        for point in itertools.product(*(range(2, s + 1) for s in sizes)):
            record = check(trial_seed, point)[1]
            if record is not None:
                break
        else:
            raise RuntimeError(
                f"{suite_id} trial {trial_seed} passes at its own sizes {sizes}"
            )
        record["trial_seed"] = trial_seed
        record["minimized"] = True
        failures.append(record)
    return SuiteReport(
        suite=suite_id,
        trials=len(gaps),
        failures=failures,
        seed=_integer(seed, "seed"),
        max_gap=max((-gap for gap in gaps), default=0.0),
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
    )


def _trial_seeds(seed, count):
    """``count`` trial seeds drawn from the integer ``seed``; a count below
    1, a suite that would pass having checked nothing, is rejected."""
    count = _integer(count, "trial count")
    if count < 1:
        raise ValueError(f"a suite needs at least one trial, got {count}")
    master = random.Random(_integer(seed, "seed"))
    return [master.randrange(2 ** 32) for _ in range(count)]


# ---------------------------------------------------------------------------
# Random instance helpers (all driven by a caller-owned random.Random).
# ---------------------------------------------------------------------------

def _random_graph(rng, nv) -> Graph:
    """Each pair an edge with probability 0.6, redrawn until one edge is."""
    for _ in range(64):
        edges = [
            (u, v)
            for u in range(nv)
            for v in range(u + 1, nv)
            if rng.random() < 0.6
        ]
        if edges:
            return Graph(nv, tuple(edges))
    return complete_graph(nv)


def _random_theta(rng, parity="any"):
    count = rng.randint(1, 3)
    if parity == "even":
        lengths = [2 * rng.randint(1, 2) for _ in range(count)]
    elif parity == "odd":
        lengths = [2 * rng.randint(0, 2) + 1 for _ in range(count)]
        while lengths.count(1) > 1:
            lengths[lengths.index(1)] = 3
    else:
        lengths = [rng.randint(1, 4) for _ in range(count)]
        while lengths.count(1) > 1:
            lengths[lengths.index(1)] = rng.randint(2, 4)
    return generalized_theta(lengths, parity)


def _random_rational_graphon(rng, n) -> StepGraphon:
    """Entries drawn uniformly from 0, 1/6, ..., 1."""
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = rng.randrange(7)
    return StepGraphon._from_integers(grid, 6)


def _random_regular_graphon(rng, n) -> StepGraphon:
    """Random regular rational graphon: permuted circulant with profile
    entries in 0, 1/12, ..., 1, sometimes mixed with a random regular graph
    adjacency (mixtures of regulars stay regular)."""
    half = [Fraction(rng.randrange(13), 12) for _ in range(n // 2 + 1)]
    profile = [half[min(k, n - k)] for k in range(n)]
    w = circulant_graphon(profile)
    if n >= 3 and rng.random() < 0.4:
        deg = rng.randint(1, n - 1)
        # if n * deg is odd, n is odd, so n * (deg - 1) is even
        deg -= n * deg % 2
        if deg:
            g = regular_graph_graphon(n, deg, rng.randrange(2 ** 31))
            lam = Fraction(rng.randint(1, 3), 4)
            w = mixture_graphon([w, g], [lam, 1 - lam])
    perm = list(range(n))
    rng.shuffle(perm)
    return permute_steps(w, perm)


def _random_tree(rng, nv) -> Graph:
    if nv <= 1:
        return Graph(max(nv, 1))
    if nv == 2:
        return Graph(2, ((0, 1),))
    prufer = [rng.randrange(nv) for _ in range(nv - 2)]
    degree = [1] * nv
    for v in prufer:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(nv) if degree[v] == 1)
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph(nv, tuple(edges))


# ---------------------------------------------------------------------------
# Suite: exact counting-kernel identity  t_{H'}(W) == t_H(W^F).
# ---------------------------------------------------------------------------

def _check_counting_identity(trial_seed, sizes=None):
    rng = random.Random(trial_seed)
    nv = rng.randint(2, 5)
    gadget = _random_theta(rng)
    n = rng.randint(2, 4)
    if sizes is not None:
        n, nv = sizes
    host = _random_graph(rng, nv)
    w = _random_rational_graphon(rng, n)
    replaced = replace_edges(host, gadget)
    lhs = hom_density(replaced, w).value
    rhs = hom_density(host, counting_kernel(w, gadget)).value
    inputs = {"host": host, "gadget": gadget, "graphon": w}
    return _decide(lhs, rhs, (n, nv), inputs, equal=True)


def verify_counting_identity(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Replacing every host edge by a rooted gadget, then evaluating, equals
    evaluating the host against the gadget's counting kernel.  Exact rational
    equality on randomized (H, F, W); any inequality is a hard failure."""
    tasks = [(_check_counting_identity, s) for s in _trial_seeds(seed, trials)]
    return _run_suite("lemma31", seed, tasks)


# ---------------------------------------------------------------------------
# Suite: local denseness of counting kernels and Hadamard attachments.
# ---------------------------------------------------------------------------

def _check_local_density(style, trial_seed, sizes=None):
    """``style`` 0 checks an even-theta counting kernel, 1 a Hadamard
    attachment."""
    rng = random.Random(trial_seed)
    n = rng.randint(2, 6)
    if sizes is not None:
        (n,) = sizes
    # an unused draw, kept so that a trial seed still yields the same instance
    rng.randrange(2 ** 31)
    if style == 0:
        w = _random_regular_graphon(rng, n)
        theta = _random_theta(rng, parity="even")
        kernel = counting_kernel(w, theta)
        d = regularity(w)[0]
        target = d ** theta.num_edges
        inputs = {"style": "even-theta-kernel", "graphon": w, "theta": theta}
    else:
        d1 = Fraction(rng.randint(2, 8), 10)
        w1 = pointwise_dense_graphon(
            n, d1, Fraction(1, 2), rng.randrange(2 ** 31)
        )
        w2 = _random_regular_graphon(rng, n)
        d2 = regularity(w2)[0]
        k = rng.randint(1, 2)
        kernel = hadamard(w1, kernel_power(w2, 2 * k))
        target = d1 * d2 ** (2 * k)
        inputs = {"style": "hadamard-attachment", "dense_floor": d1,
                  "power": 2 * k, "w1": w1, "w2": w2}
    report = local_density_deficit(kernel, target)
    return _decide(report.deficit_exact, 0, (n,), inputs,
                   witness=[_frac_str(x) for x in report.witness])


def verify_local_density(trials: int = 50, seed: int = 0) -> SuiteReport:
    """Counting kernels of even thetas over d-regular graphons must be
    d^e-locally dense, and the entrywise product of a d1-locally-dense grid
    with an even kernel power of a d2-regular graphon must be d1*d2^2k-locally
    dense.  Any negative exact deficit is a failure."""
    tasks = [
        (partial(_check_local_density, i % 2), s)
        for i, s in enumerate(_trial_seeds(seed, trials))
    ]
    return _run_suite("local_density", seed, tasks)


# ---------------------------------------------------------------------------
# Suite: density lower bounds for the constructed Sidorenko families.
# ---------------------------------------------------------------------------

def _theorem12_instances():
    """Named non-uniform replacement specs admitted by the classifier."""
    k3 = complete_graph(3)
    out = [
        ("nonuniform_divisible_uniform", ReplacementSpec.uniform(k3, [2])),
        ("nonuniform_divisible_mixed", ReplacementSpec(
            3, {(0, 1): {2: 2}, (0, 2): {2: 1, 4: 3}, (1, 2): {}})),
        ("nonuniform_single_length", ReplacementSpec(
            3, {(0, 1): {4: 2}, (0, 2): {4: 1}, (1, 2): {4: 1}})),
        # Odd subdivision completed by a theta partner on a disjoint edge:
        # the union host is H0 + K2 and the partner tops every length class
        # up to a multiple of C(h, 2).
        ("corollary_union", ReplacementSpec(
            5, {(0, 1): {2: 1}, (0, 2): {2: 1}, (1, 2): {2: 1},
                (3, 4): {2: 7}})),
    ]
    for name, spec in out:
        if classify_theorem12(spec).case is Theorem12Case.NOT_COVERED:
            raise AssertionError(f"instance {name} rejected by the classifier")
    return out


@cache
def sidorenko_family_instances():
    """Named (family, graph) pairs exercised by the suite, built once."""
    theta2 = generalized_theta([2], "even")
    theta22 = generalized_theta([2, 2], "even")
    theta24 = generalized_theta([2, 4], "even")
    instances = [
        ("C6", replace_edges(complete_graph(3), theta2)),
        ("theta22_K3", replace_edges(complete_graph(3), theta22)),
        ("theta22_K4", replace_edges(complete_graph(4), theta22)),
        ("theta24_K13", replace_edges(complete_multipartite([1, 3]), theta24)),
        ("even_theta_224", generalized_theta([2, 2, 4], "even").graph),
        ("clique_subdiv_h3", semidirect_product(
            path_graph(2), {0}, 2, complete_graph(2), 1)),
        ("clique_subdiv_h4", semidirect_product(
            path_graph(1), {0}, 1, complete_graph(3), 1)),
        ("glued_C4_K3", semidirect_product(
            cycle_graph(4), {0, 2}, 1, complete_graph(3), 1)),
        ("glued_P2_K22", semidirect_product(
            path_graph(2), {0}, 2, complete_multipartite([2, 2]), 1)),
        ("odd_theta_31", generalized_theta([3, 1], "odd").graph),
        ("odd_theta_53", generalized_theta([5, 3], "odd").graph),
        ("odd_theta_331", generalized_theta([3, 3, 1], "odd").graph),
        ("subdiv_C4_l2", subdivide(cycle_graph(4), 2)),
        ("subdiv_K3_l3", subdivide(complete_graph(3), 3)),
        ("subdiv_K4_l1", subdivide(complete_graph(4), 1)),
    ]
    for name, spec in _theorem12_instances():
        instances.append((name, replace_edges_nonuniform(spec)))
    return tuple(instances)


@lru_cache(maxsize=1)
def _family_draw(trial_seed, sizes):
    """The step count and graphon of a family trial.  Every family draws the
    same graphon from a trial seed, and the suite runs the families of one
    seed back to back, so one cached draw serves them all."""
    rng = random.Random(trial_seed)
    n = rng.randint(2, 5)
    if sizes is not None:
        (n,) = sizes
    return n, _random_regular_graphon(rng, n)


def _check_family(name, graph, trial_seed, sizes=None):
    n, w = _family_draw(trial_seed, sizes)
    return _decide(deficit(graph, w), 0, (n,), {"family": name, "graphon": w})


def _check_tree(trial_seed, sizes=None):
    rng = random.Random(trial_seed)
    nv = rng.randint(2, 6)
    n = rng.randint(2, 5)
    if sizes is not None:
        n, nv = sizes
    tree = _random_tree(rng, nv)
    w = _random_regular_graphon(rng, n)
    exact = deficit(tree, w)
    inputs = {"family": "tree", "tree": tree, "graphon": w}
    return _decide(exact, 0, (n, nv), inputs, equal=True)


def verify_sidorenko_families(trials: int = 100, seed: int = 0) -> SuiteReport:
    """Every constructed family member must beat the edge-density power bound
    on random regular graphons, and every tree must meet it with equality,
    both decided in rational arithmetic.  The tasks run seed by seed, all
    families of a trial on its one graphon, then the tree trials."""
    seeds = _trial_seeds(seed, trials)
    tasks = [
        (partial(_check_family, name, graph), s)
        for s in seeds
        for name, graph in sidorenko_family_instances()
    ]
    tasks += [(_check_tree, s) for s in seeds]
    return _run_suite("sidorenko_families", seed, tasks)


# ---------------------------------------------------------------------------
# Suite: flowers against locally dense graphons.
# ---------------------------------------------------------------------------

def _check_flower(trial_seed, sizes=None):
    rng = random.Random(trial_seed)
    cycles = [rng.randint(3, 6) for _ in range(rng.randint(1, 3))]
    n = rng.randint(2, 5)
    if sizes is not None:
        (n,) = sizes
    graph = flower(cycles)
    d = Fraction(rng.randint(2, 8), 10)
    w = pointwise_dense_graphon(
        n, d, Fraction(rng.randint(1, 4), 4), rng.randrange(2 ** 31)
    )
    if rng.random() < 0.3:
        w2 = pointwise_dense_graphon(n, d, Fraction(1, 4), rng.randrange(2 ** 31))
        w = mixture_graphon([w, w2], [Fraction(1, 2), Fraction(1, 2)])
    exact = deficit(graph, w, d)
    return _decide(exact, 0, (n,), {"cycles": cycles, "d": d, "graphon": w})


def verify_flower_knrs(trials: int = 100, seed: int = 0) -> SuiteReport:
    """Cycle bouquets must beat d^e on graphons that are pointwise at least d
    (hence d-locally dense), including mixtures of such graphons.  Deficits
    are exact rationals; any negative deficit is a failure."""
    tasks = [(_check_flower, s) for s in _trial_seeds(seed, trials)]
    return _run_suite("flower_knrs", seed, tasks)


# ---------------------------------------------------------------------------
# Suite: uniformization lower bound.
# ---------------------------------------------------------------------------

def _check_holder_equality(trial_seed, sizes=None):
    rng = random.Random(trial_seed)
    n = rng.randint(2, 4)
    if sizes is not None:
        (n,) = sizes
    host = complete_graph(rng.randint(2, 3))
    lengths = [2 * rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
    spec = ReplacementSpec.uniform(host, lengths)
    w = _random_regular_graphon(rng, n)
    replaced = replace_edges_nonuniform(spec)
    lhs = hom_density(replaced, w).value
    rhs = holder_lower_bound(spec, w).value
    inputs = {"kind": "uniform-complete-equality", "spec": spec, "graphon": w}
    return _decide(lhs, rhs, (n,), inputs, equal=True)


def _check_holder_inequality(trial_seed, sizes=None):
    rng = random.Random(trial_seed)
    n = rng.randint(2, 4)
    if sizes is not None:
        (n,) = sizes
    host = _random_graph(rng, rng.randint(2, 4))
    maps = [
        {2 * rng.randint(1, 2): 1 for _ in range(rng.randint(1, 2))}
        for _ in host.edges
    ]
    spec = ReplacementSpec(host.n, zip(host.edges, maps))
    w = _random_regular_graphon(rng, n)
    replaced = replace_edges_nonuniform(spec)
    inputs = {"kind": "random-replacement", "spec": spec, "graphon": w}
    bound = holder_lower_bound(spec, w)
    lhs = hom_density(replaced, w, mode=bound.mode).value
    if bound.mode == "exact":
        return _decide(lhs, bound.value, (n,), inputs)
    # a fractional exponent is decided in float until it has an exact bound
    lhs, rhs = float(lhs), float(bound.value)
    gap = lhs - rhs
    record = None
    if not _rel_ok(lhs, rhs, FLOAT_TOL):
        record = {"inputs": _json_inputs(inputs), "lhs": lhs, "rhs": rhs,
                  "gap": gap}
    return gap, record, (n,)


def verify_holder(trials: int = 50, seed: int = 0) -> SuiteReport:
    """The replaced-graph density must dominate the uniformized bound built
    from averaged path exponents, with exact equality when the host is
    complete and the replacement is uniform.  Every fifth trial checks the
    equality.  The bound is decided in rational arithmetic when every path
    exponent is integral, and in float to relative ``FLOAT_TOL`` otherwise."""
    tasks = [
        (_check_holder_equality if i % 5 == 0 else _check_holder_inequality, s)
        for i, s in enumerate(_trial_seeds(seed, trials))
    ]
    return _run_suite("holder", seed, tasks)


SUITES = {
    "lemma31": verify_counting_identity,
    "local_density": verify_local_density,
    "sidorenko_families": verify_sidorenko_families,
    "flower_knrs": verify_flower_knrs,
    "holder": verify_holder,
}
