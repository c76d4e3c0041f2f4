"""The benchmark's three workloads: inputs, one call per item, output check.

Each workload cuts its item stream into cycles.  A cycle holds the same list
of shapes (the size mix) for every seed; the seed only draws the random part
of each instance (graphon entries, vertex labels, search and suite seeds) and
the order of the items inside the cycle.  Cycle ``c`` depends on nothing but
``(seed, c)``, so two seeds give the same item count and size mix, and one
seed gives the same items every time.

Items reach sidlab through module attributes (``search.search_counterexample``
and so on), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sidlab import cli, graphs, homdensity, search, stepgraphon, verify

DEGREES = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
SEARCH_ITERS = 6
DEFICIT_FLOOR = -1e-8
REGULARITY_TOL = 1e-6
GRAPHON_DENOMINATOR = 6


@dataclass(frozen=True)
class Item:
    """One call into a workload's entry point.  ``shape`` is the size-mix
    key, equal for every seed; ``inputs`` are the generated arguments."""

    kind: str
    shape: tuple
    inputs: dict


def sidorenko_graphs():
    """Bipartite graphs known to be Sidorenko, 4 to 9 vertices."""
    def theta(*lengths):
        return graphs.generalized_theta(lengths, "even").graph

    return {
        "C4": graphs.cycle_graph(4),
        "K23": graphs.complete_multipartite([2, 3]),
        "C6": graphs.cycle_graph(6),
        "theta24": theta(2, 4),
        "K33": graphs.complete_multipartite([3, 3]),
        "theta224": theta(2, 2, 4),
        "C8": graphs.cycle_graph(8),
        "theta244": theta(2, 4, 4),
    }


def random_graphon(rng, n):
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = Fraction(
                rng.randrange(GRAPHON_DENOMINATOR + 1), GRAPHON_DENOMINATOR)
    return stepgraphon.StepGraphon(grid)


def relabelled(graph, rng):
    """The same graph under random vertex labels, so that caches keyed on
    the labelled edge list see a new shape."""
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return graph.relabel(perm)


class Workload:
    """Cycles of items over fixed ``shapes``; subclasses build, run and
    check one item."""

    name = ""
    shapes = ()
    warmup_shapes = ()
    # The fixed item set, about 5 s of items on a 2-core VM: a traced run
    # covers exactly these cycles, and peak memory is read after them.
    fixed_cycles = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def cycle(self, c):
        rng = random.Random(f"{self.name}:{self.seed}:{c}")
        items = [self.make(shape, rng, f"{c}-{k}")
                 for k, shape in enumerate(self.shapes)]
        rng.shuffle(items)
        return items

    def warmup(self):
        rng = random.Random(f"{self.name}:{self.seed}:warmup")
        return [self.make(shape, rng, f"warmup-{k}")
                for k, shape in enumerate(self.warmup_shapes)]

    def make(self, shape, rng, tag):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output):
        """None when ``output`` is right for ``item``, else the reason."""
        raise NotImplementedError


class SearchWorkload(Workload):
    """``search_counterexample`` on Sidorenko graphs: no certificate, and a
    best deficit no lower than float noise."""

    name = "search"
    fixed_cycles = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.graphs = sidorenko_graphs()
        mix = random.Random(0)  # the size mix is fixed, whatever the seed
        self.shapes = [
            (g, mix.randint(3, 6), mix.choice(DEGREES), mix.randint(4, 16))
            for g in self.graphs for _ in range(3)
        ]
        self.warmup_shapes = [("C4", 3, Fraction(1, 2), 2)]

    def make(self, shape, rng, tag):
        g, n, d, starts = shape
        return Item("search", shape, {
            "graph": self.graphs[g], "n": n, "d": d, "starts": starts,
            "seed": rng.randrange(2 ** 32),
        })

    def run(self, item):
        x = item.inputs
        return search.search_counterexample(
            x["graph"], n=x["n"], d=x["d"], starts=x["starts"],
            iters=SEARCH_ITERS, seed=x["seed"])

    def check(self, item, result):
        x = item.inputs
        if result.certificate is not None:
            return "certified violation on a Sidorenko graph"
        if not result.best_deficit >= DEFICIT_FLOOR:
            return (f"best deficit {result.best_deficit!r} "
                    f"below {DEFICIT_FLOOR}")
        degrees = result.best_w.float_matrix.sum(axis=1) / x["n"]
        if np.max(np.abs(degrees - float(x["d"]))) > REGULARITY_TOL:
            return "best graphon is not d-regular"
        return None


class ExactWorkload(Workload):
    """Self-checking exact-rational items of three kinds: the counting
    identity t(H∘F, W) == t(H, W^F), some of it through the ``density`` CLI
    verb; elimination against brute force; and ``certify_violation`` on
    float witnesses of a short search, which must find nothing."""

    name = "exact"
    fixed_cycles = 8
    shapes = (
        # ("identity", host, theta lengths, steps, left side through the CLI)
        ("identity", "K3", (2,), 8, False),
        ("identity", "K3", (2, 2), 6, False),
        ("identity", "K3", (2, 4), 4, False),
        ("identity", "K3", (3,), 7, True),
        ("identity", "K4", (2,), 5, True),
        ("identity", "K4", (2, 2), 5, False),
        ("identity", "K4", (1, 3), 4, False),
        ("identity", "K4", (3,), 6, False),
        ("identity", "K5", (2,), 8, False),
        ("identity", "K5", (2, 2), 3, False),
        ("identity", "K5", (3,), 4, False),
        ("identity", "K13", (2, 4), 8, False),
        ("identity", "K13", (1, 3), 6, True),
        ("identity", "K33", (2,), 5, False),
        ("identity", "K33", (2, 2), 4, True),
        ("identity", "K33", (1, 3), 3, False),
        # ("oracle", vertices, edges, steps)
        ("oracle", 8, 10, 2),
        ("oracle", 8, 12, 3),
        ("oracle", 7, 10, 3),
        ("oracle", 7, 14, 3),
        ("oracle", 6, 9, 4),
        ("oracle", 6, 7, 4),
        ("oracle", 5, 7, 5),
        ("oracle", 4, 5, 6),
        # ("certify", graph, steps, degree, max denominator)
        ("certify", "C4", 8, Fraction(1, 3), 10 ** 6),
        ("certify", "C6", 6, Fraction(1, 2), 10 ** 5),
        ("certify", "K23", 5, Fraction(2, 3), 10 ** 4),
        ("certify", "K33", 6, Fraction(1, 3), 10 ** 6),
        ("certify", "theta24", 7, Fraction(1, 2), 10 ** 3),
        ("certify", "C8", 4, Fraction(2, 3), 10 ** 6),
        ("certify", "theta224", 5, Fraction(1, 3), 10 ** 5),
        ("certify", "K33", 4, Fraction(1, 2), 10 ** 4),
    )
    warmup_shapes = (
        ("identity", "K3", (2,), 3, False),
        ("identity", "K3", (2,), 3, True),
        ("oracle", 4, 4, 2),
        ("certify", "C4", 3, Fraction(1, 2), 10 ** 3),
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.hosts = {
            "K3": graphs.complete_graph(3),
            "K4": graphs.complete_graph(4),
            "K5": graphs.complete_graph(5),
            "K13": graphs.complete_multipartite([1, 3]),
            "K33": graphs.complete_multipartite([3, 3]),
        }
        self.sidorenko = sidorenko_graphs()

    def make(self, shape, rng, tag):
        kind = shape[0]
        if kind == "identity":
            _, host, lengths, n, via_cli = shape
            gadget = graphs.generalized_theta(lengths)
            w = random_graphon(rng, n)
            inputs = {
                "host": relabelled(self.hosts[host], rng),
                "gadget": gadget,
                "graphon": w,
                "replaced": relabelled(
                    graphs.replace_edges(self.hosts[host], gadget), rng),
                "argv": None,
            }
            if via_cli:
                inputs["argv"] = self._density_argv(
                    tag, inputs["replaced"], w)
            return Item(kind, shape, inputs)
        if kind == "oracle":
            _, nv, m, n = shape
            pairs = list(itertools.combinations(range(nv), 2))
            g = graphs.Graph(nv, tuple(rng.sample(pairs, m)))
            return Item(kind, shape,
                        {"graph": g, "graphon": random_graphon(rng, n)})
        _, g, n, d, max_den = shape
        graph = relabelled(self.sidorenko[g], rng)
        witness = search.search_counterexample(
            graph, n=n, d=d, starts=2, iters=3, seed=rng.randrange(2 ** 32))
        return Item(kind, shape, {
            "graph": graph, "matrix": witness.best_w.float_matrix, "d": d,
            "max_denominator": max_den,
        })

    def _density_argv(self, tag, graph, w):
        graph_path = self.workdir / f"graph-{tag}.json"
        graphon_path = self.workdir / f"graphon-{tag}.json"
        graph_path.write_text(json.dumps(graph.to_json_dict()))
        graphon_path.write_text(json.dumps(w.to_json_dict()))
        return ["density", "--graph", str(graph_path),
                "--graphon", str(graphon_path), "--mode", "exact"]

    def run(self, item):
        x = item.inputs
        if item.kind == "identity":
            if x["argv"] is None:
                lhs = homdensity.hom_density(x["replaced"], x["graphon"]).value
            else:
                lhs = density_via_cli(x["argv"])
            kernel = stepgraphon.counting_kernel(x["graphon"], x["gadget"])
            return lhs, homdensity.hom_density(x["host"], kernel).value
        if item.kind == "oracle":
            return (
                homdensity.hom_density(x["graph"], x["graphon"]).value,
                homdensity.hom_density(x["graph"], x["graphon"],
                                       strategy="bruteforce").value,
            )
        return search.certify_violation(
            x["graph"], x["matrix"], x["d"],
            max_denominator=x["max_denominator"])

    def check(self, item, output):
        if item.kind == "certify":
            if output is not None:
                return "certified violation on a Sidorenko graph"
            return None
        a, b = output
        if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
            return f"not exact: {a!r}, {b!r}"
        if a != b:
            return f"{item.kind} mismatch: {a} != {b}"
        if not 0 <= a <= 1:
            return f"density {a} outside [0, 1]"
        return None


def density_via_cli(argv):
    """Run a ``sidlab density`` command in-process; its exact value."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"sidlab {' '.join(argv)} exited with {code}")
    return Fraction(json.loads(out.getvalue())["value"])


class SuitesWorkload(Workload):
    """One ``verify.SUITES`` call per item, trial counts in the acceptance
    gate's proportions (200 : 50 : 100 : 100 : 50, divided by 25) and every
    other argument at its default."""

    name = "suites"
    fixed_cycles = 25
    shapes = (
        ("lemma31", 8),
        ("local_density", 2),
        ("sidorenko_families", 4),
        ("flower_knrs", 4),
        ("holder", 2),
    )
    warmup_shapes = tuple((suite, 1) for suite, _ in shapes)

    def make(self, shape, rng, tag):
        suite, trials = shape
        return Item("suite", shape, {"suite": suite, "trials": trials,
                                     "seed": rng.randrange(2 ** 31)})

    def run(self, item):
        x = item.inputs
        return verify.SUITES[x["suite"]](trials=x["trials"], seed=x["seed"])

    def check(self, item, report):
        x = item.inputs
        if report.suite != x["suite"] or report.trials < x["trials"]:
            return f"report of {report.suite!r} with {report.trials} checks"
        if not report.passed:
            return f"{len(report.failures)} failed checks"
        return None


WORKLOADS = {w.name: w
             for w in (SearchWorkload, ExactWorkload, SuitesWorkload)}
