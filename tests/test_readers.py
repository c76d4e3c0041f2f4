"""The argument readers, through every site that reads by them:
``graphs._index`` for a vertex or step index, ``graphs._permutation`` for
a permutation, ``stepgraphon._unit`` for a target in [0, 1] and
``stepgraphon._ratio`` for a graphon value or mixture weight."""

import json
from fractions import Fraction as F

import numpy as np
import pytest

from sidlab.graphs import (Graph, RootedGraph, complete_graph, cycle_graph,
                           path_graph, semidirect_product)
from sidlab.homdensity import deficit
from sidlab.search import (certify_violation, project_regular,
                           search_counterexample)
from sidlab.stepgraphon import (LocalDensityReport, StepGraphon,
                                circulant_graphon, constant_graphon,
                                local_density_deficit, mixture_graphon,
                                permute_steps, pointwise_dense_graphon)

W = StepGraphon([[F(1, 4), F(3, 4)], [F(3, 4), F(1, 4)]])
C4 = cycle_graph(4)
HALF = np.full((2, 2), 0.5)

# each reader's refusals: (value, message with the site's name for {what})
REFUSALS = {
    "index": [(True, "{what} True is not an integer"),
              (1.0, "{what} 1.0 is not an integer"),
              (9, "{what} 9 out of range")],
    "permutation": [(True, "{what} True is not an integer"),
                    (1.0, "{what} 1.0 is not an integer"),
                    (9, "not a permutation of the")],
    "unit": [(True, "{what} True is a boolean, not a number"),
             (1.5, "{what} must lie in [0, 1]"),
             (2, "{what} must lie in [0, 1]"),
             (-F(1, 3), "{what} must lie in [0, 1]")],
    "ratio": [(True, "a graphon value is a boolean, not a number"),
              (np.True_, "a graphon value is a boolean, not a number")],
}

# site -> (reader, the name it reads the value under, the call on the
# value); 1 is a valid value at every site
SITES = {
    "graph-endpoint": ("index", "endpoint", lambda x: Graph(3, ((0, x),))),
    "rooted-root": ("index", "root",
                    lambda x: RootedGraph(path_graph(1), (0, x))),
    "semidirect-independent-set": (
        "index", "independent set vertex",
        lambda x: semidirect_product(path_graph(2), {x}, 0,
                                     complete_graph(2))),
    "semidirect-a": (
        "index", "vertex",
        lambda x: semidirect_product(path_graph(2), {0}, x,
                                     complete_graph(2))),
    "relabel": ("permutation", "vertex",
                lambda x: Graph(3, ((0, 1),)).relabel([x, 0, 2])),
    "permute-steps": ("permutation", "step",
                      lambda x: permute_steps(W, [x, 0])),
    "deficit": ("unit", "target density", lambda x: deficit(C4, W, x)),
    "search": ("unit", "degree",
               lambda x: search_counterexample(C4, 2, x, starts=1, iters=1)),
    "project-regular": ("unit", "degree", lambda x: project_regular(HALF, x)),
    "certify-violation": ("unit", "degree",
                          lambda x: certify_violation(C4, HALF, d=x)),
    "local-density": ("unit", "target density",
                      lambda x: local_density_deficit(W, x)),
    "pointwise-density": ("unit", "density",
                          lambda x: pointwise_dense_graphon(2, x, F(1, 2), 0)),
    "pointwise-noise": ("unit", "noise",
                        lambda x: pointwise_dense_graphon(2, F(1, 2), x, 0)),
    "constant-graphon": ("ratio", "value",
                         lambda x: constant_graphon(x, 2)),
    "circulant-graphon": ("ratio", "value",
                          lambda x: circulant_graphon([x, 0])),
    "mixture-weight": ("ratio", "weight",
                       lambda x: mixture_graphon([W, W], [x, 0])),
}


def assert_plain(out):
    """No NumPy integer survives into ``out``: its JSON form serializes,
    and its rationals are over plain ints."""
    if isinstance(out, LocalDensityReport):
        out = out.deficit_exact
    if isinstance(out, F):
        assert type(out.numerator) is int and type(out.denominator) is int
    elif out is not None:
        json.dumps(out.to_json_dict())


@pytest.mark.parametrize("site", SITES)
def test_each_reader_refuses_alike_at_every_site(site):
    # at the parent of the readers, semidirect_product read {True} and
    # {1.0} as vertex 1, deficit took a target of 2, and RootedGraph kept
    # NumPy roots, which json.dumps refused; the graphon generators read a
    # Python bool as 0 or 1 and failed on a NumPy bool with a TypeError
    reader, what, build = SITES[site]
    for value, message in REFUSALS[reader]:
        with pytest.raises(ValueError) as info:
            build(value)
        assert str(info.value).startswith(message.format(what=what))
    out = build(np.int64(1))
    assert out == build(1)
    assert_plain(out)
