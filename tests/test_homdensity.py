import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sidlab import contraction, homdensity
from sidlab.contraction import (
    STATE_LIMIT,
    bruteforce_exact,
    bruteforce_float,
    contract_exact,
    contract_float,
    elimination_order,
)
from sidlab.graphs import (
    Graph,
    ReplacementSpec,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    edge_orbits,
    generalized_theta,
    path_graph,
    replace_edges,
    replace_edges_nonuniform,
)
from sidlab.homdensity import (
    DensityValue,
    _gradient_float,
    deficit,
    density_gradient,
    holder_lower_bound,
    hom_density,
)
from sidlab.stepgraphon import (
    StepGraphon,
    circulant_graphon,
    constant_graphon,
    counting_kernel,
    pointwise_dense_graphon,
)

BIP = StepGraphon([[0, 1], [1, 0]])


def random_symmetric(rng, n, den=6):
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = F(rng.randrange(den + 1), den)
            grid[i][j] = grid[j][i] = x
    return StepGraphon(grid)


def random_float_stack(np_rng, count, n):
    """``count`` symmetric float grids in [0, 1), shape (count, n, n)."""
    raw = np_rng.random((count, n, n))
    return (raw + np.swapaxes(raw, -1, -2)) / 2.0


def random_graph(rng, nv):
    edges = [
        (u, v) for u in range(nv) for v in range(u + 1, nv)
        if rng.random() < 0.6
    ]
    return Graph(nv, tuple(edges))


def loop_oracle(graph, w):
    """Third, utterly naive implementation: explicit map enumeration."""
    n = w.n_steps
    total = F(0)
    for phi in itertools.product(range(n), repeat=graph.n):
        prod = F(1)
        for u, v in graph.edges:
            prod *= w.values[phi[u]][phi[v]]
        total += prod
    return total / F(n) ** graph.n


# -- densities ---------------------------------------------------------------

def test_k3_on_constant_half():
    assert hom_density(complete_graph(3), constant_graphon(F(1, 2), 3)).value \
        == F(1, 8)


def test_c4_on_bipartite():
    dv = hom_density(cycle_graph(4), BIP)
    assert dv.value == F(1, 8)
    assert dv.value == loop_oracle(cycle_graph(4), BIP)


def test_pinned_single_edge():
    dv = hom_density(Graph(2, ((0, 1),)), BIP, pins={0: 0, 1: 1})
    assert dv.value == 1
    assert dv.scale_exponent == 0


def test_pin_collision_rejected():
    with pytest.raises(ValueError, match="collision"):
        hom_density(Graph(2, ((0, 1),)), BIP, pins=[(0, 0), (0, 1)])


def test_pin_out_of_range():
    with pytest.raises(ValueError):
        hom_density(Graph(2, ((0, 1),)), BIP, pins={0: 5})


def order_of(n_vertices, edges, grid, n_steps, pins=(), keep=()):
    """``elimination_order`` called as a backend is; it reads no grid."""
    return elimination_order(n_vertices, edges, pins, keep)


every_backend = pytest.mark.parametrize("backend, grid", [
    (contract_exact, BIP),
    (bruteforce_exact, BIP),
    (contract_float, BIP.float_matrix),
    (bruteforce_float, BIP.float_matrix),
    (order_of, None),
])


@every_backend
def test_repeated_pin_rejected(backend, grid):
    with pytest.raises(ValueError, match="collision"):
        backend(2, ((0, 1),), grid, 2, pins=((0, 0), (0, 1)))


@every_backend
@pytest.mark.parametrize("keep, match", [
    ((7,), "out of range"),
    ((-1,), "out of range"),
    ((0, 0), "repeat"),
    ((0, 1, 2), "at most two"),
])
def test_keep_validated(backend, grid, keep, match):
    with pytest.raises(ValueError, match=match):
        backend(3, ((0, 1), (1, 2)), grid, 2, keep=keep)


def test_elimination_order_reads_pins_as_the_entry_points_do():
    # (vertex, step) pairs once went through sorted() as pairs: nothing was
    # pinned and vertex 0 was eliminated
    edges = ((0, 1), (1, 2))
    order = elimination_order(3, edges, pins=[(0, 1)])
    assert 0 not in order.vertices
    assert order is elimination_order(3, edges, pins={0: 2})
    for pins, keep, match in (([(3, 0)], (), "out of range"),
                              ({0: 0}, (0,), "both pinned")):
        with pytest.raises(ValueError, match=match):
            elimination_order(3, edges, pins, keep)


@pytest.mark.parametrize("entry, grid", [
    (contract_exact, BIP), (bruteforce_exact, BIP),
    (contract_float, BIP.float_matrix), (bruteforce_float, BIP.float_matrix),
])
@pytest.mark.parametrize("pins", [{0: 1}, [(0, 1)]])
def test_each_call_checks_its_inputs_once(entry, grid, pins, monkeypatch):
    # a pinned engine call once read the pins twice and checked the pinned
    # and the kept vertices twice, and hom_density read the pins a third
    # time; hom_density's own reading is counted apart
    calls = []
    for module, name in ((contraction, "_check_vertices"),
                         (contraction, "_normalize_pins"),
                         (homdensity, "_normalize_pins")):
        def counted(*args, _fn=getattr(module, name),
                    _key=f"{module.__name__}.{name}"):
            calls.append(_key)
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    path = Graph(3, ((0, 1), (1, 2)))
    entry(path.n, path.edges, grid, 2, pins=pins, keep=(2,))
    assert sorted(calls) == ["sidlab.contraction._check_vertices",
                             "sidlab.contraction._normalize_pins"]
    if entry in (contract_exact, contract_float):
        calls.clear()
        mode = "exact" if entry is contract_exact else "float"
        hom_density(path, BIP, mode=mode, pins=pins)
        assert sorted(calls) == ["sidlab.contraction._check_vertices",
                                 "sidlab.contraction._normalize_pins",
                                 "sidlab.homdensity._normalize_pins"]


@pytest.mark.parametrize("backend", [
    contract_exact, bruteforce_exact, contract_float, bruteforce_float,
])
@pytest.mark.parametrize("bad", [
    (np.eye(3), StepGraphon(np.eye(3))),
    (np.ones((2, 3)), constant_graphon(1, 1)),
])
def test_grid_shape_must_match_the_step_count(backend, bad):
    # with n_steps=2 the 3 x 3 identity once gave 3/4 from the engine and
    # 1/4 from the oracle, and the 2 x 3 grid of ones gave 1.5; a graphon's
    # grid is square, so the exact entry points get a 1-step one instead
    float_grid, graphon = bad
    bad = graphon if backend in (contract_exact, bruteforce_exact) \
        else float_grid
    with pytest.raises(ValueError, match="not 2 x 2"):
        backend(2, ((0, 1),), bad, 2)


@pytest.mark.parametrize("backend", [contract_exact, bruteforce_exact])
@pytest.mark.parametrize("values, name", [
    (BIP.values, "tuple"),
    ([[F(0), F(1)], [F(1), F(0)]], "list"),
    (BIP.integer_grid, "ndarray"),
    (BIP.float_matrix, "ndarray"),
])
def test_exact_entry_points_take_a_graphon(backend, values, name):
    # a raw rational grid was once scaled to integers by the engine, a
    # second exact input format beside the graphon's own integer grid
    with pytest.raises(ValueError, match=f"takes a StepGraphon, not {name}"):
        backend(2, ((0, 1),), values, 2)


def test_only_the_float_engine_takes_a_stack():
    stack = np.stack([BIP.float_matrix] * 3)
    assert contract_float(2, ((0, 1),), stack, 2).tolist() == [0.5] * 3
    with pytest.raises(ValueError, match="not 2 x 2"):
        bruteforce_float(2, ((0, 1),), stack, 2)


def test_bruteforce_rejects_three_kept_before_enumerating():
    # 4^30 assignments would trip the state guard; the keep check comes first
    with pytest.raises(ValueError, match="at most two"):
        bruteforce_exact(30, (), constant_graphon(F(1, 2), 4), 4,
                         keep=(0, 1, 2))


def test_edgeless_graph_density_is_one():
    assert hom_density(Graph(3), BIP).value == 1


def test_float_mode_matches_exact():
    rng = random.Random(13)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 5))
        w = random_symmetric(rng, rng.randint(2, 4))
        exact = hom_density(g, w).value
        fl = hom_density(g, w, mode="float").value
        assert abs(float(exact) - fl) < 1e-12


def test_bruteforce_guard():
    with pytest.raises(ValueError, match="refused"):
        hom_density(Graph(30), constant_graphon(F(1, 2), 4),
                    strategy="bruteforce")


def reference_bruteforce(n_vertices, edges, values, n_steps, pins, keep):
    """The oracle's former per-assignment loop, kept as a literal reference:
    one dict per assignment and one edge weight at a time, on Fractions.
    Returns what ``bruteforce_exact`` returns."""
    free = [v for v in range(n_vertices) if v not in pins and v not in keep]

    def total(fixed):
        acc = 0
        for assign in itertools.product(range(n_steps), repeat=len(free)):
            phi = dict(fixed)
            phi.update(zip(free, assign))
            prod = 1
            for u, v in edges:
                prod *= values[phi[u]][phi[v]]
                if prod == 0:
                    break
            acc += prod
        return acc

    sums = [
        F(total({**pins, **dict(zip(keep, xs))})) / F(n_steps) ** len(free)
        for xs in itertools.product(range(n_steps), repeat=len(keep))
    ]
    if not keep:
        return sums[0]
    if len(keep) == 1:
        return tuple(sums)
    return tuple(tuple(sums[i:i + n_steps])
                 for i in range(0, len(sums), n_steps))


def symmetrized(grid):
    """The graphon of the symmetric part ``(A + Aᵀ) / 2`` of a rational
    grid: the grid the exact entry points read in place of a non-symmetric
    one."""
    return StepGraphon([[(x + y) / 2 for x, y in zip(row, col)]
                        for row, col in zip(grid, zip(*grid))])


@st.composite
def raw_contractions(draw):
    """A raw contraction: a non-symmetric grid, an edge list that may hold
    loops and leave vertices isolated (or be empty), pins and up to two
    kept vertices, on 0 to 6 vertices.  The float entry points read the
    grid, the exact ones its symmetrized graphon."""
    nv = draw(st.integers(0, 6))
    n = draw(st.integers(1, 4))
    grid = draw(st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    grid = [[F(x, 6) for x in row] for row in grid]
    vertex = st.integers(0, max(nv - 1, 0))
    edges = tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=8))
                  if nv else ())
    order = draw(st.permutations(range(nv)))
    n_pins = draw(st.integers(0, min(2, nv)))
    pins = {v: draw(st.integers(0, n - 1)) for v in order[:n_pins]}
    keep = tuple(order[n_pins:n_pins + draw(st.integers(0, min(2, nv - n_pins)))])
    return nv, edges, grid, n, pins, keep


@settings(max_examples=150, deadline=None)
@given(raw_contractions())
def test_oracle_and_engine_match_the_reference_loop(case):
    nv, edges, grid, n, pins, keep = case
    w = symmetrized(grid)
    ref = reference_bruteforce(nv, edges, w.values, n, pins, keep)
    ref_float = np.array(reference_bruteforce(nv, edges, grid, n, pins, keep),
                         dtype=float)
    floats = np.array(grid, dtype=float)
    # a small prime chunk puts chunk boundaries inside every enumeration
    # of more than 7 assignments and leaves a short last chunk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contraction, "_BRUTEFORCE_CHUNK", 7)
        assert bruteforce_exact(nv, edges, w, n, pins=pins, keep=keep) \
            == ref
        brute = bruteforce_float(nv, edges, floats, n, pins=pins, keep=keep)
    assert contract_exact(nv, edges, w, n, pins=pins, keep=keep) == ref
    fl = contract_float(nv, edges, floats, n, pins=pins, keep=keep)
    for out in (brute, fl):
        assert np.shape(out) == ref_float.shape
        assert np.max(np.abs(out - ref_float)) < 1e-12


@st.composite
def replaced_contractions(draw):
    """A host of 2 to 5 vertices with every edge replaced by one theta
    graph of lengths 1 to 4, so its copies repeat the same kernel steps,
    with a non-symmetric grid, pins and up to two kept vertices.  The float
    entry points read the grid, the exact ones its symmetrized graphon.  At
    most 11 vertices, so that two or more steps stay within ~4,000 oracle
    assignments."""
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                   .filter(lambda ls: ls.count(1) <= 1))
    inner = sum(lengths) - len(lengths)
    h = draw(st.integers(2, min(5, 11 - inner)))
    pairs = list(itertools.combinations(range(h), 2))
    most = (11 - h) // inner if inner else len(pairs)
    host = Graph(h, tuple(draw(st.lists(st.sampled_from(pairs), min_size=1,
                                        max_size=most, unique=True))))
    graph = replace_edges(host, generalized_theta(lengths))
    n = draw(st.integers(2, int(4000 ** (1 / graph.n))))
    grid = [[F(draw(st.integers(0, 6)), 6) for _ in range(n)]
            for _ in range(n)]
    # most pins land on host vertices, where copies of the gadget meet and
    # see different pinned rows
    vertex = st.one_of(st.integers(0, h - 1), st.integers(0, h - 1),
                       st.integers(0, graph.n - 1))
    pins = {v: draw(st.integers(0, n - 1))
            for v in draw(st.lists(vertex, max_size=2, unique=True))}
    rest = [v for v in draw(st.permutations(range(graph.n))) if v not in pins]
    keep = tuple(rest[:draw(st.integers(0, 2))])
    return graph, grid, n, pins, keep, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None)
@given(replaced_contractions())
# K3 o theta(2,2) pinned at two host vertices: the copies on (0, 2) and
# (1, 2) run the same subscripts on the rows of different pinned vertices
@example((replace_edges(complete_graph(3), generalized_theta([2, 2])),
          [[F(1, 6), F(2, 6)], [F(3, 6), F(5, 6)]], 2, {0: 0, 1: 1}, (), 0))
# K3 o P3 pinned at two path middles: host vertices 1 and 2 run the same
# subscripts on the columns of different pinned vertices
@example((replace_edges(complete_graph(3), generalized_theta([2])),
          [[F(1, 6), F(2, 6)], [F(3, 6), F(5, 6)]], 2, {3: 0, 4: 1}, (), 0))
def test_replaced_graphs_match_the_oracle(case):
    # the copies of the gadget share their kernel steps: the engine
    # evaluates each once and must still agree with the oracle, exactly on
    # a graphon and to rounding on the non-symmetric grid, and give every
    # grid of a stack the bits of its own call
    graph, grid, n, pins, keep, seed = case
    w = symmetrized(grid)
    assert contract_exact(graph.n, graph.edges, w, n, pins=pins,
                          keep=keep) == \
        bruteforce_exact(graph.n, graph.edges, w, n, pins=pins, keep=keep)
    a = np.array(grid, dtype=float)
    np.testing.assert_allclose(
        contract_float(graph.n, graph.edges, a, n, pins=pins, keep=keep),
        bruteforce_float(graph.n, graph.edges, a, n, pins=pins, keep=keep),
        rtol=1e-12, atol=0)
    stack = np.random.default_rng(seed).random((3, n, n))
    batched = contract_float(graph.n, graph.edges, stack, n, pins=pins,
                             keep=keep)
    for a, out in zip(stack, batched):
        assert same_bits(out, contract_float(graph.n, graph.edges, a, n,
                                             pins=pins, keep=keep))


SKEW = [[F(1), F(0)], [F(1), F(1, 2)]]


@pytest.mark.parametrize("backend", [contract_float, bruteforce_float])
def test_pinned_endpoint_reads_its_own_grid_axis(backend):
    # edge (0, 1) weighs A[phi(0)][phi(1)]: a pinned second endpoint reads
    # a column of a non-symmetric float grid, a pinned first endpoint a row
    grid = np.array(SKEW, dtype=float)
    edge = ((0, 1),)
    assert backend(2, edge, grid, 2, pins={1: 0}) == 1
    assert backend(2, edge, grid, 2, pins={1: 1}) == F(1, 4)
    assert backend(2, edge, grid, 2, pins={0: 0}) == F(1, 2)


def test_pinned_second_endpoint_on_a_stack():
    a = np.array(SKEW, dtype=float)
    stack = np.stack([a, a.T, np.eye(2)])
    out = contract_float(2, ((0, 1),), stack, 2, pins={1: 0})
    assert out.tolist() == [1.0, 0.5, 0.5]
    path = ((0, 1), (1, 2))
    out = contract_float(3, path, stack, 2, pins={2: 0}, keep=(0,))
    for grid, row in zip(stack, out):
        assert np.all(row == contract_float(3, path, grid, 2, pins={2: 0},
                                            keep=(0,)))
        assert np.all(row == bruteforce_float(3, path, grid, 2, pins={2: 0},
                                              keep=(0,)))


def test_high_degree_vertex_contracts():
    # the hub collects one factor per leaf: more than one einsum call accepts,
    # so its bucket (or, with the hub kept, the kept-vertex tail) is folded
    # in chunks first
    w = random_symmetric(random.Random(71), 3)
    leaves = 70
    star = Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))
    at_hub = [(sum(w.values[x]) / 3) ** leaves for x in range(3)]
    expected = sum(at_hub) / 3
    assert hom_density(star, w).value == expected
    assert abs(hom_density(star, w, mode="float").value
               - float(expected)) < 1e-12
    assert contract_exact(star.n, star.edges, w, 3,
                          keep=(0,)) == tuple(at_hub)
    # chunking leaves at most 32 operands in a bucket, which bounds the
    # pairwise products in it: with the hub kept the plan is 70 leaf steps
    # and the tail's two chunks; without it, 69 leaf steps, then the
    # bucket of the hub and the last leaf: two chunks, 6 products of the 7
    # unary leaf factors they leave, the hub's step, and the last leaf's
    assert len(elimination_order(star.n, star.edges, keep=(0,)).steps) == 72
    assert len(elimination_order(star.n, star.edges).steps) == 69 + 2 + 6 + 2
    stack = random_float_stack(np.random.default_rng(71), 3, 3)
    for keep in ((), (0,)):
        batched = contract_float(star.n, star.edges, stack, 3, keep=keep)
        for grid, out in zip(stack, batched):
            alone = contract_float(star.n, star.edges, grid, 3, keep=keep)
            assert np.all(out == alone)
            ref = (grid.sum(axis=1) / 3) ** leaves
            np.testing.assert_allclose(alone, ref if keep else ref.mean(),
                                       rtol=1e-12)


def test_dense_bucket_multiplies_pairwise():
    # K5's first bucket AB,AC,AD,AE->BCDE multiplies AB,AC and then AD,AE
    # (three-variable products) and only then sums A out of their product;
    # both products multiply two copies of the grid, so the second takes
    # the first one's result
    plan = elimination_order(5, complete_graph(5).edges).steps
    assert [step[:3] for step in plan[:3]] == [
        ("...AB,...AC->...ABC", contraction._FOLD, 0),
        ("...AB,...AC->...ABC", contraction._FOLD, 0),
        ("...ABC,...ADE->...BCDE", contraction._FACTOR, 2),
    ]
    assert all(len(step) == 6 for step in plan
               if step[1] == contraction._FOLD)


def distinct_steps(order):
    """How many steps of a compiled order the engine evaluates."""
    return sum(step[2] == k for k, step in enumerate(order.steps))


@pytest.mark.parametrize("graph, total, distinct, expected", [
    # each theta(2,2) copy repeats the first copy's kernel steps; the
    # counting identity t(K4 o F, W) = t(K4, W^F) gives the value
    (replace_edges(complete_graph(4), generalized_theta([2, 2])), 22, 7,
     lambda w: hom_density(complete_graph(4), counting_kernel(
         w, generalized_theta([2, 2]))).value),
    # 69 identical leaf steps, and the same pairwise products in the hub's
    # bucket
    (Graph(71, tuple((0, i) for i in range(1, 71))), 79, 11,
     lambda w: sum((sum(row) / 3) ** 70 for row in w.values) / 3),
])
def test_repeated_steps_are_evaluated_once(graph, total, distinct, expected):
    order = elimination_order(graph.n, graph.edges)
    assert len(order.steps) == total
    assert distinct_steps(order) <= distinct
    # every repeat takes an earlier result of the same subscripts and kind,
    # and the last repeat of each class is the one marked to release it
    for k, (subscripts, kind, source, last, *_) in enumerate(order.steps):
        assert source <= k
        assert order.steps[source][:3] == (subscripts, kind, source)
        assert last == all(step[2] != source for step in order.steps[k + 1:])
    calls, einsum = [], np.einsum

    def counted(*args):
        calls.append(args[0])
        return einsum(*args)

    w = random_symmetric(random.Random(graph.n), 3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "einsum", counted)
        exact = contract_exact(graph.n, graph.edges, w, 3)
    assert len(calls) == distinct_steps(order)
    assert exact == expected(w)


@pytest.mark.parametrize("graph, n", [
    (complete_graph(4), 2), (complete_graph(4), 3),
    (complete_graph(5), 2), (complete_graph(5), 3),
    (complete_multipartite([3, 3]), 2), (complete_multipartite([3, 3]), 3),
    (replace_edges(complete_graph(4), generalized_theta([2, 2])), 2),
])
@pytest.mark.parametrize("keep", [(), (0,), (1, 0)])
def test_pairwise_buckets_match_the_oracle(graph, n, keep):
    # raw_contractions draws at most 8 edges and never fills a bucket with
    # four factors; these dense shapes multiply factors pairwise in their
    # buckets (K4 and K5 hosts, K3,3 and the theta(2,2) replacement of K4)
    w = random_symmetric(random.Random(graph.n * 10 + n), n)
    exact = contract_exact(graph.n, graph.edges, w, n, keep=keep)
    assert exact == bruteforce_exact(graph.n, graph.edges, w, n, keep=keep)
    fl = contract_float(graph.n, graph.edges, w.float_matrix, n, keep=keep)
    assert np.max(np.abs(fl - np.array(exact, dtype=float))) < 1e-12


def test_width_cap_enforced(monkeypatch):
    # the guard caps n^(width + 1) times the stack size: K10 (width 9) is
    # 2^10 index tuples at 2 steps but 8^10 at 8, and K3 on 200 steps is
    # 8e6 per grid, so a stack of two is refused
    k10 = complete_graph(10)
    w = random_symmetric(random.Random(5), 2)
    assert hom_density(k10, w).value == \
        hom_density(k10, w, strategy="bruteforce").value
    k3 = complete_graph(3)
    grid = np.full((200, 200), 0.5)
    assert contract_float(3, k3.edges, grid, 200) == pytest.approx(0.125)
    assert 8 ** 10 > 200 ** 3 * 2 > STATE_LIMIT >= 200 ** 3
    monkeypatch.setattr(np, "einsum", None)  # refused before any einsum
    for mode in ("exact", "float"):
        with pytest.raises(ValueError, match="refused"):
            hom_density(k10, constant_graphon(F(1, 2), 8), mode=mode)
    with pytest.raises(ValueError, match="refused"):
        contract_float(3, k3.edges, np.stack([grid, grid]), 200)


def min_fill_reference(n_vertices, edges, pins, keep):
    """Greedy min-fill, min-degree, min-index order, fill counted pair by
    pair: (vertices, arities)."""
    adj = {v: set() for v in range(n_vertices) if v not in pins}
    for u, v in edges:
        if u not in pins and v not in pins:
            adj[u].add(v)
            adj[v].add(u)

    def fill(v):
        return sum(b not in adj[a]
                   for a, b in itertools.combinations(list(adj[v]), 2))

    order, arities = [], []
    eliminable = set(adj) - set(keep)
    while eliminable:
        v = min(eliminable, key=lambda w: (fill(w), len(adj[w]), w))
        order.append(v)
        arities.append(len(adj[v]) + 1)
        nbrs = set(adj[v])
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(v)
        del adj[v]
        eliminable.remove(v)
    return tuple(order), tuple(arities)


def test_elimination_order_reports_width():
    order = elimination_order(4, cycle_graph(4).edges)
    assert sorted(order.vertices) == [0, 1, 2, 3]
    assert order.width == 2
    assert max(order.arities) == order.width + 1
    k5 = complete_graph(5)
    assert elimination_order(5, k5.edges).width == 4
    # a raw edge list may carry loops; a loop is no fill
    edges = ((0, 2), (0, 3), (0, 5), (1, 3), (1, 4), (2, 5), (4, 4), (4, 5))
    order = elimination_order(6, edges)
    assert (order.vertices, order.arities) == \
        min_fill_reference(6, edges, (), ())


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and \
        x.tobytes() == y.tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_eliminate_equals_bruteforce(seed):
    rng = random.Random(seed)
    g = disjoint_union(random_graph(rng, rng.randint(2, 6)),
                       Graph(rng.randint(0, 2)))
    g = g.relabel(rng.sample(range(g.n), g.n))  # scatter isolated vertices
    w = random_symmetric(rng, rng.randint(2, 4))
    n = w.n_steps
    order = rng.sample(range(g.n), g.n)
    n_pins = rng.randint(0, min(2, g.n))
    pins = {v: rng.randrange(n) for v in order[:n_pins]}
    keep = tuple(order[n_pins:n_pins + rng.randint(0, min(2, g.n - n_pins))])
    a = hom_density(g, w, strategy="eliminate").value
    b = hom_density(g, w, strategy="bruteforce").value
    assert a == b
    order = elimination_order(g.n, g.edges, pins, keep)
    assert (order.vertices, order.arities) == \
        min_fill_reference(g.n, g.edges, pins, keep)
    stack = random_float_stack(np.random.default_rng(seed),
                               rng.randint(1, 4), n)
    calls = [
        lambda: contract_exact(g.n, g.edges, w, n, pins=pins, keep=keep),
        lambda: contract_float(g.n, g.edges, w.float_matrix, n, pins=pins,
                               keep=keep),
        lambda: contract_float(g.n, g.edges, stack, n, pins=pins, keep=keep),
    ]
    # each call once with its plan compiled afresh, then from the cache
    cold = []
    for call in calls:
        contraction._elimination_order_cached.cache_clear()
        cold.append(call())
    hits = contraction._elimination_order_cached.cache_info().hits
    exact, fl, batched = cold
    assert calls[0]() == exact
    assert same_bits(calls[1](), fl)
    assert same_bits(calls[2](), batched)
    assert contraction._elimination_order_cached.cache_info().hits == hits + 3
    assert exact == bruteforce_exact(g.n, g.edges, w, n, pins=pins,
                                     keep=keep)
    ref = np.array(exact, dtype=float)
    assert ref.shape == (n,) * len(keep)
    brute = bruteforce_float(g.n, g.edges, w.float_matrix, n, pins=pins,
                             keep=keep)
    for out in (fl, brute):
        assert np.shape(out) == ref.shape
        assert np.max(np.abs(out - ref)) < 1e-12
    # a stack of grids: every slice equals the 2-D call on it, bit for bit
    assert batched.shape == stack.shape[:1] + ref.shape
    for grid, out in zip(stack, batched):
        assert np.all(out == contract_float(g.n, g.edges, grid, n, pins=pins,
                                            keep=keep))


def test_one_plan_serves_every_pin_target():
    # per pinned-vertex set, one compiled order; the pin targets only choose
    # the grid rows it reads, here also for an edge with both ends pinned
    w = random_symmetric(random.Random(89), 3)
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)))
    plans = []
    for pinned, keep in (((0, 2), (3,)), ((1, 4), ())):
        orders = []
        for targets in ((0, 1), (2, 2)):
            pins = dict(zip(pinned, targets))
            orders.append(elimination_order(g.n, g.edges, pins, keep))
            exact = contract_exact(g.n, g.edges, w, 3, pins=pins,
                                   keep=keep)
            assert exact == bruteforce_exact(g.n, g.edges, w, 3,
                                             pins=pins, keep=keep)
            fl = contract_float(g.n, g.edges, w.float_matrix, 3, pins=pins,
                                keep=keep)
            assert np.max(np.abs(fl - np.array(exact, dtype=float))) < 1e-12
        assert orders[0] is orders[1]
        plans.append(orders[0])
    assert plans[0] != plans[1]


def test_pins_realize_counting_kernel_entries():
    rng = random.Random(23)
    w = random_symmetric(rng, 3)
    gadget = generalized_theta([2, 4], "even")
    kernel = counting_kernel(w, gadget)
    r1, r2 = gadget.roots
    for x in range(3):
        for y in range(3):
            pinned = hom_density(gadget.graph, w, pins={r1: x, r2: y})
            assert pinned.value == kernel.values[x][y]


def test_counting_identity_instance():
    # replacing K3's edges by a 4-cycle gadget, evaluated two ways
    w = random_symmetric(random.Random(31), 3)
    host = complete_graph(3)
    gadget = generalized_theta([2, 2], "even")
    lhs = hom_density(replace_edges(host, gadget), w).value
    rhs = hom_density(host, counting_kernel(w, gadget)).value
    assert lhs == rhs


@pytest.mark.parametrize("host", [
    complete_graph(2), path_graph(2), complete_graph(3), cycle_graph(4),
    complete_graph(4),
], ids=["K2", "P3", "K3", "C4", "K4"])
@pytest.mark.parametrize("lengths", [[2], [4], [2, 2], [2, 4]],
                         ids=["path2", "path4", "theta22", "theta24"])
def test_counting_identity_grid(host, lengths):
    rng = random.Random(hash((host.edges, tuple(lengths))) & 0xFFFF)
    gadget = generalized_theta(lengths, "even")
    for _ in range(2):
        w = random_symmetric(rng, rng.randint(2, 4))
        lhs = hom_density(replace_edges(host, gadget), w).value
        rhs = hom_density(host, counting_kernel(w, gadget)).value
        assert lhs == rhs


def test_tree_density_on_regular_graphon_is_degree_power():
    c5 = circulant_graphon([0, 1, 0, 0, 1])
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    assert hom_density(star, c5).value == F(2, 5) ** 3
    assert hom_density(path_graph(3), c5).value == F(2, 5) ** 3


def test_multiplicativity_under_disjoint_union():
    rng = random.Random(41)
    for _ in range(5):
        g1 = random_graph(rng, rng.randint(2, 4))
        g2 = random_graph(rng, rng.randint(2, 4))
        w = random_symmetric(rng, 3)
        lhs = hom_density(disjoint_union(g1, g2), w).value
        rhs = hom_density(g1, w).value * hom_density(g2, w).value
        assert lhs == rhs


def test_monotone_under_entrywise_increase():
    rng = random.Random(43)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 5))
        n = rng.randint(2, 4)
        w1 = random_symmetric(rng, n, den=8)
        bumped = [
            [min(x + F(rng.randrange(3), 8), F(1)) for x in row]
            for row in w1.values
        ]
        for i in range(n):
            for j in range(n):
                bumped[j][i] = bumped[i][j]
        w2 = StepGraphon(bumped)
        t1 = hom_density(g, w1).value
        t2 = hom_density(g, w2).value
        assert t1 <= t2 <= 1


def test_density_value_to_json_dict():
    assert DensityValue(F(1, 8), "exact", 4).to_json_dict() == \
        {"mode": "exact", "value": "1/8", "vH": 4}
    assert DensityValue(0.125, "float", 4).to_json_dict() == \
        {"mode": "float", "value": 0.125, "vH": 4}


def test_density_value_range_checked():
    with pytest.raises(ValueError):
        DensityValue(F(3, 2), "exact", 2)


# -- gradients ---------------------------------------------------------------

def test_gradient_k2_closed_form():
    for n in (2, 3, 4):
        w = constant_graphon(F(1, 2), n)
        g = density_gradient(Graph(2, ((0, 1),)), w)
        for u in range(n):
            for v in range(n):
                expected = F(1, n * n) if u == v else F(2, n * n)
                assert g[u][v] == expected


def fd_gradient(graph, w, h=1e-5):
    from sidlab.contraction import contract_float

    a0 = w.float_matrix
    n = a0.shape[0]
    out = np.zeros((n, n))
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
            out[u, v] = out[v, u] = (tp - tm) / (2 * h)
    return out


def test_gradient_matches_finite_differences_c4():
    w = constant_graphon(F(1, 2), 2)
    g = np.array([[float(x) for x in row]
                  for row in density_gradient(cycle_graph(4), w)])
    fd = fd_gradient(cycle_graph(4), w)
    assert np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-9)) < 1e-6


def test_gradient_matches_finite_differences_random():
    rng = random.Random(47)
    for _ in range(6):
        nv = rng.randint(2, 5)
        g = random_graph(rng, nv)
        if g.num_edges == 0:
            continue
        n = rng.randint(2, 4)
        # keep entries away from the box boundary so the stencil stays valid
        grid = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = F(rng.randrange(1, 8), 8)
                grid[i][j] = grid[j][i] = x
        w = StepGraphon(grid)
        grad = np.array([[float(x) for x in row]
                         for row in density_gradient(g, w)])
        fd = fd_gradient(g, w)
        rel = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-9))
        assert rel < 1e-6, (g, rel)


def test_gradient_float_mode_matches_exact():
    rng = random.Random(53)
    graphs = [
        cycle_graph(4),
        Graph(4, ((0, 1), (1, 2))),  # vertex 3 isolated
        Graph(3),                    # no edges: the gradient vanishes
    ] + [random_graph(rng, rng.randint(2, 5)) for _ in range(4)]
    for g in graphs:
        w = random_symmetric(rng, rng.randint(2, 4))
        exact = np.array(density_gradient(g, w), dtype=float)
        fl = _gradient_float(g, w.float_matrix)
        assert np.max(np.abs(exact - fl)) < 1e-13, g


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_gradient_float_stack_equals_per_grid(seed):
    rng = random.Random(seed)
    g = disjoint_union(random_graph(rng, rng.randint(2, 5)),
                       Graph(rng.randint(0, 1)))
    stack = random_float_stack(np.random.default_rng(seed),
                               rng.randint(1, 4), rng.randint(2, 4))
    batched = _gradient_float(g, stack)
    assert batched.shape == stack.shape
    for grid, out in zip(stack, batched):
        assert np.all(out == _gradient_float(g, grid))


def frucht_graph():
    """The Frucht graph: cubic on 12 vertices with no automorphism but the
    identity, built from its LCF notation."""
    lcf = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
    edges = {tuple(sorted((i, (i + 1) % 12))) for i in range(12)}
    edges |= {tuple(sorted((i, (i + s) % 12))) for i, s in enumerate(lcf)}
    return Graph(12, tuple(edges))


THETA_224 = generalized_theta([2, 2, 4]).graph
THETA_244 = generalized_theta([2, 4, 4]).graph


def shuffled(graph, seed=0):
    perm = list(range(graph.n))
    random.Random(seed).shuffle(perm)
    return graph.relabel(perm)


@pytest.mark.parametrize("graph, sizes", [
    (cycle_graph(4), [4]),
    (complete_multipartite([3, 3]), [9]),
    (THETA_224, [2, 2, 4]),
    (THETA_244, [2, 4, 4]),
    (frucht_graph(), [1] * 18),
    (disjoint_union(cycle_graph(4), cycle_graph(4)), [8]),
    # an isomorphism search blind to adjacency backtracked for minutes here
    (shuffled(disjoint_union(frucht_graph(), frucht_graph())), [2] * 18),
])
def test_edge_orbits(graph, sizes):
    orbits = edge_orbits(graph)
    assert sorted(map(len, orbits)) == sizes
    assert sorted(e for orbit in orbits for e in orbit) == list(graph.edges)


def per_edge_gradient(graph, w):
    """The gradient from one cavity per edge, both orientations, on the
    public exact contraction: the sum the orbit gradient must reproduce."""
    n = w.n_steps
    grid = [[F(0)] * n for _ in range(n)]
    for k, (u, v) in enumerate(graph.edges):
        cavity = graph.edges[:k] + graph.edges[k + 1:]
        kernel = contract_exact(graph.n, cavity, w, n, keep=(u, v))
        for x in range(n):
            for y in range(n):
                grid[x][y] += kernel[x][y] + kernel[y][x]
    return tuple(tuple(grid[x][y] / (n * n * (2 if x == y else 1))
                       for y in range(n)) for x in range(n))


@st.composite
def orbit_cases(draw):
    """A graph with shuffled vertex labels, made of one or two parts, each
    a random graph, a symmetric gadget or the asymmetric Frucht graph, and
    a random rational graphon on 1 to 3 steps."""
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["random", "gadget", "frucht"]))
        if kind == "random":
            rng = random.Random(draw(st.integers(0, 10 ** 6)))
            parts.append(random_graph(rng, draw(st.integers(1, 6))))
        elif kind == "gadget":
            parts.append(draw(st.sampled_from([
                cycle_graph(4), cycle_graph(5), complete_multipartite([2, 3]),
                complete_multipartite([3, 3]), THETA_224, THETA_244,
                path_graph(3), complete_graph(4),
            ])))
        else:
            parts.append(frucht_graph())
    graph = parts[0] if len(parts) == 1 else disjoint_union(*parts)
    graph = graph.relabel(draw(st.permutations(range(graph.n))))
    n = draw(st.integers(1, 3))
    w = random_symmetric(random.Random(draw(st.integers(0, 10 ** 6))), n)
    return graph, w


@settings(max_examples=40, deadline=None)
@given(orbit_cases())
def test_orbit_gradient_equals_the_per_edge_sum(case):
    graph, w = case
    ref = per_edge_gradient(graph, w)
    assert density_gradient(graph, w) == ref
    np.testing.assert_allclose(_gradient_float(graph, w.float_matrix),
                               np.array(ref, dtype=float), rtol=1e-12, atol=0)


@pytest.mark.parametrize("graph, cavities", [
    (cycle_graph(6), 1),
    (THETA_224, 3),
    (frucht_graph(), 18),
])
@pytest.mark.parametrize("entry", ["contract_float", "contract_exact"])
def test_gradient_contracts_each_edge_orbit_once(entry, graph, cavities,
                                                 monkeypatch):
    # the gradient contracts through the public entry points, where the
    # benchmark's tracer counts every cavity
    calls = []
    contract = getattr(contraction, entry)

    def counting(*args, **kwargs):
        calls.append(kwargs["keep"])
        return contract(*args, **kwargs)

    monkeypatch.setattr(contraction, entry, counting)
    w = constant_graphon(F(1, 2), 3)
    if entry == "contract_float":
        _gradient_float(graph, w.float_matrix)
    else:
        density_gradient(graph, w)
    assert len(calls) == cavities


# -- deficits ----------------------------------------------------------------

def test_tree_deficit_exactly_zero_on_regular():
    c5 = circulant_graphon([0, 1, 0, 0, 1])
    tree = Graph(5, ((0, 1), (1, 2), (1, 3), (3, 4)))
    assert deficit(tree, c5) == 0


def test_c4_deficit_on_bipartite_graphon():
    assert deficit(cycle_graph(4), BIP) == F(1, 16)


def test_knrs_deficit_on_pointwise_dense():
    rng = random.Random(59)
    k3 = complete_graph(3)
    for _ in range(100):
        d = F(3, 10)
        w = pointwise_dense_graphon(rng.randint(2, 4), d, F(1, 2),
                                    rng.randrange(2 ** 31))
        assert deficit(k3, w, d) >= 0


def test_flower_triangle_on_constant_is_tight():
    from sidlab.graphs import flower

    w = constant_graphon(F(2, 5), 3)
    assert deficit(flower([3]), w, F(2, 5)) == 0


def test_unit_length_gadget_replacement_is_identity():
    host = complete_graph(3)
    unit = generalized_theta([1])
    assert replace_edges(host, unit) == host


# -- uniformized lower bound ---------------------------------------------------

def test_holder_uniform_complete_host_equality():
    rng = random.Random(61)
    for lengths in ([2], [2, 2], [2, 4]):
        host = complete_graph(3)
        spec = ReplacementSpec.uniform(host, lengths)
        w = random_symmetric(rng, 3)
        bound = holder_lower_bound(spec, w)
        assert bound.mode == "exact"
        direct = hom_density(replace_edges_nonuniform(spec), w).value
        assert bound.value == direct


def test_holder_constant_graphon_value():
    host = complete_graph(3)
    spec = ReplacementSpec.uniform(host, [2])
    bound = holder_lower_bound(spec, constant_graphon(F(1, 2), 2))
    assert bound.value == F(1, 2) ** 6


def test_holder_path_host_fractional_alpha():
    # two-edge path with bundles {2:1} and {2:2}: alpha_2 = 1, still integral
    spec = ReplacementSpec(3, {(0, 1): {2: 1}, (1, 2): {2: 2}})
    assert spec.alphas() == {2: F(1)}
    rng = random.Random(67)
    for _ in range(20):
        half = [F(rng.randrange(13), 12) for _ in range(3)]
        w = circulant_graphon([half[0], half[1], half[2], half[2], half[1]])
        lhs = hom_density(replace_edges_nonuniform(spec), w).value
        bound = holder_lower_bound(spec, w).value
        assert lhs >= bound


def test_holder_noninteger_alpha_uses_float():
    spec = ReplacementSpec(3, {(0, 1): {2: 1}, (1, 2): {4: 1}})
    assert spec.alphas() == {2: F(1, 3), 4: F(1, 3)}
    w = circulant_graphon([F(1, 2), F(1, 3), F(1, 3)])
    bound = holder_lower_bound(spec, w)
    assert bound.mode == "float"
    lhs = float(hom_density(replace_edges_nonuniform(spec), w).value)
    assert lhs >= float(bound.value) - 1e-12


def test_holder_zero_weight_entries_use_zero_power_convention():
    spec = ReplacementSpec(3, {(0, 1): {2: 1}, (1, 2): {4: 1}})
    w = StepGraphon([[0, 0], [0, 0]])
    bound = holder_lower_bound(spec, w)
    assert float(bound.value) == 0.0
