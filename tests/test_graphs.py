import itertools
import json
import sys
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from sidlab import graphs
from sidlab.graphs import (
    Graph,
    ReplacementSpec,
    RootedGraph,
    Theorem12Case,
    classify_theorem12,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    edge_orbits,
    find_isomorphism,
    flower,
    generalized_theta,
    path_graph,
    replace_edges,
    replace_edges_nonuniform,
    semidirect_product,
    subdivide,
)


# -- basic invariants --------------------------------------------------------

def test_graph_rejects_loops():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))


def test_graph_rejects_duplicates():
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))


def test_graph_normalizes_edge_order():
    g = Graph(3, ((2, 1), (1, 0)))
    assert g.edges == ((0, 1), (1, 2))


def test_empty_graph_allowed():
    g = Graph(0)
    assert g.n == 0 and g.num_edges == 0


def test_bipartiteness():
    assert cycle_graph(4).is_bipartite()
    assert not cycle_graph(5).is_bipartite()
    assert complete_graph(2).is_bipartite()
    assert not complete_graph(3).is_bipartite()


@pytest.mark.parametrize("n, edges", [
    (3, ((0, 1.5),)), (True, ()), (2, ((0, True),)), (3, ((0, "1"),)),
])
def test_graph_rejects_non_integers(n, edges):
    # 1.5 used to fail later with a KeyError, and True was read as 1
    with pytest.raises(ValueError, match="not an integer"):
        Graph(n, edges)


def test_graph_stores_plain_ints():
    g = Graph(np.int64(3), ((np.int64(2), np.int64(1)),))
    assert g == Graph(3, ((1, 2),))
    assert type(g.n) is int and all(type(x) is int for x in g.edges[0])


@pytest.mark.parametrize("perm", [[0, 1, 1], [0, 1], [0, 1, 2, 3], [1, 2, 3]])
def test_relabel_refuses_a_non_permutation(perm):
    # [0, 1, 1] once merged two vertices and [0, 1] dropped one
    with pytest.raises(ValueError, match="not a permutation"):
        Graph(3, ((0, 1),)).relabel(perm)
    assert Graph(3, ((0, 1),)).relabel([2, 0, 1]) == Graph(3, ((0, 2),))


def test_graph_json_roundtrip():
    g = complete_multipartite([2, 3])
    assert Graph.from_json_dict(g.to_json_dict()) == g


# -- generalized theta -------------------------------------------------------

def test_theta_22_is_c4():
    t = generalized_theta([2, 2], "even")
    assert t.graph.n == 4
    assert t.graph.num_edges == 4
    assert find_isomorphism(t.graph, cycle_graph(4)) is not None
    assert find_isomorphism(t.graph,
                            complete_multipartite([2, 2])) is not None
    # roots are the two opposite degree-2 vertices joined by both paths
    assert t.graph.degrees()[t.roots[0]] == 2
    assert tuple(sorted(t.roots)) not in t.graph.edges


def test_theta_single_path_is_path():
    t = generalized_theta([2], "even")
    assert t.graph.n == 3
    assert t.graph.edges == ((0, 2), (1, 2))


def test_theta_13_explicit_edges():
    # one edge between the roots plus a length-3 detour: a 4-cycle
    t = generalized_theta([1, 3], "odd")
    assert t.graph.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert find_isomorphism(t.graph, cycle_graph(4)) is not None


def test_theta_duplicate_unit_length_rejected():
    with pytest.raises(ValueError, match="multi-edge"):
        generalized_theta([1, 1, 2])


def test_theta_parity_enforced():
    with pytest.raises(ValueError, match="parity"):
        generalized_theta([2, 3], "even")
    with pytest.raises(ValueError, match="parity"):
        generalized_theta([2, 3], "odd")
    generalized_theta([2, 3], "any")


THETA_REFUSALS = [
    ([True, 4], "any"), ([2.0, 4], "any"), ([0, 4], "any"),
    ([1, 1], "any"), ([2, 4], "odd"), ([2, 4], "parity?"),
]


def theta_refusal(lengths, parity):
    with pytest.raises(ValueError) as err:
        generalized_theta(lengths, parity)
    return str(err.value)


def test_theta_memo_refuses_as_on_a_cold_cache():
    # the memo is read only after the lengths are checked, so True, 2.0 or
    # a parity mismatch never reaches the entry that [2, 4] made
    graphs._theta.cache_clear()
    cold = [theta_refusal(*case) for case in THETA_REFUSALS]
    assert cold[0] == "path length True is not an integer"
    generalized_theta([2, 4])
    generalized_theta([1])
    assert [theta_refusal(*case) for case in THETA_REFUSALS] == cold


def test_theta_memo_shares_one_graph_per_length_tuple():
    graphs._theta.cache_clear()
    t = generalized_theta([2, 4])
    assert generalized_theta((2, 4)) is t
    assert generalized_theta([np.int64(2), 4], "even") is t
    assert all(type(v) is int for e in t.graph.edges for v in e)
    edges = []
    nxt = graphs._lay_path(edges, 0, 1, 2, 2)
    nxt = graphs._lay_path(edges, 0, 1, 4, nxt)
    assert t == RootedGraph(Graph(nxt, tuple(edges)), (0, 1))
    assert generalized_theta([4, 2]) != t


def test_theta_checks_its_root_swap_without_a_search(monkeypatch):
    # a theta's root swap reverses every path, so building one searches
    # for none; the search took seconds on a path of 2,001 edges.  A
    # RootedGraph built by hand still searches.
    searches = []

    def counting(*args, **kwargs):
        searches.append(args)
        return find_isomorphism(*args, **kwargs)

    monkeypatch.setattr(graphs, "find_isomorphism", counting)
    graphs._theta.cache_clear()
    long = generalized_theta([2001])
    mixed = generalized_theta([400, 600, 800])
    t = generalized_theta([1, 3, 5])
    assert searches == []
    assert (long.n, long.num_edges) == (2002, 2001)
    assert (mixed.n, mixed.num_edges) == (1799, 1800)
    assert t == RootedGraph(t.graph, (0, 1)) and len(searches) == 1
    graphs._theta.cache_clear()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
def test_theta_always_has_root_swap_automorphism(lengths):
    if sum(1 for x in lengths if x == 1) > 1:
        lengths = [x if x != 1 else 2 for x in lengths]
    t = generalized_theta(lengths)  # RootedGraph validates the swap
    assert t.graph.num_edges == sum(lengths)
    assert t.graph.n == 2 + sum(x - 1 for x in lengths)


# -- flower ------------------------------------------------------------------

def test_flower_single_triangle():
    assert find_isomorphism(flower([3]), complete_graph(3)) is not None


def test_flower_bowtie_counts():
    g = flower([3, 3])
    assert (g.n, g.num_edges) == (5, 6)


def test_flower_46_counts():
    g = flower([4, 6])
    assert (g.n, g.num_edges) == (9, 10)


def test_flower_rejects_short_cycles():
    with pytest.raises(ValueError):
        flower([2, 3])


def test_flower_hub_meets_all_cycles():
    g = flower([3, 4, 5])
    assert g.degrees() == (6,) + (2,) * (g.n - 1)


# -- subdivide ---------------------------------------------------------------

def test_subdivide_k3_once_is_c6():
    assert find_isomorphism(subdivide(complete_graph(3), 1),
                            cycle_graph(6)) is not None


def test_subdivide_zero_is_identity():
    g = complete_multipartite([1, 2])
    assert subdivide(g, 0) == g


def test_subdivide_counts():
    g = complete_graph(4)
    s = subdivide(g, 3)
    assert s.n == g.n + 3 * g.num_edges
    assert s.num_edges == 4 * g.num_edges


def test_subdivide_long_path():
    # laid edge by edge, with no isomorphism search, so the count has no
    # recursion limit
    s = subdivide(complete_graph(2), 2000)
    assert (s.n, s.num_edges) == (2002, 2001)


# -- replace_edges -----------------------------------------------------------

def test_replace_single_edge_with_theta22_is_c4():
    out = replace_edges(Graph(2, ((0, 1),)), generalized_theta([2, 2], "even"))
    assert find_isomorphism(out, cycle_graph(4)) is not None


def test_replace_k3_with_path2_equals_subdivision():
    k3 = complete_graph(3)
    a = replace_edges(k3, generalized_theta([2], "even"))
    b = subdivide(k3, 1)
    assert a == b  # identical numbering, not merely isomorphic


def test_replace_path_host_two_c4s_share_vertex():
    host = path_graph(2)
    out = replace_edges(host, generalized_theta([2, 2], "even"))
    assert (out.n, out.num_edges) == (7, 8)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3),
)
def test_replace_edges_count_invariants(nv, lengths):
    host = complete_graph(nv)
    gadget = generalized_theta(lengths)
    out = replace_edges(host, gadget)
    assert out.num_edges == host.num_edges * gadget.num_edges
    assert out.n == host.n + host.num_edges * (gadget.n - 2)


@pytest.mark.parametrize("length", [1, 2, 3, 4])
@pytest.mark.parametrize("nv", [2, 3, 4])
def test_replace_single_even_path_matches_subdivide(nv, length):
    host = complete_graph(nv)
    parity = "any" if length % 2 else "even"
    a = replace_edges(host, generalized_theta([length], parity))
    b = subdivide(host, length - 1)
    assert a == b
    if a.n <= 12:
        assert find_isomorphism(a, b) is not None


# -- replacement specs -------------------------------------------------------

def test_nonuniform_uniform_agrees_with_theta_replacement():
    spec = ReplacementSpec.uniform(complete_graph(3), [2])
    out = replace_edges_nonuniform(spec)
    assert find_isomorphism(out, cycle_graph(6)) is not None


def test_nonuniform_single_edge_theta22():
    spec = ReplacementSpec(2, {(0, 1): {2: 2}})
    out = replace_edges_nonuniform(spec)
    assert find_isomorphism(out, cycle_graph(4)) is not None


def test_nonuniform_mixed_lengths_counts():
    spec = ReplacementSpec(3, {(0, 1): {2: 1}, (0, 2): {4: 1}, (1, 2): {2: 1}})
    out = replace_edges_nonuniform(spec)
    # internal vertices: (2-1) + (4-1) + (2-1) = 5; edges: 2 + 4 + 2 = 8
    assert (out.n, out.num_edges) == (8, 8)
    assert out.num_edges == sum(k * c for k, c in spec.totals().items())


def test_spec_rejects_duplicate_unit_paths():
    with pytest.raises(ValueError):
        ReplacementSpec(2, {(0, 1): {1: 2}})


def test_spec_mismatch_rejected():
    data = ReplacementSpec.uniform(complete_graph(3), [2]).to_json_dict()
    data["lengths"].pop()
    with pytest.raises(ValueError, match="one length list"):
        ReplacementSpec.from_json_dict(data)


def test_spec_pairs_each_bundle_with_its_edge():
    # the length-2 path is meant for (1, 2) and the length-4 one for (0, 1),
    # whatever order the edges come in
    spec = ReplacementSpec(3, (((1, 2), ((2, 1),)), ((0, 1), ((4, 1),))))
    assert spec.bundles == (((0, 1), ((4, 1),)), ((1, 2), ((2, 1),)))
    assert spec == ReplacementSpec(3, {(1, 2): {2: 1}, (0, 1): {4: 1}})
    # vertex 3 lies on the length-4 path from 0 to 1
    out = replace_edges_nonuniform(spec)
    assert out.edges == ((0, 3), (1, 5), (1, 6), (2, 6), (3, 4), (4, 5))


def test_spec_rejects_an_edge_given_twice():
    with pytest.raises(ValueError, match="duplicate edge"):
        ReplacementSpec(2, (((0, 1), {2: 1}), ((1, 0), {4: 1})))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_spec_ignores_pair_order_and_edge_orientation(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    edges = data.draw(st.lists(
        st.sampled_from(list(complete_graph(n).edges)), min_size=1,
        unique=True))
    bundle = st.dictionaries(st.integers(min_value=2, max_value=4),
                             st.integers(min_value=0, max_value=2),
                             max_size=2)
    pairs = [(e, data.draw(bundle)) for e in sorted(edges)]
    spec = ReplacementSpec(n, pairs)
    shuffled = data.draw(st.permutations(pairs))
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                               max_size=len(pairs)))
    moved = ReplacementSpec(n, [((v, u) if flip else (u, v), bundle)
                                for ((u, v), bundle), flip
                                in zip(shuffled, flips)])
    assert moved == spec
    assert replace_edges_nonuniform(moved) == replace_edges_nonuniform(spec)


def test_spec_alpha_values():
    spec = ReplacementSpec(3, {(0, 1): {2: 1}, (0, 2): {4: 1}, (1, 2): {2: 1}})
    assert spec.alphas() == {2: Fraction(2, 3), 4: Fraction(1, 3)}
    # edge-count consistency: sum_k k * alpha_k * C(h,2) == e(H')
    assert sum(k * a * 3 for k, a in spec.alphas().items()) == sum(
        k * c for k, c in spec.totals().items())


def test_spec_json_roundtrip():
    spec = ReplacementSpec(3, {(0, 1): {2: 2}, (0, 2): {4: 1}, (1, 2): {2: 1}})
    assert ReplacementSpec.from_json_dict(spec.to_json_dict()) == spec


def test_spec_json_file_with_unsorted_reversed_edges(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "n": 3, "edges": [[2, 1], [0, 1]],
        "lengths": [[{"k": 2, "count": 1}], [{"k": 4, "count": 1}]],
    }))
    back = ReplacementSpec.from_json_dict(json.loads(path.read_text()))
    assert back == ReplacementSpec(3, {(1, 2): {2: 1}, (0, 1): {4: 1}})


def test_spec_json_requires_n():
    # vertex 3 is isolated: "n" cannot be read off the edges, and C(4, 2)
    # sets the exponents
    spec = ReplacementSpec(4, {(0, 1): {2: 1}, (1, 2): {2: 1}})
    data = spec.to_json_dict()
    back = ReplacementSpec.from_json_dict(data)
    assert back == spec
    assert back.alphas() == {2: Fraction(1, 3)}
    del data["n"]
    with pytest.raises(KeyError):
        ReplacementSpec.from_json_dict(data)


@pytest.mark.parametrize("field, value", [
    ("n", 3.7), ("n", True), ("edge", 1.0), ("k", 2.9), ("count", 1.5),
    ("count", True),
])
def test_spec_json_takes_integers_only(field, value):
    # a non-integer is refused, never truncated or read as 1
    data = {"n": 3, "edges": [[0, 1]], "lengths": [[{"k": 2, "count": 1}]]}
    if field == "n":
        data["n"] = value
    elif field == "edge":
        data["edges"] = [[0, value]]
    else:
        data["lengths"][0][0][field] = value
    with pytest.raises(ValueError):
        ReplacementSpec.from_json_dict(data)


@pytest.mark.parametrize("bundle", [((2.9, 1),), ((2, 1.5),), ((True, 1),),
                                    ((2, True),), (("2", 1),)])
def test_spec_rejects_non_integer_lengths_and_counts(bundle):
    with pytest.raises(ValueError, match="not an integer"):
        ReplacementSpec(2, (((0, 1), bundle),))


@pytest.mark.parametrize("build, lengths", [
    (generalized_theta, [2.5, 2.9]),
    (generalized_theta, [2, True]),
    (flower, [3.7]),
])
def test_gadget_constructors_reject_non_integer_lengths(build, lengths):
    # each used to truncate through int(), to C4 or K3, or read True as 1
    bad = next(x for x in lengths if type(x) is not int)
    with pytest.raises(ValueError, match=f"{bad} is not an integer"):
        build(lengths)


SIZED_CONSTRUCTORS = {
    "path length": path_graph,
    "cycle length": cycle_graph,
    "vertex count": complete_graph,
    "part size": lambda x: complete_multipartite([x, 2]),
    "subdivision count": lambda x: subdivide(complete_graph(3), x),
    "subdivision parameter": lambda x: semidirect_product(
        path_graph(2), {0}, 2, complete_graph(2), x),
    "vertex": lambda x: semidirect_product(
        path_graph(2), {0}, x, complete_graph(2), 1),
}


@pytest.mark.parametrize("what", SIZED_CONSTRUCTORS)
@pytest.mark.parametrize("bad", [True, 1.0, 1.5])
def test_sized_constructors_reject_non_integers(what, bad):
    # each read True as 1: path_graph(True) was K2, subdivide(K3, True) C6
    # and complete_multipartite([True, 2]) K1,2; cycle_graph(3.5) and
    # complete_graph(2.5) raised TypeError
    with pytest.raises(ValueError, match=f"{what} {bad} is not an integer"):
        SIZED_CONSTRUCTORS[what](bad)


# each one-sided read with its floor: one below it is refused, and a numpy
# integer at it is read as the int
FLOORS = [
    *(pytest.param(what, low, SIZED_CONSTRUCTORS[what], id=what)
      for what, low in [("vertex count", 0), ("part size", 1),
                        ("path length", 0), ("cycle length", 3),
                        ("subdivision count", 0),
                        ("subdivision parameter", 1)]),
    pytest.param("path length", 1, lambda x: generalized_theta([2, x]),
                 id="theta"),
    pytest.param("cycle length", 3, lambda x: flower([3, x]), id="flower"),
    pytest.param("path length", 1,
                 lambda x: ReplacementSpec(2, {(0, 1): {x: 1}}),
                 id="spec-length"),
    pytest.param("path count", 0,
                 lambda x: ReplacementSpec(2, {(0, 1): {2: x}}),
                 id="spec-count"),
    # the floor is read before the parity, which 0 would also fail
    pytest.param("path length", 1, lambda x: generalized_theta([3, x], "odd"),
                 id="odd-theta"),
]


@pytest.mark.parametrize("what, low, build", FLOORS)
def test_sized_constructors_refuse_values_below_their_floor(what, low, build):
    with pytest.raises(ValueError, match=f"{what} {low - 1} is below {low}"):
        build(low - 1)
    assert build(np.int64(low)) == build(low)


# -- semidirect product ------------------------------------------------------

def test_semidirect_glued_edges_make_c4():
    out = semidirect_product(Graph(2, ((0, 1),)), {0}, 1, complete_graph(2), 1)
    assert find_isomorphism(out, cycle_graph(4)) is not None


def test_semidirect_empty_gluing_set():
    out = semidirect_product(Graph(2, ((0, 1),)), set(), 1, complete_graph(2), 1)
    # two disjoint edges plus a subdivided edge across the a-copies
    assert out.n == 2 * 2 + 1
    assert out.num_edges == 2 + 2


def test_semidirect_rejects_dependent_set():
    with pytest.raises(ValueError):
        semidirect_product(complete_graph(3), {0, 1}, 2, complete_graph(2), 1)


def test_semidirect_rejects_a_in_set():
    with pytest.raises(ValueError):
        semidirect_product(path_graph(2), {0}, 0, complete_graph(2), 1)


@pytest.mark.parametrize("h,l1,l2", [(3, 1, 1), (3, 1, 2), (3, 2, 1), (4, 1, 1)])
def test_semidirect_matches_direct_clique_subdivision(h, l1, l2):
    # a clique subdivision: edges at a chosen vertex subdivided l2-1 times,
    # the others 2*l1-1 times, built both directly and via the glued product
    via_product = semidirect_product(
        path_graph(l2), {0}, l2, complete_graph(h - 1), l1
    )
    spec = ReplacementSpec(h, {e: {l2 if 0 in e else 2 * l1: 1}
                               for e in complete_graph(h).edges})
    direct = replace_edges_nonuniform(spec)
    assert via_product.n == direct.n
    assert via_product.num_edges == direct.num_edges
    assert find_isomorphism(via_product, direct) is not None


def test_semidirect_h3_l1_l1_is_c4():
    out = semidirect_product(path_graph(1), {0}, 1, complete_graph(2), 1)
    assert find_isomorphism(out, cycle_graph(4)) is not None


# -- disjoint union ----------------------------------------------------------

def test_union_counts():
    g = disjoint_union(complete_graph(2), complete_graph(2))
    assert (g.n, g.num_edges) == (4, 2)
    g2 = disjoint_union(cycle_graph(4), cycle_graph(6))
    assert (g2.n, g2.num_edges) == (10, 10)


def test_union_with_empty_is_identity():
    g = cycle_graph(5)
    assert disjoint_union(g, Graph(0)) == g


# -- classifier --------------------------------------------------------------

def test_classifier_divisible_case():
    spec = ReplacementSpec.uniform(complete_graph(3), [2])
    out = classify_theorem12(spec)
    assert out.case is Theorem12Case.DIVISIBLE
    assert out.certificate["alpha"] == {2: 1}


def test_classifier_not_covered_with_offending_class():
    spec = ReplacementSpec(3, {(0, 1): {2: 1}, (0, 2): {4: 1}, (1, 2): {6: 1}})
    out = classify_theorem12(spec)
    assert out.case is Theorem12Case.NOT_COVERED
    assert out.certificate["k"] == 1
    assert out.certificate["length"] == 2


def test_classifier_divisible_priority_over_single_length():
    spec = ReplacementSpec.uniform(complete_graph(3), [4])
    out = classify_theorem12(spec)
    assert out.case is Theorem12Case.DIVISIBLE


def test_classifier_single_length():
    spec = ReplacementSpec(3, {(0, 1): {4: 2}, (0, 2): {4: 1}, (1, 2): {4: 1}})
    out = classify_theorem12(spec)
    assert out.case is Theorem12Case.SINGLE_LENGTH
    assert out.certificate["alpha"] == Fraction(4, 3)


def test_classifier_rejects_odd_lengths():
    spec = ReplacementSpec.uniform(complete_graph(3), [3])
    out = classify_theorem12(spec)
    assert out.case is Theorem12Case.NOT_COVERED
    assert out.certificate["reason"] == "odd path length present"


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.lists(st.sampled_from([2, 4, 6]), min_size=1, max_size=3),
)
def test_classifier_uniform_even_on_cliques_is_divisible(h, lengths):
    if lengths.count(1) > 1:
        return
    spec = ReplacementSpec.uniform(complete_graph(h), lengths)
    assert classify_theorem12(spec).case is Theorem12Case.DIVISIBLE


# -- odd thetas --------------------------------------------------------------

def test_odd_theta_31_matches_frozen_construction():
    # the graph sidorenko_family_instances names odd_theta_31
    g = generalized_theta([3, 1], "odd").graph
    assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert find_isomorphism(g, cycle_graph(4)) is not None


def test_odd_theta_33_is_c6():
    g = generalized_theta([3, 3], "odd").graph
    assert find_isomorphism(g, cycle_graph(6)) is not None


def test_odd_theta_531_arm_structure():
    t = generalized_theta([5, 3, 1], "odd")
    g = t.graph
    assert (g.n, g.num_edges) == (8, 9)
    degs = g.degrees()
    assert [degs[r] for r in t.roots] == [3, 3]
    # without the roots the internal vertices fall into the arms in input
    # order: a path of 4 vertices, a path of 2, and nothing for the edge
    assert degs[2:] == (2,) * 6
    internal = [e for e in g.edges if not set(e) & set(t.roots)]
    assert internal == [(2, 3), (3, 4), (4, 5), (6, 7)]


def test_odd_theta_rejects_even_lengths():
    with pytest.raises(ValueError, match="even length in an odd theta"):
        generalized_theta([4, 3], "odd")
    with pytest.raises(ValueError, match="even length in an odd theta"):
        generalized_theta([3, 5, 2], "odd")


def test_odd_theta_needs_a_path():
    with pytest.raises(ValueError, match="at least one path length"):
        generalized_theta([], "odd")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([1, 3, 5, 7]), min_size=2, max_size=4))
def test_odd_theta_always_valid(lengths):
    if lengths.count(1) > 1:
        lengths = [x if x != 1 else 3 for x in lengths]
    t = generalized_theta(lengths, "odd")
    g = t.graph
    assert g.num_edges == sum(lengths)
    assert g.n == 2 + sum(x - 1 for x in lengths)
    # every cycle joins two odd paths, so the roots sit on opposite sides
    assert g.is_bipartite()
    # the order of the paths only relabels the graph
    theta = generalized_theta(sorted(lengths, reverse=True), "odd").graph
    assert find_isomorphism(g, theta) is not None


# -- isomorphism utilities ---------------------------------------------------

def test_rooted_graph_requires_swap_automorphism():
    # path on 3 vertices rooted at one end and the middle: no swap exists
    with pytest.raises(ValueError, match="automorphism"):
        RootedGraph(path_graph(2), (0, 1))
    RootedGraph(path_graph(2), (0, 2))


def test_rooted_graph_stores_plain_int_roots():
    # NumPy roots were stored as given, and json.dumps refused them
    r = RootedGraph(path_graph(2), (np.int64(0), np.int64(2)))
    assert json.loads(json.dumps(r.to_json_dict()))["roots"] == [0, 2]
    assert all(type(x) is int for x in r.roots)


def test_find_isomorphism_respects_fixed_points():
    g = cycle_graph(4)
    mapping = find_isomorphism(g, g, fixed={0: 2, 2: 0})
    assert mapping is not None
    assert mapping[0] == 2 and mapping[2] == 0


def test_non_isomorphic_same_degrees():
    # C6 vs two triangles: identical degree sequences, different graphs
    g1 = cycle_graph(6)
    g2 = disjoint_union(complete_graph(3), complete_graph(3))
    assert find_isomorphism(g1, g2) is None


@pytest.mark.parametrize("fixed, match", [
    ({5: 0}, "fixed pair 5: 0 is not a vertex of g1 and one of g2"),
    ({-1: 0}, "fixed pair -1: 0 is not a vertex of g1 and one of g2"),
    ({0: 3}, "fixed pair 0: 3 is not a vertex of g1 and one of g2"),
    ({0: -3}, "fixed pair 0: -3 is not a vertex of g1 and one of g2"),
    ({1.0: 0}, r"fixed pair 1\.0: 0, vertex 1\.0 is not an integer"),
    ({0: True}, "fixed pair 0: True, vertex True is not an integer"),
    ({0: "1"}, "fixed pair 0: '1', vertex '1' is not an integer"),
])
def test_find_isomorphism_checks_fixed(fixed, match):
    # {5: 0} was an IndexError and {-1: 0} a KeyError; a negative index
    # into the joint colouring of both graphs would name a vertex of g2
    g = path_graph(2)
    with pytest.raises(ValueError, match=match):
        find_isomorphism(g, g, fixed)


def test_find_isomorphism_reads_fixed_integers():
    g = path_graph(2)
    assert find_isomorphism(g, g, {np.int64(0): np.int64(2)}) == {
        0: 2, 1: 1, 2: 0}
    # a map that is not injective is not refused: nothing extends it
    assert find_isomorphism(g, g, {0: 0, 2: 0}) is None


def test_isomorphism_search_does_not_recurse():
    # the search kept one frame per vertex: a RecursionError on long paths
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        RootedGraph(path_graph(300), (0, 300))
        assert len(edge_orbits.__wrapped__(cycle_graph(300))) == 1
    finally:
        sys.setrecursionlimit(limit)


# -- the isomorphism search against all permutations -------------------------

@st.composite
def small_graphs(draw, n=None):
    n = draw(st.integers(0, 6)) if n is None else n
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph(n, tuple(e for e, k in zip(pairs, keep) if k))


def isomorphisms(g1, g2):
    """Every isomorphism g1 -> g2, as a tuple p with p[v] the image of v."""
    if (g1.n, g1.num_edges) != (g2.n, g2.num_edges):
        return []
    edges = set(g2.edges)
    return [p for p in itertools.permutations(range(g1.n))
            if all((min(p[u], p[v]), max(p[u], p[v])) in edges
                   for u, v in g1.edges)]


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_edge_orbits_equal_the_automorphism_group_orbits(g):
    autos = isomorphisms(g, g)
    orbits = []
    for u, v in g.edges:
        if not any((u, v) in orbit for orbit in orbits):
            orbits.append(tuple(sorted({(min(p[u], p[v]), max(p[u], p[v]))
                                        for p in autos})))
    assert edge_orbits(g) == tuple(orbits)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_find_isomorphism_against_all_permutations(data):
    g1 = data.draw(small_graphs())
    if data.draw(st.booleans()):
        g2 = g1.relabel(data.draw(st.permutations(range(g1.n))))
    else:
        g2 = data.draw(small_graphs(g1.n) | small_graphs())
    fixed = {}
    if g1.n and g2.n:
        fixed = data.draw(st.dictionaries(st.integers(0, g1.n - 1),
                                          st.integers(0, g2.n - 1),
                                          max_size=3))
    extending = [p for p in isomorphisms(g1, g2)
                 if all(p[v] == w for v, w in fixed.items())]
    mapping = find_isomorphism(g1, g2, fixed)
    assert (mapping is None) == (not extending)
    if mapping is not None:
        perm = tuple(mapping[v] for v in range(g1.n))
        assert len(mapping) == g1.n and perm in extending
