import itertools
import json
import math
import operator
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sidlab.graphs import generalized_theta, path_graph
from sidlab.homdensity import hom_density
from sidlab.stepgraphon import (
    EXACT_STEP_CAP,
    StepGraphon,
    circulant_graphon,
    constant_graphon,
    counting_kernel,
    edge_density,
    hadamard,
    kernel_power,
    local_density_deficit,
    mixture_graphon,
    permute_steps,
    pointwise_dense_graphon,
    regular_graph_graphon,
    regularity,
)
from sidlab import stepgraphon

BIP = StepGraphon([[0, 1], [1, 0]])
C5 = circulant_graphon([0, 1, 0, 0, 1])


def random_symmetric(rng, n, den=6):
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = F(rng.randrange(den + 1), den)
            grid[i][j] = grid[j][i] = x
    return StepGraphon(grid)


# -- construction invariants -------------------------------------------------

def test_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        StepGraphon([[0, 1], [0, 0]])


def test_rejects_out_of_range():
    with pytest.raises(ValueError, match="0, 1"):
        StepGraphon([[2]])


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        StepGraphon([[0, 1]])


def test_json_roundtrip_exact_and_float():
    w = random_symmetric(random.Random(1), 3)
    assert StepGraphon.from_json_dict(w.to_json_dict()) == w
    f = w.to_json_dict(mode="float")
    assert f["values"][0][1] == float(w.values[0][1])
    # a float export reads back as the decimals it wrote: the same float
    # view, and the same graphon when every value is a short decimal
    back = StepGraphon.from_json_dict(json.loads(json.dumps(f)))
    assert back.float_matrix.tobytes() == w.float_matrix.tobytes()
    tenths = StepGraphon([[F(1, 10), F(7, 20)], [F(7, 20), F(1)]])
    assert StepGraphon.from_json_dict(tenths.to_json_dict("float")) == tenths


# -- edge density and regularity ---------------------------------------------

def test_edge_density_constant():
    assert edge_density(constant_graphon(F(1, 2), 3)) == F(1, 2)


def test_edge_density_bipartite():
    assert edge_density(BIP) == F(1, 2)


def test_edge_density_c5():
    assert edge_density(C5) == F(2, 5)


def test_regularity_constant():
    d, rows = regularity(constant_graphon(F(1, 3), 4))
    assert d == F(1, 3) and set(rows) == {F(1, 3)}


def test_regularity_bipartite():
    assert regularity(BIP)[0] == F(1, 2)


def test_regularity_detects_irregular():
    d, rows = regularity(StepGraphon([[1, 0], [0, 0]]))
    assert d is None
    assert rows == (F(1, 2), F(0))


# -- kernel powers -----------------------------------------------------------

def test_kernel_power_identity():
    assert kernel_power(BIP, 1) == BIP


def test_kernel_power_constant():
    assert kernel_power(constant_graphon(F(1, 3), 2), 3) == constant_graphon(
        F(1, 27), 2
    )


def test_kernel_power_bipartite_square():
    assert kernel_power(BIP, 2) == StepGraphon([[F(1, 2), 0], [0, F(1, 2)]])


def test_kernel_power_c5_square_values():
    k = kernel_power(C5, 2)
    assert k.values[0][0] == F(2, 5)
    assert k.values[0][1] == 0
    assert k.values[0][2] == F(1, 5)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_kernel_power_composes(seed, j, k):
    w = random_symmetric(random.Random(seed), 3)
    lhs = kernel_power(w, j + k)
    # the kernel composition (1/n) A_j A_k as a Fraction matrix product
    a, b = kernel_power(w, j).values, kernel_power(w, k).values
    rhs = [[sum(a[x][t] * b[t][y] for t in range(3)) / 3 for y in range(3)]
           for x in range(3)]
    assert [list(row) for row in lhs.values] == rhs


def test_regular_kernel_power_degree():
    # degree of the k-th kernel power of a d-regular graphon is exactly d^k
    for k in range(1, 5):
        d, _ = regularity(kernel_power(C5, k))
        assert d == F(2, 5) ** k


# -- counting kernels --------------------------------------------------------

def test_counting_kernel_path_equals_power():
    for k in (1, 2, 3):
        gadget = generalized_theta([k])
        assert counting_kernel(C5, gadget) == kernel_power(C5, k)


def test_counting_kernel_theta_is_hadamard_of_powers():
    rng = random.Random(5)
    for _ in range(10):
        w = random_symmetric(rng, rng.randint(2, 4))
        lengths = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        while lengths.count(1) > 1:
            lengths[lengths.index(1)] = 2
        gadget = generalized_theta(lengths)
        expected = kernel_power(w, lengths[0])
        for length in lengths[1:]:
            expected = hadamard(expected, kernel_power(w, length))
        assert counting_kernel(w, gadget) == expected


def test_counting_kernel_constant_theta22():
    w = constant_graphon(F(1, 3), 2)
    assert counting_kernel(w, generalized_theta([2, 2], "even")) == \
        constant_graphon(F(1, 3) ** 4, 2)


def test_counting_kernel_c5_theta22_frozen_values():
    k = counting_kernel(C5, generalized_theta([2, 2], "even"))
    assert k.values[0][0] == F(4, 25)
    assert k.values[0][1] == 0
    assert k.values[0][2] == F(1, 25)


# -- hadamard ----------------------------------------------------------------

def test_hadamard_ones_identity():
    w = random_symmetric(random.Random(2), 3)
    assert hadamard(w, constant_graphon(F(1), 3)) == w


def test_hadamard_constants():
    assert hadamard(constant_graphon(F(1, 2), 2), constant_graphon(F(1, 3), 2)) \
        == constant_graphon(F(1, 6), 2)


def test_hadamard_entrywise():
    assert hadamard(BIP, constant_graphon(F(1, 2), 2)) == StepGraphon(
        [[0, F(1, 2)], [F(1, 2), 0]]
    )


def test_hadamard_shape_mismatch():
    with pytest.raises(ValueError):
        hadamard(BIP, constant_graphon(F(1, 2), 3))


# -- local density -----------------------------------------------------------

def quadratic_exact(w, d, s):
    """The subset-density quadratic ``s^T (A - d J) s / n^2`` at occupancy
    ``s``, summed entry by entry in Fractions: the local-density reference."""
    n = w.n_steps
    sf = [F(x) for x in s]
    quad = sum(
        sf[i] * sf[j] * w.values[i][j] for i in range(n) for j in range(n)
    )
    total = sum(sf)
    return quad / n ** 2 - d * (total / n) ** 2


def test_local_density_constant_is_tight():
    rep = local_density_deficit(constant_graphon(F(1, 2), 3), F(1, 2))
    assert rep.deficit == 0.0


def test_local_density_pointwise_bound():
    w = pointwise_dense_graphon(4, F(3, 10), F(1, 2), seed=11)
    rep = local_density_deficit(w, F(3, 10))
    assert rep.deficit >= 0.0


def test_local_density_corner_insufficiency_instance():
    # all four corners satisfy the subset bound, yet a fractional occupancy
    # violates it, so the checker must search inside the box
    w = StepGraphon([[F(8, 10), F(1, 20)], [F(1, 20), F(35, 100)]])
    d = F(3, 10)
    corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert all(quadratic_exact(w, d, s) >= 0 for s in corners)
    rep = local_density_deficit(w, d)
    assert rep.deficit_exact == F(-3, 160)
    assert rep.witness == (F(1, 2), F(1))
    assert quadratic_exact(w, d, rep.witness) == rep.deficit_exact


def test_local_density_witness_recheck_is_exact():
    w = random_symmetric(random.Random(3), 4)
    rep = local_density_deficit(w, F(1, 2))
    again = quadratic_exact(w, F(1, 2), rep.witness)
    assert abs(float(again) - rep.deficit) <= 1e-12
    assert again == rep.deficit_exact


def test_local_density_rejects_bad_target():
    with pytest.raises(ValueError):
        local_density_deficit(BIP, F(3, 2))


def test_c5_theta22_kernel_locally_dense():
    # kernel of an even theta over a 2/5-regular graphon against (2/5)^4
    k = counting_kernel(C5, generalized_theta([2, 2], "even"))
    rep = local_density_deficit(k, F(2, 5) ** 4)
    assert rep.deficit >= -1e-9


def test_hadamard_attachment_c5_locally_dense():
    # pointwise-dense floor times an even kernel power of a regular graphon
    w1 = pointwise_dense_graphon(5, F(3, 10), F(1, 2), seed=3)
    k = hadamard(w1, kernel_power(C5, 2))
    rep = local_density_deficit(k, F(3, 10) * F(2, 5) ** 2)
    assert rep.deficit >= -1e-9


def test_refined_corner_insufficiency_instance_is_exact():
    # the 2x2 instance's steps split in 5 and in 6: 10 and 12 steps, the
    # latter at the cap; refinement keeps the box minimum at -3/160
    base = StepGraphon([[F(8, 10), F(1, 20)], [F(1, 20), F(35, 100)]])
    for k in (5, 6):
        w = refine(base, k)
        assert w.n_steps <= EXACT_STEP_CAP
        rep = local_density_deficit(w, F(3, 10))
        assert rep.deficit_exact == F(-3, 160)
        assert all(0 <= x <= 1 for x in rep.witness)
        assert quadratic_exact(w, F(3, 10), rep.witness) == rep.deficit_exact


def test_local_density_refuses_grids_above_the_cap(monkeypatch):
    def enumerate_faces(w, d):
        raise AssertionError("the face enumeration ran")

    monkeypatch.setattr(stepgraphon, "_exact_box_minimum", enumerate_faces)
    w = constant_graphon(F(1, 2), EXACT_STEP_CAP + 1)
    assert w.n_steps == 13
    with pytest.raises(ValueError, match="cap"):
        local_density_deficit(w, F(1, 2))


# -- exact local density against an independent face enumeration ------------

def refine(w, k):
    """Split every step into k equal steps; the box minimum is unchanged."""
    n = w.n_steps * k
    return StepGraphon(
        [[w.values[i // k][j // k] for j in range(n)] for i in range(n)]
    )


def _solve(m, rhs):
    """Rational Gauss-Jordan; None when ``m`` is singular."""
    k = len(m)
    a = [list(row) + [v] for row, v in zip(m, rhs)]
    for c in range(k):
        p = next((i for i in range(c, k) if a[i][c] != 0), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        for i in range(k):
            if i != c and a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [a[i][k] / a[i][i] for i in range(k)]


def face_oracle(w, d):
    """Box minimum by plain 3^n enumeration: label every coordinate 0, 1 or
    free, solve the free block's stationarity system in rationals wherever
    it is nonsingular, and keep the points inside the box."""
    n = w.n_steps
    m = [[x - d for x in row] for row in w.values]
    best = F(0)
    for labels in itertools.product((0, 1, None), repeat=n):
        free = [i for i in range(n) if labels[i] is None]
        ones = [i for i in range(n) if labels[i] == 1]
        rhs = [-sum(m[i][j] for j in ones) for i in free]
        x = _solve([[m[i][j] for j in free] for i in free], rhs)
        if x is None or not all(0 <= v <= 1 for v in x):
            continue
        s = [F(labels[i] or 0) for i in range(n)]
        for i, v in zip(free, x):
            s[i] = v
        best = min(best, quadratic_exact(w, d, s))
    return best


@st.composite
def rational_grids(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 10, 64]))
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = F(draw(st.integers(0, den)), den)
    return StepGraphon(grid)


targets = st.integers(0, 20).map(lambda k: F(k, 20))


# the minimum of this instance frees three coordinates, at 5/7 each
THREE_FREE = StepGraphon([
    [1, F(3, 5), F(3, 5), 0],
    [F(3, 5), 1, F(3, 5), 0],
    [F(3, 5), F(3, 5), 1, 0],
    [0, 0, 0, F(3, 5)],
])


@given(rational_grids(), targets)
@example(THREE_FREE, F(1, 2))
@settings(max_examples=100, deadline=None)
def test_exact_local_density_equals_face_oracle(w, d):
    rep = local_density_deficit(w, d)
    assert rep.deficit_exact == face_oracle(w, d)
    assert all(0 <= x <= 1 for x in rep.witness)
    assert quadratic_exact(w, d, rep.witness) == rep.deficit_exact


@given(rational_grids(max_n=4), targets)
@settings(max_examples=25, deadline=None)
def test_exact_local_density_below_corners_and_quarter_grid(w, d):
    low = local_density_deficit(w, d).deficit_exact
    quarters = [F(k, 4) for k in range(5)]
    for s in itertools.product(quarters, repeat=w.n_steps):
        assert low <= quadratic_exact(w, d, s)


@given(rational_grids(), targets, st.randoms(use_true_random=False),
       st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_exact_local_density_invariant_under_relabel_and_refine(w, d, rnd, k):
    low = local_density_deficit(w, d).deficit_exact
    perm = list(range(w.n_steps))
    rnd.shuffle(perm)
    assert local_density_deficit(permute_steps(w, perm), d).deficit_exact == low
    # refined grids stay at 8 steps or fewer: refined to the cap of 12, one
    # example can take a third of a second
    k = min(k, 8 // w.n_steps)
    assert local_density_deficit(refine(w, k), d).deficit_exact == low


# -- generators --------------------------------------------------------------

def test_generate_constant():
    w = constant_graphon(F(1, 3), 4)
    assert regularity(w)[0] == F(1, 3)


def test_generate_circulant_c5():
    assert C5 == StepGraphon(
        [[int((i - j) % 5 in (1, 4)) for j in range(5)] for i in range(5)])
    assert regularity(C5)[0] == F(2, 5)


def test_circulant_requires_symmetric_profile():
    with pytest.raises(ValueError):
        circulant_graphon([0, 1, 0])


def test_generate_regular_graph():
    w = regular_graph_graphon(8, 3, seed=1)
    d, _ = regularity(w)
    assert d == F(3, 8)
    assert all(x in (F(0), F(1)) for row in w.values for x in row)
    assert all(w.values[i][i] == 0 for i in range(8))


def test_generate_regular_graph_deterministic():
    a = regular_graph_graphon(10, 3, seed=42)
    b = regular_graph_graphon(10, 3, seed=42)
    assert a == b


@pytest.mark.parametrize("what, build", [
    pytest.param("step count", lambda x: constant_graphon(F(1, 2), x),
                 id="constant"),
    pytest.param("step count", lambda x: regular_graph_graphon(x, 1, 1),
                 id="regular-steps"),
    pytest.param("degree", lambda x: regular_graph_graphon(4, x, 1),
                 id="regular-degree"),
    pytest.param("step count",
                 lambda x: pointwise_dense_graphon(x, F(1, 2), F(1, 2), 1),
                 id="pointwise-dense"),
    pytest.param("kernel power", lambda x: kernel_power(BIP, x),
                 id="kernel-power"),
    pytest.param("seed", lambda x: regular_graph_graphon(4, 2, x),
                 id="regular-seed"),
    # the complete degree draws nothing, but its seed is still read
    pytest.param("seed", lambda x: regular_graph_graphon(4, 3, x),
                 id="complete-seed"),
    pytest.param("seed",
                 lambda x: pointwise_dense_graphon(3, F(1, 2), F(1, 2), x),
                 id="pointwise-dense-seed"),
    pytest.param("step", lambda x: permute_steps(BIP, [x, 0]),
                 id="permutation"),
])
@pytest.mark.parametrize("bad", [True, 2.0, 2.5])
def test_generators_reject_non_integer_sizes(what, build, bad):
    # constant_graphon(1/2, True) was a 1-step graphon,
    # regular_graph_graphon(4, True, 1) a 1-regular one,
    # kernel_power(w, True) w itself, regular_graph_graphon(6, 2, True) the
    # graphon of seed 1 and permute_steps(w, [True, False]) a permutation
    with pytest.raises(ValueError, match=f"{what} {bad} is not an integer"):
        build(bad)


def test_kernel_power_below_1_is_refused():
    with pytest.raises(ValueError, match="kernel power 0 is below 1"):
        kernel_power(BIP, 0)
    assert kernel_power(BIP, np.int64(1)) == kernel_power(BIP, 1) == BIP


def test_generators_read_seeds_and_steps_as_integers():
    # a string seed was hashed into a draw, and a numpy integer seed was a
    # TypeError from random.Random
    with pytest.raises(ValueError, match="seed 'x' is not an integer"):
        regular_graph_graphon(6, 2, "x")
    assert (regular_graph_graphon(6, 2, np.int64(5))
            == regular_graph_graphon(6, 2, 5))
    assert (pointwise_dense_graphon(3, F(1, 2), F(1, 2), np.int32(2))
            == pointwise_dense_graphon(3, F(1, 2), F(1, 2), 2))
    assert permute_steps(BIP, [np.int64(1), 0]) == permute_steps(BIP, [1, 0])
    with pytest.raises(ValueError, match="step 1.0 is not an integer"):
        permute_steps(BIP, [1.0, 0.0])


def test_generate_regular_graph_infeasible():
    with pytest.raises(ValueError):
        regular_graph_graphon(5, 3, seed=0)  # odd n*deg
    with pytest.raises(ValueError):
        regular_graph_graphon(4, 4, seed=0)  # deg >= n


def test_complete_degree_equals_the_pairing_draw():
    # K_n is the only simple (n - 1)-regular graph, so the shortcut returns
    # what the stub pairing with switch repair would have drawn
    for n in range(2, 10):
        for seed in range(20):
            edges = stepgraphon._pairing_regular_edges(n, n - 1,
                                                       random.Random(seed))
            grid = [[int((min(i, j), max(i, j)) in edges) for j in range(n)]
                    for i in range(n)]
            w = regular_graph_graphon(n, n - 1, seed)
            assert (w.q, w.num) == (1, tuple(map(tuple, grid)))


def reference_switch_repair(pairs, rng, max_attempts=3000):
    # the repair loop that rebuilt its pair counts on every attempt
    pairs = list(pairs)
    for _ in range(max_attempts):
        counts = {}
        for e in pairs:
            counts[e] = counts.get(e, 0) + 1
        bad = [
            i for i, e in enumerate(pairs)
            if e[0] == e[1] or counts[e] > 1
        ]
        if not bad:
            return set(pairs)
        i = bad[0]
        j = rng.randrange(len(pairs))
        if i == j:
            continue
        u, v = pairs[i]
        x, y = pairs[j]
        if rng.random() < 0.5:
            x, y = y, x
        e1, e2 = tuple(sorted((u, x))), tuple(sorted((v, y)))
        if e1[0] == e1[1] or e2[0] == e2[1]:
            continue
        current = set(pairs) - {pairs[i], pairs[j]}
        if e1 in current or e2 in current or e1 == e2:
            continue
        pairs[i], pairs[j] = e1, e2
    return None


@pytest.mark.parametrize("max_attempts", [3000, 4])
def test_switch_repair_equals_the_rebuilding_loop(max_attempts):
    # the same repaired edge set or the same give-up, and the same random
    # stream left behind, over random stub pairings
    outcomes = set()
    for seed in range(600):
        setup = random.Random(seed)
        n = setup.randint(3, 9)
        deg = setup.choice([d for d in range(1, n) if n * d % 2 == 0])
        stubs = list(range(n)) * deg
        setup.shuffle(stubs)
        pairs = [tuple(sorted(stubs[2 * i:2 * i + 2]))
                 for i in range(len(stubs) // 2)]
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = stepgraphon._switch_repair(pairs, rng, max_attempts)
        assert got == reference_switch_repair(pairs, ref_rng, max_attempts)
        assert rng.getstate() == ref_rng.getstate()
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_mixture_preserves_regularity():
    a = circulant_graphon([0, F(1, 2), F(1, 2)])
    b = regular_graph_graphon(3, 2, seed=3)
    m = mixture_graphon([a, b], [F(1, 4), F(3, 4)])
    d, _ = regularity(m)
    assert d == F(1, 4) * regularity(a)[0] + F(3, 4) * regularity(b)[0]


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        mixture_graphon([BIP, BIP], [F(1, 2), F(1, 4)])


@pytest.mark.parametrize("build", [
    lambda: StepGraphon(np.ones((5, 5), dtype=int)),
    lambda: constant_graphon(np.int64(1), 5),
    lambda: mixture_graphon([constant_graphon(1, 5),
                             StepGraphon(np.zeros((5, 5), dtype=int))],
                            [np.int64(1), np.int64(0)]),
    lambda: circulant_graphon([np.int64(1)] * 5),
])
def test_numpy_integers_build_graphons_of_python_ints(build):
    # Fraction(np.int64(1)).numerator is an np.int64; kept in the grid, it
    # would multiply in int64 and wrap: t(P30) sums 5^31 > 2^63 products
    w = build()
    assert type(w.q) is int
    assert all(type(a) is int for row in w.num for a in row)
    assert hom_density(path_graph(30), w).value == 1


def test_local_density_reads_a_numpy_target():
    # the target's numerator and denominator scale the grid over 2^61 - 1:
    # as np.int64 their products would wrap
    q = 2 ** 61 - 1
    rng = random.Random(1)
    num = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            num[i][j] = num[j][i] = rng.randrange(q + 1)
    w = StepGraphon._from_integers(num, q)
    for d, plain in ((np.int64(1), 1),
                     (F(np.int64(1), np.int64(2)), F(1, 2))):
        assert local_density_deficit(w, d) == local_density_deficit(w, plain)


def test_pointwise_dense_floor():
    w = pointwise_dense_graphon(5, F(2, 5), F(1, 2), seed=9)
    assert all(x >= F(2, 5) for row in w.values for x in row)
    assert all(x <= 1 for row in w.values for x in row)


def test_permute_steps_preserves_density():
    w = random_symmetric(random.Random(8), 4)
    p = permute_steps(w, [2, 0, 3, 1])
    assert edge_density(p) == edge_density(w)
    assert sorted(map(sorted, p.values)) == sorted(map(sorted, w.values))


# -- the integer grid against the former Fraction loops ----------------------
#
# The kernel ops below are the Fraction-grid loops the integer-numerator
# graphon replaced, kept as literal references: each takes and returns
# grids of Fractions.

def reference_edge_density(values):
    n = len(values)
    return F(sum(sum(row) for row in values), 1) / n ** 2


def reference_regularity(values):
    n = len(values)
    degrees = tuple(sum(row) / n for row in values)
    if max(degrees) == min(degrees):
        return sum(degrees) / n, degrees
    return None, degrees


def reference_kernel_power(values, k):
    n = len(values)
    acc = [list(row) for row in values]
    for _ in range(k - 1):
        nxt = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            row = acc[i]
            for j in range(n):
                s = sum(row[t] * values[t][j] for t in range(n))
                nxt[i][j] = s / n
        acc = nxt
    return acc


def reference_hadamard(v1, v2):
    return [[a * b for a, b in zip(r1, r2)] for r1, r2 in zip(v1, v2)]


def reference_permute_steps(values, perm):
    n = len(values)
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            grid[perm[i]][perm[j]] = values[i][j]
    return grid


def reference_mixture(grids, weights):
    n = len(grids[0])
    return [
        [sum(wt * g[i][j] for wt, g in zip(weights, grids)) for j in range(n)]
        for i in range(n)
    ]


def as_grid(values):
    return tuple(tuple(row) for row in values)


@st.composite
def integer_graphons(draw, n):
    """A graphon given as integers over a denominator, and the same entries
    as a grid of Fractions."""
    q = draw(st.sampled_from([1, 2, 3, 4, 6, 10, 64, 2 ** 61 - 1]))
    num = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            num[i][j] = num[j][i] = draw(st.integers(0, q))
    return num, q


@st.composite
def kernel_op_cases(draw):
    n = draw(st.integers(1, 4))
    graphons = [draw(integer_graphons(n)) for _ in range(draw(st.integers(1, 3)))]
    cuts = sorted(draw(st.lists(st.integers(0, 12), min_size=len(graphons) - 1,
                                max_size=len(graphons) - 1)))
    bounds = [0] + cuts + [12]
    weights = [F(b - a, 12) for a, b in zip(bounds, bounds[1:])]
    perm = draw(st.permutations(range(n)))
    k = draw(st.integers(1, 4))
    return graphons, weights, perm, k


@settings(max_examples=60, deadline=None)
@given(kernel_op_cases())
def test_kernel_ops_equal_the_fraction_loops(case):
    graphons, weights, perm, k = case
    ws = [StepGraphon._from_integers(num, q) for num, q in graphons]
    refs = [[[F(a, q) for a in row] for row in num] for num, q in graphons]
    w, ref = ws[0], refs[0]
    assert w.values == as_grid(ref)
    assert edge_density(w) == reference_edge_density(ref)
    assert regularity(w) == reference_regularity(ref)
    power = reference_kernel_power(ref, k)
    assert kernel_power(w, k).values == as_grid(power)
    attached = reference_hadamard(refs[-1], power)
    assert hadamard(ws[-1], kernel_power(w, k)).values == as_grid(attached)
    assert permute_steps(w, perm).values == as_grid(
        reference_permute_steps(ref, perm))
    mixed = reference_mixture(refs, weights)
    assert mixture_graphon(ws, weights).values == as_grid(mixed)

    # the counting kernel of a theta is the Hadamard product of its path
    # kernels; the box minimum agrees with the independent face oracle
    lengths = [k, 2]
    expected = reference_hadamard(reference_kernel_power(ref, k),
                                  reference_kernel_power(ref, 2))
    assert counting_kernel(w, generalized_theta(lengths)).values == \
        as_grid(expected)
    d = reference_edge_density(attached)
    assert local_density_deficit(StepGraphon(attached), d).deficit_exact == \
        face_oracle(StepGraphon(attached), d)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(integer_graphons), st.integers(1, 50))
def test_graphons_reduce_to_one_denominator(case, scale):
    num, q = case
    w = StepGraphon._from_integers(num, q)
    # unreduced integers and unreduced Fractions give the same graphon
    scaled = [[scale * a for a in row] for row in num]
    from_ints = StepGraphon._from_integers(scaled, scale * q)
    from_fractions = StepGraphon(
        [[F(a, scale * q) for a in row] for row in scaled])
    for other in (from_ints, from_fractions):
        assert other == w and hash(other) == hash(w)
        assert (other.q, other.num) == (w.q, w.num)
    assert math.gcd(w.q, *itertools.chain.from_iterable(w.num)) == 1
    assert all(F(a, q) == x for row, vrow in zip(num, w.values)
               for a, x in zip(row, vrow))


@settings(max_examples=60, deadline=None)
@given(st.integers(2 ** 53 + 1, 2 ** 80), st.data())
def test_float_matrix_is_the_correctly_rounded_fraction(q, data):
    a = data.draw(st.integers(2 ** 53 + 1, q))
    w = StepGraphon._from_integers([[a, q - a], [q - a, a]], q)
    expected = [[float(x) for x in row] for row in w.values]
    assert w.float_matrix.tolist() == expected
    assert w.to_json_dict(mode="float")["values"] == expected


@pytest.mark.parametrize("num, q, match", [
    ([[0, 1], [0, 0]], 1, r"not symmetric at \(0, 1\)"),
    ([[3]], 2, r"value at \(0, 0\) outside \[0, 1\]"),
    ([[0, -1], [-1, 0]], 5, r"value at \(0, 1\) outside \[0, 1\]"),
    ([[0, 1]], 1, "square"),
    ([], 1, "at least one step"),
])
def test_integer_grids_are_checked_like_fraction_grids(num, q, match):
    with pytest.raises(ValueError, match=match):
        StepGraphon._from_integers(num, q)
    with pytest.raises(ValueError, match=match):
        StepGraphon([[F(a, q) for a in row] for row in num])


# -- the value reader against the per-entry Fraction route -------------------

def reference_read(values):
    # the constructor's former route: every entry through Fraction, its
    # terms read as plain ints, over the lcm of the denominators, reduced
    def fraction(x):
        x = F(x)
        return F(operator.index(x.numerator), operator.index(x.denominator))

    rows = [[fraction(x) for x in row] for row in values]
    q = math.lcm(*(x.denominator for row in rows for x in row))
    num = [[x.numerator * (q // x.denominator) for x in row] for row in rows]
    g = math.gcd(q, *itertools.chain.from_iterable(num))
    return q // g, tuple(tuple(a // g for a in row) for row in num)


def unit_values():
    """Values in [0, 1] in every type the constructor reads."""
    den = st.sampled_from([1, 2, 3, 7, 12, 2 ** 61 - 1])
    ratio = st.tuples(den, st.data()).map(
        lambda t: (t[1].draw(st.integers(0, t[0])), t[0]))
    unit = st.floats(0, 1)
    return st.one_of(
        st.integers(0, 1),
        ratio.map(lambda t: F(*t)),
        ratio.map(lambda t: F(np.int64(t[0]), np.int64(t[1]))),
        unit,
        st.integers(0, 1).map(np.int64),
        unit.map(np.float64),
    )


def symmetric(draw, n, elements):
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = draw(elements)
    return grid


@st.composite
def value_grids(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["mixed", "object", "int", "float",
                                 "string"]))
    if kind == "string":
        # "p/q" as a graphon file writes it, and unreduced, such as "2/4"
        den = st.sampled_from([1, 2, 4, 12, 2 ** 61 - 1])
        return symmetric(draw, n, den.flatmap(
            lambda q: st.integers(0, q).map(lambda p: f"{p}/{q}")))
    if kind == "int":
        return np.array(symmetric(draw, n, st.integers(0, 1)), dtype=np.int64)
    if kind == "float":
        return np.array(symmetric(draw, n, st.floats(0, 1)))
    grid = symmetric(draw, n, unit_values())
    return np.array(grid, dtype=object) if kind == "object" else grid


@settings(max_examples=200, deadline=None)
@given(value_grids())
def test_value_reader_equals_the_fraction_route(values):
    w = StepGraphon(values)
    assert (w.q, w.num) == reference_read(values)
    assert type(w.q) is int
    assert all(type(a) is int for row in w.num for a in row)


@pytest.mark.parametrize("text", [
    " 1/2", "+1/2", "1_0/20", "1/-2", "1/0", "0.5", "1/2/3", "\u00b2/4",
    "\u0661/\u0662",
])
def test_string_values_read_like_fraction(text):
    # only a "p/q" of ASCII digits skips the Fraction parser: every other
    # string gives the Fraction route's value or its error and message
    try:
        expected = reference_read([[text]])
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            StepGraphon([[text]])
    else:
        w = StepGraphon([[text]])
        assert (w.q, w.num) == expected


@pytest.mark.parametrize("values, error, match", [
    ([[0, 1], [1]], ValueError, "value grid must be square"),
    ([[0, 1, 0], [1, 0, 1], [1, 0, 0]], ValueError,
     r"values not symmetric at \(0, 2\)"),
    ([[0, F(1, 2)], [F(1, 3), F(3, 2)]], ValueError,
     r"values not symmetric at \(0, 1\)"),
    ([[F(3, 2), 1], [0, 0]], ValueError, r"value at \(0, 0\) outside \[0, 1\]"),
    ([[0, -0.5], [-0.5, 0]], ValueError, r"value at \(0, 1\) outside \[0, 1\]"),
    ([[0.5, float("nan")], [0.0, 0.5]], ValueError,
     "cannot convert NaN to integer ratio"),
    (np.array([[0.5, np.inf], [np.inf, 0.5]]), OverflowError,
     "cannot convert Infinity to integer ratio"),
])
def test_value_reader_keeps_its_errors(values, error, match):
    # each error type and message is the one the per-entry Fraction route
    # gave; a failing grid is walked to name its first bad (i, j)
    with pytest.raises(error, match=match):
        StepGraphon(values)


@pytest.mark.parametrize("values", [
    [[True]], [[np.True_]], [[0, False], [False, 1]], np.ones((2, 2), bool),
    np.array([[F(1, 2), True], [True, 0]], dtype=object),
])
def test_boolean_values_are_refused(values):
    # [[True]] was the all-ones graphon and [[np.True_]] a TypeError
    with pytest.raises(ValueError,
                       match="a graphon value is a boolean, not a number"):
        StepGraphon(values)
