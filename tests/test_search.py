import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sidlab import search
from sidlab.contraction import contract_exact
from sidlab.graphs import (
    complete_graph,
    complete_multipartite,
    cycle_graph,
    generalized_theta,
)
from sidlab.search import (
    PROJECTION_TOL,
    ProjectionError,
    _project_regular_array,
    certify_violation,
    project_regular,
    search_counterexample,
)
from sidlab.stepgraphon import (
    StepGraphon,
    constant_graphon,
    edge_density,
    regular_graph_graphon,
)


# -- projection --------------------------------------------------------------

def test_projection_constant_fixed_point():
    w = constant_graphon(F(1, 3), 4)
    out = project_regular(w, F(1, 3))
    assert np.max(np.abs(out.float_matrix - w.float_matrix)) < 1e-12


def test_projection_closed_form_2x2():
    out = project_regular([[1.0, 0.0], [0.0, 0.0]], F(1, 4))
    expected = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert np.max(np.abs(out.float_matrix - expected)) < 1e-10


def test_projection_keeps_feasible_adjacency():
    w = regular_graph_graphon(8, 3, seed=5)
    out = project_regular(w, F(3, 8))
    assert np.max(np.abs(out.float_matrix - w.float_matrix)) < 1e-10


def test_projection_satisfies_both_constraint_families():
    rng = np.random.default_rng(3)
    m = rng.random((5, 5)) * 2 - 0.5  # deliberately outside the box
    m = (m + m.T) / 2
    out = project_regular(m, F(2, 5))
    a = out.float_matrix
    assert np.max(np.abs(a.sum(axis=1) - 5 * 0.4)) <= 1e-9
    assert a.min() >= -1e-15 and a.max() <= 1 + 1e-15


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_projection_idempotent(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    d = float(rng.uniform(0.2, 0.8))
    m = rng.random((n, n))
    first = project_regular((m + m.T) / 2, F(d).limit_denominator(100))
    second = project_regular(first, F(d).limit_denominator(100))
    assert np.max(np.abs(first.float_matrix - second.float_matrix)) < 1e-9


def test_projection_error_carries_residual():
    # a matrix far outside the box cannot settle in a single sweep
    with pytest.raises(ProjectionError) as err:
        project_regular(np.eye(3) * 5.0, F(1, 2), max_iter=1)
    assert err.value.residual > 0


def sweeps_to_settle(grid, d):
    for k in range(1, 5000):
        if _project_regular_array(grid, d, max_iter=k)[1] <= 1e-10:
            return k
    raise AssertionError("grid did not settle")


def test_projection_of_stack_equals_per_grid_calls():
    rng = np.random.default_rng(4)
    grids = [np.full((4, 4), 0.4)] + [
        rng.random((4, 4)) * scale - shift
        for scale, shift in ((1, 0), (2, 0.5), (4, 1.5))
    ]
    # the grids settle after different sweep counts, so each one is frozen
    # at its own sweep while the others go on
    assert len({sweeps_to_settle(g, 0.4) for g in grids}) >= 3
    stacked, residual = _project_regular_array(np.stack(grids), 0.4)
    for grid, out, r in zip(grids, stacked, residual):
        alone, alone_residual = _project_regular_array(grid, 0.4)
        assert np.all(out == alone)
        assert r == alone_residual <= 1e-10


def test_projection_of_stack_reports_each_residual():
    stack = np.stack([np.full((3, 3), 0.5), np.eye(3) * 5.0])
    out, residual = _project_regular_array(stack, 0.5, max_iter=1)
    alone, alone_residual = _project_regular_array(stack[1], 0.5, max_iter=1)
    assert residual.shape == (2,) and alone_residual.shape == ()
    # the first grid settles, the second does not and keeps its last sweep
    assert residual[0] <= 1e-10 < residual[1] == alone_residual
    assert np.all(out[1] == alone)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_projection_rejects_nonpositive_max_iter(max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        project_regular(np.eye(2), F(1, 2), max_iter=max_iter)


def test_projection_rejects_bad_degree():
    with pytest.raises(ValueError):
        project_regular(np.zeros((2, 2)), F(3, 2))


# -- descent search ----------------------------------------------------------

def test_search_rejects_nonbipartite():
    with pytest.raises(ValueError, match="bipartite"):
        search_counterexample(complete_graph(3), n=3, d=F(1, 2))


@pytest.mark.parametrize("step", [
    float("inf"),  # every projection is nan
    0.0,  # no descent at all
    -0.05,
    float("nan"),
])
def test_search_rejects_bad_step_sizes(step):
    with pytest.raises(ValueError, match="step"):
        search_counterexample(cycle_graph(4), n=3, d=F(1, 2), starts=2,
                              iters=5, step=step)


SEARCH_INTEGERS = {
    "step count": lambda x: dict(n=x),
    "start count": lambda x: dict(starts=x),
    "iteration count": lambda x: dict(iters=x),
    "seed": lambda x: dict(seed=x),
}


@pytest.mark.parametrize("what", SEARCH_INTEGERS)
@pytest.mark.parametrize("bad", [True, 2.0, 2.5])
def test_search_rejects_non_integer_counts(what, bad):
    # iters=True ran one iteration and starts=True one start, while n=2.0
    # and starts=2.5 raised TypeError
    kwargs = {"n": 2, "starts": 1, "iters": 1, "seed": 0,
              **SEARCH_INTEGERS[what](bad)}
    with pytest.raises(ValueError, match=f"{what} {bad} is not an integer"):
        search_counterexample(cycle_graph(4), d=F(1, 2), **kwargs)


# Reference outputs of a descent that ran its starts one at a time: a start
# inside the stack must end exactly where it would alone.
REGRESSION_CASES = {
    "C6": (
        dict(n=4, d=F(1, 2), starts=8, iters=40, seed=5),
        1.032300672200448e-06, 41, 1.032300672200448e-06,
        [[0.5988474561648504, 0.41902066163694895, 0.5369114962033452,
          0.44522038599485547],
         [0.41902066163694895, 0.7721386718754699, 0.44313617903036373,
          0.3657044874572173],
         [0.5369114962033452, 0.44313617903036373, 0.5809936449220857,
          0.43895867984420556],
         [0.44522038599485547, 0.3657044874572173, 0.43895867984420556,
          0.7501164467037217]],
    ),
    "theta224": (
        dict(n=3, d=F(1, 3), starts=5, iters=20, seed=9),
        5.064841819058842e-10, 21, 5.064841819058842e-10,
        [[0.2868082530951753, 0.3452559957993418, 0.367935751105483],
         [0.3452559957993418, 0.43565621652549497, 0.2190877876751633],
         [0.367935751105483, 0.2190877876751633, 0.4129764612193538]],
    ),
}


def theta224():
    from sidlab.graphs import ReplacementSpec, replace_edges_nonuniform

    spec = ReplacementSpec(3, {(0, 1): {2: 1}, (0, 2): {2: 1}, (1, 2): {4: 1}})
    return replace_edges_nonuniform(spec)


@pytest.mark.parametrize("name", sorted(REGRESSION_CASES))
def test_search_reproduces_recorded_results(name):
    kwargs, deficit, length, last, matrix = REGRESSION_CASES[name]
    graph = cycle_graph(6) if name == "C6" else theta224()
    res = search_counterexample(graph, **kwargs)
    assert len(res.trace) == length
    assert abs(res.best_deficit - deficit) <= 1e-12
    assert abs(res.trace[-1] - last) <= 1e-12
    assert np.max(np.abs(res.best_w.float_matrix - np.array(matrix))) <= 1e-12
    assert not res.certified_violation


def test_search_rejects_unsettled_trial_steps():
    # A first trial step of 1e300 sends every trial grid so far out of the
    # box that its projection does not settle; each such trial is a rejected
    # step, and the search goes on with smaller ones.
    res = search_counterexample(cycle_graph(4), n=3, d=F(1, 2), starts=2,
                                iters=5, step=1e300)
    assert res.certificate is None
    assert res.best_deficit >= -1e-12
    assert len(res.trace) > 1
    assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))
    degrees = res.best_w.float_matrix.sum(axis=1) / 3
    assert np.max(np.abs(degrees - 0.5)) <= 1e-9


def test_search_remembers_a_clamped_trial_step(monkeypatch):
    # After a start's first trial that does not settle, its later line
    # searches begin at the clamped step instead of at ``step``: over the
    # whole run each start pays for at most one unsettled projection.
    unsettled = []

    def counting(m, d, **kwargs):
        out, residual = _project_regular_array(m, d, **kwargs)
        unsettled.append(int(np.sum(~(residual <= PROJECTION_TOL))))
        return out, residual

    monkeypatch.setattr(search, "_project_regular_array", counting)
    res = search_counterexample(cycle_graph(4), n=3, d=F(1, 2), starts=2,
                                iters=5, step=1e8)
    assert len(unsettled) > 5
    assert 1 <= sum(unsettled) <= 2
    assert len(res.trace) > 1
    assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))


def test_search_c4_negative_control_small():
    res = search_counterexample(cycle_graph(4), n=3, d=F(1, 2), starts=6,
                                iters=120, seed=2)
    assert res.best_deficit >= 0
    assert not res.certified_violation
    assert all(res.trace[i + 1] <= res.trace[i] + 1e-15
               for i in range(len(res.trace) - 1))
    degrees = res.best_w.float_matrix.sum(axis=1) / 3
    assert np.max(np.abs(degrees - 0.5)) <= 1e-9


def test_search_deterministic():
    a = search_counterexample(cycle_graph(4), n=3, d=F(1, 2), starts=3,
                              iters=50, seed=7)
    b = search_counterexample(cycle_graph(4), n=3, d=F(1, 2), starts=3,
                              iters=50, seed=7)
    assert a.best_deficit == b.best_deficit
    assert a.trace == b.trace
    assert a.best_w == b.best_w


def test_search_result_json_and_trace_csv():
    res = search_counterexample(cycle_graph(4), n=2, d=F(1, 2), starts=2,
                                iters=30, seed=1)
    data = res.to_json_dict()
    assert data["starts"] == 2 and data["seed"] == 1
    assert len(data["graphon"]["values"]) == 2
    csv_text = res.trace_csv()
    assert csv_text.splitlines()[0] == "iteration,deficit"
    assert len(csv_text.splitlines()) == len(res.trace) + 1


def test_search_instance_outside_proved_families():
    # non-uniform subdivision of a triangle by even paths 2, 2, 4: the
    # classifier rejects it, so only empirical search applies here; no
    # violation is expected
    from sidlab.graphs import ReplacementSpec, Theorem12Case, \
        classify_theorem12, replace_edges_nonuniform

    spec = ReplacementSpec(3, {(0, 1): {2: 1}, (0, 2): {2: 1}, (1, 2): {4: 1}})
    assert classify_theorem12(spec).case is Theorem12Case.NOT_COVERED
    target = replace_edges_nonuniform(spec)
    assert target.is_bipartite()
    res = search_counterexample(target, n=3, d=F(1, 2), starts=8, iters=200,
                                seed=11)
    assert res.best_deficit >= 0
    assert not res.certified_violation


def test_search_recomputed_deficit_matches_reported():
    from sidlab.homdensity import deficit

    res = search_counterexample(cycle_graph(6), n=3, d=F(1, 2), starts=3,
                                iters=80, seed=4)
    again = float(deficit(cycle_graph(6), res.best_w))
    assert abs(again - res.best_deficit) <= 1e-10


# -- exact certification -----------------------------------------------------

def test_certify_confirms_true_violation():
    # a triangle against a bipartite graphon: density 0 versus (1/2)^3,
    # a genuine violation for a non-bipartite graph
    g = complete_graph(3)
    matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
    cert = certify_violation(g, matrix)
    assert cert is not None
    assert cert["t_H"] == "0/1"
    assert cert["baseline"] == "1/8"
    assert cert["gap"] == -0.125
    # witness embedded as exact rationals
    assert cert["witness"]["values"][0][1] == "1/1"


def test_certify_rejects_float_noise():
    # C4 on a regular graphon satisfies the bound, so a tiny fake negative
    # report must not survive rationalization
    g = cycle_graph(4)
    matrix = constant_graphon(F(1, 2), 3).float_matrix
    matrix[0, 1] += 1e-9
    matrix[1, 0] += 1e-9
    assert certify_violation(g, matrix, d=F(1, 2)) is None


def test_certify_reprojects_affine_constraint_exactly():
    g = cycle_graph(4)
    rng = np.random.default_rng(8)
    m = rng.random((3, 3))
    m = (m + m.T) / 2
    cert = certify_violation(g, m, d=F(1, 2))
    assert cert is None  # no violation exists for an even cycle


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2), (0, 0)])
def test_certify_rejects_a_witness_that_is_not_a_square_grid(shape):
    with pytest.raises(ValueError, match="not a square grid"):
        certify_violation(cycle_graph(4), np.full(shape, 0.5), d=F(1, 2))


@pytest.mark.parametrize("d", [2, -F(1, 3)])
def test_certify_rejects_a_degree_outside_the_unit_interval(d):
    with pytest.raises(ValueError, match="degree"):
        certify_violation(cycle_graph(4), np.full((2, 2), 0.5), d=d)


def reference_certify(graph, matrix, d=None, max_denominator=10 ** 6):
    """``certify_violation`` in its former Fraction loops, before it
    re-projected through ``_affine_project``: the rationalized graphon and
    the certificate or None."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    vals = [
        [F(m[i, j]).limit_denominator(max_denominator) for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            avg = (vals[i][j] + vals[j][i]) / 2
            vals[i][j] = avg
            vals[j][i] = avg
    if d is not None:
        target = F(d) * n
        r = [target - sum(row) for row in vals]
        sigma = sum(r) / (2 * n)
        mu = [(ri - sigma) / n for ri in r]
        vals = [
            [vals[i][j] + mu[i] + mu[j] for j in range(n)]
            for i in range(n)
        ]
    vals = [[min(max(x, F(0)), F(1)) for x in row] for row in vals]
    w = StepGraphon(vals)
    lhs = contract_exact(graph.n, graph.edges, w, n)
    rhs = edge_density(w) ** graph.num_edges
    if lhs >= rhs:
        return w, None
    return w, {
        "witness": w.to_json_dict(mode="exact"),
        "t_H": f"{lhs.numerator}/{lhs.denominator}",
        "baseline": f"{rhs.numerator}/{rhs.denominator}",
        "gap": float(lhs - rhs),
    }


@pytest.mark.parametrize("d", [None, F(1, 3), F(1, 2), F(2, 3)])
def test_certify_equals_the_fraction_loops(monkeypatch, d):
    graphs = [complete_graph(3), cycle_graph(5), cycle_graph(4),
              complete_multipartite([2, 3]),
              generalized_theta([2, 4]).graph, complete_graph(4)]
    seen = []

    def recording(w):
        seen.append(w)
        return edge_density(w)

    monkeypatch.setattr(search, "edge_density", recording)
    rng = np.random.default_rng(13)
    certified = 0
    for trial in range(60):
        graph = graphs[trial % len(graphs)]
        n = 1 + trial % 5
        max_denominator = (10, 10 ** 3, 10 ** 6)[trial % 3]
        # near-bipartite witnesses certify for the non-bipartite graphs
        m = rng.random((n, n)) * 1.4 - 0.2
        if trial % 2:
            m[: n // 2, : n // 2] *= 0.1
            m[n // 2:, n // 2:] *= 0.1
        w, expected = reference_certify(graph, m, d, max_denominator)
        cert = certify_violation(graph, m, d, max_denominator)
        assert seen.pop() == w
        assert json.dumps(cert) == json.dumps(expected)
        certified += cert is not None
    assert certified > 0


def symmetric_witnesses():
    """Exactly symmetric float witnesses that repeat entries: the winners of
    short searches, a two-block near-bipartite grid and a grid drawn from a
    few values, some outside [0, 1]."""
    out = [search_counterexample(graph, n=n, d=d, starts=2, iters=15,
                                 seed=seed).best_w.float_matrix
           for graph, n, d, seed in [(cycle_graph(4), 4, F(1, 2), 3),
                                     (complete_multipartite([2, 3]), 5,
                                      F(1, 3), 5)]]
    blocks = np.full((4, 4), 0.9)
    blocks[:2, :2] = blocks[2:, 2:] = 0.05
    out.append(blocks)
    rng = np.random.default_rng(21)
    m = rng.choice([-0.1, 0.1, 1 / 3, 0.7, 1.05], size=(5, 5))
    out.append(np.triu(m) + np.triu(m, 1).T)
    return out


@pytest.mark.parametrize("d", [None, F(1, 3), F(1, 2)])
def test_certify_symmetric_witnesses_equal_the_fraction_loops(monkeypatch,
                                                               d):
    # each distinct float of a symmetric witness is rationalized once for
    # all of its positions; the graphon and certificate must not notice
    seen = []

    def recording(w):
        seen.append(w)
        return edge_density(w)

    monkeypatch.setattr(search, "edge_density", recording)
    certified = 0
    for m in symmetric_witnesses():
        assert np.all(m == m.T) and len(np.unique(m)) < m.size
        for graph in (complete_graph(3), cycle_graph(4)):
            for max_denominator in (10, 10 ** 6):
                w, expected = reference_certify(graph, m, d, max_denominator)
                cert = certify_violation(graph, m, d, max_denominator)
                assert seen.pop() == w
                assert json.dumps(cert) == json.dumps(expected)
                certified += cert is not None
    assert certified > 0
