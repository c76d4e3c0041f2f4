import json
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sidlab import contraction, search
from sidlab.contraction import contract_exact, contract_float
from sidlab.graphs import (
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edge_orbits,
    generalized_theta,
    path_graph,
)
from sidlab.homdensity import _gradient_float, deficit
from sidlab.search import (
    PROJECTION_TOL,
    ProjectionError,
    _project_regular_array,
    _rationalize,
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


def plain_dykstra(grid, d):
    """Dykstra's loop on one grid, written out with both correction arrays
    starting at zero and no freezing: the sweeps the projection runs."""
    n = grid.shape[-1]
    x = (grid + grid.T) / 2.0
    p, q = np.zeros_like(x), np.zeros_like(x)
    while True:
        y = search._affine_project(x + p, n * d)
        p = x + p - y
        x_new = np.clip(y + q, 0.0, 1.0)
        q = y + q - x_new
        x = x_new
        if np.max(np.abs(x.sum(axis=-1) - n * d)) <= PROJECTION_TOL:
            return x


def test_projection_runs_the_plain_dykstra_sweeps():
    rng = np.random.default_rng(12)
    grids = [np.full((4, 4), 0.4)] + [
        rng.random((4, 4)) * scale - shift
        for scale, shift in ((0.1, -0.35), (2, 0.5), (4, 1.5))]
    # two grids settle in one sweep, the others after 31 and 89 sweeps
    assert [sweeps_to_settle(g, 0.4) for g in grids] == [1, 1, 31, 89]
    stacked, _ = _project_regular_array(np.stack(grids), 0.4)
    for grid, out in zip(grids, stacked):
        assert np.array_equal(out, plain_dykstra(grid, 0.4))
        assert np.array_equal(_project_regular_array(grid, 0.4)[0], out)


def test_projection_sweeps_equal_the_np_clip_sweeps_bit_for_bit():
    # the sweep clips with ndarray.clip and takes its residual with
    # ndarray.max; plain_dykstra keeps np.clip and np.max as the reference,
    # and every grid of every stack must agree in every bit, the sign of a
    # zero included.  Some entries are set to -0.0, 0.0 and 1.0.
    rng = np.random.default_rng(33)
    for k in range(60):
        n, d = 2 + k % 5, (0.25, 0.4, 0.5, 0.75)[k % 4]
        stack = rng.random((1 + k % 6, n, n)) * (1 + k % 2) - k % 3 / 4
        stack.flat[rng.integers(0, stack.size, 3)] = (-0.0, 0.0, 1.0)
        out, residual = _project_regular_array(stack, d)
        assert np.all(residual == 0)
        for grid, x in zip(stack, out):
            ref = plain_dykstra(grid, d)
            assert x.tobytes() == ref.tobytes()
            assert np.array_equal(np.signbit(x), np.signbit(ref))


@pytest.mark.parametrize("max_iter", [0, -1])
def test_projection_rejects_nonpositive_max_iter(max_iter):
    for project in (project_regular, _project_regular_array):
        with pytest.raises(ValueError,
                           match=f"max_iter {max_iter} is below 1"):
            project(np.eye(2), 0.5, max_iter=max_iter)


@pytest.mark.parametrize("max_iter", [True, 2.0, 1.5, "3"])
def test_projection_rejects_a_max_iter_that_is_not_an_integer(max_iter):
    # True once ran one sweep, and the others were a TypeError from range
    # or from <
    for project in (project_regular, _project_regular_array):
        with pytest.raises(ValueError,
                           match=f"max_iter {max_iter!r} is not an integer"):
            project(np.eye(2), 0.5, max_iter=max_iter)


def test_projection_reads_a_numpy_max_iter():
    stack = np.stack([np.full((3, 3), 0.5), np.eye(3) * 5.0])
    out, residual = _project_regular_array(stack, 0.5, max_iter=np.int64(1))
    alone, alone_residual = _project_regular_array(stack, 0.5, max_iter=1)
    assert np.all(out == alone) and np.all(residual == alone_residual)


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
    True,  # was run as a step of 1.0
    "0.05",  # this and None were a TypeError from np.isfinite
    None,
])
def test_search_rejects_bad_step_sizes(step):
    with pytest.raises(ValueError, match="step"):
        search_counterexample(cycle_graph(4), n=3, d=F(1, 2), starts=2,
                              iters=5, step=step)


@pytest.mark.parametrize("plain, step", [(0.05, np.float64(0.05)),
                                         (1, np.int64(1))])
def test_search_reads_a_numpy_step(plain, step):
    runs = [search_counterexample(cycle_graph(4), n=3, d=F(1, 2), starts=2,
                                  iters=5, step=x) for x in (plain, step)]
    assert runs[0].trace == runs[1].trace


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


@pytest.mark.parametrize("what", ["step count", "start count",
                                  "iteration count"])
def test_search_refuses_counts_below_1(what):
    def run(x):
        kwargs = {"n": 2, "starts": 1, "iters": 1, "seed": 0,
                  **SEARCH_INTEGERS[what](x)}
        return search_counterexample(cycle_graph(4), d=F(1, 2), **kwargs)

    with pytest.raises(ValueError, match=f"{what} 0 is below 1"):
        run(0)
    res, again = run(1), run(np.int64(1))
    assert again.trace == res.trace and again.best_w == res.best_w


def triangle_subdivided_to_c8():
    # the triangle with its edges replaced by paths of 2, 2 and 4 edges: a
    # relabelled 8-cycle, with one edge orbit
    from sidlab.graphs import ReplacementSpec, replace_edges_nonuniform

    spec = ReplacementSpec(3, {(0, 1): {2: 1}, (0, 2): {2: 1}, (1, 2): {4: 1}})
    return replace_edges_nonuniform(spec)


# Reference outputs of a descent that ran its starts one at a time: a start
# inside the stack must end exactly where it would alone.  θ(2,2,4), with
# three edge orbits, pins the multi-orbit gradient and the first orbit's
# cavity handed from the slack to the next gradient.
REGRESSION_GRAPHS = {
    "C6": cycle_graph(6),
    "C8": triangle_subdivided_to_c8(),
    "theta224": generalized_theta([2, 2, 4], "even").graph,
}
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
    "C8": (
        dict(n=3, d=F(1, 3), starts=5, iters=20, seed=9),
        5.064841819058842e-10, 21, 5.064841819058842e-10,
        [[0.2868082530951753, 0.3452559957993418, 0.367935751105483],
         [0.3452559957993418, 0.43565621652549497, 0.2190877876751633],
         [0.367935751105483, 0.2190877876751633, 0.4129764612193538]],
    ),
    "theta224": (
        dict(n=4, d=F(1, 2), starts=6, iters=30, seed=3),
        1.3716016489121255e-05, 31, 1.3716016489121255e-05,
        [[0.25959426684420284, 0.439939025681225, 0.7087981162603251,
          0.5916685912142471],
         [0.439939025681225, 0.6191984038787341, 0.4084068971710135,
          0.5324556732690271],
         [0.7087981162603251, 0.4084068971710135, 0.27038079320442776,
          0.6124141933642335],
         [0.5916685912142471, 0.5324556732690271, 0.6124141933642335,
          0.263461542152492]],
    ),
}


@pytest.mark.parametrize("name", sorted(REGRESSION_CASES))
def test_search_reproduces_recorded_results(name):
    kwargs, deficit, length, last, matrix = REGRESSION_CASES[name]
    res = search_counterexample(REGRESSION_GRAPHS[name], **kwargs)
    assert len(res.trace) == length
    assert abs(res.best_deficit - deficit) <= 1e-12
    assert abs(res.trace[-1] - last) <= 1e-12
    assert np.max(np.abs(res.best_w.float_matrix - np.array(matrix))) <= 1e-12
    assert not res.certified_violation


def test_search_rejects_unsettled_trial_steps(monkeypatch):
    # A first trial step of 1e300 sends every trial grid so far out of the
    # box that its projection does not settle; each such trial is a rejected
    # step, and the search goes on with smaller ones.  A round in which no
    # trial settles has no slack to read: it once contracted an empty stack.
    stacks = []

    def spy(n_vertices, edges, a, *args, **kwargs):
        stacks.append(np.shape(a))
        return contract_float(n_vertices, edges, a, *args, **kwargs)

    monkeypatch.setattr(contraction, "contract_float", spy)
    res = search_counterexample(cycle_graph(4), n=3, d=F(1, 2), starts=2,
                                iters=5, step=1e300)
    assert stacks and all(shape[0] for shape in stacks)
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
    # classifier rejects the spec, but the graph it builds is the 8-cycle,
    # an even cycle and so a Sidorenko graph; the search is a negative
    # control and finds no violation
    from sidlab.graphs import ReplacementSpec, Theorem12Case, \
        classify_theorem12, find_isomorphism, replace_edges_nonuniform

    spec = ReplacementSpec(3, {(0, 1): {2: 1}, (0, 2): {2: 1}, (1, 2): {4: 1}})
    assert classify_theorem12(spec).case is Theorem12Case.NOT_COVERED
    target = replace_edges_nonuniform(spec)
    assert find_isomorphism(target, cycle_graph(8)) is not None
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


# the bipartite Sidorenko graphs the benchmark's search workload runs
def even_theta(*lengths):
    return generalized_theta(lengths, "even").graph


SEARCH_GRAPHS = {
    "C4": cycle_graph(4), "K23": complete_multipartite([2, 3]),
    "C6": cycle_graph(6), "theta24": even_theta(2, 4),
    "K33": complete_multipartite([3, 3]), "theta224": even_theta(2, 2, 4),
    "C8": cycle_graph(8), "theta244": even_theta(2, 4, 4),
}


@pytest.mark.parametrize("name", SEARCH_GRAPHS)
def test_slack_is_read_off_the_first_orbit_cavity(name):
    graph = SEARCH_GRAPHS[name]
    rng = np.random.default_rng(sorted(SEARCH_GRAPHS).index(name))
    for n in (3, 5):
        raw = rng.random((6, n, n))
        a = (raw + np.swapaxes(raw, -1, -2)) / 2.0
        slack, cavity = search._sidorenko_slack(graph, a, n)
        whole = contract_float(graph.n, graph.edges, a, n) - np.array(
            [(g.sum() / n ** 2) ** graph.num_edges for g in a])
        assert np.max(np.abs(slack - whole)) <= 1e-15
        # a one-start search runs a one-grid stack: each start's slack and
        # cavity are the ones it would have alone
        for k in range(len(a)):
            alone, alone_cavity = search._sidorenko_slack(graph, a[k:k + 1],
                                                          n)
            assert alone[0] == slack[k]
            assert np.array_equal(alone_cavity[0], cavity[k])
        # handed to the gradient, the cavity stands in for the first orbit's
        # contraction bit for bit, also on a sub-stack
        assert np.array_equal(_gradient_float(graph, a, cavity),
                              _gradient_float(graph, a))
        assert np.array_equal(_gradient_float(graph, a[3:], cavity[3:]),
                              _gradient_float(graph, a[3:]))


@pytest.mark.parametrize("graph, orbits", [
    (cycle_graph(6), 1), (even_theta(2, 2, 4), 3)])
def test_search_runs_one_engine_call_per_trial(monkeypatch, graph, orbits):
    # The slack of a trial is read off its first-orbit cavity, which the
    # next gradient reuses: one float contraction for the starting points,
    # one per settled trial projection, and one per gradient for each other
    # orbit.
    calls = {"contract": 0, "gradient": 0}
    settled = []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def projecting(m, d, **kwargs):
        out, residual = _project_regular_array(m, d, **kwargs)
        settled.append(bool(np.all(residual <= PROJECTION_TOL)))
        return out, residual

    monkeypatch.setattr(contraction, "contract_float",
                        counted("contract", contraction.contract_float))
    monkeypatch.setattr(search, "_project_regular_array", projecting)
    monkeypatch.setattr(search, "_gradient_float",
                        counted("gradient", search._gradient_float))
    res = search_counterexample(graph, n=4, d=F(1, 2), starts=6, iters=25,
                                seed=3)
    assert len(edge_orbits(graph)) == orbits
    # the starting points' projection, then one per trial
    trials = len(settled) - 1
    assert all(settled) and trials >= calls["gradient"] > 1
    assert calls["contract"] == (1 + trials
                                 + (orbits - 1) * calls["gradient"])
    assert len(res.trace) > 1


# best deficits before the slack was read off a cavity
# (graph, d) -> best_deficit of a 4-start, 20-iteration search at n=3, seed 2
DEGENERATE_SEARCHES = {
    ("edgeless", F(0)): 0.0,
    ("edgeless", F(1, 2)): 0.0,
    ("edgeless", F(1)): 0.0,
    ("K2", F(0)): -3.2311742677852644e-27,
    ("K2", F(1, 2)): 0.0,
    ("K2", F(1)): 0.0,
    ("P3", F(0)): 7.607799438521845e-35,
    ("P3", F(1, 2)): -2.7755575615628914e-17,
    ("P3", F(1)): -1.1102230246251565e-16,
}


@pytest.mark.parametrize("name, d", DEGENERATE_SEARCHES)
def test_search_on_graphs_with_few_edges(name, d):
    # an edgeless graph is contracted whole and has no cavity to hand on
    graph = {"edgeless": Graph(3), "K2": path_graph(1),
             "P3": path_graph(2)}[name]
    res = search_counterexample(graph, n=3, d=d, starts=4, iters=20, seed=2)
    assert abs(res.best_deficit - DEGENERATE_SEARCHES[name, d]) <= 1e-15
    assert not res.certified_violation


def c4_witness():
    return search_counterexample(cycle_graph(4), n=3, d=F(1, 3), starts=2,
                                 iters=3).best_w.float_matrix


# each entry point that takes a rational target d
TARGET_READERS = {
    "deficit": lambda d: deficit(cycle_graph(50), constant_graphon(F(1, 2), 3),
                                 d),
    "project_regular": lambda d: project_regular(
        np.random.default_rng(5).random((3, 3)), d),
    "search_counterexample": lambda d: search_counterexample(
        cycle_graph(4), n=3, d=d, starts=2, iters=3),
    "certify_violation": lambda d: certify_violation(cycle_graph(4),
                                                     c4_witness(), d),
}


@pytest.mark.parametrize("reader", TARGET_READERS)
def test_a_target_with_numpy_terms_is_read_as_plain_ints(reader):
    # Fraction keeps NumPy integer terms, which wrap at 2^63: deficit read
    # 3^50 wrapped, and certify_violation raised OverflowError
    plain = TARGET_READERS[reader](F(1, 3))
    assert TARGET_READERS[reader](F(np.int64(1), np.int64(3))) == plain


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


@pytest.mark.parametrize("max_denominator, error", [
    (0, "max_denominator 0 is below 1"),
    (-5, "max_denominator -5 is below 1"),
    (1e6, "max_denominator 1000000.0 is not an integer"),
    (True, "max_denominator True is not an integer"),
])
def test_certify_refuses_a_max_denominator_that_is_not_a_positive_integer(
        monkeypatch, max_denominator, error):
    # a float bound was a TypeError deep in the rationalization, and True
    # was read as 1
    monkeypatch.setattr(search, "_rationalize", None)  # refused before
    with pytest.raises(ValueError, match=error):
        certify_violation(cycle_graph(4), np.full((2, 2), 0.5),
                          max_denominator=max_denominator)


def test_certify_reads_a_numpy_max_denominator():
    m = np.array([[0.3, 0.7], [0.7, 0.3]])
    read = [certify_violation(cycle_graph(4), m, max_denominator=bound)
            for bound in (1, np.int64(1))]
    assert read[0] == read[1]


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_certify_refuses_a_witness_entry_that_is_not_finite(monkeypatch,
                                                             entry):
    # an infinite entry was an OverflowError in the rationalization
    m = np.full((3, 3), 0.5)
    m[1, 2] = entry
    monkeypatch.setattr(search, "_rationalize", None)  # refused before
    with pytest.raises(ValueError, match="NaN or infinite"):
        certify_violation(cycle_graph(4), m, d=F(1, 2))


def spy_contract_exact(monkeypatch):
    """The graphons that ``certify_violation`` contracts, in call order."""
    seen, contract = [], contraction.contract_exact

    def spy(n_vertices, edges, w, n_steps, *args, **kwargs):
        seen.append(w)
        return contract(n_vertices, edges, w, n_steps, *args, **kwargs)

    monkeypatch.setattr(contraction, "contract_exact", spy)
    return seen


@pytest.mark.parametrize("name", SEARCH_GRAPHS)
def test_certify_decides_search_witnesses_on_the_floor_grid(monkeypatch,
                                                            name):
    # a short search's winner satisfies the bound by far more than 2^-48
    # moves either side, so one contraction on the floor grid settles it
    graph = SEARCH_GRAPHS[name]
    index = list(SEARCH_GRAPHS).index(name)
    n, d = 4 + index % 3, (F(1, 3), F(1, 2), F(2, 3))[index % 3]
    m = search_counterexample(graph, n=n, d=d, starts=2, iters=3,
                              seed=index).best_w.float_matrix
    seen = spy_contract_exact(monkeypatch)
    assert certify_violation(graph, m, d) is None
    assert len(seen) == 1 and 2 ** 48 % seen[0].q == 0


@pytest.mark.parametrize("graph", [cycle_graph(4), complete_graph(3),
                                   SEARCH_GRAPHS["theta24"]])
def test_certify_falls_back_on_an_exact_tie(monkeypatch, graph):
    # on d*J, t_H = rho^e exactly: rounding 1/3 down for t_H and up for rho
    # proves nothing, and the full contraction finds no violation
    seen = spy_contract_exact(monkeypatch)
    assert certify_violation(graph, np.full((3, 3), 1 / 3), F(1, 3)) is None
    assert len(seen) == 2
    assert seen[1] == constant_graphon(F(1, 3), 3)


def test_certify_falls_back_to_certify_a_violation(monkeypatch):
    seen = spy_contract_exact(monkeypatch)
    cert = certify_violation(complete_graph(3),
                             np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert cert is not None and cert["gap"] == -0.125
    assert len(seen) == 2


@st.composite
def rationalization_cases(draw):
    """(x, max_denominator) with the bound from 1 to 10^6 and x a float in
    [0, 1], a fraction k/m with m up to the bound, the float nearest the
    midpoint of two neighboring fractions of denominator at most the bound
    (a near tie), an exact tie (a float holds only 1/(2M) and 1 - 1/(2M),
    M a power of two), 0.0, 1.0 or a subnormal."""
    bound = draw(st.integers(1, 10 ** 6))
    kind = draw(st.sampled_from(["float", "fraction", "midpoint", "tie",
                                 "edge"]))
    if kind == "float":
        x = draw(st.floats(0.0, 1.0))
    elif kind == "fraction":
        m = draw(st.integers(1, bound))
        x = draw(st.integers(0, m)) / m
    elif kind == "midpoint":
        q = draw(st.integers(1, bound))
        p = draw(st.integers(0, q))
        p, q = p // gcd(p, q), q // gcd(p, q)
        # p/q's right neighbor c/d among the fractions of denominator at
        # most the bound: c*q - d*p = 1 with d as large as it allows
        d0 = -pow(p, -1, q) % q
        d = d0 + q * ((bound - d0) // q)
        x = float((F(p, q) + F((1 + d * p) // q, d)) / 2)
    elif kind == "tie":
        i = draw(st.integers(0, 19))
        bound = 2 ** i
        x = draw(st.sampled_from([2.0 ** -(i + 1), 1 - 2.0 ** -(i + 1)]))
    else:
        x = draw(st.sampled_from([0.0, 1.0, 5e-324])
                 | st.integers(1, 2 ** 52 - 1).map(lambda k: k * 5e-324))
    return x, bound


@settings(max_examples=400, deadline=None)
@given(rationalization_cases())
@example((0.25, 2))  # the midpoint of 0 and 1/2: a tie, to 0
@example((0.75, 2))  # the midpoint of 1/2 and 1: a tie, to 1
@example((1 / 3, 10 ** 6))
def test_rationalization_matches_limit_denominator(case):
    x, bound = case
    expected = F(x).limit_denominator(bound)
    assert _rationalize(x, bound) == (expected.numerator,
                                      expected.denominator)


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
