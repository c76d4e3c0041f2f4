"""Numerical search for density-inequality violations over regular graphons.

The feasible set is the intersection of an affine slice (symmetric grids
with all row sums equal to n*d) and the box [0, 1]^(n x n).  Projection onto
the intersection uses Dykstra's alternating scheme; the objective is the
signed slack of the density lower bound, minimized by projected gradient
descent with Armijo backtracking.  A candidate violation is only ever
announced after the float witness is rationalized and the inequality
re-checked in exact arithmetic.

All starts of a search advance together as one ``(B, n, n)`` stack: the
contraction engine, the density gradient and the Dykstra projection each
take the stack in one call.  Every start keeps its own path.  A start leaves
the active set when its gradient vanishes or its line search finds no
acceptable step; inside a line search each start shrinks its own step until
it accepts one, and a trial whose projection does not settle counts as a
rejected step, after which that start's line searches begin no higher than
its clamped step; inside a projection each grid is frozen at the first sweep
whose own residual reaches ``PROJECTION_TOL``.  Each start therefore ends
where a search on it alone would.  The start of least final slack (ties to
the lower index) wins, and that slack, as its descent computed it, is the
reported ``best_deficit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import contraction
from .graphs import Graph, _integer
from .homdensity import _gradient_float
from .stepgraphon import StepGraphon, _frac_str, edge_density

__all__ = [
    "ProjectionError",
    "SearchResult",
    "project_regular",
    "search_counterexample",
    "certify_violation",
]


PROJECTION_TOL = 1e-10
# The line search's step shrink factor.
ARMIJO = 0.5


class ProjectionError(RuntimeError):
    """Alternating projection failed to reach the residual target."""

    def __init__(self, residual: float):
        super().__init__(f"projection did not converge; residual {residual:.3e}")
        self.residual = residual


def _affine_project(m: np.ndarray, row_target: float) -> np.ndarray:
    """Frobenius projection onto symmetric grids with constant row sums,
    applied to each grid of a ``(..., n, n)`` stack."""
    n = m.shape[-1]
    r = row_target - m.sum(axis=-1)
    sigma = r.sum(axis=-1, keepdims=True) / (2 * n)
    mu = (r - sigma) / n
    # form the rank-two bump first: mu_i + mu_j is commutative, so adding it
    # as one term keeps the result bit-for-bit symmetric
    return m + (mu[..., :, None] + mu[..., None, :])


def _project_regular_array(m: np.ndarray, d: float, max_iter: int = 5000):
    """Dykstra projection of a grid, or of each grid of a ``(..., n, n)``
    stack, and the residual left on each grid that did not settle.

    A grid is frozen at the first sweep whose own residual reaches
    ``PROJECTION_TOL``, so every slice equals the call on that grid alone,
    and its reported residual is 0.  A grid that does not settle within
    ``max_iter`` sweeps keeps its last sweep and reports that sweep's
    residual (above ``PROJECTION_TOL``, or nan).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    shape = m.shape
    n = shape[-1]
    target = n * d
    x = np.reshape((m + np.swapaxes(m, -1, -2)) / 2.0, (-1, n, n))
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    out = np.empty_like(x)
    out_residual = np.zeros(len(x))
    live = np.arange(len(x))
    for _ in range(max_iter):
        y = _affine_project(x + p, target)
        p = x + p - y
        x_new = np.clip(y + q, 0.0, 1.0)
        q = y + q - x_new
        x = x_new
        residual = np.max(np.abs(x.sum(axis=-1) - target), axis=-1)
        done = residual <= PROJECTION_TOL
        if done.any():
            out[live[done]] = x[done]
            keep = ~done
            x, p, q, live = x[keep], p[keep], q[keep], live[keep]
            residual = residual[keep]
            if not len(live):
                break
    else:
        out[live], out_residual[live] = x, residual
    return out.reshape(shape), out_residual.reshape(shape[:-2])


def _settled(x: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """``x`` when every grid settled, else ProjectionError carrying the worst
    residual among the grids that did not."""
    if not np.all(residual <= PROJECTION_TOL):
        raise ProjectionError(float(np.max(residual)))
    return x


def project_regular(grid, d, max_iter: int = 5000) -> StepGraphon:
    """Nearest d-regular step graphon in Frobenius distance, to the row-sum
    residual ``PROJECTION_TOL``.

    Accepts a StepGraphon, nested values, or an ndarray.  Raises
    ProjectionError with the final residual if the iteration cap is hit,
    and ValueError if ``max_iter < 1``.
    """
    d = Fraction(d)
    if not 0 <= d <= 1:
        raise ValueError("degree must lie in [0, 1]")
    if isinstance(grid, StepGraphon):
        m = grid.float_matrix
    else:
        m = np.array(grid, dtype=float)
    x, residual = _project_regular_array(m, float(d), max_iter=max_iter)
    return StepGraphon(_settled(x, residual))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one multi-start descent run.

    ``best_deficit`` is the winning start's final slack, at ``best_w``;
    ``trace`` lists its accepted-step objective values (non-increasing).
    ``certificate`` is None unless an exact-arithmetic recheck confirmed a
    violation at a rationalized witness.
    """

    best_w: StepGraphon
    best_deficit: float
    trace: tuple
    starts: int
    seed: int
    certificate: dict | None = None

    @property
    def certified_violation(self) -> bool:
        return self.certificate is not None

    def to_json_dict(self) -> dict:
        return {
            "best_deficit": self.best_deficit,
            "graphon": self.best_w.to_json_dict(mode="float"),
            "trace": list(self.trace),
            "starts": self.starts,
            "seed": self.seed,
            "certificate": self.certificate,
        }

    def trace_csv(self) -> str:
        lines = ["iteration,deficit"]
        lines += [f"{i},{v!r}" for i, v in enumerate(self.trace)]
        return "\n".join(lines) + "\n"


def _edge_densities(a: np.ndarray, n: int) -> list:
    # Powers of these are taken in Python floats: NumPy's vectorized pow can
    # round the last bit differently, and a start's slack should be the value
    # a scalar evaluation of its own grid gives.
    return (a.sum(axis=(-2, -1)) / n ** 2).tolist()


def _sidorenko_slack(graph: Graph, a: np.ndarray, n: int) -> np.ndarray:
    """The slack of each grid of the stack ``a``."""
    t = contraction.contract_float(graph.n, graph.edges, a, n)
    e = graph.num_edges
    return t - np.array([s ** e for s in _edge_densities(a, n)])


def _slack_gradient(graph: Graph, a: np.ndarray, n: int) -> np.ndarray:
    """The slack gradient of each grid of the stack ``a``."""
    g = _gradient_float(graph, a)
    e = graph.num_edges
    coef = np.array([e * s ** (e - 1) for s in _edge_densities(a, n)])
    base = np.full((n, n), 2.0 / n ** 2)
    np.fill_diagonal(base, 1.0 / n ** 2)
    return g - coef[:, None, None] * base


def search_counterexample(graph: Graph, n: int, d, starts: int = 32,
                          iters: int = 500, seed: int = 0,
                          step: float = 0.05) -> SearchResult:
    """Minimize the density slack of a bipartite graph over d-regular graphons.

    Projected gradient descent with backtracking line search (sufficient
    decrease 1e-4, shrink factor ``ARMIJO``, first trial step ``step``), all
    starts advancing together as one stack.  A trial step whose projection
    does not settle is rejected, and the start's next trial, at most the step
    that moves no grid entry by more than 1, also caps the first trial of its
    later iterations; only the projection of the starting points raises
    ProjectionError.  Deterministic for a fixed seed;
    starts are merged by minimum final slack with ties broken by start
    index.  A certificate is attached only when the exact recheck at a
    rationalized witness confirms a strict violation.
    """
    if not graph.is_bipartite():
        raise ValueError("search targets bipartite graphs only")
    n, starts = _integer(n, "step count"), _integer(starts, "start count")
    iters, seed = _integer(iters, "iteration count"), _integer(seed, "seed")
    if n < 1 or starts < 1 or iters < 1:
        raise ValueError("parameters must be positive")
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    d = Fraction(d)
    if not 0 <= d <= 1:
        raise ValueError("degree must lie in [0, 1]")
    df = float(d)

    raw = np.stack([np.random.default_rng(child).random((n, n))
                    for child in np.random.SeedSequence(seed).spawn(starts)])
    x = _settled(*_project_regular_array(raw, df))
    val = _sidorenko_slack(graph, x, n)
    traces = [[v] for v in val.tolist()]
    # a start leaves the active set at a vanishing gradient or when its line
    # search finds no acceptable step; the others keep descending
    active = np.arange(starts)
    # a bound on each start's first trial step, set once one of its trials
    # did not settle
    cap = np.full(starts, np.inf)
    for _ in range(iters):
        if not len(active):
            break
        grad = _slack_gradient(graph, x[active], n)
        moving = ~(np.max(np.abs(grad), axis=(-2, -1)) < 1e-14)
        active, grad = active[moving], grad[moving]
        # Armijo backtracking for every active start at once; a start stays
        # pending until it accepts a step or its eta falls to 1e-12
        eta = np.minimum(float(step), cap[active])
        pending = eta > 1e-12
        accepted = np.zeros(len(active), dtype=bool)
        while pending.any():
            j = np.flatnonzero(pending)
            xs = x[active[j]]
            cand, residual = _project_regular_array(
                xs - eta[j, None, None] * grad[j], df)
            settled = residual <= PROJECTION_TOL
            if not settled.all():
                # A trial whose projection does not settle is a rejected
                # step.  Such a trial sends the grid far out of the box, so
                # its start next tries at most the step that moves no entry
                # by more than the box's side, and its later line searches
                # start there rather than at ``step``.
                u = j[~settled]
                eta[u] = np.minimum(
                    eta[u] * ARMIJO,
                    1.0 / np.max(np.abs(grad[u]), axis=(-2, -1)))
                cap[active[u]] = eta[u]
                j, xs, cand = j[settled], xs[settled], cand[settled]
            cand_val = _sidorenko_slack(graph, cand, n)
            decrease = np.sum(grad[j] * (cand - xs), axis=(-2, -1))
            ok = cand_val <= val[active[j]] + 1e-4 * decrease
            won = active[j[ok]]
            x[won], val[won] = cand[ok], cand_val[ok]
            for k, v in zip(won.tolist(), cand_val[ok].tolist()):
                traces[k].append(v)
            accepted[j[ok]] = True
            eta[j[~ok]] *= ARMIJO
            pending = ~accepted & (eta > 1e-12)
        active = active[accepted]

    best = int(np.argmin(val))
    slack = float(val[best])
    certificate = (certify_violation(graph, x[best], d) if slack < -1e-8
                   else None)
    return SearchResult(
        best_w=StepGraphon(x[best]),
        best_deficit=slack,
        trace=tuple(traces[best]),
        starts=starts,
        seed=seed,
        certificate=certificate,
    )


def certify_violation(graph: Graph, matrix, d=None,
                      max_denominator: int = 10 ** 6) -> dict | None:
    """Exact-arithmetic recheck of a float witness.

    Rationalizes every distinct entry by continued fractions, symmetrizes,
    re-projects the affine row-sum constraint exactly when a degree is
    given, clamps to [0, 1], and recomputes both sides of the density
    inequality over the rationals.  Every step between the rationalized
    entries and the graphon runs on one integer grid over one denominator.
    Returns a JSON-able certificate when the violation survives, else None.
    Raises ValueError for an empty or non-square grid, or d outside [0, 1].
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"witness of shape {m.shape} is not a square grid")
    if d is not None and not 0 <= Fraction(d) <= 1:
        raise ValueError("degree must lie in [0, 1]")
    n = m.shape[0]
    rational = {v: Fraction(v).limit_denominator(max_denominator)
                for v in set(m.ravel().tolist())}
    lcd = lcm(*(x.denominator for x in rational.values()))
    scaled = {v: x.numerator * (lcd // x.denominator)
              for v, x in rational.items()}
    x = np.array([[scaled[v] for v in row] for row in m.tolist()],
                 dtype=object)
    # the symmetrized grid (x + x^T) / 2 is s / q
    s, q = x + x.T, 2 * lcd
    if d is not None:
        # ``_affine_project`` onto row sums n*d, d = a/b, in closed form:
        # with r_i = q*n*a - b*sum_j s_ij and t_i = 2n*r_i - sum r, its
        # bump mu_i + mu_j is (t_i + t_j) / (2 n^2 b q)
        a, b = Fraction(d).as_integer_ratio()
        r = q * n * a - b * s.sum(axis=1)
        t = 2 * n * r - r.sum()
        s = 2 * n * n * b * s + (t[:, None] + t[None, :])
        q *= 2 * n * n * b
    w = StepGraphon._from_integers(np.minimum(np.maximum(s, 0), q).tolist(),
                                   q)
    lhs = contraction.contract_exact(graph.n, graph.edges, w, n)
    rhs = edge_density(w) ** graph.num_edges
    if lhs >= rhs:
        return None
    return {
        "witness": w.to_json_dict(mode="exact"),
        "t_H": _frac_str(lhs),
        "baseline": _frac_str(rhs),
        "gap": float(lhs - rhs),
    }
