"""Variable-elimination contraction of pairwise step-weight products.

Evaluates sums of the form

    (1/n)^{#eliminated} * sum over assignments phi of free vertices of
        prod over edges (u, v) of  A[phi(u)][phi(v)]

where pinned vertices are fixed to given steps and kept vertices survive as
output axes.  One bucket-elimination engine (greedy min-fill order, one
einsum per eliminated vertex) runs on either of two arrays:

* exact: the rational grid times the lcm q of its denominators, as Python
  ints in an object array.  No step divides; the result is an integer sum
  and the entry point divides once by q^{#edges} * n^{#eliminated};
* float: float64, with one 1/n folded into each elimination step, which
  keeps every intermediate value inside [0, 1].

The brute-force oracle enumerates every assignment over the same two grids;
it shares the input checks and the integer scaling with the engine, not
the elimination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

__all__ = [
    "EliminationOrder",
    "elimination_order",
    "contract_exact",
    "contract_float",
    "bruteforce_exact",
    "bruteforce_float",
    "WidthCapExceeded",
    "BRUTEFORCE_STATE_LIMIT",
]

BRUTEFORCE_STATE_LIMIT = 10 ** 7
_EINSUM_MAX_OPERANDS = 32


class WidthCapExceeded(ValueError):
    """Exact contraction refused: intermediate factor arity above the cap."""


@dataclass(frozen=True)
class EliminationOrder:
    """Vertices in elimination sequence with per-step intermediate arities.

    ``arities[i]`` counts the variables of the combined factor built when
    ``vertices[i]`` is summed out (the eliminated variable plus its current
    neighbors), so ``max_arity == width + 1``.
    """

    vertices: tuple
    arities: tuple

    @property
    def width(self) -> int:
        return max(self.arities, default=1) - 1

    @property
    def max_arity(self) -> int:
        return max(self.arities, default=1)


@lru_cache(maxsize=4096)
def _elimination_order_cached(n_vertices, edges, pins, keep):
    pinset, keepset = set(pins), set(keep)
    present = [v for v in range(n_vertices) if v not in pinset]
    adj = {v: set() for v in present}
    for u, v in edges:
        if u in pinset or v in pinset:
            continue
        adj[u].add(v)
        adj[v].add(u)
    eliminable = set(present) - keepset

    def fill(v):
        nbrs = list(adj[v])
        return sum(
            1
            for i in range(len(nbrs))
            for j in range(i + 1, len(nbrs))
            if nbrs[j] not in adj[nbrs[i]]
        )

    order, arities = [], []
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
    return EliminationOrder(tuple(order), tuple(arities))


def elimination_order(n_vertices, edges, pins=(), keep=()) -> EliminationOrder:
    """Greedy min-fill order, min-degree then min-index tie-break.

    Pinned vertices are dropped up front (their edges become unary lookups);
    kept vertices participate in the interaction graph but are never
    eliminated.
    """
    return _elimination_order_cached(
        n_vertices, tuple(edges), tuple(sorted(pins)), tuple(keep)
    )


def _normalize_pins(pins) -> dict:
    """A pin map from a dict or an iterable of (vertex, step) pairs; a vertex
    pinned twice is rejected rather than overwritten."""
    if pins is None:
        return {}
    if isinstance(pins, dict):
        return dict(pins)
    out = {}
    for v, s in pins:
        if v in out:
            raise ValueError(f"pin collision at vertex {v}")
        out[v] = s
    return out


def _check_pins(n_vertices, n_steps, pins, keep):
    pins = _normalize_pins(pins)
    for v, s in pins.items():
        if not (0 <= v < n_vertices):
            raise ValueError(f"pinned vertex {v} out of range")
        if not (0 <= s < n_steps):
            raise ValueError(f"pin target step {s} out of range")
    if len(keep) > 2:
        raise ValueError("at most two kept vertices supported")
    for v in keep:
        if not (0 <= v < n_vertices):
            raise ValueError(f"kept vertex {v} out of range")
    if len(set(keep)) != len(keep):
        raise ValueError(f"kept vertices {keep} repeat a vertex")
    if set(pins) & set(keep):
        raise ValueError("a vertex cannot be both pinned and kept")
    return pins


def _scaled_integer_grid(values):
    """The rational grid times the lcm q of its denominators, as Python ints
    in an object array, together with q."""
    denoms = [x.denominator for row in values for x in row]
    q = lcm(*denoms) if denoms else 1
    grid = np.array(
        [[x.numerator * (q // x.denominator) for x in row] for row in values],
        dtype=object,
    )
    return grid, q


def _as_fractions(raw, denominator):
    """Integers over a common denominator: a Fraction, or nested tuples of
    them with the shape of ``raw``."""
    if np.ndim(raw) == 0:
        return Fraction(int(raw), denominator)
    return tuple(_as_fractions(r, denominator) for r in raw)


# ---------------------------------------------------------------------------
# Elimination engine.
# ---------------------------------------------------------------------------

def _einsum_group(group, out_vars):
    """Contract the factors in ``group`` down to the axes in ``out_vars``."""
    # np.einsum takes at most 32 operands before NumPy 2 (64 since), and a
    # high-degree vertex can collect more factors than that: fold them in
    # chunks, each keeping all of its variables.
    while len(group) > _EINSUM_MAX_OPERANDS:
        head = group[:_EINSUM_MAX_OPERANDS]
        rest = group[_EINSUM_MAX_OPERANDS:]
        head_vars = sorted(set().union(*(f[0] for f in head)))
        group = [(tuple(head_vars), _einsum_group(head, head_vars))] + rest
    # a leading Ellipsis carries any batch axes of a stacked grid through
    labels = {}
    operands = []
    for fvars, arr in group:
        for w in fvars:
            labels.setdefault(w, len(labels))
        operands.extend([arr, [Ellipsis] + [labels[w] for w in fvars]])
    return np.einsum(*operands, [Ellipsis] + [labels[w] for w in out_vars])


def _eliminate(n_vertices, edges, a, n_steps, pins=None, keep=(),
               width_cap=None):
    """Bucket elimination over the weight matrix ``a``, in either dtype.

    ``a`` is float64, or an object array of Python ints (a scaled exact
    grid).  Float mode divides each step's sum by n; exact mode never
    divides, so its result is the unnormalized integer sum and the caller
    divides once by n^{#eliminated}.  A float ``a`` may also be a stack of
    grids, shape ``(..., n, n)``: every slice is contracted as the 2-D call
    would, and the batch axes lead the result.  Returns the result (a
    scalar, or one value per grid, when nothing is kept, else an array with
    one length-n axis per kept vertex, in ``keep`` order) and the number of
    eliminated vertices.
    """
    keep = tuple(keep)
    pins = _check_pins(n_vertices, n_steps, pins, keep)
    order = elimination_order(n_vertices, edges, pins, keep)
    if width_cap is not None and order.width > width_cap:
        raise WidthCapExceeded(
            f"induced width {order.width} exceeds cap {width_cap}"
        )
    exact = a.dtype == object
    batch = a.shape[:-2]

    const = np.ones(batch) if batch else 1
    factors = []
    for u, v in edges:
        pu, pv = pins.get(u), pins.get(v)
        if pu is not None and pv is not None:
            const = const * a[..., pu, pv]
        elif pu is not None:
            factors.append(((v,), a[..., pu, :]))
        elif pv is not None:
            factors.append(((u,), a[..., pv, :]))
        else:
            factors.append(((u, v), a))

    for v in order.vertices:
        group = [f for f in factors if v in f[0]]
        if not group:
            # isolated variable: a plain sum of n ones, which float mode
            # divides by n like every other step
            if exact:
                const *= n_steps
            continue
        factors = [f for f in factors if v not in f[0]]
        out_vars = sorted(set().union(*(f[0] for f in group)) - {v})
        result = _einsum_group(group, out_vars)
        if not exact:
            result = result / n_steps
        if out_vars:
            factors.append((tuple(out_vars), result))
        else:
            const = const * result

    if not keep:
        assert not factors
        return const, len(order.vertices)

    # every factor left spans kept vertices only; contract them straight
    # into keep order, then broadcast over the kept vertices none covers
    covered = set().union(*(f[0] for f in factors)) if factors else set()
    kept_covered = [k for k in keep if k in covered]
    partial = (_einsum_group(factors, kept_covered) if factors
               else np.ones((), dtype=a.dtype))
    if batch:
        const = np.reshape(const, batch + (1,) * len(kept_covered))
    partial = np.asarray(partial * const, dtype=a.dtype)
    shape = batch + tuple(n_steps if k in covered else 1 for k in keep)
    full = np.ones(batch + (n_steps,) * len(keep), dtype=a.dtype)
    return full * partial.reshape(shape), len(order.vertices)


def contract_exact(n_vertices, edges, values, n_steps, pins=None, keep=(),
                   width_cap=8):
    """Exact contraction over Fractions.

    Returns a Fraction when ``keep`` is empty, a tuple (vector) for one kept
    vertex, or a tuple of tuples (grid) for two.  Raises WidthCapExceeded when
    greedy min-fill needs an intermediate factor wider than ``width_cap + 1``.
    """
    a, q = _scaled_integer_grid(values)
    raw, eliminated = _eliminate(n_vertices, edges, a, n_steps, pins, keep,
                                 width_cap)
    return _as_fractions(raw, q ** len(edges) * n_steps ** eliminated)


def contract_float(n_vertices, edges, matrix, n_steps, pins=None, keep=()):
    """Float contraction via einsum; same semantics as contract_exact.

    A stack of grids, shape ``(..., n, n)``, gives an array of results with
    the batch axes in front, each equal to the call on its own grid.
    """
    a = np.asarray(matrix, dtype=float)
    raw, _ = _eliminate(n_vertices, edges, a, n_steps, pins, keep)
    return raw if keep or a.ndim > 2 else float(raw)


# ---------------------------------------------------------------------------
# Brute force (the independent oracle for the elimination engine).
# ---------------------------------------------------------------------------

def _bruteforce_guard(n_vertices, n_steps):
    if n_steps ** n_vertices > BRUTEFORCE_STATE_LIMIT:
        raise ValueError(
            f"brute force refused: {n_steps}^{n_vertices} assignments exceed "
            f"{BRUTEFORCE_STATE_LIMIT}"
        )


def _bruteforce(n_vertices, edges, a, n_steps, pins, keep):
    """Unnormalized sums of edge products over every assignment of the free
    vertices, in either dtype of ``a``: one sum per assignment of the kept
    vertices, shaped like ``_eliminate``'s result.  Also returns the number
    of free vertices."""
    keep = tuple(keep)
    pins = _check_pins(n_vertices, n_steps, pins, keep)
    _bruteforce_guard(n_vertices, n_steps)
    rows = a.tolist()
    free = [v for v in range(n_vertices) if v not in pins and v not in keep]

    def total(fixed):
        acc = 0
        for assign in itertools.product(range(n_steps), repeat=len(free)):
            phi = dict(fixed)
            phi.update(zip(free, assign))
            prod = 1
            for u, v in edges:
                prod *= rows[phi[u]][phi[v]]
                if prod == 0:
                    break
            acc += prod
        return acc

    sums = [
        total({**pins, **dict(zip(keep, xs))})
        for xs in itertools.product(range(n_steps), repeat=len(keep))
    ]
    raw = np.array(sums, dtype=a.dtype).reshape((n_steps,) * len(keep))
    return raw, len(free)


def bruteforce_exact(n_vertices, edges, values, n_steps, pins=None, keep=()):
    a, q = _scaled_integer_grid(values)
    raw, free = _bruteforce(n_vertices, edges, a, n_steps, pins, keep)
    return _as_fractions(raw, q ** len(edges) * n_steps ** free)


def bruteforce_float(n_vertices, edges, matrix, n_steps, pins=None, keep=()):
    raw, free = _bruteforce(n_vertices, edges, np.asarray(matrix, dtype=float),
                            n_steps, pins, keep)
    out = raw / float(n_steps) ** free
    return out if keep else float(out)
