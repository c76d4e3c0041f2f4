"""Variable-elimination contraction of pairwise step-weight products.

Evaluates sums of the form

    (1/n)^{#eliminated} * sum over assignments phi of free vertices of
        prod over edges (u, v) of  A[phi(u)][phi(v)]

where pinned vertices are fixed to given steps and kept vertices survive as
output axes.  One bucket-elimination engine runs on either of two arrays.
It eliminates the vertices in greedy min-fill order.  A vertex's bucket
first multiplies pairs of its factors, without summing, while a pair spans
fewer variables than the whole bucket; then one einsum sums the vertex out
of what is left.  The two arrays are:

* exact: Python ints in an object array, the integer grid of a
  ``StepGraphon`` (the only exact input) over its denominator q.  No step
  divides; the result is an integer sum and the entry point divides once
  by q^{#edges} * n^{#eliminated};
* float: float64, or a stack of float64 grids, with one 1/n folded into
  each elimination step, which keeps every intermediate value inside [0, 1].

Each contraction shape (vertex count, edge list, pinned-vertex set, kept
vertices) is compiled once, in the elimination-order cache, into one
``EliminationOrder``: the vertex sequence, and which grid rows feed which
operand with one einsum subscript string per step, pairwise products
included, in one pass that emits each min-fill vertex's bucket steps as it
picks the vertex.  The engine runs it in either dtype; the pinned steps are
read per call, so one order serves every pin target.  Steps that repeat an
earlier step of the same order (the same subscripts and kind, on operands
that hold the same values, as each copy of a gadget in a replaced graph
does) are evaluated once per call, and their result is handed to every
repeat.  Only ``_contract_integers`` (behind ``contract_exact`` and the
counting kernels) and ``contract_float`` run the engine, for the density
gradient too.

The brute-force oracle enumerates every assignment over the same two grids,
in numpy chunks of assignment indices, and forms each assignment's product
over every edge before it sums; it shares the input checks with the engine,
not the elimination.

One size guard bounds both: a call is refused with ``ValueError`` before any
work when the engine's largest step (n to its largest arity, times the
number of stacked grids) or the oracle's assignment count (n to the vertex
count) exceeds ``STATE_LIMIT`` index tuples.
"""

from __future__ import annotations

import itertools
import string
import sys
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import NamedTuple

import numpy as np

__all__ = [
    "EliminationOrder",
    "elimination_order",
    "contract_exact",
    "contract_float",
    "bruteforce_exact",
    "bruteforce_float",
    "STATE_LIMIT",
]

# Index tuples one engine step or the whole brute-force oracle may enumerate.
STATE_LIMIT = 10 ** 7
# Assignments the brute-force oracle enumerates per numpy chunk: enough to
# amortize numpy's per-call cost, few enough that the (edges, chunk) arrays
# it gathers stay at a few MB.
_BRUTEFORCE_CHUNK = 1 << 15
_EINSUM_MAX_OPERANDS = 32
# The letters np.einsum gives the integer labels 0, 1, ..., 51 of its
# sublist form, so a plan's subscript strings run the very same contraction.
_LABELS = string.ascii_uppercase + string.ascii_lowercase
# What a plan step does with its einsum result: keep it as a new operand
# without dividing (a chunk of an oversized bucket, or the product of two of
# a bucket's factors), divide it by n and keep it, or divide it by n and
# multiply it into the constant.
_FOLD, _FACTOR, _SCALAR = range(3)


class EliminationOrder(NamedTuple):
    """One contraction shape, compiled in the pass that picks its order:
    ``arities[i]`` counts the variables of the bucket in which
    ``vertices[i]`` is summed out (it and its current neighbors, a vertex
    with a loop counted twice), so the largest arity is ``width + 1``; a
    pairwise product inside a bucket spans fewer.

    Operand slots are numbered in creation order: first one per edge with
    an unpinned endpoint, then one per step whose result stays an operand
    (every step but a ``_SCALAR`` one).  The first ``edge_slots`` slots hold
    the grid, except that each ``(s, p, column)`` of ``rows`` puts in slot s
    the row of the grid at pinned vertex p's step, or its column when p is
    the edge's second endpoint.  ``steps`` are ``(subscripts, kind, source,
    last, *slots)``, flat to keep a cached order small; a bucket's ``_FOLD``
    steps, its chunks and then its pairwise products, come before the step
    that sums its vertex out.  ``source`` is the index of the first step
    with the same subscripts and kind on operands that hold the same values:
    a step is evaluated only when it is its own source, and a later step of
    its class takes its result.  ``last`` marks the last step of a class,
    after which that result is released.  ``tail`` is None when nothing is
    kept, else ``(subscripts, covered, *slots)``: the einsum of what is left
    (None if nothing is) into the kept vertices that ``covered`` marks.
    """

    vertices: tuple
    arities: tuple
    edge_slots: int
    rows: tuple
    pinned_edges: tuple
    steps: tuple
    isolated: int
    tail: tuple | None

    @property
    def width(self) -> int:
        return max(self.arities, default=1) - 1


def _subscripts(scopes, out_vars):
    """The einsum subscripts contracting factors over ``scopes`` down to
    ``out_vars``: labels by first appearance, and a leading ellipsis that
    carries any batch axes of a stacked grid through."""
    labels, parts = {}, []
    for scope in scopes:
        parts.append(",...")
        for w in scope:
            label = labels.get(w)
            if label is None:
                label = labels[w] = _LABELS[len(labels)]
            parts.append(label)
    parts.append("->...")
    parts += [labels[w] for w in out_vars]
    return sys.intern("".join(parts)[1:])


@lru_cache(maxsize=4096)
def _elimination_order_cached(n_vertices, edges, pins, keep):
    """The min-fill order of one contraction shape, compiled in the same
    pass that picks it: each picked vertex's bucket steps are emitted from
    the live factors, over the vertex's current neighbors, and each step
    is matched, by integer operand signatures, against the steps before
    it."""
    pinset = set(pins)
    adj = {v: set() for v in range(n_vertices) if v not in pinset}
    # ``sigs`` gives each slot an integer that two slots share only when
    # they hold equal values: -1 for the grid, -2 - 2p - column for pinned
    # vertex p's row or column (whatever its pin target), and for a step's
    # result the index of the first step with the same subscripts, kind and
    # operand signatures.
    rows, pinned_edges, scopes, sigs = [], [], [], []
    for edge in edges:
        u, v = edge
        if u in pinset and v in pinset:
            pinned_edges.append(edge)
            continue
        if u in pinset:
            rows.append((len(scopes), u, False))
            edge, sig = (v,), -2 - 2 * u
        elif v in pinset:
            rows.append((len(scopes), v, True))
            edge, sig = (u,), -3 - 2 * v
        else:
            adj[u].add(v)
            adj[v].add(u)
            sig = -1
        scopes.append(edge)
        sigs.append(sig)
    edge_slots = len(scopes)
    steps, first = [], {}

    def emit(group, out_vars, kind):
        # append a step contracting ``group`` down to ``out_vars``; a step
        # that repeats an earlier one takes that step's index as its source
        subscripts = _subscripts([scopes[s] for s in group], out_vars)
        key = (subscripts, kind, *[sigs[s] for s in group])
        source = first.setdefault(key, len(steps))
        steps.append((subscripts, kind, source, *group))
        if kind != _SCALAR:
            scopes.append(out_vars)
            sigs.append(source)

    def fill(v):
        # pairs of distinct neighbors that are not adjacent; past two
        # neighbors, each pair is counted once from either end (adjacency is
        # symmetric)
        nbrs = adj[v]
        if len(nbrs) < 3:
            if len(nbrs) < 2:
                return 0
            a, b = nbrs
            return int(b not in adj[a])
        return sum(len(nbrs - adj[a]) - (a not in adj[a]) for a in nbrs) // 2

    def product(group):
        # a _FOLD step multiplying ``group`` without summing, keeping every
        # variable; returns the slot of its result
        emit(group, tuple(sorted({w for s in group for w in scopes[s]})),
             _FOLD)
        return len(scopes) - 1

    def fold(group):
        # np.einsum takes at most 32 operands before NumPy 2 (64 since), and
        # a high-degree vertex can collect more factors than that: fold them
        # in chunks first.
        while len(group) > _EINSUM_MAX_OPERANDS:
            group = ([product(group[:_EINSUM_MAX_OPERANDS])]
                     + group[_EINSUM_MAX_OPERANDS:])
        return group

    def pair_up(group, bucket_size):
        # Multiply the two factors of smallest joint scope (the earliest
        # such pair) into one while that product spans fewer variables than
        # the whole bucket: it enumerates fewer index tuples than the
        # bucket's einsum, which then multiplies one factor fewer per tuple.
        # A product as wide as the bucket saves nothing.
        while len(group) > 2:
            size, i, j = min(
                (len(set(scopes[group[i]]).union(scopes[group[j]])), i, j)
                for i, j in itertools.combinations(range(len(group)), 2))
            if size >= bucket_size:
                break
            group[i] = product([group[i], group[j]])
            del group[j]
        return group

    # ``live`` lists the slots not yet consumed, in the order the factors
    # were made; a bucket takes its factors in that order.  Their scopes
    # cover the current adjacency, so a bucket spans v and its neighbors.
    vertices, arities, isolated = [], [], 0
    live = list(range(edge_slots))
    eliminable = set(adj) - set(keep)
    while eliminable:
        v = min(eliminable, key=lambda w: (fill(w), len(adj[w]), w))
        eliminable.remove(v)
        vertices.append(v)
        # a loop leaves v among its own neighbors: the arity counts it
        arities.append(len(adj[v]) + 1)
        nbrs = adj.pop(v) - {v}
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(v)
        group = [s for s in live if v in scopes[s]]
        if not group:
            isolated += 1
            continue
        live = [s for s in live if v not in scopes[s]]
        out_vars = tuple(sorted(nbrs))
        group = pair_up(fold(group), len(out_vars) + 1)
        emit(group, out_vars, _FACTOR if out_vars else _SCALAR)
        if out_vars:
            live.append(len(scopes) - 1)

    tail = None
    if keep:
        # every factor left spans kept vertices only
        covered = {w for s in live for w in scopes[s]}
        kept_covered = tuple(k for k in keep if k in covered)
        live = fold(live)
        subscripts = (_subscripts([scopes[s] for s in live], kept_covered)
                      if live else None)
        tail = (subscripts, tuple(k in covered for k in keep), *live)
    else:
        assert not live
    # the last step of each class releases the result its source saved
    last = {step[2]: k for k, step in enumerate(steps)}
    steps = tuple((subscripts, kind, source, last[source] == k, *group)
                  for k, (subscripts, kind, source, *group)
                  in enumerate(steps))
    return EliminationOrder(tuple(vertices), tuple(arities), edge_slots,
                            tuple(rows), tuple(pinned_edges), steps,
                            isolated, tail)


def elimination_order(n_vertices, edges, pins=(), keep=()) -> EliminationOrder:
    """Greedy min-fill order, min-degree then min-index tie-break.

    Pinned vertices are dropped up front (their edges become unary lookups);
    kept vertices participate in the interaction graph but are never
    eliminated.  ``pins`` is read as the ``contract_*`` entry points read
    it, a dict or (vertex, step) pairs, and pins and kept vertices are
    checked as they check them; the pin targets do not shape the order.
    """
    keep = tuple(keep)
    pins = _check_vertices(n_vertices, pins, keep)
    return _elimination_order_cached(
        n_vertices, tuple(edges), tuple(sorted(pins)), keep
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


def _check_vertices(n_vertices, pins, keep):
    """Validate the pinned and the kept vertices; returns the pin map."""
    pins = pins if isinstance(pins, dict) else _normalize_pins(pins)
    for v in pins:
        if not (0 <= v < n_vertices):
            raise ValueError(f"pinned vertex {v} out of range")
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


def _check_inputs(a, n_steps, pins, stack=False):
    """Validate the grid and the pin targets of the pin map ``pins``.  The
    grid's last two axes must be ``n_steps`` x ``n_steps``, and only a
    ``stack`` may lead with batch axes."""
    if a.shape[-2:] != (n_steps, n_steps) or a.ndim > 2 and not stack:
        raise ValueError(f"grid of shape {a.shape} is not "
                         f"{n_steps} x {n_steps}")
    for s in pins.values():
        if not (0 <= s < n_steps):
            raise ValueError(f"pin target step {s} out of range")


def _integer_grid(w):
    """The integer grid and the denominator q of the ``StepGraphon`` w."""
    from .stepgraphon import StepGraphon  # that module imports this one
    if not isinstance(w, StepGraphon):
        raise ValueError("exact contraction takes a StepGraphon, not "
                         f"{type(w).__name__}")
    return w.integer_grid, w.q


def _as_fractions(raw, denominator):
    """Integers over a common denominator: a Fraction, or nested tuples of
    them with the shape of ``raw``."""
    def convert(x):
        if isinstance(x, list):
            return tuple(map(convert, x))
        return Fraction(x, denominator)
    return convert(np.asarray(raw).tolist())


# ---------------------------------------------------------------------------
# Elimination engine.
# ---------------------------------------------------------------------------

def _eliminate(n_vertices, edges, a, n_steps, pins=None, keep=()):
    """Bucket elimination over the weight matrix ``a``, in either dtype.

    ``a`` is float64, or an object array of Python ints (a graphon's
    integer grid).  Float mode divides each step's sum by n; exact mode never
    divides, so its result is the unnormalized integer sum and the caller
    divides once by n^{#eliminated}.  A float ``a`` may also be a stack of
    grids, shape ``(..., n, n)``: every slice is contracted as the 2-D call
    would, and the batch axes lead the result.  Returns the result (a
    scalar, or one value per grid, when nothing is kept, else an array with
    one length-n axis per kept vertex, in ``keep`` order) and the number of
    eliminated vertices.  Raises ``ValueError`` when the largest step would
    enumerate more than ``STATE_LIMIT`` index tuples over the whole stack.
    """
    keep = tuple(keep)
    exact = a.dtype == object
    pins = _normalize_pins(pins)
    _check_inputs(a, n_steps, pins, stack=not exact)
    # checks the pinned and the kept vertices
    order = elimination_order(n_vertices, edges, pins, keep)
    batch = a.shape[:-2]
    states = n_steps ** max(order.arities, default=0) * prod(batch)
    if states > STATE_LIMIT:
        raise ValueError(
            f"contraction refused: its largest step enumerates {states} "
            f"index tuples, above {STATE_LIMIT}"
        )

    const = np.ones(batch) if batch else 1
    for u, v in order.pinned_edges:
        const = const * a[..., pins[u], pins[v]]
    if exact and order.isolated:
        # an isolated variable is a plain sum of n ones, which float mode
        # divides by n like every other step
        const = const * n_steps ** order.isolated
    slots, at = [a] * order.edge_slots, None
    for s, p, column in order.rows:
        if column and at is None:
            # the transpose laid out like ``a``: a column of ``a`` then
            # feeds einsum exactly as a row does
            at = np.ascontiguousarray(np.swapaxes(a, -1, -2))
        slots[s] = (at if column else a)[..., pins[p], :]
    saved = {}
    for k, (subscripts, kind, source, last, *operands) in \
            enumerate(order.steps):
        if source == k:
            result = np.einsum(subscripts, *[slots[i] for i in operands])
            if kind != _FOLD and not exact:
                result = result / n_steps
            if not last:
                saved[k] = result
        else:
            # the same einsum on equal operands: its source's result
            result = saved.pop(source) if last else saved[source]
        for i in operands:
            slots[i] = None
        if kind == _SCALAR:
            const = const * result
        else:
            slots.append(result)

    if not keep:
        return const, len(order.vertices)

    # contract what is left straight into keep order, then broadcast over
    # the kept vertices no factor covers
    subscripts, covered, *operands = order.tail
    partial = (np.einsum(subscripts, *[slots[i] for i in operands])
               if operands else np.ones((), dtype=a.dtype))
    if batch:
        const = np.reshape(const, batch + (1,) * sum(covered))
    partial = np.asarray(partial * const, dtype=a.dtype)
    shape = batch + tuple(n_steps if c else 1 for c in covered)
    full = np.ones(batch + (n_steps,) * len(keep), dtype=a.dtype)
    return full * partial.reshape(shape), len(order.vertices)


def _contract_integers(n_vertices, edges, values, n_steps, pins=None,
                       keep=()):
    """The exact engine run: the integer result of ``_eliminate`` on the
    integer grid of the ``StepGraphon`` ``values``, and its denominator
    q^{#edges} * n^{#eliminated}."""
    a, q = _integer_grid(values)
    raw, eliminated = _eliminate(n_vertices, edges, a, n_steps, pins, keep)
    return raw, q ** len(edges) * n_steps ** eliminated


def contract_exact(n_vertices, edges, values, n_steps, pins=None, keep=()):
    """Exact contraction of a ``StepGraphon``, read on its integer grid.

    Returns a Fraction when ``keep`` is empty, a tuple (vector) for one kept
    vertex, or a tuple of tuples (grid) for two.
    """
    return _as_fractions(*_contract_integers(n_vertices, edges, values,
                                             n_steps, pins, keep))


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

def _bruteforce(n_vertices, edges, a, n_steps, pins, keep):
    """Unnormalized sums of edge products over every assignment of the free
    vertices, in either dtype of ``a``: one sum per assignment of the kept
    vertices, shaped like ``_eliminate``'s result.  Also returns the number
    of free vertices.

    The assignments are enumerated in chunks of at most
    ``_BRUTEFORCE_CHUNK`` indices: free vertex i takes digit i of an index
    written in base n, every edge's weight is gathered for every assignment
    of the chunk, and each assignment's product over all edges is formed
    before the chunk is summed.
    """
    keep = tuple(keep)
    pins = _normalize_pins(pins)
    _check_inputs(a, n_steps, pins)
    _check_vertices(n_vertices, pins, keep)
    if n_steps ** n_vertices > STATE_LIMIT:
        raise ValueError(
            f"brute force refused: {n_steps}^{n_vertices} assignments exceed "
            f"{STATE_LIMIT}"
        )
    free = [v for v in range(n_vertices) if v not in pins and v not in keep]
    states = n_steps ** len(free)
    weights = a.reshape(-1)
    us, vs = np.array(edges, dtype=np.intp).reshape(-1, 2).T

    def total(fixed):
        if not edges:
            return states
        acc = 0
        for start in range(0, states, _BRUTEFORCE_CHUNK):
            flat = np.arange(start, min(start + _BRUTEFORCE_CHUNK, states))
            phi = np.empty((n_vertices, flat.size), dtype=np.intp)
            for v, s in fixed.items():
                phi[v] = s
            for i, v in enumerate(free):
                phi[v] = flat // n_steps ** i % n_steps
            products = np.multiply.reduce(
                weights[phi[us] * n_steps + phi[vs]], axis=0)
            acc += products.sum()
        return acc

    sums = [
        total({**pins, **dict(zip(keep, xs))})
        for xs in itertools.product(range(n_steps), repeat=len(keep))
    ]
    raw = np.array(sums, dtype=a.dtype).reshape((n_steps,) * len(keep))
    return raw, len(free)


def bruteforce_exact(n_vertices, edges, values, n_steps, pins=None, keep=()):
    a, q = _integer_grid(values)
    raw, free = _bruteforce(n_vertices, edges, a, n_steps, pins, keep)
    return _as_fractions(raw, q ** len(edges) * n_steps ** free)


def bruteforce_float(n_vertices, edges, matrix, n_steps, pins=None, keep=()):
    raw, free = _bruteforce(n_vertices, edges, np.asarray(matrix, dtype=float),
                            n_steps, pins, keep)
    out = raw / float(n_steps) ** free
    return out if keep else float(out)
