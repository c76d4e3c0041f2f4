"""Variable-elimination contraction of pairwise step-weight products.

Evaluates sums of the form

    (1/n)^{#eliminated} * sum over assignments phi of free vertices of
        prod over edges (u, v) of  A[phi(u)][phi(v)]

where pinned vertices are fixed to given steps and kept vertices survive as
output axes.  One bucket-elimination engine runs on either of two arrays.
It eliminates the vertices in greedy min-fill order, with each vertex's
fill updated as vertices go rather than recounted at every pick.  A
vertex's bucket first multiplies pairs of its factors, without summing,
while a pair spans fewer variables than the whole bucket; then one step
sums the vertex out of what is left.  The two arrays are:

* exact: the integer grid of a ``StepGraphon`` (the only exact input)
  over its denominator q.  No step divides; the result is an integer sum
  and the entry point divides once by q^{#edges} * n^{#vertices that a
  step sums out}.  Each step picks its own dtype from a bound on its
  entries, n^{#vertices it sums out} times its operands' bounds (M, the
  largest grid entry, for the grid and its pinned reads): int64 below
  2^63, else Python ints in an object array.  The grid's entries are
  nonnegative, so no product or partial sum passes the bound, and the
  int64 steps are exact.  Results leave as Python ints;
* float: float64, or a stack of float64 grids, with one 1/n folded into
  each elimination step, which keeps every intermediate value inside [0, 1].

Each contraction shape (vertex count, edge list, pinned-vertex set, kept
vertices) is compiled once, in the elimination-order cache, into one
``EliminationOrder``: the vertex sequence, one table of grid reads (the
grid row, column or entry that each edge with a pinned end reads, and the
transposed grid of each edge that a matmul reads reversed) and one list
of steps, pairwise products included, emitted as each min-fill vertex is
picked, with the callable that computes each, which the engine calls on
the step's operands.  A step runs as ``np.einsum`` on its subscripts
unless its shape is one of three: a matrix product of two factors over
two variables each runs as ``np.matmul``, a product of two factors over
the same two variables as ``np.multiply``, and a last step that keeps one
factor's variables, in its order or reversed, is that factor or its
``swapaxes`` view.  Both modes run the same kernels, so an exact result
is the same integer whichever computes it; a float result may differ
from the einsum's in its last bits.  The steps read one list of operand
slots: one per edge, one all-ones vector per kept vertex and
one per step.  With vertices kept, the last step multiplies what is
left, and the ones of each kept vertex that nothing left spans, into
them, so its result spans every kept vertex.  The engine runs it in
either mode; the pin targets are read per call, so one order serves
every pin target.  Steps that repeat an earlier step of the same order
(the same subscripts and kind, on operands that hold the same values, as
each copy of a gadget in a replaced graph does) are evaluated once per
call, and their result is handed to every repeat.  Only
``_contract_integers`` (behind ``contract_exact`` and the counting
kernels) and ``contract_float`` run the engine, for the density gradient
too.

The brute-force oracle enumerates every assignment over the same two grids,
in numpy chunks of assignment indices, and forms each assignment's product
over every edge before it sums; it shares the input checks with the engine,
not the elimination.  In exact mode it reads the graphon's one integer grid
and M, as the engine does.  When M, the edge count E and the
free-assignment count S bound every sum by S * M^E < 2^63, it gathers and
multiplies in int64 and adds each chunk's sum to a Python int; otherwise
it casts the grid to Python ints and multiplies those.

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
from functools import lru_cache, partial
from math import prod
from typing import NamedTuple

import numpy as np

# ``sidlab/__init__.py`` imports ``stepgraphon`` first, which imports this
# module: this binds it still initializing, so read its names at call time.
from . import stepgraphon
from .graphs import _index, _integer

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
# What a plan step does with its result: keep it as a new operand without
# dividing (a chunk of an oversized bucket, or the product of two of a
# bucket's factors), divide it by n and keep it, or divide it by n and
# multiply it into the constant.
_FOLD, _FACTOR, _SCALAR = range(3)


class EliminationOrder(NamedTuple):
    """One contraction shape, compiled in the pass that picks its order:
    ``arities[i]`` counts the variables of the bucket in which
    ``vertices[i]`` is summed out (it and its current neighbors, a vertex
    with a loop counted twice), so the largest arity is ``width + 1``; a
    pairwise product inside a bucket spans fewer.

    Operand slots are numbered in creation order: first one per edge, then
    one all-ones vector per kept vertex, then one per step.  An edge's slot
    holds the grid, except that each ``(s, row, column)`` of ``pinned``
    names the pinned vertices at the ends of edge s (None at a free end):
    slot s holds the grid row at ``row``'s step or the column at
    ``column``'s, with both ends pinned the grid entry multiplies into
    the constant, as a ``_SCALAR`` step's result does, and with neither
    (an edge that a matmul reads reversed) it holds the grid's transpose.  ``steps`` are
    ``(subscripts, kind, source, last, *slots)``, flat to keep a cached
    order small; a bucket's ``_FOLD`` steps, its chunks and then its
    pairwise products, come before the step that sums its vertex out.
    ``source`` is the index of the first step with the same subscripts and
    kind on operands that hold the same values: a step is evaluated only
    when it is its own source, and a later step of its class takes its
    result.  ``last`` marks the last step of a class, after which that
    result is released.  With vertices kept, the last step multiplies the
    factors left, and the ones of each kept vertex that none of them spans,
    into all the kept vertices, in keep order.  A step's kind gives the
    number of vertices it sums out: none for a ``_FOLD`` step, which keeps
    every variable, and one for any other, which sums out the vertex of its
    bucket (a bucket spans only the vertex and its neighbors).  The exact
    engine bounds a step's entries by n to that number times its operands'
    bounds.  ``sums_out`` is the total: an eliminated vertex that no factor
    spans has none.  ``kernels[k]`` is the callable that computes step k
    from its operands, as ``_kernel`` picks it from the operand scopes and
    the output that the step's subscripts spell; steps that spell the
    same share one.
    """

    vertices: tuple
    arities: tuple
    pinned: tuple
    steps: tuple
    sums_out: int
    kernels: tuple

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
def _kernel(subscripts, kind):
    """How a step of ``kind`` computes its result from the scopes and the
    output that its ``subscripts`` spell (one label per variable), as
    ``(kernel, flip)``: ``kernel`` is the callable that takes the step's
    operands and returns its result, and it is

    * the factor itself or its ``swapaxes(-1, -2)`` view, for a ``_FOLD``
      of one factor whose scope is the output or its reverse;
    * ``np.multiply``, for a ``_FOLD`` of two factors over the two
      variables of the output, each read in output order;
    * ``np.matmul``, for a step that sums out the one variable v shared by
      two factors over two distinct variables each, keeping the other two,
      (x, y) in output order: the factor over x read as (x, v) times the
      other read as (v, y);
    * ``partial(np.einsum, subscripts)``, for any other step.

    An operand whose scope runs the other way is read as its swapped view.
    When every operand would be, each is read as it is instead, a matmul's
    in the other order, and the result is swapped: the same product, with
    no operand read against its layout.  ``flip`` is None unless a matmul
    reads one operand swapped: then it is that operand's position and the
    subscripts with its scope reversed, whose kernel reads it as stored.
    The subscripts and kind are all a step's kernel depends on, so the
    kernel is cached by them, and steps that spell the same share it.
    """
    operands, out = subscripts.replace("...", "").split("->")
    scopes = operands.split(",")
    if kind == _FOLD and scopes == [out]:
        return (lambda x: x), None
    if len(out) != 2 or not all(
            len(scope) == 2 and scope[0] != scope[1] for scope in scopes):
        return partial(np.einsum, subscripts), None
    if kind == _FOLD and len(scopes) <= 2 and all(
            set(scope) == set(out) for scope in scopes):
        op = None if len(scopes) == 1 else np.multiply
        wants = [(i, out) for i in range(len(scopes))]
    elif kind != _FOLD and len(scopes) == 2:
        shared = set(scopes[0]) & set(scopes[1])
        if len(shared) != 1 or set(out) != set(scopes[0]) ^ set(scopes[1]):
            return partial(np.einsum, subscripts), None
        (v,), (x, y) = shared, out
        first = 0 if x in scopes[0] else 1
        op, wants = np.matmul, [(first, x + v), (1 - first, v + y)]
    else:
        return partial(np.einsum, subscripts), None
    reads = [(i, scopes[i] != want) for i, want in wants]
    if all(swapped for _, swapped in reads):
        if op is None:
            return (lambda x: x.swapaxes(-1, -2)), None
        (j, _), (i, _) = reads
        return (lambda *x: op(x[i], x[j]).swapaxes(-1, -2)), None
    (i, swap_i), (j, swap_j) = reads
    if not (swap_i or swap_j):
        return (op if i == 0 else lambda x, y: op(y, x)), None
    k = i if swap_i else j
    scopes[k] = scopes[k][::-1]
    flip = (k, _subscripts(scopes, out)) if op is np.matmul else None
    if swap_i:
        return (lambda *x: op(x[i].swapaxes(-1, -2), x[j])), flip
    return (lambda *x: op(x[i], x[j].swapaxes(-1, -2))), flip


@lru_cache(maxsize=4096)
def _elimination_order_cached(n_vertices, edges, pins, keep):
    """The min-fill order of one contraction shape, compiled in the same
    pass that picks it: each picked vertex's bucket steps are emitted from
    the live factors, over the vertex's current neighbors, and each step
    is matched, by operand signatures, against the steps before it.

    The scores that pick the vertices are updated, not recounted: after a
    pick only its neighbors are rescored in full.  Every other vertex was
    not adjacent to the picked one, so its neighbor set stands and its fill
    moves only by the new fill edges that join two of its neighbors, one
    down for each."""
    _check_edges(n_vertices, edges)
    pinset = set(pins)
    adj = {v: set() for v in range(n_vertices) if v not in pinset}
    # ``sigs`` gives each slot a signature that two slots share only when
    # they hold equal values: -1 for the grid, a pinned read's (row,
    # column) pinned vertices (whatever their pin targets), None for a kept
    # vertex's ones, and for a step's result the index of the first step
    # with the same subscripts, kind and operand signatures.
    pinned, scopes, sigs = [], [], []
    for u, v in edges:
        scope = tuple(w for w in (u, v) if w not in pinset)
        if len(scope) < 2:
            read = (u if u in pinset else None, v if v in pinset else None)
            pinned.append((len(scopes), *read))
            sigs.append(read)
        else:
            adj[u].add(v)
            adj[v].add(u)
            sigs.append(-1)
        scopes.append(scope)
    steps, kernels, first = [], [], {}

    def emit(group, out_vars, kind):
        # append a step contracting ``group`` down to ``out_vars``, and its
        # kernel; a step that repeats an earlier one takes that step's
        # index as its source
        subscripts = _subscripts([scopes[s] for s in group], out_vars)
        kernel, flip = _kernel(subscripts, kind)
        if flip is not None and sigs[group[flip[0]]] == -1:
            # a matmul would read this edge's grid swapped: the edge is
            # read reversed instead, on the grid's transpose as stored
            s, subscripts = group[flip[0]], flip[1]
            scopes[s], sigs[s] = scopes[s][::-1], (None, None)
            pinned.append((s, None, None))
            kernel, _ = _kernel(subscripts, kind)
        key = (subscripts, kind, *[sigs[s] for s in group])
        source = first.setdefault(key, len(steps))
        steps.append((subscripts, kind, source, *group))
        kernels.append(kernel)
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
        # bucket's last step, which then multiplies one factor fewer per
        # tuple.  A product as wide as the bucket saves nothing.
        while len(group) > 2:
            size, i, j = min(
                (len(set(scopes[group[i]]).union(scopes[group[j]])), i, j)
                for i, j in itertools.combinations(range(len(group)), 2))
            if size >= bucket_size:
                break
            group[i] = product([group[i], group[j]])
            del group[j]
        return group

    # ``score`` holds each eliminable vertex's (fill, degree, vertex), and
    # the pick is its least value.  After v goes, a vertex w outside its
    # neighbors N loses one fill for each new fill edge {a, b} (both in N)
    # with w in adj[a] & adj[b]; N is rescored in full.
    score = {w: (fill(w), len(adj[w]), w) for w in adj if w not in keep}
    # ``factors[w]`` holds the slots not yet consumed whose scope spans w,
    # in the order the factors were made; a bucket takes its factors in that
    # order.  Their scopes cover the current adjacency, so a bucket spans v
    # and its neighbors.
    factors = {w: {} for w in adj}
    for s, scope in enumerate(scopes):
        for w in scope:
            factors[w][s] = None
    # one all-ones operand per kept vertex, for the last step only
    scopes += [(k,) for k in keep]
    sigs += [None] * len(keep)
    vertices, arities = [], []
    while score:
        v = min(score.values())[2]
        del score[v]
        vertices.append(v)
        # a loop leaves v among its own neighbors: the arity counts it
        arities.append(len(adj[v]) + 1)
        nbrs = adj.pop(v) - {v}
        for a, b in itertools.combinations(nbrs, 2):
            if b not in adj[a]:
                for w in adj[a] & adj[b]:
                    if w in score:
                        f, degree, _ = score[w]
                        score[w] = (f - 1, degree, w)
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(v)
        for a in nbrs:
            if a in score:
                score[a] = (fill(a), len(adj[a]), a)
        group = list(factors.pop(v))
        if not group:
            continue
        for s in group:
            for w in scopes[s]:
                if w != v:
                    factors[w].pop(s, None)
        out_vars = tuple(sorted(nbrs))
        group = pair_up(fold(group), len(out_vars) + 1)
        emit(group, out_vars, _FACTOR if out_vars else _SCALAR)
        for w in out_vars:
            factors[w][len(scopes) - 1] = None

    # every factor left spans kept vertices only: the last step multiplies
    # them, and the ones of each kept vertex none spans, into ``keep``
    live = sorted({s for slots in factors.values() for s in slots})
    assert keep or not live
    if keep:
        spanned = {w for s in live for w in scopes[s]}
        live += [len(edges) + i for i, k in enumerate(keep)
                 if k not in spanned]
        emit(fold(live), keep, _FOLD)
    # the last step of each class releases the result its source saved
    last = {step[2]: k for k, step in enumerate(steps)}
    steps = tuple((subscripts, kind, source, last[source] == k, *group)
                  for k, (subscripts, kind, source, *group)
                  in enumerate(steps))
    return EliminationOrder(tuple(vertices), tuple(arities), tuple(pinned),
                            steps, sum(step[1] != _FOLD for step in steps),
                            tuple(kernels))


def elimination_order(n_vertices, edges, pins=(), keep=()) -> EliminationOrder:
    """Greedy min-fill order, min-degree then min-index tie-break.

    Pinned vertices are dropped up front (their edges become pinned reads);
    kept vertices participate in the interaction graph but are never
    eliminated.  ``pins`` is read as the ``contract_*`` entry points read
    it, a dict or (vertex, step) pairs, and the vertex count, pins and kept
    vertices are checked as they check them (the cache is keyed by the
    count as a plain int); the pin targets do not shape the order.
    An endpoint that is not an integer in ``range(n_vertices)`` is refused
    on every call: one that is not a plain int (``1.0``, ``True``, a numpy
    integer) is checked before the cache is read, since it would find the
    order of an equal list of ints, and the range of plain ints is checked
    when the edge list is compiled.  An edge list that passes is compiled
    as plain ints.
    """
    keep = tuple(keep)
    n_vertices, pins = _check_vertices(n_vertices, pins, keep)
    edges = tuple(edges)
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            _check_edges(n_vertices, edges)
            edges = tuple((int(u), int(v)) for u, v in edges)
            break
    return _elimination_order_cached(
        n_vertices, edges, tuple(sorted(pins)), keep
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


def _check_edges(n_vertices, edges):
    """Validate every endpoint of the edge list."""
    for u, v in edges:
        _index(u, "endpoint", n_vertices)
        _index(v, "endpoint", n_vertices)


def _check_vertices(n_vertices, pins, keep):
    """Validate the vertex count, the pinned and the kept vertices; returns
    the count as a plain int and the pin map."""
    n_vertices = _integer(n_vertices, "vertex count", 0)
    pins = pins if isinstance(pins, dict) else _normalize_pins(pins)
    for v in pins:
        _index(v, "pinned vertex", n_vertices)
    if len(keep) > 2:
        raise ValueError("at most two kept vertices supported")
    for v in keep:
        _index(v, "kept vertex", n_vertices)
    if len(set(keep)) != len(keep):
        raise ValueError(f"kept vertices {keep} repeat a vertex")
    if set(pins) & set(keep):
        raise ValueError("a vertex cannot be both pinned and kept")
    return n_vertices, pins


def _check_inputs(a, n_steps, pins, stack=False):
    """Validate the step count, the grid and the pin targets of the pin map
    ``pins``; returns the step count as a plain int.  The count must be an
    integer of at least 1, the grid's last two axes ``n_steps`` x
    ``n_steps``, and only a ``stack`` may lead with batch axes."""
    n_steps = _integer(n_steps, "step count", 1)
    if a.shape[-2:] != (n_steps, n_steps) or a.ndim > 2 and not stack:
        raise ValueError(f"grid of shape {a.shape} is not "
                         f"{n_steps} x {n_steps}")
    for s in pins.values():
        _index(s, "pin target step", n_steps)
    return n_steps


def _graphon(w):
    """``w``, refused unless it is a ``StepGraphon``, the only exact
    input."""
    if not isinstance(w, stepgraphon.StepGraphon):
        raise ValueError("exact contraction takes a StepGraphon, not "
                         f"{type(w).__name__}")
    return w


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

def _eliminate(n_vertices, edges, a, n_steps, pins=None, keep=(), top=None):
    """Bucket elimination over the weight matrix ``a``, exact or float.

    Float mode (``top`` None): ``a`` is float64, or a stack of grids, shape
    ``(..., n, n)``, whose every slice is contracted as the 2-D call would,
    with the batch axes leading the result; each step's sum is divided by
    n.  Exact mode: ``a`` is a graphon's integer grid with ``top`` its
    largest entry M, as int64 when M < 2^63, else as Python ints; no step
    divides, so the result is the unnormalized integer sum and the caller
    divides once by n to the order's ``sums_out``.

    Exact mode picks each step's dtype.  Every operand slot carries a bound
    on its entries: M for the grid and its pinned reads, 1 for the ones of
    a kept vertex, and for a step's result its operands' bounds times n if
    it sums a vertex out (any kind but ``_FOLD``).  The entries are
    nonnegative, so no product or partial sum of the step exceeds that
    bound: below 2^63 the step runs on int64 operands, else on Python ints,
    each int64 operand cast with ``astype(object)``.  With M >= 1 a bound
    is at least each operand's, and with M = 0 none reaches 2^63, so an
    object slot only ever feeds object steps.  Constants (an entry pinned
    at both ends, a ``_SCALAR`` result) are Python ints, and a kept result
    leaves as an object array.

    Returns the result (a scalar, or one value per grid, when nothing is
    kept, else an array with one length-n axis per kept vertex, in ``keep``
    order) and n to the order's ``sums_out``.  Raises ``ValueError`` when
    the largest step would enumerate more than ``STATE_LIMIT`` index tuples
    over the whole stack.
    """
    keep = tuple(keep)
    exact = top is not None
    pins = _normalize_pins(pins)
    n_steps = _check_inputs(a, n_steps, pins, stack=not exact)
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
    slots, at = [a] * len(edges), None
    bounds = [top] * len(edges) + [1] * len(keep)
    if keep:
        ones = np.ones(n_steps, dtype=np.int64 if exact else a.dtype)
        slots += [ones] * len(keep)
    for s, row, column in order.pinned:
        if row is not None and column is not None:
            entry = a[..., pins[row], pins[column]]
            const = const * (int(entry) if exact else entry)
        elif row is not None:
            slots[s] = a[..., pins[row], :]
        else:
            if at is None:
                # the transpose laid out like ``a`` (in exact mode the
                # symmetric grid itself): a column of ``a`` then feeds a
                # step exactly as a row does
                at = a if exact else np.ascontiguousarray(a.swapaxes(-1, -2))
            slots[s] = at if column is None else at[..., pins[column], :]
    saved = {}
    for k, ((_, kind, source, last, *operands), kernel) in \
            enumerate(zip(order.steps, order.kernels)):
        if exact:
            bound = 1 if kind == _FOLD else n_steps
            for i in operands:
                bound *= bounds[i]
            bounds.append(bound)
        if source == k:
            args = [slots[i] for i in operands]
            if exact and bound >= 1 << 63:
                args = [x.astype(object, copy=False) for x in args]
            result = kernel(*args)
            if kind != _FOLD and not exact:
                # a new array, which no operand or grid shares
                result /= n_steps
            if not last:
                saved[k] = result
        else:
            # the same step on equal operands: its source's result
            result = saved.pop(source) if last else saved[source]
        for i in operands:
            slots[i] = None
        slots.append(result)
        if kind == _SCALAR:
            const = const * (int(result) if exact else result)

    scale = n_steps ** order.sums_out
    if not keep:
        return const, scale
    # the last step spans every kept vertex
    if exact:
        return slots[-1].astype(object) * const, scale
    if batch:
        const = np.reshape(const, batch + (1,) * len(keep))
    return slots[-1] * const, scale


def _contract_integers(n_vertices, edges, values, n_steps, pins=None,
                       keep=()):
    """The exact engine run: the integer result of ``_eliminate`` on the
    engine grid of the ``StepGraphon`` ``values``, and its denominator
    q^{#edges} * n^{#summed out}."""
    w = _graphon(values)
    a, top = w._engine_grid
    raw, scale = _eliminate(n_vertices, edges, a, n_steps, pins, keep, top)
    return raw, w.q ** len(edges) * scale


def contract_exact(n_vertices, edges, values, n_steps, pins=None, keep=()):
    """Exact contraction of a ``StepGraphon``, read on its integer grid.

    Returns a Fraction when ``keep`` is empty, a tuple (vector) for one kept
    vertex, or a tuple of tuples (grid) for two.
    """
    return _as_fractions(*_contract_integers(n_vertices, edges, values,
                                             n_steps, pins, keep))


def contract_float(n_vertices, edges, matrix, n_steps, pins=None, keep=()):
    """Float contraction by the engine; same semantics as contract_exact.

    A stack of grids, shape ``(..., n, n)``, gives an array of results with
    the batch axes in front, each equal to the call on its own grid.
    """
    a = np.asarray(matrix, dtype=float)
    raw, _ = _eliminate(n_vertices, edges, a, n_steps, pins, keep)
    return raw if keep or a.ndim > 2 else float(raw)


# ---------------------------------------------------------------------------
# Brute force (the independent oracle for the elimination engine).
# ---------------------------------------------------------------------------

def _bruteforce(n_vertices, edges, a, n_steps, pins, keep, top=None):
    """Unnormalized sums of edge products over every assignment of the free
    vertices, exact or float: one sum per assignment of the kept vertices,
    shaped like ``_eliminate``'s result.  Also returns the number of
    assignments of the free vertices, n to their count.

    The assignments are enumerated in chunks of at most
    ``_BRUTEFORCE_CHUNK`` indices: free vertex i takes digit i of an index
    written in base n, every edge's weight is gathered for every assignment
    of the chunk, and each assignment's product over all edges is formed
    before the chunk is summed.  Float mode (``top`` None) reads a float64
    grid.  Exact mode reads a graphon's engine grid with ``top`` its largest
    entry M, as ``_eliminate`` does.  The entries are nonnegative, so with
    E the edge count and S the number of free assignments no product
    exceeds M^E and no chunk's sum S * M^E: when S * M^E < 2^63 the int64
    grid is gathered as is, else it is cast to Python ints.  Each chunk's
    sum is then added to a Python-int total, and the result is an object
    array of Python ints.
    """
    keep = tuple(keep)
    pins = _normalize_pins(pins)
    n_steps = _check_inputs(a, n_steps, pins)
    n_vertices, _ = _check_vertices(n_vertices, pins, keep)
    _check_edges(n_vertices, edges)
    if n_steps ** n_vertices > STATE_LIMIT:
        raise ValueError(
            f"brute force refused: {n_steps}^{n_vertices} assignments exceed "
            f"{STATE_LIMIT}"
        )
    free = [v for v in range(n_vertices) if v not in pins and v not in keep]
    states = n_steps ** len(free)
    exact = top is not None
    weights = a.reshape(-1)
    if exact and states * top ** len(edges) >= 1 << 63:
        weights = weights.astype(object, copy=False)
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
            chunk = products.sum()
            acc += int(chunk) if exact else chunk
        return acc

    sums = [
        total({**pins, **dict(zip(keep, xs))})
        for xs in itertools.product(range(n_steps), repeat=len(keep))
    ]
    raw = np.array(sums, dtype=object if exact else float)
    raw = raw.reshape((n_steps,) * len(keep))
    return raw, states


def bruteforce_exact(n_vertices, edges, values, n_steps, pins=None, keep=()):
    """The independent oracle for ``contract_exact``: the same value, with
    the same arguments and result shapes, summed over every assignment of
    the free vertices on the ``StepGraphon``'s one integer grid and its
    largest entry M, the pair the engine reads, in int64 when the bound
    S * M^E < 2^63 of ``_bruteforce`` holds, else in Python ints.  Refused
    with ``ValueError`` when n to the vertex count exceeds ``STATE_LIMIT``.
    """
    w = _graphon(values)
    a, top = w._engine_grid
    raw, states = _bruteforce(n_vertices, edges, a, n_steps, pins, keep, top)
    return _as_fractions(raw, w.q ** len(edges) * states)


def bruteforce_float(n_vertices, edges, matrix, n_steps, pins=None, keep=()):
    """The independent oracle for ``contract_float`` on one float64 grid:
    every assignment's product summed, then divided once by the assignment
    count.  Refused like ``bruteforce_exact``.
    """
    raw, states = _bruteforce(n_vertices, edges,
                              np.asarray(matrix, dtype=float), n_steps, pins,
                              keep)
    out = raw / float(states)
    return out if keep else float(out)
