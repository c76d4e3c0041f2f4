"""Finite simple graphs, gadget constructors, and structural validators.

Vertices are dense integer indices ``0..n-1``.  Every constructor numbers new
internal vertices deterministically: host vertices keep their indices, then
per-edge blocks are appended in sorted edge order.  Repeated runs therefore
produce byte-identical outputs, which golden tests rely on.
"""

from __future__ import annotations

import itertools
import numbers
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb

__all__ = [
    "Graph",
    "RootedGraph",
    "ReplacementSpec",
    "Theorem12Case",
    "Theorem12Classification",
    "complete_graph",
    "complete_multipartite",
    "path_graph",
    "cycle_graph",
    "generalized_theta",
    "flower",
    "subdivide",
    "replace_edges",
    "replace_edges_nonuniform",
    "semidirect_product",
    "disjoint_union",
    "classify_theorem12",
    "find_isomorphism",
    "edge_orbits",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a sorted tuple of edges.

    ``n == 0`` is permitted and denotes the empty graph (the identity for
    disjoint unions).  A vertex count or endpoint that is not an integer (a
    bool included), loops, duplicate edges, and out-of-range endpoints are
    rejected at construction; integers are stored as plain ``int``.
    """

    n: int
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "vertex count", 0))
        seen = set()
        for u, v in self.edges:
            u, v = _index(u, "endpoint", self.n), _index(v, "endpoint", self.n)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict:
        adj = {v: set() for v in range(self.n)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> tuple:
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs)

    def is_bipartite(self) -> bool:
        color = {}
        adj = self.adjacency()
        for start in range(self.n):
            if start in color:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                w = queue.pop()
                for x in adj[w]:
                    if x not in color:
                        color[x] = 1 - color[w]
                        queue.append(x)
                    elif color[x] == color[w]:
                        return False
        return True

    def relabel(self, perm) -> "Graph":
        """Apply a vertex permutation given as a sequence (old index -> new)."""
        perm = _permutation(perm, self.n, "vertex")
        return Graph(self.n, tuple((perm[u], perm[v]) for u, v in self.edges))

    def without_edge(self, u: int, v: int) -> "Graph":
        key = (u, v) if u < v else (v, u)
        if key not in set(self.edges):
            raise ValueError(f"edge {key} not present")
        return Graph(self.n, tuple(e for e in self.edges if e != key))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        """The graph a JSON dict describes; the vertex count and every
        endpoint must be JSON integers, read without truncation."""
        return cls(data["n"], data["edges"])


def complete_graph(h: int) -> Graph:
    h = _integer(h, "vertex count")
    return Graph(h, tuple(itertools.combinations(range(h), 2)))


def complete_multipartite(sizes) -> Graph:
    """Complete multipartite graph with consecutive index blocks as parts."""
    sizes = [_integer(s, "part size", 1) for s in sizes]
    bounds = []
    start = 0
    for s in sizes:
        bounds.append(range(start, start + s))
        start += s
    edges = []
    for i, j in itertools.combinations(range(len(sizes)), 2):
        edges.extend((u, v) for u in bounds[i] for v in bounds[j])
    return Graph(start, tuple(edges))


def path_graph(length: int) -> Graph:
    """Path with ``length`` edges on vertices 0..length."""
    length = _integer(length, "path length", 0)
    return Graph(length + 1, tuple((i, i + 1) for i in range(length)))


def cycle_graph(length: int) -> Graph:
    length = _integer(length, "cycle length", 3)
    edges = [(i, i + 1) for i in range(length - 1)] + [(length - 1, 0)]
    return Graph(length, tuple(edges))


# ---------------------------------------------------------------------------
# Isomorphism machinery: colour refinement with individualization.
# ---------------------------------------------------------------------------

def find_isomorphism(g1: Graph, g2: Graph, fixed: dict | None = None):
    """Search for an isomorphism g1 -> g2 extending ``fixed``; None if absent.

    Every key of ``fixed`` must be a vertex of g1 and every value a vertex
    of g2, or a ValueError names the pair; a ``fixed`` that maps two
    vertices to one gives None.
    """
    n = g1.n
    pairs = []
    for v, w in (fixed or {}).items():
        pair = f"fixed pair {v!r}: {w!r}"
        v, w = _integer(v, pair + ", vertex"), _integer(w, pair + ", vertex")
        if not (0 <= v < n and 0 <= w < g2.n):
            raise ValueError(f"{pair} is not a vertex of g1 and one of g2")
        pairs.append((v, n + w))
    if n != g2.n or g1.num_edges != g2.num_edges:
        return None
    # g2's vertices are n..2n-1, so one colour means the same in both graphs
    adj = ([list(nbrs) for nbrs in g1.adjacency().values()]
           + [[n + x for x in nbrs] for nbrs in g2.adjacency().values()])
    # (colouring, pairs to individualize, each in a new colour)
    stack = [([0] * (2 * n), pairs)]
    while stack:
        colour, pairs = stack.pop()
        colour = colour.copy()
        for v, w in pairs:
            colour[v] = colour[w] = max(colour) + 1
        # equitable refinement: signatures (colour, sorted neighbour colours)
        # numbered in sorted order, which a stable 0..k-1 colouring keeps
        old, balanced = None, True
        while balanced and colour != old:
            sigs = [(c, tuple(sorted([colour[x] for x in nbrs])))
                    for c, nbrs in zip(colour, adj)]
            number = {s: i for i, s in enumerate(sorted(set(sigs)))}
            old, colour = colour, [number[s] for s in sigs]
            balanced = sorted(colour[:n]) == sorted(colour[n:])
        if not balanced:
            continue
        sizes = Counter(colour[:n])
        if len(sizes) == n:
            image = {c: w for w, c in enumerate(colour[n:])}
            perm = [image[c] for c in colour[:n]]
            if g1.relabel(perm) == g2:
                return dict(enumerate(perm))
            continue
        # the smallest cell left: its first g1 vertex meets each g2 vertex
        _, c = min((size, c) for c, size in sizes.items() if size > 1)
        v = colour.index(c)
        stack.extend((colour, [(v, w)])
                     for w in range(2 * n - 1, n - 1, -1) if colour[w] == c)
    return None


@lru_cache(maxsize=256)
def edge_orbits(graph: Graph) -> tuple:
    """The orbits of the edges of ``graph`` under its automorphism group.

    Each orbit is a tuple of edges in ``graph.edges`` order, so its first
    edge is its representative.  An edge joins the first representative
    that some automorphism maps onto it, in either orientation.
    """
    index = {}
    for i, (u, v) in enumerate(graph.edges):
        index[u, v] = index[v, u] = i
    root = list(range(graph.num_edges))  # union-find, a class's root its min

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    reps = []
    for i, (u, v) in enumerate(graph.edges):
        if find(i) != i:
            continue
        for r in reps:
            a, b = graph.edges[r]
            sigma = (find_isomorphism(graph, graph, {a: u, b: v})
                     or find_isomorphism(graph, graph, {a: v, b: u}))
            if sigma is not None:
                for j, (x, y) in enumerate(graph.edges):
                    p, q = find(j), find(index[sigma[x], sigma[y]])
                    root[max(p, q)] = min(p, q)
                break
        else:
            reps.append(i)
    return tuple(tuple(e for j, e in enumerate(graph.edges) if find(j) == r)
                 for r in reps)


@dataclass(frozen=True)
class RootedGraph:
    """Graph with an ordered pair of distinct roots.

    Construction validates that some automorphism swaps the two roots, which
    makes the root orientation irrelevant in edge replacements and keeps
    counting kernels symmetric.
    """

    graph: Graph
    roots: tuple

    def __post_init__(self):
        r1, r2 = (_index(r, "root", self.graph.n) for r in self.roots)
        object.__setattr__(self, "roots", (r1, r2))
        if r1 == r2:
            raise ValueError("roots must be distinct")
        if find_isomorphism(self.graph, self.graph, fixed={r1: r2, r2: r1}) is None:
            raise ValueError("no automorphism swapping the two roots")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def to_json_dict(self) -> dict:
        d = self.graph.to_json_dict()
        d["roots"] = list(self.roots)
        return d


# ---------------------------------------------------------------------------
# Gadget constructors.
# ---------------------------------------------------------------------------

def _integer(x, what, low=None) -> int:
    """``x`` read as a plain int: the one reader of every integer argument.

    A bool or any value that is not an integer is a ValueError naming it,
    never truncated, and a NumPy integer is read as an int.  With ``low``
    given, a value below it is a ValueError ``"{what} {x} is below {low}"``.
    """
    if type(x) is not int:
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise ValueError(f"{what} {x!r} is not an integer")
        x = int(x)
    if low is not None and x < low:
        raise ValueError(f"{what} {x} is below {low}")
    return x


def _index(x, what, bound) -> int:
    """``x`` read by ``_integer``, the one reader of every vertex and step
    index: outside ``range(bound)`` it is ``"{what} {x} out of range"``."""
    x = x if type(x) is int else _integer(x, what)
    if not 0 <= x < bound:
        raise ValueError(f"{what} {x} out of range")
    return x


def _permutation(perm, n, what) -> list:
    """``perm`` as a list, each entry read by ``_integer`` as a ``what``:
    the one reader of every permutation of ``range(n)``."""
    perm = [_integer(x, what) for x in perm]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of the {n} {what} indices")
    return perm


def _lay_path(edges, u, v, length, nxt) -> int:
    """Append a u-v path of ``length`` edges to ``edges``, numbering its
    ``length - 1`` internal vertices from ``nxt``; return the next free
    vertex."""
    prev = u
    for _ in range(length - 1):
        edges.append((prev, nxt))
        prev = nxt
        nxt += 1
    edges.append((prev, v))
    return nxt


def generalized_theta(lengths, parity: str = "any") -> RootedGraph:
    """Internally disjoint paths of the given lengths between two roots.

    Roots are vertices 0 and 1; internal path vertices follow in input order.
    At most one length may equal 1 (two would create a multi-edge).  With
    parity "even" or "odd" every length must have that parity.  The lengths
    are checked on every call; each distinct tuple is built (and its root
    swap searched for) once, and the one frozen result is shared.
    """
    lens = [_integer(x, "path length", 1) for x in lengths]
    if not lens:
        raise ValueError("at least one path length required")
    if sum(1 for x in lens if x == 1) > 1:
        raise ValueError("duplicate length-1 path would create a multi-edge")
    if parity == "even" and any(x % 2 for x in lens):
        raise ValueError("parity violation: odd length in an even theta")
    if parity == "odd" and any(x % 2 == 0 for x in lens):
        raise ValueError("parity violation: even length in an odd theta")
    if parity not in ("even", "odd", "any"):
        raise ValueError(f"unknown parity {parity!r}")
    return _theta(tuple(lens))


@lru_cache(maxsize=256)
def _theta(lens: tuple) -> RootedGraph:
    """The theta of validated plain-int ``lens``, one per distinct tuple."""
    edges = []
    nxt = 2
    for length in lens:
        nxt = _lay_path(edges, 0, 1, length, nxt)
    return RootedGraph(Graph(nxt, tuple(edges)), (0, 1))


def flower(cycle_lengths) -> Graph:
    """Cycles of the given lengths sharing exactly one hub vertex (vertex 0)."""
    lens = [_integer(x, "cycle length", 3) for x in cycle_lengths]
    if not lens:
        raise ValueError("at least one cycle length required")
    edges = []
    nxt = 1
    for length in lens:
        nxt = _lay_path(edges, 0, 0, length, nxt)
    return Graph(nxt, tuple(edges))


def subdivide(graph: Graph, times: int) -> Graph:
    """Replace each edge by a path with ``times`` new internal vertices.

    New vertices are appended per edge in sorted edge order.
    """
    times = _integer(times, "subdivision count", 0)
    edges = []
    nxt = graph.n
    for u, v in graph.edges:
        nxt = _lay_path(edges, u, v, times + 1, nxt)
    return Graph(nxt, tuple(edges))


def replace_edges(host: Graph, gadget: RootedGraph) -> Graph:
    """Substitute a fresh copy of ``gadget`` for every host edge.

    The gadget roots land on the edge endpoints; internal copies are pairwise
    disjoint.  The root-swap automorphism (validated by RootedGraph) makes the
    orientation of each substitution irrelevant.
    """
    r1, r2 = gadget.roots
    others = [w for w in range(gadget.graph.n) if w not in (r1, r2)]
    edges = []
    nxt = host.n
    for u, v in host.edges:
        m = {r1: u, r2: v}
        for w in others:
            m[w] = nxt
            nxt += 1
        for a, b in gadget.graph.edges:
            edges.append((m[a], m[b]))
    return Graph(nxt, tuple(edges))


def replace_edges_nonuniform(spec: "ReplacementSpec") -> Graph:
    """Replace each host edge by its own bundle of internally disjoint paths.

    New vertices are appended per edge in sorted edge order, per bundle in
    ascending length.
    """
    edges = []
    nxt = spec.host_n
    for (u, v), bundle in spec.bundles:
        for k, count in bundle:
            for _ in range(count):
                nxt = _lay_path(edges, u, v, k, nxt)
    return Graph(nxt, tuple(edges))


def semidirect_product(h1: Graph, independent_set, a: int, h2: Graph,
                       subdivision_k: int = 1) -> Graph:
    """Glue v(H2) copies of H1 along an independent set, wire H2 on the a-copies.

    The copies share the vertices of ``independent_set`` and are disjoint
    otherwise.  Each H2 edge joins the corresponding copies of ``a`` and is
    then subdivided ``2*subdivision_k - 1`` times, which makes the result
    bipartite whenever H1 is.

    Vertex numbering: shared vertices first (sorted), then per-copy blocks of
    the remaining H1 vertices (sorted), then subdivision blocks in sorted H2
    edge order.
    """
    shared = sorted({_index(w, "independent set vertex", h1.n)
                     for w in independent_set})
    a = _index(a, "vertex", h1.n)
    subdivision_k = _integer(subdivision_k, "subdivision parameter", 1)
    if a in shared:
        raise ValueError("vertex a must not belong to the independent set")
    shared_set = set(shared)
    for u, v in h1.edges:
        if u in shared_set and v in shared_set:
            raise ValueError("independent set spans an edge of the first factor")

    shared_idx = {w: i for i, w in enumerate(shared)}
    others = [w for w in range(h1.n) if w not in shared_set]
    edges = []
    a_copies = []
    nxt = len(shared)
    for _ in range(h2.n):
        block = {w: nxt + i for i, w in enumerate(others)}
        nxt += len(others)

        def image(w, block=block):
            return shared_idx[w] if w in shared_set else block[w]

        for u, v in h1.edges:
            edges.append((image(u), image(v)))
        a_copies.append(image(a))
    for p, q in h2.edges:
        nxt = _lay_path(edges, a_copies[p], a_copies[q], 2 * subdivision_k, nxt)
    return Graph(nxt, tuple(edges))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shifted = tuple((u + g1.n, v + g1.n) for u, v in g2.edges)
    return Graph(g1.n + g2.n, g1.edges + shifted)


# ---------------------------------------------------------------------------
# Non-uniform replacement specs and their classifier.
# ---------------------------------------------------------------------------

def _items(pairs):
    """The ``(key, value)`` pairs of a mapping, or ``pairs`` itself."""
    return pairs.items() if isinstance(pairs, Mapping) else pairs


@dataclass(frozen=True)
class ReplacementSpec:
    """A host graph on ``host_n`` vertices whose every edge carries its own
    bundle of internally disjoint paths: a non-uniform edge replacement.

    ``bundles`` is given as ``(edge, bundle)`` pairs or as a mapping
    ``{edge: bundle}``, and each bundle as ``(length, count)`` pairs or as a
    mapping ``{length: count}``; the host's edges are exactly the edges
    given, checked as ``Graph`` checks them, so an edge given twice, in
    either orientation, is rejected.  Each edge is oriented ``(min, max)``
    together with its bundle, and the pairs are stored sorted by edge, in
    ``Graph.edges`` order, as ``((u, v), ((length, count), ...))`` with
    lengths ascending and zero counts dropped.  A length-1 path stands for
    keeping the edge itself, so its count is capped at 1.
    """

    host_n: int
    bundles: tuple

    def __post_init__(self):
        pairs = list(_items(self.bundles))
        host = Graph(self.host_n, tuple(edge for edge, _ in pairs))
        norm = {}
        for (u, v), bundle in pairs:
            counts = {}
            for k, c in _items(bundle):
                k = _integer(k, "path length", 1)
                c = _integer(c, "path count", 0)
                counts[k] = counts.get(k, 0) + c
            if counts.get(1, 0) > 1:
                raise ValueError("at most one length-1 path per edge")
            norm[min(u, v), max(u, v)] = tuple(
                sorted((k, c) for k, c in counts.items() if c > 0))
        object.__setattr__(self, "host_n", host.n)
        object.__setattr__(self, "bundles",
                           tuple((e, norm[e]) for e in host.edges))

    def totals(self) -> dict:
        """Total path count per length, summed over host edges."""
        out = {}
        for _, bundle in self.bundles:
            for k, c in bundle:
                out[k] = out.get(k, 0) + c
        return dict(sorted(out.items()))

    def alphas(self) -> dict:
        """Per-length totals divided by C(host_n, 2), as exact rationals."""
        pairs = comb(self.host_n, 2)
        if pairs == 0:
            raise ValueError("alpha values need a host with at least 2 vertices")
        return {k: Fraction(c, pairs) for k, c in self.totals().items()}

    @classmethod
    def uniform(cls, host: Graph, lengths) -> "ReplacementSpec":
        """Same multiset of path lengths on every host edge."""
        counts = Counter(lengths)
        return cls(host.n, [(e, counts) for e in host.edges])

    def to_json_dict(self) -> dict:
        return {
            "n": self.host_n,
            "edges": [list(e) for e, _ in self.bundles],
            "lengths": [
                [{"k": k, "count": c} for k, c in bundle]
                for _, bundle in self.bundles
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ReplacementSpec":
        """The spec a JSON dict describes: ``lengths[i]`` is the bundle of
        ``edges[i]``, in any edge order and orientation, and the vertex
        count, every endpoint, length and count must be an integer, read
        without truncation."""
        edges, lengths = data["edges"], data["lengths"]
        if len(edges) != len(lengths):
            raise ValueError("one length list required per host edge")
        return cls(data["n"], [
            (e, [(item["k"], item["count"]) for item in bundle])
            for e, bundle in zip(edges, lengths)
        ])


class Theorem12Case(str, Enum):
    DIVISIBLE = "CaseDivisible"
    SINGLE_LENGTH = "CaseSingleLength"
    NOT_COVERED = "NotCovered"


@dataclass(frozen=True)
class Theorem12Classification:
    case: Theorem12Case
    certificate: dict


def classify_theorem12(spec: ReplacementSpec) -> Theorem12Classification:
    """Decide which hypothesis a non-uniform even replacement satisfies.

    CaseDivisible: all lengths even and every per-length total divisible by
    C(h, 2).  CaseSingleLength: all lengths even, exactly one length class
    present, and its total at least C(h, 2).  CaseDivisible wins when both
    hold.  Otherwise NotCovered, with a certificate naming the offending
    length class (as k, where the class holds paths of length 2k).
    """
    totals = spec.totals()
    pairs = comb(spec.host_n, 2)
    odd = sorted(k for k in totals if k % 2 == 1)
    if odd:
        return Theorem12Classification(
            Theorem12Case.NOT_COVERED,
            {"reason": "odd path length present", "length": odd[0]},
        )
    if all(c % pairs == 0 for c in totals.values()):
        alpha = {k: c // pairs for k, c in totals.items()}
        theta_lengths = [k for k, a in sorted(alpha.items()) for _ in range(a)]
        return Theorem12Classification(
            Theorem12Case.DIVISIBLE,
            {"alpha": alpha, "theta_lengths": theta_lengths},
        )
    if len(totals) == 1:
        (length, count), = totals.items()
        if count >= pairs:
            return Theorem12Classification(
                Theorem12Case.SINGLE_LENGTH,
                {"length": length, "k": length // 2,
                 "alpha": Fraction(count, pairs)},
            )
    bad = min(k for k, c in totals.items() if c % pairs != 0)
    return Theorem12Classification(
        Theorem12Case.NOT_COVERED,
        {"reason": "per-length total not divisible", "length": bad, "k": bad // 2},
    )
