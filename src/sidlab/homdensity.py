"""Homomorphism densities of graphs in step graphons.

Densities are normalized sums of edge-weight products over all vertex-to-step
assignments, evaluated either by variable elimination (greedy min-fill) or by
brute-force enumeration, in exact rational or float arithmetic.  Pinned
variants fix chosen vertices to steps and normalize over the free vertices
only, which is exactly the counting-kernel convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from . import contraction
from .contraction import _normalize_pins
from .graphs import Graph, ReplacementSpec, complete_graph, edge_orbits
from .stepgraphon import (StepGraphon, _frac_str, _unit, constant_graphon,
                          edge_density, hadamard, kernel_power)

__all__ = [
    "DensityValue",
    "hom_density",
    "density_gradient",
    "deficit",
    "holder_lower_bound",
]


@dataclass(frozen=True)
class DensityValue:
    """A homomorphism density with its arithmetic mode.

    ``scale_exponent`` is the number of normalized (non-pinned) vertices, so
    an exact value has denominator dividing n^scale_exponent times the product
    of the input denominators over the edges.
    """

    value: object
    mode: str
    scale_exponent: int

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 <= self.value <= 1:
            raise ValueError(f"density {self.value} outside [0, 1]")

    def to_json_dict(self) -> dict:
        if self.mode == "exact":
            v = _frac_str(self.value)
        else:
            v = float(self.value)
        return {"mode": self.mode, "value": v, "vH": self.scale_exponent}


# (mode, strategy) -> the ``contraction`` entry point, looked up there when
# called, so a wrapper installed there is honoured.
_BACKENDS = {("exact", "eliminate"): "contract_exact",
             ("exact", "bruteforce"): "bruteforce_exact",
             ("float", "eliminate"): "contract_float",
             ("float", "bruteforce"): "bruteforce_float"}


def hom_density(graph: Graph, w: StepGraphon, mode: str = "exact",
                strategy: str = "eliminate", pins=None) -> DensityValue:
    """Homomorphism density of ``graph`` in ``w``.

    With pins, the sum runs over assignments extending the pin map and is
    normalized by n to the number of free vertices.  ``eliminate`` and
    ``bruteforce`` agree exactly; brute force enumerates every assignment,
    in numpy chunks, and forms each one's product over every edge.  Either
    strategy raises ``ValueError`` on work above
    ``contraction.STATE_LIMIT`` index tuples.
    """
    pins = _normalize_pins(pins)
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    backend = _BACKENDS.get((mode, strategy))
    if backend is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    grid = w if mode == "exact" else w.float_matrix
    value = getattr(contraction, backend)(graph.n, graph.edges, grid,
                                          w.n_steps, pins=pins)
    if mode == "float":
        # Float roundoff may poke a hair outside [0, 1].
        value = min(max(value, 0.0), 1.0)
    return DensityValue(value, mode, graph.n - len(pins))


def _cavity(graph: Graph, edge, w, n_steps: int, contract):
    """The cavity kernel of ``edge``: ``graph`` without it, contracted by
    ``contract`` with both its ends kept."""
    edges = graph.edges
    k = edges.index(edge)
    return contract(graph.n, edges[:k] + edges[k + 1:], w, n_steps,
                    keep=edge)


def _gradient(graph: Graph, w, n_steps: int, contract,
              first=None) -> np.ndarray:
    """Density gradient from one cavity kernel per edge orbit.

    An automorphism of ``graph`` that maps edge (u, v) onto (u', v') maps
    the cavity sum at one onto the other, transposed when it reverses the
    orientation, so the representative's ``K + Kᵀ`` (both orientations)
    times the orbit's size stands for every edge of the orbit.

    ``contract`` is ``contraction.contract_float``, with ``w`` a float grid
    or a stack ``(..., n, n)`` of them (one gradient per grid), or
    ``contraction.contract_exact``, with ``w`` a ``StepGraphon``, giving an
    object array of Fractions.  ``first``, when given, is the first orbit's
    cavity kernel as ``contract`` gives it for ``w`` (the descent in
    ``search`` holds it from the slack); only the other orbits are then
    contracted.
    """
    # np.shape reads no batch axes off a StepGraphon
    grid = np.zeros(np.shape(w)[:-2] + (n_steps, n_steps), dtype=int)
    for i, orbit in enumerate(edge_orbits(graph)):
        if i == 0 and first is not None:
            kernel = first
        else:
            kernel = np.asarray(_cavity(graph, orbit[0], w, n_steps,
                                        contract))
        grid = grid + len(orbit) * (kernel + np.swapaxes(kernel, -1, -2))
    grid = grid / n_steps ** 2
    # The two orientations double off-diagonal entries but must not double
    # the diagonal, where both orientations are the same assignment.
    i = np.arange(n_steps)
    grid[..., i, i] /= 2
    return grid


def _gradient_float(graph: Graph, a: np.ndarray, first=None):
    a = np.asarray(a, dtype=float)
    return _gradient(graph, a, a.shape[-1], contraction.contract_float, first)


def density_gradient(graph: Graph, w: StepGraphon):
    """Exact partial derivatives of the density with respect to each grid
    entry.

    A symmetric pair (u, v) with u != v is treated as a single variable, so
    its partial collects both edge orientations; diagonal entries collect
    one.  Matches central finite differences of ``hom_density``.
    """
    # Fraction() also reads the float zeros of an edgeless graph
    return tuple(tuple(map(Fraction, row)) for row in
                 _gradient(graph, w, w.n_steps, contraction.contract_exact))


def deficit(graph: Graph, w: StepGraphon, d=None) -> Fraction:
    """Exact signed slack of a density lower bound; negative means
    violation: t_H(W) - t_K2(W)^e(H), or t_H(W) - d^e(H) against a target
    density d.
    """
    base = edge_density(w) if d is None else _unit(d, "target density")
    return hom_density(graph, w).value - base ** graph.num_edges


def holder_lower_bound(spec: ReplacementSpec, w: StepGraphon) -> DensityValue:
    """Uniformized lower bound for the density of a path-replaced graph.

    Builds the combined pair weight  E[i][j] = prod_k (W^k)[i][j]^alpha_k
    with alpha_k the per-length path totals over C(h, 2), then contracts the
    complete graph on the h host vertices against E.  The bound is exact
    when every exponent is integral, and a float otherwise.
    """
    alphas = spec.alphas()
    h = spec.host_n
    n = w.n_steps
    powers = {k: kernel_power(w, k) for k in alphas}
    if all(a.denominator == 1 for a in alphas.values()):
        combined = reduce(hadamard, (powers[k] for k, a in alphas.items()
                                     for _ in range(int(a))),
                          constant_graphon(1, n))
        value = contraction.contract_exact(h, complete_graph(h).edges,
                                           combined, n)
        return DensityValue(value, "exact", h)
    # every alpha_k is positive (specs drop zero counts), so no 0^0 arises
    mat = np.ones((n, n))
    for k, a in alphas.items():
        mat *= np.power(powers[k].float_matrix, float(a))
    value = contraction.contract_float(h, complete_graph(h).edges, mat, n)
    return DensityValue(min(max(value, 0.0), 1.0), "float", h)
