"""Step graphons with uniform step measure and their kernel algebra.

A step graphon is a symmetric n x n grid of edge weights in [0, 1], each
step carrying measure 1/n.  Exact rationals are the source of truth, held as
one reduced denominator q and an integer grid that every operation here
works on; the Fraction and float views are built when read, and the exact
contraction takes the graphon itself.  Kernel powers are integer matrix
powers, counting kernels contract a rooted gadget with its roots kept free,
and local denseness reduces to box-constrained quadratic minimization,
decided exactly on grids of up to ``EXACT_STEP_CAP`` steps; larger grids
are refused.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .contraction import _contract_integers
# Not called here: the benchmark's tracer binds this name in this module
# (README, "Tests and the acceptance suite").
from .contraction import contract_exact
from .graphs import RootedGraph, _integer

__all__ = [
    "EXACT_STEP_CAP",
    "StepGraphon",
    "LocalDensityReport",
    "edge_density",
    "regularity",
    "kernel_power",
    "counting_kernel",
    "hadamard",
    "permute_steps",
    "local_density_deficit",
    "constant_graphon",
    "circulant_graphon",
    "regular_graph_graphon",
    "mixture_graphon",
    "pointwise_dense_graphon",
]


def _frac_str(x) -> str:
    """A rational as the ``"p/q"`` string that every JSON artifact writes."""
    return f"{x.numerator}/{x.denominator}"


class StepGraphon:
    """Symmetric grid of rational edge weights in [0, 1] on equal steps.

    Entry (i, j) is ``num[i][j] / q``, with q the lcm of the denominators,
    checked once in integers and reduced to ``gcd(q, all a) = 1``, so equal
    graphons compare and hash equal.  ``integer_grid`` holds ``num`` as the
    read-only object array that the exact entry points read off the
    graphon.  The views ``values`` (Fractions) and ``float_matrix`` (``a /
    q``, rounded like ``float(Fraction)``) are built on first read.
    """

    __slots__ = ("n_steps", "q", "num", "integer_grid", "_values", "_float")

    def __init__(self, values):
        rows = [[Fraction(x) for x in row] for row in values]
        q = math.lcm(*(x.denominator for row in rows for x in row))
        self._set([[x.numerator * (q // x.denominator) for x in row]
                   for row in rows], q)

    @classmethod
    def _from_integers(cls, num, q):
        """``num[i][j] / q``; every operation on graphons builds here."""
        w = cls.__new__(cls)
        w._set(num, q)
        return w

    def _set(self, num, q):
        num = tuple(map(tuple, num))
        n = len(num)
        if n == 0:
            raise ValueError("a step graphon needs at least one step")
        if any(len(row) != n for row in num):
            raise ValueError("value grid must be square")
        for i, j in itertools.product(range(n), repeat=2):
            if num[i][j] != num[j][i]:
                raise ValueError(f"values not symmetric at ({i}, {j})")
            if not 0 <= num[i][j] <= q:
                raise ValueError(f"value at ({i}, {j}) outside [0, 1]")
        g = math.gcd(q, *itertools.chain.from_iterable(num))
        if g > 1:
            q, num = q // g, tuple(tuple(a // g for a in row) for row in num)
        self.n_steps, self.q, self.num = n, q, num
        self.integer_grid = np.array(num, dtype=object)
        self.integer_grid.flags.writeable = False
        self._values = self._float = None

    @property
    def values(self) -> tuple:
        if self._values is None:
            self._values = tuple(tuple(Fraction(a, self.q) for a in row)
                                 for row in self.num)
        return self._values

    @property
    def float_matrix(self) -> np.ndarray:
        if self._float is None:
            self._float = np.array([[a / self.q for a in row]
                                    for row in self.num])
        return self._float.copy()

    def __eq__(self, other):
        return (
            isinstance(other, StepGraphon)
            and self.q == other.q
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.q, self.num))

    def __repr__(self):
        return f"StepGraphon(n_steps={self.n_steps})"

    def to_json_dict(self, mode: str = "exact") -> dict:
        if mode == "exact":
            vals = [[_frac_str(x) for x in row] for row in self.values]
        elif mode == "float":
            vals = self.float_matrix.tolist()
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return {"n": self.n_steps, "values": vals}

    @classmethod
    def from_json_dict(cls, data: dict) -> "StepGraphon":
        """A graphon from its JSON form.  A value is a ``"p/q"`` string, an
        integer, or a decimal number read as the decimal written (``0.1``
        is 1/10, not its binary double), so a float export reads back
        with the same float view."""
        n, rows = data["n"], data["values"]
        if type(n) is not int or len(rows) != n:
            raise ValueError("graphon value grid does not match declared size")
        if any(isinstance(x, bool) for row in rows for x in row):
            raise ValueError("a graphon value is a boolean, not a number")
        return cls([[Fraction(repr(x) if isinstance(x, float) else x)
                     for x in row] for row in rows])


def edge_density(w: StepGraphon) -> Fraction:
    n = w.n_steps
    return Fraction(sum(map(sum, w.num)), w.q * n ** 2)


def regularity(w: StepGraphon):
    """Row degrees plus the common degree when they are all equal.

    Degrees are exact rationals.  Returns ``(degree_or_None, row_degrees)``.
    """
    degrees = tuple(Fraction(sum(row), w.q * w.n_steps) for row in w.num)
    if len(set(degrees)) == 1:
        return degrees[0], degrees
    return None, degrees


def kernel_power(w: StepGraphon, k: int) -> StepGraphon:
    """Path-counting kernel of length k: the scaled matrix power A^k / n^(k-1),
    an integer matrix power over the denominator q^k n^(k-1)."""
    k = _integer(k, "kernel power")
    if k < 1:
        raise ValueError("kernel power needs k >= 1")
    power = np.linalg.matrix_power(w.integer_grid, k)
    return StepGraphon._from_integers(power.tolist(),
                                      w.q ** k * w.n_steps ** (k - 1))


def counting_kernel(w: StepGraphon, gadget: RootedGraph) -> StepGraphon:
    """Root-pinned embedding kernel of a rooted gadget.

    Entry (x, y) integrates out all non-root gadget vertices with the roots
    held at steps x and y; the root-swap automorphism guarantees symmetry.
    For a length-k path this coincides with ``kernel_power(w, k)``, and for a
    theta gadget with the entrywise product of its per-path kernels.  The
    engine's integer grid and its denominator become the kernel directly,
    with no Fraction in between.
    """
    g = gadget.graph
    raw, den = _contract_integers(g.n, g.edges, w, w.n_steps,
                                  keep=gadget.roots)
    return StepGraphon._from_integers(raw.tolist(), den)


def hadamard(w1: StepGraphon, w2: StepGraphon) -> StepGraphon:
    if w1.n_steps != w2.n_steps:
        raise ValueError("step counts differ")
    return StepGraphon._from_integers(
        (w1.integer_grid * w2.integer_grid).tolist(), w1.q * w2.q)


def permute_steps(w: StepGraphon, perm) -> StepGraphon:
    """Relabel steps by a permutation (old index -> new index)."""
    n = w.n_steps
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the steps")
    old = np.argsort(perm)
    return StepGraphon._from_integers(
        w.integer_grid[np.ix_(old, old)].tolist(), w.q)


# ---------------------------------------------------------------------------
# Local denseness: minimize q(s) = s^T (A - d J) s / n^2 over the box
# [0, 1]^n.  A negative minimum certifies a violated subset inequality;
# q(0) = 0, so the minimum is never positive.  Corners alone are
# insufficient: fractional minima exist.  q is homogeneous, so its sign
# question is whether A - d J is copositive (Kaplan, LAA 2000).
#
# The minimum is decided exactly by enumerating faces of the box.  A face
# fixes the coordinates of U at 1 and of Z at 0 and frees F; write B for
# A - d J.  A global minimizer can be moved, without raising q, onto a face
# whose B_FF is positive definite or whose F is empty: where B_FF is not PSD
# q has a descent direction inside the face, and where B_FF is singular PSD
# q is flat along a null direction, which reaches a lower face.  On such a
# face the only stationary point is x = -B_FF^{-1} B_FU 1_U.  The
# enumeration grows about 3x per step, so grids above EXACT_STEP_CAP steps
# are refused.
# ---------------------------------------------------------------------------

# Worst case (a positive definite B, every face live) on a 2-core host:
# ~0.5 s at 10 steps, ~5 s at 12.
EXACT_STEP_CAP = 12


@dataclass(frozen=True)
class LocalDensityReport:
    """Minimum of the subset-density quadratic over the box.

    ``deficit_exact`` is the exact global minimum and ``deficit`` its float;
    ``witness`` is an occupancy vector of exact rationals in [0, 1]^n where
    the quadratic takes that value.  A nonnegative deficit proves local
    denseness and a negative one is a certified violation.  ``method`` names
    the decision procedure, always ``"exact"`` (the face enumeration).
    """

    deficit: float
    deficit_exact: Fraction
    witness: tuple
    method: str


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _exact_box_minimum(w: StepGraphon, d: Fraction):
    """Exact minimum of ``s^T (A - d J) s / n^2`` over ``[0, 1]^n`` and an
    exact witness, by enumerating the faces whose free block is positive
    definite.

    Works on the integer matrix ``B = q dd (A - d J) = num dd - dn q``,
    where ``d = dn / dd``.  Free sets F grow one index at a time (larger
    than all of F) in order of size; each keeps the adjugate and determinant
    of ``B_FF``, extended by the bordered-matrix update, so the determinants
    are the leading principal minors and F is positive definite iff all of
    them are > 0 (Sylvester).  A free set whose minor is <= 0 is not
    extended; a superset of it that grows from a positive definite prefix
    fails its own minor.  For each positive definite F and each nonempty U
    outside it, the stationary point ``x = -adj r / det`` with
    ``r = B_FU 1_U`` is kept if it lies in the box; its value is
    ``1_U^T B_UU 1_U + r . x``.
    """
    n = w.n_steps
    dn, dd = d.numerator, d.denominator
    b = [[a * dd - dn * w.q for a in row] for row in w.num]
    full = (1 << n) - 1
    # col[U][i] = (B 1_U)_i and quad[U] = 1_U^T B 1_U, built from U minus
    # its lowest index
    col = [[0] * n]
    quad = [0]
    for u in range(1, full + 1):
        low = (u & -u).bit_length() - 1
        prev = u & (u - 1)
        col.append([c + row[low] for c, row in zip(col[prev], b)])
        quad.append(quad[prev] + 2 * col[prev][low] + b[low][low])

    # the empty subset: value 0 at s = 0
    best_num, best_den, best = 0, 1, ((), (), 0)
    faces = [((), 0, 1, [])]  # (free indices, free mask, det, adjugate)
    for free, fmask, det, adj in faces:
        rest = full ^ fmask
        u = rest
        while u:
            r = [col[u][i] for i in free]
            y = [-_dot(row, r) for row in adj]
            if all(0 <= v <= det for v in y):
                num = quad[u] * det + _dot(r, y)
                if num * best_den < best_num * det:
                    best_num, best_den, best = num, det, (free, y, u)
            u = (u - 1) & rest
        for j in range(free[-1] + 1 if free else 0, n):
            mask = fmask | 1 << j
            bj = [b[i][j] for i in free]
            uj = [_dot(row, bj) for row in adj]
            new_det = b[j][j] * det - _dot(bj, uj)
            if new_det <= 0:
                continue
            # the top-left block of the bordered adjugate is
            # (new_det adj + uj uj^T) / det, an integer matrix
            new_adj = [
                [(new_det * a + ui * uk) // det for a, uk in zip(row, uj)]
                + [-ui]
                for row, ui in zip(adj, uj)
            ]
            new_adj.append([-x for x in uj] + [det])
            faces.append((free + (j,), mask, new_det, new_adj))

    free, y, ones = best
    witness = [Fraction(ones >> i & 1) for i in range(n)]
    for i, v in zip(free, y):
        witness[i] = Fraction(v, best_den)
    return Fraction(best_num, best_den * w.q * dd * n ** 2), tuple(witness)


def local_density_deficit(w: StepGraphon, d) -> LocalDensityReport:
    """Exact minimum of the subset-density deficit against target d over
    the box, with a rational witness.

    Raises ``ValueError`` for a grid above ``EXACT_STEP_CAP`` steps, before
    any enumeration.
    """
    d = Fraction(d)
    if not 0 <= d <= 1:
        raise ValueError("target density must lie in [0, 1]")
    if w.n_steps > EXACT_STEP_CAP:
        raise ValueError(
            f"{w.n_steps} steps exceed the exact local-density cap of "
            f"{EXACT_STEP_CAP}"
        )
    exact, witness = _exact_box_minimum(w, d)
    return LocalDensityReport(
        deficit=float(exact),
        deficit_exact=exact,
        witness=witness,
        method="exact",
    )


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------

def constant_graphon(d, n: int) -> StepGraphon:
    n = _integer(n, "step count")
    d = Fraction(d)
    return StepGraphon._from_integers([[d.numerator] * n] * n, d.denominator)


def circulant_graphon(profile) -> StepGraphon:
    """values[i][j] = profile[(i - j) mod n]; regular by construction."""
    prof = [Fraction(x) for x in profile]
    n = len(prof)
    if n == 0:
        raise ValueError("profile must be nonempty")
    for k in range(1, n):
        if prof[k] != prof[n - k]:
            raise ValueError("profile must be symmetric: p[k] == p[n-k]")
    q = math.lcm(*(x.denominator for x in prof))
    a = [x.numerator * (q // x.denominator) for x in prof]
    return StepGraphon._from_integers(
        [[a[(i - j) % n] for j in range(n)] for i in range(n)], q)


def _pairing_regular_edges(n: int, deg: int, rng: random.Random):
    """Random simple deg-regular edge set via stub pairing with switch repair."""
    while True:
        stubs = list(range(n)) * deg
        rng.shuffle(stubs)
        pairs = [
            tuple(sorted((stubs[2 * i], stubs[2 * i + 1])))
            for i in range(len(stubs) // 2)
        ]
        repaired = _switch_repair(pairs, rng)
        if repaired is not None:
            return repaired


def _switch_repair(pairs, rng: random.Random, max_attempts=3000):
    """Swap endpoints of the first loop or repeated pair with a random pair
    until the pairs form a simple graph, or give up after ``max_attempts``.
    The pair counts and the first bad index change only on an accepted swap,
    so they are kept across attempts."""
    pairs = list(pairs)
    counts = Counter(pairs)
    i = None
    for _ in range(max_attempts):
        if i is None:
            i = next((k for k, e in enumerate(pairs)
                      if e[0] == e[1] or counts[e] > 1), None)
            if i is None:
                return set(pairs)
        j = rng.randrange(len(pairs))
        if i == j:
            continue
        u, v = pairs[i]
        x, y = pairs[j]
        if rng.random() < 0.5:
            x, y = y, x
        e1, e2 = tuple(sorted((u, x))), tuple(sorted((v, y)))
        if e1[0] == e1[1] or e2[0] == e2[1] or e1 == e2:
            continue
        kept = (pairs[i], pairs[j])
        if (counts[e1] and e1 not in kept) or (counts[e2] and e2 not in kept):
            continue
        counts.subtract(kept)
        counts.update((e1, e2))
        pairs[i], pairs[j] = e1, e2
        i = None
    return None


def regular_graph_graphon(n: int, deg: int, seed: int) -> StepGraphon:
    """Random simple deg-regular graph as a 0/1 graphon; (deg/n)-regular."""
    n, deg = _integer(n, "step count"), _integer(deg, "degree")
    if deg < 0 or deg >= n:
        raise ValueError(f"degree {deg} infeasible for {n} vertices")
    if (n * deg) % 2 != 0:
        raise ValueError("n * deg must be even")
    rng = random.Random(seed)
    if deg == 0:
        return constant_graphon(0, n)
    edges = _pairing_regular_edges(n, deg, rng)
    grid = [[0] * n for _ in range(n)]
    for u, v in edges:
        grid[u][v] = grid[v][u] = 1
    return StepGraphon._from_integers(grid, 1)


def mixture_graphon(graphons, weights) -> StepGraphon:
    """Convex combination; mixing equal-degree regular inputs stays regular."""
    ws = [Fraction(x) for x in weights]
    if len(ws) != len(graphons) or not graphons:
        raise ValueError("need one weight per graphon")
    if any(x < 0 for x in ws) or sum(ws) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")
    n = graphons[0].n_steps
    if any(g.n_steps != n for g in graphons):
        raise ValueError("step counts differ")
    q = math.lcm(*(wt.denominator * g.q for wt, g in zip(ws, graphons)))
    grid = sum(wt.numerator * (q // (wt.denominator * g.q)) * g.integer_grid
               for wt, g in zip(ws, graphons))
    return StepGraphon._from_integers(grid.tolist(), q)


# A pointwise-dense entry is d plus 0 to _NOISE_LEVELS units of noise.
_NOISE_LEVELS = 64


def pointwise_dense_graphon(n: int, d, noise, seed: int) -> StepGraphon:
    """Entries in [d, 1]: d plus rational noise; d-locally dense pointwise."""
    n = _integer(n, "step count")
    d = Fraction(d)
    noise = Fraction(noise)
    if not 0 <= d <= 1 or not 0 <= noise <= 1:
        raise ValueError("density and noise must lie in [0, 1]")
    rng = random.Random(seed)
    unit = (1 - d) * noise / _NOISE_LEVELS
    q = math.lcm(d.denominator, unit.denominator)
    lo, u = int(d * q), int(unit * q)
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            level = rng.randrange(_NOISE_LEVELS + 1)
            grid[i][j] = grid[j][i] = lo + u * level
    return StepGraphon._from_integers(grid, q)

