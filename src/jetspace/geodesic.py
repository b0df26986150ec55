"""Chain sums and the geodesic bracket for the jet quasi-distance.

The geodesic distance between two jets is the infimum of chain sums of the
quasi-distance over all finite interpolating families.  It is not computable
over the continuum; this module reports a two-sided bracket instead:

* ``d_upper`` -- shortest path through a finite candidate set (an upper bound);
* ``d_lower`` -- the quasi-distance of the jets scaled down by e^(-n) (a lower
  bound: scaling a chain up by e^n dominates the direct quasi-distance).

``verify_chain_bound`` tests the scaling inequality behind the lower bound on
explicit chains, and the two ``*_chain_inequality`` checks exercise the
interval splitting bounds the chain inequality rests on.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from .cubes import Cube
from .jets import Jet, _JetRows, _distance, gauge_integral, jet_distance, scale
from .modulus import Modulus
from .numerics import within_slack

CHAIN_SLACK = 1e-9


@dataclass(frozen=True)
class Chain:
    """An ordered family of at least two jets sharing one context."""

    jets: tuple[Jet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "jets", tuple(self.jets))
        if len(self.jets) < 2:
            raise ValueError("a chain needs at least two jets")
        n, top = self.jets[0].n, self.jets[0].degree
        for jet in self.jets[1:]:
            if jet.n != n or jet.degree != top:
                raise ValueError("chain jets must share dimension and degree bound")

    def __len__(self) -> int:
        return len(self.jets)


def chain_length(mod: Modulus, chain: Chain) -> float:
    """Sum of quasi-distances along consecutive links."""
    rows = _JetRows(chain.jets)
    return sum(rows.distances(mod, i, [i + 1])[0] for i in range(len(chain) - 1))


def d_upper(mod: Modulus, start: Jet, end: Jet, candidates: Sequence[Jet]) -> float:
    """Shortest-path distance from start to end in the complete graph on
    {start, end} plus the candidates, with quasi-distance edge weights.

    Label-setting (Dijkstra) is exact here since all weights are
    non-negative.  Always <= the direct quasi-distance and >= the geodesic
    distance.  The discrepancies of a settled node's edges to every unsettled
    node are one array expression (``jets._JetRows``), so each edge weight
    that is computed is ``jet_distance`` of its two jets bit for bit.

    An edge is weighed only if it can still relax a label.  With a positive
    top-order peak u the weight is max(cube or lower-order term, min(u, tail
    mass at the smaller radius)), so that min, or 0 when u == 0, is a floor
    on the weight needing no gauge inversion; float addition is monotone, so
    d + floor <= d + weight.  An edge from a node settled at d to j is
    skipped when d + floor >= min(label of j, label of end), which leaves
    the result unchanged bit for bit:

    * d + floor >= label of j: the relaxation test d + weight < label fails;
    * d + floor >= label of end: every path through this edge is at least
      the end's label, and on a tie the heap pops (label, end) before any
      (label, j) with j > end's index.
    """
    nodes: list[Jet] = [start, end, *candidates]
    rows = _JetRows(nodes)
    radii = [jet.cube.radius for jet in nodes]
    tail_mass = functools.cache(mod.tail_mass)
    n = len(nodes)
    dist = [math.inf] * n
    done = [False] * n
    dist[0] = 0.0
    heap: list[tuple[float, int]] = [(0.0, 0)]
    while heap:
        d, i = heapq.heappop(heap)
        if done[i]:
            continue
        done[i] = True
        if i == 1:
            break
        js = [j for j in range(n) if not done[j]]
        for j, peak in zip(js, rows.peaks(i, js)):
            top = peak[-1]
            floor = min(top, tail_mass(min(radii[i], radii[j]))) if top > 0.0 else 0.0
            if d + floor >= min(dist[j], dist[1]):
                continue
            nd = d + _distance(mod, nodes[i], nodes[j], peak)
            if nd < dist[j]:
                dist[j] = nd
                heapq.heappush(heap, (nd, j))
    return dist[1]


def d_lower(mod: Modulus, start: Jet, end: Jet) -> float:
    """Lower bound for the geodesic distance: the quasi-distance of the jets
    with polynomials scaled down by e^(-n)."""
    factor = math.exp(-start.n)
    return jet_distance(mod, scale(factor, start), scale(factor, end))


@dataclass(frozen=True)
class InequalityCheck:
    """Outcome of a single inequality check; slack = rhs - lhs (signed)."""

    ok: bool
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _check(lhs: float, rhs: float, rel_slack: float = CHAIN_SLACK) -> InequalityCheck:
    return InequalityCheck(ok=within_slack(lhs, rhs, rel_slack), lhs=lhs, rhs=rhs)


def verify_chain_bound(
    mod: Modulus, chain: Chain, rel_slack: float = CHAIN_SLACK
) -> InequalityCheck:
    """Check that the direct quasi-distance of the chain's endpoints is at
    most the chain sum after scaling every polynomial up by e^n."""
    factor = math.exp(chain.jets[0].n)
    lhs = jet_distance(mod, chain.jets[0], chain.jets[-1])
    rhs = chain_length(mod, Chain(tuple(scale(factor, jet) for jet in chain.jets)))
    return _check(lhs, rhs, rel_slack)


def interval_chain_inequality(
    mod: Modulus,
    b: Sequence[float],
    a: Sequence[float],
    c: Sequence[float],
    rel_slack: float = CHAIN_SLACK,
) -> InequalityCheck:
    """Splitting bound for the weighted integral along a chain of scales.

    With scales b_0..b_l > 0, spatial steps a_i >= 0 and extra steps c_i >= 0,
    the larger of the end-to-end integrals (over [min(b_0,b_l), b_0+b_l+sum a]
    and [min(b_0,b_l), min(b_0,b_l)+sum c]) is at most the sum over links of
    the corresponding per-link maxima.
    """
    if len(b) < 2 or len(a) != len(b) - 1 or len(c) != len(b) - 1:
        raise ValueError("need l+1 scales and l steps of each kind")
    if any(x <= 0 for x in b):
        raise ValueError("scales must be positive")
    if any(x < 0 for x in a) or any(x < 0 for x in c):
        raise ValueError("steps must be non-negative")
    v = min(b[0], b[-1])
    lhs = max(mod.integral_core(v, b[0] + b[-1] + sum(a)), mod._increment(v, sum(c))[0])
    rhs = 0.0
    for bi, bj, ai, ci in zip(b, b[1:], a, c):
        w = min(bi, bj)
        rhs += max(mod.integral_core(w, bi + bj + ai), mod._increment(w, ci)[0])
    return _check(lhs, rhs, rel_slack)


def gauge_chain_inequality(
    mod: Modulus,
    top: int,
    alpha,
    b: Sequence[float],
    u: Sequence[float],
    rel_slack: float = CHAIN_SLACK,
) -> InequalityCheck:
    """Splitting bound for the integrated gauge-inverse along a chain.

    The integral up to the gauge-inverse of the summed discrepancies (taken at
    the end-to-end scale) is at most the sum over links of the maximum of the
    plain link integral and the link's own integrated gauge-inverse
    (``gauge_integral``, which takes the top order as a distance).
    """
    if len(b) < 2 or len(u) != len(b) - 1:
        raise ValueError("need l+1 scales and l discrepancies")
    if any(x <= 0 for x in b):
        raise ValueError("scales must be positive")
    if any(x < 0 for x in u):
        raise ValueError("discrepancies must be non-negative")
    lhs = gauge_integral(mod, top, alpha, sum(u), min(b[0], b[-1]))
    rhs = 0.0
    for bi, bj, ui in zip(b, b[1:], u):
        w = min(bi, bj)
        rhs += max(mod.integral_core(w, bi + bj), gauge_integral(mod, top, alpha, ui, w))
    return _check(lhs, rhs, rel_slack)


def interpolating_candidates(start: Jet, end: Jet, count: int = 3) -> list[Jet]:
    """Heuristic chain vertices between two jets: affine interpolation of the
    polynomials, linear interpolation of the centers, geometric interpolation
    of the radii."""
    if count < 1:
        return []
    out = []
    x1, x2 = start.cube.center, end.cube.center
    r1, r2 = start.cube.radius, end.cube.radius
    for i in range(1, count + 1):
        s = i / (count + 1)
        # b - a overflows for far-apart centers, where (1 - s) a + s b does not
        center = tuple(
            a + s * (b - a) if abs(b - a) < math.inf else (1 - s) * a + s * b for a, b in zip(x1, x2)
        )
        radius = r1 ** (1 - s) * r2**s
        poly = start.poly.scale(1 - s) + end.poly.scale(s)
        out.append(Jet(poly=poly, cube=Cube(center=center, radius=radius)))
    return out
