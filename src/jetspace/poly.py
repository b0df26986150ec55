"""Multivariate polynomials in multi-index coefficient form.

Coefficients live in the monomial basis about the origin; derivatives are
evaluated exactly through falling factorials, and Taylor recentering uses
exact integer binomials.  The degree bound is part of the value: a polynomial
constructed for a context with top degree L never stores a coefficient of
higher order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

import numpy as np

MultiIndex = tuple[int, ...]


def mi_order(alpha: MultiIndex) -> int:
    return sum(alpha)


def mi_factorial(alpha: MultiIndex) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


@lru_cache(maxsize=None)
def multi_indices(n: int, max_order: int) -> tuple[MultiIndex, ...]:
    """All multi-indices of dimension n with order <= max_order, ordered by
    (order, lexicographic)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if max_order < 0:
        return ()
    out = [mi for mi in product(range(max_order + 1), repeat=n) if sum(mi) <= max_order]
    out.sort(key=lambda mi: (sum(mi), mi))
    return tuple(out)


def poly_space_dim(n: int, degree: int) -> int:
    """Dimension of the space of n-variate polynomials of degree <= degree."""
    return math.comb(n + degree, degree)


def deriv_matrix(
    n: int, degree: int, orders: Sequence[MultiIndex], points: Sequence[Sequence[float]]
) -> np.ndarray:
    """Exact values of the monomial derivatives d^alpha y^beta at each point.

    Entry [p, a, b] belongs to points[p], alpha = orders[a] and
    beta = multi_indices(n, degree)[b].  The factors are multiplied in
    ``Poly.deriv_eval``'s order with Python floats (numpy's elementwise power
    can round differently), so every entry equals
    ``Poly(n, degree, {beta: 1.0}).deriv_eval(alpha, x)`` bit for bit.
    """
    betas = multi_indices(n, degree)
    cells, picks, perms = _deriv_picks(n, degree, tuple(map(tuple, orders)))
    out = np.zeros((len(points), len(orders) * len(betas)))
    for p, x in enumerate(points):
        if len(x) != n:
            raise ValueError("point dimension mismatch")
        table = [*(xi**r for xi in x for r in range(1, degree + 1)), *perms]
        values = []
        for pick in picks:
            term = 1.0
            for k in pick:
                term *= table[k]
            values.append(term)
        out[p, cells] = values
    return out.reshape(len(points), len(orders), len(betas))


@lru_cache(maxsize=256)
def _deriv_picks(n: int, degree: int, orders: tuple[MultiIndex, ...]) -> tuple:
    """The point-independent part of ``deriv_matrix``: (cells, picks, perms).

    Per point, a table holds x_i^r (r = 1..degree) at i * degree + r - 1 and
    then the falling factorials ``perms``.  The entry at flat position
    cells[k] is the product, in ``Poly.deriv_eval``'s order, of the table
    items that picks[k] names; factors of 1 are exact no-ops and left out.
    Entries with some beta_i < alpha_i are zero and have no cell.
    """
    index: dict[float, int] = {}
    cells, picks = [], []
    betas = multi_indices(n, degree)
    for a, alpha in enumerate(orders):
        for b, beta in enumerate(betas):
            if any(bi < ai for ai, bi in zip(alpha, beta)):
                continue
            pick = []
            for i, (ai, bi) in enumerate(zip(alpha, beta)):
                perm = math.perm(bi, ai)
                if perm != 1:
                    pick.append(n * degree + index.setdefault(float(perm), len(index)))
                if bi > ai:
                    pick.append(i * degree + bi - ai - 1)
            cells.append(a * len(betas) + b)
            picks.append(tuple(pick))
    cells = np.array(cells, dtype=np.intp)
    cells.flags.writeable = False
    return cells, tuple(picks), tuple(index)


def add_shifted_power(
    out: dict[MultiIndex, float], lead: float, beta: MultiIndex, x: Sequence[float]
) -> None:
    """Add lead * (y - x)^beta to ``out``, expanded into origin monomials
    through exact binomials."""
    for gamma, factors in _binomial_terms(tuple(beta)):
        c = lead
        for (comb, rest), xi in zip(factors, x):
            c *= comb
            if rest:
                c *= (-xi) ** rest
        if c != 0.0:
            out[gamma] = out.get(gamma, 0.0) + c


@lru_cache(maxsize=None)
def _binomial_terms(beta: MultiIndex) -> tuple:
    """Every gamma <= beta, in ``product`` order, with its factors
    (comb(beta_i, gamma_i), beta_i - gamma_i) per coordinate."""
    return tuple(
        (gamma, tuple((math.comb(b, g), b - g) for b, g in zip(beta, gamma)))
        for gamma in product(*(range(b + 1) for b in beta))
    )


@dataclass(frozen=True)
class Poly:
    """Polynomial of degree <= ``degree`` on R^n, coefficients about the origin.

    Zero coefficients are dropped at construction so that equality of the
    stored mappings is semantic equality.
    """

    n: int
    degree: int
    coef: Mapping[MultiIndex, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.degree < 0:
            raise ValueError("degree bound must be non-negative")
        clean: dict[MultiIndex, float] = {}
        for alpha, c in self.coef.items():
            alpha = tuple(map(int, alpha))
            if len(alpha) != self.n or min(alpha) < 0:
                raise ValueError(f"bad multi-index {alpha} for dimension {self.n}")
            if sum(alpha) > self.degree:
                raise ValueError(
                    f"coefficient order {mi_order(alpha)} exceeds degree bound {self.degree}"
                )
            c = float(c)
            if c != 0.0:
                clean[alpha] = c
        object.__setattr__(self, "coef", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int, degree: int) -> "Poly":
        return Poly(n=n, degree=degree, coef={})

    @staticmethod
    def constant(n: int, degree: int, value: float) -> "Poly":
        return Poly(n=n, degree=degree, coef={(0,) * n: value})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self.coef)
        for alpha, c in other.coef.items():
            out[alpha] = out.get(alpha, 0.0) + c
        return Poly(n=self.n, degree=max(self.degree, other.degree), coef=out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self.coef)
        for alpha, c in other.coef.items():
            out[alpha] = out.get(alpha, 0.0) - c
        return Poly(n=self.n, degree=max(self.degree, other.degree), coef=out)

    def scale(self, gamma: float) -> "Poly":
        return Poly(
            n=self.n,
            degree=self.degree,
            coef={a: gamma * c for a, c in self.coef.items()},
        )

    def _check_compatible(self, other: "Poly") -> None:
        if self.n != other.n:
            raise ValueError("polynomial dimension mismatch")

    # -- evaluation --------------------------------------------------------

    def eval(self, x: Sequence[float]) -> float:
        if len(x) != self.n:
            raise ValueError("point dimension mismatch")
        total = 0.0
        for alpha, c in self.coef.items():
            term = c
            for xi, ai in zip(x, alpha):
                if ai:
                    term *= xi**ai
            total += term
        return total

    __call__ = eval

    def deriv_eval(self, alpha: Sequence[int], x: Sequence[float]) -> float:
        """Exact value of the alpha-th partial derivative at x.

        Orders above the degree bound are allowed and give 0.
        """
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.n or len(x) != self.n:
            raise ValueError("dimension mismatch")
        total = 0.0
        for beta, c in self.coef.items():
            if any(b < a for a, b in zip(alpha, beta)):
                continue
            term = c
            for ai, bi, xi in zip(alpha, beta, x):
                term *= math.perm(bi, ai)
                rest = bi - ai
                if rest:
                    term *= xi**rest
            total += term
        return total

    # -- Taylor recentering --------------------------------------------------

    def taylor(self, x: Sequence[float], k: int) -> "Poly":
        """Degree-<=k Taylor polynomial at x, re-expanded about the origin."""
        if k < 0:
            raise ValueError("Taylor order must be non-negative")
        if len(x) != self.n:
            raise ValueError("point dimension mismatch")
        out: dict[MultiIndex, float] = {}
        for alpha in multi_indices(self.n, min(k, self.degree)):
            a_coef = self.deriv_eval(alpha, x) / mi_factorial(alpha)
            if a_coef != 0.0:
                add_shifted_power(out, a_coef, alpha, x)
        return Poly(n=self.n, degree=k, coef=out)
