"""Truncated integer power series and the six generating functions.

All coefficients are exact Python integers. A series of truncation N stores
c_0..c_N; arithmetic never silently exceeds the truncation, so every operation
is exact for the exponents it reports.

The four single-modulus functions (partitions, t-cores, self-conjugate
t-cores, t-bar-cores) are eta products, products of factors (1 - x**a)**b,
evaluated in place by :func:`eta_product`. The three joint functions multiply
such a product by powers of finite census polynomials of the reduced coprime
pair. Each census polynomial counts cores by size with the lattice path DP
:func:`stcores.lattice.census_by_size` on the Anderson, diagonal-hooks or
yin-yang grid, so no path is walked and no partition is built; the path
enumerators stay the independent source for the bijections and cross-checks.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from typing import Iterable

from .lattice import (
    anderson_grid,
    census_by_size,
    dh_grid,
    yinyang_grid,
)


class TruncatedSeries:
    """A power series known exactly up to an inclusive truncation exponent."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int], truncation: int | None = None):
        cs = list(coeffs)
        if truncation is not None:
            if truncation < 0:
                raise ValueError("truncation must be nonnegative")
            cs = cs[: truncation + 1] + [0] * (truncation + 1 - len(cs))
        elif not cs:
            raise ValueError("series needs either coefficients or a truncation")
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def one(cls, truncation: int) -> "TruncatedSeries":
        return cls([1], truncation=truncation)

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.truncation:
            raise IndexError(f"exponent {n} outside truncation {self.truncation}")
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.truncation >= 8 else ""
        return f"TruncatedSeries([{head}{tail}], truncation={self.truncation})"

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.truncation, other.truncation)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.truncation, other.truncation)
        return TruncatedSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)]
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.truncation, other.truncation)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a:
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return TruncatedSeries(out)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        if exponent == 0:
            return TruncatedSeries.one(self.truncation)
        # Square-and-multiply from the low bit, with no product by one and no
        # squaring past the top bit: floor(log2 e) + popcount(e) - 1 products.
        result = None
        base = self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    def substitute_power(self, g: int) -> "TruncatedSeries":
        """The series in x**g, at the same truncation."""
        if g < 1:
            raise ValueError("g must be >= 1")
        n = self.truncation
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if i * g > n:
                break
            out[i * g] = a
        return TruncatedSeries(out)

    def truncate(self, truncation: int) -> "TruncatedSeries":
        if truncation > self.truncation:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs, truncation=truncation)


def eta_product(factors: Iterable[tuple[int, int]], truncation: int) -> TruncatedSeries:
    """The product of (1 - x**a)**b over the (a, b) pairs, any integer b.

    Evaluated in place on one coefficient list, one pass per unit of |b|:
    multiplying by 1 - x**a is c[i] -= c[i-a] from the top down, dividing by
    it is c[i] += c[i-a] from the bottom up. Factors with a > truncation are
    1 within the truncation and cost nothing.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    c = [1] + [0] * truncation
    for a, b in factors:
        if a < 1:
            raise ValueError("a must be >= 1")
        if a > truncation:
            continue
        for _ in range(abs(b)):
            if b > 0:
                for i in range(truncation, a - 1, -1):
                    c[i] -= c[i - a]
            else:
                for i in range(a, truncation + 1):
                    c[i] += c[i - a]
    return TruncatedSeries(c)


def partition_gf(truncation: int) -> TruncatedSeries:
    """Coefficients p(0..N): the product of 1/(1 - x**n)."""
    return eta_product(((n, -1) for n in range(1, truncation + 1)), truncation)


def core_gf(t: int, truncation: int) -> TruncatedSeries:
    """Coefficients f_t(0..N): the product of (1 - x**(t n))**t / (1 - x**n)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    factors = [(n, -1) for n in range(1, truncation + 1)]
    factors += [(t * n, t) for n in range(1, truncation // t + 1)]
    return eta_product(factors, truncation)


def selfconj_core_gf(t: int, truncation: int) -> TruncatedSeries:
    """Coefficients f*_t(0..N) for self-conjugate t-cores.

    Even t: product of (1 - x**(2tn))**(t/2) (1 + x**(2n-1)).
    Odd t: product of (1 - x**(2tn))**((t-1)/2) (1 + x**(2n-1)) / (1 + x**(t(2n-1))).
    Each 1 + x**m enters as (1 - x**(2m)) / (1 - x**m).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    factors = [(2 * t * n, t // 2) for n in range(1, truncation // (2 * t) + 1)]
    for m in range(1, truncation + 1, 2):
        factors += [(2 * m, 1), (m, -1)]
    if t % 2 == 1:
        for m in range(t, truncation + 1, 2 * t):
            factors += [(2 * m, -1), (m, 1)]
    return eta_product(factors, truncation)


def barcore_gf(t: int, truncation: int) -> TruncatedSeries:
    """Coefficients f_tbar(0..N) for t-bar-cores, odd t.

    The product of (1 - x**(2n)) (1 - x**(tn))**((t+1)/2) over
    (1 - x**n) (1 - x**(2tn)).
    """
    if t < 1 or t % 2 == 0:
        raise ValueError("t must be odd and >= 1")
    factors = [(n, -1) for n in range(1, truncation + 1)]
    factors += [(2 * n, 1) for n in range(1, truncation // 2 + 1)]
    factors += [(t * n, (t + 1) // 2) for n in range(1, truncation // t + 1)]
    factors += [(2 * t * n, -1) for n in range(1, truncation // (2 * t) + 1)]
    return eta_product(factors, truncation)


@cache
def _census(kind: str, s: int, t: int) -> tuple[int, ...]:
    """Number of cores of each size in the finite census of a coprime pair.

    "straight": (s,t)-cores, by the path DP on the Anderson grid.
    "bar": (s-bar, t-bar)-cores, by the path DP on the yin-yang grid.
    "selfconj": self-conjugate (s,t)-cores, by the path DP on the
    diagonal-hooks grid.
    """
    s, t = sorted((s, t))
    if kind == "straight":
        return tuple(census_by_size(anderson_grid(s, t), beta_sets=True))
    if kind == "bar":
        return tuple(census_by_size(yinyang_grid(s, t)))
    return tuple(census_by_size(dh_grid(s, t)))


def _census_polynomial(kind: str, s: int, t: int, truncation: int) -> TruncatedSeries:
    """Finite census polynomial, the sum of x**|p| over one census, gcd = 1.

    ``kind`` names the census as in :func:`_census`, which is cached per
    census and pair, not per truncation.
    """
    if s == 1 or t == 1:
        return TruncatedSeries.one(truncation)
    return TruncatedSeries(_census(kind, s, t), truncation=truncation)


def psi_st_gf(s: int, t: int, truncation: int) -> TruncatedSeries:
    """Generating function for (s,t)-cores.

    Coprime parameters give the finite census polynomial; otherwise, with
    g = gcd(s,t) and reduced parameters s' = s/g, t' = t/g, the series is
    Psi_{s',t'}(x**g)**g * F_g(x).
    """
    if s <= 1 or t <= 1:
        raise ValueError("s and t must exceed 1")
    g = gcd(s, t)
    if g == 1:
        return _census_polynomial("straight", s, t, truncation)
    base = _census_polynomial("straight", s // g, t // g, truncation)
    return base.substitute_power(g) ** g * core_gf(g, truncation)


def psi_star_st_gf(s: int, t: int, truncation: int) -> TruncatedSeries:
    """Generating function for self-conjugate (s,t)-cores, for g = gcd(s,t) > 1.

    Even g: F*_g(x) * Psi_{s',t'}(x**(2g))**(g/2).
    Odd g:  F*_g(x) * Psi_{s',t'}(x**(2g))**((g-1)/2) * Psi*_{s',t'}(x**g).

    Raises:
        ValueError: when gcd(s,t) = 1 (the finite census covers that case).
    """
    if s <= 1 or t <= 1:
        raise ValueError("s and t must exceed 1")
    g = gcd(s, t)
    if g == 1:
        raise ValueError("gcd(s, t) must exceed 1; use the finite census at g = 1")
    sp, tp = s // g, t // g
    base = _census_polynomial("straight", sp, tp, truncation)
    result = selfconj_core_gf(g, truncation)
    if g % 2 == 0:
        return result * base.substitute_power(2 * g) ** (g // 2)
    result = result * base.substitute_power(2 * g) ** ((g - 1) // 2)
    star_base = _census_polynomial("selfconj", sp, tp, truncation)
    return result * star_base.substitute_power(g)


def psi_bar_st_gf(s: int, t: int, truncation: int) -> TruncatedSeries:
    """Generating function for (s-bar, t-bar)-cores, s and t odd.

    Coprime parameters give the finite census polynomial; otherwise the series
    is Psi-bar_{s',t'}(x**g) * Psi_{s',t'}(x**g)**((g-1)/2) * F_gbar(x).
    """
    if s <= 1 or t <= 1 or s % 2 == 0 or t % 2 == 0:
        raise ValueError("s and t must be odd and exceed 1")
    g = gcd(s, t)
    if g == 1:
        return _census_polynomial("bar", s, t, truncation)
    sp, tp = s // g, t // g
    bar_base = _census_polynomial("bar", sp, tp, truncation)
    base = _census_polynomial("straight", sp, tp, truncation)
    return (
        bar_base.substitute_power(g)
        * base.substitute_power(g) ** ((g - 1) // 2)
        * barcore_gf(g, truncation)
    )


def convolution_psi(s: int, t: int, truncation: int) -> TruncatedSeries:
    """(s,t)-core counts by the explicit core/quotient convolution.

    psi(n) = sum over w of q(w) f_g(n - gw), with q(w) the number of g-tuples
    of (s',t')-cores of total size w. Equals :func:`psi_st_gf` coefficientwise.
    """
    g = gcd(s, t)
    if g == 1:
        raise ValueError("gcd(s, t) must exceed 1")
    q = _census_polynomial("straight", s // g, t // g, truncation) ** g
    f = core_gf(g, truncation)
    out = [
        sum(q[w] * f[n - g * w] for w in range(n // g + 1))
        for n in range(truncation + 1)
    ]
    return TruncatedSeries(out)


def convolution_psi_star(s: int, t: int, truncation: int) -> TruncatedSeries:
    """Self-conjugate (s,t)-core counts by the explicit convolution.

    Even g: psi*(n) = sum over w of q_{g/2}(w) f*_g(n - 2wg).
    Odd g:  psi*(n) = sum over w1, w2 of q_{(g-1)/2}(w1) psi*_{s',t'}(w2)
            f*_g(n - (2 w1 + w2) g).
    """
    g = gcd(s, t)
    if g == 1:
        raise ValueError("gcd(s, t) must exceed 1")
    sp, tp = s // g, t // g
    fstar = selfconj_core_gf(g, truncation)
    base = _census_polynomial("straight", sp, tp, truncation)
    out = []
    if g % 2 == 0:
        q = base ** (g // 2)
        for n in range(truncation + 1):
            out.append(
                sum(q[w] * fstar[n - 2 * w * g] for w in range(n // (2 * g) + 1))
            )
    else:
        q = base ** ((g - 1) // 2)
        star_base = _census_polynomial("selfconj", sp, tp, truncation)
        for n in range(truncation + 1):
            total = 0
            for w1 in range(n // (2 * g) + 1):
                for w2 in range((n - 2 * w1 * g) // g + 1):
                    total += q[w1] * star_base[w2] * fstar[n - (2 * w1 + w2) * g]
            out.append(total)
    return TruncatedSeries(out)


def convolution_psi_bar(s: int, t: int, truncation: int) -> TruncatedSeries:
    """(s-bar, t-bar)-core counts by the explicit convolution.

    psi-bar(n) = sum over w of q-bar(w) f_gbar(n - gw), where q-bar counts
    quotients made of one (s'-bar, t'-bar)-core and (g-1)/2 straight
    (s',t')-cores with total size w.
    """
    if s % 2 == 0 or t % 2 == 0:
        raise ValueError("s and t must be odd")
    g = gcd(s, t)
    if g == 1:
        raise ValueError("gcd(s, t) must exceed 1")
    sp, tp = s // g, t // g
    qbar = _census_polynomial("bar", sp, tp, truncation) * (
        _census_polynomial("straight", sp, tp, truncation) ** ((g - 1) // 2)
    )
    f = barcore_gf(g, truncation)
    out = [
        sum(qbar[w] * f[n - g * w] for w in range(n // g + 1))
        for n in range(truncation + 1)
    ]
    return TruncatedSeries(out)


def progression_extract(
    a_series: TruncatedSeries, b_series: TruncatedSeries, g: int, r: int
) -> tuple[list[int], list[int]]:
    """Both sides of c(gk + r) = sum over m of a(k - m) b(gm + r).

    Here C(x) = A(x**g) B(x). Returns (lhs, rhs) for every k with
    gk + r within truncation; callers assert equality.

    Raises:
        ValueError: unless 1 <= r <= g - 1.
    """
    if g < 2:
        raise ValueError("g must be >= 2")
    if not 1 <= r <= g - 1:
        raise ValueError("r must satisfy 1 <= r <= g - 1")
    n = min(a_series.truncation, b_series.truncation)
    c_series = a_series.truncate(n).substitute_power(g) * b_series.truncate(n)
    lhs = []
    rhs = []
    for k in range((n - r) // g + 1):
        lhs.append(c_series[g * k + r])
        rhs.append(
            sum(
                a_series[k - m] * b_series[g * m + r]
                for m in range(k + 1)
                if g * m + r <= n
            )
        )
    return lhs, rhs


def congruence_scan(series: TruncatedSeries, g: int, modulus: int) -> tuple[int, ...]:
    """Residues r with every coefficient on the progression gk + r divisible.

    Scans 0 <= r <= g - 1 over the whole truncation range; a reported residue
    means the congruence holds up to the truncation, nothing more.

    Raises:
        ValueError: unless g >= 2 and modulus >= 2.
    """
    if g < 2 or modulus < 2:
        raise ValueError("need g >= 2 and modulus >= 2")
    out = []
    for r in range(g):
        if all(
            series[n] % modulus == 0
            for n in range(r, series.truncation + 1, g)
        ):
            out.append(r)
    return tuple(out)