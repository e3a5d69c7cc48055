"""Truncated integer power series and the six generating functions.

All coefficients are exact Python integers. A series of truncation N stores
c_0..c_N; arithmetic never silently exceeds the truncation, so every operation
is exact for the exponents it reports.

The four single-modulus functions (partitions, t-cores, self-conjugate
t-cores, t-bar-cores) are eta quotients, products of powers of
P(x**d) = prod (1 - x**(dn)), evaluated in place over Euler's pentagonal
series by :func:`eta_quotient`. The three joint functions multiply such a
quotient F_g (1 at g = 1) by powers of census polynomials of the reduced
pair, each taken before its substitution at x**g or x**(2g), and a power 0
runs no census. Each census polynomial counts the cores of
one lattice family ("straight", "selfconj" or "bar") by size with the path DP
:func:`stcores.lattice.census_by_size`, only up to the size its substitution
can reach within the truncation, so no path is walked and no partition is
built; :func:`stcores.lattice.enumerate_cores_by_paths` stays the independent
source for the bijections and cross-checks. A builder judges every census
it needs with :func:`stcores.lattice.check_census` before any runs, so one
whose estimated work passes the cap is refused first.
"""

from __future__ import annotations

from functools import cache
from math import gcd, prod
from typing import Iterable

from .lattice import census_by_size, check_census
from .partitions import check_divisor, check_modulus, check_pair, common_divisor


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

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.truncation, other.truncation)
        left, right = self.coeffs[: n + 1], other.coeffs[: n + 1]
        # The outer loop skips zeros, so it runs over the sparser factor.
        if left.count(0) < right.count(0):
            left, right = right, left
        out = [0] * (n + 1)
        for i, a in enumerate(left):
            if a:
                for j in range(n + 1 - i):
                    b = right[j]
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
        out[::g] = self.coeffs[: n // g + 1]
        return TruncatedSeries(out)


def eta_quotient(exponents: dict[int, int], truncation: int) -> TruncatedSeries:
    """The product of P(x**d)**e over the (d, e) items, P(y) = prod (1 - y**n).

    By Euler's pentagonal number theorem P(y) is the sum of (-1)**j y**k over
    the generalized pentagonal numbers k = j(3j -+ 1)/2, so P(x**d) has
    O(sqrt(N/d)) terms within the truncation N. Each unit of |e| is one pass
    over them, in place on one coefficient list: multiplying by P(x**d) runs
    from the top down, dividing by it (its constant term is 1) from the bottom
    up. Factors with d > truncation are 1 within the truncation and cost
    nothing.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    c = [1] + [0] * truncation
    for d, e in exponents.items():
        if d < 1:
            raise ValueError("d must be >= 1")
        if d > truncation or not e:
            continue
        # The pentagonal exponents of P(x**d) up to the truncation, by the
        # sign of their term: odd j gives -1, even j gives +1.
        minus: list[int] = []
        plus: list[int] = []
        j = 1
        while (k := d * j * (3 * j - 1) // 2) <= truncation:
            side = minus if j % 2 else plus
            side.append(k)
            if k + d * j <= truncation:
                side.append(k + d * j)
            j += 1
        # With total = sum of c[i-k] over minus - sum over plus, multiplying
        # adds -total to c[i] while the c[i-k] are still unchanged (top down);
        # dividing adds +total over c[i-k] already divided (bottom up).
        if e < 0:
            sign, order = 1, range(d, truncation + 1)
        else:
            sign, order = -1, range(truncation, d - 1, -1)
        for _ in range(abs(e)):
            for i in order:
                total = 0
                for k in minus:
                    if k > i:
                        break
                    total += c[i - k]
                for k in plus:
                    if k > i:
                        break
                    total -= c[i - k]
                c[i] += sign * total
    return TruncatedSeries(c)


def _exponents(*pairs: tuple[int, int]) -> dict[int, int]:
    """The (d, e) pairs as an exponent map, with the e of equal d summed."""
    out: dict[int, int] = {}
    for d, e in pairs:
        out[d] = out.get(d, 0) + e
    return out


def partition_gf(truncation: int) -> TruncatedSeries:
    """Coefficients p(0..N): 1/P(x), the product of 1/(1 - x**n)."""
    return eta_quotient({1: -1}, truncation)


def core_gf(t: int, truncation: int) -> TruncatedSeries:
    """Coefficients f_t(0..N): P(x**t)**t / P(x).

    That is the product of (1 - x**(t n))**t / (1 - x**n).
    """
    check_modulus(t)
    return eta_quotient(_exponents((1, -1), (t, t)), truncation)


def selfconj_core_gf(t: int, truncation: int) -> TruncatedSeries:
    """Coefficients f*_t(0..N) for self-conjugate t-cores.

    Even t: product of (1 - x**(2tn))**(t/2) (1 + x**(2n-1)).
    Odd t: product of (1 - x**(2tn))**((t-1)/2) (1 + x**(2n-1)) / (1 + x**(t(2n-1))).
    As eta quotients, the product of 1 + x**(2n-1) is P(x**2)**2 / (P(x) P(x**4)),
    and for odd t its divisor at x**t is P(x**(2t))**2 / (P(x**t) P(x**(4t))).
    """
    check_modulus(t)
    pairs = [(2 * t, t // 2), (2, 2), (1, -1), (4, -1)]
    if t % 2 == 1:
        pairs += [(2 * t, -2), (t, 1), (4 * t, 1)]
    return eta_quotient(_exponents(*pairs), truncation)


def barcore_gf(t: int, truncation: int) -> TruncatedSeries:
    """Coefficients f_tbar(0..N) for t-bar-cores, odd t.

    The product of (1 - x**(2n)) (1 - x**(tn))**((t+1)/2) over
    (1 - x**n) (1 - x**(2tn)), that is
    P(x**2) P(x**t)**((t+1)/2) / (P(x) P(x**(2t))).
    """
    check_modulus(t, odd=True)
    return eta_quotient(_exponents((2, 1), (t, (t + 1) // 2), (1, -1), (2 * t, -1)), truncation)


@cache
def _census(kind: str, s: int, t: int, limit: int) -> tuple[int, ...]:
    """Number of cores of each size 0..limit in the census of ``kind`` for a coprime pair."""
    return tuple(census_by_size(kind, s, t, limit))


def _census_polynomials(*censuses: tuple[str, int, int, int, int, int]) -> list[TruncatedSeries]:
    """Per row (kind, s, t, truncation, g, e), the e-th power of a census polynomial in x**g.

    The census polynomial of the coprime pair (s, t) sums y**|p| over the
    cores p of :func:`_census` of size up to truncation // g. It is raised to
    the power e in y, at that truncation, and then substituted y = x**g. A
    row with e = 0 is 1: its census neither runs nor is judged. Every other
    census is judged by :func:`stcores.lattice.check_census` before any runs,
    in row order, so the first whose work passes the cap raises ValueError.
    """
    for kind, s, t, truncation, g, e in censuses:
        if e:
            check_census(kind, s, t, truncation // g)
    polynomials = []
    for kind, s, t, truncation, g, e in censuses:
        power = TruncatedSeries(_census(kind, s, t, truncation // g)) ** e if e else TruncatedSeries.one(0)
        polynomials.append(TruncatedSeries(power.coeffs, truncation).substitute_power(g))
    return polynomials


def psi_st_gf(s: int, t: int, truncation: int) -> TruncatedSeries:
    """Generating function for (s,t)-cores.

    With g = gcd(s,t) and reduced parameters s' = s/g, t' = t/g, the series
    is F_g(x) * Psi_{s',t'}(x**g)**g. Coprime parameters give g = 1, F_1 = 1
    and the census polynomial alone.
    """
    check_pair(s, t)
    g = gcd(s, t)
    return prod(_census_polynomials(("straight", s // g, t // g, truncation, g, g)), start=core_gf(g, truncation))


def psi_star_st_gf(s: int, t: int, truncation: int) -> TruncatedSeries:
    """Generating function for self-conjugate (s,t)-cores.

    With g = gcd(s,t) and reduced parameters s', t', the series is
    F*_g(x) * Psi_{s',t'}(x**(2g))**(g//2) * Psi*_{s',t'}(x**g)**(g%2). Coprime
    parameters give g = 1, F*_1 = 1 and the diagonal-hooks census alone.
    """
    check_pair(s, t)
    g = gcd(s, t)
    sp, tp = s // g, t // g
    rows = ("straight", sp, tp, truncation, 2 * g, g // 2), ("selfconj", sp, tp, truncation, g, g % 2)
    return prod(_census_polynomials(*rows), start=selfconj_core_gf(g, truncation))


def psi_bar_st_gf(s: int, t: int, truncation: int) -> TruncatedSeries:
    """Generating function for (s-bar, t-bar)-cores, s and t odd.

    With g = gcd(s,t) and reduced parameters s', t', the series is
    F_gbar(x) * Psi_{s',t'}(x**g)**((g-1)/2) * Psi-bar_{s',t'}(x**g). Coprime
    parameters give g = 1, F_1bar = 1 and the census polynomial alone.
    """
    check_pair(s, t, odd=True)
    g = gcd(s, t)
    sp, tp = s // g, t // g
    rows = ("straight", sp, tp, truncation, g, (g - 1) // 2), ("bar", sp, tp, truncation, g, 1)
    return prod(_census_polynomials(*rows), start=barcore_gf(g, truncation))


def _convolve(q: TruncatedSeries, f: TruncatedSeries, step: int) -> TruncatedSeries:
    """Sum over w of q(w) f(n - step*w), for n up to f's truncation.

    Summed term by term, not by ``__mul__``: the convolution forms are the
    second source that the generating-function products are checked against.
    """
    return TruncatedSeries(
        [sum(q[w] * f[n - step * w] for w in range(n // step + 1)) for n in range(f.truncation + 1)]
    )


def convolution_psi(s: int, t: int, truncation: int) -> TruncatedSeries:
    """(s,t)-core counts by the explicit core/quotient convolution.

    psi(n) = sum over w of q(w) f_g(n - gw), with q(w) the number of g-tuples
    of (s',t')-cores of total size w. Equals :func:`psi_st_gf` coefficientwise.
    """
    check_pair(s, t)
    g = common_divisor(s, t)
    # Only q(w) for gw up to the truncation is read.
    (q,) = _census_polynomials(("straight", s // g, t // g, truncation // g, 1, g))
    return _convolve(q, core_gf(g, truncation), g)


def convolution_psi_star(s: int, t: int, truncation: int) -> TruncatedSeries:
    """Self-conjugate (s,t)-core counts by the explicit convolution.

    Even g: psi*(n) = sum over w of q_{g/2}(w) f*_g(n - 2wg).
    Odd g:  psi*(n) = sum over w1, w2 of q_{(g-1)/2}(w1) psi*_{s',t'}(w2)
            f*_g(n - (2 w1 + w2) g), summed over w2 first.
    """
    check_pair(s, t)
    g = common_divisor(s, t)
    sp, tp = s // g, t // g
    rows = ("straight", sp, tp, truncation // (2 * g), 1, g // 2), ("selfconj", sp, tp, truncation // g, 1, g % 2)
    base, odd = _census_polynomials(*rows)
    # at an even g the odd row is 1, and convolving with it changes nothing
    return _convolve(base, _convolve(odd, selfconj_core_gf(g, truncation), g), 2 * g)


def convolution_psi_bar(s: int, t: int, truncation: int) -> TruncatedSeries:
    """(s-bar, t-bar)-core counts by the explicit convolution.

    psi-bar(n) = sum over w of q-bar(w) f_gbar(n - gw), where q-bar counts
    quotients made of one (s'-bar, t'-bar)-core and (g-1)/2 straight
    (s',t')-cores with total size w.
    """
    check_pair(s, t, odd=True)
    g = common_divisor(s, t)
    sp, tp = s // g, t // g
    rows = ("straight", sp, tp, truncation // g, 1, (g - 1) // 2), ("bar", sp, tp, truncation // g, 1, 1)
    base, bar_base = _census_polynomials(*rows)
    return _convolve(bar_base * base, barcore_gf(g, truncation), g)


def progression_extract(
    a_series: TruncatedSeries, b_series: TruncatedSeries, g: int, r: int
) -> tuple[list[int], list[int]]:
    """Both sides of c(gk + r) = sum over m of a(k - m) b(gm + r).

    Here C(x) = A(x**g) B(x). Returns (lhs, rhs) for every k with
    gk + r within truncation; callers assert equality.

    Raises:
        ValueError: unless 1 <= r <= g - 1.
    """
    check_divisor(g)
    if not 1 <= r <= g - 1:
        raise ValueError("r must satisfy 1 <= r <= g - 1")
    n = min(a_series.truncation, b_series.truncation)
    # The product truncates to the shorter operand, so c_series stops at n.
    c_series = a_series.substitute_power(g) * b_series
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

    Scans 0 <= r <= g - 1 over the whole truncation range. A residue is
    reported only when at least one coefficient on it was checked (r <= the
    truncation), and it means the congruence holds up to the truncation,
    nothing more.

    Raises:
        ValueError: unless g >= 2 (checked first) and modulus >= 2.
    """
    check_divisor(g)
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    top = series.truncation
    return tuple(
        r
        for r in range(min(g, top + 1))
        if all(series[n] % modulus == 0 for n in range(r, top + 1, g))
    )
