"""Sparse multivariate polynomial algebra over exact rationals.

A :class:`MultiPoly` is sum(nums[e] x^e) / den: a tuple of variable names, a
positive int denominator and a map from exponent vectors to nonzero int
numerators, always in lowest terms.  That is the one stored form.  Sums,
products, scaling and substitution all run on the integers, and
:attr:`MultiPoly.terms` is a read-only view with one Fraction per monomial.
It carries every symbolic object of the pipeline: hypergeometric polynomials
(in z, or in z and b when the index m3 is itself a polynomial in b),
cleared-denominator inequality polynomials, positivity certificates and their
squares.

Operations on polynomials over different rings first align both operands to
the union variable list (left operand's order first, then the right operand's
new variables), so callers can freely mix rings.  All values are immutable.

Evaluation at a rational point sums integer powers of each variable's
numerator and denominator and reduces once at the end.

Every change of variable runs through one integer kernel,
:func:`_taylor_shift`: homogenize, Taylor-shift, scale, on a dense coefficient
list.  :meth:`MultiPoly.substitute` applies it to each coefficient column of
the maps the proof uses, var = (a + b w^2)/c and, with its denominator
cleared, var = (a + b w^2)/(c (1 + w^2)).  For many points of one grid
z = (a + k b)/c, :func:`affine_form` turns a univariate polynomial into an
integer polynomial in the grid index k, which :func:`horner` evaluates at each
integer k.  :func:`descartes_variations` bounds the roots of such an integer
polynomial on an open interval (lo, hi) by Descartes' rule of signs after the
Moebius map x = (lo + hi t)/(1 + t); a count of 0 certifies that it has none
there.

JSON is the one serialized form (:meth:`MultiPoly.to_json_dict`, read back by
:meth:`MultiPoly.from_json_dict`), with coefficients as exact rational strings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Iterator, Mapping, Sequence

from .exactnum import RationalLike, rational

Exponents = tuple[int, ...]


class MultiPoly:
    """sum(nums[e] x^e) / den over the ring ``vars``: ``den`` is a positive int,
    every key has ``len(vars)`` entries, every numerator is a nonzero int and
    gcd(den, *nums) = 1.  Polynomials over different rings compare equal when
    they agree after variable alignment.  A polynomial is not hashable: no
    table is keyed by one."""

    __slots__ = ("vars", "den", "nums")

    def __init__(self, vars: Sequence[str], terms: Mapping | None = None, den: int = 1):
        """sum(terms[e] x^e) / den, for any rational coefficients: zero terms
        are dropped and the result is put in lowest terms."""
        vars = tuple(vars)
        if type(den) is not int or den <= 0:
            raise ValueError(f"denominator {den!r} is not a positive int")
        coeffs = {tuple(e): c if type(c) is int else rational(c) for e, c in (terms or {}).items()}
        for exps in coeffs:
            if len(exps) != len(vars):
                raise ValueError(f"exponent vector {exps} does not match ring {vars}")
            if not all(type(e) is int for e in exps):
                raise ValueError(f"exponent vector {exps} holds a non-integer")
            if min(exps, default=0) < 0:
                raise ValueError(f"negative exponent in {exps}")
        # over the common denominator of the coefficients: integers only
        common = lcm(*(c.denominator for c in coeffs.values()))
        nums = {e: c.numerator * (common // c.denominator) for e, c in coeffs.items() if c}
        den *= common
        g = gcd(den, *nums.values())
        if g > 1:
            den //= g
            nums = {e: n // g for e, n in nums.items()}
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """``{exponent vector: coefficient}``, one reduced Fraction per
        monomial; a fresh dict on each access."""
        den = self.den
        return {e: Fraction(n, den) for e, n in self.nums.items()}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str] = ()) -> "MultiPoly":
        return MultiPoly(vars, {})

    @staticmethod
    def const(value: RationalLike, vars: Sequence[str] = ()) -> "MultiPoly":
        vars = tuple(vars)
        return MultiPoly(vars, {(0,) * len(vars): value})

    @staticmethod
    def var(name: str, vars: Sequence[str] | None = None) -> "MultiPoly":
        vars = (name,) if vars is None else tuple(vars)
        if name not in vars:
            raise ValueError(f"variable {name!r} not in ring {vars}")
        exps = tuple(1 if v == name else 0 for v in vars)
        return MultiPoly(vars, {exps: 1})

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.nums)

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}")
        i = self.vars.index(var)
        return max((e[i] for e in self.nums), default=-1)

    def coeff(self, exps: Sequence[int]) -> Fraction:
        """Coefficient of the monomial with exponent vector ``exps``, in the
        ring's variable order (0 if absent)."""
        key = tuple(exps)
        if len(key) != len(self.vars):
            raise ValueError("exponent vector length mismatch")
        return Fraction(self.nums.get(key, 0), self.den)

    def constant_term(self) -> Fraction:
        return self.coeff((0,) * len(self.vars))

    def iter_terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Terms in graded-lexicographic order of the ring's variable order."""
        return iter(sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])))

    # ------------------------------------------------------------------
    # ring alignment
    # ------------------------------------------------------------------

    def in_ring(self, vars: Sequence[str]) -> "MultiPoly":
        """Re-express this polynomial over a ring containing all its variables."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        missing = [v for v in self.vars if v not in vars]
        if missing:
            raise ValueError(f"target ring {vars} lacks variables {missing}")
        index = [vars.index(v) for v in self.vars]
        nums: dict[Exponents, int] = {}
        nv = len(vars)
        for exps, n in self.nums.items():
            new = [0] * nv
            for pos, e in zip(index, exps):
                new[pos] = e
            nums[tuple(new)] = n
        return MultiPoly(vars, nums, self.den)

    @staticmethod
    def union_ring(a: "MultiPoly", b: "MultiPoly") -> tuple[str, ...]:
        vars = list(a.vars)
        for v in b.vars:
            if v not in vars:
                vars.append(v)
        return tuple(vars)

    def _aligned(self, other: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        if self.vars == other.vars:
            return self, other
        ring = MultiPoly.union_ring(self, other)
        return self.in_ring(ring), other.in_ring(ring)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: "MultiPoly | RationalLike") -> "MultiPoly":
        a, b = self._aligned(_as_poly(other, self.vars))
        return MultiPoly(a.vars, *_sum_over_lcm((a, b)))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -n for e, n in self.nums.items()}, self.den)

    def __sub__(self, other: "MultiPoly | RationalLike") -> "MultiPoly":
        return self + (-_as_poly(other, self.vars))

    def __rsub__(self, other: "MultiPoly | RationalLike") -> "MultiPoly":
        return _as_poly(other, self.vars) + (-self)

    def __mul__(self, other: "MultiPoly | RationalLike") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        a, b = self._aligned(other)
        if len(a.nums) < len(b.nums):
            a, b = b, a
        # sum(na_i x^ea_i) / La times sum(nb_j x^eb_j) / Lb is
        # sum(na_i nb_j x^(ea_i + eb_j)) / (La Lb)
        b_terms = list(b.nums.items())
        acc: dict[Exponents, int] = {}
        get = acc.get
        for ea, na in a.nums.items():
            for eb, nb in b_terms:
                key = tuple(map(add, ea, eb))
                acc[key] = get(key, 0) + na * nb
        return MultiPoly(a.vars, acc, a.den * b.den)

    __rmul__ = __mul__

    def scale(self, c: RationalLike) -> "MultiPoly":
        c = rational(c)
        k = c.numerator
        nums = {e: n * k for e, n in self.nums.items()}
        return MultiPoly(self.vars, nums, self.den * c.denominator)

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power requires an integer exponent >= 0")
        result = MultiPoly.const(1, self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.den == b.den and a.nums == b.nums

    # ------------------------------------------------------------------
    # substitution and evaluation
    # ------------------------------------------------------------------

    def substitute(self, var: str, w: str, a: RationalLike, b: RationalLike,
                   c: RationalLike = 1, clear: int | None = None) -> "MultiPoly":
        """``var`` replaced by (a + b w^2)/c, exactly; or, given ``clear``,
        (1 + w^2)^clear times this polynomial at var = (a + b w^2)/(c (1 + w^2)),
        which needs clear >= the degree of ``var``.  a, b and c > 0 are
        rationals, and ``w`` is a variable the other variables do not include;
        it goes last in the result's ring.

        Each coefficient column of ``var`` (its dense integer list at one
        monomial of the other variables) goes through the integer kernel:
        :func:`_taylor_shift` for the first map, :func:`_moebius` for the
        second.
        """
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}")
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        if w in rest:
            raise ValueError(f"variable {w!r} is not fresh in ring {self.vars}")
        deg = max(self.degree(var), 0)
        n = deg if clear is None else clear
        if n < deg:
            raise ValueError(f"clear={clear} smaller than degree {deg} in {var!r}")
        a, b, c = rational(a), rational(b), rational(c)
        if c <= 0:
            raise ValueError(f"c = {c} is not positive")
        # (a + b y)/c over ints: multiply through by lcm(den a, den b) den c
        m = lcm(a.denominator, b.denominator)
        a = a.numerator * (m // a.denominator) * c.denominator
        b = b.numerator * (m // b.denominator) * c.denominator
        c = m * c.numerator
        columns: dict[Exponents, list[int]] = {}
        for exps, num in self.nums.items():
            columns.setdefault(exps[:i] + exps[i + 1 :], [0] * (n + 1))[exps[i]] = num
        nums = {}
        for key, p in columns.items():
            q = _taylor_shift(p, a, b, c) if clear is None else _moebius(p, a, b, c)
            for k, coeff in enumerate(q):
                if coeff:
                    nums[key + (2 * k,)] = coeff
        return MultiPoly(rest + (w,), nums, self.den * c**n)

    def eval(self, point: Mapping[str, RationalLike]) -> Fraction:
        """Exact value at a rational point assigning every variable.

        With each variable at n/d and of degree k, the value is
        sum(nums[e] * prod n^e d^(k-e)) / (den * prod d^k): one integer sum,
        reduced once, instead of one Fraction reduction per term.
        """
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"missing assignments for {missing}")
        values = [rational(point[v]) for v in self.vars]
        # columns[j] = (degree, exponent of each term) of the j-th variable
        columns = [(max(exps), exps) for exps in zip(*self.nums)]
        nums, den = self.nums.values(), self.den
        for value, (k, exps) in zip(values, columns):
            n, d = value.numerator, value.denominator
            weights = [d**k]  # weights[e] = n^e d^(k-e)
            for _ in range(k):
                weights.append(weights[-1] // d * n)
            nums = list(map(mul, nums, map(weights.__getitem__, exps)))
            den *= weights[0]
        return Fraction(sum(nums), den)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"c": str(coeff), "e": list(exps)} for exps, coeff in self.iter_terms()
            ],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "MultiPoly":
        """Inverse of :meth:`to_json_dict`.  A repeated exponent vector is an
        error, and so (in the constructor) is an exponent that is not a JSON
        integer (a fraction, a boolean, a string); zero coefficients are
        dropped."""
        vars = tuple(data["vars"])
        terms: dict[Exponents, Fraction] = {}
        for item in data["terms"]:
            exps = tuple(item["e"])
            if exps in terms:
                raise ValueError(f"duplicate monomial {exps} in polynomial data")
            terms[exps] = rational(item["c"])
        return MultiPoly(vars, terms)

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars!r}, {len(self.nums)} terms)"


def affine_form(poly: MultiPoly, a: int, b: int, c: int) -> tuple[list[int], int]:
    """(q, scale) for a univariate ``poly`` of degree d and ints a, b, c > 0:
    sum(q[i] k^i) = scale * poly((a + k b)/c) as polynomials in k, with the
    positive int scale = c^d den.  The zero polynomial gives ([], 1).
    Read densely from ``nums``, q is one :func:`_taylor_shift`; evaluate it at
    an integer k with :func:`horner`.
    """
    if len(poly.vars) != 1:
        raise ValueError(f"affine_form needs a univariate polynomial, not one over {poly.vars}")
    if type(c) is not int or c <= 0:
        raise ValueError(f"denominator {c!r} is not a positive int")
    d = poly.degree(poly.vars[0])
    if d < 0:
        return [], 1
    p = [0] * (d + 1)
    for (j,), n in poly.nums.items():
        p[j] = n
    return _taylor_shift(p, a, b, c), c**d * poly.den


def horner(coeffs: Sequence[int], k: int) -> int:
    """sum(coeffs[i] k^i) at an int k; 0 for an empty list."""
    value = 0
    for q in reversed(coeffs):
        value = value * k + q
    return value


def descartes_variations(coeffs: Sequence[int], lo: int, hi: int) -> int:
    """Sign variations of (1 + t)^n p((lo + hi t)/(1 + t)), for the nonzero
    polynomial p = sum(coeffs[i] x^i) of degree n and ints lo < hi.

    The map sends t in (0, oo) onto x in (lo, hi), so by Descartes' rule of
    signs the count is the number of roots of p in the open interval (lo, hi),
    with multiplicity, plus an even number: 0 certifies that p has no root
    there.  It is counted on the :func:`_moebius` image of (hi, lo), the same
    polynomial with its coefficients reversed (t -> 1/t), whose first Taylor
    shift, by lo, is skipped when lo = 0.  The zero polynomial, which
    vanishes everywhere, raises ValueError.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, not {lo}, {hi}")
    p = list(coeffs)
    while p and not p[-1]:
        p.pop()
    if not p:
        raise ValueError("the zero polynomial has a root at every point")
    signs = [c > 0 for c in _moebius(p, hi, lo) if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _taylor_shift(p: Sequence[int], s: int, r: int = 1, c: int = 1) -> list[int]:
    """c^n p((s + r x)/c) for the int coefficient list p = [p_0, ..., p_n]:
    homogenized by c (p_j -> p_j c^(n-j)), Taylor-shifted by s (x -> x + s)
    and scaled by r (x -> r x).  The one change-of-variable loop of the
    module; integers only."""
    p = list(p)
    n = len(p) - 1
    if c != 1:
        power = 1
        for j in range(n, -1, -1):
            p[j] *= power
            power *= c
    if s:  # the Moebius map's shifts by 1 skip the product
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                p[j] += p[j + 1] if s == 1 else s * p[j + 1]
    if r != 1:
        power = 1
        for j in range(n + 1):
            p[j] *= power
            power *= r
    return p


def _moebius(p: Sequence[int], a: int, b: int, c: int = 1) -> list[int]:
    """(c (1 + t))^n p((a + b t)/(c (1 + t))) for p = [p_0, ..., p_n]: since
    (a + b t)/(1 + t) = b + (a - b)/(1 + t), the reversed list of
    c^n p((b + (a - b) x)/c), shifted by 1."""
    return _taylor_shift(_taylor_shift(p, b, a - b, c)[::-1], 1)


def _sum_over_lcm(polys: Sequence[MultiPoly]) -> tuple[dict[Exponents, int], int]:
    """(numerators, denominator) of the sum of polynomials over one ring, put
    over the lcm of their denominators; not reduced."""
    den = lcm(*(p.den for p in polys))
    acc: dict[Exponents, int] = {}
    get = acc.get
    for p in polys:
        k = den // p.den
        for e, n in p.nums.items():
            acc[e] = get(e, 0) + n * k
    return acc, den


def _as_poly(value: "MultiPoly | RationalLike", vars: Sequence[str]) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.const(value, vars)

