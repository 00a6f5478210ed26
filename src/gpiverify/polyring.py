"""Sparse multivariate polynomial algebra over exact rationals.

A :class:`MultiPoly` stores a tuple of variable names and a map from exponent
vectors to nonzero rational coefficients.  It is the universal carrier for the
symbolic objects of the verification pipeline: hypergeometric polynomials,
cleared-denominator inequality polynomials, positivity certificates and their
squares.

Operations on polynomials over different rings first align both operands to
the union variable list (left operand's order first, then the right operand's
new variables), so callers can freely mix rings.  All values are immutable
after construction; no stored coefficient is ever zero.

Evaluation at a rational point runs over the integers: each polynomial keeps,
once built, the common denominator of its coefficients and the integer
numerators over it, and the value is assembled from integer powers of each
variable's numerator and denominator and reduced once at the end, or not
at all when only its sign matters (:meth:`MultiPoly.eval_unreduced`).
Products run on the same integer numerators: each pair of terms contributes
one integer product, and each result term is reduced to a Fraction once.

JSON is the one serialized form (:meth:`MultiPoly.to_json_dict`, read back by
:meth:`MultiPoly.from_json_dict`), with coefficients as exact rational strings.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .exactnum import RationalLike, rational

Exponents = tuple[int, ...]


class MultiPoly:
    """Polynomial in canonical sparse form: ``{exponent vector: coefficient}``.

    Exponent vectors always have exactly ``len(vars)`` entries; trailing zeros
    are significant for equality of the stored keys but two polynomials over
    different rings compare equal when they agree after variable alignment.
    """

    __slots__ = ("vars", "terms", "_int_form")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponents, Fraction] | None = None):
        object.__setattr__(self, "vars", tuple(vars))
        clean: dict[Exponents, Fraction] = {}
        if terms:
            nv = len(self.vars)
            for exps, coeff in terms.items():
                if len(exps) != nv:
                    raise ValueError(f"exponent vector {exps} does not match ring {self.vars}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                coeff = rational(coeff)
                if coeff != 0:
                    clean[tuple(exps)] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_int_form", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("MultiPoly is immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str] = ()) -> "MultiPoly":
        return MultiPoly(vars, {})

    @staticmethod
    def const(value: RationalLike, vars: Sequence[str] = ()) -> "MultiPoly":
        value = rational(value)
        vars = tuple(vars)
        if value == 0:
            return MultiPoly(vars, {})
        return MultiPoly(vars, {(0,) * len(vars): value})

    @staticmethod
    def var(name: str, vars: Sequence[str] | None = None) -> "MultiPoly":
        vars = (name,) if vars is None else tuple(vars)
        if name not in vars:
            raise ValueError(f"variable {name!r} not in ring {vars}")
        exps = tuple(1 if v == name else 0 for v in vars)
        return MultiPoly(vars, {exps: Fraction(1)})

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}")
        i = self.vars.index(var)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coeff(self, exps: Sequence[int] | Mapping[str, int]) -> Fraction:
        """Coefficient of a monomial (0 if absent).

        Accepts either a full exponent vector or a {var: exponent} mapping
        with omitted variables meaning exponent 0.
        """
        if isinstance(exps, Mapping):
            unknown = set(exps) - set(self.vars)
            if unknown:
                raise ValueError(f"unknown variables {sorted(unknown)}")
            key = tuple(exps.get(v, 0) for v in self.vars)
        else:
            key = tuple(exps)
            if len(key) != len(self.vars):
                raise ValueError("exponent vector length mismatch")
        return self.terms.get(key, Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def iter_terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Terms in graded-lexicographic order of the ring's variable order."""
        return iter(sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])))

    def coefficients(self) -> Iterable[Fraction]:
        return self.terms.values()

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
        terms: dict[Exponents, Fraction] = {}
        nv = len(vars)
        for exps, coeff in self.terms.items():
            new = [0] * nv
            for pos, e in zip(index, exps):
                new[pos] = e
            terms[tuple(new)] = coeff
        return MultiPoly(vars, terms)

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
        other = _as_poly(other, self.vars)
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for exps, coeff in b.terms.items():
            new = terms.get(exps, Fraction(0)) + coeff
            if new == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = new
        return MultiPoly(a.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly | RationalLike") -> "MultiPoly":
        return self + (-_as_poly(other, self.vars))

    def __rsub__(self, other: "MultiPoly | RationalLike") -> "MultiPoly":
        return _as_poly(other, self.vars) + (-self)

    def __mul__(self, other: "MultiPoly | RationalLike") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(rational(other))
        a, b = self._aligned(other)
        if len(a.terms) < len(b.terms):
            a, b = b, a
        # with a = sum(na_i x^ea_i) / La and b likewise, the product is
        # sum(na_i nb_j x^(ea_i + eb_j)) / (La Lb): integers until the end
        den_a, nums_a = _numerators(a.terms.values())
        den_b, nums_b = _numerators(b.terms.values())
        b_terms = list(zip(b.terms, nums_b))
        acc: dict[Exponents, int] = {}
        get = acc.get
        for ea, na in zip(a.terms, nums_a):
            for eb, nb in b_terms:
                key = tuple(map(add, ea, eb))
                acc[key] = get(key, 0) + na * nb
        den = den_a * den_b
        return MultiPoly(a.vars, {e: Fraction(n, den) for e, n in acc.items()})

    __rmul__ = __mul__

    def scale(self, c: RationalLike) -> "MultiPoly":
        c = rational(c)
        if c == 0:
            return MultiPoly.zero(self.vars)
        return MultiPoly(self.vars, {e: k * c for e, k in self.terms.items()})

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
        return a.terms == b.terms

    def __hash__(self) -> int:
        # equality ignores unused ring variables, so hash a ring-free form
        canonical = frozenset(
            (frozenset((v, e) for v, e in zip(self.vars, exps) if e), coeff)
            for exps, coeff in self.terms.items()
        )
        return hash(canonical)

    # ------------------------------------------------------------------
    # substitution and evaluation
    # ------------------------------------------------------------------

    def substitute(self, var: str, replacement: "MultiPoly | RationalLike") -> "MultiPoly":
        """Exact composition: replace ``var`` by a polynomial (or constant)."""
        return self.substitute_rational(var, replacement, 1, max(self.degree(var), 0))

    def substitute_rational(
        self,
        var: str,
        num: "MultiPoly | RationalLike",
        den: "MultiPoly | RationalLike",
        clear_power: int,
    ) -> "MultiPoly":
        """Return ``den^clear_power * self(var <- num/den)``, exactly.

        ``clear_power`` must be at least the degree of ``var`` in this
        polynomial so that the result is again a polynomial.
        """
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}")
        deg = self.degree(var)
        if clear_power < deg:
            raise ValueError(
                f"clear_power={clear_power} smaller than degree {deg} in {var!r}:"
                " denominators would remain"
            )
        num = _as_poly(num, ())
        den = _as_poly(den, ())
        rest_vars = tuple(v for v in self.vars if v != var)
        ring = list(rest_vars)
        for p in (num, den):
            for v in p.vars:
                if v not in ring:
                    ring.append(v)
        ring = tuple(ring)
        i = self.vars.index(var)
        by_power: dict[int, dict[Exponents, Fraction]] = {}
        for exps, coeff in self.terms.items():
            rest = exps[:i] + exps[i + 1 :]
            by_power.setdefault(exps[i], {})[rest] = coeff
        num_pows: dict[int, MultiPoly] = {0: MultiPoly.const(1, ring)}
        den_pows: dict[int, MultiPoly] = {0: MultiPoly.const(1, ring)}
        num_r, den_r = num.in_ring(ring), den.in_ring(ring)
        for k in range(1, clear_power + 1):
            num_pows[k] = num_pows[k - 1] * num_r
            den_pows[k] = den_pows[k - 1] * den_r
        result = MultiPoly.zero(ring)
        for k, rest_terms in by_power.items():
            part = MultiPoly(rest_vars, rest_terms).in_ring(ring)
            result = result + part * (num_pows[k] * den_pows[clear_power - k])
        return result

    def _integer_form(self) -> tuple[int, list[int], list[tuple[int, tuple[int, ...]]]]:
        """(L, numerators, columns), built on first use: L is the common
        denominator of the coefficients, numerators[i] is c*L for the i-th
        term, and columns[j] is (degree, exponent of each term) for the j-th
        variable."""
        form = self._int_form
        if form is None:
            den, nums = _numerators(self.terms.values())
            columns = [(max(exps), exps) for exps in zip(*self.terms)]
            form = (den, nums, columns)
            object.__setattr__(self, "_int_form", form)
        return form

    def eval(self, point: Mapping[str, RationalLike]) -> Fraction:
        """Exact value at a rational point assigning every variable: the
        quotient of :meth:`eval_unreduced`, reduced once."""
        return Fraction(*self.eval_unreduced(point))

    def eval_unreduced(self, point: Mapping[str, RationalLike]) -> tuple[int, int]:
        """(numerator, denominator) of the value at a rational point, not
        reduced; the denominator is positive, so a caller that needs only a
        sign or a comparison can skip the gcd.

        With each variable at n/d and of degree k, the value is
        sum(c*L * prod n^e d^(k-e)) / (L * prod d^k): one integer sum instead
        of one Fraction reduction per term.
        """
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"missing assignments for {missing}")
        values = [rational(point[v]) for v in self.vars]
        den, nums, columns = self._integer_form()
        for value, (k, exps) in zip(values, columns):
            n, d = value.numerator, value.denominator
            weights = [d**k]  # weights[e] = n^e d^(k-e)
            for _ in range(k):
                weights.append(weights[-1] // d * n)
            nums = list(map(mul, nums, map(weights.__getitem__, exps)))
            den *= weights[0]
        return sum(nums), den

    def derivative(self, var: str) -> "MultiPoly":
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}")
        i = self.vars.index(var)
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            key = exps[:i] + (e - 1,) + exps[i + 1 :]
            terms[key] = terms.get(key, Fraction(0)) + coeff * e
        return MultiPoly(self.vars, terms)

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
        """Inverse of :meth:`to_json_dict`.  An exponent that is not a JSON
        integer (a fraction, a boolean, a string) and a repeated exponent
        vector are errors; zero coefficients are dropped by the constructor."""
        vars = tuple(data["vars"])
        terms: dict[Exponents, Fraction] = {}
        for item in data["terms"]:
            exps = tuple(item["e"])
            if any(type(e) is not int for e in exps):
                raise ValueError(f"exponent vector {item['e']!r} holds a non-integer")
            if exps in terms:
                raise ValueError(f"duplicate monomial {exps} in polynomial data")
            terms[exps] = rational(item["c"])
        return MultiPoly(vars, terms)

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars!r}, {len(self.terms)} terms)"


def _numerators(coeffs: Collection[Fraction]) -> tuple[int, list[int]]:
    """(L, [c*L for each c]): the common denominator and the integer
    numerators over it."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _as_poly(value: "MultiPoly | RationalLike", vars: Sequence[str]) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.const(rational(value), vars)


def falling_factorial(var: str, j: int, vars: Sequence[str] | None = None) -> MultiPoly:
    """var * (var-1) * ... * (var-j+1) as a polynomial; j = 0 gives 1."""
    if j < 0:
        raise ValueError("falling factorial requires j >= 0")
    ring = (var,) if vars is None else tuple(vars)
    x = MultiPoly.var(var, ring)
    result = MultiPoly.const(1, ring)
    for i in range(j):
        result = result * (x - i)
    return result

