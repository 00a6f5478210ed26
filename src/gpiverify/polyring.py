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
variable's numerator and denominator and reduced once at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .exactnum import RationalLike, rational

Exponents = tuple[int, ...]


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the offending line and column."""

    def __init__(self, message: str, pos: int | None = None, text: str = ""):
        self.pos = pos
        self.line = self.column = None
        if pos is not None and text:
            consumed = text[:pos]
            self.line = consumed.count("\n") + 1
            self.column = pos - (consumed.rfind("\n") + 1) + 1
            message = f"{message} (line {self.line}, column {self.column})"
        elif pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)


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
        terms: dict[Exponents, Fraction] = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                new = terms.get(key, Fraction(0)) + ca * cb
                if new == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = new
        return MultiPoly(a.vars, terms)

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
            den = lcm(*(c.denominator for c in self.terms.values()))
            nums = [c.numerator * (den // c.denominator) for c in self.terms.values()]
            columns = [(max(exps), exps) for exps in zip(*self.terms)]
            form = (den, nums, columns)
            object.__setattr__(self, "_int_form", form)
        return form

    def eval(self, point: Mapping[str, RationalLike]) -> Fraction:
        """Exact value at a rational point assigning every variable.

        With each variable at n/d and of degree k, the value is
        sum(c*L * prod n^e d^(k-e)) / (L * prod d^k), one integer sum reduced
        once instead of one Fraction reduction per term.
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
        return Fraction(sum(nums), den)

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
        vars = tuple(data["vars"])
        terms: dict[Exponents, Fraction] = {}
        for item in data["terms"]:
            exps = tuple(int(e) for e in item["e"])
            coeff = rational(item["c"])
            if exps in terms:
                raise ValueError(f"duplicate monomial {exps} in polynomial data")
            if coeff != 0:
                terms[exps] = coeff
        return MultiPoly(vars, terms)

    def to_expr(self) -> str:
        """Human-readable expression, graded-lex term order; parses back equal."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.iter_terms():
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_expr()

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars!r}, {len(self.terms)} terms)"


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


# ----------------------------------------------------------------------
# expression parser
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


class _Parser:
    """Recursive-descent parser for polynomial expressions.

    Grammar (whitespace-adjacency means multiplication, so both
    ``3/2*b^2*c`` and ``48 b^6 c^4`` parse):

        expr   := ['+'|'-'] term (('+'|'-') term)*
        term   := factor (('*'|'/')? factor)*      # '/' needs constant divisor
        factor := base ['^' number]
        base   := number | ident | '(' expr ')'
    """

    def __init__(self, text: str, vars: Sequence[str] | None):
        self.text = text
        self.pos = 0
        self.tokens = self._tokenize(text)
        self.index = 0
        self.fixed_vars = tuple(vars) if vars is not None else None
        self.seen_vars: list[str] = []

    def _tokenize(self, text: str) -> list[tuple[str, str, int]]:
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise PolyParseError(f"unexpected character {stripped[0]!r}", pos, text)
            if m.group("number"):
                tokens.append(("number", m.group("number"), m.start("number")))
            elif m.group("ident"):
                tokens.append(("ident", m.group("ident"), m.start("ident")))
            else:
                tokens.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        return tokens

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise PolyParseError("unexpected end of input", len(self.text), self.text)
        self.index += 1
        return tok

    def _ring(self) -> tuple[str, ...]:
        return self.fixed_vars if self.fixed_vars is not None else tuple(self.seen_vars)

    def parse(self) -> MultiPoly:
        result = self._expr()
        tok = self._peek()
        if tok is not None:
            raise PolyParseError(f"trailing input {tok[1]!r}", tok[2], self.text)
        if self.fixed_vars is None:
            # deterministic ring for inferred variables
            result = result.in_ring(tuple(sorted(result.vars)))
        return result

    def _expr(self) -> MultiPoly:
        tok = self._peek()
        negate = False
        if tok and tok[0] == "op" and tok[1] in "+-":
            self._next()
            negate = tok[1] == "-"
        result = self._term()
        if negate:
            result = -result
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self._next()
                rhs = self._term()
                result = result - rhs if tok[1] == "-" else result + rhs
            else:
                return result

    def _term(self) -> MultiPoly:
        result = self._factor()
        while True:
            tok = self._peek()
            if tok is None:
                return result
            kind, value, pos = tok
            if kind == "op" and value in "*/":
                self._next()
                rhs = self._factor()
                if value == "*":
                    result = result * rhs
                else:
                    if rhs.total_degree() > 0:
                        raise PolyParseError("division by a non-constant polynomial", pos, self.text)
                    c = rhs.constant_term()
                    if c == 0:
                        raise PolyParseError("division by zero", pos, self.text)
                    result = result.scale(Fraction(1) / c)
            elif kind in ("number", "ident") or (kind == "op" and value == "("):
                result = result * self._factor()  # implicit multiplication
            else:
                return result

    def _factor(self) -> MultiPoly:
        base = self._base()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self._next()
            etok = self._next()
            if etok[0] != "number" or "." in etok[1]:
                raise PolyParseError("exponent must be a nonnegative integer", etok[2], self.text)
            base = base ** int(etok[1])
        return base

    def _base(self) -> MultiPoly:
        kind, value, pos = self._next()
        if kind == "number":
            return MultiPoly.const(rational(value), self._ring())
        if kind == "ident":
            if self.fixed_vars is not None:
                if value not in self.fixed_vars:
                    raise PolyParseError(f"unknown variable {value!r}", pos, self.text)
            elif value not in self.seen_vars:
                self.seen_vars.append(value)
            return MultiPoly.var(value, self._ring())
        if kind == "op" and value == "(":
            inner = self._expr()
            closing = self._next()
            if closing[0] != "op" or closing[1] != ")":
                raise PolyParseError("expected ')'", closing[2], self.text)
            return inner
        if kind == "op" and value == "-":
            return -self._factor()
        raise PolyParseError(f"unexpected token {value!r}", pos, self.text)


def poly_parse(text: str, vars: Sequence[str] | None = None) -> MultiPoly:
    """Parse an expression like ``"48*b^6*c^4 + 3/2*b^2*c - 1"``.

    With ``vars`` given, unknown identifiers raise; otherwise variables are
    collected and the ring is their sorted list.
    """
    return _Parser(text, vars).parse()


def poly_serialize(p: MultiPoly) -> str:
    """Expression text whose round trip through poly_parse is identity."""
    return p.to_expr()
