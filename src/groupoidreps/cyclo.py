"""Exact arithmetic in cyclotomic fields Q(xi_l), plus exact linear algebra.

An element is stored in the power basis 1, x, ..., x^(phi(l)-1) of
Q[x]/Phi_l(x) as integer numerators over one positive denominator, in lowest
terms, so equal values have equal representations.  Working modulo Phi_l
(rather than x^l - 1) keeps the ring a field.  Phi_l is monic and integral,
so a product is an integer convolution folded back with a cached table of
x^j mod Phi_l.  Constructors accept only int and Fraction: no floating point
appears anywhere in this module.

All elimination runs on one sparse echelon engine, :class:`SpanBasis`, whose
rows are {column: Cyc} in reduced row echelon form with pivots 1.
:class:`LinSolver` and :func:`kernel_basis` are thin layers over it.  Every
commutant and intertwiner space is solved by :func:`intertwiners`, and every
matrix assembled from blocks or scattered entries is built by
:meth:`Mat.from_entries`.

All values are immutable; all operations are pure functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm

__all__ = [
    "euler_phi",
    "cyclotomic_poly",
    "Cyc",
    "root_of_unity",
    "Mat",
    "SpanBasis",
    "LinSolver",
    "kernel_basis",
    "intertwiners",
]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient, as the degree of Phi_n."""
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def cyclotomic_poly(ell: int) -> tuple[int, ...]:
    """Integer coefficients (low to high, monic) of Phi_l, via x^l - 1 = prod_{d|l} Phi_d."""
    if ell <= 0:
        raise ValueError("cyclotomic order must be a positive integer")
    num = [-1] + [0] * (ell - 1) + [1]
    for d in range(1, ell):
        if ell % d:
            continue
        den = cyclotomic_poly(d)
        k = len(den) - 1
        quot = [0] * (len(num) - k)
        for i in range(len(quot) - 1, -1, -1):
            c = quot[i] = num[i + k]
            if c:
                for j, dj in enumerate(den):
                    num[i + j] -= c * dj
        if any(num[:k]):
            raise ArithmeticError(f"Phi_{d} does not divide x^{ell} - 1 exactly")
        num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _powers(ell: int) -> tuple[tuple[int, ...], ...]:
    """x^j mod Phi_l as integer vectors, for 0 <= j < max(l, 2 phi(l) - 1).

    Rows 0..l-1 are the roots of unity; rows phi..2phi-2 fold a product back.
    """
    poly = cyclotomic_poly(ell)
    n = len(poly) - 1
    vec = [1] + [0] * (n - 1)
    out = []
    for _ in range(max(ell, 2 * n - 1)):
        out.append(tuple(vec))
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:
            vec = [v - top * p for v, p in zip(vec, poly)]
    return tuple(out)


def _rationals(values) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of int/Fraction values."""
    for q in values:
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"exact rationals must be int or Fraction, not {type(q).__name__}")
    den = lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


class Cyc:
    """An element of Q(xi_l): integer numerators ``num`` over the denominator ``den``.

    ``num`` has length phi(l), ``den > 0`` and gcd(den, *num) = 1.  Different
    cyclotomic orders never mix implicitly; use :meth:`embed` to move into
    Q(xi_L) for l | L.
    """

    __slots__ = ("ell", "num", "den")

    def __init__(self, ell: int, coeffs):
        num, den = _rationals(tuple(coeffs))
        if len(num) != euler_phi(ell):
            raise ValueError("coefficient vector must have length phi(ell)")
        _SET_ELL(self, ell)
        _SET_NUM(self, tuple(num))
        _SET_DEN(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc values are immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _make, since __setattr__ blocks the slot restore
        return _make, (self.ell, self.num, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(ell: int) -> "Cyc":
        return Cyc.rational(ell, 0)

    @staticmethod
    @lru_cache(maxsize=None)
    def one(ell: int) -> "Cyc":
        return Cyc.rational(ell, 1)

    @staticmethod
    def rational(ell: int, q) -> "Cyc":
        """Embed a rational number (the explicit Q -> Q(xi_l) embedding)."""
        return Cyc(ell, (q,) + (0,) * (euler_phi(ell) - 1))

    @staticmethod
    def from_exponent_sums(ell: int, sums) -> "Cyc":
        """sum_e sums[e] * xi_l^e for rationals sums[0..l-1], reduced once."""
        bins, den = _rationals(list(sums))
        return _fold(ell, bins, den)

    # -- ring/field structure ---------------------------------------------

    def __add__(self, other: "Cyc") -> "Cyc":
        if self.ell != other.ell:
            raise _mismatch(self, other)
        da, db = self.den, other.den
        if da == db:
            return _normed(self.ell, [a + b for a, b in zip(self.num, other.num)], da)
        return _normed(self.ell, [a * db + b * da for a, b in zip(self.num, other.num)], da * db)

    def __sub__(self, other: "Cyc") -> "Cyc":
        return self + -other

    def __neg__(self) -> "Cyc":
        return _make(self.ell, tuple(-a for a in self.num), self.den)

    def __mul__(self, other: "Cyc") -> "Cyc":
        ell = self.ell
        if ell != other.ell:
            raise _mismatch(self, other)
        a, b = self.num, other.num
        n = len(a)
        if n == 1:
            return _normed(ell, [a[0] * b[0]], self.den * other.den)
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        return _fold(ell, prod, self.den * other.den)

    def scale(self, q) -> "Cyc":
        (p,), r = _rationals((q,))
        return _normed(self.ell, [a * p for a in self.num], self.den * r)

    def inverse(self) -> "Cyc":
        """Multiplicative inverse: the other Galois conjugates over the norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(xi_l)")
        ell, num, den = self.ell, self.num, self.den
        if len(num) == 1:
            return _normed(ell, [den if num[0] > 0 else -den], abs(num[0]))
        others = self.galois(ell - 1)
        for t in range(2, ell - 1):
            if gcd(t, ell) == 1:
                others = others * self.galois(t)
        norm = self * others
        return others.scale(Fraction(norm.den, norm.num[0]))

    def __truediv__(self, other: "Cyc") -> "Cyc":
        return self * other.inverse()

    def __pow__(self, n: int) -> "Cyc":
        if n < 0:
            raise ValueError("negative powers are not supported; use inverse()")
        result = Cyc.one(self.ell)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _power_map(self, big_ell: int, t: int) -> "Cyc":
        """The image in Q(xi_L) of the ring map xi_l -> xi_L^t."""
        bins = [0] * big_ell
        for a, c in enumerate(self.num):
            bins[a * t % big_ell] += c
        return _fold(big_ell, bins, self.den)

    def galois(self, t: int) -> "Cyc":
        """The field automorphism xi_l -> xi_l^t (requires gcd(t, l) = 1)."""
        return self._power_map(self.ell, t)

    def conjugate(self) -> "Cyc":
        """Complex conjugation, as the automorphism xi_l -> xi_l^(-1)."""
        return self.galois(self.ell - 1) if self.ell > 2 else self

    def embed(self, big_ell: int) -> "Cyc":
        """Explicit embedding Q(xi_l) -> Q(xi_L) for l | L (power map p -> p*L/l)."""
        if big_ell % self.ell != 0:
            raise ValueError("embedding requires the source order to divide the target order")
        return self._power_map(big_ell, big_ell // self.ell)

    # -- predicates & conversions -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def to_json(self) -> dict:
        return {
            "order": self.ell,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coeffs],
        }

    @staticmethod
    def from_json(data: dict) -> "Cyc":
        return Cyc(data["order"], tuple(Fraction(s) for s in data["coeffs"]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cyc)
            and self.ell == other.ell
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.ell, self.num, self.den))

    def __repr__(self) -> str:
        if self.is_rational():
            return f"Cyc({self.ell}, {self.rational_value()})"
        terms = []
        for a, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{a}" if a else f"{c}")
        return f"Cyc({self.ell}, {' + '.join(terms)})"


_NEW = object.__new__
_SET_ELL, _SET_NUM, _SET_DEN = (Cyc.__dict__[name].__set__ for name in Cyc.__slots__)


def _make(ell: int, num: tuple[int, ...], den: int) -> Cyc:
    """A Cyc from numerators and a denominator already in canonical form."""
    c = _NEW(Cyc)
    _SET_ELL(c, ell)
    _SET_NUM(c, num)
    _SET_DEN(c, den)
    return c


def _normed(ell: int, num: list[int], den: int) -> Cyc:
    """A Cyc from integer numerators over a positive denominator, put in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return _make(ell, tuple(a // g for a in num), den // g)
    return _make(ell, tuple(num), den)


def _fold(ell: int, bins: list[int], den: int) -> Cyc:
    """sum_e bins[e] * xi_l^e / den for len(bins) >= phi(l): the power table folds e >= phi."""
    powers = _powers(ell)
    n = len(powers[0])
    acc = bins[:n] + [0] * (n - len(bins))
    for e in range(n, len(bins)):
        q = bins[e]
        if q:
            for i, t in enumerate(powers[e]):
                acc[i] += q * t
    return _normed(ell, acc, den)


def _mismatch(a: Cyc, b: Cyc) -> ValueError:
    return ValueError(f"cyclotomic orders differ ({a.ell} vs {b.ell}); embed explicitly first")


@lru_cache(maxsize=None)
def _root_cached(ell: int, power: int) -> Cyc:
    return _make(ell, _powers(ell)[power], 1)


def root_of_unity(ell: int, power: int) -> Cyc:
    """xi_l^power as an exact element of Q(xi_l).  Depends only on power mod l."""
    if ell <= 0:
        raise ValueError("cyclotomic order must be a positive integer")
    return _root_cached(ell, power % ell)


# ---------------------------------------------------------------------------
# Exact linear algebra over Q(xi_l)
# ---------------------------------------------------------------------------


class Mat:
    """Immutable dense matrix over Q(xi_l); all algorithms are exact."""

    __slots__ = ("ell", "nrows", "ncols", "rows")

    def __init__(self, ell: int, rows):
        rows = tuple(tuple(r) for r in rows)
        self.ell = ell
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")
        self.rows = rows

    @staticmethod
    def zeros(ell: int, nrows: int, ncols: int) -> "Mat":
        z = Cyc.zero(ell)
        return Mat(ell, [[z] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(ell: int, n: int) -> "Mat":
        z, o = Cyc.zero(ell), Cyc.one(ell)
        return Mat(ell, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_entries(ell: int, nrows: int, ncols: int, entries) -> "Mat":
        """The nrows x ncols matrix whose (i, j) entry is the sum of the values given at (i, j).

        ``entries`` yields ((i, j), value) pairs; zero values are skipped and
        every position not given is zero.
        """
        z = Cyc.zero(ell)
        rows = [[z] * ncols for _ in range(nrows)]
        for (i, j), v in entries:
            if any(v.num):
                row = rows[i]
                w = row[j]
                row[j] = w + v if any(w.num) else v
        return Mat(ell, rows)

    def entries(self, r0: int = 0, c0: int = 0):
        """The nonzero entries as ((r0 + i, c0 + j), value): the matrix placed at offset (r0, c0)."""
        for i, row in enumerate(self.rows, r0):
            for j, v in enumerate(row, c0):
                if any(v.num):
                    yield (i, j), v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.ell == other.ell
            and self.rows == other.rows
        )

    def __add__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        return Mat(self.ell, [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scale_cyc(Cyc.rational(self.ell, -1))

    def scale_cyc(self, c: Cyc) -> "Mat":
        return Mat(self.ell, [[c * v for v in r] for r in self.rows])

    def __mul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in multiplication")
        z = Cyc.zero(self.ell)
        cols = [_nonzero(col) for col in zip(*other.rows)]
        rows = [_nonzero(r).items() for r in self.rows]
        return Mat(self.ell, [[_dot(z, r, col) for col in cols] for r in rows])

    def trace(self) -> Cyc:
        acc = Cyc.zero(self.ell)
        for i in range(min(self.nrows, self.ncols)):
            acc = acc + self.rows[i][i]
        return acc

    def kron(self, other: "Mat") -> "Mat":
        out = []
        for r in self.rows:
            for s in other.rows:
                out.append([a * b for a in r for b in s])
        return Mat(self.ell, out)

    def commutes_with(self, other: "Mat") -> bool:
        return (self * other) == (other * self)

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols} over Q(xi_{self.ell}))"


def _dot(zero: Cyc, items, col: dict[int, Cyc]) -> Cyc:
    """sum_k a * col[k] over the (k, a) in items."""
    acc = zero
    for k, a in items:
        b = col.get(k)
        if b is not None:
            acc = acc + a * b
    return acc


def _nonzero(vec) -> dict[int, Cyc]:
    """The nonzero entries of a vector, as {column: value}."""
    return {j: c for j, c in enumerate(vec) if any(c.num)}


def _sparse(vec, n: int) -> dict[int, Cyc]:
    """The nonzero entries of a vector that must have length n."""
    if len(vec) != n:
        raise ValueError(f"vector of length {len(vec)} where {n} is expected")
    return _nonzero(vec)


class SpanBasis:
    """Incrementally row-reduced basis of a subspace of Q(xi_l)^n.

    The one elimination engine, behind rank, span growth, membership,
    LinSolver, kernel_basis and intertwiners.  Rows are sparse and in reduced
    row echelon form: a row is stored without its pivot entry 1 and is 0 at
    every other pivot.
    """

    def __init__(self, ell: int, n: int):
        self.ell = ell
        self.n = n
        self._rows: dict[int, dict[int, Cyc]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[list[Cyc]]:
        """The basis rows as dense vectors, in pivot order."""
        zero, one = Cyc.zero(self.ell), Cyc.one(self.ell)
        out = []
        for p in sorted(self._rows):
            vec = [zero] * self.n
            vec[p] = one
            for j, c in self._rows[p].items():
                vec[j] = c
            out.append(vec)
        return out

    def _reduce(self, v: dict[int, Cyc]) -> dict[int, Cyc]:
        """Subtract from v (in place) its component along every pivot it touches."""
        rows = self._rows
        for p in v.keys() & rows.keys():
            _sub_multiple(v, v.pop(p), rows[p])
        return v

    def _insert(self, v: dict[int, Cyc], width: int) -> bool:
        """Reduce v and keep it if it has a nonzero entry before column `width`."""
        self._reduce(v)
        p = min(v, default=width)
        if p >= width:
            return False
        inv = v.pop(p).inverse()
        if not inv.is_one():
            v = {j: c * inv for j, c in v.items()}
        for row in self._rows.values():
            c = row.pop(p, None)
            if c is not None:
                _sub_multiple(row, c, v)
        self._rows[p] = v
        return True

    def contains(self, vec: list[Cyc]) -> bool:
        return not self._reduce(_sparse(vec, self.n))

    def add(self, vec: list[Cyc]) -> bool:
        """Insert vec; return True iff it enlarged the span."""
        return self._insert(_sparse(vec, self.n), self.n)

    def kernel(self) -> list[list[Cyc]]:
        """Basis of {x : r . x = 0 for every basis row r}, one vector per free column, in column order.

        The vector of a free column c has 1 at c and -row_p[c] at each pivot p.
        """
        zero, one = Cyc.zero(self.ell), Cyc.one(self.ell)
        free = [c for c in range(self.n) if c not in self._rows]
        vecs = {}
        for c in free:
            vec = vecs[c] = [zero] * self.n
            vec[c] = one
        for p, row in self._rows.items():
            for c, v in row.items():
                vecs[c][p] = -v
        return [vecs[c] for c in free]


def _sub_multiple(v: dict[int, Cyc], c: Cyc, row: dict[int, Cyc]) -> None:
    """v -= c * row in place, dropping entries that cancel."""
    m = -c
    for j, x in row.items():
        y = v.get(j)
        y = m * x if y is None else y + m * x
        if not any(y.num):
            del v[j]
        else:
            v[j] = y


class LinSolver:
    """Express vectors exactly in a fixed spanning list of vectors.

    Built once from `basis` (rows); :meth:`express` returns coordinates of a
    vector in that list, or None if the vector lies outside the span.  Each
    vector that enlarges the span of those before it is kept; the others get
    coordinate 0.  Columns n.. of an engine row record the combination of
    basis vectors that the row equals.
    """

    def __init__(self, ell: int, basis: list[list[Cyc]]):
        self.ell = ell
        self.m = len(basis)
        self.n = len(basis[0]) if basis else 0
        self._span = SpanBasis(ell, self.n + self.m)
        one = Cyc.one(ell)
        for i, vec in enumerate(basis):
            v = _sparse(vec, self.n)
            v[self.n + i] = one
            self._span._insert(v, self.n)

    @property
    def rank(self) -> int:
        return self._span.rank

    def express(self, vec: list[Cyc]):
        n = self.n
        v = self._span._reduce(_sparse(vec, n))
        if min(v, default=n) < n:
            return None
        coords = [Cyc.zero(self.ell)] * self.m
        for j, c in v.items():
            coords[j - n] = -c
        return coords


def kernel_basis(ell: int, rows: list[list[Cyc]], ncols: int) -> list[list[Cyc]]:
    """Exact basis of the right null space {x : A x = 0}."""
    sb = SpanBasis(ell, ncols)
    for r in rows:
        sb._insert(_sparse(r, ncols), ncols)
    return sb.kernel()


def intertwiners(ell: int, src_dims, tgt_dims, actions) -> list[list[Cyc]]:
    """Basis of {X = (X_o : src_o -> tgt_o)} with X_t A = B X_s for every (s, t, A, B) in actions.

    A maps src_s to src_t and B maps tgt_s to tgt_t.  A vector holds each
    X_o row-major (tgt_o x src_o), the blocks concatenated in object order;
    with A = B on every action the result is a commutant.  Entry (r, c) of
    X_t A - B X_s enters the engine as one sparse row.
    """
    offsets = list(accumulate((m * n for m, n in zip(tgt_dims, src_dims)), initial=0))
    n = offsets[-1]
    sb = SpanBasis(ell, n)
    for s, t, A, B in actions:
        ns, nt = src_dims[s], src_dims[t]
        a_bad = A.nrows != nt or A.rows and A.ncols != ns
        if a_bad or B.nrows != tgt_dims[t] or B.rows and B.ncols != tgt_dims[s]:
            raise ValueError(f"action {s} -> {t} does not match the block sizes")
        xs, xt = offsets[s], offsets[t]
        a_cols = [[(xt + u, row[c]) for u, row in enumerate(A.rows) if any(row[c].num)] for c in range(ns)]
        b_rows = [[(xs + u * ns, v) for u, v in enumerate(row) if any(v.num)] for row in B.rows]
        for r, b_row in enumerate(b_rows):
            for c, a_col in enumerate(a_cols):
                # (X_t A)[r][c] = sum_u X_t[r][u] A[u][c];  (B X_s)[r][c] = sum_u B[r][u] X_s[u][c]
                v = {j + r * nt: a for j, a in a_col}
                for j, b in b_row:
                    y = v.pop(j + c, None)
                    y = -b if y is None else y - b
                    if any(y.num):
                        v[j + c] = y
                sb._insert(v, n)
    return sb.kernel()
