"""Exact arithmetic in cyclotomic fields Q(xi_l), plus exact linear algebra.

An element is stored in the power basis 1, x, ..., x^(phi(l)-1) of
Q[x]/Phi_l(x) as integer numerators over one positive denominator, in lowest
terms, so equal values have equal representations.  Working modulo Phi_l
(rather than x^l - 1) keeps the ring a field.  Phi_l is monic and integral,
so a product is an integer convolution folded back with a cached table of
x^j mod Phi_l.  Constructors accept only int and Fraction: no floating point
appears anywhere in this module.

All elimination runs on one sparse echelon engine, :class:`SpanBasis`, whose
rows are {column: Cyc} in reduced row echelon form with pivots 1.  Such a
dict is the engine's one vector format, in and out.  :class:`LinSolver` is a
thin layer over it that no library path calls (the Specht matrices, its last
user, are integral and straightened in tableaux); the tests keep it as a
reference, with their own null-space helper.
Every commutant or intertwiner space solved by elimination is solved by
:func:`intertwiners`, one source and one target block per call.  A matrix is
one thing: a {(row, col): Cyc} dict of its nonzero entries, its sizes held by
its caller.  No library path multiplies two matrices (functoriality is read
from relations on integer Specht data), so the dense matrix and its product
live with the tests.  A permutation of the basis (gkd's theta, schurweyl's
shift) stays an index map with its caller.

All values are immutable; all operations are pure functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "euler_phi",
    "cyclotomic_poly",
    "Cyc",
    "root_of_unity",
    "SpanBasis",
    "LinSolver",
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
    cyclotomic orders never mix implicitly.
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
        sums = list(sums)
        bins, den = (sums, 1) if all(type(q) is int for q in sums) else _rationals(sums)
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

    def galois(self, t: int) -> "Cyc":
        """The field automorphism xi_l -> xi_l^t (requires gcd(t, l) = 1)."""
        bins = [0] * self.ell
        for a, c in enumerate(self.num):
            bins[a * t % self.ell] += c
        return _fold(self.ell, bins, self.den)

    def conjugate(self) -> "Cyc":
        """Complex conjugation, as the automorphism xi_l -> xi_l^(-1)."""
        return self.galois(self.ell - 1) if self.ell > 2 else self

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


def _checked(vec: dict[int, Cyc], n: int) -> dict[int, Cyc]:
    """A copy of the nonzero entries of vec; a column outside 0..n-1 raises ValueError."""
    if vec and (min(vec) < 0 or max(vec) >= n):
        raise ValueError(f"column outside 0..{n - 1} in a vector of length {n}")
    return {j: c for j, c in vec.items() if any(c.num)}


class SpanBasis:
    """Incrementally row-reduced basis of a subspace of Q(xi_l)^n.

    The one elimination engine, behind rank, span growth, membership,
    LinSolver and intertwiners.  Vectors in and out are sparse
    {column: Cyc} dicts.  Rows are in reduced row echelon form: a row is
    stored without its pivot entry 1 and is 0 at every other pivot.
    """

    def __init__(self, ell: int, n: int):
        self.ell = ell
        self.n = n
        self._rows: dict[int, dict[int, Cyc]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[dict[int, Cyc]]:
        """The basis rows, pivot entry 1 included, in pivot order."""
        one = Cyc.one(self.ell)
        return [{p: one, **row} for p, row in sorted(self._rows.items())]

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
        pivot = v.pop(p)
        if not pivot.is_one():
            if (-pivot).is_one():
                v = {j: -c for j, c in v.items()}
            else:
                inv = pivot.inverse()
                v = {j: c * inv for j, c in v.items()}
        for row in self._rows.values():
            c = row.pop(p, None)
            if c is not None:
                _sub_multiple(row, c, v)
        self._rows[p] = v
        return True

    def residue(self, vec: dict[int, Cyc]) -> dict[int, Cyc]:
        """A copy of vec less its component along the span: 0 at every pivot, empty iff vec lies in the span."""
        return self._reduce(_checked(vec, self.n))

    def contains(self, vec: dict[int, Cyc]) -> bool:
        return not self.residue(vec)

    def add(self, vec: dict[int, Cyc]) -> bool:
        """Insert vec; return True iff it enlarged the span."""
        return self._insert(_checked(vec, self.n), self.n)

    def kernel(self) -> list[dict[int, Cyc]]:
        """Basis of {x : r . x = 0 for every basis row r}, one vector per free column, in column order.

        The vector of a free column c has 1 at c and -row_p[c] at each pivot p.
        """
        one = Cyc.one(self.ell)
        vecs = {c: {c: one} for c in range(self.n) if c not in self._rows}
        for p, row in self._rows.items():
            for c, v in row.items():
                vecs[c][p] = -v
        return list(vecs.values())


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
    """Express vectors of Q(xi_l)^n exactly in a fixed spanning list of them.

    :meth:`express` returns the coordinates {index in basis: Cyc} of a vector
    in that list, or None if the vector lies outside the span.  Each vector
    that enlarges the span of those before it is kept; the others get
    coordinate 0.  Columns n.. of an engine row record the combination of
    basis vectors that the row equals.
    """

    def __init__(self, ell: int, n: int, basis: list[dict[int, Cyc]]):
        self.n = n
        self._span = SpanBasis(ell, n + len(basis))
        one = Cyc.one(ell)
        for i, vec in enumerate(basis):
            v = _checked(vec, n)
            v[n + i] = one
            self._span._insert(v, n)

    @property
    def rank(self) -> int:
        return self._span.rank

    def express(self, vec: dict[int, Cyc]) -> dict[int, Cyc] | None:
        n = self.n
        v = self._span._reduce(_checked(vec, n))
        if min(v, default=n) < n:
            return None
        return {j - n: -c for j, c in v.items()}


def intertwiners(ell: int, n_src: int, n_tgt: int, actions) -> list[dict[int, Cyc]]:
    """Basis of {X : src -> tgt} with X A = B X for every (A, B) in actions.

    A acts on the n_src-dimensional source and B on the n_tgt-dimensional
    target, each the {(row, col): Cyc} dict of its nonzero entries.
    A vector holds X row-major (n_tgt x n_src); with A = B on every action
    the result is a commutant.  Entry (r, c) of X A - B X enters the engine
    as one sparse row, built from A's columns and B's rows in ascending index
    order.

    An action with A and B both diagonal (every key has row == col) says only
    (A[c][c] - B[r][r]) X[r][c] = 0, a grading (the weights of the Delta(E_aa)
    on V^(x d)): only the X[r][c] with B[r][r] = A[c][c] for every such action
    are kept, the rows of the other actions are built over them, and the
    kernel is mapped back.
    """
    zero, diagonals, rest = Cyc.zero(ell), [], []
    for A, B in actions:
        if not all(0 <= i < n_src and 0 <= j < n_src for i, j in A) or not all(
            0 <= i < n_tgt and 0 <= j < n_tgt for i, j in B
        ):
            raise ValueError("action does not match the block sizes")
        if all(i == j for i, j in A) and all(i == j for i, j in B):
            diagonals.append(([B.get((r, r), zero) for r in range(n_tgt)], [A.get((c, c), zero) for c in range(n_src)]))
            continue
        a_cols = [[] for _ in range(n_src)]
        for (u, c), v in sorted(A.items(), key=lambda e: e[0][::-1]):
            a_cols[c].append((u, v))
        b_rows = [[] for _ in range(n_tgt)]  # -B, negated once per action: entry (r, c) subtracts B X
        for (r, u), v in sorted(B.items()):
            b_rows[r].append((u * n_src, -v))
        rest.append((a_cols, b_rows))
    cols = {}  # the columns c of X by their weights A[c][c] over the diagonal actions
    for c in range(n_src):
        cols.setdefault(tuple(a[c] for _b, a in diagonals), []).append(c)
    # the positions X[r][c] whose row and column weights agree, ascending
    kept = [j + r * n_src for r in range(n_tgt) for j in cols.get(tuple(b[r] for b, _a in diagonals), ())]
    col = {j: i for i, j in enumerate(kept)}  # position -> engine column
    sb = SpanBasis(ell, len(kept))
    for a_cols, b_rows in rest if kept else ():
        for r, b_row in enumerate(b_rows):
            for c, a_col in enumerate(a_cols):
                # (X A)[r][c] = sum_u X[r][u] A[u][c];  (B X)[r][c] = sum_u B[r][u] X[u][c]
                v = {col[j + r * n_src]: a for j, a in a_col if j + r * n_src in col}
                for k, nb in ((col[j + c], nb) for j, nb in b_row if j + c in col):
                    y = v.pop(k, None)
                    y = nb if y is None else y + nb
                    if any(y.num):
                        v[k] = y
                if v:
                    sb._insert(v, len(kept))
    return [{kept[i]: c for i, c in vec.items()} for vec in sb.kernel()]
