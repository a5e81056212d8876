"""Exact arithmetic in cyclotomic fields Q(xi_l), plus exact linear algebra.

Elements are represented by their coordinates in the power basis
1, x, ..., x^(phi(l)-1) of Q[x]/Phi_l(x), where Phi_l is the l-th cyclotomic
polynomial.  Working modulo Phi_l (rather than x^l - 1) keeps the ring a
field, so Gaussian elimination can invert pivots exactly.  No floating point
appears anywhere in this module.

All values are immutable; all operations are pure functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "euler_phi",
    "cyclotomic_poly",
    "Cyc",
    "root_of_unity",
    "Mat",
    "SpanBasis",
    "LinSolver",
    "kernel_basis",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


def euler_phi(n: int) -> int:
    """Euler totient, by trial division (n stays tiny here)."""
    if n <= 0:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Exact division of polynomials with Fraction coefficients (low to high)."""
    num = list(num)
    quot = [_F0] * (max(len(num) - len(den) + 1, 0))
    dlead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / dlead
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    while num and not num[-1]:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(ell: int) -> tuple[Fraction, ...]:
    """Coefficients (low to high, monic) of Phi_l, via x^l - 1 = prod_{d|l} Phi_d."""
    if ell <= 0:
        raise ValueError("cyclotomic order must be a positive integer")
    num = [_F0] * (ell + 1)
    num[0] = Fraction(-1)
    num[ell] = _F1
    for d in range(1, ell):
        if ell % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_poly(d)))
            if rem:
                raise ArithmeticError(f"Phi_{d} does not divide x^{ell} - 1 exactly")
    return tuple(num)


class Cyc:
    """An element of Q(xi_l) in the power basis of Q[x]/Phi_l(x).

    Different cyclotomic orders never mix implicitly; use :meth:`embed`
    to move into Q(xi_L) for l | L.
    """

    __slots__ = ("ell", "coeffs", "_hash")

    def __init__(self, ell: int, coeffs):
        if ell <= 0:
            raise ValueError("cyclotomic order must be a positive integer")
        coeffs = tuple(coeffs)
        if len(coeffs) != euler_phi(ell):
            raise ValueError("coefficient vector must have length phi(ell)")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc values are immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ell: int) -> "Cyc":
        return Cyc(ell, (_F0,) * euler_phi(ell))

    @staticmethod
    def one(ell: int) -> "Cyc":
        return Cyc.rational(ell, 1)

    @staticmethod
    def rational(ell: int, q) -> "Cyc":
        """Embed a rational number (the explicit Q -> Q(xi_l) embedding)."""
        c = [_F0] * euler_phi(ell)
        c[0] = Fraction(q)
        return Cyc(ell, c)

    @staticmethod
    def from_power(ell: int, power: int) -> "Cyc":
        """xi_l^power, reduced mod Phi_l.  Depends only on power mod l."""
        if ell <= 0:
            raise ValueError("cyclotomic order must be a positive integer")
        return _root_cached(ell, power % ell)

    @staticmethod
    def from_exponent_sums(ell: int, sums) -> "Cyc":
        """sum_e sums[e] * xi_l^e for rationals sums[0..l-1], reduced once."""
        acc = [_F0] * euler_phi(ell)
        for e, q in enumerate(sums):
            if q:
                for i, c in enumerate(_root_cached(ell, e).coeffs):
                    if c:
                        acc[i] += q * c
        return Cyc(ell, acc)

    # -- ring/field structure ---------------------------------------------

    def _check(self, other: "Cyc") -> None:
        if self.ell != other.ell:
            raise ValueError(
                f"cyclotomic orders differ ({self.ell} vs {other.ell}); embed explicitly first"
            )

    def __add__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        return Cyc(self.ell, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        return Cyc(self.ell, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cyc":
        return Cyc(self.ell, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        n = len(a)
        if n == 1:
            return Cyc(self.ell, (a[0] * b[0],))
        prod = [_F0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return Cyc(self.ell, _reduce(self.ell, prod))

    def scale(self, q) -> "Cyc":
        q = Fraction(q)
        return Cyc(self.ell, tuple(q * a for a in self.coeffs))

    def inverse(self) -> "Cyc":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(xi_l)")
        # invariants: r0 = s0 * self (mod Phi), r1 = s1 * self (mod Phi)
        r0, s0 = list(cyclotomic_poly(self.ell)), []
        r1, s1 = _trim(list(self.coeffs)), [_F1]
        while True:
            if len(r1) == 1:
                inv = r1[0] ** -1
                padded = [c * inv for c in s1] + [_F0] * len(self.coeffs)
                return Cyc(self.ell, _reduce(self.ell, padded[: 2 * len(self.coeffs)]))
            q, r = _poly_divmod(r0, r1)
            s = _poly_sub(s0, _poly_mul(q, s1))
            r0, s0, r1, s1 = r1, s1, _trim(r), s

    def __truediv__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "Cyc":
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyc.one(self.ell)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def galois(self, t: int) -> "Cyc":
        """The field automorphism xi_l -> xi_l^t (requires gcd(t, l) = 1)."""
        ell = self.ell
        sums = [0] * ell
        for a, c in enumerate(self.coeffs):
            sums[a * t % ell] += c
        return Cyc.from_exponent_sums(ell, sums)

    def conjugate(self) -> "Cyc":
        """Complex conjugation, as the automorphism xi_l -> xi_l^(-1)."""
        return self.galois(self.ell - 1) if self.ell > 2 else self

    def embed(self, big_ell: int) -> "Cyc":
        """Explicit embedding Q(xi_l) -> Q(xi_L) for l | L (power map p -> p*L/l)."""
        if big_ell % self.ell != 0:
            raise ValueError("embedding requires the source order to divide the target order")
        step = big_ell // self.ell
        sums = [0] * big_ell
        for a, c in enumerate(self.coeffs):
            sums[a * step] += c
        return Cyc.from_exponent_sums(big_ell, sums)

    # -- predicates & conversions -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

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
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ell, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if self.is_rational():
            return f"Cyc({self.ell}, {self.coeffs[0]})"
        terms = []
        for a, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{a}" if a else f"{c}")
        return f"Cyc({self.ell}, {' + '.join(terms)})"


@lru_cache(maxsize=None)
def _root_cached(ell: int, power: int) -> Cyc:
    poly = [_F0] * power + [_F1]
    return Cyc(ell, _reduce(ell, poly))


def root_of_unity(ell: int, power: int) -> Cyc:
    """xi_l^power as an exact element of Q(xi_l)."""
    return Cyc.from_power(ell, power)


def _reduce(ell: int, poly: list[Fraction]) -> tuple[Fraction, ...]:
    phi = euler_phi(ell)
    if len(poly) <= phi:
        return tuple(poly) + (_F0,) * (phi - len(poly))
    _, rem = _poly_divmod(poly, list(cyclotomic_poly(ell)))
    return tuple(rem) + (_F0,) * (phi - len(rem))


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [_F0] * (n - len(a))
    b = b + [_F0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


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
    def from_fraction_rows(ell: int, rows) -> "Mat":
        return Mat(ell, [[Cyc.rational(ell, v) for v in r] for r in rows])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.ell == other.ell
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ell, self.rows))

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

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
        bt = list(zip(*other.rows)) if other.rows else []
        out = []
        for r in self.rows:
            row = []
            for col in bt:
                acc = z
                for a, b in zip(r, col):
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Mat(self.ell, out)

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
        if not out:
            return Mat(self.ell, [])
        return Mat(self.ell, out)

    def is_zero(self) -> bool:
        return all(v.is_zero() for r in self.rows for v in r)

    def rank(self) -> int:
        sb = SpanBasis(self.ell, self.ncols)
        for r in self.rows:
            sb.add(list(r))
        return sb.rank

    def kernel_basis(self) -> list[list[Cyc]]:
        return kernel_basis(self.ell, [list(r) for r in self.rows], self.ncols)

    def solve(self, rhs: list[Cyc]):
        """One exact solution x of self @ x = rhs, or None if inconsistent."""
        return solve_system(self.ell, [list(r) for r in self.rows], list(rhs))

    def apply(self, vec: list[Cyc]) -> list[Cyc]:
        z = Cyc.zero(self.ell)
        out = []
        for r in self.rows:
            acc = z
            for a, v in zip(r, vec):
                if not (a.is_zero() or v.is_zero()):
                    acc = acc + a * v
            out.append(acc)
        return out

    def commutes_with(self, other: "Mat") -> bool:
        return (self * other) == (other * self)

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols} over Q(xi_{self.ell}))"


class SpanBasis:
    """Incrementally row-reduced basis of a subspace of Q(xi_l)^n.

    The workhorse for rank computations, span growth (algebra closure) and
    membership tests.  Rows are kept with their pivot normalized to 1.
    """

    def __init__(self, ell: int, n: int):
        self.ell = ell
        self.n = n
        self.pivots: list[int] = []
        self.rows: list[list[Cyc]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: list[Cyc]) -> list[Cyc]:
        v = list(vec)
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if not c.is_zero():
                for j in range(p, self.n):
                    if not row[j].is_zero():
                        v[j] = v[j] - c * row[j]
        return v

    def contains(self, vec: list[Cyc]) -> bool:
        return all(c.is_zero() for c in self.reduce(vec))

    def add(self, vec: list[Cyc]) -> bool:
        """Insert vec; return True iff it enlarged the span."""
        v = self.reduce(vec)
        for p in range(self.n):
            if not v[p].is_zero():
                inv = v[p].inverse()
                v = [c * inv for c in v]
                idx = 0
                while idx < len(self.pivots) and self.pivots[idx] < p:
                    idx += 1
                self.pivots.insert(idx, p)
                self.rows.insert(idx, v)
                return True
        return False

    def equals(self, other: "SpanBasis") -> bool:
        if self.rank != other.rank:
            return False
        return all(other.contains(r) for r in self.rows)


class LinSolver:
    """Express vectors exactly in a fixed spanning list of vectors.

    Built once from `basis` (rows); :meth:`express` returns coordinates of a
    vector in that list, or None if the vector lies outside the span.
    """

    def __init__(self, ell: int, basis: list[list[Cyc]]):
        self.ell = ell
        self.m = len(basis)
        self.n = len(basis[0]) if basis else 0
        self.entries: list[tuple[int, list[Cyc], list[Cyc]]] = []
        zero = Cyc.zero(ell)
        for i, vec in enumerate(basis):
            coeff = [zero] * self.m
            coeff[i] = Cyc.one(ell)
            v, coeff = self._reduce(list(vec), coeff)
            for p in range(self.n):
                if not v[p].is_zero():
                    inv = v[p].inverse()
                    v = [c * inv for c in v]
                    coeff = [c * inv for c in coeff]
                    self.entries.append((p, v, coeff))
                    break
        self.entries.sort(key=lambda e: e[0])

    def _reduce(self, v: list[Cyc], coeff: list[Cyc]):
        for p, row, cf in self.entries:
            c = v[p]
            if not c.is_zero():
                for j in range(self.n):
                    if not row[j].is_zero():
                        v[j] = v[j] - c * row[j]
                for j in range(self.m):
                    if not cf[j].is_zero():
                        coeff[j] = coeff[j] - c * cf[j]
        return v, coeff

    @property
    def rank(self) -> int:
        return len(self.entries)

    def express(self, vec: list[Cyc]):
        zero = Cyc.zero(self.ell)
        v, coeff = self._reduce(list(vec), [zero] * self.m)
        if any(not c.is_zero() for c in v):
            return None
        return [-c for c in coeff]


def rref(ell: int, rows: list[list[Cyc]]) -> tuple[list[list[Cyc]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def kernel_basis(ell: int, rows: list[list[Cyc]], ncols: int) -> list[list[Cyc]]:
    """Exact basis of the right null space {x : A x = 0}."""
    red, pivots = rref(ell, rows)
    zero, one = Cyc.zero(ell), Cyc.one(ell)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def solve_system(ell: int, rows: list[list[Cyc]], rhs: list[Cyc]):
    """One solution of A x = rhs, or None when the system is inconsistent."""
    aug = [r + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(ell, aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    zero = Cyc.zero(ell)
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x
