"""Exact arithmetic substrate.

Arbitrary-precision rationals, residues modulo prime powers,
componentwise prime-indexed scalars, prime-power CRT, and integer
matrix normal forms (Smith and Hermite).  Every value is
immutable, every operation is a pure function, and nothing here touches
floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "UsageError", "ExtendedNat", "OMEGA", "INF", "is_finite",
    "is_prime", "factor", "prime_divisors", "valuation", "frac_valuation",
    "inv_mod", "Residue", "JElement",
    "crt_solve", "crt_lift", "frac_residue", "identity_matrix",
    "snf", "hnf", "sparse_row", "hnf_insert", "solve_in_rowspace", "kernel_left",
]


class UsageError(ValueError):
    """A caller violated an operation's precondition."""


# ---------------------------------------------------------------------------
# extended naturals

class ExtendedNat:
    """Infinite marker usable where a natural number is expected.

    Exactly two instances exist: OMEGA (a countably infinite multiplicity
    or rank) and INF (an unbounded exponent, order, or index).  Each
    compares strictly greater than every integer and equal only to itself;
    comparing the two infinite markers against each other is refused.
    """

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return hash(self._name)

    def __lt__(self, other: object):
        if isinstance(other, int) or other is self:
            return False
        return NotImplemented

    def __le__(self, other: object):
        if isinstance(other, int):
            return False
        if other is self:
            return True
        return NotImplemented

    def __gt__(self, other: object):
        if isinstance(other, int):
            return True
        if other is self:
            return False
        return NotImplemented

    def __ge__(self, other: object):
        if isinstance(other, int) or other is self:
            return True
        return NotImplemented


OMEGA = ExtendedNat("omega")
INF = ExtendedNat("inf")


def is_finite(x: int | ExtendedNat) -> bool:
    return not isinstance(x, ExtendedNat)


# ---------------------------------------------------------------------------
# primes and valuations

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for every n below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power of a tiny prime
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise UsageError(f"factorization failed for {n}")  # pragma: no cover


def factor(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n < 1:
        raise UsageError("factor expects a positive integer")
    out: dict[int, int] = {}
    for p in _MR_BASES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def prime_divisors(n: int) -> frozenset[int]:
    return frozenset(factor(abs(n))) if n not in (0, 1, -1) else frozenset()


def valuation(n: int, p: int) -> int | ExtendedNat:
    """p-adic valuation of an integer; INF for 0."""
    if n == 0:
        return INF
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def frac_valuation(q: Fraction, p: int) -> int | ExtendedNat:
    if q == 0:
        return INF
    return valuation(q.numerator, p) - valuation(q.denominator, p)


def inv_mod(a: int, m: int) -> int:
    return pow(a, -1, m)


# ---------------------------------------------------------------------------
# residues modulo prime powers

@dataclass(frozen=True)
class Residue:
    """A canonical residue modulo prime**exp (0 <= value < modulus)."""

    value: int
    prime: int
    exp: int

    def __post_init__(self) -> None:
        if self.exp < 1:
            raise UsageError("residue exponent must be >= 1")
        if not is_prime(self.prime):
            raise UsageError(f"{self.prime} is not prime")
        object.__setattr__(self, "value", self.value % self.prime ** self.exp)

    @property
    def modulus(self) -> int:
        return self.prime ** self.exp

    def reduce(self, exp: int) -> "Residue":
        if exp > self.exp:
            raise UsageError("cannot reduce to a larger exponent")
        return Residue(self.value, self.prime, exp)

    def _check(self, other: "Residue") -> None:
        if self.prime != other.prime or self.exp != other.exp:
            raise UsageError("residue arithmetic needs matching moduli")

    def __add__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value + other.value, self.prime, self.exp)

    def __sub__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value - other.value, self.prime, self.exp)

    def __mul__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value * other.value, self.prime, self.exp)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.prime, self.exp)

    def __repr__(self) -> str:
        return f"{self.value} mod {self.prime}^{self.exp}"


def crt_solve(congruences: Sequence[Residue]) -> Residue | None:
    """Common solution of prime-power congruences at one shared prime.

    Returns the joint residue at the largest modulus, or None when the
    congruences conflict.  A solution exists iff every pair agrees modulo
    the smaller of its two moduli, so checking the max-modulus candidate
    against each congruence is complete.  Mixing primes is a usage error.
    """
    if not congruences:
        raise UsageError("crt_solve needs at least one congruence")
    p = congruences[0].prime
    if any(c.prime != p for c in congruences):
        raise UsageError("crt_solve congruences must share one prime")
    top = max(congruences, key=lambda c: c.exp)
    for c in congruences:
        if top.value % c.modulus != c.value:
            return None
    return top


def crt_lift(residues: Sequence[Residue]) -> int:
    """Least non-negative integer matching residues at pairwise distinct primes."""
    seen: set[int] = set()
    for r in residues:
        if r.prime in seen:
            raise UsageError("crt_lift expects distinct primes")
        seen.add(r.prime)
    x, mod = 0, 1
    for r in residues:
        m = r.modulus
        x = x + mod * ((r.value - x) * inv_mod(mod % m, m) % m)
        mod *= m
    return x % mod


def frac_residue(q: Fraction, p: int, k: int) -> Residue:
    """Residue of a p-integral rational modulo p**k."""
    if q.denominator % p == 0:
        raise UsageError(f"{q} is not {p}-integral")
    m = p ** k
    return Residue(q.numerator * inv_mod(q.denominator % m, m), p, k)


# ---------------------------------------------------------------------------
# componentwise prime-indexed scalars

class JElement:
    """An integer default plus finitely many p-integral exceptions.

    Models a scalar acting one prime at a time: component at p is the
    exception value when present, the default integer otherwise.
    Canonical form drops exceptions equal to the default.
    """

    __slots__ = ("default", "exceptions")

    def __init__(self, default: int, exceptions: Mapping[int, Fraction] | None = None) -> None:
        if not isinstance(default, int):
            raise UsageError("JElement default must be an integer")
        self.default = default
        exc: list[tuple[int, Fraction]] = []
        for p, v in sorted((exceptions or {}).items()):
            v = Fraction(v)
            if not is_prime(p):
                raise UsageError(f"{p} is not prime")
            if v.denominator % p == 0:
                raise UsageError(f"component at {p} must be {p}-integral")
            if v != default:
                exc.append((p, v))
        self.exceptions = tuple(exc)

    def at(self, p: int) -> Fraction:
        for q, v in self.exceptions:
            if q == p:
                return v
        return Fraction(self.default)

    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.exceptions)

    def _zip(self, other: "JElement", op) -> "JElement":
        primes = {p for p, _ in self.exceptions} | {p for p, _ in other.exceptions}
        return JElement(op(self.default, other.default),
                        {p: op(self.at(p), other.at(p)) for p in primes})

    def __add__(self, other: "JElement") -> "JElement":
        return self._zip(other, lambda a, b: a + b)

    def __mul__(self, other: "JElement") -> "JElement":
        return self._zip(other, lambda a, b: a * b)

    def __neg__(self) -> "JElement":
        return JElement(-self.default, {p: -v for p, v in self.exceptions})

    def __sub__(self, other: "JElement") -> "JElement":
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JElement):
            return NotImplemented
        return self.default == other.default and self.exceptions == other.exceptions

    def __hash__(self) -> int:
        return hash((self.default, self.exceptions))

    def __repr__(self) -> str:
        if not self.exceptions:
            return f"J({self.default})"
        exc = ", ".join(f"{p}:{v}" for p, v in self.exceptions)
        return f"J({self.default}; {exc})"


# ---------------------------------------------------------------------------
# integer matrices (lists of row lists)

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(a: Matrix, i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _add_row(a: Matrix, dst: int, src: int, c: int) -> None:
    if c:
        row_s = a[src]
        row_d = a[dst]
        for j in range(len(row_d)):
            row_d[j] += c * row_s[j]


def _swap_cols(a: Matrix, i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_col(a: Matrix, dst: int, src: int, c: int) -> None:
    if c:
        for row in a:
            row[dst] += c * row[src]


def snf(matrix: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with transforms: returns (D, U, V), U*M*V = D.

    D is diagonal with non-negative entries and d_i | d_{i+1}; U and V are
    unimodular.  Pivots are chosen by minimal absolute value, which keeps
    intermediate entries small without any appeal to floating point.
    """
    a: Matrix = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise UsageError("ragged matrix")
    u = identity_matrix(m)
    v = identity_matrix(n)
    t = 0
    while t < min(m, n):
        # locate the minimal nonzero pivot in the trailing block
        pi = pj = -1
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (best == 0 or abs(x) < best):
                    best = abs(x)
                    pi, pj = i, j
        if pi < 0:
            break
        _swap_rows(a, t, pi), _swap_rows(u, t, pi)
        _swap_cols(a, t, pj), _swap_cols(v, t, pj)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    _add_row(a, i, t, -q), _add_row(u, i, t, -q)
                    if a[i][t]:
                        # remainder is a strictly smaller pivot
                        _swap_rows(a, t, i), _swap_rows(u, t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    _add_col(a, j, t, -q), _add_col(v, j, t, -q)
                    if a[t][j]:
                        _swap_cols(a, t, j), _swap_cols(v, t, j)
                        dirty = True
            if dirty:
                continue
            # force divisibility of the trailing block by the pivot
            stained = False
            for i in range(t + 1, m):
                if any(a[i][j] % a[t][t] for j in range(t + 1, n)):
                    _add_row(a, t, i, 1), _add_row(u, t, i, 1)
                    stained = True
                    break
            if not stained:
                break
        if a[t][t] < 0:
            _add_row(a, t, t, -2), _add_row(u, t, t, -2)
        t += 1
    d = [[a[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    return d, u, v


def sparse_row(row: Sequence[int] | dict[int, int]) -> dict[int, int]:
    """A dense row's nonzero entries as a {column: entry} dict; a dict is kept."""
    return row if isinstance(row, dict) else {j: x for j, x in enumerate(row) if x}


def _combine(a: int, r: Mapping[int, int], b: int, s: Mapping[int, int],
             moduli: Sequence[int]) -> dict[int, int]:
    """The sparse row a r + b s, each entry reduced modulo its column's modulus."""
    out = {}
    for j in r.keys() | s.keys():
        x = a * r.get(j, 0) + b * s.get(j, 0)
        if moduli[j]:
            x %= moduli[j]
        if x:
            out[j] = x
    return out


def hnf_insert(slots: list[dict[int, int] | None] | dict[int, dict[int, int] | None],
               row: Mapping[int, int], moduli: Sequence[int]) -> bool:
    """Insert one sparse row into echelon slots; return whether the lattice grew.

    Rows are {column: entry} dicts.  slots[i] is None or the basis row
    whose least column, with a positive pivot, is i: slots is a list over
    all the columns or a dict over those the rows reach.  moduli gives one
    modulus per column, 0 for a free one, and a column of modulus m > 0
    must hold a pivot dividing m.  The row is swept from its least column
    up: a pivot that divides its entry clears it, one that does not is
    replaced by their gcd through a unimodular 2 x 2 step that carries the
    second result on, and an empty slot takes the rest (Cohen, section
    2.4).  A step touches only its two rows' columns and reduces the rows
    it forms modulo the moduli.  The lattice grew exactly when a gcd step
    or an empty slot was met.  Slot rows are replaced, never changed in
    place, and the row itself is not changed.
    """
    v = {j: x for j, x in row.items() if x}
    grew = False
    while v:
        i = min(v)
        x = v[i]
        slot = slots[i]
        if slot is None:
            slots[i] = _combine(1 if x > 0 else -1, v, 0, {}, moduli)
            return True
        p = slot[i]
        if x % p:
            g = math.gcd(p, x)
            xg, pg = x // g, p // g
            t = pow(xg, -1, pg)
            s = (g - t * x) // p
            slots[i] = _combine(s, slot, t, v, moduli)
            v = _combine(xg, slot, -pg, v, moduli)
            grew = True
        else:
            v = _combine(1, v, -(x // p), slot, moduli)
    return grew


def hnf(rows: Iterable[Sequence[int]], moduli: Sequence[int] | None = None,
        basis: Iterable[Sequence[int]] = ()) -> Matrix:
    """Row-style Hermite normal form: echelon basis of the row lattice.

    Returns the nonzero rows with strictly increasing pivot columns,
    positive pivots, and entries above each pivot reduced to [0, pivot),
    leftmost pivot first.

    moduli gives one modulus per column, 0 for a free column; without
    it every column is free.  A column with modulus m > 0 holds the row
    m e_i from the start and is kept modulo m.  basis is an echelon
    basis with positive pivots over the same moduli, by default that of
    the rows m e_i alone, and the rows are inserted into it one by one
    with hnf_insert: the result is the Hermite form of basis + rows +
    diag(m).
    """
    rows = list(rows)
    basis = list(basis)
    if moduli is None:
        first = rows[0] if rows else basis[0] if basis else ()
        moduli = (0,) * len(first)
    mods = tuple(moduli)
    work = [{i: m} if m else None for i, m in enumerate(mods)]
    for slot in map(sparse_row, basis):
        work[min(slot)] = slot
    for r in rows:
        if len(r) != len(mods):
            raise UsageError("ragged matrix")
        hnf_insert(work, sparse_row(r), mods)
    pivots = [i for i, slot in enumerate(work) if slot is not None]
    result = [[work[i].get(j, 0) for j in range(len(mods))] for i in pivots]
    # reduce entries above each pivot, leftmost pivot first, so that a
    # later reduction never touches a column already reduced
    for k, col in enumerate(pivots):
        row = result[k]
        for j in range(k):
            q = result[j][col] // row[col]
            if q:
                result[j] = [a - q * b for a, b in zip(result[j], row)]
    return result


def solve_in_rowspace(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int] | None:
    """Integer coefficients expressing vec over an HNF basis, else None."""
    v = list(map(int, vec))
    coeffs = []
    for row in basis:
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:  # pragma: no cover
            raise UsageError("hnf basis contains a zero row")
        q, r = divmod(v[col], row[col])
        if r:
            return None
        coeffs.append(q)
        for j in range(len(v)):
            v[j] -= q * row[j]
    return coeffs if not any(v) else None


def kernel_left(matrix: Sequence[Sequence[int]]) -> Matrix:
    """Basis of {x : x * M = 0} over the integers.

    Hermite-reduces the augmented rows (M_i | e_i); in the echelon basis
    the rows whose M-part vanished carry exactly the kernel combinations.
    """
    m = len(matrix)
    if m == 0:
        return []
    n = len(matrix[0])
    aug = [list(map(int, row)) + [1 if k == i else 0 for k in range(m)]
           for i, row in enumerate(matrix)]
    return [row[n:] for row in hnf(aug) if not any(row[:n])]
