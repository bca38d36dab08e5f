"""Exact scalar-plus-finite-rank analysis over prime fields and Q.

A square matrix M has a scalar defect: the minimum over field scalars
lambda of rank(M - lambda*I).  Writing M = lambda*I + (M - lambda*I)
exhibits M as a scalar plus a map of small rank, and the defect bounds
how much one application of M can grow any subspace, because
H + MH = H + (M - lambda*I)H for every lambda.

Two oracles probe that bound: max_inert_codim searches the subspaces
of a small prime-field space exactly, and growth_bound_check samples
random subspaces at any size.  Note the growth of a subspace of
dimension d is also capped by min(d, n - d), so the defect bound need
not be attained in a finite space; the cap vanishes only when both H
and its complement are infinite-dimensional.

max_inert_codim visits the dimensions d in decreasing order of that
cap and stops once no remaining cap exceeds the best growth found, or
leaves a dimension once its cap is reached.  Only the dimension cap
prunes, never the scalar defect, so the result is the exact maximum
over all subspaces.  Within a dimension it sweeps Schubert cells: the
subspaces whose reduced-echelon bases V share one set P of pivot
columns.  In the coordinates (P, Q), Q the other columns, V = [I | X],
and the growth of H = rowspace(V) is the rank of the d x (n - d)
residue matrix R = (VM)_Q - (VM)_P X: what is left of each image v*M
once the basis has cleared its pivot entries.  Row i of VM depends
only on row i of V, so each row's images are tabulated once per cell
and a subspace costs d short row updates and one small rank.
growth_bound_check measures a sampled subspace H as
rank([V; VM]) - rank(V) over F_2 and F_3, and through the same residue
matrix over p >= 5 and Q.

Over F_2 every vector is a Python int with bit j for column j: a row
update is one XOR and a rank is an XOR basis.  Over F_3 a vector is
bit-sliced into two such ints, (ones, twos), and a row update is a few
AND/OR/XOR operations.  So over both fields the cell sweep, the samples
and ExactMatrix.rank (and with it scalar_defect) run on packed rows.
Primes from 5 up and Q keep their entries in lists.

Vectors are rows and M sends v to v*M, matching the convention used
for matrix parts of endomorphisms elsewhere in the package.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, product

from .exactnum import UsageError, factor, inv_mod, is_prime

__all__ = [
    "DEFAULT_BUDGET", "ExactMatrix", "DefectResult", "GrowthReport",
    "scalar_defect", "count_subspaces", "enumerate_subspaces",
    "max_inert_codim", "growth_bound_check",
]

DEFAULT_BUDGET = 256  # cap on p**n for exhaustive subspace enumeration

Field = int | str  # a prime, or "Q"


def _check_field(field: Field) -> None:
    if field != "Q" and not (isinstance(field, int) and is_prime(field)):
        raise UsageError("field must be a prime or 'Q'")


def _reduce(field: Field, rows) -> tuple[tuple, ...]:
    """Reduced row-echelon form; zero rows dropped, so len() is the rank."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    height = len(mat)
    r = 0
    for c in range(len(mat[0])):
        for piv in range(r, height):
            if mat[piv][c]:
                break
        else:
            continue
        row = mat[piv]
        mat[piv] = mat[r]
        if field == "Q":
            inv = 1 / Fraction(row[c])
            row = [v * inv for v in row]
        elif row[c] != 1:
            inv = inv_mod(row[c], field)
            row = [v * inv % field for v in row]
        for i in range(height):
            f = mat[i][c]
            if f and i != r:
                if field == "Q":
                    mat[i] = [a - f * b for a, b in zip(mat[i], row)]
                else:
                    mat[i] = [(a - f * b) % field for a, b in zip(mat[i], row)]
        mat[r] = row
        r += 1
        if r == height:
            break
    return tuple(tuple(row) for row in mat[:r])


def _bits(row) -> int:
    """An F_2 row as a bitmask: bit j is the entry in column j."""
    return sum(1 << j for j, v in enumerate(row) if v)


def _trits(row) -> tuple[int, int]:
    """An F_3 row bit-sliced as (ones, twos): bit j of ones is set when
    the entry in column j is 1, and bit j of twos when it is 2."""
    return _bits(v == 1 for v in row), _bits(v == 2 for v in row)


def _trit_add(a1: int, a2: int, b1: int, b2: int) -> tuple[int, int]:
    """(a1, a2) + (b1, b2) over F_3 on bit-sliced rows, column by column
    (Kawahara, Aoki and Takagi, Pairing 2008).  Negation swaps a pair."""
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _xor_basis(basis: list[int], vecs) -> list[int]:
    """Extend an F_2 basis of bitmasks by vecs, in place.

    min(v, v ^ b) clears the leading bit of b from v exactly when v
    carries it.  No basis vector carries the leading bit of an earlier
    one, so a pass in basis order never brings a cleared bit back, and
    what is left of v is 0 or a new basis vector.
    """
    for v in vecs:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return basis


def _trit_basis(basis: list[tuple[int, int, int]], vecs) -> list[tuple[int, int, int]]:
    """_xor_basis over F_3, for bit-sliced vecs: a basis vector is kept as
    (lead, ones, twos) with entry 1 at its leading bit lead, so v loses
    that entry by subtracting it when v carries 1 there and by adding it
    when v carries 2."""
    for v1, v2 in vecs:
        for lead, b1, b2 in basis:
            if v1 & lead:
                v1, v2 = _trit_add(v1, v2, b2, b1)
            elif v2 & lead:
                v1, v2 = _trit_add(v1, v2, b1, b2)
        if v1 | v2:
            lead = 1 << (v1 | v2).bit_length() - 1
            basis.append((lead, v1, v2) if v1 & lead else (lead, v2, v1))
    return basis


class ExactMatrix:
    """A square matrix with exact entries over F_p (field = p) or the
    rationals (field = "Q").

    An entry over F_p is an integer, or a Fraction with denominator 1,
    read mod p; over Q it is an integer or a Fraction.  Anything else is
    refused with the row and column, since a float would be read as its
    binary rounding and a string would pass through unchecked.
    """

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, rows) -> None:
        _check_field(field)
        grid = [list(r) for r in rows]
        n = len(grid)
        if any(len(r) != n for r in grid):
            raise UsageError("the matrix must be square")
        for i, r in enumerate(grid):
            for j, v in enumerate(r):
                if not (isinstance(v, int) or isinstance(v, Fraction)
                        and (field == "Q" or v.denominator == 1)):
                    want = "an integer or a Fraction" if field == "Q" \
                        else "an integer"
                    raise UsageError(f"row {i}, column {j}: expected {want}, "
                                     f"not {type(v).__name__} {v!r}")
        self.field = field
        self.n = n
        if field == "Q":
            self.rows = tuple(tuple(Fraction(v) for v in r) for r in grid)
        else:
            self.rows = tuple(tuple(int(v) % field for v in r) for r in grid)

    @classmethod
    def identity(cls, field: Field, n: int) -> "ExactMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)]
                           for i in range(n)])

    @classmethod
    def zero(cls, field: Field, n: int) -> "ExactMatrix":
        return cls(field, [[0] * n for _ in range(n)])

    def sub_scalar(self, lam) -> "ExactMatrix":
        rows = [list(r) for r in self.rows]
        for i in range(self.n):
            rows[i][i] -= lam
        return ExactMatrix(self.field, rows)

    def apply_row(self, v):
        """The image v * M of a row vector: the rows of M scaled by the
        entries of v and summed."""
        out = [0] * self.n
        for a, row in zip(v, self.rows):
            if a:
                out = [o + a * r for o, r in zip(out, row)]
        if self.field == "Q":
            return tuple(Fraction(o) for o in out)
        return tuple(o % self.field for o in out)

    def rank(self) -> int:
        if self.field == 2:
            return len(_xor_basis([], map(_bits, self.rows)))
        if self.field == 3:
            return len(_trit_basis([], map(_trits, self.rows)))
        return len(_reduce(self.field, self.rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.field!r}, {[list(r) for r in self.rows]})"


# ---------------------------------------------------------------------------
# the scalar defect

@dataclass(frozen=True)
class DefectResult:
    """M = lam*I + finitary with rank(finitary) = defect.

    lam is None only over the rationals with excludeZero set and no
    nonzero rational eigenvalue; the defect is then the full dimension
    and finitary is M itself.
    """

    lam: Fraction | int | None
    defect: int
    finitary: ExactMatrix


def _charpoly(rows) -> list[Fraction]:
    """Coefficients of det(xI - M), ascending, by trace recursion."""
    n = len(rows)
    M = [[Fraction(v) for v in r] for r in rows]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    A = [row[:] for row in M]
    for k in range(1, n + 1):
        c = -sum(A[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        if k == n:
            break
        for i in range(n):
            A[i][i] += c
        A = [[sum(M[i][t] * A[t][j] for t in range(n)) for j in range(n)]
             for i in range(n)]
    return coeffs


def _divisors(m: int) -> list[int]:
    out = [1]
    for p, e in factor(m).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return out


def _rational_eigenvalues(M: ExactMatrix) -> set[Fraction]:
    """All rational eigenvalues, via integer roots of the cleared
    characteristic polynomial."""
    den = math.lcm(*(v.denominator for r in M.rows for v in r), 1)
    scaled = [[v * den for v in r] for r in M.rows]
    cs = _charpoly(scaled)
    low = next(i for i, c in enumerate(cs) if c)
    out: set[Fraction] = set()
    if low > 0:
        out.add(Fraction(0))
    const = int(cs[low])
    for d in _divisors(abs(const)):
        for t in (d, -d):
            if sum(c * t ** (i - low) for i, c in enumerate(cs)
                   if i >= low) == 0:
                out.add(Fraction(t, den))
    return out


def scalar_defect(M: ExactMatrix, exclude_zero: bool = False) -> DefectResult:
    """The field scalar minimizing rank(M - lam*I).

    Over F_p every scalar is scanned; over Q the candidates are the
    rational eigenvalues plus 0.  Ties break toward the smaller
    representative.  With exclude_zero, 0 is not admitted; over Q this
    can leave no candidate at all.
    """
    n = M.n
    if M.field == "Q":
        cands = _rational_eigenvalues(M) | {Fraction(0)}
        if exclude_zero:
            cands.discard(Fraction(0))
        if not cands:
            return DefectResult(None, n, M)
        ordered = sorted(cands)
    else:
        ordered = [lam for lam in range(M.field)
                   if lam or not exclude_zero]
    best = None
    for lam in ordered:
        d = M.sub_scalar(lam).rank()
        if best is None or d < best[1]:
            best = (lam, d)
    lam, d = best
    return DefectResult(lam, d, M.sub_scalar(lam))


# ---------------------------------------------------------------------------
# subspace oracles

def count_subspaces(p: int, n: int) -> int:
    """Number of subspaces of F_p^n (Gaussian binomial column sums)."""
    total = 0
    for d in range(n + 1):
        num = den = 1
        for i in range(d):
            num *= p ** (n - i) - 1
            den *= p ** (d - i) - 1
        total += num // den
    return total


def _check_budget(p: int, n: int, budget: int) -> None:
    if not (isinstance(p, int) and is_prime(p)):
        raise UsageError("subspace enumeration needs a prime field")
    if p ** n > budget:
        raise UsageError(f"{p}**{n} exceeds the enumeration budget {budget}")


def _free_rows(p: int, pivots, rest, i: int):
    """Yield, in lexicographic order, the part x on the columns of rest of
    every basis row i in the Schubert cell of the pivots: the reduced row
    is e_{pivots[i]} plus x, and x is free on the columns right of the
    pivot and zero left of it."""
    free = [k for k, q in enumerate(rest) if q > pivots[i]]
    for vals in product(range(p), repeat=len(free)):
        x = [0] * len(rest)
        for k, v in zip(free, vals):
            x[k] = v
        yield x


def _stratum(p: int, n: int, d: int):
    """Yield the reduced-echelon basis of every d-dimensional subspace of
    F_p^n, grouped by pivot columns (not sorted)."""
    for pivots in combinations(range(n), d):
        rest = [c for c in range(n) if c not in pivots]
        for xs in product(*(list(_free_rows(p, pivots, rest, i))
                            for i in range(d))):
            rows = [[0] * n for _ in range(d)]
            for row, c, x in zip(rows, pivots, xs):
                row[c] = 1
                for q, v in zip(rest, x):
                    row[q] = v
            yield tuple(tuple(r) for r in rows)


def enumerate_subspaces(p: int, n: int,
                        budget: int = DEFAULT_BUDGET) -> list[tuple]:
    """Every subspace of F_p^n as a tuple of reduced-echelon basis rows,
    ordered by dimension and then lexicographically.

    The precondition bounds p**n by the budget; the work done is
    count_subspaces(p, n) echelon forms.
    """
    _check_budget(p, n, budget)
    return [basis for d in range(n + 1) for basis in sorted(_stratum(p, n, d))]


def _residue_rank(field: Field, cells) -> int:
    """The rank of the residue matrix R = U - C X of one subspace H.

    cells holds a triple (x_i, u_i, c_i) per reduced-echelon basis row
    v_i of H.  With P the pivot columns and Q the others, x_i = (v_i)_Q,
    u_i = (v_i M)_Q and c_i = (v_i M)_P.  As v_k is 1 at its own pivot
    and 0 at the other pivots, v_i M - sum_k c_i[k] v_k is zero on P and
    is the row u_i - c_i X on Q.  H meets the coordinate space on Q only
    in 0, so H + HM = H + rowspace(R) is a direct sum and rank(R) is
    dim(H + HM) - dim H.  Over F_p the residues are taken mod p once.
    """
    xs = [x for x, _, _ in cells]
    residues = []
    for _, u, c in cells:
        w = u
        for f, x in zip(c, xs):
            if f:
                w = [a - f * b for a, b in zip(w, x)]
        if field != "Q":
            w = [a % field for a in w]
        if any(w):
            residues.append(w)
    if len(residues) < 2:
        return len(residues)
    return len(_reduce(field, residues))


def _growth(M: ExactMatrix, basis) -> int:
    """dim(H + HM) - dim H for H spanned by a reduced-echelon basis."""
    pivots = [next(c for c, x in enumerate(row) if x) for row in basis]
    rest = [c for c in range(M.n) if c not in pivots]
    cells = []
    for v in basis:
        w = M.apply_row(v)
        cells.append(([v[q] for q in rest], [w[q] for q in rest],
                      [w[c] for c in pivots]))
    return _residue_rank(M.field, cells)


def _bit_image(rows, v: int) -> int:
    """The image v * M of an F_2 bitmask row, for M's rows as bitmasks."""
    w = j = 0
    while v:
        if v & 1:
            w ^= rows[j]
        v >>= 1
        j += 1
    return w


def _bit_growth(rows, vecs) -> int:
    """_growth over F_2 for H spanned by the bitmask rows vecs, with M's
    rows as bitmasks: rank([V; VM]) - rank(V), where only the XOR basis
    of V needs its image."""
    basis = _xor_basis([], vecs)
    dim = len(basis)
    return len(_xor_basis(basis, [_bit_image(rows, v) for v in basis])) - dim


def _trit_image(rows, v) -> tuple[int, int]:
    """The image v * M of a bit-sliced F_3 row, for M's rows bit-sliced."""
    v1, v2 = v
    w1 = w2 = j = 0
    while v1 | v2:
        if v1 & 1:
            w1, w2 = _trit_add(w1, w2, *rows[j])
        elif v2 & 1:
            r1, r2 = rows[j]
            w1, w2 = _trit_add(w1, w2, r2, r1)
        v1 >>= 1
        v2 >>= 1
        j += 1
    return w1, w2


def _trit_growth(rows, vecs) -> int:
    """_bit_growth over F_3, for M's rows and the rows vecs of V
    bit-sliced."""
    basis = _trit_basis([], vecs)
    dim = len(basis)
    return len(_trit_basis(basis, [_trit_image(rows, (b1, b2))
                                   for _, b1, b2 in basis])) - dim


def _cell(M: ExactMatrix, pivots, rest, i: int):
    """The triple (x, u, c) of _residue_rank for every basis row i of the
    Schubert cell of the pivots, in the order of _free_rows: the image
    of e_{pivots[i]} + x is M's pivot row plus x times M's rows of rest."""
    p = M.field
    for x in _free_rows(p, pivots, rest, i):
        w = M.rows[pivots[i]]
        for q, v in zip(rest, x):
            if v:
                w = [a + v * b for a, b in zip(w, M.rows[q])]
        yield x, [w[q] % p for q in rest], [w[c] % p for c in pivots]


def _xor_residue_rank(cells) -> int:
    """_residue_rank over F_2 on bitmasks: x and u are masks on the
    columns of Q and c lists the indices k of the pivots that v M
    carries, so the residue row is u ^ x_k over those k."""
    xs = [x for x, _, _ in cells]
    residues = []
    for _, u, c in cells:
        for k in c:
            u ^= xs[k]
        residues.append(u)
    return len(_xor_basis([], residues))


def _bit_cell(rows, pivots, rest, i):
    """_cell over F_2, in the same order, for M's rows as bitmasks: the
    triple (x, u, c) of _xor_residue_rank for every basis row i."""
    mask = sum(1 << q for q in rest)
    free = [q for q in rest if q > pivots[i]]
    for vals in product((0, 1), repeat=len(free)):
        x, w = 0, rows[pivots[i]]
        for q, v in zip(free, vals):
            if v:
                x |= 1 << q
                w ^= rows[q]
        yield x, w & mask, tuple(k for k, c in enumerate(pivots) if w >> c & 1)


def _trit_residue_rank(cells) -> int:
    """_residue_rank over F_3 on bit-sliced rows: x and u are pairs on the
    columns of Q and c lists a pair (k, e) for each pivot k that v M
    carries with entry e, so the residue row is u - e x_k over those k."""
    xs = [x for x, _, _ in cells]
    residues = []
    for _, (u1, u2), c in cells:
        for k, e in c:
            x1, x2 = xs[k]
            if e == 1:
                x1, x2 = x2, x1
            u1, u2 = _trit_add(u1, u2, x1, x2)
        residues.append((u1, u2))
    return len(_trit_basis([], residues))


def _trit_cell(rows, pivots, rest, i):
    """_cell over F_3, in the same order, for M's rows bit-sliced: the
    triple (x, u, c) of _trit_residue_rank for every basis row i."""
    mask = sum(1 << q for q in rest)
    free = [q for q in rest if q > pivots[i]]
    for vals in product((0, 1, 2), repeat=len(free)):
        x1 = x2 = 0
        w1, w2 = rows[pivots[i]]
        for q, v in zip(free, vals):
            if v == 1:
                x1 |= 1 << q
                w1, w2 = _trit_add(w1, w2, *rows[q])
            elif v:
                x2 |= 1 << q
                r1, r2 = rows[q]
                w1, w2 = _trit_add(w1, w2, r2, r1)
        yield (x1, x2), (w1 & mask, w2 & mask), tuple(
            (k, 1 if w1 >> c & 1 else 2) for k, c in enumerate(pivots)
            if (w1 | w2) >> c & 1)


def _stratum_growths(M: ExactMatrix, d: int):
    """Yield the growth of every d-dimensional subspace, in the order of
    _stratum, sweeping one Schubert cell per set of pivots: on bitmask
    rows over F_2, on bit-sliced rows over F_3, on lists otherwise."""
    n = M.n
    if M.field == 2:
        cell, measure = partial(_bit_cell, [_bits(r) for r in M.rows]), _xor_residue_rank
    elif M.field == 3:
        cell, measure = partial(_trit_cell, [_trits(r) for r in M.rows]), _trit_residue_rank
    else:
        cell, measure = partial(_cell, M), partial(_residue_rank, M.field)
    for pivots in combinations(range(n), d):
        rest = [c for c in range(n) if c not in pivots]
        later = [list(cell(pivots, rest, i)) for i in range(1, d)]
        for first in cell(pivots, rest, 0):
            for cells in product(*later):
                yield measure((first, *cells))


def max_inert_codim(M: ExactMatrix, budget: int = DEFAULT_BUDGET) -> int:
    """Exhaustive max over all subspaces H of dim(H + HM) - dim H.

    A d-dimensional H grows by at most its cap min(d, n - d), so the
    dimensions are visited in decreasing order of cap (the smaller d
    first on a tie).  The scan stops once no remaining cap exceeds the
    best growth found, and leaves a dimension as soon as the best growth
    reaches its cap.  Only this dimension cap prunes, never the scalar
    defect, so every subspace that could still raise the maximum is
    measured and the result is exact.

    A dimension is swept one Schubert cell at a time, in the order of
    _stratum, and each subspace's growth is the rank of its residue
    matrix R = (VM)_Q - (VM)_P X (see _residue_rank).  The images of
    basis rows 1..d-1 are tabulated once per cell; those of row 0, the
    row with the most free entries, are made as the sweep reaches them,
    so a dimension left at its cap stops without paying for its cell.
    Over F_2 a cell row is a pair of bitmasks and its residue a few
    XORs (_bit_cell, _xor_residue_rank), over F_3 the same on bit-sliced
    rows (_trit_cell, _trit_residue_rank); p >= 5 keeps the list kernel.
    All three share this one loop over dimensions, cells and the cap.

    The result is at most min(scalar_defect(M).defect, M.n // 2): the
    defect bounds it because H + HM = H + H(M - lambda*I).  Equality
    with that cap is what the exhaustive scans in the test suite check
    (test_growth_equals_capped_defect_exhaustively and clause (a') of
    acceptance criterion 11); PAPER.md does not settle whether it holds
    for every n.
    """
    n = M.n
    _check_budget(M.field, n, budget)
    best = 0
    for d in sorted(range(n + 1), key=lambda d: -min(d, n - d)):
        cap = min(d, n - d)
        if cap <= best:
            break
        for growth in _stratum_growths(M, d):
            best = max(best, growth)
            if best == cap:
                break
    return best


@dataclass(frozen=True)
class GrowthReport:
    trials: int
    max_growth: int
    bound: int
    lam: Fraction | int | None


def growth_bound_check(M: ExactMatrix, trials: int, seed: int) -> GrowthReport:
    """Sample random subspaces and check none grows past the defect.

    Each trial draws a dimension d and then d rows from one
    random.Random(seed): over F_2 one getrandbits(n) per row, with bit j
    for column j, otherwise n entries row by row.  Each row is uniform
    over F_p^n either way.  The span H of the rows is measured by
    dim(H + HM) - dim H: over F_2 and F_3 as rank([V; VM]) - rank(V) on
    packed rows (_bit_growth, _trit_growth), over p >= 5 and Q by
    _growth on the reduced basis.  trials must be a positive integer.
    """
    if not isinstance(trials, int) or trials < 1:
        raise UsageError("trials must be a positive integer")
    res = scalar_defect(M)
    rng = random.Random(seed)
    n = M.n
    if M.field == 2:
        rows = [_bits(r) for r in M.rows]
    elif M.field == 3:
        rows = [_trits(r) for r in M.rows]
    best = 0
    for _ in range(trials):
        d = rng.randrange(n + 1)
        if M.field == "Q":
            vecs = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(n)] for _ in range(d)]
        elif M.field == 2:
            vecs = [rng.getrandbits(n) for _ in range(d)]
        else:
            vecs = [[rng.randrange(M.field) for _ in range(n)]
                    for _ in range(d)]
        if M.field == 2:
            growth = _bit_growth(rows, vecs)
        elif M.field == 3:
            growth = _trit_growth(rows, map(_trits, vecs))
        else:
            growth = _growth(M, _reduce(M.field, vecs))
        if growth > res.defect:  # H + MH = H + (M - lam)H
            raise AssertionError("a subspace grew past the scalar defect")
        best = max(best, growth)
    return GrowthReport(trials, best, res.defect, res.lam)
