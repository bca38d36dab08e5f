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
over all subspaces.  Both oracles measure growth with one kernel.

Vectors are rows and M sends v to v*M, matching the convention used
for matrix parts of endomorphisms elsewhere in the package.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
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
    cols = len(mat[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        if field == "Q":
            inv = 1 / Fraction(mat[r][c])
            mat[r] = [v * inv for v in mat[r]]
        else:
            inv = inv_mod(mat[r][c], field)
            mat[r] = [v * inv % field for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                if field == "Q":
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
                else:
                    mat[i] = [(a - f * b) % field
                              for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r])


class ExactMatrix:
    """A square matrix with exact entries over F_p (field = p) or the
    rationals (field = "Q")."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, rows) -> None:
        _check_field(field)
        grid = [list(r) for r in rows]
        n = len(grid)
        if any(len(r) != n for r in grid):
            raise UsageError("the matrix must be square")
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


def _stratum(p: int, n: int, d: int):
    """Yield the reduced-echelon basis of every d-dimensional subspace of
    F_p^n, grouped by pivot columns (not sorted)."""
    for pivots in combinations(range(n), d):
        free = [(i, j) for i in range(d) for j in range(n)
                if j > pivots[i] and j not in pivots]
        for vals in product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in range(d)]
            for i in range(d):
                rows[i][pivots[i]] = 1
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
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


def _growth(M: ExactMatrix, basis) -> int:
    """dim(H + HM) - dim H for H spanned by a reduced-echelon basis: the
    rank of the images v*M once each is reduced against the basis rows.

    A basis row is zero at every other row's pivot, so each subtraction
    clears one pivot entry of the image and leaves the others as they
    were; over F_p the residues are taken mod p once, at the end.
    """
    pivots = [next(c for c, x in enumerate(row) if x) for row in basis]
    residues = []
    for v in basis:
        w = M.apply_row(v)
        for row, c in zip(basis, pivots):
            f = w[c]
            if f:
                w = [a - f * b for a, b in zip(w, row)]
        residues.append(w)
    if M.field != "Q":
        residues = [[a % M.field for a in w] for w in residues]
    return len(_reduce(M.field, residues))


def max_inert_codim(M: ExactMatrix, budget: int = DEFAULT_BUDGET) -> int:
    """Exhaustive max over all subspaces H of dim(H + HM) - dim H.

    A d-dimensional H grows by at most its cap min(d, n - d), so the
    dimensions are visited in decreasing order of cap (the smaller d
    first on a tie).  The scan stops once no remaining cap exceeds the
    best growth found, and leaves a dimension as soon as the best growth
    reaches its cap.  Only this dimension cap prunes, never the scalar
    defect, so every subspace that could still raise the maximum is
    measured and the result is exact.

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
        for basis in _stratum(M.field, n, d):
            best = max(best, _growth(M, basis))
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
    """Sample random subspaces and check none grows past the defect."""
    res = scalar_defect(M)
    rng = random.Random(seed)
    n = M.n
    best = 0
    for _ in range(trials):
        d = rng.randrange(n + 1)
        if M.field == "Q":
            vecs = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(n)] for _ in range(d)]
        else:
            vecs = [[rng.randrange(M.field) for _ in range(n)]
                    for _ in range(d)]
        basis = _reduce(M.field, vecs)
        growth = _growth(M, basis)
        if growth > res.defect:  # H + MH = H + (M - lam)H
            raise AssertionError("a subspace grew past the scalar defect")
        best = max(best, growth)
    return GrowthReport(trials, best, res.defect, res.lam)
