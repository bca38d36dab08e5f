"""Scalar-defect analysis and exhaustive subspace growth oracles."""
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abinertia import linmap
from abinertia.exactnum import UsageError
from abinertia.linmap import (
    DEFAULT_BUDGET, ExactMatrix, count_subspaces, enumerate_subspaces,
    growth_bound_check, max_inert_codim, scalar_defect,
)

F = Fraction


def jordan(field, n, lam=0):
    rows = [[lam if i == j else (1 if j == i + 1 else 0) for j in range(n)]
            for i in range(n)]
    return ExactMatrix(field, rows)


def diag(field, *vals):
    n = len(vals)
    return ExactMatrix(field, [[vals[i] if i == j else 0 for j in range(n)]
                               for i in range(n)])


def test_constructor_rejects_bad_input():
    with pytest.raises(UsageError, match="square"):
        ExactMatrix(2, [[1, 0]])
    with pytest.raises(UsageError, match="field"):
        ExactMatrix(4, [[1]])
    with pytest.raises(UsageError, match="field"):
        ExactMatrix("R", [[1]])


def test_constructor_refuses_inexact_entries():
    # a non-integral residue, a float, a string and a float rational are
    # refused at their row and column instead of being silently changed
    for field, rows, at in (
            (3, [[F(1, 2), 1], [0, 2]], "row 0, column 0"),
            (3, [[1, 1], [0, 2.9]], "row 1, column 1"),
            (5, [["3", 1], [0, 1]], "row 0, column 0"),
            ("Q", [[1, 0], [0.1, 1]], "row 1, column 0")):
        with pytest.raises(UsageError, match=at):
            ExactMatrix(field, rows)
    assert ExactMatrix(3, [[F(4, 1), -1], [0, 2]]).rows == ((1, 2), (0, 2))
    assert ExactMatrix("Q", [[F(1, 2), 3]] * 2).rows == ((F(1, 2), F(3)),) * 2


def test_scalar_matrix_has_zero_defect():
    got = scalar_defect(diag(5, 3, 3, 3))
    assert (got.lam, got.defect) == (3, 0)
    assert got.finitary == ExactMatrix.zero(5, 3)
    gotq = scalar_defect(diag("Q", F(1, 2), F(1, 2)))
    assert (gotq.lam, gotq.defect) == (F(1, 2), 0)


def test_jordan_block_over_f2():
    got = scalar_defect(jordan(2, 2, lam=1))
    assert (got.lam, got.defect) == (1, 1)
    assert got.finitary == jordan(2, 2, lam=0)
    assert got.finitary.rank() == 1


def test_exclude_zero():
    got = scalar_defect(diag(2, 1, 1, 0), exclude_zero=True)
    assert (got.lam, got.defect) == (1, 1)
    # zero matrix still gets a scalar over a prime field
    got = scalar_defect(ExactMatrix.zero(2, 2), exclude_zero=True)
    assert (got.lam, got.defect) == (1, 2)


def test_rational_eigenvalue_extraction():
    got = scalar_defect(diag("Q", F(1, 2), F(1, 2), 5))
    assert (got.lam, got.defect) == (F(1, 2), 1)
    # x^2 - 2 has no rational root; only 0 remains as a candidate
    irr = ExactMatrix("Q", [[0, 1], [2, 0]])
    assert (scalar_defect(irr).lam, scalar_defect(irr).defect) == (F(0), 2)
    none = scalar_defect(irr, exclude_zero=True)
    assert none.lam is None and none.defect == 2 and none.finitary == irr


def test_ties_break_toward_smaller_scalar():
    got = scalar_defect(ExactMatrix("Q", [[2, 1], [0, 3]]))
    assert (got.lam, got.defect) == (F(2), 1)


def test_shift_equivariance():
    rng_cases = [
        ExactMatrix("Q", [[1, 2], [0, 1]]),
        ExactMatrix("Q", [[F(1, 3), 0, 0], [1, F(1, 3), 0], [0, 0, 7]]),
    ]
    for M in rng_cases:
        base = scalar_defect(M)
        for mu in (F(1), F(-2), F(1, 2)):
            shifted = scalar_defect(M.sub_scalar(-mu))
            assert shifted.defect == base.defect
            assert shifted.lam == base.lam + mu  # rational order is shift-invariant
    # over F_p the defect still shifts, but a tie can wrap around and
    # change which representative is smallest
    tied = diag(3, 0, 1)
    assert scalar_defect(tied).lam == 0  # ties with lam=1
    assert scalar_defect(tied.sub_scalar(-2)).lam == 0  # 0+2 wrapped past 2
    assert scalar_defect(tied.sub_scalar(-2)).defect == scalar_defect(tied).defect


def test_subspace_counts():
    assert count_subspaces(2, 3) == 16
    assert count_subspaces(2, 4) == 67
    assert count_subspaces(3, 3) == 28
    for (p, n) in [(2, 3), (2, 4), (3, 3)]:
        assert len(enumerate_subspaces(p, n)) == count_subspaces(p, n)


def test_enumeration_is_canonical_and_ordered():
    subs = enumerate_subspaces(2, 3)
    assert subs[0] == ()
    dims = [len(b) for b in subs]
    assert dims == sorted(dims)
    assert len(set(subs)) == len(subs)
    with pytest.raises(UsageError, match="budget"):
        enumerate_subspaces(2, 9)
    with pytest.raises(UsageError, match="prime"):
        enumerate_subspaces(4, 2)


def test_max_inert_codim_examples():
    assert max_inert_codim(ExactMatrix.identity(2, 2)) == 0
    assert max_inert_codim(ExactMatrix.identity(2, 3)) == 0
    assert max_inert_codim(jordan(2, 2, lam=1)) == 1
    assert max_inert_codim(jordan(2, 2, lam=0)) == 1
    with pytest.raises(UsageError, match="prime"):
        max_inert_codim(ExactMatrix.identity("Q", 2))


def test_defect_is_not_attained_in_small_dimension():
    # growth of a d-dimensional subspace is also capped by min(d, n-d),
    # so a defect past n//2 cannot be realized; the companion matrix of
    # x^2+x+1 over F_2 has no eigenvalue at all and defect 2
    comp = ExactMatrix(2, [[0, 1], [1, 1]])
    assert scalar_defect(comp).defect == 2
    assert max_inert_codim(comp) == 1
    assert scalar_defect(jordan(2, 4)).defect == 3
    assert max_inert_codim(jordan(2, 4)) == 2


def test_growth_equals_capped_defect_exhaustively():
    # scanned over every matrix: max growth = min(defect, n//2)
    for (p, n) in [(2, 2), (3, 2), (2, 3)]:
        for entries in product(range(p), repeat=n * n):
            M = ExactMatrix(p, [entries[i * n:(i + 1) * n] for i in range(n)])
            assert max_inert_codim(M) == \
                min(scalar_defect(M).defect, n // 2)


def _reference_rank(p, rows):
    """Rank over F_p by plain elimination, independent of linmap."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _reference_max_growth(M):
    """The unpruned scan: every subspace, growth as a stacked rank."""
    p, n = M.field, M.n
    cols = list(zip(*M.rows))

    def image(v):
        return [sum(a * b for a, b in zip(v, col)) % p for col in cols]

    return max(_reference_rank(p, list(b) + [image(v) for v in b]) - len(b)
               for b in enumerate_subspaces(p, n, budget=p ** n))


def _block_diag(p, *blocks):
    n = sum(len(b) for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, r in enumerate(b):
            rows[at + i][at:at + len(r)] = r
        at += len(b)
    return ExactMatrix(p, rows)


def _structured():
    """Matrices whose maximum stays below n // 2, so that no stratum is
    cut short at its cap of n // 2 and the scan has to exhaust it."""
    rank_one = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    rank_one[1] = [1, 0, 0, 2]
    return [
        ExactMatrix.identity(2, 5), diag(3, 2, 2, 2, 2), ExactMatrix(3, rank_one),
        _block_diag(2, [[1, 1], [0, 1]], [[1]], [[1]], [[1]]),
        _block_diag(3, [[2, 1], [0, 2]], [[2]], [[2]]),
        _block_diag(2, [[0, 1], [1, 1]], [[1]], [[1]], [[1]], [[1]]),
        _block_diag(3, [[0, 1], [2, 2]], [[1]], [[1]]),
    ]


def test_pruned_search_matches_unpruned_scan():
    rng = random.Random(20261018)
    for p, n, count in ((2, 4, 12), (2, 5, 6), (2, 6, 2), (3, 4, 6),
                        (3, 5, 1), (5, 3, 12)):
        for _ in range(count):
            M = ExactMatrix(p, [[rng.randrange(p) for _ in range(n)]
                                for _ in range(n)])
            assert max_inert_codim(M, budget=p ** n) == \
                _reference_max_growth(M), M
    for M in _structured():
        ref = _reference_max_growth(M)
        assert ref < M.n // 2, M
        assert max_inert_codim(M, budget=M.field ** M.n) == ref, M


def test_the_search_never_reads_the_scalar_defect(monkeypatch):
    # the oracle stays independent of the defect route it cross-checks
    expected = [(M, _reference_max_growth(M)) for M in _structured()]

    def refuse(*args, **kwargs):
        raise AssertionError("max_inert_codim reached the scalar defect")

    monkeypatch.setattr(linmap, "scalar_defect", refuse)
    monkeypatch.setattr(linmap, "_rational_eigenvalues", refuse)
    monkeypatch.setattr(ExactMatrix, "sub_scalar", refuse)
    for M, ref in expected:
        assert max_inert_codim(M, budget=M.field ** M.n) == ref, M


# F_2^7 and F_2^8 fit p**n <= 256 too, but their unpruned reference
# scans (29212 and 417199 subspaces) take seconds to minutes
_SMALL_SHAPES = [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(9)
                 if p ** n <= 256 and count_subspaces(p, n) <= 3000]


@st.composite
def _small_matrices(draw):
    """A uniform matrix, or a scalar plus a rank-one map, whose maximum
    growth is at most 1 and so below n // 2 once n >= 4."""
    p, n = draw(st.sampled_from(_SMALL_SHAPES))
    entry = st.integers(0, p - 1)
    if draw(st.booleans()):
        return ExactMatrix(p, draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                            min_size=n, max_size=n)))
    lam = draw(entry)
    u, v = (draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(2))
    return ExactMatrix(p, [[u[i] * v[j] + (lam if i == j else 0)
                            for j in range(n)] for i in range(n)])


def test_cell_sweep_matches_the_unpruned_scan_on_random_matrices():
    exhausted = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_small_matrices())
    def check(M):
        ref = _reference_max_growth(M)
        assert max_inert_codim(M, budget=M.field ** M.n) == ref, M
        if 0 < ref < M.n // 2:
            exhausted.append(M)

    check()
    # the draws include a matrix that grows some subspace but reaches no
    # cap of n // 2, so its scan goes on past the growth it found and
    # exhausts whole strata
    assert exhausted


def test_search_at_the_edges_of_its_budget():
    for p in (2, 13):
        for n in (0, 1):
            M = ExactMatrix.identity(p, n)
            assert max_inert_codim(M, budget=p ** n) == \
                _reference_max_growth(M) == 0
    # p**n exactly at the budget is admitted, one past it is not
    assert 2 ** 8 == DEFAULT_BUDGET
    assert max_inert_codim(jordan(2, 8)) == 4
    M = ExactMatrix(3, [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                        [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    assert max_inert_codim(M, budget=3 ** 5) == _reference_max_growth(M) == 1
    with pytest.raises(UsageError, match="budget"):
        max_inert_codim(M, budget=3 ** 5 - 1)


def test_growth_bound_check_scalar():
    report = growth_bound_check(diag(3, 2, 2, 2), trials=40, seed=1)
    assert report.max_growth == 0 and report.bound == 0


def test_growth_bound_check_shift_family():
    # the length-8 shift: defect 7, but observed growth tops out at the
    # dimension cap 8//2
    report = growth_bound_check(jordan(2, 8), trials=200, seed=11)
    assert (report.bound, report.max_growth, report.lam) == (7, 4, 0)
    again = growth_bound_check(jordan(2, 8), trials=200, seed=11)
    assert again == report


def test_growth_bound_check_rank_two_perturbation():
    n = 10
    rows = [[F(3) if i == j else F(0) for j in range(n)] for i in range(n)]
    for j in range(n):
        rows[0][j] += F(1, 2)
        rows[3][j] += F(j)
    M = ExactMatrix("Q", rows)
    report = growth_bound_check(M, trials=60, seed=5)
    assert (report.lam, report.bound, report.max_growth) == (F(3), 2, 2)


def test_uniform_bound_across_truncations():
    # one scalar-plus-finite-rank operator seen at every size: the
    # defect stays at the perturbation rank, independent of n
    for n in range(4, 11):
        rows = [[F(3) if i == j else F(0) for j in range(n)]
                for i in range(n)]
        for j in range(n):
            rows[0][j] += F(1, 2)
            rows[1][j] += F(2)
        assert scalar_defect(ExactMatrix("Q", rows)).defect <= 2
    # whereas the shift family is not such an operator: its defect grows
    assert [scalar_defect(jordan(2, n)).defect for n in range(2, 6)] == \
        [1, 2, 3, 4]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(2, 4), st.data())
def test_growth_never_exceeds_defect_prime_field(p, n, data):
    rows = [[data.draw(st.integers(0, p - 1)) for _ in range(n)]
            for _ in range(n)]
    M = ExactMatrix(p, rows)
    report = growth_bound_check(M, trials=12, seed=data.draw(st.integers(0, 99)))
    assert report.max_growth <= report.bound
    if p ** n <= 81:
        assert max_inert_codim(M) <= scalar_defect(M).defect


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.data())
def test_growth_never_exceeds_defect_rationals(n, data):
    small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    rows = [[data.draw(small) for _ in range(n)] for _ in range(n)]
    M = ExactMatrix("Q", rows)
    report = growth_bound_check(M, trials=10, seed=data.draw(st.integers(0, 99)))
    assert report.max_growth <= report.bound


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2), st.data())
def test_low_rank_perturbation_has_low_defect(n, k, data):
    small = st.integers(-3, 3)
    lam = data.draw(st.sampled_from([F(0), F(1), F(-2), F(1, 2)]))
    rows = [[lam if i == j else F(0) for j in range(n)] for i in range(n)]
    for _ in range(k):
        u = [data.draw(small) for _ in range(n)]
        v = [data.draw(small) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                rows[i][j] += F(u[i] * v[j])
    got = scalar_defect(ExactMatrix("Q", rows))
    assert got.defect <= k
    assert got.finitary.rank() == got.defect
