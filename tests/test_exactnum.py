from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abinertia.exactnum import (
    INF, OMEGA, JElement, Residue, UsageError,
    crt_lift, crt_solve, factor, frac_residue, frac_valuation, hnf,
    hnf_insert, identity_matrix, inv_mod, is_prime, kernel_left, prime_divisors,
    snf, solve_in_rowspace, valuation,
)


# -- reference matrix arithmetic for the snf checks --------------------------

def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise UsageError("matrix shapes do not compose")
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in a]
    for i, row in enumerate(a):
        for k, aik in enumerate(row):
            if aik:
                brow = b[k]
                orow = out[i]
                for j in range(cols):
                    orow[j] += aik * brow[j]
    return out


def det_int(matrix):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise UsageError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def test_extended_nat_total_order_against_ints():
    assert OMEGA > 10 ** 9 and INF > 10 ** 9
    assert not OMEGA < 3 and not OMEGA <= 3
    assert OMEGA == OMEGA and OMEGA != INF
    assert max(5, OMEGA) is OMEGA
    assert sorted([OMEGA, 2, 7]) == [2, 7, OMEGA]


def test_primes_and_factoring():
    assert is_prime(2) and is_prime(97) and is_prime(2 ** 61 - 1)
    assert not is_prime(1) and not is_prime(91)
    assert factor(360) == {2: 3, 3: 2, 5: 1}
    assert prime_divisors(12) == frozenset({2, 3})
    assert prime_divisors(1) == frozenset()
    assert valuation(48, 2) == 4 and valuation(0, 2) is INF
    assert frac_valuation(Fraction(9, 8), 2) == -3
    assert frac_valuation(Fraction(9, 8), 3) == 2


def test_residue_canonicalization_and_arithmetic():
    r = Residue(7, 2, 2)
    assert r.value == 3 and r.modulus == 4
    assert (r + Residue(1, 2, 2)).value == 0
    assert (r * Residue(2, 2, 2)).value == 2
    assert (-Residue(1, 5, 1)).value == 4
    assert Residue(10, 3, 2).reduce(1) == Residue(1, 3, 1)
    with pytest.raises(UsageError):
        Residue(1, 4, 1)
    with pytest.raises(UsageError):
        Residue(1, 2, 1) + Residue(1, 3, 1)
    # 2 * 5 = 10 = 1 + 9, so 1/2 = 5 mod 3^2
    assert frac_residue(Fraction(1, 2), 3, 2) == Residue(5, 3, 2)
    # 5 * 7 = 35 = 3 + 32, so 3/5 = 7 mod 2^3
    assert frac_residue(Fraction(3, 5), 2, 3) == Residue(7, 2, 3)
    assert frac_residue(Fraction(4), 2, 2) == Residue(0, 2, 2)
    with pytest.raises(UsageError):
        frac_residue(Fraction(1, 2), 2, 1)


def test_crt_solve_frozen_examples():
    # values checked by direct substitution before freezing
    assert crt_solve([Residue(1, 2, 1), Residue(3, 2, 2)]) == Residue(3, 2, 2)
    assert crt_solve([Residue(1, 2, 1), Residue(2, 2, 2)]) is None
    assert crt_solve([Residue(2, 3, 2), Residue(2, 3, 1)]) == Residue(2, 3, 2)


def test_crt_solve_rejects_mixed_primes():
    with pytest.raises(UsageError):
        crt_solve([Residue(1, 2, 1), Residue(1, 3, 1)])


@given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 5)), min_size=1, max_size=5),
       st.sampled_from([2, 3, 5]))
@settings(max_examples=200, deadline=None)
def test_crt_solve_iff_pairwise_agreement(pairs, p):
    congs = [Residue(v, p, k) for v, k in pairs]
    got = crt_solve(congs)
    agree = all(a.value % p ** min(a.exp, b.exp) == b.value % p ** min(a.exp, b.exp)
                for a in congs for b in congs)
    if agree:
        assert got is not None
        for c in congs:
            assert got.value % c.modulus == c.value
        assert got.exp == max(c.exp for c in congs)
    else:
        assert got is None


def test_crt_lift_distinct_primes():
    x = crt_lift([Residue(3, 2, 2), Residue(2, 3, 1)])
    assert x % 4 == 3 and x % 3 == 2 and 0 <= x < 12
    with pytest.raises(UsageError):
        crt_lift([Residue(1, 2, 1), Residue(1, 2, 2)])


@given(st.sampled_from([2, 3, 5]), st.integers(-40, 40), st.integers(1, 30),
       st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_residue_tower_compatibility(p, num, den, k1, k2):
    # residues at different precisions agree after reduction
    if den % p == 0:
        den += 1
        if den % p == 0:
            den += 1
    q = Fraction(num, den)
    lo, hi = min(k1, k2), max(k1, k2)
    assert frac_residue(q, p, hi).reduce(lo) == frac_residue(q, p, lo)
    # and the residue is a genuine solution of den * x = num
    r = frac_residue(q, p, hi)
    assert (q.denominator * r.value - q.numerator) % p ** hi == 0


def test_jelement_canonical_form_and_access():
    j = JElement(2, {3: Fraction(2), 5: Fraction(1, 2)})
    assert j.support() == (5,)  # the value 2 at 3 equals the default
    assert j.at(3) == 2 and j.at(5) == Fraction(1, 2) and j.at(7) == 2
    with pytest.raises(UsageError):
        JElement(0, {2: Fraction(1, 2)})
    with pytest.raises(UsageError):
        JElement(0, {4: Fraction(1)})


_jelems = st.builds(
    JElement,
    st.integers(-5, 5),
    st.dictionaries(st.sampled_from([2, 3, 5]),
                    st.fractions(min_value=-4, max_value=4, max_denominator=7),
                    max_size=3).map(
        lambda d: {p: v for p, v in d.items() if v.denominator % p != 0}),
)


@given(_jelems, _jelems, _jelems)
@settings(max_examples=150, deadline=None)
def test_jelement_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == JElement(0)
    assert a * JElement(1) == a
    for p in (2, 3, 5, 7):
        assert (a * b).at(p) == a.at(p) * b.at(p)
        assert (a - b).at(p) == a.at(p) - b.at(p)


def test_snf_frozen_examples():
    # oracle: 2Z + 3Z = Z and lcm structure gives elementary divisors 1, 6
    d, u, v = snf([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    assert mat_mul(mat_mul(u, [[2, 0], [0, 3]]), v) == d
    # unimodular input stays trivial
    d, u, v = snf([[1, 1], [1, 2]])
    assert [d[0][0], d[1][1]] == [1, 1]
    # rank-deficient input keeps a zero diagonal entry
    d, _, _ = snf([[2, 4], [1, 2]])
    assert d[0][0] == 1 and d[1][1] == 0


_small_mats = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


@given(_small_mats)
@settings(max_examples=150, deadline=None)
def test_snf_properties(mat):
    d, u, v = snf(mat)
    assert mat_mul(mat_mul(u, mat), v) == d
    assert abs(det_int(u)) == 1 and abs(det_int(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    # off-diagonal clear
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            assert x == 0 or i == j


@given(_small_mats)
@settings(max_examples=150, deadline=None)
def test_hnf_solve_and_kernel(mat):
    basis = hnf(mat)
    # every original row is an integer combination of the basis
    for row in mat:
        coeffs = solve_in_rowspace(basis, row)
        assert coeffs is not None
        recomposed = [0] * len(row)
        for c, brow in zip(coeffs, basis):
            for j, x in enumerate(brow):
                recomposed[j] += c * x
        assert recomposed == list(row)
    # pivots strictly increase and are positive
    pivots = [next(j for j, x in enumerate(r) if x) for r in basis]
    assert pivots == sorted(set(pivots))
    assert all(r[p] > 0 for r, p in zip(basis, pivots))
    # entries above each pivot are reduced modulo it
    for k, (row, p) in enumerate(zip(basis, pivots)):
        assert all(0 <= above[p] < row[p] for above in basis[:k])
    # kernel rows annihilate the matrix
    for krow in kernel_left(mat):
        prod = [sum(krow[i] * mat[i][j] for i in range(len(mat)))
                for j in range(len(mat[0]))]
        assert not any(prod)
    # rank-nullity over Q
    assert len(kernel_left(mat)) == len(mat) - len(basis)


_slot_cases = st.lists(st.sampled_from([0, 2, 3, 4, 8, 9, 27, 2 ** 32, 3 ** 20]),
                       min_size=1, max_size=4).flatmap(
    lambda mods: st.tuples(st.just(mods), st.lists(
        st.lists(st.integers(-40, 40), min_size=len(mods), max_size=len(mods)), max_size=5)))


@given(_slot_cases)
@settings(max_examples=200, deadline=None)
def test_hnf_insert_reports_growth_and_replaces_slot_rows(case):
    moduli, rows = case
    n = len(moduli)
    # a column missing from the slots holds m e_i, or no row when free;
    # full stores every modulus row, which must change nothing
    slots = {}
    full = {i: {i: m} for i, m in enumerate(moduli) if m}

    def canon(held):
        return hnf((), moduli, [[s.get(j, 0) for j in range(n)] for s in held.values()])

    for dense in rows:
        row = {j: x for j, x in enumerate(dense) if x}
        before, held = canon(slots), dict(slots)
        copies = {i: dict(s) for i, s in held.items()}
        row_before = dict(row)
        grew = hnf_insert(slots, row, moduli)
        # True exactly when the lattice changed; the row itself is untouched
        assert grew == (canon(slots) != before)
        assert row == row_before
        # a missing modular column acts as m e_i: the stored modulus rows
        # give the same growth and the same lattice
        assert hnf_insert(full, row, moduli) == grew
        assert canon(full) == canon(slots)
        # slot rows are replaced, never changed in place, so a shallow copy
        # of the slots keeps the lattice it was taken of
        assert {i: dict(s) for i, s in held.items()} == copies
        # slot i starts at column i with a positive pivot and stores no zero
        for i, s in slots.items():
            assert min(s) == i and s[i] > 0 and all(s.values())
        # a row already in the lattice adds nothing and replaces no slot
        kept = dict(slots)
        member = {j: x for j in range(n) if (x := sum(s.get(j, 0) for s in slots.values()))}
        for again in (row, member, {i: m for i, m in enumerate(moduli) if m}):
            assert not hnf_insert(slots, again, moduli)
            assert slots.keys() == kept.keys()
            assert all(slots[i] is kept[i] for i in kept)


def test_hnf_refuses_a_malformed_basis_row_by_its_number():
    # unchecked, the zero row would crash with a bare ValueError, the extra
    # entry would be dropped, the pivot -1 would come back as it is, and the
    # second pivot-0 row would replace the first, so [[1, 1], [1, 0]] would
    # come out as [[1, 0], [0, 2]]
    for basis, message in (([[1, 0], [0, 0]], "basis row 1 is zero"),
                           ([[1, 0, 5]], "basis row 0 has 3 entries for 2 columns"),
                           ([[-1, 0]], "basis row 0 has the negative pivot -1"),
                           ([[1, 1], [1, 0]], "basis row 1 repeats the pivot column 0")):
        with pytest.raises(UsageError, match=message):
            hnf([], [4, 2], basis)


def test_solve_in_rowspace_rejects_outsiders():
    basis = hnf([[2, 0], [0, 2]])
    assert solve_in_rowspace(basis, [1, 0]) is None
    assert solve_in_rowspace(basis, [2, 2]) == [1, 1]


def test_det_int():
    assert det_int([[2, 0], [0, 3]]) == 6
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int(identity_matrix(4)) == 1
