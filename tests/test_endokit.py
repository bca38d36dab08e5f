"""Normal-form endomorphisms: canonicalization, evaluation, ring laws."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abinertia.endokit import (
    Endo, EndoClass, _extract_mini, _tf_scalar, add, apply, classify, close,
    compose, fm_split, identity_endo, is_finitary, is_multiplication,
    mini_endo, multiplication_endo, negate, semi_endo, semi_multiplication,
    sub, validate, zero_endo,
)
from abinertia.exactnum import (
    OMEGA, JElement, Residue, UsageError, crt_lift, crt_solve, frac_residue,
    prime_divisors,
)
from abinertia.groupkit import (
    Cyclic, Element, GroupDesc, Prufer, TorsionFree, invariants,
)
from abinertia.inertia import is_inertial, is_uniform
from conftest import GROUPS, INERTIAL

F = Fraction

SEC3 = GroupDesc([("T", Cyclic(5, 1, 1)), ("Q", TorsionFree(frozenset({5}), 1))])
MIXED = GroupDesc([("B", Cyclic(2, 1, OMEGA)), ("V", TorsionFree(frozenset({2}), 1))])
TFMIX = GroupDesc([("V", TorsionFree(frozenset({2}), 1)), ("T3", Cyclic(3, 1, 1))])
OMEGA2 = GroupDesc([("B", Cyclic(2, 1, OMEGA)), ("B2", Cyclic(2, 2, OMEGA))])
PER = GroupDesc([("B", Cyclic(3, 2, OMEGA)), ("C", Cyclic(3, 1, 2)),
                 ("D", Prufer(3, 1))])
PRUF2 = GroupDesc([("D", Prufer(5, 2))])
TWOMAT = GroupDesc([("C", Cyclic(2, 3, 2))])
TAUG = GroupDesc([("V", TorsionFree(frozenset({2}), 1)), ("D", Prufer(2, 1))])
RICH = GroupDesc([
    ("B", Cyclic(2, 1, OMEGA)),
    ("C", Cyclic(2, 2, 2)),
    ("D", Prufer(2, 1)),
    ("V", TorsionFree(frozenset({2}), 1)),
    ("E", Cyclic(3, 1, OMEGA)),
])


def el(group: GroupDesc, coeffs: dict) -> Element:
    return Element(group, coeffs)


# ---------------------------------------------------------------------------
# canonicalization

def test_zero_entries_vanish():
    phi = Endo(SEC3, tf={(("Q", 0), ("Q", 0)): 0}, cyc={"T": 5})
    assert phi == zero_endo(SEC3)
    assert not phi


def test_div_matrix_folds_to_scalar():
    mat = {(("D", 0), ("D", 0)): F(2), (("D", 1), ("D", 1)): F(2)}
    assert Endo(PRUF2, div={5: mat}) == Endo(PRUF2, div={5: 2})
    assert Endo(PRUF2, div={5: mat}).div[5] == F(2)
    off = {(("D", 0), ("D", 1)): F(1)}
    assert isinstance(Endo(PRUF2, div={5: off}).div[5], dict)


def test_cyc_matrix_folds_to_scalar():
    assert Endo(TWOMAT, cyc={"C": {(0, 0): 3, (1, 1): 11}}) == \
        Endo(TWOMAT, cyc={"C": 3})
    phi = Endo(TWOMAT, cyc={"C": {(0, 1): 1}})
    assert phi.cyc == {"C": {(0, 1): 1}}


def test_fin_absorbed_into_finite_block_matrix():
    phi = Endo(TWOMAT, fin={("c", "C", 0): {("C", 1): 2}})
    assert phi.fin == {}
    assert phi.cyc == {"C": {(0, 1): 2}}
    # an omega block keeps its correction as a correction
    psi = Endo(RICH, fin={("c", "E", 1): {("E", 0): 2}})
    assert psi.cyc == {} and ("c", "E", 1) in psi.fin


def test_fin_modulus_shrinks_to_image_order():
    phi = Endo(TFMIX, fin={("t", ("V", 0), 12): {("T3", 0): 1}})
    assert list(phi.fin) == [("t", ("V", 0), 3)]
    assert validate(phi) == []


def test_fin_entries_merge_and_cancel():
    pairs = [(("c", "B", 0), {("D", 0): F(1, 2)}),
             (("c", "B", 0), {("D", 0): F(1, 2)})]
    assert Endo(RICH, fin=pairs) == zero_endo(RICH)


def test_constructor_rejects_unknown_coordinates():
    with pytest.raises(UsageError):
        Endo(SEC3, cyc={"X": 1})
    with pytest.raises(UsageError):
        Endo(SEC3, tf={(("T", 0), ("T", 0)): 1})
    with pytest.raises(UsageError):
        Endo(TWOMAT, cyc={"C": {(0, 2): 1}})
    with pytest.raises(UsageError):
        Endo(SEC3, free_scalar=2)


# ---------------------------------------------------------------------------
# validation

def test_validate_clean_endo():
    phi = Endo(SEC3, tf=F(1, 5), cyc={"T": 2})
    assert validate(phi) == []


def test_validate_tf_prime_escape():
    g = GroupDesc([("V", TorsionFree(frozenset({2}), 1)),
                   ("W", TorsionFree(frozenset({3}), 1))])
    phi = Endo(g, tf={(("V", 0), ("W", 0)): 1})
    assert any("source primes escape" in m for m in validate(phi))
    psi = Endo(g, tf={(("V", 0), ("V", 0)): F(1, 3)})
    assert any("denominator 3 escapes" in m for m in validate(psi))


def test_validate_div_defects():
    assert any("no divisible part" in m
               for m in validate(Endo(SEC3, div={5: 2})))
    assert any("not 5-integral" in m
               for m in validate(Endo(PRUF2, div={5: F(1, 5)})))
    g = GroupDesc([("D", Prufer(2, OMEGA))])
    mat = Endo(g, div={2: {(("D", 0), ("D", 1)): F(1)}})
    assert any("finitely many copies" in m for m in validate(mat))


def test_validate_cyc_matrix_on_omega_block():
    phi = Endo(MIXED, cyc={"B": {(0, 1): 1}})
    assert any("finite multiplicity" in m for m in validate(phi))


def test_validate_tau_prime_membership():
    g = GroupDesc([("V", TorsionFree(frozenset({2}), 1)), ("D", Prufer(3, 1))])
    phi = Endo(g, tau={(("V", 0), ("D", 0)): F(1)})
    assert any("not in the source prime set" in m for m in validate(phi))
    assert validate(Endo(TAUG, tau={(("V", 0), ("D", 0)): F(7, 3)})) == []


def test_validate_fin_defects():
    g = GroupDesc([("B", Cyclic(2, 1, OMEGA)), ("C", Cyclic(2, 2, 1))])
    big = Endo(g, fin={("c", "B", 0): {("C", 0): 1}})
    assert any("image order exceeds" in m for m in validate(big))
    inf = Endo(MIXED, fin={("c", "B", 0): {("V", 0): 1}})
    assert any("infinite order" in m for m in validate(inf))
    shared = Endo(MIXED, fin={("t", ("V", 0), 2): {("B", 0): 1}})
    assert any("shares a prime" in m for m in validate(shared))


# ---------------------------------------------------------------------------
# evaluation

def test_apply_linear_parts():
    phi = Endo(SEC3, tf=F(1, 5), cyc={"T": 2})
    assert apply(phi, el(SEC3, {("Q", 0): 1})) == el(SEC3, {("Q", 0): F(1, 5)})
    assert apply(phi, el(SEC3, {("T", 0): 1})) == el(SEC3, {("T", 0): 2})


def test_apply_divisible_scalar():
    phi = Endo(TAUG, div={2: F(1, 3)})
    got = apply(phi, el(TAUG, {("D", 0): F(1, 4)}))
    assert got == el(TAUG, {("D", 0): F(3, 4)})  # 3 * 3/4 = 1/4 mod 1


def test_apply_tau_takes_fractional_part():
    phi = Endo(TAUG, tau={(("V", 0), ("D", 0)): F(1, 3)})
    assert apply(phi, el(TAUG, {("V", 0): F(1, 2)})) == \
        el(TAUG, {("D", 0): F(1, 2)})  # 1/6 = 1/2 - 1/3, keep the 2-part
    assert apply(phi, el(TAUG, {("V", 0): 3})) == el(TAUG, {})


def test_apply_cyc_matrix_row_convention():
    phi = Endo(TWOMAT, cyc={"C": {(0, 1): 1}})
    assert apply(phi, el(TWOMAT, {("C", 0): 1})) == el(TWOMAT, {("C", 1): 1})
    assert apply(phi, el(TWOMAT, {("C", 1): 1})) == el(TWOMAT, {})


def test_apply_fin_residue_coefficient():
    phi = Endo(TFMIX, fin={("t", ("V", 0), 3): {("T3", 0): 1}})
    assert apply(phi, el(TFMIX, {("V", 0): F(1, 2)})) == \
        el(TFMIX, {("T3", 0): 2})  # 1/2 = 2 mod 3


def test_multiplication_endo_rejects_unusable_scalars():
    with pytest.raises(UsageError):
        multiplication_endo(SEC3, F(1, 5))
    with pytest.raises(UsageError):
        multiplication_endo(MIXED, F(1, 3))
    with pytest.raises(UsageError):
        multiplication_endo(SEC3, JElement(0, {5: F(1)}))


# ---------------------------------------------------------------------------
# a generated family on a group with every kind of part

@st.composite
def rich_endos(draw):
    tf = {(("V", 0), ("V", 0)):
          F(draw(st.integers(-4, 4)), 2 ** draw(st.integers(0, 2)))}
    div = {2: F(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 3])))}
    cmat = draw(st.one_of(
        st.integers(0, 3),
        st.fixed_dictionaries({
            (0, 0): st.integers(0, 3), (0, 1): st.integers(0, 3),
            (1, 0): st.integers(0, 3), (1, 1): st.integers(0, 3)})))
    cyc = {"B": draw(st.integers(0, 1)), "C": cmat,
           "E": draw(st.integers(0, 2))}
    tau = {(("V", 0), ("D", 0)): F(draw(st.integers(-3, 3)),
                                   draw(st.integers(1, 4)))}
    fin = [
        (("c", "B", 0), {("D", 0): F(draw(st.integers(0, 1)), 2)}),
        (("c", "C", 1), {("B", 0): draw(st.integers(0, 1))}),
        (("c", "E", 1), {("E", 0): draw(st.integers(0, 2))}),
        (("t", ("V", 0), 3), {("E", 0): draw(st.integers(0, 2))}),
    ]
    return Endo(RICH, tf=tf, div=div, cyc=cyc, tau=tau, fin=fin)


RICH_PROBES = [
    el(RICH, {}),
    el(RICH, {("B", 0): 1}),
    el(RICH, {("B", 3): 1}),
    el(RICH, {("C", 0): 1, ("C", 1): 3}),
    el(RICH, {("D", 0): F(3, 8)}),
    el(RICH, {("V", 0): 1}),
    el(RICH, {("V", 0): F(5, 4)}),
    el(RICH, {("E", 0): 2, ("E", 2): 1}),
    el(RICH, {("B", 0): 1, ("C", 1): 2, ("D", 0): F(1, 2),
              ("V", 0): F(3, 2), ("E", 0): 1}),
]


@settings(max_examples=60)
@given(rich_endos())
def test_generated_endos_are_valid_homomorphisms(phi):
    assert validate(phi) == []
    for x in RICH_PROBES:
        for y in RICH_PROBES[:4]:
            assert apply(phi, x + y) == apply(phi, x) + apply(phi, y)


@settings(max_examples=40)
@given(rich_endos(), rich_endos())
def test_add_matches_pointwise_sum(phi, psi):
    total = add(phi, psi)
    assert validate(total) == []
    for x in RICH_PROBES:
        assert apply(total, x) == apply(phi, x) + apply(psi, x)
    assert add(phi, negate(phi)) == zero_endo(RICH)
    assert sub(phi, psi) == add(phi, negate(psi))


@settings(max_examples=40)
@given(rich_endos(), rich_endos())
def test_compose_matches_pointwise_composition(phi, psi):
    both = compose(phi, psi)
    assert validate(both) == []
    for x in RICH_PROBES:
        assert apply(both, x) == apply(phi, apply(psi, x))


@settings(max_examples=15)
@given(rich_endos(), rich_endos(), rich_endos())
def test_ring_laws_in_normal_form(a, b, c):
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    left = compose(a, add(b, c))
    assert left == add(compose(a, b), compose(a, c))
    one = identity_endo(RICH)
    assert compose(a, one) == a == compose(one, a)


# ---------------------------------------------------------------------------
# predicates and receipts

def test_is_finitary():
    assert is_finitary(zero_endo(RICH))
    assert is_finitary(Endo(RICH, cyc={"C": {(0, 1): 1}}))
    assert is_finitary(Endo(RICH, fin={("c", "B", 0): {("D", 0): F(1, 2)}}))
    assert not is_finitary(Endo(RICH, cyc={"B": 1}))
    assert not is_finitary(Endo(RICH, div={2: 1}))
    assert not is_finitary(Endo(RICH, tf=1))


def test_is_multiplication_rational():
    phi = multiplication_endo(TFMIX, F(1, 2))
    assert is_multiplication(phi) == F(1, 2)
    assert phi.cyc == {"T3": 2}  # 1/2 = 2 mod 3
    # perturbing one block breaks exactness
    assert is_multiplication(add(phi, Endo(TFMIX, cyc={"T3": 1}))) is None


def test_is_multiplication_componentwise():
    val = JElement(0, {3: F(2)})
    phi = multiplication_endo(PER, val)
    assert is_multiplication(phi) == val
    assert is_multiplication(Endo(PER, cyc={"B": 3})) is None


def test_classify_mini():
    got = classify(mini_endo(PER, 3, {3}))
    assert got.mini == (3, frozenset({3}))
    assert got.multiplication is None  # zero on the divisible part
    # on a group with no complement the same shape is a multiplication
    full = classify(mini_endo(OMEGA2, 1, {2}))
    assert full.mini == (1, frozenset({2}))
    assert full.multiplication == JElement(0, {2: F(1)})
    conflict = Endo(OMEGA2, cyc={"B": 1, "B2": 2})
    assert classify(conflict).mini is None


def test_classify_semi_and_quasi():
    phi = semi_endo(SEC3, 2, {5}, F(1, 5))
    got = classify(phi)
    assert got.semi == (2, frozenset({5}), F(1, 5))
    assert got.quasi == (2, frozenset({5}), F(1, 5))
    assert got.multiplication is None
    # an omega-multiplicity prime stays semi but is not quasi
    psi = semi_endo(MIXED, 0, {2}, F(1))
    got2 = classify(psi)
    assert got2.semi == (0, frozenset({2}), F(1))
    assert got2.quasi is None


def test_fm_split_mixed():
    phi = add(semi_multiplication(SEC3, F(1, 5)), Endo(SEC3, cyc={"T": 3}))
    fin_part, qm = fm_split(phi)
    assert qm == semi_multiplication(SEC3, F(1, 5))
    assert fin_part == Endo(SEC3, cyc={"T": 3})
    assert is_finitary(fin_part)
    assert add(fin_part, qm) == phi
    assert fm_split(Endo(MIXED, tf=F(1, 2))) is None


def test_fm_split_periodic():
    val = JElement(0, {3: F(2)})
    phi = add(multiplication_endo(PER, val),
              Endo(PER, cyc={"C": {(0, 1): 1}}))
    fin_part, qm = fm_split(phi)
    assert qm == multiplication_endo(PER, val)
    assert is_finitary(fin_part)
    assert add(fin_part, qm) == phi


def test_close_detects_finitary_difference():
    a = multiplication_endo(RICH, 3)
    b = add(a, Endo(RICH, cyc={"C": {(1, 0): 1}}))
    assert close(a, b)
    assert not close(a, add(a, Endo(RICH, cyc={"B": 1})))


def test_compose_pulls_corrections_through_linear_action():
    phi = Endo(TFMIX, fin={("t", ("V", 0), 3): {("T3", 0): 1}})
    psi = multiplication_endo(TFMIX, F(1, 2))
    both = compose(phi, psi)
    x = el(TFMIX, {("V", 0): 1})
    assert apply(both, x) == apply(phi, apply(psi, x))
    assert both.fin[("t", ("V", 0), 3)] == el(TFMIX, {("T3", 0): 2})


# ---------------------------------------------------------------------------
# the shape receipts against a frozen copy of the per-prime scans they
# replaced: each receipt once read the scalar action with its own loop

def _ref_cyc_residue(phi, name):
    b = phi.group.block(name)
    val = phi.cyc.get(name, 0)
    if isinstance(val, dict):
        return None
    return Residue(val, b.prime, b.exp)


def _ref_cyc_crt(phi, p, omega_only):
    congs = []
    for name, b in phi.group.cyclic_at(p):
        if omega_only and b.mult is not OMEGA:
            continue
        r = _ref_cyc_residue(phi, name)
        if r is None:
            return "conflict"
        congs.append(r)
    if not congs:
        return None
    got = crt_solve(congs)
    return got if got is not None else "conflict"


def _ref_multiplication_shape(phi, inv, p, q, omega_only):
    alpha = q
    if inv.profile(p).prufer_rank != 0:
        val = phi.div.get(p, Fraction(0))
        if not isinstance(val, Fraction):
            return "mismatch"
        if alpha is None:
            alpha = val
        elif val != alpha:
            return "mismatch"
    joint = _ref_cyc_crt(phi, p, omega_only)
    if joint == "conflict":
        return "mismatch"
    if joint is not None:
        if alpha is None:
            alpha = Fraction(joint.value)
        elif alpha.denominator % p == 0 or \
                frac_residue(alpha, p, joint.exp) != joint:
            return "mismatch"
    return alpha


def _ref_periodic_scalars(phi, inv, omega_only):
    scalars = {}
    for p in phi.group.active_primes():
        alpha = _ref_multiplication_shape(phi, inv, p, None, omega_only)
        if alpha == "mismatch":
            return None
        if alpha:
            scalars[p] = alpha
    return scalars


def _ref_is_multiplication(phi):
    if phi.tau or phi.fin:
        return None
    g = phi.group
    inv = invariants(g)
    if g.is_periodic:
        scalars = _ref_periodic_scalars(phi, inv, omega_only=False)
        return None if scalars is None else JElement(0, scalars)
    r = _tf_scalar(phi)
    if r == "nonscalar" or r is None:
        return None
    for p in prime_divisors(r.denominator):
        prof = inv.profile(p)
        if prof.max_exp or prof.prufer_rank != 0:
            return None
        if any(p not in b.primes for _, b in g.tf_items()):
            return None
    for _, b in g.prufer_items():
        if phi.div.get(b.prime, Fraction(0)) != r:
            return None
    for name, b in g.cyclic_items():
        joint = _ref_cyc_residue(phi, name)
        if joint is None or frac_residue(r, b.prime, b.exp) != joint:
            return None
    return r


def _ref_extract_semi(phi, need_finite):
    if phi.tau or phi.fin:
        return None
    g = phi.group
    inv = invariants(g)
    allowed = inv.finite_primes if need_finite else inv.bounded_primes
    if g.is_periodic:
        mult = _ref_is_multiplication(phi)
        return None if mult is None else (0, frozenset(), mult)
    q = _tf_scalar(phi)
    if q == "nonscalar" or q is None:
        return None
    pi = set(prime_divisors(q.denominator))
    residues = []
    for p in g.active_primes():
        if p not in pi and _ref_multiplication_shape(phi, inv, p, q, False) == q:
            continue
        if p not in allowed:
            return None
        joint = _ref_cyc_crt(phi, p, omega_only=False)
        if joint == "conflict":
            return None
        pi.add(p)
        if joint is not None:
            residues.append(joint)
    for p in pi:
        if p not in allowed:
            return None
    if need_finite and not prime_divisors(q.denominator) <= pi:
        return None
    n = crt_lift(residues) if residues else 0
    return (n, frozenset(pi), q)


def _ref_fm_split(phi):
    if phi.tau:
        return None
    g = phi.group
    inv = invariants(g)
    if g.is_periodic:
        scalars = _ref_periodic_scalars(phi, inv, omega_only=True)
        if scalars is None:
            return None
        qm = multiplication_endo(g, JElement(0, scalars))
    else:
        q = _tf_scalar(phi)
        if not isinstance(q, Fraction):
            return None
        pi = prime_divisors(q.denominator)
        for p in pi:
            if p not in inv.finite_primes:
                return None
        for _, b in g.prufer_items():
            if phi.div.get(b.prime, Fraction(0)) != q:
                return None
        for name, b in g.cyclic_items():
            if b.mult is not OMEGA:
                continue
            joint = _ref_cyc_residue(phi, name)
            if joint is None or b.prime in pi or \
                    frac_residue(q, b.prime, b.exp) != joint:
                return None
        qm = semi_multiplication(g, q)
    fin_part = sub(phi, qm)
    if not is_finitary(fin_part):
        return None
    return (fin_part, qm)


def _ref_is_uniform(phi):
    cert, violations = is_inertial(phi)
    if violations or phi.tf or phi.free_scalar or phi.tau:
        return None
    g = phi.group
    inv = invariants(g)
    betas = {}
    for p in g.active_primes():
        prof = inv.profile(p)
        joint = _ref_cyc_crt(phi, p, omega_only=True)
        if prof.tf_rank != 0:
            beta = Fraction(0)
        elif prof.prufer_rank != 0:
            val = phi.div.get(p, Fraction(0))
            if not isinstance(val, Fraction):
                raise AssertionError("an inertial map acts on divisible "
                                     "blocks by a scalar")
            beta = val
        elif joint is not None:
            beta = Fraction(joint.value)
        else:
            beta = Fraction(0)
        if prof.prufer_rank != 0 and phi.div.get(p, Fraction(0)) != beta:
            return None
        if joint is not None and (beta.denominator % p == 0 or
                                  frac_residue(beta, p, joint.exp) != joint):
            return None
        if beta:
            betas[p] = beta
    return JElement(0, betas)


def _ref_classify(phi):
    return EndoClass(
        finitary=is_finitary(phi),
        multiplication=_ref_is_multiplication(phi),
        quasi=_ref_extract_semi(phi, need_finite=True),
        semi=_ref_extract_semi(phi, need_finite=False),
        mini=_extract_mini(phi),
        fm=_ref_fm_split(phi),
    )


def _outcome(fn, phi):
    """The value of fn(phi), or the type and message of what it raised."""
    try:
        return ("value", fn(phi))
    except (UsageError, AssertionError) as exc:
        return ("raised", type(exc).__name__, str(exc))


RECEIPTS = ((classify, _ref_classify), (is_multiplication, _ref_is_multiplication),
            (fm_split, _ref_fm_split), (is_uniform, _ref_is_uniform))


def _assert_receipts_match(maps):
    for phi in maps:
        for new, ref in RECEIPTS:
            assert _outcome(new, phi) == _outcome(ref, phi), (new.__name__, phi)


def _random_map(group, rng):
    """A map near one multiplication q: each slot follows q or is drawn at
    random, so some maps are receipts' shapes and some fail validate."""
    q = Fraction(rng.randint(-3, 7), rng.choice([1, 1, 1, 2, 3, 5, 6, 7]))

    def near(p=None):
        if rng.random() < 0.7 and (p is None or q.denominator % p):
            return q
        return Fraction(rng.randint(-3, 7), rng.choice([1, 1, 3, p or 2]))

    copies = group.tf_copies()
    tf = {}
    if copies and rng.random() < 0.85:
        tf = {(c, c): near() for c in copies} if rng.random() < 0.4 else \
            {(c, c): q for c in copies}
        if rng.random() < 0.15:
            tf[(copies[0], rng.choice(copies))] = near()
    free = 0
    if group.free_omega_name is not None and rng.random() < 0.8:
        free = q.numerator if rng.random() < 0.7 else rng.randint(-2, 4)
    div = {}
    for name, b in group.prufer_items():
        roll = rng.random()
        if roll < 0.7:
            div[b.prime] = near(b.prime)
        elif roll < 0.85 and b.copies is not OMEGA:
            div[b.prime] = {((name, 0), (name, rng.randrange(b.copies))): near(b.prime)}
    cyc = {}
    for name, b in group.cyclic_items():
        m = b.prime ** b.exp
        roll = rng.random()
        if roll < 0.6:
            alpha = near(b.prime)
            cyc[name] = (alpha.numerator * pow(alpha.denominator, -1, m) % m
                         if alpha.denominator % b.prime else rng.randrange(m))
        elif roll < 0.8:
            cyc[name] = rng.randrange(m)
        elif roll < 0.95 or b.mult is OMEGA:
            size = b.mult if b.mult is not OMEGA else 3
            cyc[name] = {(rng.randrange(size), rng.randrange(size)): rng.randrange(m)
                         for _ in range(2)}
    tau = {}
    if copies and div and rng.random() < 0.1:
        name, b = rng.choice(group.prufer_items())
        tau[(copies[0], (name, 0))] = Fraction(1, b.prime)
    fin = []
    cyclic = group.cyclic_items()
    if cyclic and rng.random() < 0.15:
        name, b = rng.choice(cyclic)
        fin.append((("c", name, 0), {(name, 0): 1}))
    return Endo(group, tf=tf, free_scalar=free, div=div, cyc=cyc, tau=tau, fin=fin)


def test_receipts_match_the_frozen_scans_on_certified_combinations():
    for key, fam in INERTIAL.items():
        maps = list(fam.values())
        maps += [op(a, b) for a in fam.values() for b in fam.values()
                 for op in (add, sub, compose)]
        _assert_receipts_match(maps)


@pytest.mark.parametrize("seed", [1, 2])
def test_receipts_match_the_frozen_scans_on_random_maps(seed):
    rng = random.Random(seed)
    maps = [_random_map(group, rng) for group in GROUPS.values() for _ in range(40)]
    invalid = sum(1 for phi in maps if validate(phi))
    shaped = sum(1 for phi in maps if not validate(phi) and is_multiplication(phi))
    assert invalid and shaped  # both kinds are exercised
    _assert_receipts_match(maps)
