import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import abinertia
from abinertia.cli import parse
from abinertia.exactnum import INF, OMEGA, JElement, UsageError
from abinertia.groupkit import (
    Cyclic, Element, GroupDesc, HElement, Prufer, TorsionFree, free_omega,
    h_add, h_descriptor, h_equal, h_mul, h_zero, invariants, nm_type,
    truncate,
)
from conftest import GROUPS


def G(*pairs):
    return GroupDesc(list(pairs))


CRITICAL = G(("B", Cyclic(2, 2, OMEGA)), ("D", Prufer(2, 1)))
SECTION3 = G(("B", Cyclic(5, 1, 1)), ("C", TorsionFree({5}, 1)))
MIXED = G(("B", Cyclic(2, 1, OMEGA)), ("C", TorsionFree({2}, 1)))
TWOBLOCK = G(("B1", Cyclic(2, 1, OMEGA)), ("B2", Cyclic(2, 2, 1)))


def test_block_validation():
    with pytest.raises(UsageError):
        Cyclic(4, 1, 1)
    with pytest.raises(UsageError):
        Cyclic(2, 0, 1)
    with pytest.raises(UsageError):
        Prufer(2, 0)
    with pytest.raises(UsageError):
        TorsionFree({6}, 1)
    with pytest.raises(UsageError):
        TorsionFree({2}, OMEGA)  # infinite rank only over Z
    assert free_omega().rank is OMEGA


def test_group_desc_validation():
    with pytest.raises(UsageError):
        G(("B", Cyclic(2, 1, 1)), ("B", Cyclic(3, 1, 1)))
    with pytest.raises(UsageError):
        G(("F1", free_omega()), ("F2", free_omega()))
    with pytest.raises(UsageError):
        G(("no spaces", Cyclic(2, 1, 1)))
    A = G(("F", free_omega()), ("B", Cyclic(2, 1, OMEGA)))
    assert A.free_omega_name == "F"
    assert A.torsion_free_rank is OMEGA
    assert not A.is_periodic
    assert CRITICAL.is_periodic and not CRITICAL.is_finite
    assert G(("B", Cyclic(2, 3, 2))).order() == 64


def test_element_canonicalization():
    x = Element(CRITICAL, {("B", 0): 7, ("D", 0): Fraction(5, 4)})
    assert x.get(("B", 0)) == 3  # reduced mod 4
    assert x.get(("D", 0)) == Fraction(1, 4)  # reduced mod 1
    assert x.get(("B", 5)) == 0
    assert Element(CRITICAL, {("B", 0): 4}) == Element.zero(CRITICAL)
    with pytest.raises(UsageError):
        Element(CRITICAL, {("D", 1): Fraction(1, 2)})  # copy out of range
    with pytest.raises(UsageError):
        Element(CRITICAL, {("D", 0): Fraction(1, 6)})  # denominator not a 2-power
    with pytest.raises(UsageError):
        Element(SECTION3, {("C", 0): Fraction(1, 3)})  # 3 escapes pi = {5}


def test_element_arithmetic_and_order():
    x = Element(CRITICAL, {("B", 0): 3, ("D", 0): Fraction(1, 2)})
    y = Element(CRITICAL, {("B", 0): 1, ("D", 0): Fraction(1, 2)})
    assert (x + y).get(("B", 0)) == 0
    assert (x + y).get(("D", 0)) == 0
    assert (x - y).get(("B", 0)) == 2
    assert x.scale(4) == Element(CRITICAL, {("D", 0): 0})
    assert x.order() == 4
    assert Element(CRITICAL, {("D", 0): Fraction(1, 8)}).order() == 8
    z = Element(SECTION3, {("C", 0): Fraction(1, 5)})
    assert z.order() is INF and not z.is_torsion
    assert Element.unit(TWOBLOCK, "B1", 2).order() == 2


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
       st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_element_group_axioms(a, b, c, j1, j2):
    x = Element(CRITICAL, {("B", 0): a, ("D", 0): Fraction(b, 2 ** j1)})
    y = Element(CRITICAL, {("B", 1): b, ("D", 0): Fraction(c, 2 ** j2)})
    z = Element(CRITICAL, {("B", 0): c, ("B", 1): a})
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + Element.zero(CRITICAL) == x
    assert x + (-x) == Element.zero(CRITICAL)
    assert x.scale(3) == x + x + x


def test_invariants_critical_group():
    inv = invariants(CRITICAL)
    prof = inv.profile(2)
    assert prof.max_exp == 2 and prof.omega_exp == 2
    assert prof.prufer_rank == 1 and prof.tf_rank == 0
    assert prof.bound is INF and prof.essential_bound is INF
    assert prof.reduced_bound == 2
    assert prof.critical
    assert inv.critical_primes == {2}
    # periodic: selectors are cofinite with the infinite/unbounded primes removed
    assert 2 not in inv.finite_primes and 3 in inv.finite_primes
    assert 2 not in inv.bounded_primes and 3 in inv.bounded_primes


def test_invariants_section3_group():
    inv = invariants(SECTION3)
    assert inv.torsion_free_rank == 1
    prof = inv.profile(5)
    assert prof.max_exp == 1 and prof.omega_exp == 0
    assert prof.tf_rank == 1 and prof.prufer_rank == 0
    assert prof.bound is INF  # the torsion-free block is 5-divisible
    assert not prof.critical
    assert inv.finite_primes.listed() == (5,) and not inv.finite_primes.default
    assert inv.bounded_primes.listed() == (5,)
    assert 5 in inv.finite_primes and 3 not in inv.finite_primes


def test_invariants_mixed_critical():
    inv = invariants(MIXED)
    prof = inv.profile(2)
    assert prof.critical and inv.critical_primes == {2}
    assert prof.omega_exp == 1 and prof.tf_rank == 1 and prof.prufer_rank == 0
    # A_2 is unbounded-free but infinite, so 2 is a bounded prime, not finite
    assert 2 in inv.bounded_primes and 2 not in inv.finite_primes


def test_invariants_omega_prufer_not_critical():
    A = G(("B", Cyclic(2, 1, OMEGA)), ("D", Prufer(2, OMEGA)))
    inv = invariants(A)
    prof = inv.profile(2)
    assert prof.prufer_rank is OMEGA and prof.divisible_rank is OMEGA
    assert not prof.critical  # the divisible part has infinite rank
    assert inv.critical_primes == frozenset()


def test_invariants_free_omega():
    A = G(("F", free_omega()), ("B", Cyclic(3, 1, OMEGA)))
    inv = invariants(A)
    assert inv.torsion_free_rank is OMEGA
    assert inv.bounded_primes.listed() == () and not inv.bounded_primes.default
    assert 3 not in inv.bounded_primes and 2 not in inv.bounded_primes


def test_nm_type():
    assert nm_type(CRITICAL) == {2: 2}
    assert nm_type(SECTION3) == {}
    A = G(("B1", Cyclic(3, 1, OMEGA)), ("B2", Cyclic(3, 2, OMEGA)),
          ("D", Prufer(3, 1)))
    assert nm_type(A) == {3: 2}
    assert nm_type(MIXED) == {2: 1}


def test_h_descriptor_examples():
    assert h_descriptor(TWOBLOCK) == {2: (2, 1)}
    assert h_descriptor(CRITICAL) == {2: (INF, INF)}
    assert h_descriptor(SECTION3) == {5: (INF, INF)}
    assert h_descriptor(G(("B", Cyclic(2, 3, 2)))) == {2: (3, 0)}
    with pytest.raises(UsageError):
        h_descriptor(G(("F", free_omega())))


def test_h_equal_congruence_rules():
    desc = h_descriptor(TWOBLOCK)  # {2: (2, 1)}
    mk = lambda v: HElement.make(desc, JElement(0, {2: Fraction(v)}))
    assert h_equal(mk(1), mk(5))       # 1 = 5 mod 4
    assert h_equal(mk(1), mk(3))       # differ mod 4 but agree mod 2
    assert not h_equal(mk(1), mk(2))   # differ even mod 2
    # infinite bound forces exact equality
    desc_inf = h_descriptor(CRITICAL)
    a = HElement.make(desc_inf, JElement(0, {2: Fraction(3)}))
    b = HElement.make(desc_inf, JElement(0, {2: Fraction(3)}))
    c = HElement.make(desc_inf, JElement(0, {2: Fraction(7)}))
    assert h_equal(a, b) and not h_equal(a, c)
    with pytest.raises(UsageError):
        h_equal(mk(1), a)


def test_h_ring_ops():
    desc = h_descriptor(TWOBLOCK)
    one = HElement.make(desc, JElement(1))
    x = HElement.make(desc, JElement(0, {2: Fraction(3)}))
    assert h_equal(h_mul(one, x), x)
    assert h_equal(h_add(x, h_zero(desc)), x)
    assert h_mul(x, x).value.at(2) == 9


def test_truncate_shapes():
    tr = truncate(CRITICAL, 3)
    assert tr.group == G(("B", Cyclic(2, 2, 3)), ("D", Cyclic(2, 3, 1)))
    assert tr.level == 3
    # torsion-free blocks vanish
    tr2 = truncate(SECTION3, 2)
    assert tr2.group == G(("B", Cyclic(5, 1, 1)))
    with pytest.raises(UsageError):
        truncate(CRITICAL, 0)


def test_truncate_embed():
    tr = truncate(CRITICAL, 3)
    x = Element(tr.group, {("B", 1): 3, ("D", 0): 5})
    emb = tr.embed(x)
    assert emb.group == CRITICAL
    assert emb.get(("B", 1)) == 3
    assert emb.get(("D", 0)) == Fraction(5, 8)
    with pytest.raises(UsageError):
        tr.embed(Element(CRITICAL, {("B", 0): 1}))


def test_truncate_monotone_embedding():
    # the level-N shadow embeds in the level-(N+1) shadow compatibly:
    # going through the source group gives the same element either way
    for N in (1, 2, 4):
        lo, hi = truncate(CRITICAL, N), truncate(CRITICAL, N + 1)
        for coeffs in ({("B", 0): 1}, {("D", 0): 1}, {("B", 0): 3, ("D", 0): 2 ** N - 1}):
            x = Element(lo.group, coeffs)
            lifted = {}
            for (bname, idx), v in x.coeffs.items():
                src = CRITICAL.block(bname)
                lifted[(bname, idx)] = v * (2 if isinstance(src, Prufer) else 1)
            y = Element(hi.group, lifted)
            assert lo.embed(x) == hi.embed(y)


def test_invariants_stable_under_block_permutation():
    A = G(("B", Cyclic(2, 2, OMEGA)), ("D", Prufer(2, 1)), ("C", TorsionFree({3}, 1)))
    B = G(("C", TorsionFree({3}, 1)), ("D", Prufer(2, 1)), ("B", Cyclic(2, 2, OMEGA)))
    ia, ib = invariants(A), invariants(B)
    assert ia.critical_primes == ib.critical_primes
    assert ia.finite_primes == ib.finite_primes
    assert ia.bounded_primes == ib.bounded_primes
    for p in (2, 3):
        assert ia.profile(p) == ib.profile(p)


# -- derived views, computed once per instance ---------------------------------

def _groups_under_test() -> list[GroupDesc]:
    corpus = sorted((Path(__file__).parent / "corpus").glob("*.txt"))
    groups = list(GROUPS.values())
    groups += [parse(p.read_text(encoding="utf-8")).group for p in corpus]
    groups += [truncate(g, 3).group for g in GROUPS.values()]
    return groups


def _views(g: GroupDesc) -> dict:
    """Every derived view of g, read through the public API."""
    primes = list(g.active_primes())
    out = {
        "cyclic_items": g.cyclic_items(), "prufer_items": g.prufer_items(),
        "tf_items": g.tf_items(), "active_primes": g.active_primes(),
        "free_omega_name": g.free_omega_name, "tf_copies": g.tf_copies(),
        "is_periodic": g.is_periodic, "is_finite": g.is_finite,
        "torsion_free_rank": g.torsion_free_rank, "order": g.order(),
        "invariants": invariants(g),
    }
    # a prime with no blocks gives empty answers
    for p in primes + [max(primes, default=2) * 2 + 1]:
        out[f"cyclic_at {p}"] = g.cyclic_at(p)
        out[f"prufer_copies {p}"] = g.prufer_copies(p)
    for name, b in g.blocks:
        out[f"block {name}"] = (g.block(name), g.has_block(name))
    return out


def test_cached_views_match_a_fresh_computation():
    groups = _groups_under_test()
    assert len(groups) >= 40
    for g in groups:
        first = _views(g)   # fills the cache
        cached = _views(g)  # reads it
        fresh = _views(GroupDesc(g.blocks))
        assert cached == first == fresh, g
        assert invariants(g) is invariants(g)
        # the item views, against their definition
        for kind, view in ((Cyclic, "cyclic_items"), (Prufer, "prufer_items"),
                           (TorsionFree, "tf_items")):
            assert cached[view] == tuple((n, b) for n, b in g.blocks if isinstance(b, kind))
        primes = set()
        for _, b in g.blocks:
            primes |= set(b.primes) if isinstance(b, TorsionFree) else {b.prime}
        assert cached["active_primes"] == tuple(sorted(primes))
        for p in primes:
            assert cached[f"cyclic_at {p}"] == tuple(
                (n, b) for n, b in g.blocks if isinstance(b, Cyclic) and b.prime == p)


def test_group_desc_is_read_only():
    g = G(("B", Cyclic(2, 1, 2)), ("D", Prufer(3, 1)))
    invariants(g)
    for attr in ("blocks", "_views", "_invariants", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, attr, ())
    with pytest.raises(AttributeError):
        del g.blocks
    assert g.blocks == (("B", Cyclic(2, 1, 2)), ("D", Prufer(3, 1)))
    assert g.block("B") == Cyclic(2, 1, 2) and g.active_primes() == (2, 3)
    # copies and pickles are rebuilt from the blocks and compute their own views
    for other in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert other == g and other is not g and other.active_primes() == (2, 3)


def test_a_returned_view_cannot_change_the_next_call():
    g = G(("B", Cyclic(2, 1, 2)), ("D", Prufer(2, 2)), ("V", TorsionFree({3}, 2)))
    for view in (g.cyclic_items, g.prufer_items, g.tf_items, g.active_primes,
                 lambda: g.cyclic_at(2)):
        first = view()
        with pytest.raises(TypeError):
            first[0] = first[-1]
        with pytest.raises(AttributeError):
            first.append(first[0])
        assert view() == first
    copies = g.tf_copies()
    copies.append(("X", 0))
    assert g.tf_copies() == [("V", 0), ("V", 1)]
    divisible, _ = g.prufer_copies(2)
    divisible.clear()
    assert g.prufer_copies(2) == ([("D", 0), ("D", 1)], False)


_GROUP_CHECKS = """
from abinertia.exactnum import UsageError
from abinertia.groupkit import Cyclic, Element, GroupDesc
a = GroupDesc([("B", Cyclic(2, 1, 2))])
b = GroupDesc([("B", Cyclic(3, 1, 2))])
x = Element.unit(a, "B")
if x + Element.unit(GroupDesc(a.blocks), "B") != x.scale(2):
    raise SystemExit("elements of equal groups did not add")
try:
    x + Element.unit(b, "B")
except UsageError:
    pass
else:
    raise SystemExit("elements of two groups were added")
for lookup in (lambda: a.block("X"), lambda: Element.unit(a, "X")):
    try:
        lookup()
    except UsageError as exc:
        if "'X'" not in str(exc):
            raise SystemExit(f"the error does not name the block: {exc}")
    else:
        raise SystemExit("an unknown block was looked up")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_group_mismatch_and_unknown_blocks_are_refused(flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(abinertia.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, *flags, "-c", _GROUP_CHECKS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
