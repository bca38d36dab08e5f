"""Exact subgroup indices, profiles, and witness families."""
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abinertia import oracle
from abinertia.cli import SessionConfig, parse, run
from abinertia.endokit import (
    Endo, apply, mini_endo, multiplication_endo, semi_multiplication, validate,
)
from abinertia.exactnum import (
    INF, OMEGA, UsageError, frac_valuation, hnf, is_finite, sparse_row,
)
from abinertia.groupkit import Cyclic, Element, GroupDesc, Prufer, TorsionFree, truncate
from abinertia.inertia import (
    CRT_INCONSISTENT, DIV_NOT_SCALAR, DIV_VS_R_MISMATCH, NOT_FTFR_NOT_INTEGER,
    OMEGA_DIV_MISMATCH, PI_HAS_DIVISIBLE, TAU_NONZERO, TF_NOT_SCALAR,
    Violation, is_inertial,
)
from abinertia.oracle import (
    FGSubgroup, FiniteLattice, ProbeRows, enumerate_subgroups, fs_profile, index_in_sum,
    inertness_profile, naive_index_in_sum, sample_subgroups, truncate_endo,
    witness_search,
)
from abinertia.oracle import (
    _TAIL_WINDOW, _draw_rows, _element, _flat_space, _prelude_rows, _sample_rows,
    _exhaust, _shadow, _shadow_families, _span, _width,
)
from conftest import GROUPS, INERTIAL, ORACLE_CASES
from test_endokit import rich_endos

F = Fraction

ZLINE = GroupDesc([("V", TorsionFree(frozenset(), 1))])
ZPAIR = GroupDesc([("V", TorsionFree(frozenset(), 2))])
MIXP = GroupDesc([("B", Cyclic(5, 1, OMEGA)), ("V", TorsionFree(frozenset({5}), 1))])
WORKED = GroupDesc([("D", Prufer(2, 1)), ("W", TorsionFree(frozenset({3}), 1))])
CRIT = GroupDesc([("B", Cyclic(2, 2, OMEGA)), ("D", Prufer(2, 1))])
OMEGA2 = GroupDesc([("B", Cyclic(2, 1, OMEGA)), ("C", Cyclic(2, 2, OMEGA))])
SMALL = GroupDesc([("A", Cyclic(2, 2, 1)), ("B", Cyclic(2, 1, 2))])
CUBE = GroupDesc([("A", Cyclic(2, 1, 3))])
CORPUS = [parse(path.read_text(encoding="utf-8"))
          for path in sorted((Path(__file__).parent / "corpus").glob("*.txt"))]


def gens(group, *elements):
    return FGSubgroup(group, tuple(elements))


def violations_of(phi):
    cert, viols = is_inertial(phi)
    assert cert is None
    return viols


def pick(viols, kind):
    return next(v for v in viols if v.kind == kind)


# -- exact index --------------------------------------------------------

def test_invariant_subgroup_has_index_one():
    phi = multiplication_endo(ZLINE, 3)
    h = gens(ZLINE, Element.unit(ZLINE, "V").scale(2))
    assert index_in_sum(h, phi) == 1


def test_rank_jump_gives_infinite_index():
    diag = Endo(ZPAIR, tf={(("V", 0), ("V", 0)): 1, (("V", 1), ("V", 1)): 2})
    h = gens(ZPAIR, Element(ZPAIR, {("V", 0): 1, ("V", 1): 1}))
    assert index_in_sum(h, diag) is INF


def test_mixed_graph_index_divides_the_prime():
    phi = mini_endo(MIXP, 1, {5})
    h = gens(MIXP, Element(MIXP, {("B", 0): 1, ("V", 0): F(1, 5)}))
    assert index_in_sum(h, phi) == 5


def test_zero_subgroup_has_index_one():
    assert index_in_sum(gens(CRIT), mini_endo(CRIT, 1, {2})) == 1
    assert index_in_sum(gens(CRIT, Element.zero(CRIT)),
                        multiplication_endo(CRIT, 3)) == 1


def test_index_rejects_foreign_endomorphism():
    h = gens(ZLINE, Element.unit(ZLINE, "V"))
    with pytest.raises(UsageError):
        index_in_sum(h, multiplication_endo(ZPAIR, 2))


def test_multiplication_fixes_every_periodic_subgroup():
    phi = multiplication_endo(OMEGA2, 3)
    for s in sample_subgroups(OMEGA2, 30, seed=4):
        assert index_in_sum(s, phi) == 1


def test_index_agrees_with_naive_enumeration():
    swap = Endo(SMALL, cyc={"A": 3, "B": {(0, 1): 1, (1, 0): 1}})
    shift = Endo(SMALL, cyc={"A": 2},
                 fin={("c", "B", 0): Element.unit(SMALL, "A", 0, 2)})
    for phi in (swap, shift, multiplication_endo(SMALL, 2)):
        for s in sample_subgroups(SMALL, 25, seed=7):
            assert index_in_sum(s, phi) == naive_index_in_sum(s, phi)


def test_naive_enumeration_refuses_infinite_groups():
    with pytest.raises(UsageError):
        naive_index_in_sum(gens(ZLINE, Element.unit(ZLINE, "V")),
                           multiplication_endo(ZLINE, 2))


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_double_oracle_on_cyclic_pairs(scalar, coeff):
    group = GroupDesc([("A", Cyclic(2, 2, 1)), ("B", Cyclic(2, 2, 1))])
    phi = Endo(group, cyc={"A": scalar, "B": scalar + 2})
    h = gens(group, Element(group, {("A", 0): coeff % 4 or 1, ("B", 0): coeff % 3}))
    assert index_in_sum(h, phi) == naive_index_in_sum(h, phi)


def _map_sets():
    """The maps of each corpus file, and of each conftest group its certified
    and its violating maps together, so that some sets mix INF and finite."""
    out = [(parsed.group, list(parsed.endos.values())) for parsed in CORPUS]
    for key, fam in sorted(INERTIAL.items()):
        bad = [phi for _, k, phi, verdict in ORACLE_CASES
               if k == key and verdict == "non-inertial"]
        out.append((GROUPS[key], [phi for _, phi in sorted(fam.items())] + bad))
    return out


def _shared(group, gens, phis, depth):
    """ProbeRows' indices of the subgroup generated by the rows gens under
    all of phis, checked against index_in_sum per map; on a finite group
    the probes are its units at any depth."""
    out = ProbeRows(group, phis, depth).measure(gens)
    sub = FGSubgroup(group, tuple(_element(group, g, depth) for g in gens))
    assert out == [index_in_sum(sub, phi) for phi in phis], sub
    return out


def test_shared_indices_equal_the_singleton_indices():
    # each conftest group's certified and violating maps share one call
    mixed = sum(_assert_probe_rows_match(group, phis, (3,), 16, 3)[1]
                for group, phis in _map_sets())
    assert mixed  # one call where one map gives INF and another does not


def _assert_probe_rows_match(group, phis, levels, samples, seed):
    """The profiles' indices against index_in_sum at each level: every
    shadow family, from the one-pass walk of the shadow (without the FS
    closures and, on a periodic group, with them), and every sample
    (prelude and random), from its rows of probe multipliers; returns the
    number of subgroups compared and the number of samples on which one
    map's index is INF and another's finite."""
    depth = max(levels[-1], _TAIL_WINDOW)
    probes = ProbeRows(group, phis, depth)
    seen, compared, mixed = set(), 0, 0
    for level in levels:
        if not all(isinstance(b, TorsionFree) for _, b in group.blocks):
            shadow = truncate(group, level)
            psis = [truncate_endo(phi, shadow) for phi in phis]
            want = [(s.label, [index_in_sum(s, psi) for psi in psis])
                    for s in _prelude(shadow.group, level)]
            for fs in {False, group.is_periodic}:
                got = [(label, indices)
                       for label, indices, _
                       in _shadow_families(_shadow(group, phis, level), level, fs)]
                assert got == want, (level, fs)
            compared += len(want)
        for label, gens in _sample_rows(group, samples, level, depth,
                                        _draw_rows(group, seed, depth)):
            if gens not in seen:  # the random tail repeats across levels
                seen.add(gens)
                s = FGSubgroup(group, tuple(_element(group, g, depth) for g in gens), label)
                found = probes.measure(gens)
                assert found == [index_in_sum(s, phi) for phi in phis], (level, s)
                compared += 1
                mixed += {is_finite(v) for v in found} == {True, False}
    return compared, mixed


def test_probe_rows_match_the_reference_on_the_corpus_and_the_families():
    compared = 0
    for parsed in CORPUS:
        compared += _assert_probe_rows_match(parsed.group, list(parsed.endos.values()),
                                             (1, 2, 4, 8), 16, 5)[0]
    for key, fam in sorted(INERTIAL.items()):
        compared += _assert_probe_rows_match(GROUPS[key], [phi for _, phi in sorted(fam.items())],
                                             (1, 2, 4, 8), 16, 5)[0]
    assert compared > 1000


# Z^(omega) + two Prufer 2-copies + Z[1/2] + (Z/2)^(omega): a free omega
# block, a divisible matrix, tau into either copy and a correction on the
# free block, next to the parts that rich_endos covers
WIDE = GroupDesc([("L", TorsionFree(frozenset(), OMEGA)), ("D", Prufer(2, 2)),
                  ("V", TorsionFree(frozenset({2}), 1)), ("B", Cyclic(2, 1, OMEGA))])


@st.composite
def wide_endos(draw):
    small = st.integers(-3, 3)
    div = {2: {(("D", s), ("D", d)): F(draw(small), draw(st.sampled_from([1, 3, 5])))
               for s in range(2) for d in range(2)}}
    tau = {(("V", 0), ("D", draw(st.integers(0, 1)))): F(draw(small), draw(st.integers(1, 4)))}
    fin = [(("t", ("L", 0), 2), {("B", 0): draw(st.integers(0, 1))}),
           (("c", "B", 0), {("D", 1): F(draw(st.integers(0, 1)), 2)})]
    return Endo(WIDE, tf=F(draw(small), 2 ** draw(st.integers(0, 2))), free_scalar=draw(small),
                div=div, cyc={"B": draw(st.integers(0, 1))}, tau=tau, fin=fin)


@given(st.one_of(st.lists(rich_endos(), min_size=1, max_size=3),
                 st.lists(wide_endos(), min_size=1, max_size=3)),
       st.integers(0, 99))
@settings(max_examples=25, deadline=None)
def test_probe_rows_match_the_reference_on_generated_maps(phis, seed):
    assert all(not validate(phi) for phi in phis)
    _assert_probe_rows_match(phis[0].group, phis, (1, 2, 4), 12, seed)


def test_shared_indices_reach_past_the_subgroup():
    # the images reach a cyclic and a free column that H lacks, a deeper
    # divisible layer and a deeper torsion-free denominator than H's
    group = GroupDesc([("D", Prufer(2, 1)), ("V", TorsionFree({2, 3}, 2)),
                       ("B", Cyclic(3, 1, 2))])
    # H's one generator over the depth-3 probes (1/8)D.0 and (1/36)V.0
    row = ((("B", 0), 1), (("D", 0), 4), (("V", 0), 36))
    assert _element(group, row, 3) == \
        Element(group, {("V", 0): 1, ("D", 0): F(1, 2), ("B", 0): 1})
    phis = [
        Endo(group, tf=1, div={2: 1}, cyc={"B": 1}, tau={(("V", 0), ("D", 0)): F(1, 8)}),
        Endo(group, tf=F(1, 3), div={2: 1}, cyc={"B": 1}),
        Endo(group, tf={(("V", 0), ("V", 1)): 1}),
        Endo(group, tf=1, div={2: 1}, cyc={"B": {(0, 1): 1}}),
    ]
    assert all(not validate(phi) for phi in phis)
    assert _shared(group, [row], phis, 3) == [8, 9, INF, 3]
    assert _shared(group, [row], phis[::-1], 3) == [3, INF, 9, 8]


def test_shared_indices_agree_with_naive_enumeration():
    shadows = 0
    for group, phis in _map_sets():
        if not group.is_periodic:
            continue
        shadow = truncate(group, 2)
        if shadow.group.order() > 4096:
            continue
        shadows += 1
        psis = [truncate_endo(phi, shadow) for phi in phis]
        # the rows of sample_subgroups(shadow.group, 6, seed=1, depth=2)
        for label, rows in _sample_rows(shadow.group, 6, 2, 3, _draw_rows(shadow.group, 1, 3)):
            s = FGSubgroup(shadow.group, tuple(_element(shadow.group, g, 3) for g in rows))
            assert _shared(shadow.group, rows, psis, 2) == \
                [naive_index_in_sum(s, psi) for psi in psis], label
    assert shadows >= 4


# -- subgroup generation ------------------------------------------------

def test_sampling_is_deterministic():
    one = sample_subgroups(OMEGA2, 30, seed=12)
    two = sample_subgroups(OMEGA2, 30, seed=12)
    assert one == two
    assert one != sample_subgroups(OMEGA2, 30, seed=13)


def test_sampling_includes_a_graph_per_block_pair():
    labels = {s.label for s in sample_subgroups(WORKED, 8, seed=0)}
    assert "graph D/W" in labels


def test_sampling_validates_arguments():
    with pytest.raises(UsageError):
        sample_subgroups(OMEGA2, 0, seed=1)
    with pytest.raises(UsageError):
        sample_subgroups(OMEGA2, 5, seed=1, depth=0)


def test_sampling_accepts_truncations():
    shadow = truncate(OMEGA2, 3)
    subs = sample_subgroups(shadow, 10, seed=2)
    assert all(s.group == shadow.group for s in subs)


# -- the element-built reference samplers --------------------------------
# The oracle makes its subgroups as rows of probe multipliers; these
# build the same families and draws as elements, as the oracle once did.

def _probe(group, name, i, depth):
    b = group.block(name)
    if isinstance(b, Prufer):
        return Element.unit(group, name, i, F(1, b.prime ** depth))
    return Element.unit(group, name, i)


def _prelude(group, depth):
    """Structured deterministic families: socles, slabs, graphs."""
    out = []
    seen = set()

    def push(label, gens):
        key = tuple(g for g in gens if g)
        if key and key not in seen:
            seen.add(key)
            out.append(FGSubgroup(group, key, label))

    for name, b in group.blocks:
        w = max(1, _width(b, depth))
        if isinstance(b, Cyclic):
            e0 = Element.unit(group, name, 0)
            push(f"socle {name}", [e0.scale(b.prime ** (b.exp - 1))])
            push(f"coordinate {name}", [e0])
            if w >= 2:
                push(f"slab {name}", [Element.unit(group, name, i) for i in range(w)])
        elif isinstance(b, Prufer):
            push(f"socle {name}", [Element.unit(group, name, 0, F(1, b.prime))])
            push(f"layer {name}", [_probe(group, name, 0, depth)])
            if w >= 2:
                push(f"slab {name}", [_probe(group, name, i, depth) for i in range(w)])
        else:
            lattice = [Element.unit(group, name, i) for i in range(w)]
            push(f"lattice {name}", lattice)
            push(f"lattice {name} scaled", [u.scale(2) for u in lattice])
        if w >= 2:
            push(f"graph {name}/{name}",
                 [_probe(group, name, 0, depth) + _probe(group, name, 1, depth)])
    for (n1, b1), (n2, b2) in combinations(group.blocks, 2):
        w = max(1, min(_width(b1, depth), _width(b2, depth)))
        push(f"graph {n1}/{n2}",
             [_probe(group, n1, i, depth) + _probe(group, n2, i, depth) for i in range(w)])
    return out


def _random_draws(group, seed):
    """The random generator tuples, in draw order, as elements."""
    rng = random.Random(seed)
    # the draws reach at most _TAIL_WINDOW coordinates of any block,
    # finite ones included, whatever the width of its structured families
    sizes = [(name, b.mult if isinstance(b, Cyclic) else b.copies if isinstance(b, Prufer)
              else b.rank) for name, b in group.blocks]
    pool = [(name, i) for name, n in sizes
            for i in range(max(1, _TAIL_WINDOW if n is OMEGA else min(n, _TAIL_WINDOW)))]
    while True:
        gens = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {}
            for name, i in rng.sample(pool, rng.randint(1, min(3, len(pool)))):
                b = group.block(name)
                if isinstance(b, Cyclic):
                    coeffs[(name, i)] = rng.randrange(1, b.prime ** b.exp)
                elif isinstance(b, Prufer):
                    j = rng.randint(1, _TAIL_WINDOW)
                    coeffs[(name, i)] = F(rng.randrange(1, b.prime ** j), b.prime ** j)
                else:
                    num = rng.randint(-3, 3)
                    den = 1
                    ps = sorted(b.primes)
                    if ps and rng.random() < 0.5:
                        den = rng.choice(ps) ** rng.randint(1, 2)
                    if num:
                        coeffs[(name, i)] = F(num, den)
            g = Element(group, coeffs)
            if g:
                gens.append(g)
        yield tuple(gens)


def _reference_samples(prelude, count, draws):
    """sample_subgroups' element-built body: the prelude, then the first new
    draws up to count, from at most 4 * count + 32 of them."""
    out = list(prelude)
    group = out[0].group
    seen = {s.generators for s in out}
    draws = iter(draws)
    for _ in range(4 * count + 32):
        if len(out) >= count:
            break
        key = next(draws)
        if key and key not in seen:
            seen.add(key)
            out.append(FGSubgroup(group, key, f"random {len(out)}"))
    return [(s.label, s.generators) for s in out]


def _assert_rows_reproduce_the_reference(group, counts, seeds, depths):
    """The oracle's rows of probe multipliers, written as elements, give the
    reference's labels and generators in the same order: over the probes
    of a profile whose top level is the deepest depth, and through
    sample_subgroups (probes at max(depth, _TAIL_WINDOW)) at the first
    seed and the largest count.  A finite group is also its own shadow,
    whose families need no probe depth."""
    top = max(max(depths), _TAIL_WINDOW)
    preludes = {depth: _prelude(group, depth) for depth in depths}
    written = {}  # each row written once as an element

    def as_elements(samples):
        out = []
        for label, gens in samples:
            for g in gens:
                if g not in written:
                    written[g] = _element(group, g, top)
            out.append((label, tuple(written[g] for g in gens)))
        return out

    budget = 4 * max(counts) + 32
    for seed in seeds:
        draws = list(islice(_random_draws(group, seed), budget))
        rows = list(islice(_draw_rows(group, seed, top), budget))
        for depth in depths:
            for count in counts:
                want = _reference_samples(preludes[depth], count, draws)
                got = _sample_rows(group, count, depth, top, iter(rows))
                assert as_elements(got) == want, (group, count, seed, depth)
            if seed != seeds[0]:
                continue
            got = sample_subgroups(group, max(counts), seed, depth)
            assert [(s.label, s.generators) for s in got] == \
                _reference_samples(preludes[depth], max(counts), draws), (group, seed, depth)
    if group.is_finite:
        for depth in depths:
            assert [(label, tuple(_element(group, g, depth) for g in gens))
                    for label, gens in _prelude_rows(group, depth, depth)] == \
                [(s.label, s.generators) for s in preludes[depth]], (group, depth)


def test_sampling_keeps_the_draw_order_at_every_depth():
    groups = [OMEGA2, CRIT, MIXP, ZPAIR] + [parsed.group for parsed in CORPUS]
    groups += [g for _, g in sorted(GROUPS.items())]
    for group in groups:
        _assert_rows_reproduce_the_reference(group, (1, 5, 40, 100), (0, 1, 7), range(1, 10))
        for level in (1, 2, 5, 9):
            if not all(isinstance(b, TorsionFree) for _, b in group.blocks):
                _assert_rows_reproduce_the_reference(truncate(group, level).group, (8,), (3,),
                                                     (level,))


@st.composite
def sampled_groups(draw):
    """Groups with Prufer blocks, torsion-free blocks whose draws take
    denominators q and q^2, Z^(omega), and finite cyclic blocks wider
    than any level the differential test reaches."""
    kinds = draw(st.lists(st.sampled_from(["cyclic", "wide", "prufer", "rational", "free"]),
                          min_size=1, max_size=4))
    if kinds.count("free") > 1:
        kinds = [k for k in kinds if k != "free"] + ["free"]
    primes = st.sampled_from([2, 3, 5])
    some = st.sampled_from([1, 2, OMEGA])
    blocks = []
    for name, kind in zip("ABCDE", kinds):
        if kind == "cyclic":
            block = Cyclic(draw(primes), draw(st.integers(1, 3)), draw(some))
        elif kind == "wide":
            block = Cyclic(draw(primes), draw(st.integers(1, 2)), draw(st.integers(10, 12)))
        elif kind == "prufer":
            block = Prufer(draw(primes), draw(some))
        elif kind == "rational":
            block = TorsionFree(draw(st.sets(primes, min_size=1, max_size=2)),
                                draw(st.sampled_from([1, 2])))
        else:
            block = TorsionFree(frozenset(), OMEGA)
        blocks.append((name, block))
    return GroupDesc(blocks)


@given(sampled_groups(), st.integers(0, 2 ** 32))
@settings(max_examples=30, deadline=None)
def test_sample_rows_reproduce_the_reference_on_generated_groups(group, seed):
    _assert_rows_reproduce_the_reference(group, (6, 30), (seed,), range(1, 10))


def test_generators_must_live_in_the_group():
    with pytest.raises(UsageError):
        FGSubgroup(ZLINE, (Element.unit(ZPAIR, "V"),))


def test_enumerate_counts_known_lattices():
    assert len(enumerate_subgroups(CUBE)) == 16
    assert len(enumerate_subgroups(GroupDesc([("A", Cyclic(2, 1, 1)),
                                              ("B", Cyclic(2, 2, 1))]))) == 8
    assert len(enumerate_subgroups(GroupDesc([("A", Cyclic(2, 3, 1))]))) == 4
    # two primes multiply: 5 subgroups of (Z/2)^2 times 6 of (Z/3)^2, and
    # 5 times 3 with Z/9
    assert len(enumerate_subgroups(GroupDesc([("A", Cyclic(2, 1, 2)),
                                              ("B", Cyclic(3, 1, 2))]))) == 30
    assert len(enumerate_subgroups(GroupDesc([("A", Cyclic(2, 1, 2)),
                                              ("B", Cyclic(3, 2, 1))]))) == 15
    # the level-2 shadow of tests/corpus/periodic.txt, (Z/2)^2 + (Z/9)^3:
    # 5 subgroups at 2 times 445 at 3
    periodic = GroupDesc([("B", Cyclic(2, 1, OMEGA)), ("C", Cyclic(3, 2, OMEGA)),
                          ("D", Prufer(3, 1))])
    assert len(enumerate_subgroups(truncate(periodic, 2), limit=4096)) == 2225


def _vector(coords, x):
    return tuple(x.coeffs.get(c, 0) for c in coords)


def test_enumerate_spans_match_their_subgroups():
    group = GroupDesc([("A", Cyclic(3, 1, 2))])
    coords, moduli = _flat_space(group)
    spans = [frozenset(_span(moduli, [_vector(coords, g) for g in s.generators]))
             for s in enumerate_subgroups(group)]
    assert [len(span) for span in spans] == [1, 3, 3, 3, 3, 9]
    assert len(set(spans)) == len(spans) == 6


def test_enumerate_refuses_large_orders():
    with pytest.raises(UsageError):
        enumerate_subgroups(GroupDesc([("A", Cyclic(2, 11, 1))]))
    with pytest.raises(UsageError):
        enumerate_subgroups(OMEGA2)


def test_enumerate_all_matches_the_elements_and_the_coset_count():
    # --enumerate-all measures echelon bases; each map's view must count
    # the element subgroups and reach their largest coset-counted index.
    # periodic.txt's 2225 subgroups would take seconds to count naively
    files = 0
    for path in sorted((Path(__file__).parent / "corpus").glob("*.txt")):
        if path.name == "periodic.txt":
            continue
        parsed = parse(path.read_text(encoding="utf-8"))
        _, report = run(SessionConfig("oracle", (str(path),), levels=(2,), samples=1,
                                      enumerate_all=True))
        views = json.loads(report)["results"][str(path)]
        shadow = truncate(parsed.group, 2)
        try:
            subs = enumerate_subgroups(shadow.group, limit=4096)
        except UsageError:
            assert all("skipped" in views[name]["exhaustive"] for name in parsed.endos)
            continue
        files += 1
        for name, phi in parsed.endos.items():
            psi = truncate_endo(phi, shadow)
            worst = max(naive_index_in_sum(s, psi, limit=4096) for s in subs)
            assert views[name]["exhaustive"] == \
                {"level": 2, "subgroups": len(subs), "max_index": worst}, (path.name, name)
    assert files >= 4


def test_exhaust_refuses_a_large_shadow_before_applying_any_map(monkeypatch):
    def no_read(*args):
        raise AssertionError("a map met the shadow")

    monkeypatch.setattr(oracle, "_shadow", no_read)
    group = GroupDesc([("A", Cyclic(2, 1, 13))])  # order 8192
    with pytest.raises(UsageError, match="the level-2 shadow is too large"):
        _exhaust(group, [multiplication_endo(group, 1)], 2)


# -- finite shadows ------------------------------------------------------

def test_shadow_probes_at_the_level_are_the_flat_units():
    # ProbeRows needs a depth; on a finite shadow the level's probes are
    # the units of its flat space, in its column order and moduli
    shadows = 0
    for parsed in CORPUS:
        for level in (1, 2, 3):
            shadow = truncate(parsed.group, level)
            psis = [truncate_endo(phi, shadow) for phi in parsed.endos.values()]
            flat = ProbeRows(shadow.group, psis, level)
            coords, moduli = _flat_space(shadow.group)
            assert (flat.columns, flat.moduli) == (coords, moduli), (parsed.group_name, level)
            assert [flat._probes[c][:2] for c in coords] == [(j, 1) for j in range(len(coords))]
            shadows += bool(coords)
    assert shadows >= 3 * 6


def test_shadow_transport_commutes_with_embedding():
    bridge = Endo(CRIT, cyc={"B": 3}, div={2: F(1)})
    shadow = truncate(CRIT, 4)
    psi = truncate_endo(bridge, shadow)
    probes = [Element.unit(shadow.group, "B", 1),
              Element.unit(shadow.group, "D", 0, 5),
              Element(shadow.group, {("B", 0): 2, ("D", 0): 7})]
    for x in probes:
        assert shadow.embed(apply(psi, x)) == apply(bridge, shadow.embed(x))


def test_shadow_drops_torsion_free_data():
    phi = semi_multiplication(MIXP, F(1, 5))
    shadow = truncate(MIXP, 2)
    psi = truncate_endo(phi, shadow)
    assert not psi.tf and psi.free_scalar == 0 and not psi.tau


def test_shadow_drops_corrections_below_the_floor():
    deep = Endo(CRIT, fin={("c", "B", 0): Element.unit(CRIT, "D", 0, F(1, 8))})
    assert truncate_endo(deep, truncate(CRIT, 2)).fin == {}
    kept = truncate_endo(deep, truncate(CRIT, 3))
    assert ("c", "B", 0) in kept.fin


# -- profiles ------------------------------------------------------------

def test_multiplication_profile_is_flat():
    ev = inertness_profile(OMEGA2, multiplication_endo(OMEGA2, 3), (2, 3, 4),
                           samples=12, seed=1)
    assert ev.per_level == ((2, 1), (3, 1), (4, 1))
    assert ev.verdict_hint == "stable"


def test_crt_violation_profile_grows():
    bad = Endo(OMEGA2, cyc={"B": 0, "C": 1})
    ev = inertness_profile(OMEGA2, bad, (2, 3, 4), samples=12, seed=1)
    assert ev.per_level == ((2, 4), (3, 8), (4, 16))
    assert ev.verdict_hint == "growing"


def test_certified_bridge_profile_is_stable():
    bridge = Endo(CRIT, cyc={"B": 3}, div={2: F(1)})
    ev = inertness_profile(CRIT, bridge, (2, 4, 6, 8), samples=30, seed=3)
    assert ev.verdict_hint == "stable"
    assert all(v == 2 for _, v in ev.per_level)


def test_certified_mini_profile_is_bounded_by_p_squared():
    ev = inertness_profile(CRIT, mini_endo(CRIT, 1, {2}), (2, 4, 6, 8),
                           samples=30, seed=3)
    assert ev.verdict_hint == "stable"
    assert all(v == 4 for _, v in ev.per_level)


def test_mixed_semi_multiplication_profile_is_stable():
    phi = mini_endo(MIXP, 1, {5})
    ev = inertness_profile(MIXP, phi, (2, 4, 6), samples=25, seed=9)
    assert ev.verdict_hint == "stable"
    assert all(v == 5 for _, v in ev.per_level)


def test_infinite_index_forces_a_growing_hint():
    diag = Endo(ZPAIR, tf={(("V", 0), ("V", 0)): 1, (("V", 1), ("V", 1)): 2})
    ev = inertness_profile(ZPAIR, diag, (2, 4), samples=10, seed=0)
    assert ev.per_level == ((2, INF), (4, INF))
    assert ev.verdict_hint == "growing"


def test_profile_reports_the_family_mix():
    ev = inertness_profile(CRIT, mini_endo(CRIT, 1, {2}), (2, 3),
                           samples=20, seed=5)
    assert {"socle", "graph", "layer"} <= set(ev.sampled_families)


def test_profile_validates_levels():
    phi = multiplication_endo(OMEGA2, 2)
    with pytest.raises(UsageError):
        inertness_profile(OMEGA2, phi, (4, 2), samples=5, seed=0)
    with pytest.raises(UsageError):
        inertness_profile(OMEGA2, phi, (), samples=5, seed=0)


def test_profile_is_deterministic():
    bad = Endo(OMEGA2, cyc={"B": 0, "C": 1})
    one = inertness_profile(OMEGA2, bad, (2, 3), samples=15, seed=8)
    two = inertness_profile(OMEGA2, bad, (2, 3), samples=15, seed=8)
    assert one == two


def _reference_profile(group, phi, levels, samples, seed):
    """inertness_profile level by level, every sample drawn and measured anew."""
    per, families = [], set()
    for level in levels:
        worst = 1
        if not all(isinstance(b, TorsionFree) for _, b in group.blocks):
            shadow = truncate(group, level)
            psi = truncate_endo(phi, shadow)
            for s in _prelude(shadow.group, level):
                worst = max(worst, index_in_sum(s, psi))
                families.add(s.label.split()[0])
        for s in sample_subgroups(group, samples, seed, depth=level):
            worst = max(worst, index_in_sum(s, phi))
            families.add(s.label.split()[0])
        per.append((level, worst))
    stable = is_finite(per[-1][1]) and per[-1][1] == per[-2][1]
    return per, sorted(families), "stable" if stable else "growing"


def test_profile_measures_each_sample_once(monkeypatch):
    maps = [(GROUPS[key], phi) for key, fam in sorted(INERTIAL.items())
            for _, phi in sorted(fam.items())]
    maps += [(parsed.group, phi) for parsed in CORPUS for phi in parsed.endos.values()]
    measured = Counter()
    shared = ProbeRows.measure

    def counting(rows, gens):
        # the samples are measured on the probes of the group itself
        if rows.group is group:
            measured[gens] += 1
        return shared(rows, gens)

    for group, phi in maps:
        want = _reference_profile(group, phi, (1, 2, 4), samples=24, seed=5)
        measured.clear()
        with monkeypatch.context() as m:
            m.setattr(ProbeRows, "measure", counting)
            ev = inertness_profile(group, phi, (1, 2, 4), samples=24, seed=5)
        assert (list(ev.per_level), list(ev.sampled_families), ev.verdict_hint) == want
        assert measured and max(measured.values()) == 1, (group, phi)


def test_profile_applies_each_map_to_probes_only(monkeypatch):
    # each map meets only the probes of each level's shadow and of the
    # call, never a generator, so the count does not grow with samples
    calls = Counter()
    applied = oracle.apply

    def counting(phi, x):
        calls["apply"] += 1
        return applied(phi, x)

    monkeypatch.setattr(oracle, "apply", counting)
    levels = (2, 4, 6)
    for parsed in CORPUS:
        group, phis = parsed.group, list(parsed.endos.values())
        per_level = 0  # a shadow's probes are all of its units
        if not all(isinstance(b, TorsionFree) for _, b in group.blocks):
            per_level = sum(sum(b.mult for _, b in truncate(group, level).group.blocks)
                            for level in levels)
        per_call = sum(_width(b, max(levels[-1], _TAIL_WINDOW)) for _, b in group.blocks)
        counts = []
        for samples in (8, 80):
            calls.clear()
            oracle._profiles(group, phis, levels, samples=samples, seed=2)
            counts.append(calls["apply"])
        assert counts[0] == counts[1] <= (per_level + per_call) * len(phis), parsed.group_name


def test_oracle_command_applies_each_map_to_each_shadow_unit_once_per_level(monkeypatch):
    # one pass per level serves both profiles, so on a periodic group the
    # command meets each unit of each level's shadow once per map; the
    # shadows are the only finite groups these files' maps act on
    applied = oracle.apply
    calls = Counter()

    def counting(phi, x):
        calls[x.group.is_finite] += 1
        return applied(phi, x)

    monkeypatch.setattr(oracle, "apply", counting)
    levels = (2, 4, 6, 8)
    files = 0
    for path in sorted((Path(__file__).parent / "corpus").glob("*.txt")):
        parsed = parse(path.read_text(encoding="utf-8"))
        group = parsed.group
        if not group.is_periodic or group.is_finite:
            continue
        files += 1
        calls.clear()
        run(SessionConfig("oracle", (str(path),), levels=levels))
        units = sum(b.mult for level in levels for _, b in truncate(group, level).group.blocks)
        assert calls[True] == units * len(parsed.endos), path.name
    assert files >= 2


def test_enumerate_all_measures_the_profiles_level_2_read(monkeypatch):
    # --enumerate-all walks the level-2 shadow on the read that the
    # profiles made there, so on critical.txt at levels 2,3 its three maps
    # meet the shadow units 21 times with the flag as without it, not 30;
    # without level 2 among the levels the walk makes its own read
    applied = oracle.apply
    calls = Counter()

    def counting(phi, x):
        calls[x.group.is_finite] += 1
        return applied(phi, x)

    monkeypatch.setattr(oracle, "apply", counting)
    path = Path(__file__).parent / "corpus" / "critical.txt"
    parsed = parse(path.read_text(encoding="utf-8"))

    def units(level):
        return sum(b.mult for _, b in truncate(parsed.group, level).group.blocks)

    for levels, flag, want in (((2, 3), False, 21), ((2, 3), True, 21),
                               ((3,), True, 3 * (units(3) + units(2)))):
        calls.clear()
        run(SessionConfig("oracle", (str(path),), levels=levels, enumerate_all=flag))
        assert calls[True] == want, (levels, flag)
    assert 3 * (units(2) + units(3)) == 21


def test_plural_profiles_do_not_depend_on_the_other_maps():
    """Each map's entry is the same in file order, reversed and alone."""
    shapes, distinct = set(), False
    for parsed in CORPUS:
        group, phis = parsed.group, list(parsed.endos.values())
        if len(phis) < 2:
            continue
        free = {isinstance(b, TorsionFree) for _, b in group.blocks}
        shapes.add("periodic" if group.is_periodic
                   else "mixed" if free == {True, False} else "torsion-free")
        calls = [lambda ps: oracle._profiles(group, ps, (1, 2, 4), samples=24, seed=5)[0]]
        if group.is_periodic:
            calls.append(lambda ps: oracle._profiles(group, ps, (2, 3), fs=True)[1])
        for call in calls:
            forward = call(phis)
            assert call(phis[::-1])[::-1] == forward, parsed.group_name
            assert [call([phi])[0] for phi in phis] == forward, parsed.group_name
            distinct |= len({repr(entry) for entry in forward}) > 1
    assert {"periodic", "mixed"} <= shapes
    assert distinct  # some file's maps differ, so a swapped entry would show


# -- FS condition profile -------------------------------------------------

def test_fs_multiplication_ratios_are_one():
    assert fs_profile(OMEGA2, multiplication_endo(OMEGA2, 3), (2, 3)) == \
        {2: 1, 3: 1}


def test_fs_certified_ratio_is_level_independent():
    assert fs_profile(CRIT, mini_endo(CRIT, 2, {2}), (2, 3, 4)) == \
        {2: 4, 3: 4, 4: 4}
    bridge = Endo(CRIT, cyc={"B": 3}, div={2: F(1)})
    assert fs_profile(CRIT, bridge, (2, 3, 4)) == {2: 4, 3: 4, 4: 4}


def test_fs_violating_ratios_grow():
    bad = Endo(OMEGA2, cyc={"B": 0, "C": 1})
    report = fs_profile(OMEGA2, bad, (2, 3, 4))
    assert report[2] < report[3] < report[4]


def test_fs_needs_a_periodic_group():
    with pytest.raises(UsageError):
        fs_profile(MIXP, multiplication_endo(MIXP, 2), (2, 3))


# -- witness families ------------------------------------------------------

def test_tf_witness_jumps_to_infinity():
    diag = Endo(ZPAIR, tf={(("V", 0), ("V", 0)): 1, (("V", 1), ("V", 1)): 2})
    fam = witness_search(ZPAIR, diag, pick(violations_of(diag), TF_NOT_SCALAR))
    assert fam.indices == (INF,)
    # an infinite index ends the search at depth 1, where the line is
    assert fam.description == "an infinite-order line moved off itself"
    assert fam.subgroups[0].generators == (Element(ZPAIR, {("V", 0): 1, ("V", 1): 1}),)


def test_free_reference_witness_jumps_to_infinity():
    group = GroupDesc([("L", TorsionFree(frozenset(), OMEGA)),
                       ("V", TorsionFree(frozenset({3}), 1))])
    phi = Endo(group, free_scalar=2, tf={(("V", 0), ("V", 0)): F(1, 3)})
    viol = pick(violations_of(phi), NOT_FTFR_NOT_INTEGER)
    fam = witness_search(group, phi, viol)
    assert fam.indices == (INF,)
    assert fam.description == "an infinite-order line moved off itself"
    assert fam.subgroups[0].generators == (Element(group, {("L", 0): 1, ("V", 0): 1}),)


def test_worked_mismatch_family_doubles_forever():
    phi = Endo(WORKED, tf=F(1, 3), div={2: F(5)})
    viol = pick(violations_of(phi), DIV_VS_R_MISMATCH)
    fam = witness_search(WORKED, phi, viol, budget=5)
    assert fam.indices == (3, 6, 12, 24, 48)
    assert fam.prime == 2
    assert fam.description == "divisible layers under an infinite-order anchor at 2"
    assert fam.subgroups[1].generators == (Element(WORKED, {("D", 0): F(1, 4), ("W", 0): 1}),)


def test_fractional_scalar_with_divisible_part_witness():
    group = GroupDesc([("D", Prufer(2, 1)), ("V", TorsionFree(frozenset({2}), 1))])
    phi = Endo(group, tf=F(1, 2), div={2: F(1)})
    viol = pick(violations_of(phi), PI_HAS_DIVISIBLE)
    fam = witness_search(group, phi, viol)
    assert fam.indices == (4, 8, 16, 32, 64, 128)
    assert fam.description == "divisible layers under an infinite-order anchor at 2"
    assert fam.subgroups[1].generators == (Element(group, {("D", 0): F(1, 4), ("V", 0): 1}),)


def test_divisible_matrix_witnesses():
    group = GroupDesc([("D", Prufer(5, 2))])
    diag = Endo(group, div={5: {(("D", 0), ("D", 0)): F(1),
                                (("D", 1), ("D", 1)): F(3)}})
    viol = pick(violations_of(diag), DIV_NOT_SCALAR)
    fam = witness_search(group, diag, viol)
    assert fam.indices == (5, 25, 125, 625, 3125, 15625)
    assert fam.description == "paired layers of distinct divisible scalars at 5"
    assert fam.subgroups[1].generators == \
        (Element(group, {("D", 0): F(1, 25), ("D", 1): F(1, 25)}),)
    off = Endo(group, div={5: {(("D", 0), ("D", 1)): F(1)}})
    viol = pick(violations_of(off), DIV_NOT_SCALAR)
    fam = witness_search(group, off, viol)
    assert fam.indices == (5, 25, 125, 625, 3125, 15625)
    assert fam.description == "layers of a cross-coordinate divisible source at 5"
    assert fam.subgroups[1].generators == (Element(group, {("D", 0): F(1, 25)}),)


def test_twisted_projection_witness():
    group = GroupDesc([("V", TorsionFree(frozenset({2}), 1)), ("D", Prufer(2, 1))])
    phi = Endo(group, tf=F(1), div={2: F(1)}, tau={(("V", 0), ("D", 0)): F(1)})
    viol = pick(violations_of(phi), TAU_NONZERO)
    fam = witness_search(group, phi, viol)
    assert fam.indices == (2, 4, 8, 16, 32, 64)
    assert fam.description == "deep 2-fractions of a twisted source"
    assert fam.subgroups[1].generators == (Element(group, {("V", 0): F(1, 4)}),)


def test_clashing_residue_graphs_witness():
    bad = Endo(OMEGA2, cyc={"B": 0, "C": 1})
    viol = pick(violations_of(bad), CRT_INCONSISTENT)
    fam = witness_search(OMEGA2, bad, viol)
    assert fam.indices == (2, 4, 8, 16, 32, 64)
    assert fam.description == "graphs of residue blocks with clashing scalars"
    assert fam.subgroups[1].generators == (Element(OMEGA2, {("B", 0): 1, ("C", 0): 1}),
                                           Element(OMEGA2, {("B", 1): 1, ("C", 1): 1}))


def test_residue_against_free_lattice_witness():
    group = GroupDesc([("L", TorsionFree(frozenset(), OMEGA)),
                       ("B", Cyclic(3, 1, OMEGA))])
    phi = Endo(group, free_scalar=2, cyc={"B": 1})
    viol = pick(violations_of(phi), CRT_INCONSISTENT)
    fam = witness_search(group, phi, viol)
    assert fam.indices == (3, 9, 27, 81, 243, 729)
    assert fam.description == "graphs of a residue block against the free lattice"
    assert fam.subgroups[1].generators == (Element(group, {("B", 0): 1, ("L", 0): 1}),
                                           Element(group, {("B", 1): 1, ("L", 1): 1}))


def test_unbounded_divisible_rank_witness():
    group = GroupDesc([("D", Prufer(2, OMEGA)), ("B", Cyclic(2, 1, OMEGA))])
    phi = Endo(group, div={2: F(0)}, cyc={"B": 1})
    viol = pick(violations_of(phi), OMEGA_DIV_MISMATCH)
    fam = witness_search(group, phi, viol)
    assert fam.indices == (2, 4, 8, 16, 32, 64)
    # no golden holds this template
    assert fam.description == "graphs pairing residue blocks with fresh divisible coordinates"
    assert fam.subgroups[1].generators == (Element(group, {("B", 0): 1, ("D", 0): F(1, 2)}),
                                           Element(group, {("B", 1): 1, ("D", 1): F(1, 2)}))


def _measured(group, phi, family):
    """A family's index under phi at depths 1..6, each measured alone."""
    return [index_in_sum(gens(group, *family(n)), phi) for n in range(1, 7)]


def _powers(c):
    return [c ** n for n in range(1, 7)]


def test_a_residue_graph_grows_exactly_when_its_scalars_clash():
    # g_i = e_(a,i) + e_(b,i) has phi(g_i) - alpha_a g_i = (alpha_b - alpha_a) e_(b,i),
    # so depth n reads c^n, and c = 1 exactly when the scalars agree
    # modulo the smaller order
    group = GroupDesc([("L", TorsionFree(frozenset(), OMEGA)), ("B", Cyclic(3, 1, OMEGA)),
                       ("C", Cyclic(3, 2, OMEGA)), ("E", Cyclic(3, 2, OMEGA))])
    pair, wide = oracle._graphs(group, "B", "C"), oracle._graphs(group, "C", "E")
    assert _measured(group, Endo(group, cyc={"B": 1, "C": 4}), pair) == [1] * 6
    assert _measured(group, Endo(group, cyc={"B": 1, "C": 2}), pair) == _powers(3)
    assert _measured(group, Endo(group, cyc={"C": 1, "E": 4}), wide) == _powers(3)
    assert _measured(group, Endo(group, cyc={"C": 1, "E": 2}), wide) == _powers(9)
    free = oracle._graphs(group, "C", "L")
    assert _measured(group, Endo(group, free_scalar=-5, cyc={"C": 4}), free) == [1] * 6
    assert _measured(group, Endo(group, free_scalar=7, cyc={"C": 4}), free) == _powers(3)
    assert _measured(group, Endo(group, free_scalar=5, cyc={"C": 4}), free) == _powers(9)


def test_a_divisible_graph_grows_exactly_when_the_gap_is_below_the_order():
    # the graph of B (order 4) against 1/4 on D; the gap is v_2(val - alpha)
    group = GroupDesc([("D", Prufer(2, OMEGA)), ("B", Cyclic(2, 2, OMEGA))])
    graph = oracle._graphs(group, "B", "D", F(1, 4))
    for val, alpha, want in ((F(1, 3), 3, [1] * 6),   # gap 3: 1/3 - 3 = -8/3
                             (F(5), 1, [1] * 6),      # gap 2
                             (F(3), 1, _powers(2)),   # gap 1
                             (F(0), 1, _powers(4))):  # gap 0
        assert _measured(group, Endo(group, div={2: val}, cyc={"B": alpha}), graph) == want


def test_a_line_has_infinite_index_exactly_when_it_is_moved_off_itself():
    group = GroupDesc([("V", TorsionFree(frozenset({3}), 2))])
    phi = Endo(group, tf={(("V", 0), ("V", 0)): F(1, 3), (("V", 1), ("V", 1)): F(2, 3)})
    e0, e1 = Element.unit(group, "V", 0), Element.unit(group, "V", 1)
    assert _measured(group, phi, oracle._layers(group, (), 1, e0)) == [3] * 6
    assert _measured(group, phi, oracle._layers(group, (), 1, e1)) == [3] * 6
    assert _measured(group, phi, oracle._layers(group, (), 1, e0 + e1)) == [INF] * 6


def _congruence_pick(group, phi, kind, p):
    """The reference: the family the rules' congruences pick first, or None."""
    blocks = [(name, b.exp, phi.cyc.get(name, 0))
              for name, b in group.cyclic_at(p) if b.mult is OMEGA]
    if kind == CRT_INCONSISTENT:
        for (n1, k1, a1), (n2, k2, a2) in combinations(blocks, 2):
            if (a1 - a2) % p ** min(k1, k2):
                return ("graphs of residue blocks with clashing scalars",
                        oracle._graphs(group, n1, n2))
        free = group.free_omega_name
        for name, k, a in blocks:
            if free is not None and (a - phi.free_scalar) % p ** k:
                return ("graphs of a residue block against the free lattice",
                        oracle._graphs(group, name, free))
    elif "D" in dict(group.blocks):
        val = phi.div.get(p, F(0))
        for name, k, a in blocks:
            gap = frac_valuation(val - a, p)
            if is_finite(gap) and gap < k:
                return ("graphs pairing residue blocks with fresh divisible coordinates",
                        oracle._graphs(group, name, "D", F(1, p ** k)))
    return None


def test_the_measured_witness_is_the_one_the_congruences_pick():
    rng = random.Random(26)
    budget = 4
    outcomes = Counter()
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        base = rng.randrange(p ** 3)

        def near():  # base plus a random multiple of a random power of p
            return base + p ** rng.randint(0, 3) * rng.randrange(p)

        blocks = [(f"B{i}", Cyclic(p, rng.randint(1, 3), OMEGA)) for i in range(rng.randint(1, 4))]
        free = rng.random() < 0.5
        div = rng.random() < 0.5
        group = GroupDesc(blocks + [("L", TorsionFree(frozenset(), OMEGA))] * free
                          + [("D", Prufer(p, OMEGA))] * div)
        den = rng.choice((1, 7, 11))
        phi = Endo(group, cyc={name: near() % p ** b.exp for name, b in blocks},
                   free_scalar=near() if free else 0,
                   div={p: F(near() * den - base * (den - 1), den)} if div else {})
        for kind in (CRT_INCONSISTENT, OMEGA_DIV_MISMATCH):
            fam = witness_search(group, phi, Violation(kind, f"cyc p={p}", "", p), budget)
            want = _congruence_pick(group, phi, kind, p)
            outcomes[kind, want is None] += 1
            if want is None:
                assert fam is None
                continue
            desc, family = want
            assert fam.description == desc
            assert [s.generators for s in fam.subgroups] == \
                [tuple(family(n)) for n in range(1, budget + 1)]
    # both kinds meet both outcomes
    assert len(outcomes) == 4 and min(outcomes.values()) >= 5, outcomes


def test_witness_search_is_sound_on_certificates():
    good = multiplication_endo(OMEGA2, 3)
    probe = Violation(CRT_INCONSISTENT, "cyc 2", "", 2)
    assert witness_search(OMEGA2, good, probe) is None


def test_witness_search_validates_arguments():
    bad = Endo(OMEGA2, cyc={"B": 0, "C": 1})
    viol = violations_of(bad)[0]
    with pytest.raises(UsageError):
        witness_search(OMEGA2, bad, viol, budget=0)
    with pytest.raises(UsageError):
        witness_search(OMEGA2, bad, Violation("BROKEN", "", ""), budget=2)


# -- finite lattice calculus ----------------------------------------------

def _canon(x):
    """The Hermite form of a lattice's lifts: equal exactly when the lattices are."""
    return hnf((), x.moduli, x.basis)


def _reversed(x):
    """The same subgroup over the reversed coordinates, where annihilators live."""
    return FiniteLattice(x.moduli[::-1], [r[::-1] for r in x.basis])


def test_lattice_orders_and_bounds():
    line = FiniteLattice([4, 2], [[2, 1]])
    whole = FiniteLattice([4, 2], [[1, 0], [0, 1]])
    zero = FiniteLattice([4, 2], [])
    assert (line.order(), whole.order(), zero.order()) == (2, 8, 1)
    # rows inserted into another lattice's basis span the join
    assert _canon(FiniteLattice([4, 2], whole.basis, line.basis)) == _canon(whole)
    assert _canon(FiniteLattice([4, 2], line.basis, zero.basis)) == _canon(line)
    # the annihilators under x0 y0 / 4 + x1 y1 / 2 reverse the order, and
    # live over the reversed coordinates
    assert whole.annihilator().moduli == (2, 4)
    assert _canon(whole.annihilator()) == _canon(_reversed(zero))
    assert _canon(zero.annihilator()) == _canon(_reversed(whole))
    perp = line.annihilator()
    assert _canon(perp) == _canon(_reversed(FiniteLattice([4, 2], [[1, 1]])))
    assert perp.annihilator().moduli == (4, 2)
    assert _canon(perp.annihilator()) == _canon(line)
    assert line.order() * perp.order() == whole.order()


def test_lattice_image_and_preimage_are_adjoint_on_an_example():
    # doubling on Z/4 x Z/2 kills the second coordinate; its image is the
    # annihilator of the kernel of the dual map, which doubles e0 as well
    doubling = [[(0, 2)], []]
    whole = FiniteLattice([4, 2], [[1, 0], [0, 1]])
    image = FiniteLattice([4, 2], [[2, 0]])
    assert image.order() == 2
    kernel = FiniteLattice([4, 2], [[2, 0], [0, 1]])
    assert _canon(image.annihilator()) == _canon(_reversed(kernel))
    assert _canon(kernel.annihilator()) == _canon(_reversed(image))
    assert image.order() * kernel.order() == whole.order()
    assert _canon(whole.closure(doubling)) == _canon(whole)
    assert FiniteLattice([4, 2], [[0, 1]]).closure(doubling).order() == 2


def test_lattice_moduli_must_be_positive():
    for moduli in ([0, 2], [-4, 2], [4, 2, -1]):
        bad = next(m for m in moduli if m < 1)
        with pytest.raises(UsageError, match=f"modulus {bad} at column {moduli.index(bad)}"):
            FiniteLattice(moduli, [[1] * len(moduli)])
    # hnf keeps 0 as the free column
    assert hnf([[1, 1]], [0, 2]) == [[1, 1], [0, 2]]


def _reference_hnf(rows):
    """Hermite form by a Euclidean sweep per column, independent of hnf."""
    work = [list(r) for r in rows if any(r)]
    result = []
    for col in range(len(work[0]) if work else 0):
        live = [r for r in work if r[col]]
        if not live:
            continue
        rest = [r for r in work if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base, nxt = live[0], [live[0]]
            for r in live[1:]:
                q = r[col] // base[col]
                r = [x - q * y for x, y in zip(r, base)]
                (nxt if r[col] else rest).append(r)
            live = nxt
        result.append(live[0] if live[0][col] > 0 else [-x for x in live[0]])
        work = [r for r in rest if any(r)]
    for idx, row in enumerate(result):
        col = next(j for j, x in enumerate(row) if x)
        for above in result[:idx]:
            q = above[col] // row[col]
            above[:] = [x - q * y for x, y in zip(above, row)]
    return result


def _diag(moduli):
    return [[m if j == i else 0 for j in range(len(moduli))]
            for i, m in enumerate(moduli) if m]


def _moduli_and_rows(choices, batches):
    return st.lists(st.sampled_from(choices), min_size=1, max_size=4).flatmap(
        lambda mods: st.tuples(st.just(mods), *[st.lists(
            st.lists(st.integers(-40, 40), min_size=len(mods), max_size=len(mods)),
            max_size=4) for _ in range(batches)]))


# prime powers up to 2^32, as deep shadows have them
_DEEP = [2, 2 ** 5, 2 ** 16, 2 ** 32, 3, 3 ** 7, 3 ** 20, 5 ** 13]


def _deep_moduli_and_rows(free, batches):
    """Up to 24 columns of deep moduli, with 0 among them for a free column
    when free, and sparse rows of small, negative and unreduced entries."""
    def rows(n):
        return st.lists(st.dictionaries(
            st.integers(0, n - 1), st.one_of(st.integers(-40, 40), st.integers(-2 ** 40, 2 ** 40)),
            max_size=4), max_size=5)

    choices = _DEEP + [0] if free else _DEEP
    return st.lists(st.sampled_from(choices), min_size=1, max_size=24).flatmap(
        lambda mods: st.tuples(st.just(mods), *[rows(len(mods)) for _ in range(batches)]))


def _dense(rows, n):
    return [[r.get(j, 0) for j in range(n)] for r in rows]


def _check_lattice(moduli, rows, dense):
    """FiniteLattice of rows against the reference, and its annihilator's
    round trip and order; dense is rows written out in full."""
    x = FiniteLattice(moduli, rows)
    for i, (m, r) in enumerate(zip(moduli, x.basis)):
        assert not any(r[:i]) and r[i] > 0 and m % r[i] == 0
    assert _canon(x) == _reference_hnf(dense + _diag(moduli))
    perp = x.annihilator()
    assert _canon(perp.annihilator()) == _canon(x)
    assert x.order() * perp.order() == prod(moduli)


@given(_moduli_and_rows([2, 3, 4, 5, 6, 8, 9, 27], 1))
@settings(max_examples=200, deadline=None)
def test_lattice_basis_is_the_hermite_form(case):
    moduli, rows = case
    _check_lattice(moduli, rows, rows)


@given(_deep_moduli_and_rows(False, 1))
@settings(max_examples=100, deadline=None)
def test_lattice_basis_is_the_hermite_form_at_deep_moduli(case):
    # the rows go in as {column: entry} dicts, the reference reads them dense
    moduli, rows = case
    _check_lattice(moduli, rows, _dense(rows, len(moduli)))


@given(_moduli_and_rows([0, 2, 3, 4, 6, 9, 27], 2))
@settings(max_examples=200, deadline=None)
def test_hnf_with_moduli_is_the_hermite_form_of_the_rows_and_diagonal(case):
    # modulus 0 marks a free column; rows inserted into a basis span the join
    moduli, rows, more = case
    basis = hnf(rows, moduli)
    assert basis == _reference_hnf(rows + _diag(moduli))
    assert hnf(more, moduli, basis) == _reference_hnf(rows + more + _diag(moduli))


@given(_deep_moduli_and_rows(True, 2))
@settings(max_examples=100, deadline=None)
def test_hnf_is_the_hermite_form_at_deep_moduli(case):
    moduli, rows, more = (case[0], *(_dense(b, len(case[0])) for b in case[1:]))
    basis = hnf(rows, moduli)
    assert basis == _reference_hnf(rows + _diag(moduli))
    assert hnf(more, moduli, basis) == _reference_hnf(rows + more + _diag(moduli))


def _hermite_indices(rows_h, images, moduli):
    """|H + K : H| from the reduced Hermite bases of H and of each H + K:
    a rank jump gives INF, and otherwise the pivot ratios multiply.  Also
    returns whether some finite index refines a pivot on a free column."""
    basis_h = hnf(rows_h, moduli)
    lead = [next(j for j, x in enumerate(r) if x) for r in basis_h]
    out, refined = [], False
    for ims in images:
        basis_k = hnf(ims, moduli, basis_h)
        if len(basis_h) < len(basis_k):
            out.append(INF)
            continue
        assert lead == [next(j for j, x in enumerate(r) if x) for r in basis_k]
        pivots = [(h[c], k[c], moduli[c]) for c, h, k in zip(lead, basis_h, basis_k)]
        assert all(h % k == 0 for h, k, _ in pivots)
        out.append(prod(h // k for h, k, _ in pivots))
        refined |= any(not m and h != k for h, k, m in pivots)
    return out, refined


def test_indices_match_the_hermite_bases():
    # the echelon-slot indices against the reduced Hermite form, several
    # maps per call, with free columns among the moduli
    seen = set()

    @given(_moduli_and_rows([0, 2, 3, 4, 8, 9, 27], 4))
    @example(([0], [], [[1]], [], []))  # a free column gains a pivot: INF
    @example(([0], [[2]], [[1]], [], []))  # the free pivot 2 refined to 1
    @settings(max_examples=300, deadline=None, derandomize=True)
    def check(case):
        moduli, rows_h, *images = case
        expected, refined = _hermite_indices(rows_h, images, moduli)
        sparse = [list(map(sparse_row, rows)) for rows in (rows_h, *images)]
        assert oracle._indices(sparse[0], sparse[1:], moduli) == expected
        if INF in expected:
            seen.add("inf")
        if refined:
            seen.add("refined free pivot")

    check()
    assert seen == {"inf", "refined free pivot"}


@given(_deep_moduli_and_rows(True, 3))
@settings(max_examples=100, deadline=None)
def test_indices_match_the_hermite_bases_at_deep_moduli(case):
    moduli, rows_h, *images = case
    n = len(moduli)
    expected, _ = _hermite_indices(_dense(rows_h, n), [_dense(ims, n) for ims in images], moduli)
    assert oracle._indices(rows_h, images, moduli) == expected


def _images(rows, action, moduli):
    out = []
    for r in rows:
        img = [0] * len(moduli)
        for x, pairs in zip(r, action):
            for j, a in pairs:
                img[j] += x * a
        out.append([v % m for v, m in zip(img, moduli)])
    return out


def _reference_closure(rows, action, moduli):
    """X + phi X + phi^2 X + ... as a fixpoint of _reference_hnf."""
    basis = _reference_hnf(rows + _diag(moduli))
    while True:
        grown = _reference_hnf(basis + _images(basis, action, moduli))
        if grown == basis:
            return basis
        basis = grown


def _dual_columns(h, moduli):
    """The columns of diag(moduli) H^-1 for a square Hermite basis H."""
    n = len(moduli)
    cols = [[0] * n for _ in range(n)]
    for i, m in enumerate(moduli):
        rest = [Fraction(m if k == i else 0) for k in range(n)]
        for j in range(i, n):
            c = rest[j] / h[j][j]
            assert c.denominator == 1
            cols[j][i] = int(c)
            rest = [x - c * y for x, y in zip(rest, h[j])]
    return cols


def _back(x):
    """Rows of a lattice over reversed coordinates, read in the original ones."""
    return [list(r[::-1]) for r in x.basis]


def _homomorphic_action(moduli, ks):
    # e_i maps to sum a_ij e_j with a_ij m_i = 0 mod m_j
    n = len(moduli)
    return [[(j, ks[i * n + j] * (moduli[j] // gcd(moduli[i], moduli[j])) % moduli[j])
             for j in range(n)] for i in range(n)]


def _reversed_dual(action, moduli):
    n = len(moduli)
    dual = [[] for _ in moduli]
    for i, pairs in enumerate(action):
        for j, a in pairs:
            dual[j].append((i, a * moduli[i] // moduli[j]))
    return dual, [[(n - 1 - i, c) for i, c in dual[n - 1 - j]] for j in range(n)]


@given(_moduli_and_rows([2, 3, 4, 8, 9, 27], 1).flatmap(lambda case: st.tuples(
    st.just(case), st.lists(st.integers(0, 26), min_size=len(case[0]) ** 2,
                            max_size=len(case[0]) ** 2))))
@settings(max_examples=200, deadline=None)
def test_closure_and_annihilator_match_the_reference(case):
    (moduli, rows), ks = case
    action = _homomorphic_action(moduli, ks)
    x = FiniteLattice(moduli, rows)
    upper = x.closure(action)
    assert _canon(upper) == _reference_closure(rows, action, moduli)
    assert _canon(FiniteLattice(moduli, _images(upper.basis, action, moduli),
                                upper.basis)) == _canon(upper)
    # the annihilator, read back in the original coordinates, is the
    # lattice of the columns of diag(m) H^-1
    perp = x.annihilator()
    h = _reference_hnf(rows + _diag(moduli))
    assert _reference_hnf(_back(perp) + _diag(moduli)) == \
        _reference_hnf(_dual_columns(h, moduli) + _diag(moduli))
    assert x.order() * perp.order() == prod(moduli)
    # the dual map acts on annihilators over the reversed coordinates
    dual, rdual = _reversed_dual(action, moduli)
    closed = perp.closure(rdual)
    assert _reference_hnf(_back(closed) + _diag(moduli)) == \
        _reference_closure(_back(perp), dual, moduli)
    # X_phi, the annihilator of that closure, is a phi-invariant part of X
    lower = closed.annihilator()
    assert _reference_hnf(h + [list(r) for r in lower.basis]) == h
    assert _canon(lower.closure(action)) == _canon(lower)


def test_closure_of_an_annihilator_row_with_a_full_pivot_and_a_tail():
    # X = {(2a, b)} in Z/4 x Z/8 keeps the unreduced basis ((2, 5), (0, 1)),
    # so diag(4, 8) H^-1 has the column (-10, 8): over the reversed moduli
    # (8, 4) the annihilator row (8, -10) has pivot 8 = m_0 and a tail.
    # The closure queues it; its element (0, 2) is that of its tail, which
    # the rows below it span, so its image must add nothing new
    x = FiniteLattice([4, 8], [[2, 5], [2, 4]])
    assert x.basis == ((2, 5), (0, 1))
    perp = x.annihilator()
    assert (perp.moduli, perp.basis) == ((8, 4), ((8, -10), (0, 2)))
    # e_1 -> 2 e_0 carries (0, 2) to (4, 0)
    closed = perp.closure([[], [(0, 2)]])
    assert _canon(closed) == _canon(FiniteLattice((8, 4), [[0, 2], [4, 0]]))
    assert closed.order() == 4


def _reference_fs(group, phi, level):
    """Each shadow family's label and |X^* / X_*|, by closures over sets of
    element vectors of the level's shadow."""
    shadow = truncate(group, level)
    psi = truncate_endo(phi, shadow)
    coords, moduli = _flat_space(shadow.group)
    units = [_vector(coords, Element.unit(shadow.group, *c)) for c in coords]
    image = {x: _vector(coords, apply(psi, Element(shadow.group, dict(zip(coords, x)))))
             for x in _span(moduli, units)}
    out = []
    for s in _prelude(shadow.group, level):
        gens = [_vector(coords, g) for g in s.generators]
        lower = upper = _span(moduli, gens)
        while any(image[x] not in upper for x in upper):
            gens.append(next(image[x] for x in upper if image[x] not in upper))
            upper = _span(moduli, gens)
        while True:
            shrunk = {x for x in lower if image[x] in lower}
            if shrunk == lower:
                break
            lower = shrunk
        out.append((s.label, len(upper) // len(lower)))
    return out


def _random_shadow_maps(group, rng, count):
    maps = []
    while len(maps) < count:
        cyc = {}
        for name, b in group.blocks:
            if not isinstance(b, Cyclic):
                continue
            m = b.prime ** b.exp
            if b.mult is not OMEGA and rng.random() < 0.5:
                cyc[name] = {(i, j): rng.randrange(m) for i in range(b.mult)
                             for j in range(b.mult)}
            else:
                cyc[name] = rng.randrange(m)
        div = {b.prime: F(rng.randrange(8), rng.choice([1, 3]))
               for _, b in group.blocks if isinstance(b, Prufer)}
        fin = {}
        if rng.random() < 0.6:
            # a finite map from a p-block reaches only p-blocks, and a
            # divisible p-value is some k / p^2
            name, b = rng.choice([(n, b) for n, b in group.blocks
                                  if isinstance(b, Cyclic)])
            target, tb = rng.choice([(n, c) for n, c in group.blocks if c.prime == b.prime])
            value = (rng.randrange(tb.prime ** tb.exp) if isinstance(tb, Cyclic)
                     else F(rng.randrange(1, tb.prime ** 2), tb.prime ** 2))
            size = tb.mult if isinstance(tb, Cyclic) else tb.copies
            fin[("c", name, 0)] = Element(group, {(target, 0 if size == 1 else 1): value})
        phi = Endo(group, cyc=cyc, div=div, fin=fin)
        if not validate(phi):
            maps.append(phi)
    return maps


def test_fs_profile_matches_element_set_closures():
    # the last two groups interleave p- and q-columns, so the reversed
    # coordinates of the dual map meet both primes
    rng = random.Random(20261018)
    groups = (OMEGA2, CRIT, GroupDesc([("A", Cyclic(2, 2, 2)), ("D", Prufer(2, 1))]),
              GroupDesc([("B", Cyclic(2, 1, OMEGA)), ("D", Prufer(3, 1))]),
              GroupDesc([("B", Cyclic(3, 1, OMEGA)), ("A", Cyclic(2, 2, 1)),
                         ("D", Prufer(2, 1))]))
    for group in groups:
        for phi in _random_shadow_maps(group, rng, 5):
            assert truncate(group, 3).group.order() <= 4096
            want = {level: _reference_fs(group, phi, level) for level in (2, 3)}
            assert fs_profile(group, phi, (2, 3)) == \
                {level: max(r for _, r in fams) for level, fams in want.items()}
            # family by family, from the one pass over each shadow
            for level, fams in want.items():
                assert [(label, ratios[0]) for label, _, ratios
                        in _shadow_families(_shadow(group, [phi], level), level, True)] == fams


@given(st.integers(min_value=0, max_value=7))
@settings(max_examples=24, deadline=None)
def test_scalar_lattice_action_fixes_subgroups(scalar):
    group = GroupDesc([("A", Cyclic(2, 3, 1))])
    phi = Endo(group, cyc={"A": scalar})
    for s in enumerate_subgroups(group):
        assert index_in_sum(s, phi) == 1


def test_every_map_on_a_finite_group_has_a_stable_profile():
    # a finite group is its own shadow at every level, so its families
    # must not widen with the level, whether its blocks are wider or
    # narrower than the levels
    rng = random.Random(20261020)
    corpus = [parse(p.read_text(encoding="utf-8"))
              for p in sorted((Path(__file__).parent / "corpus").glob("*.txt"))]
    cases = [(g, list(INERTIAL.get(name, {}).values()))
             for name, g in GROUPS.items() if g.is_finite]
    cases += [(p.group, list(p.endos.values())) for p in corpus if p.group.is_finite]
    cases.append((GroupDesc([("A", Cyclic(2, 1, 9)), ("K", Cyclic(3, 2, 5)),
                             ("E", Cyclic(2, 2, 1))]), []))
    assert len(cases) >= 4 and any(p.group.is_finite for p in corpus)
    for group, maps in cases:
        for phi in maps + _random_shadow_maps(group, rng, 3):
            ev = inertness_profile(group, phi, (2, 4, 6, 8), samples=12, seed=3)
            assert ev.verdict_hint == "stable", (group, ev.per_level)
            assert len({w for _, w in ev.per_level}) == 1, (group, ev.per_level)
