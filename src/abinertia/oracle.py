"""Brute-force ground truth for inertiality verdicts.

The analytic verdicts in inertia read the normal form.  Everything
here instead treats an endomorphism as an opaque function and measures
it on actual subgroups: |H + phi(H) : H| is computed exactly from an
integer lattice presentation, profiles watch how the worst index moves
across finite shadows of the group, and each violation kind has a
dedicated family template that should exhibit unbounded growth.  The
two routes share no inference code, so agreement between them is
evidence rather than circularity.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import lcm, prod
from typing import Callable, Iterable, Iterator, Sequence

from .exactnum import (
    INF, OMEGA, UsageError, diagonal_slots, frac_residue, frac_valuation, hnf_insert,
    is_finite, solve_in_rowspace,
)
from .groupkit import (
    Coord, Cyclic, Element, GroupDesc, Nat, Prufer, TorsionFree, Truncation,
    truncate,
)
from .endokit import Endo, apply
from .inertia import (
    CRT_INCONSISTENT, DIV_NOT_SCALAR, DIV_VS_R_MISMATCH,
    NOT_FTFR_NOT_INTEGER, OMEGA_DIV_MISMATCH, PI_HAS_DIVISIBLE, TAU_NONZERO,
    TF_NOT_SCALAR, Violation,
)

__all__ = [
    "FGSubgroup", "InertnessEvidence", "WitnessFamily", "FiniteLattice",
    "index_in_sum", "ProbeRows", "naive_index_in_sum",
    "enumerate_subgroups", "sample_subgroups", "truncate_endo",
    "inertness_profile", "inertness_profiles", "fs_profile", "fs_profiles",
    "witness_search",
]


@dataclass(frozen=True)
class FGSubgroup:
    """A finitely generated subgroup, named by a generator list."""

    group: GroupDesc
    generators: tuple[Element, ...]
    label: str = ""

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        for g in gens:
            if g.group != self.group:
                raise UsageError("generator lives in a different group")
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class InertnessEvidence:
    """Worst observed indices per truncation level."""

    per_level: tuple[tuple[int, Nat], ...]
    sampled_families: tuple[str, ...]
    verdict_hint: str  # "stable" | "growing"


@dataclass(frozen=True)
class WitnessFamily:
    """A parameterized subgroup family with unbounded index."""

    kind: str
    prime: int | None
    description: str
    depths: tuple[int, ...]
    subgroups: tuple[FGSubgroup, ...]
    indices: tuple[Nat, ...]


# ---------------------------------------------------------------------------
# exact index of H in H + phi(H)

def _columns(group: GroupDesc,
             elements: Iterable[Element]) -> tuple[list[Coord], list[int], list[int]]:
    """The coordinates the elements reach, with one scale and one modulus each.

    The coordinates come in block order.  Every column is scaled to an
    integer coordinate: torsion-free values are multiplied through by
    the common denominator and get modulus 0 (a free column), divisible
    values a/p^j become a * p^(J-j) modulo the deepest layer p^J in
    play, and cyclic values stay as they are, modulo the block's order.
    Python ints have a numerator and a denominator too, so one scaling,
    _scaled, covers all three kinds of block.
    """
    dens: dict[Coord, list[int]] = {}
    for x in elements:
        for c, v in x.coeffs.items():
            dens.setdefault(c, []).append(v.denominator)
    place = {name: k for k, (name, _) in enumerate(group.blocks)}
    cols = sorted(dens, key=lambda c: (place[c[0]], c[1]))
    scales, moduli = [], []
    for c in cols:
        b = group.block(c[0])
        if isinstance(b, Cyclic):
            scale, m = 1, b.prime ** b.exp
        elif isinstance(b, Prufer):
            scale = m = max(dens[c])
        else:
            scale, m = lcm(*dens[c]), 0
        scales.append(scale)
        moduli.append(m)
    return cols, scales, moduli


def _scaled(v: int | Fraction, scale: int) -> int:
    return v.numerator * (scale // v.denominator)


def _indices(rows_h: Sequence[Sequence[int]], images: Sequence[Sequence[Sequence[int]]],
             moduli: Sequence[int]) -> list[Nat]:
    """|H + K : H| for the lattice H of rows_h and each K of images.

    H is written once as echelon slots over diag(moduli), and each list
    of image rows is inserted into a shallow copy of them; hnf_insert
    replaces slot rows rather than changing them, so H's slots stay as
    they were.  A modular column always holds a pivot, so the index is
    INF exactly when a free column gains one.  Otherwise H and H + K
    have pivots in the same columns, each pivot of H + K divides that of
    H, and the index is the product of the ratios.
    """
    base = diagonal_slots(moduli)
    for r in rows_h:
        hnf_insert(base, r, moduli)
    out: list[Nat] = []
    for ims in images:
        slots = list(base)
        for r in ims:
            hnf_insert(slots, r, moduli)
        if any(h is None and k is not None for h, k in zip(base, slots)):
            out.append(INF)
            continue
        index = 1
        for i, (h, k) in enumerate(zip(base, slots)):
            if h is not None:
                if h[i] % k[i]:
                    raise AssertionError("H escaped H + phi(H)")
                index *= h[i] // k[i]
        out.append(index)
    return out


def index_in_sum(sub: FGSubgroup, phi: Endo) -> Nat:
    """Exact index |H + phi(H) : H| for a finitely generated H.

    phi is applied to each generator, and both subgroups are presented
    as integer lattices over the coordinates they reach (_columns),
    torsion columns kept modulo their orders.  This is the reference for
    ProbeRows, which the profiles and the CLI measure with, and the
    measure of witness_search.
    """
    if phi.group != sub.group:
        raise UsageError("the endomorphism acts on a different group")
    hs = [g for g in sub.generators if g]
    ims = [im for im in (apply(phi, g) for g in hs) if im]
    cols, scales, moduli = _columns(sub.group, hs + ims)
    rows = [[_scaled(x.coeffs.get(c, 0), k) for c, k in zip(cols, scales)] for x in hs + ims]
    return _indices(rows[:len(hs)], [rows[len(hs):]], moduli)[0]


class ProbeRows:
    """Each map's image of one probe per coordinate, as scaled integer rows.

    A probe is the unit e_c on a cyclic coordinate, (1/p^J) e_c on a
    divisible one and (1/prod q^2) e_c on a torsion-free one, q running
    over the primes of its block.  With a depth J the probes are taken
    over the coordinates below _width(b, J); with none the group must be
    finite, and every unit of its flat space is a probe.  Each map is
    applied to each probe once, here, and nowhere else in the profiles.

    The presentation is fixed here for all measurements: the columns are
    the coordinates that the probes and their images reach, in block
    order, scaled and reduced as _columns says over all those entries.
    indices() writes each generator as sum n_c probe_c, each n_c an
    exact integer quotient, and its image as sum n_c phi(probe_c).  phi
    is additive, so that is phi of the generator, and no more than that
    is assumed: the map stays an opaque function.  Each index equals
    index_in_sum's, whose presentation covers only one subgroup and its
    images under one map:

    * a column that only other maps' images reach holds m e_c, or no
      pivot if it is free, in the slots of H and of H + K: a factor 1;
    * a divisible column's modulus is the largest denominator over all
      the probe rows, and embedding (1/p^j)Z/Z into Z/p^J is injective;
    * a free column's scale is the lcm of all its denominators, and
      scaling by a positive integer is injective.
    """

    __slots__ = ("group", "columns", "moduli", "images", "_probes")

    def __init__(self, group: GroupDesc, phis: Sequence[Endo], depth: int | None = None):
        if any(phi.group != group for phi in phis):
            raise UsageError("the endomorphism acts on a different group")
        if depth is None:
            coords, _ = _flat_space(group)
        else:
            coords = [(name, i) for name, b in group.blocks for i in range(_width(b, depth))]
        units = []
        for name, i in coords:
            b = group.block(name)
            units.append(Element.unit(
                group, name, i,
                Fraction(1, b.prime ** depth) if isinstance(b, Prufer)
                else Fraction(1, prod(q * q for q in b.primes)) if isinstance(b, TorsionFree)
                else 1))
        images = [[apply(phi, u) for u in units] for phi in phis]
        cols, scales, self.moduli = _columns(group, units + [im for ims in images for im in ims])
        index = {c: j for j, c in enumerate(cols)}

        def pairs(x: Element) -> list[tuple[int, int]]:
            return [(index[c], _scaled(v, scales[index[c]])) for c, v in x.coeffs.items()]

        self.group = group
        self.columns = cols
        # images[k][i]: the row of map k's image of probe i, as (column, entry) pairs
        self.images = [[pairs(im) for im in ims] for ims in images]
        self._probes = {
            c: (index[c], _scaled(u.coeffs[c], scales[index[c]]), u.coeffs[c].denominator,
                [rows[i] for rows in self.images])
            for i, (c, u) in enumerate(zip(coords, units))}

    def indices(self, sub: FGSubgroup) -> list[Nat]:
        """|H + phi(H) : H| of sub under each map, from the probe rows.

        Each generator's multiplier n_c on a probe must be an integer,
        else this raises.  The echelon slots of _indices cover the columns
        that H and the images touch, not all of the columns.
        """
        if sub.group != self.group:
            raise UsageError("the subgroup lives in a different group")
        moduli = self.moduli
        rows: list[dict[int, int]] = []
        images: list[list[dict[int, int]]] = [[] for _ in self.images]
        for g in sub.generators:
            row: dict[int, int] = {}
            sums: list[dict[int, int]] = [{} for _ in self.images]
            for c, v in g.coeffs.items():
                probe = self._probes.get(c)
                if probe is None:
                    raise UsageError(f"coordinate {c[0]}.{c[1]} has no probe")
                col, unit, den, per_map = probe
                n, rest = divmod(v.numerator * den, v.denominator)
                if rest:
                    raise UsageError(f"{v} at {c[0]}.{c[1]} is not a multiple of its probe")
                row[col] = n * unit
                for acc, probe_image in zip(sums, per_map):
                    for j, a in probe_image:
                        acc[j] = acc.get(j, 0) + n * a
            if row:
                rows.append(row)
            for out, acc in zip(images, sums):
                im = {}
                for j, x in acc.items():
                    if moduli[j]:
                        x %= moduli[j]
                    if x:
                        im[j] = x
                if im:
                    out.append(im)
        cols = sorted({j for r in chain(rows, *images) for j in r})
        return _indices([[r.get(j, 0) for j in cols] for r in rows],
                        [[[r.get(j, 0) for j in cols] for r in ims] for ims in images],
                        [moduli[j] for j in cols])


def _span(moduli: Sequence[int], gens: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """Every sum of the vectors gens, each entry reduced modulo its modulus."""
    zero = (0,) * len(moduli)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple([(a + b) % m for a, b, m in zip(x, g, moduli)])
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def naive_index_in_sum(sub: FGSubgroup, phi: Endo, limit: int = 4096) -> int:
    """Coset count by exhaustive closure; the slow cross-check.

    H and H + phi(H) are closed as sets of integer vectors over the flat
    coordinates of the finite group, and every element of both is
    counted.
    """
    group = sub.group
    if phi.group != group:
        raise UsageError("the endomorphism acts on a different group")
    order = group.order()
    if not is_finite(order) or order > limit:
        raise UsageError("naive enumeration needs a finite group of modest order")
    coords, moduli = _flat_space(group)
    gens = [g for g in sub.generators if g]
    hs = [[g.coeffs.get(c, 0) for c in coords] for g in gens]
    ims = [[im.coeffs.get(c, 0) for c in coords] for im in (apply(phi, g) for g in gens)]
    return len(_span(moduli, hs + ims)) // len(_span(moduli, hs))


# ---------------------------------------------------------------------------
# subgroup generation

def _ambient(target: GroupDesc | Truncation) -> GroupDesc:
    return target.group if isinstance(target, Truncation) else target


def _width(b, depth: int) -> int:
    """How many coordinates of block b the families at this depth span.

    A cyclic block of finite multiplicity is spanned whole at every
    depth: it is already its own shadow, so its families must not widen
    with the level.  Any other block is spanned to the depth.
    """
    if isinstance(b, Cyclic):
        return depth if b.mult is OMEGA else b.mult
    n = b.copies if isinstance(b, Prufer) else b.rank
    return depth if n is OMEGA else min(n, depth)


def _probe(group: GroupDesc, name: str, i: int, depth: int) -> Element:
    b = group.block(name)
    if isinstance(b, Prufer):
        return Element.unit(group, name, i, Fraction(1, b.prime ** depth))
    return Element.unit(group, name, i)


def _prelude(group: GroupDesc, depth: int) -> list[FGSubgroup]:
    """Structured deterministic families: socles, slabs, graphs."""
    out: list[FGSubgroup] = []
    seen: set[tuple[Element, ...]] = set()

    def push(label: str, gens: Iterable[Element]) -> None:
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
                push(f"slab {name}",
                     [Element.unit(group, name, i) for i in range(w)])
        elif isinstance(b, Prufer):
            push(f"socle {name}",
                 [Element.unit(group, name, 0, Fraction(1, b.prime))])
            push(f"layer {name}", [_probe(group, name, 0, depth)])
            if w >= 2:
                push(f"slab {name}",
                     [_probe(group, name, i, depth) for i in range(w)])
        else:
            lattice = [Element.unit(group, name, i) for i in range(w)]
            push(f"lattice {name}", lattice)
            push(f"lattice {name} scaled", [u.scale(2) for u in lattice])
        if w >= 2:  # one in-block pair graph catches diagonal deviations
            push(f"graph {name}/{name}",
                 [_probe(group, name, 0, depth) + _probe(group, name, 1, depth)])
    for (n1, b1), (n2, b2) in combinations(group.blocks, 2):
        w = max(1, min(_width(b1, depth), _width(b2, depth)))
        push(f"graph {n1}/{n2}",
             [_probe(group, n1, i, depth) + _probe(group, n2, i, depth)
              for i in range(w)])
    return out


_TAIL_WINDOW = 3  # random tails stay level-independent on purpose


def _random_draws(group: GroupDesc, seed: int) -> Iterator[tuple[Element, ...]]:
    """The random generator tuples of sample_subgroups, in draw order.

    The draws depend on the group and the seed alone, never on the depth
    or on which earlier draws were kept, so one stream serves every depth.
    """
    rng = random.Random(seed)
    pool = [(name, i) for name, b in group.blocks
            for i in range(max(1, min(_width(b, _TAIL_WINDOW), _TAIL_WINDOW)))]
    while True:
        gens = []
        for _ in range(rng.randint(1, 4)):
            coeffs: dict[Coord, int | Fraction] = {}
            for name, i in rng.sample(pool, rng.randint(1, min(3, len(pool)))):
                b = group.block(name)
                if isinstance(b, Cyclic):
                    coeffs[(name, i)] = rng.randrange(1, b.prime ** b.exp)
                elif isinstance(b, Prufer):
                    j = rng.randint(1, _TAIL_WINDOW)
                    coeffs[(name, i)] = Fraction(rng.randrange(1, b.prime ** j),
                                                 b.prime ** j)
                else:
                    num = rng.randint(-3, 3)
                    den = 1
                    ps = sorted(b.primes)
                    if ps and rng.random() < 0.5:
                        den = rng.choice(ps) ** rng.randint(1, 2)
                    if num:
                        coeffs[(name, i)] = Fraction(num, den)
            g = Element(group, coeffs)
            if g:
                gens.append(g)
        yield tuple(gens)


class _Draws:
    """The random draws of one (group, seed), made on demand and kept.

    Each pass replays the kept draws, then extends them, so passes must
    not interleave.
    """

    def __init__(self, group: GroupDesc, seed: int) -> None:
        self._fresh = _random_draws(group, seed)
        self._kept: list[tuple[Element, ...]] = []

    def __iter__(self) -> Iterator[tuple[Element, ...]]:
        yield from self._kept
        for key in self._fresh:
            self._kept.append(key)
            yield key


def sample_subgroups(target: GroupDesc | Truncation, count: int, seed: int,
                     depth: int | None = None, *,
                     _draws: _Draws | None = None) -> list[FGSubgroup]:
    """Deterministic mixed family of finitely generated subgroups.

    The structured prelude (socles, slabs, scaled lattices, one graph
    per block pair, scaled by depth) is always included; seeded random
    generator sets with small coefficients fill the list up to count,
    from at most 4 * count + 32 draws.  The random tail draws from a
    fixed shallow window regardless of depth, so profiles over growing
    depths only move through the structured families.  The draws depend
    on the group and the seed alone, so inertness_profile makes them once
    per call, passes them to every level as ``_draws``, and measures each
    distinct subgroup once.
    """
    group = _ambient(target)
    if not isinstance(count, int) or count < 1:
        raise UsageError("count must be a positive integer")
    if depth is None:
        depth = target.level if isinstance(target, Truncation) else _TAIL_WINDOW
    if not isinstance(depth, int) or depth < 1:
        raise UsageError("depth must be a positive integer")

    out = list(_prelude(group, depth))
    seen = {s.generators for s in out}
    draws = iter(_Draws(group, seed) if _draws is None else _draws)
    for _ in range(4 * count + 32):
        if len(out) >= count:
            break
        key = next(draws)
        if key and key not in seen:
            seen.add(key)
            out.append(FGSubgroup(group, key, f"random {len(out)}"))
    return out


def enumerate_subgroups(target: GroupDesc | Truncation,
                        limit: int = 1024) -> list[FGSubgroup]:
    """Every subgroup of a small finite group, smallest first.

    The group is Z^n modulo diag(moduli), so its subgroups are exactly
    the lattices between diag(moduli) and Z^n, each with one Hermite
    basis.  The bases are listed from the bottom row up: a pivot runs
    over the divisors of its modulus, each entry right of it over the
    residues modulo the pivot below that entry, and a row is kept when
    the modulus vector of its coordinate stays in the lattice.  The
    nonzero rows are the generators.  Refuses groups of order beyond
    the limit and lattices that grow past twenty thousand subgroups
    (elementary abelian shapes explode combinatorially).
    """
    group = _ambient(target)
    order = group.order()
    if not is_finite(order) or order > limit:
        raise UsageError("subgroup enumeration needs a finite group within the limit")
    coords, moduli = _flat_space(group)
    bases: list[list[list[int]]] = [[]]
    for i in reversed(range(len(moduli))):
        m = moduli[i]
        grown = []
        for below in bases:
            pivots = [row[j] for j, row in enumerate(below, i + 1)]
            for tail in product(*map(range, pivots)):
                for d in (d for d in range(1, m + 1) if m % d == 0):
                    # m e_i lies in the lattice iff (m/d) row_i - m e_i does
                    rest = [0] * (i + 1) + [m // d * x for x in tail]
                    if solve_in_rowspace(below, rest) is None:
                        continue
                    grown.append([[0] * i + [d, *tail]] + below)
                    if len(grown) > 20000:
                        raise UsageError("the subgroup lattice is too large to enumerate")
        bases = grown
    bases.sort(key=lambda rows: (order // prod(r[j] for j, r in enumerate(rows)),
                                 rows))
    out = []
    for rank, rows in enumerate(bases):
        gens = [Element(group, dict(zip(coords, r))) for r in rows]
        out.append(FGSubgroup(group, tuple(g for g in gens if g), f"enum {rank}"))
    return out


# ---------------------------------------------------------------------------
# endomorphisms on finite shadows

def _shadow_image(shadow: Truncation, img: Element) -> Element | None:
    """The image element inside the shadow, or None when it escapes."""
    coeffs: dict[Coord, int | Fraction] = {}
    for (name, i), v in img.coeffs.items():
        b = shadow.source.block(name)
        if isinstance(b, TorsionFree):
            return None
        if (b.mult if isinstance(b, Cyclic) else b.copies) is OMEGA \
                and i >= shadow.level:
            return None
        if isinstance(b, Cyclic):
            coeffs[(name, i)] = v
        else:
            if v.denominator > b.prime ** shadow.level:
                return None
            coeffs[(name, i)] = v.numerator * (b.prime ** shadow.level
                                               // v.denominator)
    return Element(shadow.group, coeffs)


def truncate_endo(phi: Endo, shadow: Truncation) -> Endo:
    """Transport the torsion action of phi onto a finite shadow.

    Torsion-free data (tf, free scalar, tau) has no finite shadow and
    is dropped; divisible blocks act as scalars or matrices on their
    cyclic towers; a bounded correction whose image reaches below the
    tower floor is dropped as well, which shifts any index by at most
    the order of the dropped image.
    """
    if phi.group != shadow.source:
        raise UsageError("the endomorphism acts on a different group")
    level = shadow.level
    cyc: dict[str, int | dict] = {name: dict(val) if isinstance(val, dict) else val
                                  for name, val in phi.cyc.items()}
    for p, val in phi.div.items():
        names = [n for n, b in phi.group.prufer_items() if b.prime == p]
        if isinstance(val, Fraction):
            for name in names:
                cyc[name] = frac_residue(val, p, level).value
        else:
            per_block: dict[str, dict[tuple[int, int], int]] = {}
            for (s, d), q in val.items():
                if s[0] != d[0]:
                    raise UsageError("the shadow cannot carry a divisible "
                                     "matrix across blocks")
                r = frac_residue(q, p, level).value
                if r:
                    per_block.setdefault(s[0], {})[(s[1], d[1])] = r
            cyc.update(per_block)
    fin: dict[tuple, Element] = {}
    for key, img in phi.fin.items():
        if key[0] != "c":
            continue
        _, name, idx = key
        if phi.group.block(name).mult is OMEGA and idx >= level:
            continue
        mapped = _shadow_image(shadow, img)
        if mapped is not None and mapped:
            fin[key] = mapped
    return Endo(shadow.group, cyc=cyc, fin=fin)


# ---------------------------------------------------------------------------
# profiles

def _check_levels(levels: Sequence[int]) -> list[int]:
    out = list(levels)
    if not out or any(not isinstance(x, int) or x < 1 for x in out):
        raise UsageError("levels must be positive integers")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise UsageError("levels must be strictly ascending")
    return out


def _nat_max(a: Nat, b: Nat) -> Nat:
    if not is_finite(a):
        return a
    if not is_finite(b):
        return b
    return a if a >= b else b


def inertness_profiles(group: GroupDesc, phis: Sequence[Endo],
                       levels: Sequence[int], samples: int = 40,
                       seed: int = 0) -> list[InertnessEvidence]:
    """inertness_profile of each map in phis, sharing the group-only work.

    The levels are the outer loop and the maps the inner one.  Each level
    truncates the group, lists the shadow prelude and draws the samples
    once for all maps, from one stream of random draws per call.  Every
    subgroup is measured on probe rows (ProbeRows): each map is applied
    once per probe of each level's shadow and once per probe of the
    untruncated group, at depth max(top level, _TAIL_WINDOW), and never
    to a generator, so the number of applications does not grow with
    samples.  Each distinct untruncated sample is looked up once per
    level and measured once per call.  The memo holds one index per map
    for each distinct sample and lives only as long as the call.  A
    map's evidence is what the singular call gives, whichever maps share
    the call.
    """
    if any(phi.group != group for phi in phis):
        raise UsageError("the endomorphism acts on a different group")
    lv = _check_levels(levels)
    if not phis:
        return []
    has_torsion = any(not isinstance(b, TorsionFree) for _, b in group.blocks)
    per: list[list[tuple[int, Nat]]] = [[] for _ in phis]
    families: set[str] = set()  # the labels depend on the group alone
    draws = _Draws(group, seed)
    measured: dict[tuple[Element, ...], list[Nat]] = {}
    probes = ProbeRows(group, phis, max(lv[-1], _TAIL_WINDOW))
    for level in lv:
        worst: list[Nat] = [1] * len(phis)
        if has_torsion:
            shadow = truncate(group, level)
            flat = ProbeRows(shadow.group, [truncate_endo(phi, shadow) for phi in phis])
            for s in _prelude(shadow.group, level):
                worst = [_nat_max(w, v) for w, v in zip(worst, flat.indices(s))]
                families.add(s.label.split()[0])
        for s in sample_subgroups(group, samples, seed, level, _draws=draws):
            found = measured.get(s.generators)
            if found is None:
                found = measured[s.generators] = probes.indices(s)
            worst = [_nat_max(w, v) for w, v in zip(worst, found)]
            families.add(s.label.split()[0])
        for row, w in zip(per, worst):
            row.append((level, w))
    out = []
    for row in per:
        # an infinite observed index is already unbounded growth
        stable = is_finite(row[-1][1]) and (len(row) < 2
                                            or row[-1][1] == row[-2][1])
        out.append(InertnessEvidence(tuple(row), tuple(sorted(families)),
                                     "stable" if stable else "growing"))
    return out


def inertness_profile(group: GroupDesc, phi: Endo, levels: Sequence[int],
                      samples: int = 40, seed: int = 0) -> InertnessEvidence:
    """Worst observed |H + phi(H) : H| per truncation level.

    Each level measures the truncated action over the structured shadow
    families plus the untruncated action over samples whose structured
    depth grows with the level; random tails are level-independent, so
    the hint is stable exactly when the top two level maxima agree.  The
    random draws are made once per call and shared by every level, and
    each distinct untruncated sample is measured once per call.
    """
    return inertness_profiles(group, [phi], levels, samples, seed)[0]


class FiniteLattice:
    """A subgroup of Z^n / diag(moduli) as the lattice of all its lifts.

    That lattice contains diag(moduli), so it has an echelon basis with
    one row per column: basis[i] starts at column i with a positive
    pivot dividing m_i.  The basis is kept in that echelon form, not
    reduced above the pivots, so it is not canonical; compare lattices
    through hnf((), moduli, basis).  The rows are inserted with
    hnf_insert into a given echelon basis over the same moduli, by
    default diag(moduli).  The order is the modulus product over the
    pivot product.  Every modulus must be positive.
    """

    __slots__ = ("moduli", "basis")

    def __init__(self, moduli: Sequence[int], rows: Iterable[Sequence[int]],
                 basis: Sequence[Sequence[int]] = ()):
        self.moduli = tuple(moduli)
        for i, m in enumerate(self.moduli):
            if m < 1:
                raise UsageError(f"lattice modulus {m} at column {i} is not positive")
        slots = list(basis) if basis else diagonal_slots(self.moduli)
        for r in rows:
            hnf_insert(slots, r, self.moduli)
        self.basis = tuple(map(tuple, slots))

    def order(self) -> int:
        return prod(m // row[i] for i, (m, row) in enumerate(zip(self.moduli, self.basis)))

    def closure(self, action: Sequence[Sequence[tuple[int, int]]]) -> "FiniteLattice":
        """The smallest lattice over this one that a map carries into itself.

        action[i] lists the pairs (j, a) of the image of e_i; the map must
        be a homomorphism, so it kills every m_i e_i.  A worklist holds
        the rows whose images are still to be inserted: first every basis
        row other than m_i e_i, then each image whose insertion grew the
        lattice.  An image that did not grow it already lies in it, so
        when the worklist is empty the map carries every generator, and
        with them the lattice, into the lattice.
        """
        moduli = self.moduli
        n = len(moduli)
        slots = list(self.basis)
        queue = [r for i, r in enumerate(self.basis) if r[i] != moduli[i] or any(r[i + 1:])]
        while queue:
            img = [0] * n
            for x, pairs in zip(queue.pop(), action):
                if x:
                    for j, a in pairs:
                        img[j] += x * a
            img = [x % m for x, m in zip(img, moduli)]
            if hnf_insert(slots, img, moduli):
                queue.append(img)
        return FiniteLattice(moduli, (), slots)

    def annihilator(self) -> "FiniteLattice":
        """The subgroup pairing to zero with this one under sum x_i y_i / m_i.

        Its lattice is spanned by the columns of diag(moduli) H^-1 for the
        echelon basis H; row i of that matrix writes m_i e_i over H and is
        found by integer back-substitution.  H is upper triangular, so
        column j of that matrix ends at row j with m_j / H_jj: over the
        reversed coordinates the columns are already an echelon basis.
        The result lives there, over the reversed moduli, so a map acts on
        it through its coordinates reversed, and its annihilator is back
        in this lattice's coordinates.
        """
        n = len(self.moduli)
        cols = [[0] * n for _ in range(n)]
        for i, m in enumerate(self.moduli):
            rest = [0] * i + [m] + [0] * (n - i - 1)
            for j in range(i, n):
                cols[n - 1 - j][n - 1 - i] = q = rest[j] // self.basis[j][j]
                if q:
                    rest[j:] = [x - q * y for x, y in zip(rest[j:], self.basis[j][j:])]
        return FiniteLattice(self.moduli[::-1], (), cols)


def _flat_space(group: GroupDesc) -> tuple[list[Coord], list[int]]:
    if not group.is_finite:
        raise UsageError("only finite groups flatten to lattices")
    coords = [(name, i) for name, b in group.blocks for i in range(b.mult)]
    return coords, [b.prime ** b.exp for _, b in group.blocks for _ in range(b.mult)]


def _shadow_action(flat: ProbeRows) -> list[tuple[list, list]]:
    """Each shadow map's flat action and its dual, as pair lists.

    flat holds the probe rows of every unit of a finite shadow, so its
    columns are the flat coordinates and each map's probe rows are its
    action: images[k][i] lists the pairs (j, a) of map k's image of
    e_i.  The dual acts on annihilators, which live over the reversed
    coordinates (see FiniteLattice.annihilator), so it is written there:
    e_j of the original coordinates is e_(n-1-j) of the reversed ones.
    """
    moduli = flat.moduli
    n = len(moduli)
    out = []
    for action in flat.images:
        dual: list[list[tuple[int, int]]] = [[] for _ in moduli]
        for i, images in enumerate(action):
            for j, a in images:
                if a * moduli[i] % moduli[j]:
                    raise AssertionError("the shadow map is not a homomorphism")
                dual[n - 1 - j].append((n - 1 - i, a * moduli[i] // moduli[j]))
        out.append((action, dual))
    return out


def fs_profiles(group: GroupDesc, phis: Sequence[Endo],
                levels: Sequence[int]) -> list[dict[int, int]]:
    """fs_profile of each map in phis, sharing the group-only work.

    The levels are the outer loop, the prelude families the middle one
    and the maps the inner one.  Each level truncates and flattens the
    group once and writes each map's flat action, and its dual over the
    reversed coordinates where annihilators live, once.  Each family
    builds X and X^perp once, as echelon slots, and only the two
    worklist closures run per map.  Besides each map's two actions, one
    family's lattices are alive at a time, so the lattices held do not
    grow with the number of maps or families.
    """
    if not group.is_periodic:
        raise UsageError("the FS profile needs a periodic group")
    if any(phi.group != group for phi in phis):
        raise UsageError("the endomorphism acts on a different group")
    lv = _check_levels(levels)
    if not phis:
        return []
    reports: list[dict[int, int]] = [{} for _ in phis]
    for level in lv:
        shadow = truncate(group, level)
        flat = ProbeRows(shadow.group, [truncate_endo(phi, shadow) for phi in phis])
        coords, moduli = flat.columns, flat.moduli
        maps = _shadow_action(flat)
        worst = [1] * len(phis)
        total = prod(moduli)
        for s in _prelude(shadow.group, level):
            x = FiniteLattice(moduli, [[g.coeffs.get(c, 0) for c in coords] for g in s.generators])
            perp = x.annihilator()
            worst = [max(w, x.closure(action).order() * perp.closure(dual).order() // total)
                     for w, (action, dual) in zip(worst, maps)]
        for report, w in zip(reports, worst):
            report[level] = w
    return reports


def fs_profile(group: GroupDesc, phi: Endo,
               levels: Sequence[int]) -> dict[int, int]:
    """Max |X^* / X_*| per truncation level, over structured samples.

    X^* is the closure of X under phi.  X_*, the largest phi-invariant
    subgroup of X, is reached through its annihilator under the pairing
    sum x_i y_i / m_i: the closure of X^perp under the dual map, whose
    entries are phi_ij m_i / m_j.  The ratio is |X^*| |X_*^perp| / |G|,
    and only orders enter it, so X^perp and its closure stay over the
    reversed coordinates and neither lattice is ever brought to its
    canonical Hermite form.
    """
    return fs_profiles(group, [phi], levels)[0]


# ---------------------------------------------------------------------------
# witness families, one template per violation kind

FamilyFn = Callable[[int], list[Element]]


def _tf_coords(group: GroupDesc, x: Element) -> list[Coord]:
    return [c for c in x.support()
            if isinstance(group.block(c[0]), TorsionFree)]


def _tf_parallel(group: GroupDesc, v: Element, w: Element) -> bool:
    """Is the torsion-free part of w a rational multiple of that of v?"""
    ratio = None
    for c in sorted(set(_tf_coords(group, v)) | set(_tf_coords(group, w))):
        a, b = Fraction(v.get(c)), Fraction(w.get(c))
        if a == 0:
            if b != 0:
                return False
        elif ratio is None:
            ratio = b / a
        elif b != ratio * a:
            return False
    return True


def _wit_tf_line(group: GroupDesc, phi: Endo,
                 viol: Violation) -> list[tuple[str, FamilyFn]]:
    units = [Element.unit(group, n, i) for n, i in group.tf_copies()]
    free = group.free_omega_name
    if free is not None:
        units.append(Element.unit(group, free, 0))
    candidates = list(units)
    for u, v in combinations(units, 2):
        candidates += [u + v, u + v.scale(-1)]
    for v in candidates:
        if not _tf_parallel(group, v, apply(phi, v)):
            return [("an infinite-order line moved off itself",
                     lambda n, v=v: [v])]
    return []


def _anchored_layer(group: GroupDesc, phi: Endo,
                    viol: Violation) -> list[tuple[str, FamilyFn]]:
    # deep divisible layers tied to an infinite-order anchor
    p = viol.prime
    dnames = [n for n, b in group.prufer_items() if b.prime == p]
    free = group.free_omega_name
    if free is not None:
        anchor = Element.unit(group, free, 0)
    else:
        copies = group.tf_copies()
        if not copies:
            return []
        anchor = Element.unit(group, copies[0][0], copies[0][1])
    out = []
    for name in dnames:
        def fam(n: int, name=name) -> list[Element]:
            layer = Element.unit(group, name, 0, Fraction(1, p ** n))
            return [layer + anchor]
        out.append((f"divisible layers under an infinite-order anchor at {p}",
                    fam))
    return out


def _wit_div_matrix(group: GroupDesc, phi: Endo,
                    viol: Violation) -> list[tuple[str, FamilyFn]]:
    p = viol.prime
    val = phi.div.get(p)
    if not isinstance(val, dict):
        return []
    out = []
    off = sorted((s, d) for (s, d), q in val.items() if s != d and q)
    if off:
        src = off[0][0]
        out.append((f"layers of a cross-coordinate divisible source at {p}",
                    lambda n, src=src: [Element.unit(group, src[0], src[1],
                                                     Fraction(1, p ** n))]))
    copies, _ = group.prufer_copies(p)
    for c1, c2 in combinations(copies, 2):
        if val.get((c1, c1), Fraction(0)) != val.get((c2, c2), Fraction(0)):
            def fam(n: int, c1=c1, c2=c2) -> list[Element]:
                q = Fraction(1, p ** n)
                return [Element.unit(group, c1[0], c1[1], q)
                        + Element.unit(group, c2[0], c2[1], q)]
            out.append((f"paired layers of distinct divisible scalars at {p}",
                        fam))
            break
    return out


def _wit_tau(group: GroupDesc, phi: Endo,
             viol: Violation) -> list[tuple[str, FamilyFn]]:
    out = []
    for (s, d), _ in sorted(phi.tau.items()):
        p = group.block(d[0]).prime
        out.append((f"deep {p}-fractions of a twisted source",
                    lambda n, s=s, p=p: [Element.unit(group, s[0], s[1],
                                                      Fraction(1, p ** n))]))
    return out


def _omega_residues(group: GroupDesc, phi: Endo,
                    p: int) -> list[tuple[str, int, int]]:
    out = []
    for name, b in group.cyclic_at(p):
        if b.mult is OMEGA:
            val = phi.cyc.get(name, 0)
            if isinstance(val, int):
                out.append((name, b.exp, val))
    return out


def _wit_crt(group: GroupDesc, phi: Endo,
             viol: Violation) -> list[tuple[str, FamilyFn]]:
    p = viol.prime
    blocks = _omega_residues(group, phi, p)
    out = []
    for (n1, k1, a1), (n2, k2, a2) in combinations(blocks, 2):
        if (a1 - a2) % p ** min(k1, k2):
            def fam(n: int, n1=n1, n2=n2) -> list[Element]:
                return [Element.unit(group, n1, i) + Element.unit(group, n2, i)
                        for i in range(n)]
            out.append(("graphs of residue blocks with clashing scalars", fam))
    free = group.free_omega_name
    if free is not None:
        m = phi.free_scalar
        for name, k, a in blocks:
            if (a - m) % p ** k:
                def fam(n: int, name=name) -> list[Element]:
                    return [Element.unit(group, name, i)
                            + Element.unit(group, free, i) for i in range(n)]
                out.append(("graphs of a residue block against the free "
                            "lattice", fam))
    return out


def _wit_omega_div(group: GroupDesc, phi: Endo,
                   viol: Violation) -> list[tuple[str, FamilyFn]]:
    p = viol.prime
    val = phi.div.get(p, Fraction(0))
    if not isinstance(val, Fraction):
        return []
    dname = next((n for n, b in group.prufer_items()
                  if b.prime == p and b.copies is OMEGA), None)
    if dname is None:
        return []
    out = []
    for name, k, a in _omega_residues(group, phi, p):
        gap = frac_valuation(val - a, p)
        if is_finite(gap) and gap < k:
            def fam(n: int, name=name, k=k) -> list[Element]:
                return [Element.unit(group, name, i)
                        + Element.unit(group, dname, i, Fraction(1, p ** k))
                        for i in range(n)]
            out.append(("graphs pairing residue blocks with fresh divisible "
                        "coordinates", fam))
            break
    return out


_FAMILY_BUILDERS = {
    TF_NOT_SCALAR: _wit_tf_line,
    NOT_FTFR_NOT_INTEGER: _wit_tf_line,
    PI_HAS_DIVISIBLE: _anchored_layer,
    DIV_VS_R_MISMATCH: _anchored_layer,
    DIV_NOT_SCALAR: _wit_div_matrix,
    TAU_NONZERO: _wit_tau,
    CRT_INCONSISTENT: _wit_crt,
    OMEGA_DIV_MISMATCH: _wit_omega_div,
}


def _unbounded(indices: Sequence[Nat], ratio: int) -> bool:
    return any(not is_finite(v) for v in indices) or (
        len(indices) > 1 and all(b >= ratio * a for a, b in zip(indices, indices[1:])))


def witness_search(group: GroupDesc, phi: Endo, violation: Violation,
                   budget: int = 6) -> WitnessFamily | None:
    """A subgroup family whose index under phi grows without bound.

    Each violation kind has one dedicated template; a family counts as
    a witness when some index is infinite or the indices multiply by at
    least the violated prime at every depth step.  Returns None when no
    template shows growth within the budget.
    """
    if phi.group != group:
        raise UsageError("the endomorphism acts on a different group")
    if not isinstance(budget, int) or budget < 1:
        raise UsageError("budget must be a positive integer")
    builder = _FAMILY_BUILDERS.get(violation.kind)
    if builder is None:
        raise UsageError(f"unknown violation kind {violation.kind!r}")
    ratio = violation.prime if violation.prime is not None else 2
    for desc, fam in builder(group, phi, violation):
        subgroups: list[FGSubgroup] = []
        indices: list[Nat] = []
        for n in range(1, budget + 1):
            sub = FGSubgroup(group, tuple(fam(n)),
                             f"witness {violation.kind} {n}")
            subgroups.append(sub)
            indices.append(index_in_sum(sub, phi))
            if not is_finite(indices[-1]):
                break
        if _unbounded(indices, ratio):
            return WitnessFamily(violation.kind, violation.prime, desc,
                                 tuple(range(1, len(indices) + 1)), tuple(subgroups),
                                 tuple(indices))
    return None
