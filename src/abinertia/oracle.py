"""Brute-force ground truth for inertiality verdicts.

The analytic verdicts in inertia read the normal form.  Everything
here instead treats an endomorphism as an opaque function and measures
it on actual subgroups: |H + phi(H) : H| is computed exactly from an
integer lattice presentation, profiles watch how the worst index moves
across finite shadows of the group, and each violation kind has a
dedicated family template that should exhibit unbounded growth.  A
template offers the families that the group and the violated prime
allow, and the measured index picks the witness; only _wit_tau and
_wit_div_matrix still read phi's tau and div to pick a source, as their
group-only forms would grow on other families first and so change the
reports.  The two routes share no inference code, so agreement between
them is evidence rather than circularity.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import lcm, prod
from typing import Callable, Iterable, Iterator, Sequence

from .exactnum import INF, OMEGA, UsageError, frac_residue, hnf_insert, is_finite
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
    "inertness_profile", "fs_profile", "witness_search",
]

MAX_ENUMERATED_ORDER = 4096  # of naive_index_in_sum's group, --enumerate-all's shadow


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
             elements: Iterable[Element]) -> tuple[dict[Coord, int], list[int], list[int]]:
    """The coordinates the elements reach, by column, with one scale and one modulus each.

    The columns come in block order.  Every column is scaled to an
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
    return {c: j for j, c in enumerate(cols)}, scales, moduli


def _scaled(v: int | Fraction, scale: int) -> int:
    return v.numerator * (scale // v.denominator)


def _index(base: dict[int, dict[int, int]], slots: dict[int, dict[int, int]],
           moduli: Sequence[int]) -> Nat:
    """|S : B| for echelon slots S over those of a sublattice B, or the
    order of S over B = {}: the product of the pivot ratios, or INF when
    a free column gains a pivot (a modular one always holds one)."""
    out = 1
    for j, row in slots.items():
        if j not in base and not moduli[j]:
            return INF
        q, r = divmod(base[j][j] if j in base else moduli[j], row[j])
        if r:
            raise AssertionError("the slots do not contain their base")
        out *= q
    return out


def _indices(rows_h: Sequence[dict[int, int]], images: Sequence[Sequence[dict[int, int]]],
             moduli: Sequence[int]) -> list[Nat]:
    """|H + K : H| for the lattice H of the {column: entry} rows_h and
    each K of images: _index reads it off H's echelon slots and a shallow
    copy of them that takes K's rows (hnf_insert replaces slot rows, so
    H's stay as they were)."""
    base: dict[int, dict[int, int]] = {}
    for r in rows_h:
        hnf_insert(base, r, moduli)
    out: list[Nat] = []
    for ims in images:
        slots = dict(base)
        for r in ims:
            hnf_insert(slots, r, moduli)
        out.append(_index(base, slots, moduli))
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
    index, scales, moduli = _columns(sub.group, hs + ims)
    rows = [{index[c]: _scaled(v, scales[index[c]]) for c, v in x.coeffs.items()} for x in hs + ims]
    return _indices(rows[:len(hs)], [rows[len(hs):]], moduli)[0]


class ProbeRows:
    """Each map's image of one probe per coordinate, as scaled integer rows.

    A probe is the unit e_c on a cyclic coordinate, (1/p^J) e_c on a
    divisible one and (1/prod q^2) e_c on a torsion-free one, q running
    over the primes of its block (_probe_value), one per coordinate below
    _width(b, J) for the depth J.  On a finite shadow every block is
    spanned whole and every probe is a unit, so images[k] is map k's flat
    action, which FiniteLattice._sweep reads (_shadow).  Each map is
    applied to each probe once, here, and nowhere else in the profiles or
    in --enumerate-all.

    The presentation is fixed here for all measurements: the columns are
    the coordinates that the probes and their images reach, in block
    order, scaled and reduced as _columns says over all those entries.
    measure() takes each generator as its multipliers n_c on the probes
    and its image as sum n_c phi(probe_c).  phi is additive, so that is
    phi of the generator, and no more than that is assumed: the map
    stays an opaque function.  Each index equals index_in_sum's, whose
    presentation covers only one subgroup and its images under one map:

    * a column that only other maps' images reach holds m e_c, or no
      pivot if it is free, in the slots of H and of H + K: a factor 1;
    * a divisible column's modulus is the largest denominator over all
      the probe rows, and embedding (1/p^j)Z/Z into Z/p^J is injective;
    * a free column's scale is the lcm of all its denominators, and
      scaling by a positive integer is injective.
    """

    __slots__ = ("group", "columns", "moduli", "images", "_probes")

    def __init__(self, group: GroupDesc, phis: Sequence[Endo], depth: int):
        if any(phi.group != group for phi in phis):
            raise UsageError("the endomorphism acts on a different group")
        coords = [(name, i) for name, b in group.blocks for i in range(_width(b, depth))]
        units = [Element.unit(group, name, i, _probe_value(group.block(name), depth))
                 for name, i in coords]
        images = [[apply(phi, u) for u in units] for phi in phis]
        index, scales, self.moduli = _columns(group, units + [im for ims in images for im in ims])

        def pairs(x: Element) -> list[tuple[int, int]]:
            return [(index[c], _scaled(v, scales[index[c]])) for c, v in x.coeffs.items()]

        self.group = group
        self.columns = list(index)
        # images[k][i]: the row of map k's image of probe i, as (column, entry) pairs
        self.images = [[pairs(im) for im in ims] for ims in images]
        self._probes = {
            c: (index[c], _scaled(u.coeffs[c], scales[index[c]]),
                [rows[i] for rows in self.images])
            for i, (c, u) in enumerate(zip(coords, units))}

    def measure(self, gens: Sequence[Row]) -> list[Nat]:
        """|H + phi(H) : H| under each map, for H generated by rows of multipliers.

        Each generator lists (coordinate, n_c) pairs: it is sum n_c probe_c.
        The {column: entry} rows go to _indices as they are made, whose
        slots cover only the columns that H and the images reach.
        """
        moduli = self.moduli
        rows: list[dict[int, int]] = []
        images: list[list[dict[int, int]]] = [[] for _ in self.images]
        for g in gens:
            row: dict[int, int] = {}
            sums: list[dict[int, int]] = [{} for _ in self.images]
            for c, n in g:
                col, unit, per_map = self._probes[c]
                row[col] = n * unit
                for acc, probe_image in zip(sums, per_map):
                    for j, a in probe_image:
                        acc[j] = acc.get(j, 0) + n * a
            rows.append(row)
            for out, acc in zip(images, sums):
                out.append({j: x % moduli[j] if moduli[j] else x for j, x in acc.items()})
        return _indices(rows, images, moduli)


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


def naive_index_in_sum(sub: FGSubgroup, phi: Endo) -> int:
    """Coset count by exhaustive closure; the slow cross-check.

    H and H + phi(H) are closed as sets of integer vectors over the flat
    coordinates of the finite group, and every element of both is
    counted.  It refuses a group of order beyond MAX_ENUMERATED_ORDER.
    """
    group = sub.group
    if phi.group != group:
        raise UsageError("the endomorphism acts on a different group")
    order = group.order()
    if not is_finite(order) or order > MAX_ENUMERATED_ORDER:
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


_TAIL_WINDOW = 3  # random tails stay level-independent on purpose

# A generator written over the probes of ProbeRows: its nonzero
# (coordinate, multiplier) pairs, sorted by coordinate.  The multiplier of
# a value v is v over the probe's value, an integer for every value the
# families and draws make (a divisible a/p^j with j at most the probes'
# depth J, a torsion-free num/q or num/q^2), and v determines it, so two
# generators are the same element exactly when their rows are equal.
Row = tuple[tuple[Coord, int], ...]


def _probe_value(b, depth: int) -> int | Fraction:
    """The probe of a coordinate of block b: its unit, 1/p^depth on a
    divisible block, 1/prod q^2 on a torsion-free one."""
    if isinstance(b, Prufer):
        return Fraction(1, b.prime ** depth)
    if isinstance(b, TorsionFree):
        return Fraction(1, prod(q * q for q in b.primes))
    return 1


def _element(group: GroupDesc, row: Row, probe_depth: int) -> Element:
    return Element(group, {c: n * _probe_value(group.block(c[0]), probe_depth)
                           for c, n in row})


def _prelude_rows(group: GroupDesc, depth: int,
                  probe_depth: int) -> list[tuple[str, tuple[Row, ...]]]:
    """Structured deterministic families: socles, slabs, graphs.

    Each family is its label and its generators as Rows over the probes
    at probe_depth, which only divisible and torsion-free blocks read, so
    on a finite shadow any probe_depth gives the same Rows.  A divisible
    layer is 1/p^depth, the multiplier p^(probe_depth - depth); a
    torsion-free unit is prod q^2 times its probe.
    """
    out: list[tuple[str, tuple[Row, ...]]] = []
    seen: set[tuple[Row, ...]] = set()

    def push(label: str, gens: Iterable[Row]) -> None:
        key = tuple(gens)
        if key not in seen:
            seen.add(key)
            out.append((label, key))

    # the multiplier of a family's probe on each block: a layer 1/p^depth
    # of a divisible block, else a unit
    at = {name: b.prime ** (probe_depth - depth) if isinstance(b, Prufer)
          else prod(q * q for q in b.primes) if isinstance(b, TorsionFree) else 1
          for name, b in group.blocks}
    for name, b in group.blocks:
        w = max(1, _width(b, depth))
        if isinstance(b, Cyclic):
            push(f"socle {name}", [(((name, 0), b.prime ** (b.exp - 1)),)])
            push(f"coordinate {name}", [(((name, 0), 1),)])
            if w >= 2:
                push(f"slab {name}", [(((name, i), 1),) for i in range(w)])
        elif isinstance(b, Prufer):
            push(f"socle {name}", [(((name, 0), b.prime ** (probe_depth - 1)),)])
            push(f"layer {name}", [(((name, 0), at[name]),)])
            if w >= 2:
                push(f"slab {name}", [(((name, i), at[name]),) for i in range(w)])
        else:
            push(f"lattice {name}", [(((name, i), at[name]),) for i in range(w)])
            push(f"lattice {name} scaled", [(((name, i), 2 * at[name]),) for i in range(w)])
        if w >= 2:  # one in-block pair graph catches diagonal deviations
            push(f"graph {name}/{name}", [(((name, 0), at[name]), ((name, 1), at[name]))])
    for (n1, b1), (n2, b2) in combinations(group.blocks, 2):
        w = max(1, min(_width(b1, depth), _width(b2, depth)))
        push(f"graph {n1}/{n2}",
             [tuple(sorted((((n1, i), at[n1]), ((n2, i), at[n2])))) for i in range(w)])
    return out


def _draw_rows(group: GroupDesc, seed: int, probe_depth: int) -> Iterator[tuple[Row, ...]]:
    """The random generator tuples of sample_subgroups, in draw order.

    The draws depend on the group and the seed alone, never on the depth
    or on which earlier draws were kept, so one stream serves every depth.
    A divisible value a/p^j, j <= _TAIL_WINDOW <= probe_depth, is the
    multiplier a p^(probe_depth - j), and a torsion-free num/den is
    num (prod q^2 / den).
    """
    rng = random.Random(seed)
    # each coordinate with its block and, for a torsion-free one, the
    # sorted primes and prod q^2, looked up once per call
    pool = []
    for name, b in group.blocks:
        ps = sorted(b.primes) if isinstance(b, TorsionFree) else []
        pool += [((name, i), b, ps, prod(q * q for q in ps))
                 for i in range(max(1, min(_width(b, _TAIL_WINDOW), _TAIL_WINDOW)))]
    while True:
        gens = []
        for _ in range(rng.randint(1, 4)):
            pairs = []
            for coord, b, ps, squares in rng.sample(pool, rng.randint(1, min(3, len(pool)))):
                if isinstance(b, Cyclic):
                    pairs.append((coord, rng.randrange(1, b.prime ** b.exp)))
                elif isinstance(b, Prufer):
                    j = rng.randint(1, _TAIL_WINDOW)
                    pairs.append((coord, rng.randrange(1, b.prime ** j)
                                  * b.prime ** (probe_depth - j)))
                else:
                    num = rng.randint(-3, 3)
                    den = 1
                    if ps and rng.random() < 0.5:
                        den = rng.choice(ps) ** rng.randint(1, 2)
                    if num:
                        pairs.append((coord, num * (squares // den)))
            if pairs:
                gens.append(tuple(sorted(pairs)))
        yield tuple(gens)


def _replay(kept: list, fresh: Iterator) -> Iterator:
    """The draws kept so far, then fresh ones, each kept as it is made."""
    yield from kept
    for key in fresh:
        kept.append(key)
        yield key


def _sample_rows(group: GroupDesc, count: int, depth: int, probe_depth: int,
                 draws: Iterator[tuple[Row, ...]]) -> list[tuple[str, tuple[Row, ...]]]:
    """The prelude at depth, then the first new draws up to count."""
    if not isinstance(count, int) or count < 1:
        raise UsageError("count must be a positive integer")
    out = _prelude_rows(group, depth, probe_depth)
    seen = {gens for _, gens in out}
    for _ in range(4 * count + 32):
        if len(out) >= count:
            break
        key = next(draws)
        if key and key not in seen:
            seen.add(key)
            out.append((f"random {len(out)}", key))
    return out


def sample_subgroups(target: GroupDesc | Truncation, count: int, seed: int,
                     depth: int | None = None) -> list[FGSubgroup]:
    """Deterministic mixed family of finitely generated subgroups.

    The structured prelude (socles, slabs, scaled lattices, one graph
    per block pair, scaled by depth) is always included; seeded random
    generator sets with small coefficients fill the list up to count,
    from at most 4 * count + 32 draws.  The random tail draws from a
    fixed shallow window regardless of depth, so profiles over growing
    depths only move through the structured families.  The subgroups are
    made as Rows over the probes at depth max(depth, _TAIL_WINDOW), as
    the profiles measure them, and only then written as elements.
    """
    group = _ambient(target)
    if depth is None:
        depth = target.level if isinstance(target, Truncation) else _TAIL_WINDOW
    if not isinstance(depth, int) or depth < 1:
        raise UsageError("depth must be a positive integer")
    probe_depth = max(depth, _TAIL_WINDOW)
    samples = _sample_rows(group, count, depth, probe_depth,
                           _draw_rows(group, seed, probe_depth))
    return [FGSubgroup(group, tuple(_element(group, g, probe_depth) for g in gens), label)
            for label, gens in samples]


def _echelon_bases(moduli: Sequence[int]) -> list["FiniteLattice"]:
    """Every subgroup of Z^n / diag(moduli), as the lattice of its lifts.

    Each lattice between diag(moduli) and Z^n has one Hermite basis,
    built as echelon slots from the last column down: a pivot d runs over
    the divisors of its modulus m, each entry right of it over the
    residues modulo the pivot below, and a row is kept when m e_i stays in
    the lattice, that is when (m/d) tail does not grow a copy of the slots
    below.  The walk ends before anything is returned, so past twenty
    thousand subgroups (elementary abelian shapes explode) it refuses
    before any is measured; the caller's order gate bounds the work.
    """
    walked: list[dict[int, dict[int, int]]] = [{}]
    for i in reversed(range(len(moduli))):
        m = moduli[i]
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        grown = []
        for below in walked:
            pivots = [below[j][j] if j in below else moduli[j] for j in range(i + 1, len(moduli))]
            for tail in product(*map(range, pivots)):
                rest = {j: x for j, x in enumerate(tail, i + 1) if x}
                for d in divisors:
                    if hnf_insert(dict(below), {j: m // d * x for j, x in rest.items()}, moduli):
                        continue
                    # d = m keeps only the zero tail: the row m e_i, stored as nothing
                    grown.append({i: {i: d, **rest}, **below} if d < m else below)
                    if len(grown) > 20000:
                        raise UsageError("the subgroup lattice is too large to enumerate")
        walked = grown
    return [FiniteLattice(moduli, (), slots) for slots in walked]


def enumerate_subgroups(target: GroupDesc | Truncation,
                        limit: int = 1024) -> list[FGSubgroup]:
    """Every subgroup of a small finite group, smallest first, as elements.

    The _echelon_bases over the flat coordinates, sorted by order, then
    by basis; its nonzero rows are the generators.  Refuses groups of
    order beyond the limit.  --enumerate-all (_exhaust) measures the
    lattices themselves; these elements serve the demos and the checks.
    """
    group = _ambient(target)
    order = group.order()
    if not is_finite(order) or order > limit:
        raise UsageError("subgroup enumeration needs a finite group within the limit")
    coords, moduli = _flat_space(group)
    lattices = sorted(_echelon_bases(moduli), key=lambda x: (x.order(), x.basis))
    out = []
    for rank, x in enumerate(lattices):
        gens = [Element(group, dict(zip(coords, r))) for r in x.basis]
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


class FiniteLattice:
    """A subgroup of Z^n / diag(moduli) as the lattice of all its lifts.

    That lattice contains diag(moduli), so it has an echelon basis with
    one row per column, the row of column i starting there with a
    positive pivot dividing m_i, held as hnf_insert's echelon slots (a
    column missing holds m_i e_i, so a small subgroup stores few rows);
    basis is the read-only dense view of all n rows.  It is not reduced
    above the pivots, so it is not canonical; compare lattices through
    hnf((), moduli, basis).  Given slots are adopted as they stand, not
    copied, and the {column: entry} rows are inserted into them, by
    default into diag(moduli).  Every modulus must be positive.
    """

    __slots__ = ("moduli", "slots")

    def __init__(self, moduli: Sequence[int], rows: Iterable[dict[int, int]],
                 slots: dict[int, dict[int, int]] | None = None):
        self.moduli = tuple(moduli)
        for i, m in enumerate(self.moduli):
            if m < 1:
                raise UsageError(f"lattice modulus {m} at column {i} is not positive")
        self.slots = {} if slots is None else slots
        for r in rows:
            hnf_insert(self.slots, r, self.moduli)

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.slots.get(i, {i: m}).get(j, 0) for j in range(len(self.moduli)))
                     for i, m in enumerate(self.moduli))

    def order(self) -> int:
        return _index({}, self.slots, self.moduli)

    def closure(self, action: Sequence[Sequence[tuple[int, int]]]) -> "FiniteLattice":
        """The smallest lattice over this one that a map carries into itself.

        action[i] lists the pairs (j, a) of the image of e_i; the map must
        be a homomorphism, so it kills every m_i e_i.  See _sweep for the
        worklist.
        """
        return FiniteLattice(self.moduli, (), self._sweep(action, True)[1])

    def _sweep(self, action: Sequence[Sequence[tuple[int, int]]],
               whole: bool) -> tuple[int, dict[int, dict[int, int]]]:
        """|X + phi X : X| and the echelon slots where closure's worklist stops.

        The worklist runs in sweeps.  The first inserts the image of every
        stored slot row (phi kills each m_i e_i), so it ends at X + phi X,
        whose index is read there.  With whole, each later sweep inserts
        the images of the rows whose insertion grew the lattice in the
        sweep before.  An image that did not grow it already lies in it,
        so when a sweep grows nothing the map carries every generator, and
        with them the lattice, into the lattice: the slots are then those
        of X^*.  Without whole they are those of X + phi X.
        """
        moduli = self.moduli
        slots = dict(self.slots)
        queue = list(slots.values())
        first = None
        while True:
            grown = []
            for row in queue:
                img: dict[int, int] = {}
                for i, x in row.items():
                    for j, a in action[i]:
                        img[j] = img.get(j, 0) + x * a
                img = {j: y for j, x in img.items() if (y := x % moduli[j])}
                if hnf_insert(slots, img, moduli):
                    grown.append(img)
            if first is None:
                first = _index(self.slots, slots, moduli)
            if not (whole and grown):
                return first, slots
            queue = grown

    def annihilator(self) -> "FiniteLattice":
        """The subgroup pairing to zero with this one under sum x_i y_i / m_i.

        Its lattice is spanned by the columns of diag(moduli) H^-1 for the
        echelon basis H; row i of that matrix writes m_i e_i over H and is
        found by sparse integer back-substitution, in place.  H is upper
        triangular, so column j of that matrix ends at row j with
        m_j / H_jj: over the reversed coordinates the columns are already
        an echelon basis.  The result lives there, over the reversed
        moduli, so a map acts on it through its coordinates reversed, and
        its annihilator is back in this lattice's coordinates.
        """
        moduli, n = self.moduli, len(self.moduli)
        cols: list[dict[int, int]] = [{} for _ in range(n)]
        for i, m in enumerate(moduli):
            rest = {i: m}
            while rest:
                j = min(rest)
                row = self.slots.get(j) or {j: moduli[j]}
                q, r = divmod(rest.pop(j), row[j])
                if r:
                    raise AssertionError("the lattice does not contain diag(moduli)")
                cols[n - 1 - j][n - 1 - i] = q
                for k, y in row.items():
                    if k != j:
                        if x := rest.get(k, 0) - q * y:
                            rest[k] = x
                        else:
                            del rest[k]
        rmods = moduli[::-1]
        return FiniteLattice(rmods, (), {k: c for k, c in enumerate(cols) if c != {k: rmods[k]}})


def _flat_space(group: GroupDesc) -> tuple[list[Coord], list[int]]:
    if not group.is_finite:
        raise UsageError("only finite groups flatten to lattices")
    coords = [(name, i) for name, b in group.blocks for i in range(b.mult)]
    return coords, [b.prime ** b.exp for _, b in group.blocks for _ in range(b.mult)]


def _dual(moduli: Sequence[int], action: Sequence[Sequence[tuple[int, int]]]) -> list:
    """A shadow map's dual action, as pair lists over the reversed coordinates.

    The dual acts on annihilators, which live there (see
    FiniteLattice.annihilator): e_j of the original coordinates is
    e_(n-1-j) of the reversed ones, and the entry of phi_ij is
    phi_ij m_i / m_j.
    """
    n = len(moduli)
    dual: list[list[tuple[int, int]]] = [[] for _ in moduli]
    for i, images in enumerate(action):
        for j, a in images:
            if a * moduli[i] % moduli[j]:
                raise AssertionError("the shadow map is not a homomorphism")
            dual[n - 1 - j].append((n - 1 - i, a * moduli[i] // moduli[j]))
    return dual


def _shadow(group: GroupDesc, phis: Sequence[Endo], level: int) -> ProbeRows:
    """The one read of the level's shadow: it is truncated once, and each
    truncated map is applied once to each of its units, the probes at
    depth level, so images[k] is map k's flat action."""
    shadow = truncate(group, level)
    return ProbeRows(shadow.group, [truncate_endo(phi, shadow) for phi in phis], level)


def _measure(flat: ProbeRows, lattices: Iterable[FiniteLattice],
             fs: bool) -> Iterator[tuple[list[Nat], list[int]]]:
    """Each lattice X's index under each map of the _shadow read flat and,
    with fs, its FS ratios.  Per map, |X + psi X : X| is read off the first
    sweep of X's closure worklist; with fs the worklist runs on to X^*.
    An index of 1 means psi X lies in X, so X^* = X_* = X and the ratio is
    1 with nothing more built.

    Otherwise X_*, the largest psi-invariant subgroup of X, is found on the
    coordinates W that X and X^* reach.  X and X^* lie in G_W, the
    subgroup of the elements supported on W, and psi carries X^* into
    itself, so a subgroup of X is psi-invariant exactly when it is
    invariant under psi_W = pi_W psi on G_W.  X^perp inside G_W is
    closed under the dual of psi_W, and the ratio is
    |X^*| |X_*^perp| / |G_W|: the annihilator and the dual closure run
    over |W| columns, not all of them.
    """
    moduli = flat.moduli
    for x in lattices:
        indices, ratios = [], []
        for action in flat.images:
            index, upper = x._sweep(action, fs)
            indices.append(index)
            if fs and index == 1:
                ratios.append(1)
            elif fs:
                w = sorted(set().union(*x.slots.values(), *upper.values()))
                at = {j: k for k, j in enumerate(w)}
                mods = [moduli[j] for j in w]
                own = FiniteLattice(mods, (), {at[i]: {at[j]: a for j, a in r.items()}
                                               for i, r in x.slots.items()})
                dual = _dual(mods, [[(at[j], a) for j, a in action[i] if j in at] for i in w])
                lower = own.annihilator()._sweep(dual, True)[1]
                ratios.append(_index({}, upper, moduli) * _index({}, lower, mods[::-1])
                              // prod(mods))
        yield indices, ratios


def _shadow_families(flat: ProbeRows, level: int,
                     fs: bool) -> Iterator[tuple[str, list[Nat], list[int]]]:
    """Each family of the level's shadow, with its index under each map
    and, with fs, its FS ratio: one FiniteLattice per family, built once
    for all maps and measured by _measure on flat, the shadow's _shadow
    read."""
    families = _prelude_rows(flat.group, level, level)
    # a shadow's probes are its units, so a Row's multipliers are its entries
    lattices = (FiniteLattice(flat.moduli, [{flat._probes[c][0]: n for c, n in g} for g in gens])
                for _, gens in families)
    for (label, _), (indices, ratios) in zip(families, _measure(flat, lattices, fs)):
        yield label, indices, ratios


def _exhaust(group: GroupDesc, phis: Sequence[Endo], level: int,
             flat: ProbeRows | None = None) -> tuple[int, list[int]]:
    """How many subgroups the level's shadow has, and each map's worst
    index over them all (_measure on the _shadow read, or on flat).

    A shadow of order beyond MAX_ENUMERATED_ORDER is refused before any
    map is applied, and a lattice past the bound of _echelon_bases before
    any subgroup is measured; both are UsageErrors.  Only the order gate
    bounds the work.
    """
    if truncate(group, level).group.order() > MAX_ENUMERATED_ORDER:
        raise UsageError(f"the level-{level} shadow is too large")
    flat = flat or _shadow(group, phis, level)
    lattices = _echelon_bases(flat.moduli)
    worst = [1] * len(phis)
    for indices, _ in _measure(flat, lattices, False):
        worst = list(map(max, worst, indices))
    return len(lattices), worst


def _profiles(group: GroupDesc, phis: Sequence[Endo], levels: Sequence[int],
              samples: int | None = None, seed: int = 0, fs: bool = False,
              reads: dict | None = None) -> tuple[list[InertnessEvidence], list[dict[int, int]]]:
    """The oracle's one loop over the levels, for all of a file's maps.

    Each level makes one pass over its _shadow read (_shadow_families), which
    gives every shadow family's index under each map and, with fs, its
    FS ratio (1 at once for a family of index 1), so a periodic group is
    truncated and walked once per level for both profiles.  With
    samples, the untruncated samples are then measured: the prelude at
    the level and the first new random draws, all made as Rows over the
    probes at depth max(top level, _TAIL_WINDOW), where each map is
    applied once per probe.  The draws are made once per call and
    replayed at every level, and the memo keyed by the Rows measures
    each distinct sample once per call; it holds one index per map and
    lives only as long as the call.  No map
    meets a generator, and each map's entry is the one it gets alone.
    Returns each map's evidence and, with fs, its FS report ({} without).
    reads, if given, keeps each level's _shadow read for _exhaust.
    """
    if any(phi.group != group for phi in phis):
        raise UsageError("the endomorphism acts on a different group")
    lv = _check_levels(levels)
    if not phis:
        return [], []
    if samples is not None:
        probe_depth = max(lv[-1], _TAIL_WINDOW)
        probes = ProbeRows(group, phis, probe_depth)
        kept: list[tuple[Row, ...]] = []
        fresh = _draw_rows(group, seed, probe_depth)
        measured: dict[tuple[Row, ...], list[Nat]] = {}
    has_torsion = any(not isinstance(b, TorsionFree) for _, b in group.blocks)
    per: list[list[tuple[int, Nat]]] = [[] for _ in phis]
    reports: list[dict[int, int]] = [{} for _ in phis]
    families: set[str] = set()  # the labels depend on the group alone
    for level in lv:
        worst: list[Nat] = [1] * len(phis)
        if has_torsion:
            flat = _shadow(group, phis, level)
            if reads is not None:
                reads[level] = flat
            for label, indices, ratios in _shadow_families(flat, level, fs):
                worst = [max(w, v) for w, v in zip(worst, indices)]
                for report, r in zip(reports, ratios):  # no ratios without fs
                    report[level] = max(report.get(level, 1), r)
                families.add(label.split()[0])
        if samples is not None:
            for label, gens in _sample_rows(group, samples, level, probe_depth,
                                            _replay(kept, fresh)):
                found = measured.get(gens)
                if found is None:
                    found = measured[gens] = probes.measure(gens)
                worst = [max(w, v) for w, v in zip(worst, found)]
                families.add(label.split()[0])
        for row, w in zip(per, worst):
            row.append((level, w))
    out = []
    for row in per:
        # an infinite observed index is already unbounded growth; a drop
        # between two finite top maxima is not growth (a family's width
        # on a finite block can move its worst index either way)
        top = [w for _, w in row[-2:]]
        stable = all(map(is_finite, top)) and top[-1] <= top[0]
        out.append(InertnessEvidence(tuple(row), tuple(sorted(families)),
                                     "stable" if stable else "growing"))
    return out, reports


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
    return _profiles(group, [phi], levels, samples, seed)[0][0]


def fs_profile(group: GroupDesc, phi: Endo,
               levels: Sequence[int]) -> dict[int, int]:
    """Max |X^* / X_*| per truncation level, over structured samples.

    X^* is the closure of X under phi.  A family that phi carries into
    itself, read off the first sweep as |X + phi X : X| = 1, has
    X^* = X_* = X and ratio 1 (_measure builds nothing more for it).
    Otherwise X_*, the largest phi-invariant subgroup of X, is reached
    through its annihilator under the pairing sum x_i y_i / m_i, taken
    inside G_W, the coordinates W that X and X^* reach (_measure): the
    closure of X^perp under the dual of phi followed by the projection to
    W, whose entries are phi_ij m_i / m_j.
    The ratio is |X^*| |X_*^perp| / |G_W|, and only orders enter it, so
    X^perp and its closure stay over the reversed coordinates and
    neither lattice is ever brought to its canonical Hermite form.
    """
    if not group.is_periodic:
        raise UsageError("the FS profile needs a periodic group")
    return _profiles(group, [phi], levels, fs=True)[1][0]


# ---------------------------------------------------------------------------
# witness families, one template per violation kind

FamilyFn = Callable[[int], list[Element]]


def _layers(group: GroupDesc, coords: Sequence[Coord], p: int,
            anchor: Element | None = None) -> FamilyFn:
    """The family whose depth-n subgroup is generated by the one element
    sum (1/p^n) e_c over coords, plus the anchor; with no coords it is the
    anchor's line at every depth."""
    anchor = Element.zero(group) if anchor is None else anchor
    return lambda n: [Element(group, dict.fromkeys(coords, Fraction(1, p ** n))) + anchor]


def _graphs(group: GroupDesc, a: str, b: str, value: int | Fraction = 1) -> FamilyFn:
    """The family whose depth-n subgroup is generated by the graphs
    e_(a,i) + value e_(b,i), i < n."""
    return lambda n: [Element(group, {(a, i): 1, (b, i): value}) for i in range(n)]


def _wit_tf_line(group: GroupDesc, phi: Endo,
                 viol: Violation) -> Iterator[tuple[str, FamilyFn]]:
    # the lines, made as they are asked for: the units, then u + v and u - v
    units = [Element.unit(group, n, i) for n, i in group.tf_copies()]
    free = group.free_omega_name
    if free is not None:
        units.append(Element.unit(group, free, 0))
    pairs = ((u + v, u + v.scale(-1)) for u, v in combinations(units, 2))
    for v in chain(units, chain.from_iterable(pairs)):
        yield "an infinite-order line moved off itself", _layers(group, (), 1, v)


def _anchored_layer(group: GroupDesc, phi: Endo,
                    viol: Violation) -> list[tuple[str, FamilyFn]]:
    # deep divisible layers tied to an infinite-order anchor
    p = viol.prime
    free = group.free_omega_name
    if free is not None:
        anchor = Element.unit(group, free, 0)
    else:
        copies = group.tf_copies()
        if not copies:
            return []
        anchor = Element.unit(group, copies[0][0], copies[0][1])
    return [(f"divisible layers under an infinite-order anchor at {p}",
             _layers(group, [(name, 0)], p, anchor))
            for name, b in group.prufer_items() if b.prime == p]


def _wit_div_matrix(group: GroupDesc, phi: Endo,
                    viol: Violation) -> list[tuple[str, FamilyFn]]:
    p = viol.prime
    val = phi.div.get(p)
    if not isinstance(val, dict):
        return []
    src = min((s for (s, d), q in val.items() if s != d and q), default=None)
    out = [] if src is None else [(f"layers of a cross-coordinate divisible source at {p}",
                                   _layers(group, [src], p))]
    copies, _ = group.prufer_copies(p)
    for c1, c2 in combinations(copies, 2):
        if val.get((c1, c1), Fraction(0)) != val.get((c2, c2), Fraction(0)):
            out.append((f"paired layers of distinct divisible scalars at {p}",
                        _layers(group, [c1, c2], p)))
            break
    return out


def _wit_tau(group: GroupDesc, phi: Endo,
             viol: Violation) -> list[tuple[str, FamilyFn]]:
    out = []
    for (s, d), _ in sorted(phi.tau.items()):
        p = group.block(d[0]).prime
        out.append((f"deep {p}-fractions of a twisted source", _layers(group, [s], p)))
    return out


def _wit_crt(group: GroupDesc, phi: Endo,
             viol: Violation) -> list[tuple[str, FamilyFn]]:
    # a graph grows exactly when its two scalars clash modulo the smaller order
    names = [name for name, b in group.cyclic_at(viol.prime) if b.mult is OMEGA]
    out = [("graphs of residue blocks with clashing scalars", _graphs(group, n1, n2))
           for n1, n2 in combinations(names, 2)]
    free = group.free_omega_name
    if free is not None:
        out += [("graphs of a residue block against the free lattice",
                 _graphs(group, name, free)) for name in names]
    return out


def _wit_omega_div(group: GroupDesc, phi: Endo,
                   viol: Violation) -> list[tuple[str, FamilyFn]]:
    # a block of order p^k against 1/p^k grows exactly when v_p(div - cyc) < k
    p = viol.prime
    dname = next((n for n, b in group.prufer_items()
                  if b.prime == p and b.copies is OMEGA), None)
    if dname is None:
        return []
    return [("graphs pairing residue blocks with fresh divisible coordinates",
             _graphs(group, name, dname, Fraction(1, p ** b.exp)))
            for name, b in group.cyclic_at(p) if b.mult is OMEGA]


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
    least the violated prime at every depth step.  The template's families
    are measured in turn at depths 1..budget, so a search costs at most
    budget index computations per family offered up to the first growing
    one.  A family whose depth-n generators are those of depth n - 1 is
    constant (the makers read the depth only through 1/p^n and i < n),
    so its index repeats and it is left there: a line of _wit_tf_line
    costs one index computation.  Returns None when no family grows
    within the budget.
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
            gens = tuple(fam(n))
            if subgroups and gens == subgroups[-1].generators:
                break  # the same subgroup again: its index repeats, so it cannot grow
            sub = FGSubgroup(group, gens, f"witness {violation.kind} {n}")
            subgroups.append(sub)
            indices.append(index_in_sum(sub, phi))
            if not is_finite(indices[-1]):
                break
        if _unbounded(indices, ratio):
            return WitnessFamily(violation.kind, violation.prime, desc,
                                 tuple(range(1, len(indices) + 1)), tuple(subgroups),
                                 tuple(indices))
    return None
