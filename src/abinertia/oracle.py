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
from itertools import combinations, product
from math import lcm, prod
from typing import Callable, Iterable, Iterator, Sequence

from .exactnum import (
    INF, OMEGA, UsageError, frac_residue, frac_valuation, hnf, is_finite,
    solve_in_rowspace,
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
    "index_in_sum", "index_in_sums", "naive_index_in_sum",
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

def _presentation(group: GroupDesc,
                  gens: Sequence[Element]) -> tuple[list[list[int]], list[int]]:
    """Integer vectors for the generators, plus one modulus per column.

    Every column is scaled to an integer coordinate: torsion-free values
    are multiplied through by the common denominator and get modulus 0
    (a free column), divisible values a/p^j become a * p^(J-j) modulo
    the deepest layer p^J in play, and cyclic values stay as they are,
    modulo the block's order.  Python ints have a numerator and a
    denominator too, so one scaling covers all three kinds of block.
    """
    cols = sorted({c for g in gens for c in g.coeffs})
    table = [[g.coeffs.get(c, 0) for c in cols] for g in gens]
    scales, moduli = [], []
    for c, vals in zip(cols, zip(*table)):
        b = group.block(c[0])
        if isinstance(b, Cyclic):
            scale, m = 1, b.prime ** b.exp
        elif isinstance(b, Prufer):
            scale = m = max(v.denominator for v in vals)
        else:
            scale, m = lcm(*(v.denominator for v in vals)), 0
        scales.append(scale)
        moduli.append(m)
    rows = [[v.numerator * (k // v.denominator) for v, k in zip(row, scales)]
            for row in table]
    return rows, moduli


def _leads(basis: Sequence[Sequence[int]]) -> list[int]:
    return [next(j for j, x in enumerate(row) if x) for row in basis]


def index_in_sums(sub: FGSubgroup, phis: Sequence[Endo]) -> list[Nat]:
    """index_in_sum of sub under each map in phis, presenting H once.

    One presentation covers the generators of H and the nonzero images
    under every map, and H is reduced once; each map then inserts only
    its own images into H's Hermite basis.  Each index equals what a
    presentation over H and that map's images alone gives:

    * a column that only other maps reach holds m e_c in both bases, or
      no pivot if it is free, so it adds a factor of 1;
    * a divisible column's modulus is the largest denominator over all
      the rows, and embedding (1/p^j)Z/Z into Z/p^J is injective;
    * a free column's scale is the lcm of all its denominators, and
      scaling by a positive integer is injective.
    """
    if any(phi.group != sub.group for phi in phis):
        raise UsageError("the endomorphism acts on a different group")
    hs = [g for g in sub.generators if g]
    images = [[im for im in (apply(phi, g) for g in hs) if im] for phi in phis]
    ks = hs + [im for ims in images for im in ims]
    if not ks:
        return [1] * len(phis)
    rows, moduli = _presentation(sub.group, ks)
    basis_h = hnf(rows[:len(hs)], moduli)
    lead = _leads(basis_h)
    out: list[Nat] = []
    start = len(hs)
    for ims in images:
        basis_k = hnf(rows[start:start + len(ims)], moduli, basis_h)
        start += len(ims)
        if len(basis_h) < len(basis_k):
            out.append(INF)
            continue
        if lead != _leads(basis_k):
            raise AssertionError("H escaped H + phi(H)")
        index = 1
        for col, row_h, row_k in zip(lead, basis_h, basis_k):
            if row_h[col] % row_k[col]:
                raise AssertionError("H escaped H + phi(H)")
            index *= row_h[col] // row_k[col]
        out.append(index)
    return out


def index_in_sum(sub: FGSubgroup, phi: Endo) -> Nat:
    """Exact index |H + phi(H) : H| for a finitely generated H.

    Both subgroups are presented as integer lattices over the involved
    coordinates, torsion columns kept modulo their orders.  H is reduced
    once and the images are inserted into its Hermite basis.  The index
    is INF exactly when the torsion-free rank jumps; otherwise H and
    H + phi(H) span one rational space, their Hermite bases share pivot
    columns, and the index is the product of the pivots of H over the
    product of the pivots of H + phi(H).
    """
    return index_in_sums(sub, [phi])[0]


def _span(group: GroupDesc, gens: Sequence[Element]) -> set[Element]:
    zero = Element(group, {})
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def naive_index_in_sum(sub: FGSubgroup, phi: Endo, limit: int = 4096) -> int:
    """Coset count by exhaustive closure; the slow cross-check."""
    group = sub.group
    if phi.group != group:
        raise UsageError("the endomorphism acts on a different group")
    order = group.order()
    if not is_finite(order) or order > limit:
        raise UsageError("naive enumeration needs a finite group of modest order")
    gens = [g for g in sub.generators if g]
    inside = _span(group, gens)
    total = _span(group, gens + [apply(phi, g) for g in gens])
    return len(total) // len(inside)


# ---------------------------------------------------------------------------
# subgroup generation

def _ambient(target: GroupDesc | Truncation) -> GroupDesc:
    return target.group if isinstance(target, Truncation) else target


def _width(b, depth: int) -> int:
    n = b.mult if isinstance(b, Cyclic) else b.copies if isinstance(b, Prufer) else b.rank
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
            for i in range(max(1, _width(b, _TAIL_WINDOW)))]
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
    once for all maps, from one stream of random draws per call.  Each
    subgroup is presented and reduced once for all maps (index_in_sums).
    Each distinct untruncated sample is looked up once per level and
    measured once per map per call.  The memo holds one index per map for
    each distinct sample and lives only as long as the call.  A map's
    evidence is what the singular call gives, whichever maps share the
    call.
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
    for level in lv:
        worst: list[Nat] = [1] * len(phis)
        if has_torsion:
            shadow = truncate(group, level)
            psis = [truncate_endo(phi, shadow) for phi in phis]
            for s in _prelude(shadow.group, level):
                worst = [_nat_max(w, v) for w, v in zip(worst, index_in_sums(s, psis))]
                families.add(s.label.split()[0])
        for s in sample_subgroups(group, samples, seed, level, _draws=draws):
            found = measured.get(s.generators)
            if found is None:
                found = measured[s.generators] = index_in_sums(s, phis)
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

    That lattice contains diag(moduli), so its Hermite basis is square,
    with pivot i dividing m_i.  The basis is hnf(rows, moduli, basis):
    the rows inserted into a given Hermite basis over the same moduli,
    by default diag(moduli).  The order is the modulus product over the
    pivot product.
    """

    __slots__ = ("moduli", "basis")

    def __init__(self, moduli: Sequence[int], rows: Iterable[Sequence[int]],
                 basis: Sequence[Sequence[int]] = ()):
        self.moduli = tuple(moduli)
        self.basis = tuple(map(tuple, hnf(rows, self.moduli, basis)))

    def order(self) -> int:
        return prod(m // row[i] for i, (m, row) in enumerate(zip(self.moduli, self.basis)))

    def closure(self, action: Sequence[Sequence[tuple[int, int]]]) -> "FiniteLattice":
        """The smallest lattice over this one that a map carries into itself.

        action[i] lists the pairs (j, a) of the image of e_i.  The map is
        applied to the basis rows, then to the last images, until the order
        stops growing: a lattice only grows, so equal orders are equal.
        """
        out, frontier = self, [r for i, r in enumerate(self.basis) if r[i] != self.moduli[i]]
        while frontier:
            images = [[0] * len(self.moduli) for _ in frontier]
            for img, row in zip(images, frontier):
                for x, pairs in zip(row, action):
                    for j, a in pairs:
                        img[j] += x * a
            frontier = [r for r in ([x % m for x, m in zip(img, self.moduli)]
                                    for img in images) if any(r)]
            grown = FiniteLattice(self.moduli, frontier, out.basis)
            if grown.order() == out.order():
                break
            out = grown
        return out

    def annihilator(self) -> "FiniteLattice":
        """The subgroup pairing to zero with this one under sum x_i y_i / m_i.

        Its lattice is spanned by the columns of diag(moduli) H^-1 for the
        Hermite basis H; row i of that matrix writes m_i e_i over H and is
        found by integer back-substitution.
        """
        n = len(self.moduli)
        cols = [[0] * n for _ in range(n)]
        for i, m in enumerate(self.moduli):
            rest = [0] * i + [m] + [0] * (n - i - 1)
            for j in range(i, n):
                cols[j][i] = q = rest[j] // self.basis[j][j]
                if q:
                    rest[j:] = [x - q * y for x, y in zip(rest[j:], self.basis[j][j:])]
        return FiniteLattice(self.moduli, cols)


def _flat_space(group: GroupDesc) -> tuple[list[Coord], list[int]]:
    if not group.is_finite:
        raise UsageError("only finite groups flatten to lattices")
    coords = [(name, i) for name, b in group.blocks for i in range(b.mult)]
    return coords, [b.prime ** b.exp for _, b in group.blocks for _ in range(b.mult)]


def _shadow_action(psi: Endo, coords: Sequence[Coord],
                   moduli: Sequence[int]) -> tuple[list, list]:
    """The flat action of a shadow map and its dual, as pair lists."""
    index = {c: i for i, c in enumerate(coords)}
    action = [[(index[d], a) for d, a in apply(psi, Element.unit(psi.group, *c)).coeffs.items()]
              for c in coords]
    dual: list[list[tuple[int, int]]] = [[] for _ in coords]
    for i, images in enumerate(action):
        for j, a in images:
            if a * moduli[i] % moduli[j]:
                raise AssertionError("the shadow map is not a homomorphism")
            dual[j].append((i, a * moduli[i] // moduli[j]))
    return action, dual


def fs_profiles(group: GroupDesc, phis: Sequence[Endo],
                levels: Sequence[int]) -> list[dict[int, int]]:
    """fs_profile of each map in phis, sharing the group-only work.

    The levels are the outer loop, the prelude families the middle one
    and the maps the inner one.  Each level truncates and flattens the
    group once; each family builds X and X^perp once, and only the two
    closures run per map.  Besides each map's flat action and dual, one
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
        coords, moduli = _flat_space(shadow.group)
        maps = [_shadow_action(truncate_endo(phi, shadow), coords, moduli) for phi in phis]
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
    entries are phi_ij m_i / m_j.  The ratio is |X^*| |X_*^perp| / |G|.
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
