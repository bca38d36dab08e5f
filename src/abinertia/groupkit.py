"""Finitely described abelian groups and their structural invariants.

A group is a finite list of named blocks, each either

* ``Cyclic(p, k, mult)``: a direct sum of ``mult`` copies of Z/p^k,
  where ``mult`` is a positive integer or OMEGA (countably many);
* ``Prufer(p, copies)``: a direct sum of ``copies`` copies of Z(p^inf);
* ``TorsionFree(pi, rank)``: a direct sum of ``rank`` copies of the
  rationals with denominators supported on the finite prime set ``pi``
  (so ``pi = {}`` gives Z; ``rank`` may be OMEGA only when ``pi = {}``,
  giving the free group of countable rank, at most one such block).

Elements are finitely supported coordinate maps.  The invariants
computed here (per-prime bounds, the critical primes, the three prime
selectors, the divisible-quotient descriptor) are exactly the data that
the inertiality rules and canonical decompositions consume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exactnum import (
    INF, OMEGA, ExtendedNat, JElement, UsageError,
    frac_valuation, is_finite, is_prime,
)

Nat = int | ExtendedNat

__all__ = [
    "Cyclic", "Prufer", "TorsionFree", "Block", "free_omega", "GroupDesc",
    "Element", "PrimeSelector",
    "PrimeProfile", "Invariants", "invariants", "h_descriptor", "HElement",
    "h_equal", "h_add", "h_mul", "h_zero", "nm_type", "Truncation",
    "truncate",
]


def _check_mult(m: Nat, what: str) -> None:
    if m is OMEGA:
        return
    if not isinstance(m, int) or m < 1:
        raise UsageError(f"{what} must be a positive integer or OMEGA")


@dataclass(frozen=True)
class Cyclic:
    """mult copies of Z/p^k."""

    prime: int
    exp: int
    mult: Nat

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise UsageError(f"{self.prime} is not prime")
        if not isinstance(self.exp, int) or self.exp < 1:
            raise UsageError("cyclic exponent must be a positive integer")
        _check_mult(self.mult, "cyclic multiplicity")


@dataclass(frozen=True)
class Prufer:
    """copies copies of the divisible p-group Z(p^inf)."""

    prime: int
    copies: Nat

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise UsageError(f"{self.prime} is not prime")
        _check_mult(self.copies, "Prufer copy count")


@dataclass(frozen=True)
class TorsionFree:
    """rank copies of the rationals with denominators in the set primes."""

    primes: frozenset[int]
    rank: Nat

    def __post_init__(self) -> None:
        object.__setattr__(self, "primes", frozenset(self.primes))
        for p in self.primes:
            if not is_prime(p):
                raise UsageError(f"{p} is not prime")
        _check_mult(self.rank, "torsion-free rank")
        if self.rank is OMEGA and self.primes:
            raise UsageError("infinite rank is only supported over Z")


Block = Cyclic | Prufer | TorsionFree


def free_omega() -> TorsionFree:
    """The free abelian group of countable rank, as a block."""
    return TorsionFree(frozenset(), OMEGA)


class _Views(NamedTuple):
    """The per-kind views of a group's blocks, derived together once."""

    cyclic: tuple[tuple[str, Cyclic], ...]
    prufer: tuple[tuple[str, Prufer], ...]
    tf: tuple[tuple[str, TorsionFree], ...]
    cyclic_at: dict[int, tuple[tuple[str, Cyclic], ...]]
    primes: tuple[int, ...]
    free_omega_name: str | None


class GroupDesc:
    """An abelian group as an ordered list of uniquely named blocks.

    Instances are read-only.  Every view derived from the blocks (the
    block lookup, the per-kind items, the active primes and the
    invariants) is computed once per instance, on first use, and kept
    for its life.  Views come back as tuples, so no caller can change
    what the next call returns.
    """

    __slots__ = ("blocks", "_by_name", "_views", "_invariants")

    def __init__(self, blocks: Sequence[tuple[str, Block]] | Mapping[str, Block]) -> None:
        items = tuple(blocks.items()) if isinstance(blocks, Mapping) else tuple(blocks)
        by_name: dict[str, Block] = {}
        omega_free = 0
        for name, block in items:
            if not isinstance(name, str) or not name.isidentifier():
                raise UsageError(f"bad block name {name!r}")
            if name in by_name:
                raise UsageError(f"duplicate block name {name!r}")
            if not isinstance(block, (Cyclic, Prufer, TorsionFree)):
                raise UsageError(f"{name} is not a block")
            by_name[name] = block
            if isinstance(block, TorsionFree) and block.rank is OMEGA:
                omega_free += 1
        if omega_free > 1:
            raise UsageError("at most one infinite-rank free block is supported")
        init = object.__setattr__
        init(self, "blocks", items)
        init(self, "_by_name", by_name)
        init(self, "_views", None)
        init(self, "_invariants", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GroupDesc is read-only: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GroupDesc is read-only: cannot delete {name!r}")

    def __reduce__(self):
        # copies and pickles rebuild the instance; the derived views are not carried
        return GroupDesc, (self.blocks,)

    def _derived(self) -> _Views:
        views = self._views
        if views is None:
            cyclic = tuple((n, b) for n, b in self.blocks if isinstance(b, Cyclic))
            tf = tuple((n, b) for n, b in self.blocks if isinstance(b, TorsionFree))
            at: dict[int, tuple[tuple[str, Cyclic], ...]] = {}
            for n, b in cyclic:
                at[b.prime] = at.get(b.prime, ()) + ((n, b),)
            primes: set[int] = set()
            for _, b in self.blocks:
                if isinstance(b, TorsionFree):
                    primes.update(b.primes)
                else:
                    primes.add(b.prime)
            views = _Views(
                cyclic=cyclic,
                prufer=tuple((n, b) for n, b in self.blocks if isinstance(b, Prufer)),
                tf=tf,
                cyclic_at=at,
                primes=tuple(sorted(primes)),
                free_omega_name=next((n for n, b in tf if b.rank is OMEGA), None),
            )
            object.__setattr__(self, "_views", views)
        return views

    # -- lookups ----------------------------------------------------------

    def block(self, name: str) -> Block:
        b = self._by_name.get(name)
        if b is None:
            raise UsageError(f"unknown block {name!r}")
        return b

    def has_block(self, name: str) -> bool:
        return name in self._by_name

    def cyclic_items(self) -> tuple[tuple[str, Cyclic], ...]:
        return self._derived().cyclic

    def prufer_items(self) -> tuple[tuple[str, Prufer], ...]:
        return self._derived().prufer

    def tf_items(self) -> tuple[tuple[str, TorsionFree], ...]:
        return self._derived().tf

    @property
    def free_omega_name(self) -> str | None:
        return self._derived().free_omega_name

    def tf_copies(self) -> list[tuple[str, int]]:
        """Finite-rank torsion-free coordinates, in declaration order."""
        out = []
        for n, b in self.tf_items():
            if b.rank is not OMEGA:
                out.extend((n, i) for i in range(b.rank))
        return out

    def prufer_copies(self, p: int) -> tuple[list[tuple[str, int]], bool]:
        """Divisible p-coordinates and whether any p-block has OMEGA copies."""
        copies: list[tuple[str, int]] = []
        has_omega = False
        for n, b in self.prufer_items():
            if b.prime != p:
                continue
            if b.copies is OMEGA:
                has_omega = True
            else:
                copies.extend((n, i) for i in range(b.copies))
        return copies, has_omega

    def cyclic_at(self, p: int) -> tuple[tuple[str, Cyclic], ...]:
        return self._derived().cyclic_at.get(p, ())

    def pi_of(self, name: str) -> frozenset[int]:
        b = self.block(name)
        if not isinstance(b, TorsionFree):
            raise UsageError(f"{name} is not torsion-free")
        return b.primes

    # -- global shape ------------------------------------------------------

    @property
    def is_periodic(self) -> bool:
        return not self.tf_items()

    @property
    def is_finite(self) -> bool:
        return all(isinstance(b, Cyclic) and is_finite(b.mult)
                   for _, b in self.blocks)

    @property
    def torsion_free_rank(self) -> Nat:
        if self.free_omega_name is not None:
            return OMEGA
        return sum(b.rank for _, b in self.tf_items())

    def active_primes(self) -> tuple[int, ...]:
        return self._derived().primes

    def order(self) -> Nat:
        if not self.is_finite:
            return INF
        n = 1
        for _, b in self.blocks:
            n *= b.prime ** (b.exp * b.mult)
        return n

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GroupDesc):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        return "GroupDesc(%s)" % ", ".join(f"{n}={b}" for n, b in self.blocks)


# ---------------------------------------------------------------------------
# elements

Coord = tuple[str, int]


def _strip(n: int, primes: Iterable[int]) -> int:
    """n with every factor from primes divided out."""
    for q in primes:
        while n % q == 0:
            n //= q
    return n


def _canon_coeff(block: Block, val: int | Fraction) -> int | Fraction:
    if isinstance(block, Cyclic):
        if isinstance(val, Fraction):
            if val.denominator != 1:
                raise UsageError("cyclic coordinates take integer values")
            val = val.numerator
        return val % block.prime ** block.exp
    if isinstance(block, Prufer):
        v = Fraction(val) % 1
        if v and _strip(v.denominator, (block.prime,)) != 1:
            raise UsageError(
                f"divisible {block.prime}-coordinates take values a/{block.prime}^j")
        return v
    v = Fraction(val)
    if _strip(v.denominator, block.primes) != 1:
        raise UsageError(f"denominator of {v} escapes the block's prime set")
    return v


class Element:
    """A finitely supported coordinate vector in a described group.

    Cyclic coordinates hold canonical residues, divisible coordinates
    hold fractions a/p^j taken modulo 1, torsion-free coordinates hold
    rationals with denominators inside the block's prime set.
    """

    __slots__ = ("group", "coeffs", "_hash")

    def __init__(self, group: GroupDesc, coeffs: Mapping[Coord, int | Fraction]) -> None:
        self.group = group
        canon: dict[Coord, int | Fraction] = {}
        for (bname, idx) in sorted(coeffs):
            block = group.block(bname)
            size = (block.mult if isinstance(block, Cyclic)
                    else block.copies if isinstance(block, Prufer)
                    else block.rank)
            if not isinstance(idx, int) or idx < 0 or (is_finite(size) and idx >= size):
                raise UsageError(f"coordinate {bname}.{idx} is out of range")
            v = _canon_coeff(block, coeffs[(bname, idx)])
            if v:
                canon[(bname, idx)] = v
        self.coeffs = canon
        self._hash: int | None = None  # filled by the first __hash__

    @classmethod
    def zero(cls, group: GroupDesc) -> "Element":
        return cls(group, {})

    @classmethod
    def unit(cls, group: GroupDesc, name: str, idx: int = 0,
             value: int | Fraction = 1) -> "Element":
        return cls(group, {(name, idx): value})

    def support(self) -> tuple[Coord, ...]:
        return tuple(self.coeffs)

    def get(self, coord: Coord) -> int | Fraction:
        block = self.group.block(coord[0])
        zero = 0 if isinstance(block, Cyclic) else Fraction(0)
        return self.coeffs.get(coord, zero)

    def _check(self, other: "Element") -> None:
        if self.group != other.group:
            raise UsageError("elements live in different groups")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        merged: dict[Coord, int | Fraction] = dict(self.coeffs)
        for c, v in other.coeffs.items():
            merged[c] = merged.get(c, 0) + v
        return Element(self.group, merged)

    def __neg__(self) -> "Element":
        return Element(self.group, {c: -v for c, v in self.coeffs.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, n: int) -> "Element":
        if not isinstance(n, int):
            raise UsageError("elements scale by integers")
        return Element(self.group, {c: n * v for c, v in self.coeffs.items()})

    def order(self) -> Nat:
        out = 1
        for (bname, _), v in self.coeffs.items():
            block = self.group.block(bname)
            if isinstance(block, Cyclic):
                m = block.prime ** block.exp
                o = m // math.gcd(v, m)
            elif isinstance(block, Prufer):
                o = v.denominator
            else:
                return INF
            out = out * o // math.gcd(out, o)
        return out

    @property
    def is_torsion(self) -> bool:
        return is_finite(self.order())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.group == other.group and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # coeffs is never written after __init__, so the hash is kept
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.coeffs.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{b}.{i}:{v}" for (b, i), v in sorted(self.coeffs.items()))


# ---------------------------------------------------------------------------
# prime selectors and invariants

@dataclass(frozen=True)
class PrimeSelector:
    """Membership test over all primes: a default plus finite exceptions.

    A prime belongs to the selected set iff membership differs from
    ``default`` exactly on the ``exceptions``.  Canonical form keeps only
    genuine exceptions, so equality of selectors is structural.
    """

    default: bool
    exceptions: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "exceptions", frozenset(self.exceptions))

    @classmethod
    def finite(cls, primes: Iterable[int]) -> "PrimeSelector":
        return cls(False, frozenset(primes))

    @classmethod
    def cofinite(cls, primes: Iterable[int]) -> "PrimeSelector":
        return cls(True, frozenset(primes))

    def __contains__(self, p: int) -> bool:
        return self.default ^ (p in self.exceptions)

    def listed(self) -> tuple[int, ...]:
        return tuple(sorted(self.exceptions))


@dataclass(frozen=True)
class PrimeProfile:
    """Everything the decision rules need to know about one prime."""

    prime: int
    max_exp: int          # largest k among cyclic p-blocks
    omega_exp: int        # largest k among OMEGA-multiplicity cyclic p-blocks
    prufer_rank: Nat      # total divisible p-rank
    tf_rank: Nat          # total rank of p-divisible torsion-free blocks
    bound: Nat            # exponent bound of the p-part of A/(finite stuff)
    essential_bound: Nat  # same bound ignoring finite-multiplicity blocks
    reduced_bound: int    # exponent bound of A_p modulo its divisible part
    critical: bool

    @property
    def divisible_rank(self) -> Nat:
        if self.prufer_rank is OMEGA or self.tf_rank is OMEGA:
            return OMEGA
        return self.prufer_rank + self.tf_rank


@dataclass(frozen=True)
class Invariants:
    torsion_free_rank: Nat
    profiles: tuple[PrimeProfile, ...]
    finite_primes: PrimeSelector    # A_p finite and A/A_p p-divisible
    bounded_primes: PrimeSelector   # A_p bounded and A/A_p p-divisible
    critical_primes: frozenset[int]

    def profile(self, p: int) -> PrimeProfile:
        for prof in self.profiles:
            if prof.prime == p:
                return prof
        # a prime with no blocks: everything trivial
        return PrimeProfile(p, 0, 0, 0, 0, 0, 0, 0, False)


def invariants(group: GroupDesc) -> Invariants:
    """The per-prime profile table and the three prime selectors.

    They are computed on the first call for a group and kept in it, so
    every later call returns the same frozen record.
    """
    inv = group._invariants
    if inv is None:
        inv = _invariants(group)
        object.__setattr__(group, "_invariants", inv)
    return inv


def _invariants(group: GroupDesc) -> Invariants:
    profiles = []
    critical = set()
    for p in group.active_primes():
        max_exp = 0
        omega_exp = 0
        for _, b in group.cyclic_at(p):
            max_exp = max(max_exp, b.exp)
            if b.mult is OMEGA:
                omega_exp = max(omega_exp, b.exp)
        prufer: Nat = 0
        for _, b in group.prufer_items():
            if b.prime == p:
                prufer = OMEGA if (b.copies is OMEGA or prufer is OMEGA) \
                    else prufer + b.copies
        tf_rank: Nat = 0
        for _, b in group.tf_items():
            if p in b.primes:
                tf_rank = OMEGA if (b.rank is OMEGA or tf_rank is OMEGA) \
                    else tf_rank + b.rank
        divisible = (prufer is OMEGA or tf_rank is OMEGA
                     or prufer + tf_rank >= 1)
        prof = PrimeProfile(
            prime=p,
            max_exp=max_exp,
            omega_exp=omega_exp,
            prufer_rank=prufer,
            tf_rank=tf_rank,
            bound=INF if divisible else max_exp,
            essential_bound=INF if divisible else omega_exp,
            reduced_bound=max_exp,
            critical=bool(omega_exp and divisible and is_finite(prufer)),
        )
        profiles.append(prof)
        if prof.critical:
            critical.add(p)

    by_prime = {prof.prime: prof for prof in profiles}
    if group.is_periodic:
        infinite_p = {p for p, prof in by_prime.items()
                      if prof.prufer_rank != 0 or prof.omega_exp > 0}
        unbounded_p = {p for p, prof in by_prime.items() if prof.prufer_rank != 0}
        finite_sel = PrimeSelector.cofinite(infinite_p)
        bounded_sel = PrimeSelector.cofinite(unbounded_p)
    else:
        tf_blocks = [b for _, b in group.tf_items()]
        everywhere = frozenset.intersection(*[b.primes for b in tf_blocks])
        bounded = {p for p in everywhere
                   if by_prime.get(p) is None or by_prime[p].prufer_rank == 0}
        finite = {p for p in bounded
                  if by_prime.get(p) is None or by_prime[p].omega_exp == 0}
        finite_sel = PrimeSelector.finite(finite)
        bounded_sel = PrimeSelector.finite(bounded)

    return Invariants(
        torsion_free_rank=group.torsion_free_rank,
        profiles=tuple(profiles),
        finite_primes=finite_sel,
        bounded_primes=bounded_sel,
        critical_primes=frozenset(critical),
    )


def nm_type(group: GroupDesc) -> dict[int, int]:
    """Orders p^{c_p} of the canonical bridge summands, one per critical prime."""
    inv = invariants(group)
    return {p: inv.profile(p).reduced_bound for p in sorted(inv.critical_primes)}


# ---------------------------------------------------------------------------
# the divisible-quotient descriptor and its classes

def h_descriptor(group: GroupDesc) -> dict[int, tuple[Nat, Nat]]:
    """Per-prime (bound, essential bound) of the quotient by finite parts.

    Only defined for groups of finite torsion-free rank; primes whose
    bound is zero carry no information and are omitted, so the result is
    a finite exact description.
    """
    if group.torsion_free_rank is OMEGA:
        raise UsageError("descriptor needs finite torsion-free rank")
    inv = invariants(group)
    out = {}
    for prof in inv.profiles:
        if prof.bound == 0:
            continue
        out[prof.prime] = (prof.bound, prof.essential_bound)
    return out


@dataclass(frozen=True)
class HElement:
    """A representable class of the per-prime scalar ring modulo small scalars.

    ``descriptor`` fixes the ambient group's shape; ``value`` holds one
    p-integral representative per descriptor prime (default elsewhere).
    """

    descriptor: tuple[tuple[int, Nat, Nat], ...]
    value: JElement

    @classmethod
    def make(cls, descriptor: Mapping[int, tuple[Nat, Nat]], value: JElement) -> "HElement":
        canon = tuple((p, b, e) for p, (b, e) in sorted(descriptor.items()))
        return cls(canon, value)


def h_zero(descriptor: Mapping[int, tuple[Nat, Nat]]) -> HElement:
    return HElement.make(descriptor, JElement(0))


def _congruent(a: Fraction, b: Fraction, p: int, k: Nat) -> bool:
    if k is INF:
        return a == b
    return frac_valuation(a - b, p) >= k


def h_equal(x: HElement, y: HElement) -> bool:
    """Equality in the quotient: agreement modulo p^bound at almost every
    prime, with any stragglers still agreeing modulo p^essential."""
    if x.descriptor != y.descriptor:
        raise UsageError("classes live over different descriptors")
    for p, bound, essential in x.descriptor:
        a, b = x.value.at(p), y.value.at(p)
        if _congruent(a, b, p, bound):
            continue
        if not _congruent(a, b, p, essential):
            return False
    # the descriptor is finite, so "agreement at almost every prime" is
    # already certified by the loop
    return True


def h_add(x: HElement, y: HElement) -> HElement:
    if x.descriptor != y.descriptor:
        raise UsageError("classes live over different descriptors")
    return HElement(x.descriptor, x.value + y.value)


def h_mul(x: HElement, y: HElement) -> HElement:
    if x.descriptor != y.descriptor:
        raise UsageError("classes live over different descriptors")
    return HElement(x.descriptor, x.value * y.value)


# ---------------------------------------------------------------------------
# truncation to finite shadows

@dataclass(frozen=True)
class Truncation:
    """A finite shadow of a group at a fixed level.

    OMEGA multiplicities shrink to ``level`` copies, divisible blocks
    become Z/p^level towers, and torsion-free blocks are dropped.
    ``embed`` maps shadow elements back into the source group.
    """

    source: GroupDesc
    group: GroupDesc
    level: int

    def embed(self, x: Element) -> Element:
        if x.group != self.group:
            raise UsageError("element does not live in the shadow group")
        coeffs: dict[Coord, int | Fraction] = {}
        for (bname, idx), v in x.coeffs.items():
            src = self.source.block(bname)
            if isinstance(src, Prufer):
                coeffs[(bname, idx)] = Fraction(v, src.prime ** self.level)
            else:
                coeffs[(bname, idx)] = v
        return Element(self.source, coeffs)


def truncate(group: GroupDesc, level: int) -> Truncation:
    """Finite shadow at the given level; see Truncation for the block map."""
    if not isinstance(level, int) or level < 1:
        raise UsageError("truncation level must be a positive integer")
    blocks: list[tuple[str, Block]] = []
    for name, b in group.blocks:
        if isinstance(b, Cyclic):
            mult = level if b.mult is OMEGA else b.mult
            blocks.append((name, Cyclic(b.prime, b.exp, mult)))
        elif isinstance(b, Prufer):
            copies = level if b.copies is OMEGA else b.copies
            blocks.append((name, Cyclic(b.prime, level, copies)))
    return Truncation(source=group, group=GroupDesc(blocks), level=level)
