"""Endomorphisms of described groups, in a closed normal form.

An endomorphism is stored as five interacting parts:

* ``tf``: a rational matrix over the finite-rank torsion-free copies
  (entry source -> target needs the source's prime set inside the
  target's, and its denominator supported on the target's set), plus a
  single integer scalar on the infinite-rank free block when present;
* ``div``: per prime, the action on the divisible p-coordinates, a
  p-integral scalar (mandatory when there are infinitely many copies)
  or a p-integral matrix;
* ``cyc``: per cyclic block, a residue scalar, or a residue matrix when
  the block has finite multiplicity;
* ``tau``: finitely many twisted projections q -> fractional p-part of
  (scale * q) from a torsion-free copy into a divisible p-coordinate;
* ``fin``: finitely many finite-image corrections, each sending one
  cyclic coordinate (by its residue) or one torsion-free coordinate
  (by its residue modulo a modulus coprime to the source primes) to a
  fixed torsion element.

The constructor canonicalizes: zero entries vanish, scalar-shaped
matrices collapse to scalars, in-block corrections on finite cyclic
blocks are absorbed into the block matrix, and torsion-free correction
moduli shrink to the image order.  Equality of canonical forms is
therefore structural equality, and the sum and composite of normal
forms are again normal forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .exactnum import (
    OMEGA, JElement, Residue, UsageError, crt_lift, crt_solve,
    frac_residue, inv_mod, is_finite, prime_divisors,
)
from .groupkit import (
    Coord, Cyclic, Element, GroupDesc, Invariants, Prufer, TorsionFree,
    invariants,
)

__all__ = [
    "Endo", "validate", "apply", "add", "negate", "sub", "compose", "equal",
    "is_finitary", "is_multiplication", "EndoClass", "classify", "fm_split",
    "close", "zero_endo", "identity_endo", "multiplication_endo",
    "semi_multiplication", "mini_endo", "semi_endo",
]

FinKey = tuple  # ("c", block, index) or ("t", (block, index), modulus)


# ---------------------------------------------------------------------------
# coordinate actions

def _prufer_scale(scale: Fraction, v: Fraction, p: int) -> Fraction:
    """Act by a p-integral scalar on a divisible coordinate a/p^j mod 1."""
    if not v:
        return Fraction(0)
    j = v.denominator  # a p-power by canonicality
    num = scale.numerator * v.numerator
    den = scale.denominator
    return Fraction(num * inv_mod(den % j, j) % j, j)


def _tau_part(scale: Fraction, q: Fraction, p: int) -> Fraction:
    """Fractional p-part of scale * q, as a/p^j mod 1."""
    t = scale * q
    den = t.denominator
    j = 0
    while den % p == 0:
        den //= p
        j += 1
    if j == 0:
        return Fraction(0)
    pj = p ** j
    return Fraction(t.numerator * inv_mod(den % pj, pj) % pj, pj)


def _residue_coeff(q: Fraction, w: int) -> int:
    """q reduced modulo w; the denominator must be invertible mod w."""
    if w == 1:
        return 0
    if math.gcd(q.denominator, w) != 1:
        raise UsageError(f"{q} has no residue modulo {w}")
    return q.numerator * inv_mod(q.denominator % w, w) % w


def _copy_str(c: Coord) -> str:
    return f"{c[0]}.{c[1]}"


# ---------------------------------------------------------------------------
# the normal form

class Endo:
    """An endomorphism in canonical normal form.  See the module docstring.

    Construction accepts light sugar: ``tf`` may be a single rational
    (the scalar acting on every finite torsion-free copy), ``div`` a
    single rational (the scalar at every divisible prime), ``fin`` a
    mapping or iterable of (key, element-or-coefficient-map) pairs.
    Structurally impossible input (unknown blocks, out-of-range copies)
    raises immediately; semantic defects (escaping denominators, order
    clashes) are left for validate() to report.
    """

    __slots__ = ("group", "tf", "free_scalar", "div", "cyc", "tau", "fin")

    def __init__(self, group: GroupDesc, tf=None, free_scalar: int = 0,
                 div=None, cyc=None, tau=None, fin=None) -> None:
        self.group = group
        self.tf = self._norm_tf(tf)
        if not isinstance(free_scalar, int):
            raise UsageError("the free-block scalar must be an integer")
        if free_scalar and group.free_omega_name is None:
            raise UsageError("no infinite-rank free block to act on")
        self.free_scalar = free_scalar
        self.div = self._norm_div(div)
        self.cyc = self._norm_cyc(cyc)
        self.tau = self._norm_tau(tau)
        self._norm_fin(fin)

    # -- normalization ------------------------------------------------------

    def _tf_copy(self, c: Coord) -> Coord:
        name, idx = c
        b = self.group.block(name)
        if not isinstance(b, TorsionFree) or b.rank is OMEGA:
            raise UsageError(f"{_copy_str(c)} is not a finite torsion-free copy")
        if not isinstance(idx, int) or not 0 <= idx < b.rank:
            raise UsageError(f"{_copy_str(c)} is out of range")
        return (name, idx)

    def _prufer_copy(self, c: Coord) -> Coord:
        name, idx = c
        b = self.group.block(name)
        if not isinstance(b, Prufer):
            raise UsageError(f"{_copy_str(c)} is not a divisible coordinate")
        if not isinstance(idx, int) or idx < 0 or \
                (is_finite(b.copies) and idx >= b.copies):
            raise UsageError(f"{_copy_str(c)} is out of range")
        return (name, idx)

    def _norm_tf(self, tf) -> dict[tuple[Coord, Coord], Fraction]:
        out: dict[tuple[Coord, Coord], Fraction] = {}
        if tf is None:
            return out
        if isinstance(tf, (int, Fraction)):
            q = Fraction(tf)
            if q:
                for c in self.group.tf_copies():
                    out[(c, c)] = q
            return out
        for (s, d), v in tf.items():
            v = Fraction(v)
            if v:
                out[(self._tf_copy(s), self._tf_copy(d))] = v
        return out

    def _norm_div(self, div) -> dict[int, Fraction | dict]:
        out: dict[int, Fraction | dict] = {}
        if div is None:
            return out
        if isinstance(div, (int, Fraction)):
            div = {b.prime: div for _, b in self.group.prufer_items()}
        for p, val in div.items():
            if isinstance(val, (int, Fraction)):
                q = Fraction(val)
                if q:
                    out[p] = q
                continue
            mat = {}
            for (s, d), v in val.items():
                v = Fraction(v)
                if v:
                    mat[(self._prufer_copy(s), self._prufer_copy(d))] = v
            folded = self._fold_div(p, mat)
            if folded is not None:
                out[p] = folded
        return out

    def _fold_div(self, p: int, mat: dict) -> Fraction | dict | None:
        copies, has_omega = self.group.prufer_copies(p)
        if has_omega or not copies:
            return mat or None  # matrix form here is a validation defect
        diag = {mat.get((c, c), Fraction(0)) for c in copies}
        off = any(v for (s, d), v in mat.items() if s != d)
        if not off and len(diag) == 1:
            q = diag.pop()
            return q or None
        return mat or None

    def _norm_cyc(self, cyc) -> dict[str, int | dict]:
        out: dict[str, int | dict] = {}
        if cyc is None:
            return out
        for name, val in cyc.items():
            b = self.group.block(name)
            if not isinstance(b, Cyclic):
                raise UsageError(f"{name} is not a cyclic block")
            m = b.prime ** b.exp
            if isinstance(val, int):
                out[name] = val % m
            else:
                mat = {}
                for (i, j), v in val.items():
                    for idx in (i, j):
                        if not isinstance(idx, int) or idx < 0 or \
                                (is_finite(b.mult) and idx >= b.mult):
                            raise UsageError(f"{name}.{idx} is out of range")
                    v = v % m
                    if v:
                        mat[(i, j)] = v
                out[name] = mat
            folded = self._fold_cyc(b, out[name])
            if folded is None:
                del out[name]
            else:
                out[name] = folded
        return out

    @staticmethod
    def _fold_cyc(b: Cyclic, val: int | dict) -> int | dict | None:
        if isinstance(val, int):
            return val or None
        if b.mult is OMEGA:
            return val or None  # matrix form here is a validation defect
        diag = {val.get((i, i), 0) for i in range(b.mult)}
        off = any(v for (i, j), v in val.items() if i != j)
        if not off and len(diag) == 1:
            return diag.pop() or None
        return val or None

    def _norm_tau(self, tau) -> dict[tuple[Coord, Coord], Fraction]:
        out: dict[tuple[Coord, Coord], Fraction] = {}
        if tau is None:
            return out
        for (s, d), v in tau.items():
            v = Fraction(v)
            if v:
                out[(self._tf_copy(s), self._prufer_copy(d))] = v
        return out

    def _fin_source_copy(self, c: Coord) -> Coord:
        name, idx = c
        b = self.group.block(name)
        if not isinstance(b, TorsionFree):
            raise UsageError(f"{_copy_str(c)} is not a torsion-free copy")
        if not isinstance(idx, int) or idx < 0 or \
                (is_finite(b.rank) and idx >= b.rank):
            raise UsageError(f"{_copy_str(c)} is out of range")
        return (name, idx)

    def _norm_fin(self, fin) -> None:
        pairs: Iterable = []
        if isinstance(fin, Mapping):
            pairs = fin.items()
        elif fin is not None:
            pairs = fin
        by_cyc: dict[Coord, Element] = {}
        by_tf: dict[Coord, tuple[Element, int | None]] = {}
        for key, img in pairs:
            if not isinstance(img, Element):
                img = Element(self.group, img)
            elif img.group != self.group:
                raise UsageError("correction image lives in another group")
            if key[0] == "c":
                _, name, idx = key
                b = self.group.block(name)
                if not isinstance(b, Cyclic):
                    raise UsageError(f"{name} is not a cyclic block")
                if not isinstance(idx, int) or idx < 0 or \
                        (is_finite(b.mult) and idx >= b.mult):
                    raise UsageError(f"{name}.{idx} is out of range")
                c = (name, idx)
                by_cyc[c] = by_cyc[c] + img if c in by_cyc else img
            elif key[0] == "t":
                c = self._fin_source_copy(key[1])
                w = key[2] if len(key) > 2 else None
                if w is not None and (not isinstance(w, int) or w < 1):
                    raise UsageError("correction modulus must be a positive integer")
                if c in by_tf:
                    old, oldw = by_tf[c]
                    if w is not None and oldw is not None:
                        w = oldw * w // math.gcd(oldw, w)
                    elif w is None:
                        w = oldw
                    by_tf[c] = (old + img, w)
                else:
                    by_tf[c] = (img, w)
            else:
                raise UsageError(f"unknown correction key {key!r}")

        # absorb in-block corrections on finite cyclic blocks into the matrix
        out: dict[FinKey, Element] = {}
        cyc_extra: dict[str, dict[tuple[int, int], int]] = {}
        for (name, idx), img in sorted(by_cyc.items()):
            b = self.group.block(name)
            if isinstance(b.mult, int):
                keep: dict[Coord, int | Fraction] = {}
                for coord, v in img.coeffs.items():
                    if coord[0] == name:
                        cyc_extra.setdefault(name, {})[(idx, coord[1])] = v
                    else:
                        keep[coord] = v
                img = Element(self.group, keep)
            if img:
                out[("c", name, idx)] = img
        for copy, (img, w) in sorted(by_tf.items()):
            if not img:
                continue
            order = img.order()
            if is_finite(order) and (w is None or w % order == 0):
                w = order  # canonical modulus
            out[("t", copy, 1 if w is None else w)] = img
        self.fin = out

        if cyc_extra:
            merged = dict(self.cyc)
            for name, entries in cyc_extra.items():
                b = self.group.block(name)
                m = b.prime ** b.exp
                cur = merged.get(name, 0)
                if isinstance(cur, int):
                    cur = {(i, i): cur for i in range(b.mult)} if cur else {}
                else:
                    cur = dict(cur)
                for (i, j), v in entries.items():
                    cur[(i, j)] = (cur.get((i, j), 0) + v) % m
                cur = {k: v for k, v in cur.items() if v}
                folded = self._fold_cyc(b, cur)
                if folded is None:
                    merged.pop(name, None)
                else:
                    merged[name] = folded
            self.cyc = merged

    # -- equality -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Endo):
            return NotImplemented
        return (self.group == other.group and self.tf == other.tf
                and self.free_scalar == other.free_scalar
                and self.div == other.div and self.cyc == other.cyc
                and self.tau == other.tau and self.fin == other.fin)

    def __hash__(self) -> int:
        return hash((self.group, self.free_scalar, len(self.tf),
                     len(self.cyc), len(self.fin)))

    def __bool__(self) -> bool:
        return bool(self.tf or self.free_scalar or self.div or self.cyc
                    or self.tau or self.fin)

    def __repr__(self) -> str:
        parts = []
        if self.tf or self.free_scalar:
            parts.append(f"tf={self.tf or self.free_scalar}")
        for label in ("div", "cyc", "tau", "fin"):
            val = getattr(self, label)
            if val:
                parts.append(f"{label}={val}")
        return "Endo(%s)" % ", ".join(parts) if parts else "Endo(0)"

    def __add__(self, other: "Endo") -> "Endo":
        return add(self, other)

    def __sub__(self, other: "Endo") -> "Endo":
        return sub(self, other)

    def __neg__(self) -> "Endo":
        return negate(self)


# ---------------------------------------------------------------------------
# validation

def validate(phi: Endo) -> list[str]:
    """All semantic defects of a constructed endomorphism, as messages.

    An empty list certifies the normal form really defines a group
    endomorphism.  Never raises.
    """
    g = phi.group
    bad: list[str] = []
    for (s, d), v in sorted(phi.tf.items()):
        ps, pd = g.pi_of(s[0]), g.pi_of(d[0])
        if not ps <= pd:
            bad.append(f"tf {_copy_str(s)}->{_copy_str(d)}: source primes escape the target")
        if not prime_divisors(v.denominator) <= pd:
            bad.append(f"tf {_copy_str(s)}->{_copy_str(d)}: denominator {v.denominator} escapes the target primes")
    for p, val in sorted(phi.div.items()):
        copies, has_omega = g.prufer_copies(p)
        if not copies and not has_omega:
            bad.append(f"div {p}: no divisible part at this prime")
            continue
        if isinstance(val, Fraction):
            if val.denominator % p == 0:
                bad.append(f"div {p}: scalar is not {p}-integral")
        else:
            if has_omega:
                bad.append(f"div {p}: matrix form needs finitely many copies")
            for (s, d), v in sorted(val.items()):
                if v.denominator % p == 0:
                    bad.append(f"div {p} {_copy_str(s)}->{_copy_str(d)}: entry is not {p}-integral")
    for name, val in sorted(phi.cyc.items()):
        b = g.block(name)
        if isinstance(val, dict) and b.mult is OMEGA:
            bad.append(f"cyc {name}: matrix form needs finite multiplicity")
    for (s, d), _ in sorted(phi.tau.items()):
        p = g.block(d[0]).prime
        if p not in g.pi_of(s[0]):
            bad.append(f"tau {_copy_str(s)}->{_copy_str(d)}: {p} is not in the source prime set")
    for key in sorted(phi.fin, key=repr):
        img = phi.fin[key]
        order = img.order()
        if key[0] == "c":
            _, name, idx = key
            b = g.block(name)
            if not is_finite(order):
                bad.append(f"fin {name}.{idx}: image has infinite order")
            elif b.prime ** b.exp % order != 0:
                bad.append(f"fin {name}.{idx}: image order exceeds the source order")
        else:
            _, copy, w = key
            if not is_finite(order):
                bad.append(f"fin {_copy_str(copy)} mod {w}: image has infinite order")
            elif w % order != 0:
                bad.append(f"fin {_copy_str(copy)} mod {w}: image order does not divide the modulus")
            if any(w % p == 0 for p in g.pi_of(copy[0])):
                bad.append(f"fin {_copy_str(copy)} mod {w}: modulus shares a prime with the source")
    return bad


# ---------------------------------------------------------------------------
# evaluation

def apply(phi: Endo, x: Element) -> Element:
    """Evaluate the endomorphism at an element."""
    if x.group != phi.group:
        raise UsageError("element lives in another group")
    g = phi.group
    acc: dict[Coord, int | Fraction] = {}

    def put(coord: Coord, v) -> None:
        if v:
            acc[coord] = acc.get(coord, 0) + v

    free = g.free_omega_name
    for coord, v in x.coeffs.items():
        name = coord[0]
        b = g.block(name)
        if isinstance(b, TorsionFree):
            if name == free:
                put(coord, phi.free_scalar * v)
            # matrix action handled below over all tf entries
        elif isinstance(b, Cyclic):
            val = phi.cyc.get(name)
            if isinstance(val, int):
                put(coord, v * val)
            elif isinstance(val, dict):
                for (i, j), c in val.items():
                    if i == coord[1]:
                        put((name, j), v * c)
        else:  # Prufer
            val = phi.div.get(b.prime)
            if isinstance(val, Fraction):
                put(coord, _prufer_scale(val, v, b.prime))
            elif isinstance(val, dict):
                for (s, d), c in val.items():
                    if s == coord:
                        put(d, _prufer_scale(c, v, b.prime))
    for (s, d), c in phi.tf.items():
        v = x.coeffs.get(s)
        if v:
            put(d, c * v)
    for (s, d), u in phi.tau.items():
        v = x.coeffs.get(s)
        if v:
            put(d, _tau_part(u, v, g.block(d[0]).prime))
    for key, img in phi.fin.items():
        if key[0] == "c":
            v = x.coeffs.get((key[1], key[2]), 0)
        else:
            v = _residue_coeff(Fraction(x.coeffs.get(key[1], 0)), key[2])
        if v:
            for coord, w in img.scale(v).coeffs.items():
                put(coord, w)
    return Element(g, acc)


# ---------------------------------------------------------------------------
# ring structure

def _check_same_group(a: Endo, b: Endo) -> GroupDesc:
    if a.group != b.group:
        raise UsageError("endomorphisms act on different groups")
    return a.group


def _div_matrix(g: GroupDesc, p: int, val) -> dict:
    if isinstance(val, dict):
        return val
    copies, has_omega = g.prufer_copies(p)
    if has_omega:
        raise UsageError(f"div {p}: cannot expand a scalar over infinitely many copies")
    return {(c, c): val for c in copies}


def _cyc_matrix(b: Cyclic, val) -> dict:
    if isinstance(val, dict):
        return val
    return {(i, i): val for i in range(b.mult)}


def _msum(x: Mapping, y: Mapping) -> dict:
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + v
    return out


def _mprod(x: Mapping, y: Mapping) -> dict:
    """The product x y of sparse matrices in the row-vector convention."""
    out: dict = {}
    for (s, m1), v in x.items():
        for (m2, d), w in y.items():
            if m1 == m2:
                out[(s, d)] = out.get((s, d), 0) + v * w
    return out


def add(a: Endo, b: Endo) -> Endo:
    g = _check_same_group(a, b)
    div: dict[int, object] = {}
    for p in sorted(set(a.div) | set(b.div)):
        x, y = a.div.get(p, Fraction(0)), b.div.get(p, Fraction(0))
        if isinstance(x, Fraction) and isinstance(y, Fraction):
            div[p] = x + y
        else:
            div[p] = _msum(_div_matrix(g, p, x), _div_matrix(g, p, y))
    cyc: dict[str, object] = {}
    for name in sorted(set(a.cyc) | set(b.cyc)):
        blk = g.block(name)
        x, y = a.cyc.get(name, 0), b.cyc.get(name, 0)
        if isinstance(x, int) and isinstance(y, int):
            cyc[name] = x + y
        else:
            cyc[name] = _msum(_cyc_matrix(blk, x), _cyc_matrix(blk, y))
    fin = list(a.fin.items()) + list(b.fin.items())
    return Endo(g, tf=_msum(a.tf, b.tf), free_scalar=a.free_scalar + b.free_scalar,
                div=div, cyc=cyc, tau=_msum(a.tau, b.tau), fin=fin)


def negate(a: Endo) -> Endo:
    div = {p: -v if isinstance(v, Fraction) else
           {k: -x for k, x in v.items()} for p, v in a.div.items()}
    cyc = {n: -v if isinstance(v, int) else
           {k: -x for k, x in v.items()} for n, v in a.cyc.items()}
    return Endo(a.group,
                tf={k: -v for k, v in a.tf.items()},
                free_scalar=-a.free_scalar,
                div=div, cyc=cyc,
                tau={k: -v for k, v in a.tau.items()},
                fin=[(k, -img) for k, img in a.fin.items()])


def sub(a: Endo, b: Endo) -> Endo:
    return add(a, negate(b))


def compose(a: Endo, b: Endo) -> Endo:
    """The composite x -> a(b(x)), again in normal form."""
    g = _check_same_group(a, b)
    # linear parts: row-vector convention, so the matrix of a∘b is M_b M_a
    div: dict[int, object] = {}
    for p in sorted(set(a.div) & set(b.div)):
        x, y = a.div[p], b.div[p]
        if isinstance(x, Fraction) and isinstance(y, Fraction):
            div[p] = x * y
        else:
            div[p] = _mprod(_div_matrix(g, p, y), _div_matrix(g, p, x))
    cyc: dict[str, object] = {}
    for name in sorted(set(a.cyc) & set(b.cyc)):
        blk = g.block(name)
        x, y = a.cyc[name], b.cyc[name]
        if isinstance(x, int) and isinstance(y, int):
            cyc[name] = x * y
        else:
            cyc[name] = _mprod(_cyc_matrix(blk, y), _cyc_matrix(blk, x))
    # twisted projections: a.tau after b's torsion-free action, and
    # a's divisible action after b.tau
    tau = _mprod(b.tf, a.tau)
    for (s, d), u in b.tau.items():
        val = a.div.get(g.block(d[0]).prime, {})
        if isinstance(val, Fraction):
            val = {(d, d): val}
        tau = _msum(tau, _mprod({(s, d): u}, val))
    # corrections: push b's images through a, pull a's keys back through
    # b's linear action
    fin: list[tuple[FinKey, Element]] = []
    for key, img in b.fin.items():
        fin.append((key, apply(a, img)))
    free = g.free_omega_name
    for key, img in a.fin.items():
        if key[0] == "c":
            _, name, idx = key
            val = b.cyc.get(name)
            if isinstance(val, int):
                fin.append((key, img.scale(val)))
            elif isinstance(val, dict):
                for (i, j), c in val.items():
                    if j == idx:
                        fin.append((("c", name, i), img.scale(c)))
        else:
            _, copy, w = key
            if copy[0] == free:
                fin.append((key, img.scale(b.free_scalar % w)))
            else:
                for (s, d), c in b.tf.items():
                    if d == copy:
                        fin.append((("t", s, w), img.scale(_residue_coeff(c, w))))
    return Endo(g, tf=_mprod(b.tf, a.tf), free_scalar=a.free_scalar * b.free_scalar,
                div=div, cyc=cyc, tau=tau, fin=fin)


def equal(a: Endo, b: Endo) -> bool:
    return a == b


# ---------------------------------------------------------------------------
# predicates and receipts

def is_finitary(phi: Endo) -> bool:
    """True when the image is finite: no torsion-free or divisible or
    twisted action, and residue action only on finite-multiplicity blocks."""
    if phi.tf or phi.free_scalar or phi.div or phi.tau:
        return False
    for name in phi.cyc:
        if phi.group.block(name).mult is OMEGA:
            return False
    return True


def _tf_diagonal(tf: Mapping, copies: list[Coord]) -> Fraction | None | str:
    """The one diagonal value of a matrix on the finite torsion-free
    copies, None when there are no copies, or "nonscalar"."""
    if not copies:  # then tf is empty too
        return None
    if any(s != d for s, d in tf):
        return "nonscalar"
    vals = {tf.get((c, c), Fraction(0)) for c in copies}
    return vals.pop() if len(vals) == 1 else "nonscalar"


def _tf_scalar(phi: Endo) -> Fraction | None | str:
    """The scalar r with torsion-free part r*id, None if there is no
    torsion-free part at all, or "nonscalar"."""
    diag = _tf_diagonal(phi.tf, phi.group.tf_copies())
    if phi.group.free_omega_name is None or diag == "nonscalar":
        return diag
    m = Fraction(phi.free_scalar)
    return m if diag is None or diag == m else "nonscalar"


def _cyc_residue(phi: Endo, name: str) -> Residue | None:
    """The block's scalar as a residue; None when the block acts by a
    genuine matrix."""
    b = phi.group.block(name)
    val = phi.cyc.get(name, 0)
    if isinstance(val, dict):
        return None
    return Residue(val, b.prime, b.exp)


def _cyc_crt(phi: Endo, p: int, omega_only: bool) -> Residue | None | str:
    """Joint residue of the scalar actions across cyclic p-blocks.

    Returns None when there are no relevant blocks, the joint residue
    when consistent, or "conflict"."""
    congs = []
    for name, b in phi.group.cyclic_at(p):
        if omega_only and b.mult is not OMEGA:
            continue
        r = _cyc_residue(phi, name)
        if r is None:
            return "conflict"
        congs.append(r)
    if not congs:
        return None
    got = crt_solve(congs)
    return got if got is not None else "conflict"


def is_multiplication(phi: Endo) -> Fraction | JElement | None:
    """The scalar when phi multiplies by one (rational or componentwise)
    value exactly everywhere, else None."""
    if phi.tau or phi.fin:
        return None
    g = phi.group
    inv = invariants(g)
    if g.is_periodic:
        scalars = _periodic_scalars(phi, inv, omega_only=False)
        return None if scalars is None else JElement(0, scalars)
    r = _tf_scalar(phi)
    if r == "nonscalar" or r is None:
        return None
    for p in prime_divisors(r.denominator):
        prof = inv.profile(p)
        if prof.max_exp or prof.prufer_rank != 0:
            return None  # p-torsion blocks the division
        if any(p not in b.primes for _, b in g.tf_items()):
            return None  # some free direction is not p-divisible
    for _, b in g.prufer_items():
        if phi.div.get(b.prime, Fraction(0)) != r:
            return None
    for name, b in g.cyclic_items():
        joint = _cyc_residue(phi, name)
        if joint is None or frac_residue(r, b.prime, b.exp) != joint:
            return None
    return r


@dataclass(frozen=True)
class EndoClass:
    """Shape receipts for one endomorphism (None = not of that shape)."""

    finitary: bool
    multiplication: Fraction | JElement | None
    quasi: tuple | None   # (integer on pi-part, pi, rational elsewhere)
    semi: tuple | None    # (integer on pi-part, pi, multiplication elsewhere)
    mini: tuple | None    # (integer on pi-part, pi; zero elsewhere)
    fm: tuple | None      # (finitary part, quasi-multiplication part)


def _extract_mini(phi: Endo) -> tuple | None:
    if phi.tf or phi.free_scalar or phi.div or phi.tau or phi.fin:
        return None
    g = phi.group
    inv = invariants(g)
    pi = set()
    residues = []
    for p in g.active_primes():
        joint = _cyc_crt(phi, p, omega_only=False)
        if joint == "conflict":
            return None
        if joint is None or joint.value == 0:
            continue
        if inv.profile(p).prufer_rank is OMEGA:
            return None  # the complement's divisible p-part must have finite rank
        pi.add(p)
        residues.append(joint)
    n = crt_lift(residues) if residues else 0
    return (n, frozenset(pi))


def _multiplication_shape(phi: Endo, inv: Invariants, p: int,
                          q: Fraction | None,
                          omega_only: bool) -> Fraction | None | str:
    """The exact scalar phi uses at prime p, "mismatch" when the p-blocks
    cannot be covered by one scalar (forced q when given); omega_only
    restricts the cyclic blocks consulted to those of multiplicity OMEGA."""
    alpha: Fraction | None = q
    if inv.profile(p).prufer_rank != 0:
        val = phi.div.get(p, Fraction(0))
        if not isinstance(val, Fraction):
            return "mismatch"
        if alpha is None:
            alpha = val
        elif val != alpha:
            return "mismatch"
    joint = _cyc_crt(phi, p, omega_only)
    if joint == "conflict":
        return "mismatch"
    if joint is not None:
        if alpha is None:
            alpha = Fraction(joint.value)
        elif alpha.denominator % p == 0 or \
                frac_residue(alpha, p, joint.exp) != joint:
            return "mismatch"
    return alpha


def _periodic_scalars(phi: Endo, inv: Invariants,
                      omega_only: bool) -> dict[int, Fraction] | None:
    """The scalar at each active prime of a periodic group, or None when
    some prime has no single one."""
    scalars: dict[int, Fraction] = {}
    for p in phi.group.active_primes():
        alpha = _multiplication_shape(phi, inv, p, None, omega_only)
        if alpha == "mismatch":
            return None
        if alpha:
            scalars[p] = alpha
    return scalars


def _extract_semi(phi: Endo, need_finite: bool) -> tuple | None:
    """Receipt for the shape (integer on a finite prime part) + (one
    multiplication elsewhere); need_finite additionally confines the
    prime part to finite p-components and the multiplication's
    denominator to the prime part."""
    if phi.tau or phi.fin:
        return None
    g = phi.group
    inv = invariants(g)
    allowed = inv.finite_primes if need_finite else inv.bounded_primes
    if g.is_periodic:
        mult = is_multiplication(phi)
        return None if mult is None else (0, frozenset(), mult)
    q = _tf_scalar(phi)
    if q == "nonscalar" or q is None:
        return None
    pi = set(prime_divisors(q.denominator))
    residues = []
    for p in g.active_primes():
        if p not in pi and _multiplication_shape(phi, inv, p, q,
                                                   omega_only=False) == q:
            continue
        # the prime must go to the integer part
        if p not in allowed:
            return None
        joint = _cyc_crt(phi, p, omega_only=False)
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


def fm_split(phi: Endo) -> tuple[Endo, Endo] | None:
    """Split into (finitary part, quasi-multiplication part), when the
    action away from finite-multiplicity blocks is one multiplication."""
    if phi.tau:
        return None
    g = phi.group
    inv = invariants(g)
    if g.is_periodic:
        scalars = _periodic_scalars(phi, inv, omega_only=True)
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
            joint = _cyc_residue(phi, name)
            if joint is None or b.prime in pi or \
                    frac_residue(q, b.prime, b.exp) != joint:
                return None
        qm = semi_multiplication(g, q)
    fin_part = sub(phi, qm)
    if not is_finitary(fin_part):  # pragma: no cover - guarded by the scans above
        return None
    return (fin_part, qm)


def classify(phi: Endo) -> EndoClass:
    """All shape receipts at once."""
    return EndoClass(
        finitary=is_finitary(phi),
        multiplication=is_multiplication(phi),
        quasi=_extract_semi(phi, need_finite=True),
        semi=_extract_semi(phi, need_finite=False),
        mini=_extract_mini(phi),
        fm=fm_split(phi),
    )


def close(phi: Endo, psi: Endo) -> bool:
    """True when the difference is finitary."""
    return is_finitary(sub(phi, psi))


# ---------------------------------------------------------------------------
# builders

def zero_endo(group: GroupDesc) -> Endo:
    return Endo(group)


def multiplication_endo(group: GroupDesc, value) -> Endo:
    """Multiplication by a rational (acting everywhere) or by a
    componentwise scalar (periodic groups).  Raises when the value
    cannot act on the group."""
    if isinstance(value, JElement):
        if not group.is_periodic:
            raise UsageError("componentwise scalars act on periodic groups only")
        cyc = {}
        for name, b in group.cyclic_items():
            cyc[name] = frac_residue(value.at(b.prime), b.prime, b.exp).value
        div = {b.prime: value.at(b.prime) for _, b in group.prufer_items()}
        return Endo(group, div=div, cyc=cyc)
    q = Fraction(value)
    den_primes = prime_divisors(q.denominator)
    for name, b in group.cyclic_items():
        if b.prime in den_primes:
            raise UsageError(f"{q} cannot act on the {b.prime}-torsion block {name}")
    for name, b in group.prufer_items():
        if b.prime in den_primes:
            raise UsageError(f"{q} cannot act on the divisible block {name}")
    for name, b in group.tf_items():
        if not den_primes <= b.primes:
            raise UsageError(f"{q} cannot act on the torsion-free block {name}")
    free = group.free_omega_name
    cyc = {name: frac_residue(q, b.prime, b.exp).value
           for name, b in group.cyclic_items()}
    div = {b.prime: q for _, b in group.prufer_items()}
    return Endo(group, tf=q, free_scalar=q.numerator if free else 0,
                div=div, cyc=cyc)


def semi_multiplication(group: GroupDesc, q: Fraction, pi: Iterable[int] | None = None) -> Endo:
    """Zero on the cyclic pi-blocks, multiplication by q elsewhere
    (pi defaults to the denominator support of q)."""
    q = Fraction(q)
    pi = frozenset(pi) if pi is not None else prime_divisors(q.denominator)
    cyc = {}
    for name, b in group.cyclic_items():
        cyc[name] = 0 if b.prime in pi else frac_residue(q, b.prime, b.exp).value
    div = {b.prime: q for _, b in group.prufer_items()}
    free = group.free_omega_name
    if free is not None and q.denominator != 1:
        raise UsageError("the free block admits integer scalars only")
    return Endo(group, tf=q, free_scalar=q.numerator if free else 0,
                div=div, cyc=cyc)


def mini_endo(group: GroupDesc, n: int, pi: Iterable[int]) -> Endo:
    """n on the cyclic pi-blocks, zero elsewhere."""
    pi = frozenset(pi)
    cyc = {name: n % b.prime ** b.exp
           for name, b in group.cyclic_items() if b.prime in pi}
    return Endo(group, cyc=cyc)


def semi_endo(group: GroupDesc, n: int, pi: Iterable[int], alpha) -> Endo:
    """n on the cyclic pi-blocks, multiplication by alpha elsewhere."""
    pi = frozenset(pi)
    if isinstance(alpha, JElement):
        base = multiplication_endo(group, alpha)
    else:
        base = semi_multiplication(group, Fraction(alpha), pi)
    cyc = dict(base.cyc)
    for name, b in group.cyclic_items():
        if b.prime in pi:
            cyc[name] = n % b.prime ** b.exp
    return Endo(group, tf=dict(base.tf), free_scalar=base.free_scalar,
                div=dict(base.div), cyc=cyc)


def identity_endo(group: GroupDesc) -> Endo:
    return multiplication_endo(group, 1)
