"""Endomorphisms of described groups, in a closed normal form.

An endomorphism is stored as five interacting parts:

* ``tf``: a rational matrix over the finite-rank torsion-free copies
  (entry source -> target needs the source's prime set inside the
  target's, and its denominator supported on the target's set), plus a
  single integer scalar on the infinite-rank free block when present;
* ``div``: per prime, the slot acting on the divisible p-coordinates;
* ``cyc``: per cyclic block, the slot acting on its residues;
* ``tau``: finitely many twisted projections q -> fractional p-part of
  (scale * q) from a torsion-free copy into a divisible p-coordinate;
* ``fin``: finitely many finite-image corrections, each sending one
  cyclic coordinate (by its residue) or one torsion-free coordinate
  (by its residue modulo a modulus coprime to the source primes) to a
  fixed torsion element.

A slot is either a scalar c, which acts as multiplication by c on
every coordinate of the slot (a power action there), or a sparse
matrix keyed by (source, target) pairs: pairs of divisible coordinates
for ``div``, pairs of indices into the block for ``cyc``.  ``div``
scalars and entries are p-integral rationals, ``cyc`` ones residues.
A matrix needs finitely many coordinates; on an OMEGA block only the
scalar form is valid.  Four helpers carry every slot operation:
``_fold`` turns c times the identity into the scalar c and zero into
no slot, ``_expand`` turns a scalar back into its matrix,
``_diagonal`` reads the scalar of a scalar-shaped matrix, which also
serves the ``tf`` diagonal, and ``_line`` lists one row or column of a
slot, as ``apply`` and ``compose`` read it.

The constructor canonicalizes: zero entries vanish, slots fold,
in-block corrections on finite cyclic blocks are absorbed into the
block's slot, and torsion-free correction moduli shrink to the image
order.  Equality of canonical forms is therefore structural equality,
and the sum and composite of normal forms are again normal forms.
"""
from __future__ import annotations

import math
import operator
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


def _integer(v) -> int | None:
    """v as an int when it is an int or an integral Fraction, else None."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v if isinstance(v, int) else None


# ---------------------------------------------------------------------------
# slots: a scalar, or a sparse matrix over finitely many coordinates

def _keys(g: GroupDesc, field: str, key) -> list | range | None:
    """The coordinates the div slot at prime key, or the cyc slot of
    block key, acts on; None when there are infinitely many."""
    if field == "div":
        copies, has_omega = g.prufer_copies(key)
        return None if has_omega else copies
    mult = g.block(key).mult
    return None if mult is OMEGA else range(mult)


def _diagonal(mat: Mapping, keys: Iterable, zero):
    """The scalar c when mat is c times the identity on keys, else None."""
    if any(s != d for s, d in mat):
        return None
    vals = {mat.get((k, k), zero) for k in keys}
    return vals.pop() if len(vals) == 1 else None


def _fold(g: GroupDesc, field: str, key, val):
    """A slot in canonical form: c times the identity becomes the scalar
    c, and zero becomes None.  val holds no zero entries."""
    if isinstance(val, dict):
        keys = _keys(g, field, key)
        # a matrix on an OMEGA block stays: validate reports it
        scalar = None if keys is None else _diagonal(val, keys, 0)
        val = val if scalar is None else scalar
    return val or None


def _line(val, key, col: bool = False) -> list:
    """The entries of a slot along row key, or along column key when col
    is set, as pairs (the other coordinate, entry); [] for no slot."""
    if isinstance(val, dict):
        return [(pair[not col], c) for pair, c in val.items() if pair[col] == key]
    return [(key, val)] if val else []


def _expand(val, keys, label: str) -> dict:
    """A slot as a matrix: a scalar c becomes c times the identity."""
    if isinstance(val, dict):
        return val
    if keys is None:
        raise UsageError(f"{label}: cannot expand a scalar over infinitely many copies")
    return {(k, k): val for k in keys}


# what a coordinate must be in each role: its block kind, the block's size
# attribute, whether an OMEGA block is excluded, and the message otherwise
_ROLES = {
    "tf": (TorsionFree, "rank", True, "{copy} is not a finite torsion-free copy"),
    "div": (Prufer, "copies", False, "{copy} is not a divisible coordinate"),
    "fin": (TorsionFree, "rank", False, "{copy} is not a torsion-free copy"),
    "cyc": (Cyclic, "mult", False, "{name} is not a cyclic block"),
}


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
        self.tau = self._norm_pairs(tau, "tau", "tf", "div")
        self._norm_fin(fin)

    # -- normalization ------------------------------------------------------

    def _coord(self, c: Coord, role: str) -> Coord:
        """c checked as a coordinate of the kind the role acts on."""
        name, idx = c
        b = self.group.block(name)
        kind, size_attr, finite_only, wrong = _ROLES[role]
        if not isinstance(b, kind) or finite_only and b.rank is OMEGA:
            raise UsageError(wrong.format(copy=_copy_str(c), name=name))
        size = getattr(b, size_attr)
        if not isinstance(idx, int) or idx < 0 or (is_finite(size) and idx >= size):
            raise UsageError(f"{_copy_str(c)} is out of range")
        return (name, idx)

    def _norm_pairs(self, mat, label: str, src: str,
                    dst: str) -> dict[tuple[Coord, Coord], Fraction]:
        """A rational matrix keyed by (source, target) coordinates in the
        roles src and dst, with its zero entries dropped.  Each entry is an
        int or a Fraction; a float would be read as its binary rounding."""
        try:
            items = (mat or {}).items()
        except AttributeError:
            raise UsageError(f"expected a mapping of coordinate pairs, "
                             f"not {type(mat).__name__}") from None
        out: dict[tuple[Coord, Coord], Fraction] = {}
        for (s, d), v in items:
            if not isinstance(v, (int, Fraction)):
                s, d = self._coord(s, src), self._coord(d, dst)
                raise UsageError(f"{label} {_copy_str(s)}->{_copy_str(d)}: expected "
                                 f"an integer or a Fraction, not {type(v).__name__} {v!r}")
            if v:
                out[(self._coord(s, src), self._coord(d, dst))] = Fraction(v)
        return out

    def _norm_tf(self, tf) -> dict[tuple[Coord, Coord], Fraction]:
        if isinstance(tf, (int, Fraction)):
            q = Fraction(tf)
            return {(c, c): q for c in self.group.tf_copies()} if q else {}
        return self._norm_pairs(tf, "tf", "tf", "tf")

    def _norm_div(self, div) -> dict[int, Fraction | dict]:
        out: dict[int, Fraction | dict] = {}
        if isinstance(div, (int, Fraction)):
            div = {b.prime: div for _, b in self.group.prufer_items()}
        for p, val in (div or {}).items():
            if isinstance(val, (int, Fraction)):
                val = Fraction(val)
            else:
                val = self._norm_pairs(val, f"div {p}", "div", "div")
            val = _fold(self.group, "div", p, val)
            if val is not None:
                out[p] = val
        return out

    def _norm_cyc(self, cyc) -> dict[str, int | dict]:
        out: dict[str, int | dict] = {}
        for name, val in (cyc or {}).items():
            b = self.group.block(name)
            if not isinstance(b, Cyclic):
                raise UsageError(f"{name} is not a cyclic block")
            m, n = b.prime ** b.exp, _integer(val)
            if n is not None:
                val = n % m
            elif not isinstance(val, Mapping):
                raise UsageError(f"cyc {name}: expected an integer or a mapping of "
                                 f"index pairs, not {type(val).__name__}")
            else:
                mat = {}
                for (i, j), v in val.items():
                    self._coord((name, i), "cyc")
                    self._coord((name, j), "cyc")
                    n = _integer(v)
                    if n is None:
                        raise UsageError(f"cyc {name}.{i}->{name}.{j}: expected an "
                                         f"integer, not {type(v).__name__} {v}")
                    if n % m:
                        mat[(i, j)] = n % m
                val = mat
            val = _fold(self.group, "cyc", name, val)
            if val is not None:
                out[name] = val
        return out

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
                c = self._coord(key[1:], "cyc")
                by_cyc[c] = by_cyc[c] + img if c in by_cyc else img
            elif key[0] == "t":
                c = self._coord(key[1], "fin")
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

        # absorb in-block corrections on finite cyclic blocks into the slot
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

        for name, entries in cyc_extra.items():
            b = self.group.block(name)
            m = b.prime ** b.exp
            mat = _msum(_expand(self.cyc.get(name, 0), range(b.mult), f"cyc {name}"), entries)
            val = _fold(self.group, "cyc", name,
                        {k: v % m for k, v in mat.items() if v % m})
            if val is None:
                self.cyc.pop(name, None)
            else:
                self.cyc[name] = val

    # -- equality -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Endo):
            return NotImplemented
        return (self.group == other.group and self.tf == other.tf
                and self.free_scalar == other.free_scalar
                and self.div == other.div and self.cyc == other.cyc
                and self.tau == other.tau and self.fin == other.fin)

    def __hash__(self) -> int:
        # the canonical contents; nothing writes the fields after __init__
        return hash((self.group, self.free_scalar) + tuple(
            frozenset((k, frozenset(v.items()) if isinstance(v, dict) else v)
                      for k, v in getattr(self, label).items())
            for label in ("tf", "div", "cyc", "tau", "fin")))

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
            for j, c in _line(phi.cyc.get(name), coord[1]):
                put((name, j), v * c)
        else:  # Prufer
            for d, c in _line(phi.div.get(b.prime), coord):
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


def _neg(val):
    return {k: -x for k, x in val.items()} if isinstance(val, dict) else -val


def _combine(a: Endo, b: Endo, scalar_op, matrix_op,
             both: bool) -> tuple[dict, dict]:
    """The div and cyc slots of a combination of a and b: scalar_op on two
    scalars, else matrix_op on the two slots as matrices.  A slot that
    only one map has takes part as zero, or is skipped when both is set."""
    g = a.group
    out: tuple[dict, dict] = ({}, {})
    for field, res in zip(("div", "cyc"), out):
        x, y = getattr(a, field), getattr(b, field)
        for key in sorted(x.keys() & y.keys() if both else x.keys() | y.keys()):
            u, v = x.get(key, 0), y.get(key, 0)
            if isinstance(u, dict) or isinstance(v, dict):
                keys, label = _keys(g, field, key), f"{field} {key}"
                res[key] = matrix_op(_expand(u, keys, label), _expand(v, keys, label))
            else:
                res[key] = scalar_op(u, v)
    return out


def add(a: Endo, b: Endo) -> Endo:
    g = _check_same_group(a, b)
    div, cyc = _combine(a, b, operator.add, _msum, both=False)
    fin = list(a.fin.items()) + list(b.fin.items())
    return Endo(g, tf=_msum(a.tf, b.tf), free_scalar=a.free_scalar + b.free_scalar,
                div=div, cyc=cyc, tau=_msum(a.tau, b.tau), fin=fin)


def negate(a: Endo) -> Endo:
    return Endo(a.group, tf=_neg(a.tf), free_scalar=-a.free_scalar,
                div={p: _neg(v) for p, v in a.div.items()},
                cyc={n: _neg(v) for n, v in a.cyc.items()},
                tau=_neg(a.tau), fin=[(k, -img) for k, img in a.fin.items()])


def sub(a: Endo, b: Endo) -> Endo:
    return add(a, negate(b))


def compose(a: Endo, b: Endo) -> Endo:
    """The composite x -> a(b(x)), again in normal form."""
    g = _check_same_group(a, b)
    # linear parts: row-vector convention, so the matrix of a∘b is M_b M_a
    div, cyc = _combine(b, a, operator.mul, _mprod, both=True)
    # twisted projections: a.tau after b's torsion-free action, and
    # a's divisible action after b.tau
    tau = _mprod(b.tf, a.tau)
    for (s, d), u in b.tau.items():
        p = g.block(d[0]).prime
        tau = _msum(tau, _mprod({(s, d): u}, _expand(a.div.get(p, {}), [d], f"div {p}")))
    # corrections: push b's images through a, pull a's keys back through
    # b's linear action
    fin: list[tuple[FinKey, Element]] = []
    for key, img in b.fin.items():
        fin.append((key, apply(a, img)))
    free = g.free_omega_name
    for key, img in a.fin.items():
        if key[0] == "c":
            _, name, idx = key
            for i, c in _line(b.cyc.get(name), idx, col=True):
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
    diag = _diagonal(tf, copies, Fraction(0))
    return "nonscalar" if diag is None else diag


def _tf_scalar(phi: Endo) -> Fraction | None | str:
    """The scalar r with torsion-free part r*id, None if there is no
    torsion-free part at all, or "nonscalar"."""
    diag = _tf_diagonal(phi.tf, phi.group.tf_copies())
    if phi.group.free_omega_name is None or diag == "nonscalar":
        return diag
    m = Fraction(phi.free_scalar)
    return m if diag is None or diag == m else "nonscalar"


def _cyc_crt(phi: Endo, p: int, omega_only: bool) -> Residue | None | str:
    """Joint residue of the scalar actions across cyclic p-blocks.

    Returns None when there are no relevant blocks, the joint residue
    when consistent, or "conflict"."""
    congs = []
    for name, b in phi.group.cyclic_at(p):
        if omega_only and b.mult is not OMEGA:
            continue
        val = phi.cyc.get(name, 0)
        if isinstance(val, dict):
            return "conflict"
        congs.append(Residue(val, b.prime, b.exp))
    if not congs:
        return None
    got = crt_solve(congs)
    return got if got is not None else "conflict"


def is_multiplication(phi: Endo) -> Fraction | JElement | None:
    """The scalar when phi multiplies by one (rational or componentwise)
    value exactly everywhere, else None."""
    if phi.tau or phi.fin:
        return None
    return _scalar_action(phi, invariants(phi.group), omega_only=False)


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


def _scalar_action(phi: Endo, inv: Invariants,
                   omega_only: bool) -> Fraction | JElement | None:
    """The one multiplication phi performs at every prime, or None.

    On a periodic group it is the componentwise scalar.  Otherwise it is
    the torsion-free scalar q, provided the primes of q's denominator
    are finite primes and every prime's blocks act by q exactly;
    omega_only consults only the cyclic blocks of multiplicity OMEGA."""
    g = phi.group
    if g.is_periodic:
        scalars: dict[int, Fraction] = {}
        for p in g.active_primes():
            alpha = _multiplication_shape(phi, inv, p, None, omega_only)
            if alpha == "mismatch" or alpha and alpha.denominator % p == 0:
                return None  # not p-integral, so validate rejects the map
            if alpha:
                scalars[p] = alpha
        return JElement(0, scalars)
    q = _tf_scalar(phi)
    if not isinstance(q, Fraction) or \
            any(p not in inv.finite_primes for p in prime_divisors(q.denominator)):
        return None
    if any(_multiplication_shape(phi, inv, p, q, omega_only) != q
           for p in g.active_primes()):
        return None
    return q


def _extract_semi(phi: Endo, need_finite: bool) -> tuple | None:
    """Receipt for the shape (integer on a finite prime part) + (one
    multiplication elsewhere).  The prime part holds the denominator
    primes of the multiplication; need_finite confines it to finite
    p-components rather than bounded ones."""
    if phi.tau or phi.fin:
        return None
    g = phi.group
    inv = invariants(g)
    allowed = inv.finite_primes if need_finite else inv.bounded_primes
    if g.is_periodic:
        mult = _scalar_action(phi, inv, omega_only=False)
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
    n = crt_lift(residues) if residues else 0
    return (n, frozenset(pi), q)


def fm_split(phi: Endo) -> tuple[Endo, Endo] | None:
    """Split into (finitary part, quasi-multiplication part), when the
    action away from finite-multiplicity blocks is one multiplication."""
    if phi.tau:
        return None
    g = phi.group
    alpha = _scalar_action(phi, invariants(g), omega_only=True)
    if alpha is None:
        return None
    qm = multiplication_endo(g, alpha) if g.is_periodic else semi_multiplication(g, alpha)
    fin_part = sub(phi, qm)
    if not is_finitary(fin_part):  # pragma: no cover - guarded by _scalar_action
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
    return semi_multiplication(group, q, ())


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
