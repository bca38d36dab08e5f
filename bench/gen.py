"""Seeded generator of description files for the benchmark.

Every endomorphism is built from a template whose verdict is fixed by
the structure theorem at construction time; nothing here asks the
library for a verdict.  An inertial map is a semi-multiplication (the
torsion-free scalar r, carried to the divisible and unbounded residue
parts that must follow it) plus a uniform part (free componentwise
scalars where nothing pins them) plus a mini or finitary patch (free
residues on unbounded cyclic blocks, arbitrary matrices on blocks of
finite multiplicity, and finite-image corrections).  A non-inertial map
is the same construction with exactly one planted violation of a named
kind, and a kind is only planted on a group where it can occur.

The module uses the standard library only and writes description-file
text, so the library's parser stays in the measured path.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod

OMEGA = "omega"

TF_NOT_SCALAR = "TF_NOT_SCALAR"
NOT_FTFR_NOT_INTEGER = "NOT_FTFR_NOT_INTEGER"
PI_HAS_DIVISIBLE = "PI_HAS_DIVISIBLE"
DIV_VS_R_MISMATCH = "DIV_VS_R_MISMATCH"
DIV_NOT_SCALAR = "DIV_NOT_SCALAR"
TAU_NONZERO = "TAU_NONZERO"
CRT_INCONSISTENT = "CRT_INCONSISTENT"
OMEGA_DIV_MISMATCH = "OMEGA_DIV_MISMATCH"
KINDS = (TF_NOT_SCALAR, NOT_FTFR_NOT_INTEGER, PI_HAS_DIVISIBLE,
         DIV_VS_R_MISMATCH, DIV_NOT_SCALAR, TAU_NONZERO, CRT_INCONSISTENT,
         OMEGA_DIV_MISMATCH)

SMALL_PRIMES = (2, 3, 5)


# ---------------------------------------------------------------------------
# groups: ordered (name, block) pairs, blocks as plain tuples
#   ("cyclic", p, k, mult)   ("prufer", p, copies)   ("tf", pi, rank)

@dataclass(frozen=True)
class Group:
    blocks: tuple

    def of(self, kind: str) -> list:
        return [(n, b) for n, b in self.blocks if b[0] == kind]

    @property
    def free(self) -> str | None:
        return next((n for n, b in self.of("tf") if b[2] == OMEGA), None)

    def tf_copies(self) -> list[tuple[str, int, frozenset]]:
        return [(n, i, b[1]) for n, b in self.of("tf") if b[2] != OMEGA
                for i in range(b[2])]

    def renamed(self, suffix: str) -> "Group":
        return Group(tuple((n + suffix, b) for n, b in self.blocks))

    @property
    def periodic(self) -> bool:
        return not self.of("tf")

    def prufer_primes(self) -> list[int]:
        return sorted({b[1] for _, b in self.of("prufer")})

    def omega_prufer(self, p: int) -> bool:
        return any(b[1] == p and b[2] == OMEGA for _, b in self.of("prufer"))

    def omega_cyclic(self, p: int) -> list:
        return [(n, b) for n, b in self.of("cyclic") if b[1] == p and b[3] == OMEGA]

    def common_pi(self) -> frozenset:
        tfs = [b for _, b in self.of("tf") if b[2] != OMEGA]
        return frozenset.intersection(*[b[1] for b in tfs]) if tfs else frozenset()

    def text(self) -> str:
        lines = ["group G {"]
        for n, b in self.blocks:
            if b[0] == "cyclic":
                spec = f"cyclic(p={b[1]}, k={b[2]}, mult={b[3]})"
            elif b[0] == "prufer":
                spec = f"prufer(p={b[1]}, copies={b[2]})"
            else:
                spec = f"torsionfree(pi={{{', '.join(map(str, sorted(b[1])))}}}, rank={b[2]})"
            lines.append(f"  block {n} = {spec}")
        lines.append("}")
        return "\n".join(lines) + "\n"


# Each shape fixes the block structure.  Its primes and exponents come
# from the slot number, which the workloads take from the round and the
# position in it, so every run cycles through the same mix of sizes and
# the seed only moves the maps; that keeps the work of a run steady
# across seeds.
def _slot(slot: int) -> tuple[int, int, int]:
    """(p, q, e): a prime, another prime and an exponent in {1, 2}."""
    n = len(SMALL_PRIMES)
    return SMALL_PRIMES[slot % n], SMALL_PRIMES[(slot + 1) % n], 1 + slot // n % 2


def shape_critical(slot):
    p, q, e = _slot(slot)
    return Group((("B", ("cyclic", p, e, OMEGA)),
                  ("D", ("prufer", p, 2)),
                  ("K", ("cyclic", q, 1, 2))))


def shape_twin(slot):
    p, _, e = _slot(slot)
    return Group((("B", ("cyclic", p, 1, OMEGA)),
                  ("C", ("cyclic", p, e, OMEGA))))


def shape_deep(slot):
    p, _, e = _slot(slot)
    return Group((("B", ("cyclic", p, e, OMEGA)),
                  ("E", ("prufer", p, OMEGA))))


def shape_pair(slot):
    p, q, _ = _slot(slot)
    return Group((("D", ("prufer", p, 2)),
                  ("B", ("cyclic", q, 1, OMEGA))))


def shape_plane(slot):
    p, q, e = _slot(slot)
    return Group((("V", ("tf", frozenset({p, q}), 2)),
                  ("D", ("prufer", p, 1)),
                  ("B", ("cyclic", q, e, OMEGA))))


def shape_line(slot):
    p, q, _ = _slot(slot)
    return Group((("V", ("tf", frozenset({p}), 1)),
                  ("D", ("prufer", p, 1)),
                  ("B", ("cyclic", q, 1, 2))))


def shape_free(slot):
    p, q, e = _slot(slot)
    return Group((("L", ("tf", frozenset(), OMEGA)),
                  ("V", ("tf", frozenset({p}), 1)),
                  ("B", ("cyclic", q, e, OMEGA)),
                  ("D", ("prufer", q, 1))))


PERIODIC_SHAPES = (shape_critical, shape_twin, shape_deep, shape_pair)
MIXED_SHAPES = (shape_plane, shape_line, shape_free)


# ---------------------------------------------------------------------------
# where each violation kind can occur

def _tf_pairs(g: Group) -> list:
    copies = g.tf_copies()
    return [((a, i), (b, j)) for a, i, pa in copies for b, j, pb in copies
            if (a, i) != (b, j) and pa <= pb]


def _pi_div_primes(g: Group) -> list[int]:
    if g.free or not g.tf_copies():
        return []
    return [p for p in g.prufer_primes() if p in g.common_pi()]


def _div_matrix_blocks(g: Group) -> list[str]:
    return [n for n, b in g.of("prufer")
            if b[2] != OMEGA and b[2] >= 2 and not g.omega_prufer(b[1])]


def _tau_pairs(g: Group) -> list:
    return [((n, i), d) for n, i, pi in g.tf_copies()
            for d, b in g.of("prufer") if b[1] in pi]


def _crt_primes(g: Group) -> list[int]:
    primes = sorted({b[1] for _, b in g.of("cyclic")})
    out = [p for p in primes if len(g.omega_cyclic(p)) >= 2]
    if g.free:
        out += [p for p in primes if g.omega_cyclic(p) and not g.omega_prufer(p)
                and p not in out]
    return out


def _omega_div_primes(g: Group) -> list[int]:
    if g.free:
        return []
    return [p for p in g.prufer_primes() if g.omega_prufer(p) and g.omega_cyclic(p)]


def applicable(g: Group, kind: str) -> bool:
    """Can a violation of this kind be planted on the group?"""
    if kind == TF_NOT_SCALAR:
        return bool(_tf_pairs(g))
    if kind == NOT_FTFR_NOT_INTEGER:
        return bool(g.free and g.tf_copies())
    if kind == PI_HAS_DIVISIBLE:
        return bool(_pi_div_primes(g))
    if kind == DIV_VS_R_MISMATCH:
        return not g.periodic and bool(g.prufer_primes())
    if kind == DIV_NOT_SCALAR:
        return bool(_div_matrix_blocks(g))
    if kind == TAU_NONZERO:
        return bool(_tau_pairs(g))
    if kind == CRT_INCONSISTENT:
        return bool(_crt_primes(g))
    if kind == OMEGA_DIV_MISMATCH:
        return bool(_omega_div_primes(g))
    raise ValueError(f"unknown violation kind {kind!r}")


# ---------------------------------------------------------------------------
# endomorphisms

@dataclass(frozen=True)
class EndoCase:
    name: str
    entries: tuple[str, ...]
    kind: str | None          # the planted violation, None when inertial

    @property
    def inertial(self) -> bool:
        return self.kind is None

    def text(self) -> str:
        body = "".join(f"  {e};\n" for e in self.entries)
        return f"endo {self.name} on G {{\n{body}}}\n"


def _p_integral(rng: random.Random, p: int) -> Fraction:
    den = rng.choice([1, 1, 1] + [q for q in SMALL_PRIMES if q != p])
    return Fraction(rng.choice([-2, -1, 1, 2, 3, 4]), den)


def _residue(q: Fraction, m: int) -> int:
    return q.numerator * pow(q.denominator, -1, m) % m


def build_endo(g: Group, rng: random.Random, kind: str | None,
               name: str) -> EndoCase:
    """One endomorphism of g: inertial when kind is None, else with one
    planted violation of that kind (which must be applicable)."""
    if kind is not None and not applicable(g, kind):
        raise ValueError(f"{kind} cannot occur on {g.blocks}")
    entries: list[str] = []
    free = g.free
    copies = g.tf_copies()

    # the torsion-free scalar r and its denominator primes
    target = None
    if free:
        r: Fraction | None = Fraction(rng.choice([-1, 1, 2, 3]))
        pi: frozenset = frozenset()
    elif copies:
        allowed = sorted(g.common_pi() - set(g.prufer_primes()))
        den = prod(p for p in allowed if rng.random() < 0.5)
        if kind == PI_HAS_DIVISIBLE:
            target = rng.choice(_pi_div_primes(g))
            den *= target
        r = Fraction(rng.choice([n for n in (-3, -2, -1, 1, 2, 3, 4, 5)
                                 if target is None or n % target]), den)
        pi = frozenset(p for p in SMALL_PRIMES if r.denominator % p == 0)
    else:
        r, pi = None, frozenset()

    if free:
        entries.append(f"tf[{free}] = {r}")
    diag = r
    if kind == NOT_FTFR_NOT_INTEGER:
        common = sorted(g.common_pi())
        diag = r + (Fraction(1, rng.choice(common)) if common and rng.random() < 0.5
                    else rng.choice([-1, 1, 2]))
    for n, i, _ in copies:
        entries.append(f"tf[{n}.{i} -> {n}.{i}] = {diag}")
    if kind == TF_NOT_SCALAR:
        (a, i), (b, j) = rng.choice(_tf_pairs(g))
        entries.append(f"tf[{a}.{i} -> {b}.{j}] = {rng.choice([1, -1, 2])}")
        if not free:
            r = None  # no scalar left for the divisible parts to follow

    # divisible parts: one scalar per prime, or a planted matrix
    alpha: dict[int, Fraction] = {}
    mismatch = rng.choice(g.prufer_primes()) if kind == DIV_VS_R_MISMATCH else None
    matrix_block = rng.choice(_div_matrix_blocks(g)) if kind == DIV_NOT_SCALAR else None
    for p in g.prufer_primes():
        a = r if r is not None and p not in pi else _p_integral(rng, p)
        if p == mismatch:
            a = a + rng.choice([u for u in (-2, -1, 1, 2, 3) if u % p])
        alpha[p] = a
        blocks = [(n, b) for n, b in g.of("prufer") if b[1] == p]
        if matrix_block is None or dict(g.blocks)[matrix_block][1] != p:
            entries.append(f"div[{blocks[0][0]}] = {a}")
            continue
        matrix = {(bn, i): a for bn, b in blocks for i in range(b[2])}
        if rng.random() < 0.5:
            entries.append(f"div[{matrix_block}.0 -> {matrix_block}.1] = "
                           f"{rng.choice([1, 2, -1])}")
        else:
            matrix[(matrix_block, 1)] = a + rng.choice([1, 2, -1])
        entries += [f"div[{bn}.{i} -> {bn}.{i}] = {v}" for (bn, i), v in matrix.items()]

    # cyclic blocks: joint residues on the unbounded ones, anything on the rest
    crt = rng.choice(_crt_primes(g)) if kind == CRT_INCONSISTENT else None
    odm = rng.choice(_omega_div_primes(g)) if kind == OMEGA_DIV_MISMATCH else None
    for p in sorted({b[1] for _, b in g.of("cyclic")}):
        unbounded = g.omega_cyclic(p)
        if unbounded:
            top = p ** max(b[2] for _, b in unbounded)
            if free:
                joint = int(r) % top
            elif g.omega_prufer(p):
                joint = _residue(alpha[p], top)
            else:
                joint = rng.randrange(top)
            if p == odm:
                joint = (joint + rng.choice([1, top - 1])) % top
            for idx, (bn, b) in enumerate(unbounded):
                v = joint
                if p == crt and (idx == 1 or len(unbounded) == 1):
                    v = joint + rng.choice([1, -1])  # clashes modulo p
                entries.append(f"cyc[{bn}] = {v % p ** b[2]}")
        for bn, b in g.of("cyclic"):
            if b[1] != p or b[3] == OMEGA:
                continue
            m = p ** b[2]
            if b[3] >= 2 and rng.random() < 0.6:
                for i in range(b[3]):
                    for j in range(b[3]):
                        v = rng.randrange(m)
                        if v:
                            entries.append(f"cyc[{bn}.{i} -> {bn}.{j}] = {v}")
            else:
                entries.append(f"cyc[{bn}] = {rng.randrange(m)}")

    if kind == TAU_NONZERO:
        (n, i), d = rng.choice(_tau_pairs(g))
        entries.append(f"tau[{n}.{i} -> {d}.0] = {rng.choice(['1', '-1', '1/2', '3'])}")

    if rng.random() < 0.5:
        patch = _fin_patch(g, rng)
        if patch:
            entries.append(patch)
    return EndoCase(name, tuple(entries), kind)


def _torsion_targets(g: Group, p: int) -> list:
    return [(n, b) for n, b in g.blocks if b[0] in ("cyclic", "prufer") and b[1] == p]


def _image(rng: random.Random, target, order_exp: int) -> str:
    """A coefficient of order dividing p^order_exp in the target block."""
    n, b = target
    p = b[1]
    j = rng.randint(1, order_exp)
    t = rng.choice([u for u in range(1, p ** j) if u % p] or [1])
    if b[0] == "prufer":
        return f"{n}.0: {t}/{p ** j}"
    e = b[2]
    return f"{n}.0: {t * p ** max(0, e - j) % p ** e}"


def _fin_patch(g: Group, rng: random.Random) -> str | None:
    """One finite-image correction, from a cyclic or a torsion-free source."""
    sources = []
    for n, b in g.of("cyclic"):
        sources.append(("c", n, b))
    for n, i, pi in g.tf_copies():
        if any(b[1] not in pi for _, b in g.blocks if b[0] != "tf"):
            sources.append(("t", (n, i), pi))
    if not sources:
        return None
    src = rng.choice(sources)
    if src[0] == "c":
        _, n, b = src
        idx = rng.randrange(b[3] if b[3] != OMEGA else 2)
        target = rng.choice(_torsion_targets(g, b[1]))
        return f"fin[{n}.{idx}] = {{ {_image(rng, target, b[2])} }}"
    _, (n, i), pi = src
    q = rng.choice(sorted({b[1] for _, b in g.blocks if b[0] != "tf"} - pi))
    target = rng.choice(_torsion_targets(g, q))
    img = _image(rng, target, 1)
    return f"fin[{n}.{i} mod {q}] = {{ {img} }}"


# ---------------------------------------------------------------------------
# files

@dataclass(frozen=True)
class Case:
    """One description file: a group and its endomorphisms."""

    group: Group
    endos: tuple[EndoCase, ...]

    def text(self, only_inertial: bool = False) -> str:
        parts = [self.group.text()]
        parts += ["\n" + e.text() for e in self.endos
                  if e.inertial or not only_inertial]
        return "".join(parts)

    @property
    def inertial(self) -> tuple[EndoCase, ...]:
        return tuple(e for e in self.endos if e.inertial)


def make_case(rng: random.Random, shape, slot: int, n_inertial: int,
              n_planted: int, tag: str = "") -> Case:
    """A group of the shape with inertial and planted endomorphisms; the
    planted kinds are distinct while the group admits distinct ones.
    The tag suffixes every block name, so groups drawn with different
    tags never compare equal and share no cache entry in the library."""
    g = shape(slot).renamed(tag)
    kinds = [k for k in KINDS if applicable(g, k)]
    if n_planted and not kinds:
        raise ValueError(f"no violation kind can occur on {g.blocks}")
    rng.shuffle(kinds)
    plan = [None] * n_inertial + [kinds[i % len(kinds)] for i in range(n_planted)]
    rng.shuffle(plan)
    return Case(g, tuple(build_endo(g, rng, kind, f"e{i}")
                         for i, kind in enumerate(plan)))


# ---------------------------------------------------------------------------
# matrices over F_p for the defect command

def matrix_case(rng: random.Random, p: int, n: int, count: int) -> Case:
    """The group (Z/p)^n with endomorphisms given by matrices: a random
    scalar plus a random map of random rank, so the defects vary."""
    g = Group((("A", ("cyclic", p, 1, n)),))
    endos = []
    for e in range(count):
        lam = rng.randrange(p)
        rank = rng.randint(1, n)
        cols = [[rng.randrange(p) for _ in range(n)] for _ in range(rank)]
        rows = [[rng.randrange(p) for _ in range(rank)] for _ in range(n)]
        entries = []
        for i in range(n):
            for j in range(n):
                v = (sum(rows[i][t] * cols[t][j] for t in range(rank))
                     + (lam if i == j else 0)) % p
                if v:
                    entries.append(f"cyc[A.{i} -> A.{j}] = {v}")
        endos.append(EndoCase(f"m{e}", tuple(entries), None))
    return Case(g, tuple(endos))
