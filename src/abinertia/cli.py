"""Description files for groups and endomorphisms, and the command-line
front end that turns them into deterministic JSON reports.

File grammar (``#`` comments, ``omega`` for infinite counts)::

    group A {
      block B = cyclic(p=5, k=1, mult=1)
      block C = torsionfree(pi={5}, rank=1)
    }

    endo phi on A {
      tf[C.0 -> C.0] = 1/5;
    }

One file describes one group and any number of endomorphisms on it.
Endo bodies hold map entries, each optionally terminated by ``;``:
``tf`` and ``tau`` take coordinate pairs with rational values, ``div``
takes coordinate pairs within one divisible prime or a bare block name
for the scalar action at that prime, ``cyc`` takes a block name with an
integer scalar or an in-block coordinate pair, and ``fin`` maps a
cyclic coordinate (or a torsion-free coordinate with a ``mod w``
clause) to a finite-order image written as a coefficient map.  The
scalar on the infinite-rank free block is the bare-name ``tf`` form.
Unspecified entries are zero.  Integers are written in ASCII digits
``0-9`` only; names start with a letter or ``_``.

serialize() emits one canonical spelling per endomorphism: zero
entries vanish, scalar-shaped matrices fold to their scalar form, and
entries come out sorted.  parse then serialize is therefore a
projection onto canonical files and fixes every file already written
canonically.

Reports are single JSON documents with sorted keys and no
insignificant whitespace; rationals print as ``m/n`` strings and
infinite quantities as ``"inf"`` or ``"omega"``, so byte equality of
reports is meaningful across runs.  Each record in a report is the
object of its dataclass's fields, by name, so a field added to a
certificate or receipt shows up in the reports and the goldens catch it.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from . import __version__
from .endokit import Endo, add, apply, classify, equal, validate
from .exactnum import (
    INF, OMEGA, JElement, UsageError, is_finite, is_prime,
)
from .groupkit import (
    Cyclic, Element, GroupDesc, HElement, Prufer, TorsionFree, h_descriptor,
    invariants, nm_type, truncate,
)
from .inertia import decompose, is_inertial, is_uniform
from .linmap import (
    ExactMatrix, count_subspaces, growth_bound_check, max_inert_codim,
)
from .oracle import (
    _check_levels, _exhaust, _profiles, truncate_endo, witness_search,
)

__all__ = [
    "ParseError", "ParsedInput", "SessionConfig",
    "parse", "serialize", "run", "main",
]


# ---------------------------------------------------------------------------
# tokens

class ParseError(UsageError):
    """A positioned diagnostic for a malformed description file."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _Token(NamedTuple):
    kind: str   # name | int | punct | end
    text: str
    line: int
    col: int


# Blanks and comments match no named group.  Integers are ASCII digits;
# a word that starts outside ASCII is a name only if it starts with a letter.
_TOKEN = re.compile(r"""
    [ \t]+ | \#.*
  | (?P<punct> -> | [{}()\[\]=,;:./] )
  | (?P<int> -?[0-9]+ )
  | (?P<name> [A-Za-z_]\w* )
  | (?P<word> \w+ )
  | (?P<bad> . )
""", re.VERBOSE)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    for line, raw in enumerate(text.splitlines(), start=1):
        for m in _TOKEN.finditer(raw):
            kind = m.lastgroup
            if kind is None:
                continue
            if kind == "word":
                kind = "name" if m.group()[0].isalpha() else "bad"
            if kind == "bad":
                ch = m.group()[0]
                raise ParseError("stray '-'" if ch == "-" else f"unexpected character {ch!r}",
                                 line, m.start() + 1)
            toks.append(_Token(kind, m.group(), line, m.start() + 1))
    last = toks[-1] if toks else _Token("end", "", 1, 1)
    toks.append(_Token("end", "", last.line, last.col + len(last.text)))
    return toks


# ---------------------------------------------------------------------------
# the parser

@dataclass(frozen=True)
class ParsedInput:
    """One description file: a named group and its named endomorphisms.

    Unpacks as the (group, endos) pair; the declared group name rides
    along so serialization can reproduce the file.
    """

    group_name: str
    group: GroupDesc
    endos: dict[str, Endo] = field(default_factory=dict)

    def __iter__(self) -> Iterator:
        return iter((self.group, self.endos))


class _Parser:
    def __init__(self, toks: list[_Token]) -> None:
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def build(self, tok: _Token, fn, *args, **kwargs):
        # constructor errors become diagnostics at the declaration site
        try:
            return fn(*args, **kwargs)
        except ParseError:
            raise
        except UsageError as exc:
            self.fail(str(exc), tok)

    def expect(self, text: str) -> _Token:
        # a literal's text fixes its kind, so the text alone is compared
        t = self.take()
        if t.text != text:
            self.fail(f"expected {text!r}, found {t.text or 'end of input'!r}", t)
        return t

    def expect_name(self, what: str = "a name") -> _Token:
        t = self.take()
        if t.kind != "name":
            self.fail(f"expected {what}, found {t.text or 'end of input'!r}", t)
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # -- atoms --------------------------------------------------------------

    def integer(self) -> int:
        t = self.take()
        if t.kind != "int":
            self.fail(f"expected an integer, found {t.text or 'end of input'!r}", t)
        return int(t.text)

    def int_only(self) -> int:
        value = self.integer()
        if self.at("/"):
            self.fail("expected an integer, not a rational")
        return value

    def rational(self) -> Fraction:
        num = self.integer()
        if self.at("/"):
            self.take()
            dtok = self.peek()
            den = self.integer()
            if den == 0:
                self.fail("zero denominator", dtok)
            return Fraction(num, den)
        return Fraction(num)

    def prime(self) -> int:
        t = self.peek()
        value = self.integer()
        if not is_prime(value):
            self.fail(f"{value} is not prime", t)
        return value

    def nat_or_omega(self):
        if self.at("omega"):
            self.take()
            return OMEGA
        t = self.peek()
        value = self.integer()
        if value < 0:
            self.fail("a count cannot be negative", t)
        if value > MAX_COUNT:
            self.fail(f"a finite count is at most {MAX_COUNT}, not {value}", t)
        return value

    def coord(self, group: GroupDesc) -> tuple[str, int]:
        t = self.expect_name("a block name")
        if not group.has_block(t.text):
            self.fail(f"unknown block {t.text!r}", t)
        self.expect(".")
        idx = self.integer()
        return (t.text, idx)

    def braced(self, item) -> _Token:
        """``{ item, item, ... }``, possibly empty; returns the opening brace."""
        brace = self.expect("{")
        if not self.at("}"):
            item()
            while self.at(","):
                self.take()
                item()
        self.expect("}")
        return brace

    def prime_set(self) -> frozenset[int]:
        primes: set[int] = set()
        self.braced(lambda: primes.add(self.prime()))
        return frozenset(primes)

    # -- declarations ---------------------------------------------------------

    def file(self) -> ParsedInput:
        name: str | None = None
        group: GroupDesc | None = None
        endos: dict[str, Endo] = {}
        while self.peek().kind != "end":
            t = self.peek()
            if self.at("group"):
                if group is not None:
                    self.fail("a file describes a single group", t)
                name, group = self.group_decl()
            elif self.at("endo"):
                if group is None:
                    self.fail("the group must come before its endomorphisms", t)
                self.endo_decl(name, group, endos)
            else:
                self.fail("expected a group or endo declaration", t)
        if group is None or name is None:
            raise ParseError("no group declaration", 1, 1)
        return ParsedInput(name, group, endos)

    def group_decl(self) -> tuple[str, GroupDesc]:
        head = self.expect("group")
        name = self.expect_name("a group name").text
        self.expect("{")
        blocks: list[tuple[str, object]] = []
        seen: set[str] = set()
        while self.at("block"):
            self.take()
            btok = self.expect_name("a block name")
            if btok.text in seen:
                self.fail(f"duplicate block name {btok.text!r}", btok)
            seen.add(btok.text)
            self.expect("=")
            blocks.append((btok.text, self.block_expr()))
        if not blocks:
            self.fail("a group needs at least one block")
        self.expect("}")
        return name, self.build(head, GroupDesc, blocks)

    def block_expr(self):
        head = self.expect_name("a block kind")
        self.expect("(")
        if head.text not in _BLOCK_KINDS:
            self.fail(f"unknown block kind {head.text!r}", head)
        kind, params = _BLOCK_KINDS[head.text]
        args = []
        for i, (key, read) in enumerate(params):
            if i:
                self.expect(",")
            self.expect(key)
            self.expect("=")
            args.append(read(self))
        self.expect(")")
        return self.build(head, kind, *args)

    def endo_decl(self, group_name: str, group: GroupDesc,
                  endos: dict[str, Endo]) -> None:
        head = self.expect("endo")
        ntok = self.expect_name("an endo name")
        if ntok.text in endos:
            self.fail(f"duplicate endo name {ntok.text!r}", ntok)
        self.expect("on")
        gtok = self.expect_name("a group name")
        if gtok.text != group_name:
            self.fail(f"unknown group {gtok.text!r}", gtok)
        self.expect("{")
        body = _EndoEntries(self, group)
        while not self.at("}"):
            body.entry()
            if self.at(";"):
                self.take()
        self.expect("}")
        try:
            endos[ntok.text] = Endo(group, **body.merged())
        except UsageError as exc:
            # point at the first entry that fails on its own, else the head
            for tok, entry in body.entries:
                self.build(tok, Endo, group, **entry)
            self.fail(str(exc), head)


# block kind -> (constructor, its parameters in order, each with its reader)
_BLOCK_KINDS = {
    "cyclic": (Cyclic, (("p", _Parser.prime), ("k", _Parser.integer),
                        ("mult", _Parser.nat_or_omega))),
    "prufer": (Prufer, (("p", _Parser.prime), ("copies", _Parser.nat_or_omega))),
    "torsionfree": (TorsionFree, (("pi", _Parser.prime_set),
                                  ("rank", _Parser.nat_or_omega))),
}

# entry map -> (source block kind, target block kind) of its NAME.i -> NAME.j form
_PAIR_MAPS = {
    "tf": (TorsionFree, TorsionFree),
    "div": (Prufer, Prufer),
    "cyc": (Cyclic, Cyclic),
    "tau": (TorsionFree, Prufer),
}
_KIND_WORDS = {TorsionFree: "torsion-free", Prufer: "divisible", Cyclic: "cyclic"}


class _EndoEntries:
    """Reads one endo body, checking references entry by entry.

    Each entry is kept as the Endo keyword fragment it stands for.  A
    bare entry sets one slot: the divisible action at a prime, or the
    scalar on a cyclic block or on the infinite-rank free block.
    ``claimed`` maps each slot to the pairs entered there, None once a
    bare entry holds it, and each fin key to None.
    """

    def __init__(self, parser: _Parser, group: GroupDesc) -> None:
        self.p = parser
        self.group = group
        self.blocks = dict(group.blocks)
        self.entries: list[tuple[_Token, dict]] = []
        self.claimed: dict[tuple, set | None] = {}

    def merged(self) -> dict:
        """The Endo keywords of the whole body."""
        out: dict = {}
        for _, entry in self.entries:
            for kw, val in entry.items():
                if kw == "free_scalar":
                    out[kw] = val
                    continue
                into = out.setdefault(kw, {})
                for key, v in val.items():
                    if isinstance(v, dict):
                        into.setdefault(key, {}).update(v)
                    else:
                        into[key] = v
        return out

    def entry(self) -> None:
        p = self.p
        head = p.expect_name("an entry map (tf, div, cyc, tau, fin)")
        if head.text != "fin" and head.text not in _PAIR_MAPS:
            p.fail(f"unknown entry map {head.text!r}", head)
        p.expect("[")
        self.entries.append(
            (head, self.fin_entry() if head.text == "fin" else self.pair_entry(head.text)))

    def block_of(self, tok: _Token):
        blk = self.blocks.get(tok.text)
        if blk is None:
            self.p.fail(f"unknown block {tok.text!r}", tok)
        return blk

    def check_kind(self, tok: _Token, blk, kind) -> None:
        if not isinstance(blk, kind):
            self.p.fail(f"{tok.text!r} is not a {_KIND_WORDS[kind]} block", tok)

    @staticmethod
    def slot_label(name: str, key) -> str:
        return f"prime {key}" if name == "div" else repr(key)

    def pair_entry(self, name: str) -> dict:
        """``NAME.i -> NAME.j``, or the bare ``NAME`` of tf, div and cyc."""
        p = self.p
        src_kind, dst_kind = _PAIR_MAPS[name]
        stok = p.expect_name("a block name")
        blk = self.block_of(stok)
        bare = p.at("]")
        if bare and name == "tau":
            p.expect(".")  # tau has no bare form: fails as a missing '.'
        if bare and name == "tf" and not (isinstance(blk, TorsionFree) and blk.rank is OMEGA):
            p.fail("the bare tf form needs the infinite-rank free block", stok)
        self.check_kind(stok, blk, src_kind)
        key = blk.prime if name == "div" else stok.text
        if bare:
            p.take()
            p.expect("=")
            if (name, key) in self.claimed:
                p.fail(f"duplicate {name} entry for {self.slot_label(name, key)}", stok)
            self.claimed[(name, key)] = None
            if name == "tf":
                return {"free_scalar": p.int_only()}
            return {name: {key: p.rational() if name == "div" else p.int_only()}}
        p.expect(".")
        src = (stok.text, p.integer())
        p.expect("->")
        dtok = p.expect_name("a block name")
        if name == "cyc" and dtok.text != stok.text:
            p.fail("cyclic matrix entries stay within one block", dtok)
        dblk = self.block_of(dtok)
        p.expect(".")
        dst = (dtok.text, p.integer())
        self.check_kind(dtok, dblk, dst_kind)
        if name == "div" and dblk.prime != blk.prime:
            p.fail("divisible entries stay within one prime", dtok)
        p.expect("]")
        p.expect("=")
        # only div and cyc pairs share their slot with a bare entry
        pairs = self.claimed.setdefault((name, key if name in ("div", "cyc") else None), set())
        if pairs is None:
            p.fail(f"{self.slot_label(name, key)} already has a scalar action", stok)
        if (src, dst) in pairs:
            p.fail(f"duplicate {name} entry {src[0]}.{src[1]} -> {dst[0]}.{dst[1]}", stok)
        pairs.add((src, dst))
        if name == "cyc":
            return {"cyc": {key: {(src[1], dst[1]): p.int_only()}}}
        if name == "div":
            return {"div": {key: {(src, dst): p.rational()}}}
        return {name: {(src, dst): p.rational()}}

    def fin_entry(self) -> dict:
        p = self.p
        stok = p.peek()
        src = p.coord(self.group)
        blk = self.group.block(src[0])
        key: tuple
        if p.at("mod"):
            p.take()
            wtok = p.peek()
            w = p.integer()
            if w < 1:
                p.fail("the factor modulus must be >= 1", wtok)
            if not isinstance(blk, TorsionFree):
                p.fail("a mod clause needs a torsion-free source", stok)
            key = ("t", src, w)
        else:
            if not isinstance(blk, Cyclic):
                p.fail("a torsion-free source needs a mod clause", stok)
            key = ("c", src[0], src[1])
        p.expect("]")
        p.expect("=")
        coeffs: dict[tuple[str, int], Fraction] = {}
        vtok = p.braced(lambda: self.fin_coeff(coeffs))
        if ("fin", key) in self.claimed:
            p.fail("duplicate fin entry", stok)
        self.claimed[("fin", key)] = None
        return {"fin": {key: p.build(vtok, Element, self.group, coeffs)}}

    def fin_coeff(self, coeffs: dict) -> None:
        p = self.p
        ctok = p.peek()
        c = p.coord(self.group)
        if c in coeffs:
            p.fail(f"duplicate coefficient for {c[0]}.{c[1]}", ctok)
        p.expect(":")
        coeffs[c] = p.rational()


def parse(text: str) -> ParsedInput:
    """Parse one description file; diagnostics carry line and column."""
    return _Parser(_tokenize(text)).file()


# ---------------------------------------------------------------------------
# canonical serialization

def _nat_text(x) -> str:
    return "omega" if x is OMEGA else str(x)


def _coord_text(c: tuple[str, int]) -> str:
    return f"{c[0]}.{c[1]}"


def _elem_text(x: Element) -> str:
    items = sorted(x.coeffs.items())
    if not items:
        return "{ }"
    return "{ " + ", ".join(f"{_coord_text(c)}: {v}" for c, v in items) + " }"


def _block_text(b) -> str:
    if isinstance(b, Cyclic):
        return f"cyclic(p={b.prime}, k={b.exp}, mult={_nat_text(b.mult)})"
    if isinstance(b, Prufer):
        return f"prufer(p={b.prime}, copies={_nat_text(b.copies)})"
    pi = ", ".join(str(p) for p in sorted(b.primes))
    return f"torsionfree(pi={{{pi}}}, rank={_nat_text(b.rank)})"


def _endo_entries(phi: Endo) -> list[str]:
    g = phi.group
    out: list[str] = []
    if phi.free_scalar:
        out.append(f"tf[{g.free_omega_name}] = {phi.free_scalar}")
    for (s, d), v in sorted(phi.tf.items()):
        out.append(f"tf[{_coord_text(s)} -> {_coord_text(d)}] = {v}")
    for p in sorted(phi.div):
        action = phi.div[p]
        if isinstance(action, dict):
            for (s, d), v in sorted(action.items()):
                out.append(f"div[{_coord_text(s)} -> {_coord_text(d)}] = {v}")
        else:
            name = next(n for n, b in g.prufer_items() if b.prime == p)
            out.append(f"div[{name}] = {action}")
    for name in sorted(phi.cyc):
        action = phi.cyc[name]
        if isinstance(action, dict):
            for (i, j), v in sorted(action.items()):
                out.append(f"cyc[{name}.{i} -> {name}.{j}] = {v}")
        else:
            out.append(f"cyc[{name}] = {action}")
    for (s, d), v in sorted(phi.tau.items()):
        out.append(f"tau[{_coord_text(s)} -> {_coord_text(d)}] = {v}")
    for key in sorted(phi.fin):
        if key[0] == "c":
            head = f"fin[{key[1]}.{key[2]}]"
        else:
            head = f"fin[{_coord_text(key[1])} mod {key[2]}]"
        out.append(f"{head} = {_elem_text(phi.fin[key])}")
    return out


def serialize(parsed: ParsedInput) -> str:
    """The canonical text of a parsed file."""
    lines = [f"group {parsed.group_name} {{"]
    for name, b in parsed.group.blocks:
        lines.append(f"  block {name} = {_block_text(b)}")
    lines.append("}")
    for name, phi in parsed.endos.items():
        lines.append("")
        lines.append(f"endo {name} on {parsed.group_name} {{")
        for entry in _endo_entries(phi):
            lines.append(f"  {entry};")
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON views of exact values

@cache
def _field_names(cls: type) -> tuple[str, ...]:
    """A record class's field names, read once per class rather than per record."""
    return tuple(f.name for f in fields(cls))


def _jv(x):
    if x is INF:
        return "inf"
    if x is OMEGA:
        return "omega"
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, JElement):
        return {"default": x.default,
                "exceptions": {str(p): str(v) for p, v in x.exceptions}}
    if isinstance(x, Endo):
        return _endo_entries(x)
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, (tuple, list)):
        return [_jv(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jv(v) for k, v in x.items()}
    if is_dataclass(x):
        return {name: _jv(getattr(x, name)) for name in _field_names(type(x))}
    raise UsageError(f"cannot encode {type(x).__name__} in a report")


# ---------------------------------------------------------------------------
# the session

# work caps: past one of these a run fails as a usage error before any work
MAX_COUNT = 1024         # finite mult, copies or rank of one block
MAX_LEVEL = 64           # truncation level of a shadow
MAX_SAMPLES = 10000      # sampled subgroups per level, or defect trials
MAX_BUDGET = 32          # depths explored per witness family
MAX_SHADOW_COORDS = 512  # coordinates of the shadow that oracle flattens
MAX_DIMENSION = 64       # dimension of the F_p-space defect reads
MAX_DEFECT_WORK = 10**6  # (p + samples) * max(n, 8)^2 for defect on F_p^n
# past this one defect still runs, and reports max_inert_codim as null
MAX_SUBSPACES = 4000  # subspaces of F_p^n that defect enumerates


@dataclass(frozen=True)
class SessionConfig:
    command: str
    inputs: tuple[str, ...]
    levels: tuple[int, ...] = (2, 4, 6, 8)
    samples: int = 40
    seed: int = 0
    budget: int = 6
    output: str | None = None
    enumerate_all: bool = False


def _check_config(config: SessionConfig) -> None:
    if config.command not in _RUNNERS:
        raise UsageError(f"unknown command {config.command!r}")
    if not config.inputs:
        raise UsageError("at least one input file is required")
    _check_levels(config.levels)
    if config.levels[-1] > MAX_LEVEL:
        raise UsageError(f"levels must be at most {MAX_LEVEL}")
    if config.samples < 1:
        raise UsageError("samples must be >= 1")
    if config.samples > MAX_SAMPLES:
        raise UsageError(f"samples must be at most {MAX_SAMPLES}")
    if config.budget < 1:
        raise UsageError("budget must be >= 1")
    if config.budget > MAX_BUDGET:
        raise UsageError(f"budget must be at most {MAX_BUDGET}")
    if not 0 <= config.seed < 2 ** 64:
        raise UsageError("the seed must fit in 64 bits")


def _check_work(config: SessionConfig, path: str, parsed: ParsedInput) -> None:
    """The limits that depend on a file's group and maps, checked before any work."""
    group = parsed.group
    if config.command == "oracle":
        top = config.levels[-1]
        shadow = truncate(group, top)
        width = sum(b.mult for _, b in shadow.group.blocks)
        if width > MAX_SHADOW_COORDS:
            raise UsageError(f"{path}: the level-{top} shadow has {width} coordinates; "
                             f"oracle flattens at most {MAX_SHADOW_COORDS}")
        for name, phi in parsed.endos.items():
            try:
                truncate_endo(phi, shadow)
            except UsageError as exc:
                raise UsageError(f"{path}: endo {name!r}: {exc}") from None
    if config.command == "defect":
        dim = sum(b.mult for _, b in group.blocks
                  if isinstance(b, Cyclic) and is_finite(b.mult))
        if dim > MAX_DIMENSION:
            raise UsageError(f"{path}: defect reads at most {MAX_DIMENSION} "
                             f"coordinates, not {dim}")
        # scalar_defect scans p scalars and growth_bound_check runs samples
        # trials, each a reduction of an n x n matrix
        p = max((b.prime for _, b in group.blocks if isinstance(b, Cyclic)),
                default=0)
        work = (p + config.samples) * max(dim, 8) ** 2
        if work > MAX_DEFECT_WORK:
            raise UsageError(f"{path}: defect work (p + samples) * max(n, 8)^2 is "
                             f"{work}; defect does at most {MAX_DEFECT_WORK}")


def _load(path: str) -> ParsedInput:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: {exc}") from None
    try:
        parsed = parse(text)
    except ParseError as exc:
        raise UsageError(f"{path}: {exc}") from None
    for name, phi in parsed.endos.items():
        defects = validate(phi)
        if defects:
            raise UsageError(f"{path}: endo {name!r}: " + "; ".join(defects))
    return parsed


# -- commands ----------------------------------------------------------------

def _run_analyze(config: SessionConfig, parsed: ParsedInput) -> dict:
    g = parsed.group
    inv = invariants(g)
    primes = {}
    for prof in inv.profiles:
        view = _jv(prof)
        primes[str(view.pop("prime"))] = view
    return {
        "group": parsed.group_name,
        "torsion_free_rank": _jv(g.torsion_free_rank),
        "periodic": g.is_periodic,
        "primes": primes,
        "finite_primes": _jv(inv.finite_primes),
        "bounded_primes": _jv(inv.bounded_primes),
        "critical_primes": _jv(inv.critical_primes),
        "nm_type": _jv(nm_type(g)),
        "h_descriptor": None if g.torsion_free_rank is OMEGA else _jv(h_descriptor(g)),
        "endos": {name: _jv(classify(phi)) for name, phi in parsed.endos.items()},
    }


def _run_check(config: SessionConfig, parsed: ParsedInput) -> dict:
    out = {}
    for name, phi in parsed.endos.items():
        cert, viols = is_inertial(phi)
        out[name] = {
            "verdict": "inertial" if cert is not None else "non-inertial",
            "certificate": _jv(cert),
            "violations": _jv(viols),
        }
    return out


def _run_decompose(config: SessionConfig, parsed: ParsedInput) -> dict:
    out = {}
    for name, phi in parsed.endos.items():
        try:
            parts = decompose(phi)
        except UsageError as exc:
            raise UsageError(f"endo {name!r}: {exc}") from None
        beta = is_uniform(parts.ui)
        try:
            h_class = None if beta is None else \
                _jv(HElement.make(h_descriptor(parsed.group), beta))
        except UsageError:
            h_class = None
        out[name] = {
            **_jv(parts),
            "sum_exact": equal(add(add(parts.sm, parts.ui), parts.nm), phi),
            "sm_semi": _jv(classify(parts.sm).semi),
            "ui_uniform": _jv(beta),
            "nm_mini": _jv(classify(parts.nm).mini),
            "ui_h_class": h_class,
        }
    return out


def _run_oracle(config: SessionConfig, parsed: ParsedInput) -> dict:
    out = {}
    phis = list(parsed.endos.values())
    # one pass per level gives both profiles; the FS one needs a periodic group
    periodic = parsed.group.is_periodic
    reads: dict | None = {} if config.enumerate_all else None
    evidence, fs_reports = _profiles(parsed.group, phis, config.levels, config.samples,
                                     config.seed, fs=periodic, reads=reads)
    views = [None] * len(phis)
    if config.enumerate_all:
        try:
            count, worst = _exhaust(parsed.group, phis, 2, reads.get(2))
            views = [{"level": 2, "subgroups": count, "max_index": _jv(w)} for w in worst]
        except UsageError as exc:
            views = [{"skipped": str(exc)} for _ in phis]
    for (name, phi), ev, fs, exhaustive in zip(parsed.endos.items(), evidence,
                                               fs_reports, views):
        cert, viols = is_inertial(phi)
        verdict = "inertial" if cert is not None else "non-inertial"
        witnesses = []
        if verdict == "non-inertial":
            seen: set[str] = set()
            for v in viols:
                if v.kind in seen:
                    continue
                seen.add(v.kind)
                fam = witness_search(parsed.group, phi, v, budget=config.budget)
                if fam is not None:
                    witnesses.append({
                        "kind": fam.kind, "prime": fam.prime,
                        "description": fam.description,
                        "depths": _jv(fam.depths),
                        "indices": _jv(fam.indices),
                        "generators": [[_elem_text(x) for x in s.generators]
                                       for s in fam.subgroups],
                    })
        consistent = not (
            (verdict == "inertial" and ev.verdict_hint == "growing")
            or (verdict == "non-inertial" and not witnesses
                and ev.verdict_hint == "stable"))
        view = {
            "verdict": verdict,
            "profile": {"per_level": _jv(ev.per_level),
                        "families": _jv(ev.sampled_families),
                        "hint": ev.verdict_hint},
            "fs_profile": _jv(fs) if periodic else None,
            "witnesses": witnesses,
            "consistent": consistent,
        }
        if exhaustive is not None:
            view["exhaustive"] = exhaustive
        out[name] = view
    return out


def _matrix_of(group: GroupDesc, phi: Endo) -> ExactMatrix:
    prime = None
    coords: list[tuple[str, int]] = []
    for name, b in group.blocks:
        if not isinstance(b, Cyclic) or b.exp != 1 or not is_finite(b.mult):
            raise UsageError(
                "defect needs an elementary abelian group "
                "(cyclic blocks with k=1 and finite mult)")
        if prime is None:
            prime = b.prime
        elif b.prime != prime:
            raise UsageError("defect needs a single prime")
        coords.extend((name, i) for i in range(b.mult))
    rows = []
    for c in coords:
        img = apply(phi, Element.unit(group, c[0], c[1]))
        rows.append([img.coeffs.get(d, 0) % prime for d in coords])
    return ExactMatrix(prime, rows)


def _run_defect(config: SessionConfig, parsed: ParsedInput) -> dict:
    out = {}
    for name, phi in parsed.endos.items():
        try:
            M = _matrix_of(parsed.group, phi)
        except UsageError as exc:
            raise UsageError(f"endo {name!r}: {exc}") from None
        growth = growth_bound_check(M, trials=config.samples, seed=config.seed)
        exhaustive = None
        if count_subspaces(M.field, M.n) <= MAX_SUBSPACES:
            exhaustive = max_inert_codim(M, budget=M.field ** M.n)
        out[name] = {
            "field": M.field, "dimension": M.n,
            "lam": _jv(growth.lam), "defect": growth.bound,
            "max_inert_codim": exhaustive,
            "growth": _jv(growth),
        }
    return out


# command -> its runner, which maps (config, one parsed file) to that file's view
_RUNNERS = {
    "analyze": _run_analyze, "check": _run_check, "decompose": _run_decompose,
    "oracle": _run_oracle, "defect": _run_defect,
}


def run(config: SessionConfig) -> tuple[int, str]:
    """Execute one command; returns (exit code, JSON report text)."""
    _check_config(config)
    files = {path: _load(path) for path in config.inputs}
    for path, parsed in files.items():
        _check_work(config, path, parsed)
    runner = _RUNNERS[config.command]
    results = {}
    for path, parsed in files.items():
        try:
            results[path] = runner(config, parsed)
        except UsageError as exc:
            raise UsageError(f"{path}: {exc}") from None
    # an oracle view whose two routes disagree exits 2
    contradiction = any(isinstance(view, dict) and view.get("consistent") is False
                        for views in results.values() for view in views.values())
    report = {
        "command": config.command,
        "inputs": {
            "files": {path: {"group": parsed.group_name,
                             "blocks": [n for n, _ in parsed.group.blocks],
                             "endos": list(parsed.endos)}
                      for path, parsed in files.items()},
            "levels": list(config.levels),
            "samples": config.samples,
            "budget": config.budget,
        },
        "results": results,
        "seed": config.seed,
        "version": __version__,
    }
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    return (2 if contradiction else 0), text


# ---------------------------------------------------------------------------
# entry point

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with status 2 by default; usage problems are 1 here
        raise UsageError(message)


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad levels {text!r}") from None


def main(argv: Sequence[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="abinertia",
        description="Analyze endomorphisms of finitely described abelian groups.")
    parser.add_argument("command", choices=list(_RUNNERS))
    parser.add_argument("inputs", nargs="+", metavar="FILE")
    parser.add_argument("--levels", default=",".join(map(str, SessionConfig.levels)),
                        help="comma-separated truncation levels")
    parser.add_argument("--samples", type=int, default=SessionConfig.samples,
                        help="sampled subgroups per level (and defect trials)")
    parser.add_argument("--seed", type=int, default=SessionConfig.seed)
    parser.add_argument("--budget", type=int, default=SessionConfig.budget,
                        help="depths explored per witness family")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--enumerate-all", action="store_true",
                        help="exhaust all subgroups of a tiny truncation")
    try:
        ns = parser.parse_args(argv)
        config = SessionConfig(
            command=ns.command, inputs=tuple(ns.inputs),
            levels=_parse_levels(ns.levels), samples=ns.samples, seed=ns.seed,
            budget=ns.budget, output=ns.out, enumerate_all=ns.enumerate_all)
        code, text = run(config)
        if config.output is None:
            sys.stdout.write(text)
        else:
            Path(config.output).write_text(text, encoding="utf-8")
        return code
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
