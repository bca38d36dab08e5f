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
reports is meaningful across runs.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from . import __version__
from .endokit import Endo, add, apply, classify, equal, validate
from .exactnum import (
    INF, OMEGA, JElement, Residue, UsageError, is_finite, is_prime,
)
from .groupkit import (
    Cyclic, Element, GroupDesc, HElement, Prufer, TorsionFree, h_descriptor,
    Truncation, invariants, nm_type, truncate,
)
from .inertia import decompose, is_inertial, is_uniform, ui_class_in_H
from .linmap import (
    ExactMatrix, count_subspaces, growth_bound_check, max_inert_codim,
    scalar_defect,
)
from .oracle import (
    FGSubgroup, enumerate_subgroups, fs_profile, index_in_sum, inertness_profile,
    truncate_endo, witness_search,
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
    line = 1
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
    toks.append(_Token("end", "", line, 1))
    return toks


# ---------------------------------------------------------------------------
# the parser

@dataclass(frozen=True, eq=False)
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParsedInput):
            return NotImplemented
        return (self.group_name == other.group_name
                and self.group == other.group and self.endos == other.endos)


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

    def expect_punct(self, text: str) -> _Token:
        t = self.take()
        if t.kind != "punct" or t.text != text:
            self.fail(f"expected {text!r}, found {t.text or 'end of input'!r}", t)
        return t

    def expect_name(self, what: str = "a name") -> _Token:
        t = self.take()
        if t.kind != "name":
            self.fail(f"expected {what}, found {t.text or 'end of input'!r}", t)
        return t

    def expect_keyword(self, word: str) -> _Token:
        t = self.take()
        if t.kind != "name" or t.text != word:
            self.fail(f"expected {word!r}, found {t.text or 'end of input'!r}", t)
        return t

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def at_name(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "name" and t.text == word

    # -- atoms --------------------------------------------------------------

    def integer(self) -> int:
        t = self.take()
        if t.kind != "int":
            self.fail(f"expected an integer, found {t.text or 'end of input'!r}", t)
        return int(t.text)

    def int_only(self) -> int:
        value = self.integer()
        if self.at_punct("/"):
            self.fail("expected an integer, not a rational")
        return value

    def rational(self) -> Fraction:
        num = self.integer()
        if self.at_punct("/"):
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
        if self.at_name("omega"):
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
        self.expect_punct(".")
        idx = self.integer()
        return (t.text, idx)

    def braced(self, item) -> _Token:
        """``{ item, item, ... }``, possibly empty; returns the opening brace."""
        brace = self.expect_punct("{")
        if not self.at_punct("}"):
            item()
            while self.at_punct(","):
                self.take()
                item()
        self.expect_punct("}")
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
            if t.kind == "name" and t.text == "group":
                if group is not None:
                    self.fail("a file describes a single group", t)
                name, group = self.group_decl()
            elif t.kind == "name" and t.text == "endo":
                if group is None:
                    self.fail("the group must come before its endomorphisms", t)
                self.endo_decl(name, group, endos)
            else:
                self.fail("expected a group or endo declaration", t)
        if group is None or name is None:
            raise ParseError("no group declaration", 1, 1)
        return ParsedInput(name, group, endos)

    def group_decl(self) -> tuple[str, GroupDesc]:
        head = self.expect_keyword("group")
        name = self.expect_name("a group name").text
        self.expect_punct("{")
        blocks: list[tuple[str, object]] = []
        seen: set[str] = set()
        while self.at_name("block"):
            self.take()
            btok = self.expect_name("a block name")
            if btok.text in seen:
                self.fail(f"duplicate block name {btok.text!r}", btok)
            seen.add(btok.text)
            self.expect_punct("=")
            blocks.append((btok.text, self.block_expr()))
        if not blocks:
            self.fail("a group needs at least one block")
        self.expect_punct("}")
        return name, self.build(head, GroupDesc, blocks)

    def block_expr(self):
        head = self.expect_name("a block kind")
        self.expect_punct("(")
        if head.text not in _BLOCK_KINDS:
            self.fail(f"unknown block kind {head.text!r}", head)
        kind, params = _BLOCK_KINDS[head.text]
        args = []
        for i, (key, read) in enumerate(params):
            if i:
                self.expect_punct(",")
            self.expect_keyword(key)
            self.expect_punct("=")
            args.append(read(self))
        self.expect_punct(")")
        return self.build(head, kind, *args)

    def endo_decl(self, group_name: str, group: GroupDesc,
                  endos: dict[str, Endo]) -> None:
        head = self.expect_keyword("endo")
        ntok = self.expect_name("an endo name")
        if ntok.text in endos:
            self.fail(f"duplicate endo name {ntok.text!r}", ntok)
        self.expect_keyword("on")
        gtok = self.expect_name("a group name")
        if gtok.text != group_name:
            self.fail(f"unknown group {gtok.text!r}", gtok)
        self.expect_punct("{")
        body = _EndoEntries(self, group)
        while not self.at_punct("}"):
            body.entry()
            if self.at_punct(";"):
                self.take()
        self.expect_punct("}")
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
        p.expect_punct("[")
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
        bare = p.at_punct("]")
        if bare and name == "tau":
            p.expect_punct(".")  # tau has no bare form: fails as a missing '.'
        if bare and name == "tf" and not (isinstance(blk, TorsionFree) and blk.rank is OMEGA):
            p.fail("the bare tf form needs the infinite-rank free block", stok)
        self.check_kind(stok, blk, src_kind)
        key = blk.prime if name == "div" else stok.text
        if bare:
            p.take()
            p.expect_punct("=")
            if (name, key) in self.claimed:
                p.fail(f"duplicate {name} entry for {self.slot_label(name, key)}", stok)
            self.claimed[(name, key)] = None
            if name == "tf":
                return {"free_scalar": p.int_only()}
            return {name: {key: p.rational() if name == "div" else p.int_only()}}
        p.expect_punct(".")
        src = (stok.text, p.integer())
        p.expect_punct("->")
        dtok = p.expect_name("a block name")
        if name == "cyc" and dtok.text != stok.text:
            p.fail("cyclic matrix entries stay within one block", dtok)
        dblk = self.block_of(dtok)
        p.expect_punct(".")
        dst = (dtok.text, p.integer())
        self.check_kind(dtok, dblk, dst_kind)
        if name == "div" and dblk.prime != blk.prime:
            p.fail("divisible entries stay within one prime", dtok)
        p.expect_punct("]")
        p.expect_punct("=")
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
        if p.at_name("mod"):
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
        p.expect_punct("]")
        p.expect_punct("=")
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
        p.expect_punct(":")
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

def _jv(x):
    if x is INF:
        return "inf"
    if x is OMEGA:
        return "omega"
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Residue):
        return {"value": x.value, "prime": x.prime, "exp": x.exp}
    if isinstance(x, JElement):
        return {"default": x.default,
                "exceptions": {str(p): str(v) for p, v in x.exceptions}}
    if isinstance(x, HElement):
        return {"descriptor": [[p, _jv(b), _jv(e)] for p, b, e in x.descriptor],
                "value": _jv(x.value)}
    if isinstance(x, Endo):
        return _endo_entries(x)
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, (tuple, list)):
        return [_jv(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jv(v) for k, v in x.items()}
    raise UsageError(f"cannot encode {type(x).__name__} in a report")


def _selector_view(sel) -> dict:
    return {"default": sel.default, "exceptions": sorted(sel.exceptions)}


# ---------------------------------------------------------------------------
# the session

_COMMANDS = ("analyze", "check", "decompose", "oracle", "defect")

# work caps: past one of these a run fails as a usage error before any work
MAX_COUNT = 1024         # finite mult, copies or rank of one block
MAX_LEVEL = 64           # truncation level of a shadow
MAX_SAMPLES = 10000      # sampled subgroups per level, or defect trials
MAX_BUDGET = 32          # depths explored per witness family
MAX_SHADOW_COORDS = 512  # coordinates oracle flattens on a periodic group
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
    if config.command not in _COMMANDS:
        raise UsageError(f"unknown command {config.command!r}")
    if not config.inputs:
        raise UsageError("at least one input file is required")
    if not config.levels or any(not isinstance(v, int) or v < 1
                                for v in config.levels) or \
            list(config.levels) != sorted(set(config.levels)):
        raise UsageError("levels must be strictly ascending positive integers")
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


def _check_work(config: SessionConfig, path: str, group: GroupDesc) -> None:
    """The work caps that depend on a file's group, checked before any work."""
    if config.command == "oracle" and group.is_periodic:
        top = config.levels[-1]
        width = sum(b.mult for _, b in truncate(group, top).group.blocks)
        if width > MAX_SHADOW_COORDS:
            raise UsageError(f"{path}: the level-{top} shadow has {width} coordinates; "
                             f"oracle flattens at most {MAX_SHADOW_COORDS}")
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

def _class_view(phi: Endo) -> dict:
    c = classify(phi)
    return {"finitary": c.finitary, "multiplication": _jv(c.multiplication),
            "quasi": _jv(c.quasi), "semi": _jv(c.semi), "mini": _jv(c.mini),
            "fm": _jv(c.fm)}


def _run_analyze(parsed: ParsedInput) -> dict:
    g = parsed.group
    inv = invariants(g)
    primes = {}
    for prof in inv.profiles:
        primes[str(prof.prime)] = {
            "max_exp": prof.max_exp, "omega_exp": prof.omega_exp,
            "prufer_rank": _jv(prof.prufer_rank), "tf_rank": _jv(prof.tf_rank),
            "bound": _jv(prof.bound),
            "essential_bound": _jv(prof.essential_bound),
            "reduced_bound": prof.reduced_bound, "critical": prof.critical,
        }
    if g.torsion_free_rank is OMEGA:
        descriptor = None
    else:
        descriptor = {str(p): [_jv(b), _jv(e)]
                      for p, (b, e) in sorted(h_descriptor(g).items())}
    return {
        "group": parsed.group_name,
        "torsion_free_rank": _jv(g.torsion_free_rank),
        "periodic": g.is_periodic,
        "primes": primes,
        "finite_primes": _selector_view(inv.finite_primes),
        "bounded_primes": _selector_view(inv.bounded_primes),
        "critical_primes": sorted(inv.critical_primes),
        "nm_type": {str(p): c for p, c in nm_type(g).items()},
        "h_descriptor": descriptor,
        "endos": {name: _class_view(phi) for name, phi in parsed.endos.items()},
    }


def _viol_view(v) -> dict:
    return {"kind": v.kind, "site": v.site, "hint": v.hint, "prime": v.prime}


def _cert_view(cert) -> dict:
    return {
        "r": _jv(cert.r), "pi": sorted(cert.pi),
        "per_prime": [{"prime": f.prime, "alpha_cyc": _jv(f.alpha_cyc),
                       "alpha_div": _jv(f.alpha_div), "bridged": f.bridged}
                      for f in cert.per_prime],
        "exempt": list(cert.exempt),
    }


def _run_check(parsed: ParsedInput) -> dict:
    out = {}
    for name, phi in parsed.endos.items():
        cert, viols = is_inertial(phi)
        out[name] = {
            "verdict": "inertial" if cert is not None else "non-inertial",
            "certificate": None if cert is None else _cert_view(cert),
            "violations": [_viol_view(v) for v in viols],
        }
    return out


def _run_decompose(parsed: ParsedInput) -> dict:
    out = {}
    for name, phi in parsed.endos.items():
        try:
            parts = decompose(phi)
        except UsageError as exc:
            raise UsageError(f"endo {name!r}: {exc}") from None
        try:
            h_class = _jv(ui_class_in_H(parts.ui))
        except UsageError:
            h_class = None
        out[name] = {
            "sm": _jv(parts.sm), "ui": _jv(parts.ui), "nm": _jv(parts.nm),
            "residual": _jv(parts.residual),
            "sum_exact": equal(add(add(parts.sm, parts.ui), parts.nm), phi),
            "sm_semi": _jv(classify(parts.sm).semi),
            "ui_uniform": _jv(is_uniform(parts.ui)),
            "nm_mini": _jv(classify(parts.nm).mini),
            "ui_h_class": h_class,
        }
    return out


def _shadow_subgroups(group: GroupDesc) -> tuple[Truncation, list[FGSubgroup] | str]:
    """The level-2 shadow with its subgroup list, or why it is not listed."""
    shadow = truncate(group, 2)
    order = shadow.group.order()
    if not is_finite(order) or order > 4096:
        return shadow, "the level-2 shadow is too large"
    try:
        return shadow, enumerate_subgroups(shadow.group, limit=4096)
    except UsageError as exc:
        return shadow, str(exc)


def _exhaustive_view(shadow: Truncation, subs: list[FGSubgroup] | str,
                     phi: Endo) -> dict:
    try:
        psi = truncate_endo(phi, shadow)
    except UsageError as exc:
        return {"skipped": str(exc)}
    if isinstance(subs, str):
        return {"skipped": subs}
    worst = max(index_in_sum(s, psi) for s in subs)
    return {"level": 2, "subgroups": len(subs), "max_index": _jv(worst)}


def _run_oracle(config: SessionConfig, parsed: ParsedInput) -> tuple[dict, bool]:
    out = {}
    contradiction = False
    if config.enumerate_all:
        shadow, subs = _shadow_subgroups(parsed.group)
    for name, phi in parsed.endos.items():
        cert, viols = is_inertial(phi)
        verdict = "inertial" if cert is not None else "non-inertial"
        ev = inertness_profile(parsed.group, phi, config.levels,
                               samples=config.samples, seed=config.seed)
        fs = None
        if parsed.group.is_periodic:
            fs = {str(k): v
                  for k, v in sorted(fs_profile(parsed.group, phi,
                                                config.levels).items())}
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
                        "depths": list(fam.depths),
                        "indices": [_jv(i) for i in fam.indices],
                        "generators": [[_elem_text(x) for x in s.generators]
                                       for s in fam.subgroups],
                    })
        consistent = not (
            (verdict == "inertial" and ev.verdict_hint == "growing")
            or (verdict == "non-inertial" and not witnesses
                and ev.verdict_hint == "stable"))
        view = {
            "verdict": verdict,
            "profile": {"per_level": [[lvl, _jv(ix)] for lvl, ix in ev.per_level],
                        "families": list(ev.sampled_families),
                        "hint": ev.verdict_hint},
            "fs_profile": fs,
            "witnesses": witnesses,
            "consistent": consistent,
        }
        if config.enumerate_all:
            view["exhaustive"] = _exhaustive_view(shadow, subs, phi)
        out[name] = view
        contradiction = contradiction or not consistent
    return out, contradiction


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
        res = scalar_defect(M)
        growth = growth_bound_check(M, trials=config.samples, seed=config.seed)
        exhaustive = None
        if count_subspaces(M.field, M.n) <= MAX_SUBSPACES:
            exhaustive = max_inert_codim(M, budget=M.field ** M.n)
        out[name] = {
            "field": M.field, "dimension": M.n,
            "lam": _jv(res.lam), "defect": res.defect,
            "max_inert_codim": exhaustive,
            "growth": {"trials": growth.trials, "max_growth": growth.max_growth,
                       "bound": growth.bound, "lam": _jv(growth.lam)},
        }
    return out


def run(config: SessionConfig) -> tuple[int, str]:
    """Execute one command; returns (exit code, JSON report text)."""
    _check_config(config)
    files = {path: _load(path) for path in config.inputs}
    for path, parsed in files.items():
        _check_work(config, path, parsed.group)
    results: dict[str, dict] = {}
    contradiction = False
    for path, parsed in files.items():
        if config.command == "analyze":
            results[path] = _run_analyze(parsed)
        elif config.command == "check":
            results[path] = _run_check(parsed)
        elif config.command == "decompose":
            results[path] = _run_decompose(parsed)
        elif config.command == "oracle":
            results[path], bad = _run_oracle(config, parsed)
            contradiction = contradiction or bad
        else:
            results[path] = _run_defect(config, parsed)
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
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("inputs", nargs="+", metavar="FILE")
    parser.add_argument("--levels", default="2,4,6,8",
                        help="comma-separated truncation levels")
    parser.add_argument("--samples", type=int, default=40,
                        help="sampled subgroups per level (and defect trials)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=6,
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
