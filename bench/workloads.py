"""The benchmark's workloads: seeded rounds of operations and their checks.

A round is a fixed list of operations.  Its inputs come from the seed
and the round number, so every round of a workload does the same kinds
of work on fresh inputs, and no program cache carries one round's
inputs into the next.  Each operation runs through the library's public
entry points, addressed through their modules at call time, so the
traced run sees every call.  Checks run after a round, outside the
timed region, and report problems as strings.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from abinertia import cli, endokit, groupkit, inertia, oracle

DEEP_LEVELS = (8, 16)   # a shallow reference level and the deep one
# Rounds are composed so that the median and the tail percentile fall
# inside a broad cluster of operation costs, not at the edge between a
# cheap and a dear cluster, where they would jump with small changes of
# speed: `rules` repeats its dear shapes (the mixed ones) and gives its
# cheap ones (`twin`, `deep`, `pair`) more maps per file, `oracle`
# repeats its dear ones (the periodic ones, which also run fs_profile),
# and `oracle-deep` leaves out `pair`, whose shadow lattice has half the
# dimension of the others.
RULES_SHAPES = gen.PERIODIC_SHAPES + gen.MIXED_SHAPES * 2
RULES_MAPS = {gen.shape_twin: (3, 3), gen.shape_deep: (3, 3), gen.shape_pair: (3, 2)}
ORACLE_SHAPES = gen.PERIODIC_SHAPES * 2 + gen.MIXED_SHAPES
DEEP_SHAPES = (gen.shape_critical, gen.shape_twin, gen.shape_deep)


@dataclass
class Op:
    """One timed operation and the check of its output."""

    kind: str
    text: str                         # the description file it reads
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    tail_pct: int        # the percentile reported as op_tail_s
    min_ops: int         # operations needed for ten samples beyond it (more on
                         # rules, whose peak memory is read after 1000)
    warm_ops: int        # operations of a spare round run as warm-up
    make_round: Callable[[int, int, Path], list[Op]]


def _rng(seed: int, workload: str, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


class OperationFailed(Exception):
    """The program refused an operation: a nonzero exit code."""


def _report(config: cli.SessionConfig) -> dict:
    code, text = cli.run(config)
    if code != 0:
        raise OperationFailed(f"{config.command} {' '.join(config.inputs)} exited {code}")
    return json.loads(text)


# ---------------------------------------------------------------------------
# rules: the decision route alone

def _analyze_facts(g: gen.Group) -> tuple[bool, list[int]]:
    """Periodicity and critical primes, read off the block list: a prime
    is critical when an unbounded residue block sits next to a nonzero
    divisible part of finite rank."""
    crit = []
    for p in sorted({b[1] for _, b in g.of("cyclic")}):
        prufer = [b[2] for _, b in g.of("prufer") if b[1] == p]
        tf = [b for _, b in g.of("tf") if p in b[1]]
        if g.omega_cyclic(p) and (prufer or tf) and gen.OMEGA not in prufer:
            crit.append(p)
    return g.periodic, crit


def _endo_text(case: gen.Case, parts: dict[str, list[str]]) -> str:
    return gen.Case(case.group, tuple(gen.EndoCase(name, tuple(entries), None)
                                      for name, entries in parts.items())).text()


def _rules_op(case: gen.Case, path: str, inertial_path: str) -> Op:
    text = case.text()
    pair = [e.name for e in case.inertial[:2]]

    def run():
        parsed = cli.parse(text)
        canonical = cli.serialize(parsed)
        reports = {cmd: _report(cli.SessionConfig(cmd, (p,)))
                   for cmd, p in (("analyze", path), ("check", path),
                                  ("decompose", inertial_path))}
        a, b = (parsed.endos[n] for n in pair)
        ab, ba = endokit.compose(a, b), endokit.compose(b, a)
        ring = (endokit.add(a, b), ab, ba, endokit.sub(ab, ba))
        return parsed, canonical, reports, ring

    def check(out) -> list[str]:
        parsed, canonical, reports, (total, ab, ba, comm) = out
        bad = []
        if cli.parse(canonical) != parsed:
            bad.append("parse(serialize(x)) does not round-trip")
        analysis = reports["analyze"]["results"][path]
        if (analysis["periodic"], analysis["critical_primes"]) != _analyze_facts(case.group):
            bad.append("analyze disagrees with the block list")
        verdicts = reports["check"]["results"][path]
        for e in case.endos:
            got = verdicts[e.name]
            want = "inertial" if e.inertial else "non-inertial"
            if got["verdict"] != want:
                bad.append(f"{e.name}: verdict {got['verdict']}, built {want}")
            elif e.kind and e.kind not in {v["kind"] for v in got["violations"]}:
                bad.append(f"{e.name}: violations miss the planted {e.kind}")
        for name, parts in reports["decompose"]["results"][inertial_path].items():
            split = cli.parse(_endo_text(case, {k: parts[k] for k in ("sm", "ui", "nm")}))
            sm, ui, nm = (split.endos[k] for k in ("sm", "ui", "nm"))
            if endokit.add(sm, endokit.add(ui, nm)) != parsed.endos[name]:
                bad.append(f"{name}: sm + ui + nm != phi")
            if inertia.is_uniform(ui) is None:
                bad.append(f"{name}: ui is not uniform")
            if endokit.classify(nm).mini is None:
                bad.append(f"{name}: nm is not mini")
        for label, phi in (("sum", total), ("ab", ab), ("ba", ba)):
            if inertia.is_inertial(phi)[0] is None:
                bad.append(f"{label} of inertial maps is not inertial")
        if not endokit.is_finitary(comm):
            bad.append("commutator of inertial maps is not finitary")
        return bad

    return Op("rules", text, run, check)


def rules_round(seed: int, k: int, work: Path) -> list[Op]:
    rng = _rng(seed, "rules", k)
    ops = []
    for i, shape in enumerate(RULES_SHAPES):
        inertial, planted = RULES_MAPS.get(shape, (2, 2))
        case = gen.make_case(rng, shape, k + i, inertial, planted, f"_{k}_{i}")
        path = _write(work / f"rules-{k}-{i}.txt", case.text())
        inertial_path = _write(work / f"rules-{k}-{i}-inertial.txt",
                               case.text(only_inertial=True))
        ops.append(_rules_op(case, path, inertial_path))
    return ops


# ---------------------------------------------------------------------------
# oracle: the CLI oracle command at its defaults

def _oracle_op(case: gen.Case, path: str) -> Op:
    text = case.text()

    def run():
        return _report(cli.SessionConfig("oracle", (path,)))

    def check(out) -> list[str]:
        bad = []
        views = out["results"][path]
        for e in case.endos:
            v = views[e.name]
            if v["verdict"] != ("inertial" if e.inertial else "non-inertial"):
                bad.append(f"{e.name}: verdict {v['verdict']} against the template")
            elif e.inertial and v["profile"]["hint"] != "stable":
                bad.append(f"{e.name}: inertial but the profile grows")
            elif not e.inertial and not v["witnesses"] and v["profile"]["hint"] != "growing":
                bad.append(f"{e.name}: {e.kind} without witness or growth")
        return bad

    return Op("oracle", text, run, check)


# (prime of the divisible part, alpha - r): fixed DIV_VS_R_MISMATCH inputs
# whose offset is not a p-adic unit.  On the 2-adic ones the oracle
# command contradicts the rules and exits 2 (CHANGES.md, FOUND); the
# 3-adic ones pass on the growing profile alone, without a witness.
FIXED_MISMATCHES = ((2, 4), (2, 8), (2, 16), (3, 9), (3, 27))


def fixed_mismatch(k: int, p: int, offset: int) -> gen.Case:
    """Z[1/6]^2 + Z(p^inf) + an unbounded cyclic block of the other prime,
    with torsion-free scalar 5 and divisible scalar 5 + offset, so the
    rules report DIV_VS_R_MISMATCH.  It does not depend on the seed."""
    q, patch = (3, 6) if p == 2 else (2, 2)
    g = gen.Group((("V", ("tf", frozenset({2, 3}), 2)), ("D", ("prufer", p, 1)),
                   ("B", ("cyclic", q, 2, gen.OMEGA)))).renamed(f"_{k}_x{p}_{offset}")
    v, d, b = (n for n, _ in g.blocks)
    entries = (f"tf[{v}.0 -> {v}.0] = 5", f"tf[{v}.1 -> {v}.1] = 5", f"div[{d}] = {5 + offset}",
               f"cyc[{b}] = 3", f"fin[{b}.1] = {{ {b}.0: {patch} }}")
    return gen.Case(g, (gen.EndoCase("e0", entries, gen.DIV_VS_R_MISMATCH),))


def oracle_round(seed: int, k: int, work: Path) -> list[Op]:
    rng = _rng(seed, "oracle", k)
    cases = [gen.make_case(rng, shape, k + i, 2, 1, f"_{k}_{i}")
             for i, shape in enumerate(ORACLE_SHAPES)]
    cases += [fixed_mismatch(k, p, offset) for p, offset in FIXED_MISMATCHES]
    return [_oracle_op(case, _write(work / f"oracle-{k}-{i}.txt", case.text()))
            for i, case in enumerate(cases)]


# ---------------------------------------------------------------------------
# oracle-deep: profiles at a deep truncation level

def _deep_op(case: gen.Case) -> Op:
    text = case.text()
    endo = case.endos[0]

    def run():
        parsed = cli.parse(text)
        phi = parsed.endos[endo.name]
        return (oracle.inertness_profile(parsed.group, phi, DEEP_LEVELS),
                oracle.fs_profile(parsed.group, phi, DEEP_LEVELS))

    def check(out) -> list[str]:
        _, fs = out
        low, high = (fs[lv] for lv in DEEP_LEVELS)
        if endo.inertial and low != high:
            return [f"inertial map with FS profile {fs}, not flat"]
        if not endo.inertial and not high > low:
            return [f"{endo.kind} with FS profile {fs}, not growing"]
        return []

    return Op("deep", text, run, check)


def deep_round(seed: int, k: int, work: Path) -> list[Op]:
    rng = _rng(seed, "oracle-deep", k)
    return [_deep_op(gen.make_case(rng, shape, k + i, 1 - planted, planted,
                                   f"_{k}_{i}_{planted}"))
            for i, shape in enumerate(DEEP_SHAPES) for planted in (0, 1)]


# ---------------------------------------------------------------------------
# exhaust: every subgroup of a tiny shadow, and every subspace of F_p^n

def gaussian(n: int, k: int, p: int) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _conjugate(parts: list[int]) -> list[int]:
    return [sum(1 for x in parts if x > i) for i in range(max(parts, default=0))]


def _sub_partitions(lam: list[int], cap: int | None = None, i: int = 0):
    """Partitions mu with mu_j <= lam_j for every j (lam descending)."""
    if i == len(lam):
        yield []
        return
    top = lam[i] if cap is None else min(lam[i], cap)
    for v in range(top, -1, -1):
        for rest in _sub_partitions(lam, v, i + 1):
            yield [v] + rest


def p_group_subgroups(lam: list[int], p: int) -> int:
    """Subgroups of the abelian p-group of type lam: the sum over types
    mu inside lam of prod_i p^(mu'_{i+1} (lam'_i - mu'_i))
    [lam'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_p (Birkhoff)."""
    if all(x == 1 for x in lam):
        return sum(gaussian(len(lam), d, p) for d in range(len(lam) + 1))
    lc = _conjugate(lam)
    total = 0
    for mu in _sub_partitions(sorted(lam, reverse=True)):
        mc = _conjugate(mu) + [0] * (len(lc) + 1)
        term = 1
        for i, a in enumerate(lc):
            term *= p ** (mc[i + 1] * (a - mc[i])) * gaussian(a - mc[i + 1], mc[i] - mc[i + 1], p)
        total += term
    return total


def shadow_subgroups(g: gen.Group, level: int = 2) -> int:
    """Subgroup count of the level shadow, as a product over primes."""
    parts: dict[int, list[int]] = {}
    for _, b in g.blocks:
        if b[0] == "cyclic":
            n = level if b[3] == gen.OMEGA else b[3]
            parts.setdefault(b[1], []).extend([b[2]] * n)
        elif b[0] == "prufer":
            n = level if b[2] == gen.OMEGA else b[2]
            parts.setdefault(b[1], []).extend([level] * n)
    total = 1
    for p, lam in parts.items():
        total *= p_group_subgroups(lam, p)
    return total


# oracle --enumerate-all at one level and one sample, so that the
# enumeration of the level-2 shadow dominates the command
ENUMERATE_CONFIG = dict(levels=(2,), samples=1, enumerate_all=True)


def _enumerate_op(case: gen.Case, path: str) -> Op:
    text = case.text()

    def run():
        return _report(cli.SessionConfig("oracle", (path,), **ENUMERATE_CONFIG))

    def check(out) -> list[str]:
        bad = []
        want = shadow_subgroups(case.group)
        parsed = cli.parse(text)
        shadow = groupkit.truncate(parsed.group, 2)
        subs = oracle.enumerate_subgroups(shadow.group, limit=4096)
        if len(subs) != want:
            bad.append(f"{len(subs)} subgroups of {case.group.blocks}, counted {want}")
        views = out["results"][path]
        for e in case.endos:
            view = views[e.name]
            if view["verdict"] != ("inertial" if e.inertial else "non-inertial"):
                bad.append(f"{e.name}: verdict {view['verdict']} against the template")
            exhaustive = view["exhaustive"]
            if exhaustive.get("subgroups") != want:
                bad.append(f"{e.name}: {exhaustive} against {want} counted subgroups")
                continue
            psi = oracle.truncate_endo(parsed.endos[e.name], shadow)
            naive = []
            for s in subs:
                naive.append(oracle.naive_index_in_sum(s, psi))
                if oracle.index_in_sum(s, psi) != naive[-1]:
                    bad.append(f"index_in_sum differs from the coset count on {s.label}")
            if exhaustive["max_index"] != max(naive):
                bad.append(f"{e.name}: max index {exhaustive['max_index']}, "
                           f"coset count {max(naive)}")
        return bad

    return Op("enumerate", text, run, check)


def _defect_op(path: str, text: str) -> Op:
    def run():
        return _report(cli.SessionConfig("defect", (path,)))

    def check(out) -> list[str]:
        bad = []
        for name, v in out["results"][path].items():
            codim = v["max_inert_codim"]
            cap = min(v["defect"], v["dimension"] // 2)
            if codim is None or not v["growth"]["max_growth"] <= codim <= cap:
                bad.append(f"{name}: growth {v['growth']['max_growth']}, "
                           f"codim {codim}, cap {cap}")
        return bad

    return Op("defect", text, run, check)


# (group, maps): the map counts balance the enumerations at about a third
# of a second each; (p, n, matrices) likewise for the defect files.
TINY_GROUPS = tuple((gen.Group(blocks), maps) for blocks, maps in (
    ((("B", ("cyclic", 2, 1, gen.OMEGA)), ("D", ("prufer", 2, 1))), 6),
    ((("B", ("cyclic", 2, 2, gen.OMEGA)),), 12),
    ((("B", ("cyclic", 2, 1, gen.OMEGA)), ("K", ("cyclic", 2, 1, 2))), 4),
    ((("B", ("cyclic", 2, 1, gen.OMEGA)), ("C", ("cyclic", 3, 1, gen.OMEGA))), 1),
    ((("B", ("cyclic", 2, 1, gen.OMEGA)), ("D", ("prufer", 3, 1))), 1),
    ((("B", ("cyclic", 3, 1, gen.OMEGA)), ("K", ("cyclic", 3, 1, 1))), 3),
))
MATRIX_FILES = ((2, 6, 1), (3, 5, 2), (2, 5, 12), (2, 6, 1))


def exhaust_round(seed: int, k: int, work: Path) -> list[Op]:
    rng = _rng(seed, "exhaust", k)
    enum = []
    for g, maps in TINY_GROUPS:
        planted = next((x for x in gen.KINDS if gen.applicable(g, x)), None)
        kinds = [planted if i % 3 == 2 else None for i in range(maps)]
        g = g.renamed(f"_{k}_{len(enum)}")
        case = gen.Case(g, tuple(gen.build_endo(g, rng, kind, f"e{i}")
                                 for i, kind in enumerate(kinds)))
        enum.append(_enumerate_op(case, _write(work / f"exhaust-{k}-e{len(enum)}.txt",
                                               case.text())))
    texts = [gen.matrix_case(rng, p, n, c).text() for p, n, c in MATRIX_FILES]
    defect = [_defect_op(_write(work / f"exhaust-{k}-d{i}.txt", text), text)
              for i, text in enumerate(texts)]
    ops = []
    for i, op in enumerate(enum):
        ops.append(op)
        if i < len(defect):
            ops.append(defect[i])
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("rules", tail_pct=90, min_ops=1000, warm_ops=7, make_round=rules_round),
    Workload("oracle", tail_pct=75, min_ops=40, warm_ops=2, make_round=oracle_round),
    Workload("oracle-deep", tail_pct=75, min_ops=40, warm_ops=2, make_round=deep_round),
    Workload("exhaust", tail_pct=75, min_ops=40, warm_ops=2, make_round=exhaust_round),
)}
