"""Description-file grammar, canonical round-trips, and report plumbing."""
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import abinertia
from abinertia import cli
from abinertia.cli import (
    MAX_COUNT, ParseError, ParsedInput, SessionConfig, main, parse, run, serialize,
)
from abinertia.endokit import add, classify, compose, sub, validate
from abinertia.exactnum import OMEGA, UsageError
from conftest import GROUPS, INERTIAL

F = Fraction
CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.txt"))

SEC3 = ("group A { block B = cyclic(p=5,k=1,mult=1)"
        " block C = torsionfree(pi={5},rank=1) }\n"
        "endo phi on A { tf[C.0->C.0] = 1/5 }\n")


def corpus(stem):
    path = Path(__file__).parent / "corpus" / f"{stem}.txt"
    return str(path)


def config(command, *stems, **kw):
    return SessionConfig(command, tuple(corpus(s) for s in stems), **kw)


# -- grammar ---------------------------------------------------------------

def test_quasi_example_parses_and_classifies():
    parsed = parse(SEC3)
    group, endos = parsed
    assert parsed.group_name == "A" and set(endos) == {"phi"}
    assert group.block("B").prime == 5
    receipt = classify(endos["phi"])
    assert receipt.quasi == (0, frozenset({5}), F(1, 5))


def test_empty_group_body_is_rejected():
    with pytest.raises(ParseError):
        parse("group A { }")


def test_errors_carry_line_and_column():
    text = "group A {\n  block B = cyclic(p=2, k=1, mult=1)\n  block B = prufer(p=2, copies=1)\n}\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == 3 and exc.value.col == 9
    assert "line 3, column 9" in str(exc.value)


def test_composite_prime_is_rejected():
    with pytest.raises(ParseError, match="9 is not prime"):
        parse("group A { block B = cyclic(p=9, k=1, mult=1) }")


def test_single_group_per_file():
    base = "group A { block B = cyclic(p=2,k=1,mult=1) }\n"
    with pytest.raises(ParseError, match="single group"):
        parse(base + base)
    with pytest.raises(ParseError, match="before its endomorphisms"):
        parse("endo e on A { }")
    with pytest.raises(ParseError, match="no group"):
        parse("# nothing here\n")


def test_reference_checks_are_positioned():
    base = "group A { block B = cyclic(p=2,k=1,mult=1) block D = prufer(p=2,copies=1) }\n"
    cases = [
        ("endo e on Z { }", "unknown group"),
        ("endo e on A { cyc[X] = 1; }", "unknown block"),
        ("endo e on A { cyc[D] = 1; }", "not a cyclic block"),
        ("endo e on A { div[B] = 1; }", "not a divisible block"),
        ("endo e on A { tf[B.0 -> B.0] = 1; }", "not a torsion-free block"),
        ("endo e on A { tf[D] = 1; }", "infinite-rank free block"),
        ("endo e on A { cyc[B] = 1; cyc[B] = 2; }", "duplicate cyc"),
        ("endo e on A { fin[B.0] = { }; fin[B.0] = { }; }", "duplicate fin"),
        ("endo e on A { cyc[B] = 1/2; }", "not a rational"),
        ("endo e on A { fin[B.0 mod 2] = { }; }", "torsion-free source"),
    ]
    for text, needle in cases:
        with pytest.raises(ParseError, match=needle):
            parse(base + text)


def test_entry_errors_point_at_the_entry():
    text = ("group A {\n  block B = cyclic(p=2, k=1, mult=3)\n"
            "  block C = cyclic(p=3, k=1, mult=1)\n}\n"
            "endo e on A {\n  cyc[B.0 -> B.5] = 1;\n}\n")
    with pytest.raises(ParseError, match="B.5 is out of range") as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (6, 3)
    assert "line 6, column 3" in str(exc.value)


def test_matrix_entries_stay_local():
    base = ("group A { block B = cyclic(p=2,k=1,mult=2)"
            " block C = cyclic(p=2,k=1,mult=2)"
            " block D = prufer(p=2,copies=1) block E = prufer(p=3,copies=1) }\n")
    with pytest.raises(ParseError, match="within one block"):
        parse(base + "endo e on A { cyc[B.0 -> C.0] = 1; }")
    with pytest.raises(ParseError, match="within one prime"):
        parse(base + "endo e on A { div[D.0 -> E.0] = 1; }")
    with pytest.raises(ParseError, match="already has a scalar"):
        parse(base + "endo e on A { div[D] = 1; div[D.0 -> D.0] = 1; }")


ENTRY_BASE = """group A {
  block B = cyclic(p=2, k=1, mult=2)
  block C = cyclic(p=2, k=1, mult=2)
  block D = prufer(p=2, copies=2)
  block P = prufer(p=3, copies=1)
  block T = torsionfree(pi={2}, rank=2)
  block L = torsionfree(pi={}, rank=omega)
}
endo e on A {
"""

# one malformed body per case: (entries from line 10, line, column, fragment)
ENTRY_DIAGNOSTICS = [
    ("frob[B] = 1;", 10, 3, "unknown entry map 'frob'"),
    # unknown source or target block, per map
    ("tf[X.0 -> T.0] = 1;", 10, 6, "unknown block 'X'"),
    ("div[X] = 1;", 10, 7, "unknown block 'X'"),
    ("cyc[X] = 1;", 10, 7, "unknown block 'X'"),
    ("tau[X.0 -> D.0] = 1;", 10, 7, "unknown block 'X'"),
    ("fin[X.0] = { };", 10, 7, "unknown block 'X'"),
    ("tf[T.0 -> X.0] = 1;", 10, 13, "unknown block 'X'"),
    ("div[D.0 -> X.0] = 1;", 10, 14, "unknown block 'X'"),
    ("tau[T.0 -> X.0] = 1;", 10, 14, "unknown block 'X'"),
    ("fin[B.0] = { X.0: 1 };", 10, 16, "unknown block 'X'"),
    # wrong source or target kind
    ("tf[B.0 -> T.0] = 1;", 10, 6, "'B' is not a torsion-free block"),
    ("tf[T.0 -> D.0] = 1;", 10, 13, "'D' is not a torsion-free block"),
    ("div[B] = 1;", 10, 7, "'B' is not a divisible block"),
    ("div[B.0 -> D.0] = 1;", 10, 7, "'B' is not a divisible block"),
    ("div[D.0 -> B.0] = 1;", 10, 14, "'B' is not a divisible block"),
    ("cyc[D] = 1;", 10, 7, "'D' is not a cyclic block"),
    ("cyc[D.0 -> D.0] = 1;", 10, 7, "'D' is not a cyclic block"),
    ("tau[B.0 -> D.0] = 1;", 10, 7, "'B' is not a torsion-free block"),
    ("tau[T.0 -> B.0] = 1;", 10, 14, "'B' is not a divisible block"),
    # cross-block cyc, cross-prime div
    ("cyc[B.0 -> C.0] = 1;", 10, 14, "within one block"),
    ("cyc[B.0 -> X.0] = 1;", 10, 14, "within one block"),
    ("div[D.0 -> P.0] = 1;", 10, 14, "within one prime"),
    # bare forms that do not exist
    ("tf[T] = 1;", 10, 6, "the bare tf form needs the infinite-rank free block"),
    ("tf[B] = 1;", 10, 6, "the bare tf form needs the infinite-rank free block"),
    ("tau[T] = 1;", 10, 8, "expected '.', found ']'"),
    # duplicate pair entries
    ("tf[T.0 -> T.1] = 1;\n  tf[T.0 -> T.1] = 2;", 11, 6,
     "duplicate tf entry T.0 -> T.1"),
    ("div[D.0 -> D.1] = 1;\n  div[D.0 -> D.1] = 2;", 11, 7,
     "duplicate div entry D.0 -> D.1"),
    ("cyc[B.0 -> B.1] = 1;\n  cyc[B.0 -> B.1] = 1;", 11, 7,
     "duplicate cyc entry B.0 -> B.1"),
    ("tau[T.0 -> D.0] = 1;\n  tau[T.0 -> D.0] = 2;", 11, 7,
     "duplicate tau entry T.0 -> D.0"),
    ("fin[B.0] = { C.0: 1 };\n  fin[B.0] = { C.1: 1 };", 11, 7,
     "duplicate fin entry"),
    ("fin[T.0 mod 2] = { C.0: 1 };\n  fin[T.0 mod 2] = { C.1: 1 };", 11, 7,
     "duplicate fin entry"),
    # duplicate bare entries
    ("tf[L] = 1;\n  tf[L] = 2;", 11, 6, "duplicate tf entry for 'L'"),
    ("div[D] = 1;\n  div[D] = 3;", 11, 7, "prime 2"),
    ("cyc[B] = 1;\n  cyc[B] = 1;", 11, 7, "duplicate cyc entry for 'B'"),
    # scalar before matrix, matrix before scalar
    ("div[D] = 1;\n  div[D.0 -> D.1] = 1;", 11, 7,
     "prime 2 already has a scalar action"),
    ("cyc[B] = 1;\n  cyc[B.0 -> B.1] = 1;", 11, 7,
     "'B' already has a scalar action"),
    ("div[D.0 -> D.1] = 1;\n  div[D] = 1;", 11, 7, "prime 2"),
    ("cyc[B.0 -> B.1] = 1;\n  cyc[B] = 1;", 11, 7, "duplicate cyc entry for 'B'"),
    # fin: the mod clause and the coefficient map
    ("fin[T.0 mod 0] = { B.0: 1 };", 10, 15, "the factor modulus must be >= 1"),
    ("fin[T.0] = { B.0: 1 };", 10, 7, "a torsion-free source needs a mod clause"),
    ("fin[B.0 mod 2] = { C.0: 1 };", 10, 7, "a mod clause needs a torsion-free source"),
    ("fin[B.0] = { C.0: 1, C.0: 1 };", 10, 24, "duplicate coefficient for C.0"),
    # entries that parse but fail on their own point at the entry's map
    ("tf[T.0 -> T.7] = 1;", 10, 3, "T.7 is out of range"),
    ("div[D.0 -> D.5] = 1;", 10, 3, "D.5 is out of range"),
    ("tau[T.5 -> D.0] = 1;", 10, 3, "T.5 is out of range"),
    ("fin[B.7] = { C.0: 1 };", 10, 3, "B.7 is out of range"),
    ("tf[L.0 -> L.0] = 1;", 10, 3, "L.0 is not a finite torsion-free copy"),
    # value types
    ("cyc[B] = 1/2;", 10, 13, "not a rational"),
    ("tf[L] = 1/2;", 10, 12, "not a rational"),
]


@pytest.mark.parametrize("body,line,col,fragment", ENTRY_DIAGNOSTICS,
                         ids=[" ".join(case[0].split()) for case in ENTRY_DIAGNOSTICS])
def test_every_entry_diagnostic_is_positioned(body, line, col, fragment):
    with pytest.raises(ParseError) as exc:
        parse(ENTRY_BASE + "  " + body + "\n}\n")
    assert (exc.value.line, exc.value.col) == (line, col), str(exc.value)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("text,col", [
    ("group A { block B = cyclic(p=2, k=², mult=1) }", 35),
    ("group A { block B = cyclic(p=٣, k=1, mult=1) }", 30),
    ("group A { block B = cyclic(p=2, k=1, mult=1٣) }", 44),
], ids=["superscript", "arabic-indic", "after-ascii"])
def test_integers_are_ascii_digits(tmp_path, capsys, text, col):
    with pytest.raises(ParseError, match="unexpected character") as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (1, col)
    path = tmp_path / "digits.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "line 1, column " in err


DECL_GROUP = "group A { block B = cyclic(p=2, k=1, mult=1) }\n"

# one malformed declaration per case: (text, line, column, message)
DECL_DIAGNOSTICS = [
    ("group A ( block B = cyclic(p=2, k=1, mult=1) }", 1, 9,
     "expected '{', found '('"),
    ("group A { block B cyclic(p=2, k=1, mult=1) }", 1, 19,
     "expected '=', found 'cyclic'"),
    ("group A { block B = cyclic(p=2 k=1, mult=1) }", 1, 32,
     "expected ',', found 'k'"),
    ("group A { block B = cyclic(q=2, k=1, mult=1) }", 1, 28,
     "expected 'p', found 'q'"),
    ("group A { block B = cyclic(p=2, k=1, mult=on) }", 1, 43,
     "expected an integer, found 'on'"),
    (DECL_GROUP + "endo e of A { }", 2, 8, "expected 'on', found 'of'"),
    (DECL_GROUP + "endo e on A { fin[B.0] = { B.0 1 } }", 2, 32,
     "expected ':', found '1'"),
    # end of input is placed just past the last token, not on a later line
    ("group A { block B = cyclic(p=2, k=1, mult=1)", 1, 45,
     "expected '}', found 'end of input'"),
    (DECL_GROUP + "endo e on A {\n  cyc[B] =\n\n", 3, 11,
     "expected an integer, found 'end of input'"),
]


@pytest.mark.parametrize("text,line,col,message", DECL_DIAGNOSTICS,
                         ids=[case[3] for case in DECL_DIAGNOSTICS])
def test_every_declaration_diagnostic_is_positioned(text, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"line {line}, column {col}: {message}"


def test_comments_and_omega_literals():
    text = ("# leading note\n"
            "group A {  # trailing note\n"
            "  block B = cyclic(p=2, k=3, mult=omega)\n"
            "  block L = torsionfree(pi={}, rank=omega)\n"
            "}\n")
    group, _ = parse(text)
    assert group.block("B").mult is OMEGA
    assert group.block("L").rank is OMEGA


def test_negative_rationals_parse():
    base = "group A { block C = torsionfree(pi={3}, rank=2) }\n"
    _, endos = parse(base + "endo e on A { tf[C.0 -> C.1] = -1/3; }")
    assert endos["e"].tf[(("C", 0), ("C", 1))] == F(-1, 3)


# -- canonical serialization --------------------------------------------------

def test_corpus_files_are_canonical_fixed_points():
    assert len(CORPUS) >= 6
    for path in CORPUS:
        text = path.read_text(encoding="utf-8")
        assert serialize(parse(text)) == text, path.name


def test_corpus_endos_validate_clean():
    for path in CORPUS:
        _, endos = parse(path.read_text(encoding="utf-8"))
        for name, phi in endos.items():
            assert validate(phi) == [], (path.name, name)


def test_serialize_is_a_projection():
    messy = ("group P { block D = prufer(p=3, copies=2)"
             " block B = cyclic(p=3, k=1, mult=2) }\n"
             "endo s on P {\n"
             "  div[D.1 -> D.1] = 2; div[D.0 -> D.0] = 2;\n"
             "  cyc[B.0->B.0]=0\n"
             "}\n")
    parsed = parse(messy)
    assert parsed.endos["s"].div == {3: F(2)}
    assert parsed.endos["s"].cyc == {}
    canon = serialize(parsed)
    assert "div[D] = 2;" in canon
    assert "cyc[" not in canon
    assert parse(canon) == parsed
    assert serialize(parse(canon)) == canon



def test_certified_endos_and_their_combinations_round_trip():
    # every certified endo, and every sum, difference and composite of an
    # ordered pair of them on one group, is a fixed point of parse∘serialize
    count = 0
    for key, fam in INERTIAL.items():
        maps = list(fam.values())
        maps += [op(a, b) for a in fam.values() for b in fam.values()
                 for op in (add, sub, compose)]
        for phi in maps:
            parsed = ParsedInput("A", GROUPS[key], {"e": phi})
            assert parse(serialize(parsed)) == parsed, (key, phi)
        count += len(maps)
    assert count == 1002

# -- sessions ------------------------------------------------------------------

def test_check_identity_is_inertial():
    code, text = run(config("check", "quasi"))
    assert code == 0
    report = json.loads(text)
    views = report["results"][corpus("quasi")]
    assert views["ident"]["verdict"] == "inertial"
    assert views["ident"]["violations"] == []
    assert views["phi"]["verdict"] == "inertial"
    assert views["phi"]["certificate"]["r"] == "1/5"


def test_check_and_oracle_agree_on_prufer_negatives():
    code, text = run(config("check", "prufer_pair"))
    assert code == 0
    views = json.loads(text)["results"][corpus("prufer_pair")]
    assert views["skew"]["verdict"] == "non-inertial"
    assert views["twist"]["verdict"] == "non-inertial"
    assert views["triple"]["verdict"] == "inertial"

    code, text = run(config("oracle", "prufer_pair", levels=(2, 3), samples=8,
                            budget=3))
    assert code == 0
    views = json.loads(text)["results"][corpus("prufer_pair")]
    for name in ("skew", "twist"):
        view = views[name]
        assert view["profile"]["hint"] == "growing"
        assert view["witnesses"] and view["consistent"]
        kinds = {w["kind"] for w in view["witnesses"]}
        assert kinds == {"DIV_NOT_SCALAR"}
    assert views["triple"]["profile"]["hint"] == "stable"
    assert views["triple"]["fs_profile"] == {"2": 1, "3": 1}


def _force_verdict(monkeypatch, verdict: str) -> None:
    """Let the rules give one verdict, with no violations, for every map."""
    cert = object() if verdict == "inertial" else None
    monkeypatch.setattr(cli, "is_inertial", lambda phi: (cert, ()))


def test_injected_verdict_trips_the_contradiction_exit(monkeypatch):
    _force_verdict(monkeypatch, "non-inertial")
    code, _ = run(config("oracle", "critical", levels=(2, 3), samples=8))
    assert code == 2
    _force_verdict(monkeypatch, "inertial")
    code, _ = run(config("oracle", "prufer_pair", levels=(2, 3), samples=8))
    assert code == 2


def test_reports_are_byte_identical_across_runs():
    cfg = config("oracle", "critical", "periodic", levels=(2, 3), samples=12,
                 seed=41)
    one = run(cfg)
    two = run(cfg)
    assert one == two
    reseeded = run(config("oracle", "critical", "periodic", levels=(2, 3),
                          samples=12, seed=42))
    assert reseeded[1] != one[1]


def test_report_shape_and_stamps():
    cfg = config("analyze", "mixed", seed=9)
    _, text = run(cfg)
    report = json.loads(text)
    assert list(report) == ["command", "inputs", "results", "seed", "version"]
    assert report["seed"] == 9
    assert report["version"] == abinertia.__version__
    assert text.startswith('{"command":"analyze"')
    view = report["results"][corpus("mixed")]
    assert view["torsion_free_rank"] == "omega"
    assert view["primes"]["2"]["critical"] is True
    assert view["h_descriptor"] is None


def test_analyze_reports_descriptor_and_bridge_type():
    _, text = run(config("analyze", "critical"))
    view = json.loads(text)["results"][corpus("critical")]
    assert view["nm_type"] == {"2": 2}
    assert view["h_descriptor"] == {"2": ["inf", "inf"]}
    assert view["endos"]["mini"]["mini"] == [1, [2]]


def test_decompose_command_reassembles():
    code, text = run(config("decompose", "critical"))
    assert code == 0
    views = json.loads(text)["results"][corpus("critical")]
    for name, view in views.items():
        assert view["sum_exact"] is True, name
    assert views["bridge"]["nm_mini"] == [2, [2]]
    assert views["bridge"]["ui_h_class"]["value"]["exceptions"] == {"2": "1"}


def test_decompose_rejects_non_inertial_input():
    with pytest.raises(UsageError, match="skew"):
        run(config("decompose", "prufer_pair"))


def test_defect_command_measures_matrices():
    _, text = run(config("defect", "vector", samples=30, seed=5))
    views = json.loads(text)["results"][corpus("vector")]
    assert views["scale"]["defect"] == 0
    assert views["scale"]["max_inert_codim"] == 0
    assert views["companion"]["defect"] == 2
    assert views["companion"]["max_inert_codim"] == 1
    for view in views.values():
        assert view["field"] == 2 and view["dimension"] == 3
        assert view["growth"]["max_growth"] <= view["growth"]["bound"]


def test_defect_measures_every_space_its_gate_admits(tmp_path, capsys):
    # (Z/7)^3 has 116 subspaces and (Z/17)^2 has 20, both under the
    # MAX_SUBSPACES gate, though p**n is past linmap's default budget
    for p, n in ((7, 3), (17, 2)):
        path = tmp_path / f"shift{p}.txt"
        path.write_text(
            f"group V {{\n  block A = cyclic(p={p}, k=1, mult={n})\n}}\n\n"
            "endo shift on V {\n  cyc[A.0 -> A.1] = 1;\n}\n", encoding="utf-8")
        assert main(["defect", str(path)]) == 0, (p, n)
        view = json.loads(capsys.readouterr().out)["results"][str(path)]["shift"]
        assert (view["field"], view["dimension"]) == (p, n)
        assert view["max_inert_codim"] == 1 == min(view["defect"], n // 2)


def test_defect_at_its_subspace_gate(tmp_path, capsys):
    # (Z/7)^4 has 3652 subspaces, just under the MAX_SUBSPACES gate of
    # 4000, and a scalar map grows none of them, so the search scans
    # them all; (Z/2)^7 has 29212 and is past the gate
    for p, n, expected in ((7, 4, 0), (2, 7, None)):
        path = tmp_path / f"scale{p}.txt"
        path.write_text(
            f"group V {{\n  block A = cyclic(p={p}, k=1, mult={n})\n}}\n\n"
            "endo scale on V {\n  cyc[A] = 3;\n}\n", encoding="utf-8")
        assert main(["defect", str(path)]) == 0, (p, n)
        view = json.loads(capsys.readouterr().out)["results"][str(path)]["scale"]
        assert (view["field"], view["dimension"], view["defect"]) == (p, n, 0)
        assert view["max_inert_codim"] == expected


def test_defect_needs_an_elementary_group():
    with pytest.raises(UsageError, match="elementary abelian"):
        run(config("defect", "critical"))


def test_refusals_name_the_file_that_failed(tmp_path, capsys):
    # the first file is fine, so only the path tells which input failed
    two = tmp_path / "two_primes.txt"
    two.write_text("group V {\n  block A = cyclic(p=2, k=1, mult=2)\n"
                   "  block B = cyclic(p=3, k=1, mult=1)\n}\n\n"
                   "endo bridge on V {\n  cyc[A] = 1;\n}\n", encoding="utf-8")
    cases = (
        ("defect", corpus("vector"), two, "endo 'bridge': defect needs a single prime"),
        ("decompose", corpus("critical"), Path(corpus("prufer_pair")),
         "endo 'skew': not inertial: DIV_NOT_SCALAR"),
    )
    for command, first, second, message in cases:
        assert main([command, first, str(second)]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {second}: {message}\n", captured.err


def test_oracle_exhaustive_shadow_check():
    _, text = run(config("oracle", "critical", levels=(2, 3), samples=8,
                         enumerate_all=True))
    views = json.loads(text)["results"][corpus("critical")]
    assert views["bridge"]["exhaustive"] == {
        "level": 2, "subgroups": 129, "max_index": 2}
    assert views["double"]["exhaustive"]["max_index"] == 1


def test_oracle_exhausts_the_periodic_shadow():
    # (Z/2)^2 + (Z/9)^3 at level 2: 5 * 445 subgroups, listed once per file
    _, text = run(config("oracle", "periodic", levels=(2,), samples=1,
                         enumerate_all=True))
    views = json.loads(text)["results"][corpus("periodic")]
    for name, worst in (("triple", 1), ("bridge3", 3), ("drop", 2)):
        assert views[name]["exhaustive"] == {
            "level": 2, "subgroups": 2225, "max_index": worst}


def test_exhaustive_views_skip_a_wide_lattice_and_read_a_trivial_shadow(tmp_path):
    # (Z/2)^7 has order 128 but 29,212 subgroups, past the walk's bound
    # of 20,000; a torsion-free group's shadow is trivial, one subgroup
    cases = (
        ("block A = cyclic(p=2, k=1, mult=7)", "cyc[A] = 1;",
         {"skipped": "the subgroup lattice is too large to enumerate"}),
        ("block V = torsionfree(pi={}, rank=1)", "tf[V.0 -> V.0] = 2;",
         {"level": 2, "subgroups": 1, "max_index": 1}),
    )
    path = tmp_path / "shadow.txt"
    for block, action, want in cases:
        path.write_text(f"group G {{\n  {block}\n}}\n\nendo e on G {{\n  {action}\n}}\n",
                        encoding="utf-8")
        _, text = run(SessionConfig("oracle", (str(path),), levels=(2,), samples=1,
                                    enumerate_all=True))
        assert json.loads(text)["results"][str(path)]["e"]["exhaustive"] == want, block


def test_exhaustive_views_do_not_depend_on_the_other_maps(tmp_path):
    """Each map's exhaustive view is the same in file order, reversed and alone."""
    path = tmp_path / "maps.txt"

    def views(parsed, names):
        endos = {name: parsed.endos[name] for name in names}
        path.write_text(serialize(ParsedInput(parsed.group_name, parsed.group, endos)),
                        encoding="utf-8")
        _, text = run(SessionConfig("oracle", (str(path),), levels=(2,), samples=1,
                                    enumerate_all=True))
        return {name: view["exhaustive"]
                for name, view in json.loads(text)["results"][str(path)].items()}

    worst = set()
    for file in CORPUS:
        parsed = parse(file.read_text(encoding="utf-8"))
        names = list(parsed.endos)
        # the 2225 subgroups of periodic.txt take 2 s a run; its views are
        # pinned by test_oracle_exhausts_the_periodic_shadow
        if len(names) < 2 or file.stem == "periodic":
            continue
        forward = views(parsed, names)
        assert views(parsed, names[::-1]) == forward, file
        for name in names:
            assert views(parsed, [name]) == {name: forward[name]}, (file, name)
        worst.add(tuple(view.get("max_index") for view in forward.values()))
    # some file's maps differ, so a swapped view would show
    assert any(len(set(w)) > 1 for w in worst)


@pytest.mark.parametrize("argv", [
    ["decompose", corpus("critical")],
    ["oracle", corpus("critical"), "--enumerate-all"],
])
def test_reports_do_not_depend_on_assertions(argv):
    # the library checks its invariants with explicit raises, so running
    # under python -O must change nothing
    src = str(Path(abinertia.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    outs = []
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-m", "abinertia.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]


def test_validation_failures_become_usage_errors(tmp_path):
    bad = tmp_path / "leak.txt"
    bad.write_text(SEC3.replace("1/5", "1/3"), encoding="utf-8")
    with pytest.raises(UsageError, match="escapes the target primes"):
        run(SessionConfig("check", (str(bad),)))


def test_config_validation():
    good = config("check", "quasi")
    for broken in (
        SessionConfig("explode", good.inputs),
        SessionConfig("check", ()),
        SessionConfig("check", good.inputs, levels=(4, 2)),
        SessionConfig("check", good.inputs, levels=()),
        SessionConfig("check", good.inputs, samples=0),
        SessionConfig("check", good.inputs, budget=0),
        SessionConfig("check", good.inputs, seed=-1),
    ):
        with pytest.raises(UsageError):
            run(broken)


# -- entry point -----------------------------------------------------------------

def test_main_writes_stdout_and_files(tmp_path, capsys):
    assert main(["check", corpus("quasi")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "check"

    out = tmp_path / "report.json"
    assert main(["check", corpus("quasi"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text(encoding="utf-8"))["command"] == "check"


def test_main_maps_usage_problems_to_exit_one(tmp_path, capsys):
    cases = (
        ["check", str(tmp_path / "missing.txt")],
        ["check", corpus("quasi"), "--levels", "4,2"],
        ["check", corpus("quasi"), "--levels", "two"],
        ["frobnicate", corpus("quasi")],
        ["decompose", corpus("prufer_pair")],
    )
    for argv in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:"), argv
    # each work cap fails before any input is read
    missing = str(tmp_path / "missing.txt")
    caps = (
        (["oracle", missing, "--levels", "2,65"], "levels must be at most 64"),
        (["oracle", missing, "--samples", "10001"], "samples must be at most 10000"),
        (["oracle", missing, "--budget", "33"], "budget must be at most 32"),
    )
    for argv, needle in caps:
        assert main(argv) == 1, argv
        assert needle in capsys.readouterr().err, argv
    assert main(["check", corpus("quasi"), "--levels", "64", "--samples",
                 "10000", "--budget", "32"]) == 0


def test_levels_follow_the_oracle_rule(capsys):
    # the CLI checks --levels with the oracle's own rule and words
    for levels, message in (("3,2", "levels must be strictly ascending"),
                            ("0", "levels must be positive integers")):
        assert main(["check", corpus("quasi"), "--levels", levels]) == 1, levels
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n", captured.err


def test_group_work_caps_fail_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a capped run started work")

    monkeypatch.setattr(cli, "_profiles", no_work)
    monkeypatch.setattr(cli, "growth_bound_check", no_work)
    cases = (
        ("oracle", "cyclic(p=2, k=1, mult=513)", (), "oracle flattens at most 512"),
        ("defect", "cyclic(p=2, k=1, mult=65)", (), "defect reads at most 64"),
        # (p + samples) * max(n, 8)^2 past 10^6: each took 9 s or more uncapped
        ("defect", "cyclic(p=100003, k=1, mult=2)", (), "defect work"),
        ("defect", "cyclic(p=2, k=1, mult=64)", ("--samples", "1000"), "defect work"),
        ("defect", "cyclic(p=2, k=1, mult=32)", ("--samples", "10000"), "defect work"),
    )
    for command, block, extra, needle in cases:
        path = tmp_path / "big.txt"
        path.write_text(f"group V {{\n  block A = {block}\n}}\n\n"
                        "endo e on V {\n  cyc[A] = 1;\n}\n", encoding="utf-8")
        assert main([command, str(path), *extra]) == 1, (block, extra)
        captured = capsys.readouterr()
        assert captured.out == "" and needle in captured.err, captured.err
    # (101 + 40) * 64^2 and (10007 + 40) * 8^2 stay under the defect cap
    for block in ("cyclic(p=101, k=1, mult=64)", "cyclic(p=10007, k=1, mult=2)"):
        path.write_text(f"group V {{\n  block A = {block}\n}}\n\n"
                        "endo e on V {\n  cyc[A] = 1;\n}\n", encoding="utf-8")
        with pytest.raises(AssertionError, match="started work"):
            main(["defect", str(path)])
    # eight omega blocks at level 64 and one finite coordinate
    blocks = "".join(f"  block B{i} = cyclic(p=2, k=1, mult=omega)\n" for i in range(8))
    path = tmp_path / "wide.txt"
    path.write_text(f"group W {{\n{blocks}  block F = prufer(p=3, copies=1)\n}}\n"
                    "endo e on W {\n  div[F] = 1;\n}\n", encoding="utf-8")
    assert main(["oracle", str(path), "--levels", "64"]) == 1
    assert "the level-64 shadow has 513 coordinates" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="started work"):  # 8 * 63 + 1 passes
        main(["oracle", str(path), "--levels", "63"])
    # a mixed group's shadow drops its torsion-free block, and its finite
    # blocks count whole at every level: 2 * 256 passes, 2 * 256 + 1 fails
    mixed = tmp_path / "mixed.txt"
    for extra, bad in ((0, False), (1, True)):
        mixed.write_text("group M {\n  block V = torsionfree(pi={}, rank=1)\n"
                         "  block A = cyclic(p=2, k=1, mult=256)\n"
                         f"  block B = cyclic(p=3, k=1, mult={256 + extra})\n}}\n"
                         "endo e on M {\n  tf[V.0 -> V.0] = 1;\n}\n", encoding="utf-8")
        if bad:
            assert main(["oracle", str(mixed), "--levels", "2"]) == 1
            err = capsys.readouterr().err
            assert "the level-2 shadow has 513 coordinates" in err, err
        else:
            with pytest.raises(AssertionError, match="started work"):
                main(["oracle", str(mixed), "--levels", "2"])


def test_an_untruncatable_map_fails_the_oracle_file(tmp_path, capsys):
    # a map whose shadow cannot be built fails the file before any work,
    # named with its path and map as the load errors are
    path = tmp_path / "cross.txt"
    path.write_text("group P {\n  block D = prufer(p=3, copies=1)\n"
                    "  block E = prufer(p=3, copies=1)\n}\n\n"
                    "endo fine on P {\n  div[D] = 2;\n}\n\n"
                    "endo cross on P {\n  div[D.0 -> E.0] = 1;\n}\n", encoding="utf-8")
    assert main(["oracle", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: endo 'cross': the shadow cannot carry "
                            "a divisible matrix across blocks\n")
    assert main(["check", str(path)]) == 0  # only the oracle builds shadows


def test_block_counts_are_capped_where_they_are_read(tmp_path, capsys):
    # one matrix entry on 10^6 copies took 10 s and 226 MB in decompose
    for block in (f"cyclic(p=2, k=1, mult={MAX_COUNT + 1})",
                  f"prufer(p=3, copies={MAX_COUNT + 1})",
                  f"torsionfree(pi={{}}, rank={MAX_COUNT + 1})"):
        line = f"  block A = {block}"
        col = line.index(str(MAX_COUNT + 1)) + 1
        path = tmp_path / "huge.txt"
        path.write_text(f"group H {{\n{line}\n}}\n", encoding="utf-8")
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: line 2, column {col}: a finite count "
                                f"is at most {MAX_COUNT}, not {MAX_COUNT + 1}\n")
    path.write_text(f"group H {{\n  block A = cyclic(p=2, k=1, mult={MAX_COUNT})\n}}\n"
                    "endo e on H {\n  cyc[A.0 -> A.1] = 1;\n}\n", encoding="utf-8")
    assert main(["decompose", str(path)]) == 0


def test_non_utf8_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"group A {\n  block B = cyclic(p=2, k=1, mult=1)\n}\n# \xff\n")
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert "0xff" in lines[0]


def test_periodic_corpus_fits_the_shadow_cap(capsys):
    # periodic.txt flattens 64 + 64 + 1 coordinates at level 64
    assert main(["oracle", corpus("periodic"), "--levels", "64", "--samples", "1",
                 "--budget", "1"]) == 0
    views = json.loads(capsys.readouterr().out)["results"][corpus("periodic")]
    assert views["triple"]["fs_profile"] == {"64": 1}


def test_main_reports_the_contradiction_exit(capsys, monkeypatch):
    _force_verdict(monkeypatch, "inertial")
    argv = ["oracle", corpus("prufer_pair"), "--levels", "2,3", "--samples", "8"]
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    views = report["results"][corpus("prufer_pair")]
    assert not views["skew"]["consistent"]


def test_parsed_input_equality():
    one = parse(SEC3)
    two = parse(serialize(one))
    assert one == two
    assert two != ParsedInput("B", one.group, one.endos)
