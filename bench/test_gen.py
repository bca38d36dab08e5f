"""Tests of the benchmark's input generator and independent counts.

    PYTHONPATH=src python3 -m pytest bench/test_gen.py
"""
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import workloads  # noqa: E402
from abinertia import cli, endokit, inertia  # noqa: E402

ROUNDS = ("rules", "oracle", "oracle-deep", "exhaust")


def _texts(name: str, seed: int, k: int, work: Path) -> list[str]:
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[name].make_round(seed, k, work)
    return [op.text for op in ops] + [f.read_text() for f in sorted(work.iterdir())]


def _cases(seed: int, count: int):
    rng = random.Random(seed)
    shapes = gen.PERIODIC_SHAPES + gen.MIXED_SHAPES
    for i in range(count):
        yield gen.make_case(rng, shapes[i % len(shapes)], i // len(shapes), 2, 2, f"_{i}")


@pytest.mark.parametrize("name", ROUNDS)
def test_same_seed_same_bytes(name, tmp_path):
    a = _texts(name, 7, 3, tmp_path / "a")
    b = _texts(name, 7, 3, tmp_path / "b")
    c = _texts(name, 8, 3, tmp_path / "c")
    assert a == b
    assert a != c


def test_case_text_is_deterministic():
    first = [c.text() for c in _cases(11, 40)]
    assert first == [c.text() for c in _cases(11, 40)]


def test_every_written_file_validates(tmp_path):
    texts = [text for name in ROUNDS for text in _texts(name, 3, 1, tmp_path / name)]
    texts += [case.text() for case in _cases(5, 200)]
    for text in texts:
        for endo, phi in cli.parse(text).endos.items():
            assert endokit.validate(phi) == [], (endo, text)


def test_planted_kinds_are_applicable_and_decided():
    seen = set()
    for case in _cases(13, 300):
        parsed = cli.parse(case.text())
        for e in case.endos:
            cert, violations = inertia.is_inertial(parsed.endos[e.name])
            if e.inertial:
                assert cert is not None, case.text()
                continue
            seen.add(e.kind)
            assert gen.applicable(case.group, e.kind)
            assert e.kind in {v.kind for v in violations}, case.text()
    assert seen == set(gen.KINDS)


def test_inapplicable_kind_is_refused():
    g = gen.shape_twin(0)
    assert not gen.applicable(g, gen.TAU_NONZERO)
    with pytest.raises(ValueError):
        gen.build_endo(g, random.Random(1), gen.TAU_NONZERO, "e0")


def test_generator_imports_no_decision_or_oracle_code():
    probe = ("import sys, gen; "
             "print(sorted(m for m in sys.modules if m.startswith('abinertia')))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=BENCH, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("lam,p,count", [
    ([2, 2], 2, 15), ([1, 1, 1, 1], 2, 67), ([2, 1, 1], 2, 27), ([3, 2], 2, 22),
    ([1, 1], 3, 6), ([2], 5, 3),
])
def test_subgroup_counts(lam, p, count):
    assert workloads.p_group_subgroups(lam, p) == count
