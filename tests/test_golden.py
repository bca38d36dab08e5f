"""Golden reports: CLI runs and demo output frozen under tests/golden/.

Each case is one command line of the ``abinertia`` entry point, or one
demo script, run in-process from the repository root.  Its golden file
holds the command, the exit code, stdout and stderr, so a change to a
report, an exit code or a diagnostic shows up as a byte difference.

To regenerate the goldens on purpose, after a change that is meant to
alter a report, run from the repository root

    PYTHONPATH=src python3 tests/test_golden.py

and review ``git diff tests/golden/`` before committing it.
"""
from __future__ import annotations

import contextlib
import io
import os
import runpy
from pathlib import Path

from abinertia.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CORPUS = sorted(p.relative_to(ROOT).as_posix()
                for p in (ROOT / "tests" / "corpus").glob("*.txt"))
DEMOS = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "demos").glob("*.py"))
# the one --enumerate-all report reads these files together, so a corpus
# file added later gets its own per-command goldens but leaves that
# report as it was recorded
ENUMERATED = [f"tests/corpus/{stem}.txt" for stem in
              ("critical", "mixed", "periodic", "prufer_pair", "quasi", "vector")]


def _cases() -> dict[str, list[str] | str]:
    """Golden file name -> CLI argv, or the path of a demo script."""
    cases: dict[str, list[str] | str] = {}
    for command in ("analyze", "check", "decompose", "defect", "oracle"):
        for path in CORPUS:
            cases[f"{command}-{Path(path).stem}"] = [command, path]
    cases["oracle-enumerate-all"] = ["oracle", *ENUMERATED, "--levels", "2,3",
                                     "--samples", "12", "--seed", "9",
                                     "--budget", "4", "--enumerate-all"]
    # deep shadows: 128 and 256 coordinates, moduli up to 2^32 and 3^32
    cases["oracle-deep_moduli-16-32"] = ["oracle", "tests/corpus/deep_moduli.txt",
                                         "--levels", "16,32"]
    for path in DEMOS:
        cases[f"demo-{Path(path).stem}"] = path
    return cases


def _record(case: list[str] | str) -> str:
    """The command, exit code, stdout and stderr of one case, as text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if isinstance(case, str):
            runpy.run_path(case, run_name="__main__")
            code, shown = 0, f"python {case}"
        else:
            code, shown = main(case), "abinertia " + " ".join(case)
    return (f"$ {shown}\nexit {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")


def test_reports_and_demos_match_the_goldens(monkeypatch):
    monkeypatch.chdir(ROOT)  # reports name their inputs by relative path
    cases = _cases()
    on_disk = {p.stem for p in GOLDEN.glob("*.txt")}
    assert on_disk == set(cases), "golden files and cases differ: " \
        f"missing {sorted(set(cases) - on_disk)}, stale {sorted(on_disk - set(cases))}"
    changed = [name for name, case in cases.items()
               if _record(case) != (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")]
    assert not changed, f"output differs from tests/golden/ for {changed}"


def _regenerate() -> None:
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.txt"):
        old.unlink()
    for name, case in _cases().items():
        (GOLDEN / f"{name}.txt").write_text(_record(case), encoding="utf-8")
        print(f"wrote tests/golden/{name}.txt")


if __name__ == "__main__":
    _regenerate()
