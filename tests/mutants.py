"""Mutation smoke set: one-line mutants of the library that the tests must catch.

Each mutant names a file under src/dsim, a text that occurs there exactly
once, its replacement, and the test subset that must fail once the text is
replaced.  The runner copies src/, tests/ and pyproject.toml into a temporary
directory, first runs every subset on the unmutated copy, where it must pass,
and then applies each mutant in turn to a fresh copy of the file and requires
its subset to fail.  Subsets stop at their first failure and draw their
Hypothesis examples from one fixed seed, so a run is repeatable.

    python tests/mutants.py              # every mutant
    python tests/mutants.py grid band    # the mutants whose name holds a word given

It exits 0 when every mutant is caught, and 1 when one survives, a subset
fails unmutated, or a mutant's text is not in its file exactly once.  pytest
collects only test_*.py, so this file is not part of the suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# The locator tests, marked in tests/test_dyadic_codec.py.
LOCATOR = ("tests/test_dyadic_codec.py", "-m", "locator")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    subset: tuple[str, ...]


MUTANTS = [
    # the comparison y < threshold, at depth 0 and in each kind of step
    Mutant("depth-zero <=", "src/dsim/dyadic_codec.py",
           "placed = inside & (ys < f.pdf(1.0 + shift)[which])",
           "placed = inside & (ys <= f.pdf(1.0 + shift)[which])", LOCATOR),
    Mutant("grid <=", "src/dsim/dyadic_codec.py",
           "hit = np.flatnonzero(ys.take(points) < hi)",
           "hit = np.flatnonzero(ys.take(points) <= hi)", LOCATOR),
    Mutant("band <=", "src/dsim/dyadic_codec.py",
           "hit = ys.take(idx) < f.pdf(x.ravel()).reshape(x.shape)",
           "hit = ys.take(idx) <= f.pdf(x.ravel()).reshape(x.shape)", LOCATOR),
    # the cell shift, one depth off, in each kind of step
    Mutant("grid cell shift", "src/dsim/dyadic_codec.py",
           "a = q.take(left) >> (MAX_DEPTH + 1 - k)",
           "a = q.take(left) >> (MAX_DEPTH - k)", LOCATOR),
    Mutant("band cell shift", "src/dsim/dyadic_codec.py",
           "cell = MAX_DEPTH + 1 - depth",
           "cell = MAX_DEPTH - depth", LOCATOR),
    # a band's last depth one short of MAX_DEPTH: the decisions stay the
    # same, as the next step takes depth 62 alone, but the f.pdf calls that
    # the tests replay from the schedule change
    Mutant("band end", "src/dsim/dyadic_codec.py",
           "min(W // idx.size, MAX_DEPTH + 1 - k)",
           "min(W // idx.size, MAX_DEPTH - k)", LOCATOR),
    # the left-half bit test inverted, in each kind of step
    Mutant("grid left half", "src/dsim/dyadic_codec.py",
           "left = np.flatnonzero((q & (1 << (MAX_DEPTH - k))) == 0)",
           "left = np.flatnonzero((q & (1 << (MAX_DEPTH - k))) != 0)", LOCATOR),
    Mutant("band left half", "src/dsim/dyadic_codec.py",
           "hit &= (q & (1 << (cell - 1))) == 0",
           "hit &= (q & (1 << (cell - 1))) != 0", LOCATOR),
    # grid steps taken down to half the points the schedule asks for: the
    # decisions stay the same, but one-depth bands become grid steps
    Mutant("grid threshold", "src/dsim/dyadic_codec.py",
           "max(W // 2, shift.size * 2 * cells)",
           "max(W // 2, shift.size * cells)", LOCATOR),
]


def run_subset(copy: Path, subset: tuple[str, ...]) -> tuple[int, str, float]:
    """Exit status, the failed test or else the summary line, and seconds of one pytest run in copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    args = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *subset]
    start = time.monotonic()
    done = subprocess.run(args, cwd=copy, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines() or [done.stderr.strip()]
    # the test that failed, if one did, else pytest's summary line
    return done.returncode, next((s for s in lines if s.startswith("FAILED")), lines[-1]), time.monotonic() - start


def main(words: list[str]) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="dsim-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for subset in dict.fromkeys(m.subset for m in chosen):
            status, last, took = run_subset(copy, subset)
            print(f"unmutated {' '.join(subset)}: exit {status} in {took:.0f} s: {last}", flush=True)
            failed += status != 0
        if failed:
            return 1
        for m in chosen:
            target = copy / m.path
            text = (ROOT / m.path).read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: {m.old!r} occurs {text.count(m.old)} times in {m.path}")
                failed += 1
                continue
            target.write_text(text.replace(m.old, m.new))
            try:
                status, last, took = run_subset(copy, m.subset)
            finally:
                target.write_text(text)
            caught = status == 1  # tests failed; other codes are usage or collection errors
            print(f"{m.name}: {'caught' if caught else 'SURVIVED'} (exit {status} in {took:.0f} s): {last}", flush=True)
            failed += not caught
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
