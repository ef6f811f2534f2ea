"""Check that the Tier-1 suite kills a fixed list of one-line mutants of cptwb.

Usage: ``python tools/mutants.py``

Each mutant is one text edit, (file, old text, new text, why), that makes
the program wrong in a way some test should notice: a tolerance raised, a
check dropped, a count skipped.  Every edit's old text must occur exactly
once in its file, or the tool refuses to run (exit 2).  Then it copies the
tree to a temporary directory, runs the unmutated suite there once (exit 2
if it fails, since every mutant would then read as killed), and for each
mutant copies the tree afresh, applies the edit and runs Tier-1 with
``-x``, one process at a time.  It prints one line per mutant, ``killed``
with the first failing test, or ``survived``, and exits 1 if any mutant
survived, 0 otherwise.  The fifteen mutants take a few minutes on two
CPUs.

Mutation testing goes back to DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 11 (1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

_ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str  # relative to the tree's root
    old: str
    new: str
    why: str


_OPT, _LA = "src/cptwb/optimize.py", "src/cptwb/linalg.py"

MUTANTS = (
    Mutant(_OPT, "singles_converged = all(rep_a.converged) and all(rep_b.converged)",
           "singles_converged = True", "mult_check trusts unconverged singles"),
    Mutant(_OPT, "VIOLATION_MARGIN = 1e-7", "VIOLATION_MARGIN = 0.0",
           "a violation needs no margin"),
    Mutant(_OPT, "math.copysign(VIOLATION_MARGIN, p - 1.0)",
           "math.copysign(VIOLATION_MARGIN, 1.0 - p)", "the margin points the wrong way"),
    Mutant(_OPT, "violations[rows[bad]] += 1", "violations[rows[bad]] += 0",
           "monotonicity violations go uncounted"),
    Mutant(_OPT, "return (sign * tc >= sign * t - value_tol) & (np.abs(trc) >= _ZERO_TRACE)",
           "return np.abs(trc) >= _ZERO_TRACE", "the guard accepts any value"),
    Mutant(_LA, "HERM_TOL = 1e-12", "HERM_TOL = 1e-6", "non-Hermitian input accepted"),
    Mutant(_LA, "PSD_CLAMP = 1e-12", "PSD_CLAMP = 1e-6", "negative spectra clamped away"),
    Mutant(_LA, "RANK_TOL = 1e-8", "RANK_TOL = 1e-5", "a coarser rank cutoff"),
    Mutant("src/cptwb/decompose.py", "SUPPORT_TOL = 1e-8", "SUPPORT_TOL = 1e-3",
           "szarek_split accepts an off-support block"),
    Mutant(_OPT, "_ZERO_TRACE = 1e-14", "_ZERO_TRACE = 0.0", "zero-trace outputs accepted"),
    Mutant(_OPT, "(np.linalg.eigvalsh(m)[:, -1] - _expect(m, states)) <= value_tol",
           "(np.linalg.eigvalsh(m)[:, -1] - _expect(m, states)) <= 1e6 * value_tol",
           "the p >= 1 fixed-point test passes states short of stationary"),
    Mutant(_OPT, "np.abs(step) <= value_tol", "np.abs(step) <= 1e6 * value_tol",
           "p < 1 runs stop while still descending"),
    Mutant("src/cptwb/channels.py", "TP_TOL = 1e-10", "TP_TOL = 1e-4",
           "maps that miss trace preservation pass as channels"),
    Mutant(_OPT, "if np.shape(kept)[1:] != (d,) or len(kept) + len(streams) != slots:",
           "if False:", "a malformed haar goes unchecked"),
    Mutant(_OPT, "if p != 1.0 and t < sys.float_info.min:", "if False:",
           "an underflowed Tr Γ^p is reported as a norm"),
)

#: Tier-1 as the ROADMAP gives it, stopping at the first failure
_TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")

#: what the copy leaves out: version control, caches and run outputs
_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", "*.egg-info"
)


def refusals(root: Path, mutants) -> list[str]:
    """One line for each edit whose old text does not occur exactly once."""
    out = []
    for m in mutants:
        n = (root / m.path).read_text().count(m.old)
        if n != 1:
            out.append(f"{m.path}: old text occurs {n} times, need 1: {m.old!r}")
    return out


def _tier1(tree: Path) -> str | None:
    """Run Tier-1 in ``tree``: ``None`` if it passes, else the first failing
    test as pytest names it (or its exit code when it names none)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *_TIER1], cwd=tree, env=env, capture_output=True, text=True
    )
    if proc.returncode == 0:
        return None
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return f"exit code {proc.returncode}"


def run(root: Path, mutants, out) -> int:
    """Run every mutant of ``mutants`` on a copy of ``root``, reporting to the
    text stream ``out``; the exit code."""
    bad = refusals(root, mutants)
    if bad:
        print("\n".join(bad), file=out)
        return 2
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=_IGNORE)
        failed = _tier1(tree)
        if failed is not None:
            print(f"the unmutated suite fails: {failed}", file=out)
            return 2
        for m in mutants:
            shutil.rmtree(tree)
            shutil.copytree(root, tree, ignore=_IGNORE)
            f = tree / m.path
            f.write_text(f.read_text().replace(m.old, m.new))
            failed = _tier1(tree)
            survived += failed is None
            verdict = "survived" if failed is None else f"killed by {failed}"
            print(f"{m.path}: {m.why}: {verdict}", file=out, flush=True)
    print(f"{len(mutants) - survived} of {len(mutants)} mutants killed", file=out)
    return 1 if survived else 0


def main() -> int:
    return run(_ROOT, MUTANTS, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
