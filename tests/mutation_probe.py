"""Mutation probe: would the tests notice if an explicit check were gone?

Each `if` statement in src/twistcert whose body raises is one site. For each
site, in a temporary copy of the repository, the probe replaces that `if`'s
condition by `False` and runs the tier-1 suite with `-x`. A mutant is killed
when the suite fails; a survivor names a check that no test reaches. At most
two suites run at a time, each in its own copy, and each suite's address
space is capped, since a mutant may grow an integer without bound (with
`mat_pow`'s `k < 0` check gone, a negative power squares forever).

    python tests/mutation_probe.py [FILTER ...]

A FILTER keeps the sites whose `file:line` contains it (e.g. `surgery.py`
or `polynomials.py:181`). The probe prints one line per site and then the
killed/total count, and exits 1 when a mutant survives. The whole run takes
about ten minutes on two cores.
"""
from __future__ import annotations

import ast
import os
import queue
import resource
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "twistcert"
JOBS = 2
TIMEOUT_S = 120
MEMORY_BYTES = 2 << 30
SUITE = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def sites() -> list[tuple[Path, ast.expr]]:
    """(module path relative to the root, condition) of each `if` that raises."""
    found = []
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes())):
            if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
                found.append((path.relative_to(ROOT), node.test))
    return sorted(found, key=lambda site: (str(site[0]), site[1].lineno))


def mutate(source: bytes, test: ast.expr) -> bytes:
    """The source with the condition's span replaced by `False`; ast column
    offsets count UTF-8 bytes."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = starts[test.lineno - 1] + test.col_offset
    end = starts[test.end_lineno - 1] + test.end_col_offset
    return source[:begin] + b"False" + source[end:]


def run_suite(copy: Path) -> tuple[int, str]:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(SUITE, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else done.stderr.strip()[-200:]


def main(filters: list[str]) -> int:
    chosen = [(path, test) for path, test in sites()
              if not filters or any(f in f"{path}:{test.lineno}" for f in filters)]
    if not chosen:
        sys.stderr.write("error: no site matches\n")
        return 2
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]   # the suites inherit the soft cap
    soft = MEMORY_BYTES if hard == resource.RLIM_INFINITY else min(MEMORY_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    workdir = Path(tempfile.mkdtemp(prefix="twistcert-mutants-"))
    copies: queue.Queue[Path] = queue.Queue()
    try:
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
        dirs = [Path(shutil.copytree(ROOT, workdir / f"copy{n}", ignore=ignore))
                for n in range(min(JOBS, len(chosen)))]
        for copy in dirs:
            copies.put(copy)
        code, summary = run_suite(dirs[0])
        if code != 0:
            sys.stderr.write(f"error: the unmutated suite fails: {summary}\n")
            return 2

        def probe(site: tuple[Path, ast.expr]) -> tuple[str, bool, str]:
            path, test = site
            copy = copies.get()
            target = copy / path
            original = target.read_bytes()
            try:
                target.write_bytes(mutate(original, test))
                code, summary = run_suite(copy)
            finally:
                target.write_bytes(original)
                copies.put(copy)
            return f"{path.name}:{test.lineno}", code != 0, summary

        killed = 0
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            for name, dead, summary in pool.map(probe, chosen):
                killed += dead
                print(f"{'killed ' if dead else 'SURVIVED'} {name}  [{summary}]", flush=True)
        print(f"killed {killed}/{len(chosen)}")
        return 0 if killed == len(chosen) else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
