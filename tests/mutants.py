"""Mutation sweep over the check sites of relroots: can every check fire?

    python tests/mutants.py [--jobs N] [--out FILE]

Every ``require(cond, ...)`` call in ``src/relroots`` is found by AST.  For
each one, in turn, the script copies ``src``, ``tests``, ``perfbench`` and
``pyproject.toml`` into a temporary directory, replaces ``cond`` by
``True`` there (line numbers are kept) and runs the tier-1 suite on the
copy without ``-x``, so it lists every test that kills the mutant, not only
the first.  A mutant that no test kills is a survivor: a check that no test
can make fire.  The suite is first run once unmutated, and a test that
fails there counts for no mutant.

The result goes to ``MUTANTS.json`` at the root of the repository, next to
the ``BENCH_*.json`` files, unless ``--out`` names another file.  pytest
does not collect this file (its name does not start with ``test_``).  One
sweep runs the suite once per check site: 29 to 37 minutes with ``--jobs 2`` on
a two-vCPU machine.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "relroots"
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]
FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$")  # an id may hold spaces


def check_sites():
    """(module, line, end line, start column, end column, condition source,
    message) of every ``require`` call of ``src/relroots``, in file and line
    order."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "require" and node.args):
                cond, msg = node.args[0], node.args[1] if len(node.args) > 1 else None
                sites.append((path.stem, cond.lineno, cond.end_lineno, cond.col_offset,
                              cond.end_col_offset, ast.get_source_segment(text, cond),
                              msg.value if isinstance(msg, ast.Constant) else None))
    return sorted(sites)


def mutate(text, line, end_line, col, end_col):
    """``text`` with the span (line, col)..(end_line, end_col), 1-based
    lines, replaced by ``True``; the newlines of the span are kept."""
    lines = text.splitlines(keepends=True)
    head = "".join(lines[:line - 1]) + lines[line - 1][:col]
    tail = lines[end_line - 1][end_col:] + "".join(lines[end_line:])
    return head + "(True" + "\n" * (end_line - line) + ")" + tail


def run_suite(site=None):
    """The ids of the failing tests of one suite run on a fresh copy, with
    the condition of ``site`` replaced by ``True`` if one is given."""
    with tempfile.TemporaryDirectory(prefix="relroots-mutant-") as tmp:
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, Path(tmp) / name,
                                ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy(src, Path(tmp) / name)
        if site is not None:
            module, line, end_line, col, end_col = site[:5]
            path = Path(tmp) / "src" / "relroots" / (module + ".py")
            path.write_text(mutate(path.read_text(), line, end_line, col, end_col))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(PYTEST, cwd=tmp, env=env, capture_output=True, text=True)
    return sorted({m.group(1) for m in map(FAILED.match, proc.stdout.splitlines()) if m})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="suites run at once")
    parser.add_argument("--out", default=str(ROOT / "MUTANTS.json"))
    args = parser.parse_args(argv)
    sites = check_sites()
    start = time.time()
    baseline = set(run_suite())
    print("baseline: %d failing tests; %d check sites" % (len(baseline), len(sites)),
          flush=True)

    def sweep(site):
        killers = [t for t in run_suite(site) if t not in baseline]
        print("%s:%d %s" % (site[0], site[1], len(killers) or "SURVIVED"), flush=True)
        return killers

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        killed = list(pool.map(sweep, sites))
    mutants = [{"module": s[0], "line": s[1], "check": s[5], "message": s[6],
                "killed_by": k} for s, k in zip(sites, killed)]
    result = {
        "label": "mutants",
        "method": "python tests/mutants.py --jobs %d: each require(cond, ...) of "
                  "src/relroots with cond replaced by True, in a fresh copy, then the "
                  "tier-1 suite (pytest -q, no -x) on that copy; killed_by lists every "
                  "test that fails on the mutant and not on the unmutated copy"
                  % args.jobs,
        "machine": {"python": platform.python_version(),
                    "os": "%s %s" % (platform.system(), platform.machine()),
                    "cpus": os.cpu_count()},
        "wall_s": round(time.time() - start),
        "baseline_failures": sorted(baseline),
        "sites": len(mutants),
        "survivors": ["%s:%d" % (m["module"], m["line"]) for m in mutants
                      if not m["killed_by"]],
        "mutants": mutants,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print("%d of %d mutants survived; wrote %s"
          % (len(result["survivors"]), len(mutants), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
