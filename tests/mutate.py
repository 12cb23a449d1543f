"""Mutation sweep: how much of a broken kernel does tier-1 catch?

Usage::

    python tests/mutate.py MODULE [FUNCTION ...] [--jobs N] [--list]

MODULE is a module of ``leakage_lab`` (``measures``, ``core``, ...), and
the FUNCTIONs are top-level functions or ``Class.method`` names in it;
without them every function of the module is mutated. A function's
nested functions are mutated with it.

Each mutant changes one operator of the set below, in a copy of the
repository made in a temporary directory, and runs tier-1 there with
``-x`` and the documented criterion-1d failure deselected. The module's
own test file runs first, so most mutants die within seconds. A mutant
survives when tier-1 passes. The script prints every survivor that is
not in ``EQUIVALENT`` with its line, every listed mutant that was killed
(the list is then stale), and the score: killed mutants over all
mutants, with the known equivalent ones left out.

Operators (DeMillo, Lipton & Sayward 1978):

* a comparison: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
  ``is`` and ``is not``, ``in`` and ``not in`` swapped;
* arithmetic, augmented assignments included: ``+`` and ``-``, ``*``
  and ``/`` swapped;
* a method or attribute: ``max`` and ``min``, ``argmax`` and ``argmin``,
  ``any`` and ``all`` swapped;
* an integer constant plus one (an index, a slice end, a shift, ...).

The mutated module is written with ``ast.unparse``, so the copy loses
its comments; the unmutated module goes through the same round trip and
must pass tier-1 before any mutant runs. Bytecode caching is off, so no
stale ``.pyc`` of an earlier mutant is ever imported. ``--jobs`` runs
that many copies at once, at most one per CPU.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import copy
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DESELECTED = "tests/test_acceptance.py::test_criterion_01d_bernoulli_maxinfo_lower_bound"

_COMPARISONS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
                ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
                ast.In: ast.NotIn, ast.NotIn: ast.In}
_ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_ATTRIBUTES = {"max": "min", "min": "max", "argmax": "argmin", "argmin": "argmax",
               "any": "all", "all": "any"}

# Mutants that compute the same values as the program, or differ only on
# a tolerance's own boundary, with the reason. Keys are the module and
# the id that the sweep prints.
EQUIVALENT = {
    "measures _log_clamped Lt->LtE #1":
        "moves only a log of exactly -1e-8, the refusal tolerance's own boundary",
    "measures _log_clamped LtE->Lt #1":
        "moves only a log of exactly 1e-8, the snap tolerance's own boundary",
    "measures mutual_information Lt->LtE #1":
        "a sum of exactly 0.0 returns 0.0 either way; the terms are +0.0, so it is never -0.0",
    "measures mutual_information Lt->LtE #2":
        "moves only a sum of exactly -1e-8, the tolerance's own boundary",
    "measures _ratio_order Gt->GtE #1":
        "cells with p = q = 0 sort first, not last; they add 0 to both prefix sums",
    "measures _ratio_order Gt->GtE #2":
        "0 / 0 = nan sorts last, where -inf put the cells with p = q = 0; p / 0 is +inf either way",
    "measures _approx_max_div_enumerated int+1 #4": "changes only the block size, which groups rows",
    "measures _approx_max_div_enumerated int+1 #5": "changes only the block size, which groups rows",
    "measures _approx_max_div_enumerated int+1 #6": "changes only the block size, which groups rows",
    "measures _approx_max_div_enumerated Sub->Add #1": "changes only the block size, which groups rows",
    "measures _joint_product_vectors int+1 #3": "numpy reads reshape(..., -2) as reshape(..., -1)",
    "measures _joint_product_vectors int+1 #4": "numpy reads reshape(..., -2) as reshape(..., -1)",
    "jsonio encode_extended Gt->GtE #1": "only an infinite x reaches the test, and it is never 0",
    "jsonio encode_extended int+1 #1": "only an infinite x reaches the test: +inf > 1 and -inf < 1",
}


class Site(ast.NodeVisitor):
    """Every mutation of one function, as (id, line, apply) in source order."""

    def __init__(self, name: str):
        self.name = name
        self.found: list[tuple[str, int, object]] = []
        self.seen: dict[str, int] = {}

    def add(self, kind: str, node: ast.AST, apply) -> None:
        self.seen[kind] = self.seen.get(kind, 0) + 1
        self.found.append((f"{self.name} {kind} #{self.seen[kind]}", node.lineno, apply))

    def visit_Compare(self, node: ast.Compare) -> None:
        for i, op in enumerate(node.ops):
            if type(op) in _COMPARISONS:
                swapped = _COMPARISONS[type(op)]
                self.add(f"{type(op).__name__}->{swapped.__name__}", node,
                         lambda n=node, i=i, s=swapped: n.ops.__setitem__(i, s()))
        self.generic_visit(node)

    def _arithmetic(self, node) -> None:
        if type(node.op) in _ARITHMETIC:
            swapped = _ARITHMETIC[type(node.op)]
            self.add(f"{type(node.op).__name__}->{swapped.__name__}", node,
                     lambda n=node, s=swapped: setattr(n, "op", s()))
        self.generic_visit(node)

    visit_BinOp = visit_AugAssign = _arithmetic

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _ATTRIBUTES:
            self.add(f".{node.attr}->.{_ATTRIBUTES[node.attr]}", node,
                     lambda n=node: setattr(n, "attr", _ATTRIBUTES[n.attr]))
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if type(node.value) is int:
            self.add("int+1", node, lambda n=node: setattr(n, "value", n.value + 1))


def functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions and ``Class.method`` methods of a module, by name."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found[f"{node.name}.{item.name}"] = item
    return found


def mutants(source: str, names: list[str]) -> list[tuple[str, int, str]]:
    """(id, line, mutated module source) for every mutation of the named functions."""
    tree = ast.parse(source)
    table = functions(tree)
    unknown = [name for name in names if name not in table]
    if unknown:
        sys.exit(f"no function {', '.join(unknown)} in the module")
    result = []
    for name in names or list(table):
        sites = Site(name)
        sites.visit(table[name])
        for index, (ident, line, _) in enumerate(sites.found):
            mutated = copy.deepcopy(tree)
            twin = Site(name)
            twin.visit(functions(mutated)[name])
            twin.found[index][2]()
            result.append((ident, line, ast.unparse(mutated)))
    return result


def run_tier1(workdir: Path, module: str, timeout: float) -> bool:
    """Whether tier-1 passes in ``workdir``; a timeout counts as a failure."""
    own = f"tests/test_{module.lstrip('_')}.py"
    first = [own] if (workdir / own).exists() else []
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--deselect", DESELECTED, *first, "."],
            cwd=workdir, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def make_copy(parent: Path) -> Path:
    workdir = Path(tempfile.mkdtemp(prefix="mutant-", dir=parent))
    shutil.copytree(ROOT, workdir, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", "*.egg-info"))
    return workdir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module")
    parser.add_argument("functions", nargs="*")
    parser.add_argument("--jobs", type=int, default=1, help="copies run at once, at most one per CPU")
    parser.add_argument("--list", action="store_true", help="list the mutants without running them")
    args = parser.parse_args(argv)
    jobs = max(1, min(args.jobs, os.cpu_count() or 1))

    path = Path("src/leakage_lab") / f"{args.module}.py"
    source = (ROOT / path).read_text(encoding="utf-8")
    found = mutants(source, args.functions)
    if args.list:
        for ident, line, _ in found:
            print(f"{path}:{line}  {ident}")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        copies: queue.Queue[Path] = queue.Queue()
        for _ in range(jobs):
            copies.put(make_copy(Path(scratch)))
        workdir = copies.get()
        (workdir / path).write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        start = time.monotonic()
        if not run_tier1(workdir, args.module, timeout=3600):
            sys.exit("tier-1 fails on the unmutated round trip; no mutant can be judged")
        timeout = 10 * (time.monotonic() - start) + 30
        copies.put(workdir)

        def judge(mutant):
            workdir = copies.get()
            try:
                (workdir / path).write_text(mutant[2], encoding="utf-8")
                passed = run_tier1(workdir, args.module, timeout)
                print(f"{mutant[0]}: {'survived' if passed else 'killed'}", file=sys.stderr, flush=True)
                return mutant, passed
            finally:
                copies.put(workdir)

        with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
            results = list(pool.map(judge, found))

    listed = {key.split(" ", 1)[1] for key in EQUIVALENT if key.split(" ", 1)[0] == args.module}
    survivors = [(ident, line) for (ident, line, _), passed in results if passed]
    equivalent = [ident for ident, _ in survivors if ident in listed]
    lines = source.splitlines()
    for ident, line in survivors:
        if ident not in listed:
            print(f"SURVIVED {path}:{line}  {ident}  |  {lines[line - 1].strip()}")
    for (ident, line, _), passed in results:
        if ident in listed and not passed:
            print(f"KILLED, yet listed as equivalent: {path}:{line}  {ident}")
    judged = len(found) - len(equivalent)
    killed = len(found) - len(survivors)
    print(f"{args.module}: killed {killed} of {judged} mutants "
          f"({len(found)} made, {len(equivalent)} known equivalent); "
          f"score {killed / judged:.3f}" if judged else f"{args.module}: no mutant to judge")
    return 0


if __name__ == "__main__":
    sys.exit(main())
