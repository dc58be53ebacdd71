"""Process-independent determinism.

The builtin ``hash`` of a string (and of tuples holding strings) is
salted per process (``PYTHONHASHSEED``), so anything derived from it --
a workload seed, a shard placement -- changes from run to run.  These
tests pin that the experiments generate the same workloads in
every process and that ``src/`` never calls ``hash()`` outside a
``__hash__`` method (where per-process values are fine: they never
leave the process).
"""

import ast
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

_EXP3_ROWS = """
import json
from repro.experiments import run_experiment3

rows = run_experiment3(
    sizes=(120,),
    k_values=(2, 3),
    distributions=("uniform", "zipf"),
    include_combinatorial=False,
    timeout=30.0,
)
print(json.dumps([
    [r.dataset, r.distribution, r.tuples, r.equalities,
     r.fdb_size_singletons, repr(r.flat_size_elements)]
    for r in rows
]))
"""


def _exp3_rows(hash_seed: str):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", _EXP3_ROWS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_experiment3_workloads_do_not_depend_on_hash_seed():
    first, second = _exp3_rows("0"), _exp3_rows("1")
    assert len(first) == 4
    assert first == second


def _hash_calls_outside_dunder_hash(tree: ast.AST):
    """Line numbers of ``hash(...)`` calls not inside ``__hash__``."""
    found = []

    def visit(node, in_dunder_hash):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_dunder_hash = node.name == "__hash__"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and not in_dunder_hash
        ):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_dunder_hash)

    visit(tree, False)
    return found


def test_src_calls_builtin_hash_only_in_dunder_hash():
    offenders, checked = [], 0
    for directory, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            checked += 1
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            offenders += [
                f"{os.path.relpath(path, ROOT)}:{line}"
                for line in _hash_calls_outside_dunder_hash(tree)
            ]
    assert checked > 50
    assert not offenders, (
        "builtin hash() is salted per process; derive stable values "
        f"with zlib.crc32 instead: {offenders}"
    )
