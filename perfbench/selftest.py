"""Self-test of the benchmark, at tiny scale.

    python3 perfbench/selftest.py

1. Every workload runs end to end under two seeds, untraced and
   traced; each run must exit 0 with ``failed == 0`` and emit every
   metric ``BENCHMARK.json`` names, with its unit.
2. Wrong answers are caught: with the first rows corrupted on their
   way out of ``FactorisedRelation.rows``, every workload reports
   failures.
3. Without the program (a directory holding only ``BENCHMARK.json``
   and ``perfbench/``), the command exits non-zero and prints no
   result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import ROOT, make_workdir, remove_workdir, require_program

SEEDS = (1, 2)
SECONDS = "1"


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def check_runs() -> None:
    spec = _spec()
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                out = _run(
                    ROOT,
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", SECONDS,
                    "--trace", str(trace),
                    "--scale", "tiny",
                )
                where = f"{workload} seed {seed} trace {trace}"
                assert out.returncode == 0, f"{where}: {out.stderr[-2000:]}"
                last = json.loads(out.stdout.strip().splitlines()[-1])
                assert last["correct"] and last["failed"] == 0, (
                    f"{where}: {out.stdout[-3000:]}"
                )
                assert last["attempted"] >= 1
                wanted = {m["name"]: m["unit"] for m in spec[group]}
                got = {k: v["unit"] for k, v in last["metrics"].items()}
                assert got == wanted, f"{where}: {got} != {wanted}"
                print(f"ok  {where}: {last['attempted']} operations")


def check_wrong_answers_fail() -> None:
    require_program()
    import local
    import served
    import workloads
    from repro import persist
    from repro.core.factorised import FactorisedRelation

    scale = workloads.SCALES["tiny"]
    original = FactorisedRelation.rows

    def corrupted(self, attributes=None):
        for i, row in enumerate(original(self, attributes)):
            yield (row[0] + 10**6,) + row[1:] if i == 0 else row

    workdir = make_workdir()
    FactorisedRelation.rows = corrupted
    try:
        fdbp = workdir / "db.fdbp"
        persist.save(workloads.database(scale), str(fdbp))
        for workload in ("served-hot", "served-mutate"):
            phase = served.phase(workload, scale, 1, 0.5, fdbp, workdir, False)
            assert phase["run"].failed > 0, workload
            print(f"ok  {workload}: wrong rows reported as failures")
        phase = local.phase(scale, 0.5, fdbp, False)
        assert phase["run"].failed > 0, "local-explore"
        print("ok  local-explore: wrong rows reported as failures")
    finally:
        FactorisedRelation.rows = original
        remove_workdir(workdir)


def check_missing_program() -> None:
    bare = make_workdir()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            ROOT / "perfbench",
            bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        out = _run(
            bare, "--workload", "served-hot", "--seed", "1",
            "--seconds", SECONDS, "--trace", "0",
        )
        assert out.returncode != 0, out.stdout
        assert "correct" not in out.stdout, out.stdout
    finally:
        remove_workdir(bare)
    print(f"ok  no program: exit {out.returncode}, no result printed")


def main() -> int:
    check_runs()
    check_wrong_answers_fail()
    check_missing_program()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
