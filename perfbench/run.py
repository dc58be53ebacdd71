"""The benchmark's single command.

    python3 perfbench/run.py --workload served-hot --seed 1 --seconds 12 --trace 0

Workloads: ``served-hot``, ``local-explore``, ``served-mutate`` (see
``perfbench/README.md``).  With ``--trace 0`` the run measures the
end-to-end metrics with no benchmark spans installed.  With
``--trace 1`` it runs the same workload twice, untraced and then with
per-layer spans, and reports the per-layer metrics plus the tracing
overhead between the two.  Every answer is checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it hold the full result
document, provenance stamp included.  Exit code 2 means there is no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from typing import Dict

from common import (
    ProgramMissing,
    latency_summary,
    PICKER,
    make_workdir,
    provenance,
    remove_workdir,
    require_program,
)

WORKLOADS = ("served-hot", "local-explore", "served-mutate")

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics.  ``*_ms`` are self time per operation of the
#: timed window, except ``persist.load_ms`` (per load, at set-up).
PER_LAYER = {
    "query.parse_ms": "ms/op",
    "optimiser.ftree_ms": "ms/op",
    "optimiser.ftree_calls": "count",
    "optimiser.fplan_ms": "ms/op",
    "optimiser.fplan_calls": "count",
    "core.factorise_ms": "ms/op",
    "core.factorise_calls": "count",
    "core.result_singletons": "singletons/read",
    "core.enumerate_ms": "ms/op",
    "ops.fplan_execute_ms": "ms/op",
    "ops.project_ms": "ms/op",
    "ivm.catchup_ms": "ms/op",
    "ivm.catchups": "count",
    "ivm.delta_rows": "rows",
    "service.plan_hit_ratio": "ratio",
    "service.result_hit_ratio": "ratio",
    "exec.execute_ms": "ms/op",
    "net.pack_ms": "ms/op",
    "net.unpack_ms": "ms/op",
    "net.result_bytes": "B/read",
    "net.unattributed_ms": "ms/op",
    "relational.mutate_ms": "ms/op",
    "persist.load_ms": "ms",
    "trace.attributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
}
#: Span layer behind each ``<layer>_ms`` metric.
_SELF_TIME = {
    "query.parse_ms": "query.parse",
    "optimiser.ftree_ms": "optimiser.ftree",
    "optimiser.fplan_ms": "optimiser.fplan",
    "core.factorise_ms": "core.factorise",
    "ops.fplan_execute_ms": "ops.fplan_execute",
    "ops.project_ms": "ops.project",
    "ivm.catchup_ms": "ivm.catchup",
    "exec.execute_ms": "exec.execute",
    "net.pack_ms": "net.pack",
    "net.unpack_ms": "net.unpack",
    "relational.mutate_ms": "relational.mutate",
}
_CALLS = {
    "optimiser.ftree_calls": "optimiser.ftree",
    "optimiser.fplan_calls": "optimiser.fplan",
    "core.factorise_calls": "core.factorise",
    "ivm.catchups": "ivm.catchup",
}


def run_phase(workload, scale, seed, seconds, fdbp, workdir, traced):
    if workload == "local-explore":
        import local

        return local.phase(scale, seconds, fdbp, traced)
    import served

    return served.phase(workload, scale, seed, seconds, fdbp, workdir, traced)


def end_to_end(phase: Dict) -> Dict[str, object]:
    """Every end-to-end figure of an untraced phase."""
    run = phase["run"]
    figures = run.figures()
    writes = latency_summary(run.writes)
    return {
        "setup_s": statistics.median(phase["setup_samples_s"]),
        "setup_samples_s": phase["setup_samples_s"],
        "setup_slowdown": phase["setup_slowdown"],
        "slowdown": (
            statistics.median(run.slowdowns) if run.slowdowns else None
        ),
        "throughput_ops_s": figures["throughput_ops_s"],
        "ops": run.ops,
        "busy_s": run.busy,
        "wall_busy_s": run.wall_busy,
        "read_p50_ms": figures["read_p50_ms"],
        "read_tail_ms": (
            figures["read_tail"]["value"] if figures["read_tail"] else None
        ),
        "read_tail": figures["read_tail"],
        "reads": len(run.reads),
        "cycles": len(run.cycles),
        "operations_repeated": len(run.by_op),
        "write_p50_ms": writes.get("p50_ms"),
        "write_tail_ms": writes["tail"]["value"] if writes["tail"] else None,
        "write_tail": writes["tail"],
        "writes": len(run.writes),
        "peak_rss_mb": phase["peak_rss_mb"],
        "failed_ratio": run.failed / run.attempted,
        "plan_hit_ratio": phase["plan_hit_ratio"],
        "result_hit_ratio": phase["result_hit_ratio"],
    }


def per_layer(base: Dict, traced: Dict, served: bool) -> Dict[str, float]:
    """Per-layer figures of the traced phase (``traced["layers"]``
    holds one span window per process that recorded spans)."""
    run = traced["run"]
    ops = max(run.ops, 1)
    reads = max(len(run.reads), 1)
    windows = traced["layers"]

    def total(layer: str, key: str) -> float:
        return sum(w[layer][key] for w in windows)

    out: Dict[str, float] = {}
    for metric, layer in _SELF_TIME.items():
        out[metric] = total(layer, "self_s") / ops * 1000.0
    for metric, layer in _CALLS.items():
        out[metric] = total(layer, "calls")
    out["core.enumerate_ms"] = run.enumerate_s / ops * 1000.0
    out["core.result_singletons"] = run.singletons / reads
    out["ivm.delta_rows"] = sum(w["counts"]["ivm.delta_rows"] for w in windows)
    out["net.result_bytes"] = (
        sum(w["counts"]["net.result_bytes"] for w in windows) / reads
    )
    attributed = (
        sum(total(layer, "self_s") for layer in _SELF_TIME.values())
        + run.enumerate_s
    )
    # Served: what the client waited for beyond every span above is
    # socket, event loop and thread handoff.  Local runs have no wire.
    out["net.unattributed_ms"] = (
        (run.busy - attributed) / ops * 1000.0 if served else 0.0
    )
    out["trace.attributed_ratio"] = (
        attributed / run.wall_busy if run.wall_busy else 0.0
    )
    base_rate = base["run"].figures()["throughput_ops_s"]
    out["trace.overhead_ratio"] = (
        run.figures()["throughput_ops_s"] / base_rate if base_rate else 0.0
    )
    load = traced["load"]
    out["persist.load_ms"] = (
        load["total_s"] / load["calls"] * 1000.0 if load["calls"] else 0.0
    )
    out["service.plan_hit_ratio"] = traced["plan_hit_ratio"]
    out["service.result_hit_ratio"] = traced["result_hit_ratio"]
    figures = end_to_end(base)
    out["write_p50_ms"] = figures["write_p50_ms"] or 0.0
    out["write_tail_ms"] = figures["write_tail_ms"] or 0.0
    return out


def _metrics(values: Dict[str, float], units: Dict[str, str]) -> Dict:
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("reference", "tiny"),
        default="reference",
        help="tiny is for the self-test only",
    )
    args = parser.parse_args(argv)
    try:
        require_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    PICKER.pick()
    # A SIGTERM or SIGHUP ends the run through its ``finally`` blocks,
    # which stop the server child and remove the scratch directory.
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)

    import workloads
    from repro import persist

    scale = workloads.SCALES[args.scale]
    workdir = make_workdir()
    try:
        fdbp = workdir / "db.fdbp"
        persist.save(workloads.database(scale), str(fdbp))
        base = run_phase(
            args.workload, scale, args.seed, args.seconds, fdbp, workdir, False
        )
        traced = None
        if args.trace:
            traced = run_phase(
                args.workload, scale, args.seed, args.seconds, fdbp, workdir,
                True,
            )
    finally:
        remove_workdir(workdir)

    runs = [base["run"]] + ([traced["run"]] if traced else [])
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    document = {
        "provenance": provenance(args.seed, {
            "name": args.workload,
            "scale": args.scale,
            "seconds": args.seconds,
            "cpus": PICKER.cpus,
            "cpu_probes": PICKER.probes,
            "cpu_moves": PICKER.moves,
            **scale.params(),
        }),
        "end_to_end": end_to_end(base),
        "failed_ratio": failed / attempted,
        "failures": [why for r in runs for why in r.failures],
    }
    if traced:
        values = per_layer(base, traced, args.workload != "local-explore")
        document["per_layer"] = values
        metrics = _metrics(values, PER_LAYER)
    else:
        metrics = _metrics(document["end_to_end"], END_TO_END)
    print("result-document: " + json.dumps(document, sort_keys=True))
    lines = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    figures = document["end_to_end"]
    if not traced:
        lines.update({
            name: (figures[name], "ms")
            for name in ("write_p50_ms", "write_tail_ms")
            if figures[name] is not None
        })
    lines["failed_ratio"] = (document["failed_ratio"], "ratio")
    for name, (value, unit) in sorted(lines.items()):
        print(f"  {name:<26} {value:>14.6g} {unit}")
    tail = figures["read_tail"]
    if tail:
        print(
            f"  read_tail_ms is p{tail['percentile']:g} of {tail['samples']}"
            f" {'operations' if figures['operations_repeated'] else 'reads'}"
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
