"""Plan-cache benchmark: warm vs cold sessions on repeated traffic.

Figure 9 shows optimisation dominating per-query cost in FDB.  The
serving layer (:mod:`repro.service`) amortises it: a cold pass pays the
f-tree optimiser for every arriving query, a warm
:class:`~repro.service.QuerySession` pays it once per *canonical*
query.  The workload is repeated traffic -- a few query templates, each
repeat a reformulated (shuffled/flipped) variant, as produced by
:func:`repro.workloads.repeated_query_workload`.

Acceptance: the warm session must be at least 2x faster end-to-end,
with the optimiser skipped on every cache hit.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import bench_json, emit, full_scale, smoke_mode
from repro.engine import FDB
from repro.service import QuerySession
from repro.workloads import random_database, repeated_query_workload


def _params():
    if smoke_mode():
        return dict(
            relations=3, attributes=6, tuples=6, equalities=2,
            unique=2, total=6,
        )
    if full_scale():
        return dict(
            relations=8, attributes=24, tuples=10, equalities=6,
            unique=8, total=64,
        )
    return dict(
        relations=6, attributes=20, tuples=10, equalities=6,
        unique=6, total=36,
    )


def _setup():
    p = _params()
    db = random_database(
        relations=p["relations"],
        attributes=p["attributes"],
        tuples=p["tuples"],
        domain=20,
        seed=7,
    )
    workload = repeated_query_workload(
        db,
        unique=p["unique"],
        total=p["total"],
        equalities=p["equalities"],
        seed=7,
    )
    return db, workload


def _run_cold(db, workload):
    """Per-query optimisation, the seed's behaviour (no session), in
    the sessions' arena encoding so only plan caching differs."""
    return [
        FDB(db, encoding="arena").evaluate(query).count()
        for query in workload
    ]


def _run_warm(db, workload):
    """One session, per-query submission: plan-cache hits only."""
    session = QuerySession(db)
    counts = [session.run(query).count() for query in workload]
    return counts, session.stats


def _run_batch(db, workload):
    """One session, batched submission: cache hits + dedup."""
    session = QuerySession(db)
    counts = [r.count() for r in session.run_batch(workload)]
    return counts, session.stats


@pytest.mark.benchmark(group="plan-cache")
def test_plan_cache_warm_speedup(benchmark):
    db, workload = _setup()

    start = time.perf_counter()
    cold_counts = _run_cold(db, workload)
    cold_time = time.perf_counter() - start

    def warm():
        return _run_warm(db, workload)

    # min over rounds: a noisy-neighbour stall on a shared CI runner
    # can only inflate cold_time (which relaxes the assertion below),
    # so warm is the flake risk worth damping.
    (warm_counts, stats) = benchmark.pedantic(
        warm, rounds=3, iterations=1
    )
    warm_time = benchmark.stats.stats.min

    start = time.perf_counter()
    batch_counts, batch_stats = _run_batch(db, workload)
    batch_time = time.perf_counter() - start

    emit(
        "Plan cache: warm vs cold on a repeated-query workload",
        "\n".join(
            [
                f"workload: {len(workload)} queries, "
                f"{stats.plan_misses} canonical templates",
                f"cold (optimiser per query):    {cold_time:8.3f} s",
                f"warm (plan cache, per query):  {warm_time:8.3f} s  "
                f"({cold_time / warm_time:5.1f}x, "
                f"{stats.plan_hits} hits)",
                f"warm (batched, deduplicated):  {batch_time:8.3f} s  "
                f"({cold_time / batch_time:5.1f}x, "
                f"{batch_stats.batch_deduped} deduped)",
            ]
        ),
    )

    bench_json(
        "plan_cache",
        {
            "workload_queries": len(workload),
            "canonical_templates": stats.plan_misses,
            "cold_seconds": cold_time,
            "warm_seconds": warm_time,
            "batch_seconds": batch_time,
            "warm_speedup": cold_time / max(warm_time, 1e-9),
            "batch_speedup": cold_time / max(batch_time, 1e-9),
            "plan_hits": stats.plan_hits,
            "batch_deduped": batch_stats.batch_deduped,
        },
        workload=_params(),
    )

    # Correctness first: all three paths agree on every result.
    assert warm_counts == cold_counts
    assert batch_counts == cold_counts
    # The optimiser ran once per template, never on a hit.
    assert stats.plan_hits == len(workload) - stats.plan_misses
    # Acceptance: >= 2x wall-clock for the warm cache (not checked in
    # smoke mode, where the workload is too small to time).
    if not smoke_mode():
        assert cold_time >= 2.0 * warm_time, (
            f"warm cache speedup below 2x: cold {cold_time:.3f}s "
            f"vs warm {warm_time:.3f}s"
        )
        assert cold_time >= 2.0 * batch_time
