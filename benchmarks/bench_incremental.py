"""Incremental-maintenance benchmark: append-then-requery.

PR 6 teaches the serving layer to maintain cached factorised results
under mutation (:mod:`repro.ivm`): an absorbable append factorises
only a delta view -- the fresh rows plus the *other* referenced
relations -- over the cached entry's own f-tree and unions it in,
instead of refactorising the whole database.  The workload is the
shape that maintenance is for: a large, growing fact relation joined
with small, stable dimension relations, so the delta view is tiny
against the full input.  Each round appends a batch of fact rows and
re-runs every query:

- **incremental**: a session with the delta-maintained result cache
  (the default) answers each requery by catching the cached entry up.
- **recompute**: an identical session with the result cache disabled
  (``result_cache_size=0``) pays a full factorisation per requery;
  its plan cache stays warm, so the diff isolates result maintenance.

Acceptance: the incremental path must be at least 2x faster over the
mutation rounds (not checked in smoke mode), with both paths agreeing
on every result count and the final round's exact rows.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import bench_json, emit, full_scale, smoke_mode
from repro.engine import FDB
from repro.query.parser import parse_query
from repro.relational.database import Database
from repro.service import QuerySession

#: Dimension sizes (stable lookup relations).
CUSTOMERS = 100
ITEMS = 150


def _params():
    if smoke_mode():
        return dict(facts=40, queries=6, rounds=3, batch=4)
    if full_scale():
        return dict(facts=20000, queries=6, rounds=8, batch=40)
    return dict(facts=6000, queries=6, rounds=6, batch=10)


def _fact_row(rng: random.Random):
    return (rng.randint(1, CUSTOMERS), rng.randint(1, ITEMS))


def _setup():
    p = _params()
    rng = random.Random(19)
    db = Database()
    db.add_rows(
        "Fact",
        ("f_cust", "f_item"),
        [_fact_row(rng) for _ in range(p["facts"])],
    )
    db.add_rows(
        "Cust",
        ("d_cust", "d_region"),
        [(c, c % 7) for c in range(1, CUSTOMERS + 1)],
    )
    db.add_rows(
        "Item",
        ("e_item", "e_price"),
        [(i, (i * 13) % 50) for i in range(1, ITEMS + 1)],
    )
    queries = [
        parse_query(sql)
        for sql in [
            "SELECT * FROM Fact, Cust WHERE f_cust = d_cust",
            "SELECT * FROM Fact, Item WHERE f_item = e_item",
            "SELECT f_cust, e_price FROM Fact, Item "
            "WHERE f_item = e_item",
            "SELECT * FROM Fact, Cust, Item "
            "WHERE f_cust = d_cust AND f_item = e_item",
            "SELECT d_region FROM Fact, Cust "
            "WHERE f_cust = d_cust AND d_region = 3",
            "SELECT f_item FROM Fact, Item "
            "WHERE f_item = e_item AND e_price >= 25",
        ][: p["queries"]]
    ]
    return p, rng, db, queries


def test_incremental_maintenance_speedup():
    p, rng, db, queries = _setup()

    incremental = QuerySession(db)
    recompute = QuerySession(db, result_cache_size=0)

    # Warm both sessions (plans compiled, the incremental session's
    # result cache populated) before any mutation.
    for query in queries:
        incremental.run(query)
        recompute.run(query)

    incremental_time = 0.0
    recompute_time = 0.0
    appended = 0
    count_checksum = 0
    for round_index in range(p["rounds"]):
        before = len(db["Fact"])
        db.extend_rows(
            "Fact", [_fact_row(rng) for _ in range(p["batch"])]
        )
        appended += len(db["Fact"]) - before

        start = time.perf_counter()
        inc_counts = [
            incremental.run(query).count() for query in queries
        ]
        incremental_time += time.perf_counter() - start

        start = time.perf_counter()
        full_counts = [
            recompute.run(query).count() for query in queries
        ]
        recompute_time += time.perf_counter() - start

        assert inc_counts == full_counts, f"round {round_index}"
        count_checksum += sum(inc_counts)

    # Exact-rows check on the final state against a fresh engine.
    for query in queries:
        fr = FDB(
            db, encoding="object", check_invariants=True
        ).evaluate(query)
        expected = sorted(set(fr.rows(fr.attributes)))
        assert incremental.run(query).rows() == expected
        assert recompute.run(query).rows() == expected

    counters = incremental.cache_counters()["results"]
    speedup = recompute_time / max(incremental_time, 1e-9)
    emit(
        "Incremental maintenance: append-then-requery vs recompute",
        "\n".join(
            [
                f"workload: {len(queries)} queries x {p['rounds']} "
                f"rounds over {len(db['Fact'])} fact rows "
                f"({appended} appended in batches of {p['batch']})",
                f"recompute  (no result cache): "
                f"{recompute_time:8.3f} s",
                f"incremental (delta merges):   "
                f"{incremental_time:8.3f} s  ({speedup:5.1f}x)",
                f"delta merges: {counters['delta_merges']} "
                f"({counters['delta_rows']} rows), "
                f"invalidations: {counters['invalidations']}",
            ]
        ),
    )

    bench_json(
        "incremental",
        {
            "rounds": p["rounds"],
            "fact_rows_final": len(db["Fact"]),
            "rows_appended": appended,
            "count_checksum": count_checksum,
            "delta_merges": counters["delta_merges"],
            "delta_rows": counters["delta_rows"],
            "result_invalidations": counters["invalidations"],
            "recompute_seconds": recompute_time,
            "incremental_seconds": incremental_time,
            "incremental_speedup": speedup,
        },
        workload=p,
    )

    incremental.close()
    recompute.close()

    # Appends only: the incremental session never had to invalidate.
    assert counters["invalidations"] == 0
    assert counters["delta_merges"] > 0
    # Acceptance: >= 2x wall-clock for delta maintenance (skipped at
    # smoke scale, where a requery costs microseconds either way).
    if not smoke_mode():
        assert speedup >= 2.0, (
            f"incremental maintenance below 2x: recompute "
            f"{recompute_time:.3f}s vs incremental "
            f"{incremental_time:.3f}s"
        )
