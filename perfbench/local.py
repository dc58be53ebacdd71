"""local-explore: ``persist.load`` plus an in-process ``QuerySession``.

A round runs explore joins in pool order, each followed by one
follow-up selection on its factorised result through
``QuerySession.run_on``.  Every round opens a fresh session, so every
query of a round is new to it.  The first round runs every join; later
rounds repeat the joins whose first run, follow-up included, took less
than :data:`REPEAT_LIMIT_S`.  Rounds go on until at least
:data:`MIN_ROUNDS` have run and ``seconds`` of busy time have passed.
The figures are taken over each operation's median time, so neither
a spell of host contention nor the first round's one-time costs set
them.  Answers are checked against SQLite after each timed operation.

Operations and set-up are timed in process CPU time, less that of the
thread that keeps the process on the fastest CPU (``Repicker``; one
join runs for ~20 s, too long for a pick before it to hold).  They are
CPU-bound in one thread, so on an idle machine CPU time is their wall
time, and it leaves out the CPU a busy virtual-machine host steals,
which moved wall times by up to a third between runs.  The result
document keeps the wall time too.  Each time is then divided by the
host's slowdown while the operation ran (``CpuPicker.slowdown``).

The sequence is the same for every seed.  A seeded order made peak
RSS depend on the seed by ~7%: the result cache holds the joins run
before the largest one while it is being built.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import PICKER, Repicker, Run, peak_rss_mb
from oracle import FIRST_ROWS, ROW_CHECK_LIMIT, Sqlite, check_rows, release
import spans
import workloads

from repro import persist
import repro.query.parser
from repro.service.session import QuerySession

#: persist.load + QuerySession repetitions; setup_s is their median.
SETUP_REPS = 15
#: Rounds every run makes at least, whatever ``seconds`` says.
MIN_ROUNDS = 4
#: Joins whose first run, follow-up included, took longer than this
#: (CPU seconds) run only in the first round.  At the reference scale
#: that is one join, which factorises in ~20 s (see the README).
REPEAT_LIMIT_S = 1.0


def _open(fdbp: Path):
    db = persist.load(str(fdbp))
    return db, QuerySession(db, encoding="arena")


class _Expected:
    """SQLite's answers: counts once per statement and run, row sets
    each time they are compared (they are too big to keep)."""

    def __init__(self, sqlite: Sqlite) -> None:
        self.sqlite = sqlite
        self.counts: Dict[str, int] = {}
        self.first: Dict[str, List[tuple]] = {}

    def check(self, sql, query, count, first, fr) -> Optional[str]:
        """Count against SQLite every time; the rows in full (small
        answers) or the first rows one by one (large ones) until they
        pass once, then the first rows against those that passed."""
        if sql not in self.counts:
            self.counts[sql] = self.sqlite.count(query)
        if count != self.counts[sql]:
            return f"count {count}, SQLite {self.counts[sql]}"
        if self.first.get(sql) == first:
            return None
        if count > ROW_CHECK_LIMIT:
            problem = check_rows(self.sqlite, query, count, first, None, None)
        else:
            expected, full = self.sqlite.rows(query), set(fr.rows())
            problem = check_rows(
                self.sqlite, query, count, first, full, expected
            )
            release(expected, full)
        if problem is None:
            self.first[sql] = first
        return problem


def _op(
    clock: Repicker,
    run: Run,
    op,
    sql: str,
    evaluate,
    sizes: bool,
    expected,
    oracle_query,
):
    """One timed read: parse, evaluate, count, first rows; then check.
    Returns the result, or ``None`` when the operation raised."""
    run.attempted += 1
    mark = PICKER.mark()
    start, wall = clock.cpu_time(), time.perf_counter()
    try:
        query = repro.query.parser.parse_query(sql)
        result = evaluate(query)
        got = time.perf_counter()
        fr = result.factorised
        count = fr.count()
        first = list(itertools.islice(fr.rows(), FIRST_ROWS))
    except Exception as exc:  # an error is a failed operation, not a crash
        run.fail(f"{sql}: {type(exc).__name__}: {exc}")
        return None
    end, end_wall = clock.cpu_time(), time.perf_counter()
    run.timed(
        end - start,
        wall=end_wall - wall,
        op=op,
        slowdown=PICKER.slowdown(mark),
    )
    # Spans are wall time; so is the enumeration share next to them.
    run.enumerate_s += end_wall - got
    if sizes:
        run.singletons += fr.size()
    problem = expected.check(sql, oracle_query, count, first, fr)
    if problem is not None:
        run.fail(f"{sql}: {problem}")
    return result


def phase(scale, seconds: float, fdbp: Path, traced: bool) -> Dict:
    with Repicker() as clock:
        return _phase(clock, scale, seconds, fdbp, traced)


def _phase(clock, scale, seconds: float, fdbp: Path, traced: bool) -> Dict:
    out: Dict = {}
    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install_local(tracer)
        db, session = _open(fdbp)
    else:
        samples, slowdowns = [], []
        for _ in range(SETUP_REPS):
            mark = PICKER.mark()
            start = clock.cpu_time()
            db, session = _open(fdbp)
            took = clock.cpu_time() - start
            slowdowns.append(PICKER.slowdown(mark))
            samples.append(took / slowdowns[-1])
        out["setup_samples_s"] = samples
        out["setup_slowdown"] = statistics.median(slowdowns)
    joins = workloads.explore_joins(db, scale)
    follows = [
        workloads.followup(db, join, seed=scale.pool_seed * 1000 + j)
        for j, join in enumerate(joins)
    ]
    join_sql = [str(q) for q in joins]
    follow_sql = [str(q) for q in follows]
    combined = [workloads.combined(j, f) for j, f in zip(joins, follows)]
    sqlite = Sqlite(db)
    expected = _Expected(sqlite)
    run = Run()
    counters = {"plan": [0, 0], "result": [0, 0]}
    gc.collect()
    mark = tracer.snapshot() if traced else None
    repeat = list(range(len(joins)))
    rounds = 0
    try:
        while rounds < MIN_ROUNDS or run.busy < seconds:
            done = run.ops
            for j in repeat:
                result = _op(
                    clock, run, ("join", j), join_sql[j], session.run,
                    traced, expected, joins[j],
                )
                if result is None:
                    continue
                _op(
                    clock,
                    run,
                    ("follow-up", j),
                    follow_sql[j],
                    lambda q: session.run_on(result.factorised, q),
                    traced,
                    expected,
                    combined[j],
                )
            stats = session.stats
            counters["plan"][0] += stats.plan_hits + stats.fplan_hits
            counters["plan"][1] += stats.plan_misses + stats.fplan_misses
            counters["result"][0] += stats.result_hits
            counters["result"][1] += stats.result_misses
            session.close()
            session = QuerySession(db, encoding="arena")
            rounds += 1
            if run.ops == done:  # every operation of the round failed
                break
            if rounds == 1:
                repeat = [
                    j for j in repeat
                    if sum(run.by_op.get(("join", j), [REPEAT_LIMIT_S]))
                    + sum(run.by_op.get(("follow-up", j), []))
                    < REPEAT_LIMIT_S
                ]
                if not repeat:
                    break
        session.close()
        if traced:
            end = tracer.snapshot()
    finally:
        sqlite.close()
        if traced:
            tracer.uninstall()
    out["peak_rss_mb"] = peak_rss_mb()
    out["run"] = run
    out["rounds"] = rounds
    for name, (hits, misses) in counters.items():
        out[f"{name}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if traced:
        out["layers"] = [spans.window(end, mark)]
        out["load"] = end["persist.load"]
    return out
