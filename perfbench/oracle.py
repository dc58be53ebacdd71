"""Answer checking, always outside the timed windows.

Every read is checked for its count and its first rows:

- the count against an oracle: for the served workloads an in-process
  ``QuerySession(result_cache_size=0)`` on a shadow database that
  replays the same writes, so it bypasses the wire and delta
  maintenance; for local-explore, whose session is already in process,
  SQLite's ``COUNT(*)``;
- answers of at most :data:`ROW_CHECK_LIMIT` tuples against SQLite's
  row set (``SQLiteEngine.evaluate``), the first rows included;
- the first rows of larger answers one by one, by asking SQLite
  whether the query with the row's values as constants is non-empty.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.query.query import Query
from repro.relational.database import Database
from repro.relational.sqlite_engine import SQLiteEngine
from repro.service.session import QuerySession

#: Answers up to this many tuples are compared row set by row set.
ROW_CHECK_LIMIT = 100_000
#: Rows a read enumerates: the ``repro query --limit`` default.
FIRST_ROWS = 20


def result_attributes(db: Database, query: Query) -> Tuple[str, ...]:
    """The sorted attribute order rows are compared in."""
    if query.projection is not None:
        return tuple(sorted(query.projection))
    return tuple(sorted(a for n in query.relations for a in db[n].attributes))


class Sqlite:
    """SQLite answers over one version of a database."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.version = db.version
        self.engine = SQLiteEngine(db)

    def close(self) -> None:
        self.engine.close()

    def count(self, query: Query) -> int:
        if query.projection is not None:
            return self.engine.count(query)
        # Base relations are sets, so a join keeping every attribute has
        # no duplicates: COUNT(*) needs no DISTINCT (which costs ~20x).
        sql, params = self.engine.to_sql(query)
        sql = sql.replace("SELECT DISTINCT *", "SELECT COUNT(*)", 1)
        return int(self.engine._conn.execute(sql, params).fetchone()[0])

    def rows(self, query: Query) -> Set[tuple]:
        """The answer as a set of tuples in sorted attribute order."""
        sql, params = self.engine.to_sql(query)
        # SQLite selects the columns in sorted order, so its rows are
        # the tuples compared as they come.  Without a projection no
        # DISTINCT is needed (see count()).
        distinct = "DISTINCT " if query.projection is not None else ""
        columns = ", ".join(
            f'"{a}"' for a in result_attributes(self.db, query)
        )
        sql = f"SELECT {distinct}{columns}" + sql[sql.index(" FROM "):]
        return set(self.engine._conn.execute(sql, params).fetchall())

    def contains(self, query: Query, row: Sequence[object]) -> bool:
        """Whether ``row`` (sorted attribute order) is in the answer."""
        order = result_attributes(self.db, query)
        pinned = Query.make(
            list(query.relations),
            equalities=[(e.left, e.right) for e in query.equalities],
            constants=[(c.attribute, c.op, c.value) for c in query.constants]
            + [(a, "=", v) for a, v in zip(order, row)],
            projection=query.projection,
        )
        return self.engine.count(pinned) == 1


def check_rows(
    sqlite: Sqlite,
    query: Query,
    count: int,
    first: List[tuple],
    full: Optional[Set[tuple]],
    expected_rows: Optional[Set[tuple]],
) -> Optional[str]:
    """Check the first rows (and the full row set, when given) of one
    answer whose count was already found right."""
    if len(first) != min(FIRST_ROWS, count) or len(set(first)) != len(first):
        return f"first rows: got {len(first)} for count {count}"
    if expected_rows is not None:
        if full is not None and full != expected_rows:
            return f"row set differs from SQLite ({len(full)} rows)"
        if not all(row in expected_rows for row in first):
            return "first rows not in SQLite's answer"
        return None
    for row in first:
        if not sqlite.contains(query, row):
            return f"row {row!r} not in SQLite's answer"
    return None


def release(*row_sets) -> None:
    """Drop compared row sets and collect at once.

    A row-set comparison allocates up to :data:`ROW_CHECK_LIMIT`
    tuples per side; collecting here keeps the cyclic collector from
    doing that work inside the next timed operation."""
    for rows in row_sets:
        if rows is not None:
            rows.clear()
    gc.collect()


class ShadowOracle:
    """The served workloads' oracle: a shadow database replaying the
    writes, an in-process session without a result cache, and SQLite
    rebuilt whenever the shadow's version moves."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.session = QuerySession(db, encoding="arena", result_cache_size=0)
        self._sqlite: Optional[Sqlite] = None
        #: Both keyed by template, for the shadow's current version:
        #: template -> (count, rows or None), and template -> first
        #: rows already checked.
        self._version = db.version
        self._memo: Dict[int, Tuple[int, Optional[Set[tuple]]]] = {}
        self._checked_first: Dict[int, List[tuple]] = {}

    def close(self) -> None:
        self.session.close()
        if self._sqlite is not None:
            self._sqlite.close()

    def sqlite(self) -> Sqlite:
        if self._sqlite is None or self._sqlite.version != self.db.version:
            if self._sqlite is not None:
                self._sqlite.close()
            self._sqlite = Sqlite(self.db)
        return self._sqlite

    def _sync(self) -> None:
        if self._version != self.db.version:
            self._version = self.db.version
            self._memo.clear()
            self._checked_first.clear()

    def expected(self, index: int, query: Query):
        self._sync()
        if index not in self._memo:
            count = self.session.run(query).count()
            rows = None
            if count <= ROW_CHECK_LIMIT:
                rows = self.sqlite().rows(query)
            self._memo[index] = (count, rows)
        return self._memo[index]

    def check(
        self,
        index: int,
        query: Query,
        count: int,
        first: List[tuple],
        full: Optional[Set[tuple]] = None,
    ) -> Optional[str]:
        """``None`` when the served answer is right, else why not."""
        expected_count, rows = self.expected(index, query)
        if count != expected_count:
            return f"count {count}, oracle {expected_count}"
        if rows is not None and len(rows) != count:
            return f"oracle session and SQLite disagree: {len(rows)} rows"
        if self._checked_first.get(index) == first:
            return None
        problem = check_rows(self.sqlite(), query, count, first, full, rows)
        if problem is None:
            self._checked_first[index] = first
        if full is not None:
            release(full, rows)
            self._memo[index] = (expected_count, None)
        return problem

    def needs_full_rows(self, index: int, query: Query) -> bool:
        """Whether the row set of this read is compared in full: the
        first read of a small answer per template and version."""
        rows = self.expected(index, query)[1]
        return index not in self._checked_first and rows is not None

    # -- replaying the served writes --------------------------------------

    def append(self, relation: str, rows: Sequence[tuple]) -> int:
        before = len(self.db[relation])
        self.db.extend_rows(relation, rows)
        return len(self.db[relation]) - before

    def delete(self, relation: str, rows: Sequence[tuple]) -> int:
        return self.db.delete_rows(relation, rows=rows)
