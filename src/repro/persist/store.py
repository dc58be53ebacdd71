"""A disk-backed, key-addressed store of compiled plans.

PR 1/2 established (with the paper's Figure 9) that the optimiser
dominates per-query cost and amortised it *within* a process via the
session plan cache.  :class:`PlanStore` extends the amortisation
across sessions and processes: compiled f-trees are written to a
directory keyed on

- :meth:`repro.query.query.Query.canonical_key` -- so reformulated
  repeats share an entry,
- the database *schema fingerprint* -- so a store directory can serve
  several databases without cross-talk, and
- :attr:`repro.relational.database.Database.version` -- so plans
  compiled against mutated data are recognised as stale.

The first two are baked into the entry's file name (a SHA-256 digest);
the version travels in the entry header, so a lookup that finds an
entry for the right query and schema but the wrong version *evicts*
the file (stale plans are garbage, not history) and reports a miss.

The store is a lower cache tier, not a session cache replacement:
:class:`repro.service.session.QuerySession` keeps its in-memory LRU
:class:`~repro.service.cache.PlanCache` as the hot tier and treats the
store as write-through backing (see ``QuerySession.lookup_plan`` /
``store_plan``).

Concurrent use is safe in the usual cache sense: writes go through a
unique temporary file plus an atomic rename, readers see either the
whole entry or none, and a lost race merely costs a recompile.

The store can be *bounded* (``max_entries`` / ``max_bytes``): every
insert runs a garbage collection that evicts least-recently-used
entries (recency = file mtime; hits touch the file) until the bounds
hold again, so a long-lived store under an unbounded query stream
stays a cache instead of growing into an archive.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
from typing import Any, Dict, List, Optional

from repro.core.ftree import FTree
from repro.persist import codec
from repro.persist.codec import FormatVersionError, PersistError
from repro.query.query import Query
from repro.relational.database import Database

#: File extension of store entries.
ENTRY_SUFFIX = ".plan.fdbp"


def schema_fingerprint(database: Database) -> str:
    """A stable digest of the database *schema* (names + attributes).

    Deliberately excludes the data: a plan store keyed on content
    would never hit after any mutation, while the schema plus the
    version check below gives exactly the staleness semantics the
    in-memory caches already use.
    """
    schema = sorted(
        (name, tuple(attrs)) for name, attrs in database.schema().items()
    )
    digest = hashlib.sha256(repr(schema).encode("utf-8"))
    return digest.hexdigest()


def _key_digest(query: Query, fingerprint: str) -> str:
    payload = repr((query.canonical_key(), fingerprint))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class PlanStore:
    """Compiled plans on disk, shared across sessions and processes.

    Parameters
    ----------
    path:
        Directory holding the entries (created if missing).
    max_entries / max_bytes:
        Optional size bounds.  When an insert pushes the store past
        either bound, least-recently-used entries (by file mtime;
        lookups refresh it) are deleted until both hold.  ``None``
        (the default) keeps the store unbounded.

    >>> import tempfile
    >>> from repro.relational.database import Database
    >>> from repro.query.query import Query
    >>> from repro.core.ftree import FTree
    >>> db = Database()
    >>> _ = db.add_rows("R", ("a", "b"), [(1, 2)])
    >>> tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    >>> store = PlanStore(tempfile.mkdtemp())
    >>> q = Query.make(["R"])
    >>> store.get(q, db) is None
    True
    >>> store.put(q, db, tree)
    >>> store.get(q, db) == tree
    True
    """

    def __init__(
        self,
        path: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be positive or None, got {max_entries}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(
                f"max_bytes must be positive or None, got {max_bytes}"
            )
        self.path = path
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        os.makedirs(path, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.delta_hits = 0
        self.stale_evictions = 0
        self.gc_evictions = 0

    # -- addressing --------------------------------------------------------

    def _entry_path(self, query: Query, fingerprint: str) -> str:
        return os.path.join(
            self.path, _key_digest(query, fingerprint) + ENTRY_SUFFIX
        )

    # -- the store API -----------------------------------------------------

    def get(self, query: Query, database: Database) -> Optional[FTree]:
        """The stored plan for ``query`` over ``database``, or ``None``.

        A stored entry whose ``db_version`` lags the live database is
        served anyway when the gap is explained by recorded data-only
        deltas (``delta_hits``; plans are schema-level objects, see
        the inline note) and *stale* otherwise: deleted, and the
        lookup misses.  An entry in another FDBP format version is
        stale too.  A corrupt entry raises :class:`PersistError`
        -- the store never silently returns a plan it cannot verify.
        """
        fingerprint = schema_fingerprint(database)
        path = self._entry_path(query, fingerprint)
        try:
            with open(path, "rb") as handle:
                kind, header, payload = codec.read_blob(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except FormatVersionError:
            # Written by a build with another file format: stale (the
            # plan is recompiled and rewritten), not corrupt.
            self._evict(path)
            self.stale_evictions += 1
            self.misses += 1
            return None
        except PersistError as exc:
            raise PersistError(
                f"corrupt plan-store entry {os.path.basename(path)!r}: "
                f"{exc}"
            ) from exc
        if kind != "plan-entry":
            raise PersistError(
                f"plan-store entry {os.path.basename(path)!r} holds "
                f"{kind!r}, not a plan"
            )
        if header.get("fingerprint") != fingerprint:
            # Digest collision across schemas: treat as a miss.
            self.misses += 1
            return None
        entry_version = header.get("db_version")
        if entry_version != database.version:
            # Delta-aware staleness: an f-tree depends on the schema
            # and query structure, not on the rows, so a version gap
            # explained by recorded *data-only* deltas keeps the plan
            # valid (schema changes rotate the fingerprint and land on
            # a different file name).  Only an unexplainable gap --
            # truncated log, foreign timeline -- evicts.
            explainable = isinstance(
                entry_version, int
            ) and database.changes_since(entry_version) is not None
            if not explainable:
                self._evict(path)
                self.stale_evictions += 1
                self.misses += 1
                return None
            self.delta_hits += 1
        tree = codec.decode("ftree", {}, payload)
        self.hits += 1
        self._touch(path)
        return tree  # type: ignore[return-value]

    def put(
        self, query: Query, database: Database, tree: FTree
    ) -> None:
        """Store ``tree`` as the compiled plan of ``query``."""
        fingerprint = schema_fingerprint(database)
        header: Dict[str, Any] = {
            "fingerprint": fingerprint,
            "db_version": database.version,
            "query": str(query),
        }
        payload = codec._encode_ftree(tree)
        out = io.BytesIO()
        codec.write_blob(out, "plan-entry", header, payload)
        fd, tmp = tempfile.mkstemp(
            dir=self.path, suffix=ENTRY_SUFFIX + ".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(out.getvalue())
            os.replace(tmp, self._entry_path(query, fingerprint))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.writes += 1
        self.collect()

    def _evict(self, path: str) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    @staticmethod
    def _touch(path: str) -> None:
        """Refresh an entry's recency (LRU clock = file mtime)."""
        try:
            os.utime(path, None)
        except OSError:  # pragma: no cover - entry raced away
            pass

    # -- garbage collection ------------------------------------------------

    def _stat_entries(self) -> List[tuple]:
        """(mtime, name, bytes) per entry, least recently used first."""
        out = []
        for name in self.entries():
            try:
                stat = os.stat(os.path.join(self.path, name))
            except OSError:  # racing eviction by another process
                continue
            out.append((stat.st_mtime, name, stat.st_size))
        out.sort()
        return out

    def total_bytes(self) -> int:
        """Bytes currently held by the store's entries."""
        return sum(size for _, _, size in self._stat_entries())

    def collect(self) -> int:
        """Enforce the size bounds; returns how many entries were
        evicted.  Runs automatically after every :meth:`put`."""
        if self.max_entries is None and self.max_bytes is None:
            return 0
        entries = self._stat_entries()
        total = sum(size for _, _, size in entries)
        removed = 0
        while entries and (
            (
                self.max_entries is not None
                and len(entries) > self.max_entries
            )
            or (self.max_bytes is not None and total > self.max_bytes)
        ):
            _, name, size = entries.pop(0)
            self._evict(os.path.join(self.path, name))
            total -= size
            removed += 1
        self.gc_evictions += removed
        return removed

    # -- introspection -----------------------------------------------------

    def entries(self) -> List[str]:
        """File names of the current entries (sorted)."""
        return sorted(
            name
            for name in os.listdir(self.path)
            if name.endswith(ENTRY_SUFFIX)
        )

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for name in self.entries():
            self._evict(os.path.join(self.path, name))
            removed += 1
        return removed

    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "delta_hits": self.delta_hits,
            "stale_evictions": self.stale_evictions,
            "gc_evictions": self.gc_evictions,
            "size": len(self),
        }

    def describe(self) -> str:
        return f"plan store at {self.path} ({len(self)} entries)"
