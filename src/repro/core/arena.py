"""A flat, columnar arena encoding of structured f-representations.

The object encoding of :mod:`repro.core.frep` spends one Python object
per union entry (a ``(value, ProductRep)`` tuple inside a ``UnionRep``
inside a ``ProductRep``), so every hot-path walk -- building, counting,
enumerating, aggregating -- is dominated by allocator churn and
attribute chasing.  The memory-resident-encoding literature (Szépkúti's
compact multidimensional layouts, EMBANKS' disk-based indexes) shows
the alternative: a *flat, offset-addressed* encoding of the same
hierarchy.

:class:`ArenaRep` stores an f-representation as parallel integer
columns, one set per f-tree node (nodes numbered in canonical
pre-order):

- ``values[i]`` -- one interned value id per union entry of node ``i``,
  across *all* occurrences of that node's unions, in DFS order (so each
  single union occupies a contiguous run, sorted by value);
- ``offsets[i][j]`` -- the CSR offsets of the edge to child ``j``:
  ``len(values[i]) + 1`` entries, starting at 0 and ending at the
  length of the child's column.  Entry ``e``'s child union is the run
  ``offsets[i][j][e]:offsets[i][j][e + 1]`` of the child's columns (DFS
  construction makes the child unions tile the child column in parent
  entry order, so one column holds both ends of every range);
- ``pool`` -- the interned distinct values; ids are indices into it.

One union entry therefore costs ``1 + #children`` int64 array slots
(plus one offset per edge) instead of a tuple, a ``ProductRep`` and
per-child ``UnionRep`` objects.  Columns are :class:`array.array`
(``'q'``, int64) or int64 numpy arrays (zero-copy views into a mapped
file), so they also serialise as raw bytes (see the ``arena`` blob kind
in :mod:`repro.persist.codec`).  The counting kernels are numpy segment
sums over the offsets, with an explicit int64 overflow guard falling
back to exact Python integers.

Conventions match the object encoding: the *empty* relation is encoded
as ``None`` (never as an empty arena), and the nullary tuple
(``ProductRep([])`` over a forest with no trees) is an arena with zero
nodes, which counts one tuple and enumerates a single empty row.

The arena is immutable by convention: operators never mutate columns in
place, and derived arenas (selection filters, subtree-dropping
projections) may *share* column arrays and the value pool with their
source.  The pool may contain values that no surviving entry references
(filtered selections, operator outputs); decoding simply never visits
them.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from itertools import accumulate
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.frep import FRepError, ProductRep, UnionRep
from repro.core.ftree import FTree

#: Pre-multiplication bound under which int64 arithmetic cannot
#: overflow; counts that may exceed it are computed with exact Python
#: integers instead of numpy.
_INT64_SAFE = 1 << 62

#: Entries per step of the pool compaction in :meth:`ArenaWriter.
#: finish`: bounds its temporaries to a few copies of one chunk.
_REMAP_CHUNK = 1 << 16


class ArenaError(FRepError):
    """Raised when an arena violates its structural invariants."""


def _i64() -> array:
    return array("q")


def _as_np(column):
    """An int64 ndarray view of a column (``array('q')`` or ndarray)."""
    if isinstance(column, np.ndarray):
        return column
    return np.frombuffer(column, dtype=np.int64)


def _extend_shifted(
    dest: array, source, lo: int, hi: int, delta: int = 0
) -> None:
    """Append ``source[lo:hi] + delta`` to ``dest`` (``dest`` may be
    ``source`` itself; ``source`` may be an mmap-backed ndarray)."""
    if delta == 0 and isinstance(source, array):
        dest.extend(source[lo:hi])
        return
    # The sum is a fresh contiguous int64 array, appended through a
    # byte view of it; the view of ``source`` it was computed from is
    # released before ``dest`` resizes (a live export would make the
    # resize a BufferError).
    dest.frombytes((_as_np(source)[lo:hi] + delta).view(np.uint8))


def _compact_pool(columns: List[array], pool: Sequence[object]) -> List[object]:
    """Renumber the value ids of ``columns`` in place to first-use order
    (columns in node order, entries in column order) and return the
    used values of ``pool`` in that order.

    Works chunk by chunk: an id first seen in a chunk ranks after every
    id of earlier chunks and, within the chunk, by its first position,
    which is exactly first-use order.
    """
    remap = np.full(len(pool), -1, dtype=np.int64)
    used: List[object] = []
    for column in columns:
        ids = _as_np(column)
        for start in range(0, len(ids), _REMAP_CHUNK):
            chunk = ids[start : start + _REMAP_CHUNK]
            renamed = remap[chunk]
            fresh = np.flatnonzero(renamed < 0)
            if len(fresh):
                new, first = np.unique(chunk[fresh], return_index=True)
                new = new[np.argsort(first)]
                remap[new] = np.arange(
                    len(used), len(used) + len(new), dtype=np.int64
                )
                used.extend(pool[vid] for vid in new.tolist())
                renamed = remap[chunk]
            chunk[:] = renamed
    return used


class ValuePool:
    """A shareable, append-only interned-value pool.

    Ordinary arenas own a plain ``list`` pool; a :class:`ValuePool` is
    the *shared* variant: many arenas (every shard result of one
    database, every column batch on one wire connection) reference the
    same pool object, so their value ids are directly comparable and
    :func:`repro.ops.arena_kernels.union_arena` can merge columns
    without any id remapping.  Interning is thread-safe (shard workers
    and the server's task pool intern concurrently); reads are
    lock-free, misses take a lock.  Ids are never remapped or removed
    -- :meth:`ArenaWriter.finish` skips its pool compaction for shared
    pools -- so ids handed out remain valid forever.
    """

    __slots__ = ("_values", "_intern", "_lock")

    def __init__(self, values: Sequence[object] = ()) -> None:
        self._values: List[object] = list(values)
        self._intern: Dict[type, Dict[object, int]] = {}
        self._lock = threading.Lock()
        for vid, value in enumerate(self._values):
            table = self._intern.setdefault(value.__class__, {})
            table.setdefault(value, vid)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, vid):
        return self._values[vid]

    def __iter__(self) -> Iterator[object]:
        return iter(self._values)

    def intern(self, value: object) -> int:
        table = self._intern.get(value.__class__)
        if table is not None:
            vid = table.get(value)
            if vid is not None:
                return vid
        with self._lock:
            # Re-check under the lock: another thread may have interned
            # the value (or created the type table) since the fast path.
            table = self._intern.get(value.__class__)
            if table is None:
                table = self._intern[value.__class__] = {}
            vid = table.get(value)
            if vid is None:
                vid = len(self._values)
                self._values.append(value)
                table[value] = vid
            return vid

    def values_since(self, base: int) -> List[object]:
        """The values appended at ids ``base..`` (for wire deltas)."""
        return self._values[base:]

    def __reduce__(self):
        # Pickling (process-pool task results) drops the lock and the
        # sharing identity: the receiving process gets its own pool.
        return (ValuePool, (list(self._values),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValuePool(len={len(self._values)})"


# -- skeleton: the per-tree node layout --------------------------------------


class _Skeleton:
    """The canonical pre-order layout of one f-tree's nodes.

    Node ``i``'s descendants are exactly the contiguous index range
    ``(i, end[i])`` -- the property every rollback and bulk-copy below
    relies on.
    """

    __slots__ = (
        "labels",
        "attr_tuples",
        "children",
        "parent",
        "roots",
        "end",
        "index",
        "__weakref__",
    )

    def __init__(self, tree: FTree) -> None:
        labels: List[FrozenSet[str]] = []
        attr_tuples: List[Tuple[str, ...]] = []
        children: List[Tuple[int, ...]] = []
        parent: List[int] = []
        end: List[int] = []

        def walk(node, parent_idx: int) -> int:
            idx = len(labels)
            labels.append(node.label)
            attr_tuples.append(tuple(sorted(node.label)))
            children.append(())
            parent.append(parent_idx)
            end.append(idx + 1)
            children[idx] = tuple(walk(c, idx) for c in node.children)
            end[idx] = len(labels)
            return idx

        self.roots: Tuple[int, ...] = tuple(
            walk(root, -1) for root in tree.roots
        )
        self.labels = labels
        self.attr_tuples = attr_tuples
        self.children = children
        self.parent = parent
        self.end = end
        self.index: Dict[FrozenSet[str], int] = {
            label: i for i, label in enumerate(labels)
        }

    def __len__(self) -> int:
        return len(self.labels)

    def node_of_attr(self, attribute: str) -> int:
        for i, label in enumerate(self.labels):
            if attribute in label:
                return i
        raise ArenaError(f"attribute {attribute!r} not in this arena")


def _skeleton_of(tree: FTree) -> _Skeleton:
    return _Skeleton(tree)


# -- the arena ---------------------------------------------------------------


class ArenaRep:
    """A flat, columnar f-representation (see the module docstring)."""

    __slots__ = ("skel", "values", "offsets", "pool")

    def __init__(
        self,
        skel: _Skeleton,
        values: List[array],
        offsets: List[List[array]],
        pool: List[object],
    ) -> None:
        self.skel = skel
        self.values = values
        self.offsets = offsets
        self.pool = pool

    # -- introspection -----------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.skel)

    @property
    def entry_count(self) -> int:
        """Total union entries across all columns."""
        return sum(len(column) for column in self.values)

    def singleton_count(self) -> int:
        """The paper's ``|E|``: entries weighted by label width."""
        return sum(
            len(column) * len(self.skel.labels[i])
            for i, column in enumerate(self.values)
        )

    def nbytes(self) -> int:
        """Approximate bytes held by the integer columns."""
        total = 0
        for column, edges in zip(self.values, self.offsets):
            total += column.itemsize * len(column)
            for offsets in edges:
                total += offsets.itemsize * len(offsets)
        return total

    def attributes(self) -> Tuple[str, ...]:
        out: List[str] = []
        for attrs in self.skel.attr_tuples:
            out.extend(attrs)
        return tuple(sorted(out))

    def __repr__(self) -> str:
        return (
            f"ArenaRep(nodes={self.node_count}, "
            f"entries={self.entry_count}, pool={len(self.pool)})"
        )

    def copy(self) -> "ArenaRep":
        return ArenaRep(
            self.skel,
            [array("q", column) for column in self.values],
            [[array("q", a) for a in edges] for edges in self.offsets],
            list(self.pool),
        )

    # -- conversion --------------------------------------------------------

    def to_product(self) -> ProductRep:
        """Rebuild the object encoding (inverse of :func:`from_product`)."""
        skel, pool = self.skel, self.pool
        values, offsets = self.values, self.offsets

        def build_union(idx: int, lo: int, hi: int) -> UnionRep:
            kids = skel.children[idx]
            column = values[idx]
            edges = offsets[idx]
            entries = []
            for e in range(lo, hi):
                factors = [
                    build_union(k, edges[j][e], edges[j][e + 1])
                    for j, k in enumerate(kids)
                ]
                entries.append((pool[column[e]], ProductRep(factors)))
            return UnionRep(entries)

        return ProductRep(
            [
                build_union(r, 0, len(values[r]))
                for r in self.skel.roots
            ]
        )


# -- incremental construction ------------------------------------------------


class ArenaWriter:
    """Append-only arena construction with subtree rollback: the one
    writer behind every arena the engine produces.

    Entries are written children first.  :meth:`commit` seals one entry
    of a node by appending, per child, the child column's current
    length as the entry's end offset -- its start is the previous
    entry's end, so the offsets tile by construction.  An entry whose
    children forest turns out empty is *rolled back* by truncating
    every descendant column to its recorded watermark (pre-order makes
    descendants a contiguous index range, so a watermark is one length
    per descendant column).  :meth:`copy_block` appends whole blocks
    with everything below them: the factoriser from entries it wrote
    earlier, the selection filter and the operator kernels from their
    input arena.

    Without a ``pool`` the writer interns into a private pool that
    :meth:`finish` compacts.  With one it never compacts: a shared
    :class:`ValuePool` is interned into, and the operator kernels pass
    their input's pool and commit ids copied verbatim, never interning.
    """

    __slots__ = ("skel", "values", "offsets", "pool", "_intern")

    def __init__(self, tree_or_skel, pool=None) -> None:
        skel = (
            tree_or_skel
            if isinstance(tree_or_skel, _Skeleton)
            else _skeleton_of(tree_or_skel)
        )
        self.skel = skel
        n = len(skel)
        self.values: List[array] = [_i64() for _ in range(n)]
        self.offsets: List[List[array]] = [
            [array("q", (0,)) for _ in skel.children[i]] for i in range(n)
        ]
        self.pool = [] if pool is None else pool
        # One intern table per value *type*: True == 1 and 1.0 == 1
        # must not collapse into one pool slot (decoding would change
        # value types), and a per-type dict avoids allocating a
        # (type, value) key tuple on the build hot path.  ``None`` when
        # the pool was given.
        self._intern: Optional[Dict[type, Dict[object, int]]] = (
            {} if pool is None else None
        )

    @property
    def index(self) -> Dict[FrozenSet[str], int]:
        return self.skel.index

    def intern(self, value: object) -> int:
        if self._intern is None:
            return self.pool.intern(value)  # type: ignore[union-attr]
        table = self._intern.get(value.__class__)
        if table is None:
            table = self._intern[value.__class__] = {}
        vid = table.get(value)
        if vid is None:
            vid = table[value] = len(self.pool)
            self.pool.append(value)
        return vid

    def entry_count(self, idx: int) -> int:
        return len(self.values[idx])

    def mark(self, idx: int) -> List[int]:
        """Watermarks of every descendant column of ``idx``."""
        values = self.values
        return [
            len(values[k])
            for k in range(idx + 1, self.skel.end[idx])
        ]

    def commit(self, idx: int, vid: int) -> None:
        """Seal one entry of node ``idx`` with value id ``vid``: the
        child entries written since the previous entry become its child
        unions."""
        values = self.values
        for offsets, k in zip(self.offsets[idx], self.skel.children[idx]):
            offsets.append(len(values[k]))
        values[idx].append(vid)

    def rollback(self, idx: int, marks: List[int]) -> None:
        """Discard everything written below ``idx`` since :meth:`mark`."""
        for k, watermark in zip(
            range(idx + 1, self.skel.end[idx]), marks
        ):
            del self.values[k][watermark:]
            for offsets in self.offsets[k]:
                del offsets[watermark + 1 :]

    def copy_block(
        self,
        src,
        si: int,
        di: int,
        lo: int,
        hi: int,
        vmap=None,
    ) -> None:
        """Append entries ``[lo, hi)`` of node ``si`` in ``src`` (an
        :class:`ArenaRep`, or this writer itself) with everything below
        them to node ``di``.

        The subtrees under ``si`` and ``di`` must be structurally
        identical (same labels; canonical child sorting then makes the
        child orders coincide, so the recursion is positional).  The
        entries' child unions tile one contiguous run per descendant
        column, so the copy is one slice per column: value ids verbatim
        (or through ``vmap``, an id remap table, for cross-pool
        copies), offsets shifted by how far each child run moves.
        """
        if hi <= lo:
            return
        values = self.values
        if vmap is None:
            _extend_shifted(values[di], src.values[si], lo, hi)
        else:
            values[di].frombytes(
                vmap[_as_np(src.values[si])[lo:hi]].view(np.uint8)
            )
        dkids = self.skel.children[di]
        for j, sk in enumerate(src.skel.children[si]):
            offsets = src.offsets[si][j]
            c_lo = int(offsets[lo])
            c_hi = int(offsets[hi])
            dk = dkids[j]
            _extend_shifted(
                self.offsets[di][j],
                offsets,
                lo + 1,
                hi + 1,
                len(values[dk]) - c_lo,
            )
            self.copy_block(src, sk, dk, c_lo, c_hi, vmap)

    def extend_leaf(self, idx: int, leaf_values: Sequence[object]) -> None:
        """Fast path: append a whole leaf union (no children, no marks)."""
        if not leaf_values:
            return
        if self._intern is None:
            pool_intern = self.pool.intern  # type: ignore[union-attr]
            self.values[idx].extend(
                pool_intern(value) for value in leaf_values
            )
            return
        # Candidate lists are homogeneous in practice: resolve the
        # per-type intern table once per union, not once per value.
        table = self._intern.get(leaf_values[0].__class__)
        if table is None:
            table = self._intern[leaf_values[0].__class__] = {}
        pool = self.pool
        column = self.values[idx]
        first_class = leaf_values[0].__class__
        for value in leaf_values:
            if value.__class__ is not first_class:
                column.append(self.intern(value))
                continue
            vid = table.get(value)
            if vid is None:
                vid = table[value] = len(pool)
                pool.append(value)
            column.append(vid)

    def finish(self) -> ArenaRep:
        """Freeze the arena, compacting a private pool first.

        Rollbacks may leave interned values no surviving entry uses;
        remapping ids to first-use order keeps the pool tight and the
        encoding deterministic for a given construction order.  A given
        pool is never compacted: its ids are also referenced by other
        arenas.
        """
        if self._intern is not None:
            self.pool = _compact_pool(self.values, self.pool)
        return ArenaRep(self.skel, self.values, self.offsets, self.pool)


# -- conversion from the object encoding -------------------------------------


def from_product(
    tree: FTree, product: Optional[ProductRep]
) -> Optional[ArenaRep]:
    """Encode an object representation into an arena (``None`` = empty)."""
    if product is None:
        return None
    writer = ArenaWriter(tree)
    skel = writer.skel

    def emit_union(idx: int, union: UnionRep) -> None:
        kids = skel.children[idx]
        if not kids:
            writer.extend_leaf(idx, [value for value, _ in union.entries])
            return
        for value, child in union.entries:
            for k, factor in zip(kids, child.factors):
                emit_union(k, factor)
            writer.commit(idx, writer.intern(value))

    if len(product.factors) != len(skel.roots):
        raise ArenaError(
            f"product arity {len(product.factors)} does not match "
            f"forest arity {len(skel.roots)}"
        )
    for r, union in zip(skel.roots, product.factors):
        emit_union(r, union)
    return writer.finish()


def to_product(arena: Optional[ArenaRep]) -> Optional[ProductRep]:
    """Decode an arena back to the object encoding (``None`` = empty)."""
    return None if arena is None else arena.to_product()


# -- validation --------------------------------------------------------------


def validate_arena_bounds(
    tree: FTree, arena: Optional[ArenaRep]
) -> None:
    """Flat structural checks: skeleton alignment, value-id bounds and
    the CSR shape of every offsets column.  O(entries) vectorised
    scans, so the persistence layer can afford them on every load.

    An offsets column must hold one entry more than its parent column,
    start at 0, end at the length of the child column and increase
    strictly: exactly the DFS tiling every construction path writes,
    with no empty child union.  The bulk-copy kernels rely on that
    layout, so a CRC-valid but tampered blob must be rejected here, not
    crash (or mis-answer) later.
    """
    if arena is None:
        return
    skel = arena.skel
    expected = _skeleton_of(tree)
    if skel.labels != expected.labels:
        raise ArenaError("arena skeleton does not match the f-tree")
    pool_size = len(arena.pool)
    for i in range(len(skel)):
        column = arena.values[i]
        if len(column):
            ids = _as_np(column)
            low, high = int(ids.min()), int(ids.max())
            if not (0 <= low and high < pool_size):
                raise ArenaError(
                    f"node {i}: value ids outside the pool "
                    f"[{low}, {high}] vs {pool_size}"
                )
        for j, k in enumerate(skel.children[i]):
            offsets = _as_np(arena.offsets[i][j])
            if len(offsets) != len(column) + 1:
                raise ArenaError(
                    f"node {i}: {len(offsets)} offsets for "
                    f"{len(column)} entries (expected one more)"
                )
            limit = len(arena.values[k])
            if offsets[0] != 0 or offsets[-1] != limit:
                raise ArenaError(
                    f"node {i}: offsets do not tile the child "
                    f"column [0, {limit})"
                )
            if not bool((offsets[1:] > offsets[:-1]).all()):
                raise ArenaError(
                    f"node {i}: offsets not strictly increasing "
                    f"(child unions must be non-empty and tile in DFS "
                    f"order)"
                )


def validate_arena(tree: FTree, arena: Optional[ArenaRep]) -> None:
    """Full structural checks: bounds plus the per-union strict value
    order.  Complements (not replaces) the object-level
    :func:`repro.core.validate.validate_relation`."""
    if arena is None:
        return
    validate_arena_bounds(tree, arena)
    skel = arena.skel
    pool = arena.pool

    def check_union(idx: int, lo: int, hi: int) -> None:
        column = arena.values[idx]
        if lo >= hi:
            raise ArenaError(
                f"node {idx}: empty union inside a non-empty arena"
            )
        for e in range(lo + 1, hi):
            if not pool[column[e - 1]] < pool[column[e]]:
                raise ArenaError(
                    f"node {idx}: union values not strictly "
                    f"increasing at entry {e}"
                )
        for j, k in enumerate(skel.children[idx]):
            offsets = arena.offsets[idx][j]
            for e in range(lo, hi):
                check_union(k, offsets[e], offsets[e + 1])

    for r in skel.roots:
        check_union(r, 0, len(arena.values[r]))


# -- size and counting -------------------------------------------------------


def representation_size(arena: Optional[ArenaRep]) -> int:
    """``|E|`` in singletons -- O(#nodes) on the arena."""
    return 0 if arena is None else arena.singleton_count()


def _prefix(counts: List[int]) -> List[int]:
    return list(accumulate(counts, initial=0))


def _forest_counts(
    arena: ArenaRep, idx: int, counts: List[object], consume: bool
):
    """Per entry of inner node ``idx``: the tuples its children forest
    represents (the product over children of the child segment's
    count).  A leaf child contributes its union width (the offsets'
    differences); an inner child ``k`` reads ``counts[k]`` through a
    prefix sum that lives only for that child, and with ``consume``
    ``counts[k]`` is dropped as soon as its prefix exists.  numpy
    segment sums when the products provably fit int64 (the
    ``_INT64_SAFE`` bound), exact Python integers otherwise; the result
    is an int64 ndarray or a list."""
    skel = arena.skel
    kids = skel.children[idx]
    exact = False
    bound = 1
    for k in kids:
        if skel.children[k]:
            child = counts[k]
            if not isinstance(child, np.ndarray):
                exact = True
                break
            peak = int(child.max()) if len(child) else 0
            bound *= max(peak * len(child), 1)
        else:
            bound *= max(len(arena.values[k]), 1)
        if bound > _INT64_SAFE:
            exact = True
            break
    if not exact:
        total = None
        for j, k in enumerate(kids):
            offsets = _as_np(arena.offsets[idx][j])
            if skel.children[k]:
                child = counts[k]
                prefix = np.zeros(len(child) + 1, dtype=np.int64)
                np.cumsum(child, out=prefix[1:])
                child = None
                if consume:
                    counts[k] = None
                segment = np.diff(prefix[offsets])
                prefix = None
            else:
                segment = np.diff(offsets)
            if total is None:
                total = segment
            else:
                total *= segment
        return total
    m = len(arena.values[idx])
    total_list = [1] * m
    for j, k in enumerate(kids):
        offsets = _as_np(arena.offsets[idx][j]).tolist()
        if not skel.children[k]:
            for e in range(m):
                total_list[e] *= offsets[e + 1] - offsets[e]
            continue
        child = counts[k]
        if isinstance(child, np.ndarray):
            child = child.tolist()
        prefix = _prefix(child)
        child = None
        if consume:
            counts[k] = None
        for e in range(m):
            total_list[e] *= prefix[offsets[e + 1]] - prefix[offsets[e]]
        prefix = None
    return total_list


def _entry_counts(arena: ArenaRep) -> List[object]:
    """Per node, per entry: tuples represented below-and-including the
    entry (the children-forest product; 1 for a leaf entry).  Keeps
    every node's array -- :func:`group_count` reads them all;
    :func:`tuple_count` streams the same pass instead."""
    skel = arena.skel
    n = len(skel)
    counts: List[object] = [None] * n  # list[int] or int64 ndarray
    for idx in range(n - 1, -1, -1):
        if skel.children[idx]:
            counts[idx] = _forest_counts(arena, idx, counts, False)
        else:
            counts[idx] = np.ones(len(arena.values[idx]), dtype=np.int64)
    return counts


def _column_total(column) -> int:
    """Exact Python-int sum of a per-entry count column."""
    if isinstance(column, np.ndarray):
        return sum(column.tolist())
    return sum(column)


def tuple_count(arena: Optional[ArenaRep]) -> int:
    """Number of represented tuples, by sum/product over the columns.

    Streams the bottom-up pass of :func:`_entry_counts`: leaves hold no
    per-entry array (their parents read union widths), and an inner
    node's array is dropped as soon as its parent has consumed it, so
    only the counts of not-yet-consumed subtrees are live at once.
    """
    if arena is None:
        return 0
    skel = arena.skel
    counts: List[object] = [None] * len(skel)
    for idx in range(len(skel) - 1, -1, -1):
        kids = skel.children[idx]
        if kids:
            counts[idx] = _forest_counts(arena, idx, counts, True)
    total = 1
    for r in skel.roots:
        if skel.children[r]:
            total *= _column_total(counts[r])
        else:
            total *= len(arena.values[r])
        if total == 0:
            return 0
    return total


# -- enumeration -------------------------------------------------------------
#
# Two interchangeable engines with identical output order:
#
# - a generic recursive walk (the reference, always available);
# - a *compiled* enumerator: per (skeleton, attribute order) we
#   generate the statically nested ``for`` loops the skeleton dictates
#   -- one loop per node, ranges read straight off the offset columns
#   -- and ``exec`` them once.  No per-entry unit lists, no recursion,
#   no dict lookups per row; the technique FDB's descendants (LMFAO
#   and friends) apply to aggregation, applied here to enumeration.
#
# Compiled enumerators are cached per skeleton (weakly) and keyed by
# the requested attribute order, so arenas sharing a skeleton (e.g. a
# selection filter's output) share the machine-made loop nest.

#: CPython rejects more than ~20 statically nested blocks; deeper
#: skeletons use the recursive walk.
_MAX_CODEGEN_NODES = 18

#: Arenas smaller than this enumerate via the walk: below it, the
#: one-off exec/compile cost dominates the loop savings.
_CODEGEN_MIN_ENTRIES = 32

_ENUM_CACHE: "weakref.WeakKeyDictionary[_Skeleton, Dict[Tuple[str, ...], Callable]]" = (
    weakref.WeakKeyDictionary()
)


def _compile_rows(
    skel: _Skeleton, order: Tuple[str, ...]
) -> Callable[[ArenaRep], Iterator[tuple]]:
    """Build (or fetch) the compiled enumerator for one skeleton and
    output attribute order."""
    per_skel = _ENUM_CACHE.setdefault(skel, {})
    cached = per_skel.get(order)
    if cached is not None:
        return cached

    slot_of = {attr: i for i, attr in enumerate(order)}
    lines: List[str] = [
        "def _rows(arena):",
        "    _values = arena.values",
        "    _offsets = arena.offsets",
        "    _pool = arena.pool",
        f"    _buffer = [None] * {len(order)}",
    ]
    # Local binds: one name per column, resolved once.
    for idx in range(len(skel)):
        lines.append(f"    _v{idx} = _values[{idx}]")
        for j, k in enumerate(skel.children[idx]):
            lines.append(f"    _o{k} = _offsets[{idx}][{j}]")

    def emit(units: List[Tuple[int, Optional[int]]], depth: int) -> None:
        pad = "    " * (depth + 1)
        if not units:
            lines.append(f"{pad}yield tuple(_buffer)")
            return
        (idx, parent), rest = units[0], units[1:]
        var = f"_e{idx}"
        if parent is None:
            rng = f"range(len(_v{idx}))"
        else:
            rng = f"range(_o{idx}[_e{parent}], _o{idx}[_e{parent} + 1])"
        lines.append(f"{pad}for {var} in {rng}:")
        body = "    " * (depth + 2)
        slots = [
            slot_of[attr]
            for attr in skel.attr_tuples[idx]
            if attr in slot_of
        ]
        if slots:
            lines.append(f"{body}_x = _pool[_v{idx}[{var}]]")
            for slot in slots:
                lines.append(f"{body}_buffer[{slot}] = _x")
        children = [(k, idx) for k in skel.children[idx]]
        emit(children + rest, depth + 1)

    emit([(r, None) for r in skel.roots], 0)
    namespace: Dict[str, object] = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - self-generated
    compiled = namespace["_rows"]
    per_skel[order] = compiled
    return compiled


def _iter_rows_walk(
    arena: ArenaRep, attributes: Sequence[str]
) -> Iterator[tuple]:
    """The generic recursive enumeration walk (reference engine)."""
    skel = arena.skel
    order = tuple(attributes)
    slot_of = {attr: i for i, attr in enumerate(order)}
    node_slots: List[Tuple[int, ...]] = [
        tuple(
            slot_of[attr]
            for attr in attrs
            if attr in slot_of
        )
        for attrs in skel.attr_tuples
    ]
    buffer: List[object] = [None] * len(order)
    pool = arena.pool
    values = arena.values
    offsets = arena.offsets
    children = skel.children

    def walk(units: Tuple[Tuple[int, int, int], ...]) -> Iterator[tuple]:
        if not units:
            yield tuple(buffer)
            return
        (idx, lo, hi) = units[0]
        rest = units[1:]
        column = values[idx]
        slots = node_slots[idx]
        kids = children[idx]
        edges = offsets[idx]
        for e in range(lo, hi):
            value = pool[column[e]]
            for s in slots:
                buffer[s] = value
            child_units = tuple(
                (k, edges[j][e], edges[j][e + 1])
                for j, k in enumerate(kids)
            )
            yield from walk(child_units + rest)

    yield from walk(
        tuple((r, 0, len(values[r])) for r in skel.roots)
    )


def iter_rows(
    arena: Optional[ArenaRep], attributes: Sequence[str]
) -> Iterator[tuple]:
    """Yield tuples projected onto ``attributes``, in exactly the order
    the object-encoding walk produces them (depth-first, unions in
    value order).  Large arenas with shallow skeletons run through the
    compiled per-skeleton loop nest; everything else takes the
    recursive walk -- both produce identical sequences."""
    if arena is None:
        return
    known = {
        attr
        for attrs in arena.skel.attr_tuples
        for attr in attrs
    }
    for attr in attributes:
        if attr not in known:
            # The object walk raises KeyError on its first row; a
            # silent None column would turn a typo into wrong data.
            raise KeyError(attr)
    node_count = arena.node_count
    if (
        0 < node_count <= _MAX_CODEGEN_NODES
        and arena.entry_count >= _CODEGEN_MIN_ENTRIES
    ):
        compiled = _compile_rows(arena.skel, tuple(attributes))
        yield from compiled(arena)
        return
    yield from _iter_rows_walk(arena, attributes)


def iter_assignments(
    arena: Optional[ArenaRep],
) -> Iterator[Dict[str, object]]:
    """Yield every tuple as an attr->value dict (object-walk order)."""
    if arena is None:
        return
    attrs: List[str] = []
    for label in arena.skel.attr_tuples:
        attrs.extend(label)
    for row in iter_rows(arena, attrs):
        yield dict(zip(attrs, row))


# -- aggregates --------------------------------------------------------------


def _require_attribute(arena: ArenaRep, attribute: str) -> int:
    from repro.core.aggregate import AggregateError

    for i, label in enumerate(arena.skel.labels):
        if attribute in label:
            return i
    raise AggregateError(f"unknown attribute {attribute!r}")


def count(arena: Optional[ArenaRep]) -> int:
    return tuple_count(arena)


def _count_sum(
    arena: ArenaRep, attribute: str
) -> Tuple[int, float]:
    """(tuple count, SUM(attribute)) via one exact bottom-up pass."""
    skel = arena.skel
    n = len(skel)
    # Per node: prefix sums of per-entry (count, sum), so parents read
    # child segments in O(1).
    cnt_prefix: List[List[int]] = [[] for _ in range(n)]
    sum_prefix: List[List[float]] = [[] for _ in range(n)]
    pool = arena.pool
    for idx in range(n - 1, -1, -1):
        m = len(arena.values[idx])
        kids = skel.children[idx]
        edges = arena.offsets[idx]
        here = attribute in skel.labels[idx]
        column = arena.values[idx]
        cnts: List[int] = []
        sums: List[float] = []
        for e in range(m):
            forest_count = 1
            forest_sum = 0.0
            for j, k in enumerate(kids):
                lo = edges[j][e]
                hi = edges[j][e + 1]
                part_count = cnt_prefix[k][hi] - cnt_prefix[k][lo]
                part_sum = sum_prefix[k][hi] - sum_prefix[k][lo]
                forest_sum = (
                    forest_sum * part_count + part_sum * forest_count
                )
                forest_count *= part_count
            if here:
                forest_sum += float(pool[column[e]]) * forest_count  # type: ignore[arg-type]
            cnts.append(forest_count)
            sums.append(forest_sum)
        cnt_prefix[idx] = _prefix(cnts)
        sum_prefix[idx] = list(accumulate(sums, initial=0.0))
    total_count = 1
    total_sum = 0.0
    for r in skel.roots:
        part_count = cnt_prefix[r][-1]
        part_sum = sum_prefix[r][-1]
        total_sum = total_sum * part_count + part_sum * total_count
        total_count *= part_count
        if total_count == 0:
            return 0, 0.0
    return total_count, total_sum


def sum_of(arena: ArenaRep, attribute: str) -> float:
    _require_attribute(arena, attribute)
    return _count_sum(arena, attribute)[1]


def average(arena: ArenaRep, attribute: str) -> Optional[float]:
    _require_attribute(arena, attribute)
    total_count, total_sum = _count_sum(arena, attribute)
    return total_sum / total_count if total_count else None


def extreme(arena: ArenaRep, attribute: str, minimum: bool):
    """MIN/MAX: every arena entry is reachable (no empty unions), so
    the extreme over the node's whole value column is the answer."""
    idx = _require_attribute(arena, attribute)
    pool = arena.pool
    found = (pool[vid] for vid in arena.values[idx])
    return min(found) if minimum else max(found)


def count_distinct(arena: ArenaRep, attribute: str) -> int:
    idx = _require_attribute(arena, attribute)
    # Decode through the pool: interning is per *type* (1, 1.0 and
    # True occupy distinct slots), but COUNT(DISTINCT) uses value
    # equality, under which they collapse -- exactly as the object
    # encoding's value set does.
    pool = arena.pool
    return len({pool[vid] for vid in set(arena.values[idx])})


def group_count(
    arena: ArenaRep, attribute: str
) -> Dict[object, int]:
    """GROUP BY ``attribute`` with COUNT(*), without enumeration.

    Per entry ``e`` of the attribute's node: tuples containing it are
    ``above(e) * below(e)`` -- the context multiplier accumulated down
    the root-to-node path times the entry's children-forest count.
    """
    target = _require_attribute(arena, attribute)
    skel = arena.skel
    counts = _entry_counts(arena)
    totals = {r: _column_total(counts[r]) for r in skel.roots}

    # Root-to-target path.
    path = [target]
    while skel.parent[path[-1]] != -1:
        path.append(skel.parent[path[-1]])
    path.reverse()

    root = path[0]
    context = 1
    for r in skel.roots:
        if r != root:
            context *= totals[r]
    above: List[int] = [context] * len(arena.values[root])

    def seg_count(idx: int, j: int, e: int) -> int:
        child = counts[skel.children[idx][j]]
        offsets = arena.offsets[idx][j]
        lo, hi = offsets[e], offsets[e + 1]
        if isinstance(child, np.ndarray):
            return int(child[lo:hi].sum(dtype=object))
        return sum(child[lo:hi])

    for step, idx in enumerate(path[:-1]):
        next_node = path[step + 1]
        slot = skel.children[idx].index(next_node)
        offsets = arena.offsets[idx][slot]
        next_above: List[int] = [0] * len(arena.values[next_node])
        for e in range(len(arena.values[idx])):
            others = above[e]
            for j in range(len(skel.children[idx])):
                if j != slot:
                    others *= seg_count(idx, j, e)
            for t in range(offsets[e], offsets[e + 1]):
                next_above[t] = others
        above = next_above

    pool = arena.pool
    column = arena.values[target]
    below = counts[target]
    if isinstance(below, np.ndarray):
        below = below.tolist()
    out: Dict[object, int] = {}
    for e, vid in enumerate(column):
        value = pool[vid]
        out[value] = out.get(value, 0) + above[e] * below[e]
    return out


# -- operator kernels --------------------------------------------------------


def _keep_lookup(
    arena: ArenaRep, target: int, predicate: Callable[[object], bool]
):
    """A per-value-id keep table for ``target``'s column, and the
    column as an ndarray.

    The predicate runs once per *distinct id actually present* in the
    column (never over the whole pool: a shared pool holds values of
    every attribute, on which the predicate could be meaningless), and
    the per-entry test collapses into an integer table lookup.
    """
    column = _as_np(arena.values[target])
    pool = arena.pool
    keep = np.zeros(len(pool), dtype=bool)
    for vid in np.unique(column).tolist():
        keep[vid] = bool(predicate(pool[vid]))
    return keep, column


def select_filter(
    arena: ArenaRep,
    attribute: str,
    predicate: Callable[[object], bool],
) -> Optional[ArenaRep]:
    """Keep only the entries of ``attribute``'s node passing
    ``predicate``, cascading the pruning of emptied unions upward --
    the arena kernel behind constant selections.

    Subtrees that cannot contain the target node are copied wholesale
    (contiguous column slices with offset fix-up) instead of entry by
    entry, and the predicate itself is vectorised: it runs once per
    distinct value id, the resulting boolean mask over the target
    column is compacted into maximal kept runs, and each run is
    bulk-copied (values, offsets and subtrees alike).  Returns ``None``
    when the whole relation empties.
    """
    skel = arena.skel
    target = skel.node_of_attr(attribute)
    on_path = [False] * len(skel)
    walk_up = target
    while walk_up != -1:
        on_path[walk_up] = True
        walk_up = skel.parent[walk_up]

    # The output shares the input pool: value ids are copied verbatim.
    writer = ArenaWriter(skel, arena.pool)
    keep, target_ids = _keep_lookup(arena, target, predicate)

    def copy_target(lo: int, hi: int) -> bool:
        """Mask the target occurrence, bulk-copy the kept runs."""
        mask = keep[target_ids[lo:hi]]
        if mask.all():
            writer.copy_block(arena, target, target, lo, hi)
            return True
        hits = np.flatnonzero(mask)
        if not len(hits):
            return False
        # Compact consecutive hits into [start, stop) runs.
        breaks = np.flatnonzero(np.diff(hits) > 1) + 1
        for run in np.split(hits, breaks):
            writer.copy_block(
                arena,
                target,
                target,
                lo + int(run[0]),
                lo + int(run[-1]) + 1,
            )
        return True

    def copy_union(idx: int, lo: int, hi: int) -> bool:
        if idx == target:
            return copy_target(lo, hi)
        if not on_path[idx]:
            writer.copy_block(arena, idx, idx, lo, hi)
            return True
        column = arena.values[idx]
        kids = skel.children[idx]
        edges = arena.offsets[idx]
        kept = False
        for e in range(lo, hi):
            marks = writer.mark(idx)
            if all(
                copy_union(k, edges[j][e], edges[j][e + 1])
                for j, k in enumerate(kids)
            ):
                writer.commit(idx, column[e])
                kept = True
            else:
                writer.rollback(idx, marks)
        return kept

    for r in skel.roots:
        if not copy_union(r, 0, len(arena.values[r])):
            return None
    return writer.finish()


def drop_subtrees(
    arena: ArenaRep, new_tree: FTree, dropped: Sequence[int]
) -> ArenaRep:
    """Project away whole subtrees: the kept columns transfer verbatim.

    ``dropped`` holds the arena node ids of the subtree roots to
    remove; ``new_tree`` must be the input tree with exactly those
    subtrees deleted (same labels, same relative order), which the
    caller (:func:`repro.ops.project.project`) guarantees.  Shares the
    surviving column arrays and the pool with the source arena.
    """
    skel = arena.skel
    gone = set()
    for idx in dropped:
        gone.update(range(idx, skel.end[idx]))
    kept = [i for i in range(len(skel)) if i not in gone]
    new_skel = _skeleton_of(new_tree)
    if [skel.labels[i] for i in kept] != new_skel.labels:
        raise ArenaError(
            "dropped subtrees do not line up with the projected f-tree"
        )
    values = [arena.values[i] for i in kept]
    offsets = [
        [
            arena.offsets[i][j]
            for j, k in enumerate(skel.children[i])
            if k not in gone
        ]
        for i in kept
    ]
    return ArenaRep(new_skel, values, offsets, arena.pool)
