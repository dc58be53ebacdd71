"""Factorising flat relational data over an f-tree.

Given input relations and an f-tree ``T`` whose node labels are the
attribute equivalence classes of an equi-join query, this module
computes the f-representation of the join result over ``T`` directly --
without ever materialising the flat result.  This is the engine's
"query evaluation on flat data" path (Experiment 3) and realises the
``O(|Q| * |D|^{s(T-hat)})`` computation referenced in Section 2.

Algorithm
---------
For each node ``v`` we pre-index every relation ``R`` whose schema
meets ``v``'s label: tuples of ``R`` are grouped by the values of the
ancestor classes of ``v`` that ``R`` also meets, and each group stores
the sorted distinct values ``R`` allows for ``v``'s class.  A top-down
recursion then intersects, at each node, the allowed value lists of all
covering relations under the current ancestor assignment, and recurses
into the children forest; values whose children forest is empty are
pruned, so the constructed representation contains no empty unions.
Tuples that violate an intra-relation class equality (two attributes of
``R`` in one class with different values) are skipped while indexing.

The arena factoriser (:class:`ArenaFactoriser`) makes the recursion
output-sensitive.  The union below an inner node ``v`` depends only on
``v``'s *dependency key*: the proper ancestors of ``v`` that some
relation indexed at ``v`` or in its subtree groups by.  When the
f-tree makes that key a strict subset of ``v``'s ancestors (on a path
``a -> b -> c -> d`` where only ``b``'s relations mention ``a``), the
same union recurs under every ancestor prefix that agrees on the key.
Such nodes are memoised per key: the first build records the range of
entries it wrote into ``v``'s column (or that it came up empty), and
every repeat appends a bulk copy of those entries and everything below
them, child offsets shifted.  A rollback above ``v`` that truncates a
recorded block also forgets it, so a later visit rebuilds.  Nodes whose
key is all of their ancestors -- every visit a distinct context -- take
the plain recursion.  The object :class:`Factoriser` stays the plain
recursion: it is the oracle both encodings are tested against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.arena import ArenaRep, ArenaWriter
from repro.core.ftree import FNode, FTree, FTreeError
from repro.core.frep import ProductRep, UnionRep, merge_sorted_values
from repro.relational.relation import Relation

_Context = Dict[FrozenSet[str], object]

#: Memo lookup default: a key never built (``None`` records an empty
#: union).
_UNSEEN = object()


class _Source:
    """Pre-indexed access of one relation at one f-tree node."""

    __slots__ = ("key_labels", "index")

    def __init__(
        self,
        relation: Relation,
        node: FNode,
        ancestors: Sequence[FNode],
    ) -> None:
        rel_attrs = set(relation.attributes)
        self.key_labels: List[FrozenSet[str]] = [
            anc.label for anc in ancestors if anc.label & rel_attrs
        ]
        key_positions = [
            [
                relation.schema.index_of(attr)
                for attr in sorted(label & rel_attrs)
            ]
            for label in self.key_labels
        ]
        own_positions = [
            relation.schema.index_of(attr)
            for attr in sorted(node.label & rel_attrs)
        ]
        grouped: Dict[tuple, set] = {}
        for row in relation.rows:
            key_parts = []
            consistent = True
            for positions in key_positions:
                values = {row[p] for p in positions}
                if len(values) != 1:
                    consistent = False
                    break
                key_parts.append(next(iter(values)))
            if not consistent:
                continue
            own_values = {row[p] for p in own_positions}
            if len(own_values) != 1:
                continue
            grouped.setdefault(tuple(key_parts), set()).add(
                next(iter(own_values))
            )
        self.index: Dict[tuple, List[object]] = {
            key: sorted(values) for key, values in grouped.items()
        }

    def candidates(self, context: _Context) -> List[object]:
        key = tuple(context[label] for label in self.key_labels)
        return self.index.get(key, [])


class Factoriser:
    """Reusable factorisation of a fixed set of relations over an f-tree.

    >>> from repro.relational.relation import Relation
    >>> from repro.core.ftree import FTree
    >>> r = Relation.from_rows("R", ("a", "b"), [(1, 1), (1, 2), (2, 2)])
    >>> tree = FTree.from_nested([("a", [("b", [])])],
    ...                          edges=[{"a", "b"}])
    >>> rep = Factoriser([r], tree).run()
    >>> [(v, u) for v, u in rep.factors[0].entries][0][0]
    1
    """

    def __init__(
        self, relations: Sequence[Relation], tree: FTree
    ) -> None:
        self.tree = tree
        self.relations = list(relations)
        covered = set()
        for relation in self.relations:
            covered.update(relation.attributes)
        tree_attrs = set(tree.attributes())
        if tree_attrs - covered:
            raise FTreeError(
                f"f-tree attributes {sorted(tree_attrs - covered)} not "
                f"present in any input relation"
            )
        self._sources: Dict[FrozenSet[str], List[_Source]] = {}
        for node in tree.iter_nodes():
            ancestors = tree.ancestors(node)
            sources: List[_Source] = []
            for relation in self.relations:
                if node.label & set(relation.attributes):
                    sources.append(_Source(relation, node, ancestors))
            self._sources[node.label] = sources

    def run(self) -> Optional[ProductRep]:
        """Compute the representation; ``None`` for an empty result."""
        return self._build_forest(self.tree.roots, {})

    def _candidates(
        self, node: FNode, context: _Context
    ) -> List[object]:
        sources = self._sources[node.label]
        if not sources:
            raise FTreeError(
                f"node {sorted(node.label)} is covered by no relation"
            )
        lists = sorted(
            (source.candidates(context) for source in sources), key=len
        )
        result = lists[0]
        for other in lists[1:]:
            if not result:
                break
            result = merge_sorted_values(result, other)
        return result

    def _build_forest(
        self, nodes: Sequence[FNode], context: _Context
    ) -> Optional[ProductRep]:
        factors: List[UnionRep] = []
        for node in nodes:
            union = self._build_union(node, context)
            if not union.entries:
                return None
            factors.append(union)
        return ProductRep(factors)

    def _build_union(self, node: FNode, context: _Context) -> UnionRep:
        entries: List[Tuple[object, ProductRep]] = []
        for value in self._candidates(node, context):
            context[node.label] = value
            child = self._build_forest(node.children, context)
            del context[node.label]
            if child is not None:
                entries.append((value, child))
        return UnionRep(entries)


class ArenaFactoriser(Factoriser):
    """Factorise straight into the arena encoding, building each
    repeated subtree once.

    Shares the pre-indexing and candidate intersection of
    :class:`Factoriser` but appends entries into flat integer columns
    (:class:`~repro.core.arena.ArenaWriter`) instead of allocating one
    Python object per union entry: children are written first, and an
    entry whose children forest comes up empty is rolled back by
    truncating the descendant columns -- the exact analogue of the
    object builder's eager pruning, so both encodings always hold the
    same representation.

    The union built at an inner node ``v`` reads the context only
    through the *dependency key* of ``v``: the proper ancestors of
    ``v`` that some relation indexed at ``v`` or below groups by.
    Where the f-tree makes that key a strict subset of ``v``'s
    ancestors, the same union recurs under every ancestor prefix that
    agrees on the key, so ``v`` is *memoised*: the first build under a
    key records the block it wrote -- the ``[start, stop)`` range of
    ``v``'s column; the entries' offsets locate the rest of the
    subtree -- or that it came up empty, and every repeat is a bulk
    copy of that block (:meth:`~repro.core.arena.ArenaWriter.
    copy_block`) or an immediate ``False``.  A rollback above ``v``
    may truncate a recorded block; the blocks of ``v`` sit in one
    stack in column order, so the rollback pops exactly the ones its
    watermark cuts.  Copies are byte-identical to a rebuild --
    every value a rebuild would intern is already interned -- so the
    output, pool order after ``finish()`` included, does not depend on
    the memo.
    """

    def run(self, pool=None) -> Optional[ArenaRep]:  # type: ignore[override]
        """Compute the arena representation; ``None`` when empty.

        ``pool`` interns values into a shared :class:`~repro.core.
        arena.ValuePool` (e.g. one pool per worker process) instead of
        a private per-arena pool, so arenas built for different shards
        recombine by id without re-interning.
        """
        writer = ArenaWriter(self.tree, pool)
        self._plan_memo(writer.skel)
        if not self._emit_forest(self.tree.roots, {}, writer):
            return None
        return writer.finish()

    def _plan_memo(self, skel) -> None:
        """Per node index: the dependency key of memoised nodes (else
        ``None``), an empty memo and block stack, and the memoised
        strict descendants a rollback there must check."""
        n = len(skel)
        # Labels some relation groups by, per subtree (children have
        # larger pre-order indices, so one reverse pass suffices).
        read: List[set] = [set() for _ in range(n)]
        for idx in range(n - 1, -1, -1):
            for source in self._sources[skel.labels[idx]]:
                read[idx].update(source.key_labels)
            for k in skel.children[idx]:
                read[idx] |= read[k]
        self._keys: List[Optional[Tuple[FrozenSet[str], ...]]] = []
        for idx in range(n):
            ancestors = []
            up = skel.parent[idx]
            while up != -1:
                ancestors.append(skel.labels[up])
                up = skel.parent[up]
            ancestors.reverse()
            key = tuple(label for label in ancestors if label in read[idx])
            memoised = skel.children[idx] and len(key) < len(ancestors)
            self._keys.append(key if memoised else None)
        self._memo: List[Dict[tuple, object]] = [{} for _ in range(n)]
        self._blocks: List[List[Tuple[int, tuple]]] = [
            [] for _ in range(n)
        ]
        self._memo_below: List[Tuple[int, ...]] = [
            tuple(
                k
                for k in range(idx + 1, skel.end[idx])
                if self._keys[k] is not None
            )
            for idx in range(n)
        ]

    def _emit_forest(
        self,
        nodes: Sequence[FNode],
        context: _Context,
        writer: ArenaWriter,
    ) -> bool:
        for node in nodes:
            if not self._emit_union(node, context, writer):
                return False
        return True

    def _emit_union(
        self, node: FNode, context: _Context, writer: ArenaWriter
    ) -> bool:
        idx = writer.index[node.label]
        if not node.children:
            # Leaf fast path: the whole union is the candidate list.
            leaf_values = self._candidates(node, context)
            writer.extend_leaf(idx, leaf_values)
            return bool(leaf_values)
        key_labels = self._keys[idx]
        if key_labels is None:
            return self._emit_entries(node, idx, context, writer)
        key = tuple([context[label] for label in key_labels])
        memo = self._memo[idx]
        block = memo.get(key, _UNSEEN)
        if block is None:
            return False
        if block is not _UNSEEN:
            writer.copy_block(writer, idx, idx, *block)
            return True
        start = writer.entry_count(idx)
        if not self._emit_entries(node, idx, context, writer):
            memo[key] = None
            return False
        stop = writer.entry_count(idx)
        memo[key] = (start, stop)
        self._blocks[idx].append((stop, key))
        return True

    def _emit_entries(
        self,
        node: FNode,
        idx: int,
        context: _Context,
        writer: ArenaWriter,
    ) -> bool:
        before = writer.entry_count(idx)
        for value in self._candidates(node, context):
            context[node.label] = value
            marks = writer.mark(idx)
            ok = self._emit_forest(node.children, context, writer)
            del context[node.label]
            if ok:
                writer.commit(idx, writer.intern(value))
            else:
                writer.rollback(idx, marks)
                self._invalidate(idx, marks)
        return writer.entry_count(idx) > before

    def _invalidate(self, idx: int, marks: List[int]) -> None:
        """Forget the memoised blocks below ``idx`` that the rollback
        to ``marks`` truncated.  A block lies wholly above or wholly
        below a watermark (rollback marks are taken outside any block
        under construction), and each node's blocks are stacked in
        column order, so the cut ones are the top of the stack."""
        for k in self._memo_below[idx]:
            blocks = self._blocks[k]
            watermark = marks[k - idx - 1]
            while blocks and blocks[-1][0] > watermark:
                del self._memo[k][blocks.pop()[1]]


def factorise(
    relations: Sequence[Relation], tree: FTree
) -> Optional[ProductRep]:
    """One-shot factorisation in the object encoding (the oracle).

    The arena encoding is built by :class:`ArenaFactoriser`, which
    :class:`~repro.engine.FDB` picks by its ``encoding``.
    """
    return Factoriser(relations, tree).run()
