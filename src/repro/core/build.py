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
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.arena import ArenaRep, ArenaWriter
from repro.core.ftree import FNode, FTree, FTreeError
from repro.core.frep import ProductRep, UnionRep, merge_sorted_values
from repro.relational.relation import Relation

_Context = Dict[FrozenSet[str], object]


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
    """Factorise straight into the arena encoding.

    Shares the pre-indexing and candidate intersection of
    :class:`Factoriser` but appends entries into flat integer columns
    (:class:`~repro.core.arena.ArenaWriter`) instead of allocating one
    Python object per union entry: children are written first, and an
    entry whose children forest comes up empty is rolled back by
    truncating the descendant columns -- the exact analogue of the
    object builder's eager pruning, so both encodings always hold the
    same representation.
    """

    def run(self, pool=None) -> Optional[ArenaRep]:  # type: ignore[override]
        """Compute the arena representation; ``None`` when empty.

        ``pool`` interns values into a shared :class:`~repro.core.
        arena.ValuePool` (e.g. one pool per worker process) instead of
        a private per-arena pool, so arenas built for different shards
        recombine by id without re-interning.
        """
        writer = ArenaWriter(self.tree, pool)
        if not self._emit_forest(self.tree.roots, {}, writer):
            return None
        return writer.finish()

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
        before = writer.entry_count(idx)
        for value in self._candidates(node, context):
            context[node.label] = value
            marks = writer.mark(idx)
            ok = self._emit_forest(node.children, context, writer)
            del context[node.label]
            if ok:
                writer.commit(idx, value, marks)
            else:
                writer.rollback(idx, marks)
        return writer.entry_count(idx) > before


def factorise(
    relations: Sequence[Relation], tree: FTree
) -> Optional[ProductRep]:
    """One-shot factorisation in the object encoding (the oracle).

    The arena encoding is built by :class:`ArenaFactoriser`, which
    :class:`~repro.engine.FDB` picks by its ``encoding``.
    """
    return Factoriser(relations, tree).run()
