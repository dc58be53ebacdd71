"""The Cartesian product operator ``x`` (Section 3.2).

The product of two f-representations over disjoint attribute sets is
just their concatenation: the result f-tree is the forest of the two
input f-trees, the result data the concatenation of the two factor
lists (re-sorted into canonical order), in time linear in the inputs.
All constraints -- value order, path constraint, normalisation -- are
trivially preserved.
"""

from __future__ import annotations

from repro.core.factorised import FactorisedRelation
from repro.core.frep import ProductRep
from repro.core.ftree import FTree
from repro.ops.base import OperatorError, sort_pairs
from repro.query.hypergraph import Hypergraph


def product_tree(left: FTree, right: FTree) -> FTree:
    """Forest union of two f-trees over disjoint attributes."""
    overlap = left.attributes() & right.attributes()
    if overlap:
        raise OperatorError(
            f"product inputs share attributes {sorted(overlap)}"
        )
    edges = Hypergraph(list(left.edges) + list(right.edges))
    return FTree(list(left.roots) + list(right.roots), edges)


def product(
    left: FactorisedRelation, right: FactorisedRelation
) -> FactorisedRelation:
    """Cartesian product of two factorised relations.

    Both inputs must share one encoding.  Arena inputs combine by
    column adoption (zero copies under a shared pool) in
    :func:`repro.ops.arena_kernels.product_arena`.
    """
    if left.encoding != right.encoding:
        raise OperatorError(
            f"product of mixed encodings ({left.encoding} x "
            f"{right.encoding}); convert one side explicitly"
        )
    tree = product_tree(left.tree, right.tree)
    if left.encoding == "arena":
        if left.is_empty() or right.is_empty():
            return FactorisedRelation(tree, arena=None)
        from repro.ops import arena_kernels

        return FactorisedRelation(
            tree,
            arena=arena_kernels.product_arena(
                tree, left.arena, right.arena
            ),
        )
    if left.data is None or right.data is None:
        return FactorisedRelation(tree, None)
    nodes = list(left.tree.roots) + list(right.tree.roots)
    factors = list(left.data.factors) + list(right.data.factors)
    _, sorted_factors = sort_pairs(nodes, factors)
    return FactorisedRelation(tree, ProductRep(sorted_factors))
