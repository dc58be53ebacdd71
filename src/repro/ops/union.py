"""Union of f-representations over a shared f-tree.

The sharded execution path (:mod:`repro.exec`) evaluates one join
query per shard -- each shard database holds a disjoint horizontal
partition of a single *fan-out* relation plus full copies of the
others -- and recombines the per-shard factorised results here.

The recombination is the natural structural union: two
:class:`~repro.core.frep.UnionRep` factors merge by value (sorted
two-pointer merge, the idiom of :mod:`repro.ops.merge`), and where
both sides carry the same value the child :class:`~repro.core.frep.
ProductRep` forests union factor-wise.

Factor-wise union of products is **not** sound for arbitrary inputs:
``(B1 x C1) u (B2 x C2)`` only equals ``(B1 u B2) x (C1 u C2)`` when
the branches are compatible.  It *is* exact for per-shard join
results, by the path constraint: the fan-out relation's attribute
classes lie on a single root-to-leaf path of the f-tree, so at every
branching point at most one child subtree depends on the partitioned
relation -- conditioned on the (shared) ancestor values, every other
subtree holds identical content on all shards, and the union
distributes over the product.  The operator therefore requires union
*before* projection (projection may destroy the single-path property);
:class:`~repro.exec.ParallelExecutor` projects after recombining.

The cross-engine differential harness (``tests/test_differential.py``)
checks the sharded path against the flat and SQLite engines over the
random SPJ space, per the PR-1 policy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.factorised import FactorisedRelation
from repro.core.frep import ProductRep, UnionRep, Value
from repro.ops.base import OperatorError


def _union_products(left: ProductRep, right: ProductRep) -> ProductRep:
    """Factor-wise union of two aligned products (see module docs)."""
    if len(left.factors) != len(right.factors):
        raise OperatorError(
            f"cannot union products of arity {len(left.factors)} "
            f"and {len(right.factors)}"
        )
    return ProductRep(
        _union_unions(a, b)
        for a, b in zip(left.factors, right.factors)
    )


def _union_unions(left: UnionRep, right: UnionRep) -> UnionRep:
    """Sorted merge of two unions; common values recurse."""
    out: List[Tuple[Value, ProductRep]] = []
    i = j = 0
    a, b = left.entries, right.entries
    while i < len(a) and j < len(b):
        va, vb = a[i][0], b[j][0]
        if va < vb:
            out.append(a[i])
            i += 1
        elif vb < va:
            out.append(b[j])
            j += 1
        else:
            out.append((va, _union_products(a[i][1], b[j][1])))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return UnionRep(out)


def union(
    left: FactorisedRelation, right: FactorisedRelation
) -> FactorisedRelation:
    """Union two factorised relations over the *same* f-tree.

    Sub-representations appearing on one side only are shared, not
    copied (operators treat representations as immutable).  Exactness
    requires branch-compatible inputs -- see the module docstring --
    and both inputs must share one encoding.
    """
    if left.encoding != right.encoding:
        raise OperatorError(
            f"union of mixed encodings ({left.encoding} and "
            f"{right.encoding}); convert one side explicitly"
        )
    if left.tree.key() != right.tree.key():
        raise OperatorError(
            "union requires identical f-trees: "
            f"{left.tree.pretty_inline()} vs {right.tree.pretty_inline()}"
        )
    if left.is_empty():
        return right
    if right.is_empty():
        return left
    if left.encoding == "arena":
        from repro.ops import arena_kernels

        return FactorisedRelation(
            left.tree,
            arena=arena_kernels.union_arena(left.arena, right.arena),
        )
    return FactorisedRelation(
        left.tree, _union_products(left.data, right.data)
    )


def union_all(
    parts: Sequence[FactorisedRelation],
) -> Optional[FactorisedRelation]:
    """Union many factorised relations; ``None`` for an empty list."""
    result: Optional[FactorisedRelation] = None
    for part in parts:
        result = part if result is None else union(result, part)
    return result
