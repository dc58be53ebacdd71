"""Arena-native kernels for the restructuring f-plan operators.

The object implementations in :mod:`repro.ops.swap`, ``merge``,
``normalise`` and ``absorb`` rewrite ``UnionRep``/``ProductRep`` trees
one Python object at a time and serve as the reference oracle.  This
module implements each operator directly on the flat columns of
:class:`~repro.core.arena.ArenaRep`, writing through the one
:class:`~repro.core.arena.ArenaWriter`:

- value ids are copied **verbatim** (every kernel's output shares its
  input's pool), so no interning happens on the hot path;
- subtrees untouched by an operator move as contiguous column runs
  (:meth:`~repro.core.arena.ArenaWriter.copy_block`: one
  ``memcpy``-shaped append per column, offsets fixed up by a constant
  shift), never entry by entry;
- the per-occurrence driving loop (:class:`_LevelKernel.run`) mirrors
  :func:`repro.ops.base.rewrite_at_level` exactly, including its
  eager pruning of emptied unions.

Every kernel is *prepared* once per (f-tree, operator, args) -- node
indices, child-slot mappings and the destination skeleton are resolved
at prepare time and cached -- so repeated executions (plan replays,
shard fan-out, IVM delta merges) run without touching the f-tree at
all, and arenas produced by the same prepared kernel share one
destination skeleton (keeping the per-skeleton enumeration codegen
cache of :mod:`repro.core.arena` warm).

:func:`compiled_plan_for` lifts this to whole f-plans: all step
kernels of an :class:`~repro.optimiser.fplan.FPlan` are prepared
up-front, chained by a generated driver, and cached weakly per plan --
the kernel-at-a-time object path remains as the differential oracle
and fallback.

:func:`union_arena` and :func:`product_arena` cover the remaining
binary operators, including cross-pool id remapping when the inputs do
not share a value pool.
"""

from __future__ import annotations

import heapq
import weakref
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.arena import (
    ArenaRep,
    ArenaWriter,
    ValuePool,
    _as_np,
    _extend_shifted,
    _i64,
    _skeleton_of,
)
from repro.core.factorised import FactorisedRelation
from repro.core.ftree import FTree


def _pool_rank(pool):
    """Sort rank of every pool id by its decoded value, as an int64
    numpy table -- ids whose values compare *equal* (interning is
    per-type, so ``1`` and ``1.0`` hold distinct ids) share a rank,
    mirroring the heap path's equality grouping.  Returns ``False``
    when the pool holds incomparable values (the caller falls back to
    the heap).
    """
    size = len(pool)
    try:
        order = sorted(range(size), key=pool.__getitem__)
    except TypeError:
        return False
    rank = np.empty(size, dtype=np.int64)
    current = -1
    previous = object()
    for vid in order:
        value = pool[vid]
        if current < 0 or value != previous:
            current += 1
            previous = value
        rank[vid] = current
    return rank


# -- the per-occurrence driver ------------------------------------------------


class _LevelKernel:
    """Base of the prepared single-operator kernels.

    A restructuring operator rewrites every *occurrence* of the level
    at which its anchor node sits (:func:`repro.ops.base.
    rewrite_at_level`).  :meth:`run` walks the spine -- the chain of
    the anchor's ancestors -- per entry, calls the operator-specific
    :meth:`level` at each occurrence, prunes entries whose rewritten
    occurrence emptied (rollback), and bulk-copies everything off the
    spine.  Subclasses fill in :meth:`level`, which must write **all**
    destination members of the rewritten level (the level is where the
    forest changes shape, so only the subclass knows the mapping) and
    return ``False`` when the occurrence emptied.
    """

    __slots__ = (
        "src_tree",
        "out_tree",
        "sskel",
        "dskel",
        "anchor",
        "p",
        "level_nodes",
        "spine",
        "passthrough",
    )

    def __init__(
        self, tree: FTree, out_tree: FTree, anchor_label
    ) -> None:
        self.src_tree = tree
        self.out_tree = out_tree
        sskel = _skeleton_of(tree)
        dskel = _skeleton_of(out_tree)
        self.sskel = sskel
        self.dskel = dskel
        sa = sskel.index[anchor_label]
        self.anchor = sa
        p = sskel.parent[sa]
        self.p = p
        self.level_nodes: Tuple[int, ...] = (
            sskel.roots if p == -1 else sskel.children[p]
        )
        # Spine: the anchor's ancestors, root first.  Per spine node:
        # (src idx, dst idx, continuation slot, passthrough child
        # copies) -- labels above the level are untouched by every
        # operator here, so dst nodes resolve by label.
        spine: List[Tuple[int, int, int, List[Tuple[int, int, int]]]] = []
        chain: List[int] = []
        x = p
        while x != -1:
            chain.append(x)
            x = sskel.parent[x]
        chain.reverse()
        for d, sx in enumerate(chain):
            dx = dskel.index[sskel.labels[sx]]
            if d + 1 < len(chain):
                nxt = chain[d + 1]
                j_cont = sskel.children[sx].index(nxt)
                passthrough = [
                    (j, k, dskel.index[sskel.labels[k]])
                    for j, k in enumerate(sskel.children[sx])
                    if j != j_cont
                ]
            else:
                # The chain's last node is the level's parent: walk()
                # hands its entries straight to level(), which owns
                # every level member -- no continuation slot, and no
                # passthrough (whose labels may not even survive the
                # operator, e.g. a merged-away sibling).
                j_cont = -1
                passthrough = []
            spine.append((sx, dx, j_cont, passthrough))
        self.spine = spine
        # Level members the operator leaves untouched; subclasses
        # remove their operands from this list.
        self.passthrough: List[Tuple[int, int, int]] = []

    def _keep_members(self, consumed: Sequence[int]) -> None:
        """Record the level members copied verbatim by :meth:`level`."""
        skip = set(consumed)
        self.passthrough = [
            (pos, m, self.dskel.index[self.sskel.labels[m]])
            for pos, m in enumerate(self.level_nodes)
            if m not in skip
        ]

    def _rng(
        self, arena: ArenaRep, pos: int, node: int, e: Optional[int]
    ) -> Tuple[int, int]:
        """Entry range of level member ``node`` at occurrence ``e``."""
        if e is None:
            return 0, len(arena.values[node])
        offsets = arena.offsets[self.p][pos]
        return offsets[e], offsets[e + 1]

    def _copy_passthrough(
        self, arena: ArenaRep, w: ArenaWriter, e: Optional[int]
    ) -> None:
        for pos, m, dm in self.passthrough:
            lo, hi = self._rng(arena, pos, m, e)
            w.copy_block(arena, m, dm, lo, hi)

    def level(
        self, arena: ArenaRep, w: ArenaWriter, e: Optional[int]
    ) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def run(self, arena: ArenaRep) -> Optional[ArenaRep]:
        w = ArenaWriter(self.dskel, arena.pool)
        if self.p == -1:
            if not self.level(arena, w, None):
                return None
            return w.finish()
        spine = self.spine
        sskel = self.sskel
        last = len(spine) - 1

        def walk(d: int, lo: int, hi: int) -> bool:
            sx, dx, j_cont, passthrough = spine[d]
            vals = arena.values[sx]
            edges = arena.offsets[sx]
            kept = False
            for e in range(lo, hi):
                marks = w.mark(dx)
                if d == last:
                    ok = self.level(arena, w, e)
                else:
                    cont = edges[j_cont]
                    ok = walk(d + 1, cont[e], cont[e + 1])
                if ok:
                    for j, k, dk in passthrough:
                        w.copy_block(
                            arena, k, dk, edges[j][e], edges[j][e + 1]
                        )
                    w.commit(dx, vals[e])
                    kept = True
                else:
                    w.rollback(dx, marks)
            return kept

        root = spine[0][0]
        if not walk(0, 0, len(arena.values[root])):
            return None
        for r in sskel.roots:
            if r != root:
                w.copy_block(
                    arena,
                    r,
                    self.dskel.index[sskel.labels[r]],
                    0,
                    len(arena.values[r]),
                )
        return w.finish()


# -- swap ---------------------------------------------------------------------


class SwapKernel(_LevelKernel):
    """``chi_{A,B}`` on columns: the Figure 4 heap merge, with all
    subtree payloads (``E_a``, ``F_b``, ``G_ab``) moved as bulk runs."""

    __slots__ = (
        "sa",
        "sb",
        "a_pos",
        "j_b",
        "dna",
        "dnb",
        "e_slots",
        "tb_slots",
        "tab_slots",
        "j_a_slot",
        "leaf_fast",
        "copy_plan",
    )

    def __init__(self, tree: FTree, a_attr: str, b_attr: str) -> None:
        from repro.ops.swap import _swap_parts, swap_tree

        node_a, node_b, a_others, t_b, t_ab = _swap_parts(
            tree, a_attr, b_attr
        )
        super().__init__(
            tree, swap_tree(tree, a_attr, b_attr), node_a.label
        )
        sskel, dskel = self.sskel, self.dskel
        self.sa = sskel.index[node_a.label]
        self.sb = sskel.index[node_b.label]
        self.a_pos = self.level_nodes.index(self.sa)
        self.j_b = sskel.children[self.sa].index(self.sb)
        self.dna = dskel.index[node_a.label]
        self.dnb = dskel.index[node_b.label]
        self.e_slots = [
            (j, k, dskel.index[sskel.labels[k]])
            for j, k in enumerate(sskel.children[self.sa])
            if j != self.j_b
        ]
        tb_labels = {t.label for t in t_b}
        self.tb_slots = [
            (j, k, dskel.index[sskel.labels[k]])
            for j, k in enumerate(sskel.children[self.sb])
            if sskel.labels[k] in tb_labels
        ]
        self.tab_slots = [
            (j, k, dskel.index[sskel.labels[k]])
            for j, k in enumerate(sskel.children[self.sb])
            if sskel.labels[k] not in tb_labels
        ]
        self._keep_members((self.sa,))
        # Leaf-shaped swap (B is A's only subtree and carries none of
        # its own): the whole arena reduces to one argsort-and-group
        # over the B column -- no per-entry Python at all.
        self.j_a_slot = dskel.children[self.dnb].index(self.dna)
        self.leaf_fast = (
            not self.e_slots
            and not self.tb_slots
            and not self.tab_slots
            and not dskel.children[self.dna]
        )
        # Batched-run copy plan: a swap never prunes an occurrence
        # (every A entry owns a non-empty B union), so every column
        # except the two swapped nodes' copies verbatim.  Resolve the
        # per-node slot mapping now; the slot that pointed at A points
        # at B's node in the output (the subtree root's label changed).
        self.copy_plan: List[
            Tuple[int, int, List[Tuple[int, int, int]]]
        ] = []
        if self.leaf_fast:
            for si in range(len(sskel)):
                if si == self.sa or si == self.sb:
                    continue
                di = dskel.index[sskel.labels[si]]
                slots = []
                for j, k in enumerate(sskel.children[si]):
                    dst_label = (
                        node_b.label
                        if k == self.sa
                        else sskel.labels[k]
                    )
                    dj = dskel.children[di].index(
                        dskel.index[dst_label]
                    )
                    slots.append((j, dj, k))
                self.copy_plan.append((si, di, slots))

    def run(self, arena: ArenaRep) -> Optional[ArenaRep]:
        """Whole-column batched swap: one argsort over a composite
        (occurrence, value-rank) key replaces the per-occurrence walk
        entirely.  Falls back to the generic driver when the shape is
        not leaf-fast or the pool is not comparable."""
        rank = _pool_rank(arena.pool) if self.leaf_fast else False
        if rank is False:
            return super().run(arena)
        sa, sb, p = self.sa, self.sb, self.p
        vals_a = _as_np(arena.values[sa])
        vals_b = _as_np(arena.values[sb])
        if p != -1:
            per_a_occ = np.diff(_as_np(arena.offsets[p][self.a_pos]))
            a_occ = np.repeat(
                np.arange(len(per_a_occ), dtype=np.int64), per_a_occ
            )
        else:
            a_occ = np.zeros(len(vals_a), dtype=np.int64)
        owners = np.repeat(
            np.arange(len(vals_a), dtype=np.int64),
            np.diff(_as_np(arena.offsets[sa][self.j_b])),
        )
        kb = rank[vals_b]
        occ_b = a_occ[owners]
        composite = occ_b * (int(kb.max()) + 1) + kb
        order = np.argsort(composite, kind="stable")
        comp_sorted = composite[order]
        # Group g of equal (occurrence, B value) keys spans
        # starts[g]:ends[g] of the sorted order; ends are the CSR tail.
        ends = np.append(
            np.flatnonzero(comp_sorted[1:] != comp_sorted[:-1]) + 1,
            len(comp_sorted),
        )
        starts = np.append(0, ends[:-1])
        w = ArenaWriter(self.dskel, arena.pool)
        w.values[self.dna].frombytes(vals_a[owners[order]].view(np.uint8))
        w.values[self.dnb].frombytes(vals_b[order][starts].view(np.uint8))
        w.offsets[self.dnb][self.j_a_slot].frombytes(ends.view(np.uint8))
        if p != -1:
            group_ends = np.cumsum(
                np.bincount(occ_b[order][starts], minlength=len(per_a_occ))
            ).astype(np.int64)
        for si, di, slots in self.copy_plan:
            column = arena.values[si]
            _extend_shifted(w.values[di], column, 0, len(column))
            for j, dj, k in slots:
                if si == p and k == sa:
                    w.offsets[di][dj].frombytes(group_ends.view(np.uint8))
                    continue
                offsets = arena.offsets[si][j]
                _extend_shifted(w.offsets[di][dj], offsets, 1, len(offsets))
        return w.finish()

    def level(
        self, arena: ArenaRep, w: ArenaWriter, e: Optional[int]
    ) -> bool:
        sa, sb = self.sa, self.sb
        a_lo, a_hi = self._rng(arena, self.a_pos, sa, e)
        vals_a = arena.values[sa]
        vals_b = arena.values[sb]
        a_edges, b_edges = arena.offsets[sa], arena.offsets[sb]
        b_offsets = a_edges[self.j_b]
        pool = arena.pool
        dna, dnb = self.dna, self.dnb

        # Figure 4: one cursor per A-entry into its inner B-union,
        # merged by a min-heap keyed on the next (decoded) B value.
        n = a_hi - a_lo
        positions: List[int] = [0] * n
        heap: List[Tuple[object, int]] = []
        for i in range(n):
            b0 = b_offsets[a_lo + i]
            positions[i] = b0
            heap.append((pool[vals_b[b0]], i))
        heapq.heapify(heap)

        while heap:
            b_min = heap[0][0]
            b_vid = -1
            first = True
            while heap and heap[0][0] == b_min:
                _, i = heapq.heappop(heap)
                a_e = a_lo + i
                bp = positions[i]
                if first:
                    first = False
                    b_vid = vals_b[bp]
                    for j, k, dk in self.tb_slots:
                        w.copy_block(
                            arena, k, dk, b_edges[j][bp], b_edges[j][bp + 1]
                        )
                for j, k, dk in self.e_slots:
                    w.copy_block(
                        arena, k, dk, a_edges[j][a_e], a_edges[j][a_e + 1]
                    )
                for j, k, dk in self.tab_slots:
                    w.copy_block(
                        arena, k, dk, b_edges[j][bp], b_edges[j][bp + 1]
                    )
                w.commit(dna, vals_a[a_e])
                positions[i] = bp + 1
                if bp + 1 < b_offsets[a_e + 1]:
                    heapq.heappush(
                        heap, (pool[vals_b[bp + 1]], i)
                    )
            w.commit(dnb, b_vid)
        self._copy_passthrough(arena, w, e)
        return True


# -- merge --------------------------------------------------------------------


class MergeKernel(_LevelKernel):
    """``mu_{A,B}`` on columns: a decoded sort-merge of the two
    sibling value columns; matched entries adopt both child forests."""

    __slots__ = ("sa", "sb", "a_pos", "b_pos", "dm", "a_slots", "b_slots")

    def __init__(self, tree: FTree, a_attr: str, b_attr: str) -> None:
        from repro.ops.merge import _merge_parts, merge_tree

        node_a, node_b, merged = _merge_parts(tree, a_attr, b_attr)
        super().__init__(
            tree, merge_tree(tree, a_attr, b_attr), node_a.label
        )
        sskel, dskel = self.sskel, self.dskel
        self.sa = sskel.index[node_a.label]
        self.sb = sskel.index[node_b.label]
        self.a_pos = self.level_nodes.index(self.sa)
        self.b_pos = self.level_nodes.index(self.sb)
        self.dm = dskel.index[merged.label]
        self.a_slots = [
            (j, k, dskel.index[sskel.labels[k]])
            for j, k in enumerate(sskel.children[self.sa])
        ]
        self.b_slots = [
            (j, k, dskel.index[sskel.labels[k]])
            for j, k in enumerate(sskel.children[self.sb])
        ]
        self._keep_members((self.sa, self.sb))

    def level(
        self, arena: ArenaRep, w: ArenaWriter, e: Optional[int]
    ) -> bool:
        sa, sb = self.sa, self.sb
        a_lo, a_hi = self._rng(arena, self.a_pos, sa, e)
        b_lo, b_hi = self._rng(arena, self.b_pos, sb, e)
        vals_a, vals_b = arena.values[sa], arena.values[sb]
        a_edges, b_edges = arena.offsets[sa], arena.offsets[sb]
        pool = arena.pool
        dm = self.dm
        i, j = a_lo, b_lo
        kept = False
        while i < a_hi and j < b_hi:
            av = pool[vals_a[i]]
            bv = pool[vals_b[j]]
            if av < bv:
                i += 1
            elif bv < av:
                j += 1
            else:
                for js, k, dk in self.a_slots:
                    w.copy_block(
                        arena, k, dk, a_edges[js][i], a_edges[js][i + 1]
                    )
                for js, k, dk in self.b_slots:
                    w.copy_block(
                        arena, k, dk, b_edges[js][j], b_edges[js][j + 1]
                    )
                w.commit(dm, vals_a[i])
                kept = True
                i += 1
                j += 1
        if not kept:
            return False
        self._copy_passthrough(arena, w, e)
        return True


# -- push-up ------------------------------------------------------------------


class PushKernel(_LevelKernel):
    """``psi_B`` on columns: hoist ``B``'s (independent, hence
    everywhere-equal) union from the first ``A`` entry, then re-emit
    the ``A`` union without the ``B`` slot."""

    __slots__ = ("sa", "sb", "a_pos", "j_b", "dna", "dnb", "e_slots")

    def __init__(self, tree: FTree, b_attr: str) -> None:
        from repro.ops.normalise import push_up_tree

        node_b = tree.node_of(b_attr)
        node_a = tree.parent_of(node_b)
        super().__init__(
            tree, push_up_tree(tree, b_attr), node_a.label
        )
        sskel, dskel = self.sskel, self.dskel
        self.sa = sskel.index[node_a.label]
        self.sb = sskel.index[node_b.label]
        self.a_pos = self.level_nodes.index(self.sa)
        self.j_b = sskel.children[self.sa].index(self.sb)
        self.dna = dskel.index[node_a.label]
        self.dnb = dskel.index[node_b.label]
        self.e_slots = [
            (j, k, dskel.index[sskel.labels[k]])
            for j, k in enumerate(sskel.children[self.sa])
            if j != self.j_b
        ]
        self._keep_members((self.sa,))

    def level(
        self, arena: ArenaRep, w: ArenaWriter, e: Optional[int]
    ) -> bool:
        sa = self.sa
        a_lo, a_hi = self._rng(arena, self.a_pos, sa, e)
        vals_a = arena.values[sa]
        a_edges = arena.offsets[sa]
        b_offsets = a_edges[self.j_b]
        # All copies of B's union are equal by independence; hoist the
        # first (exactly the object operator's choice).
        w.copy_block(
            arena, self.sb, self.dnb, b_offsets[a_lo], b_offsets[a_lo + 1]
        )
        dna = self.dna
        for a_e in range(a_lo, a_hi):
            for j, k, dk in self.e_slots:
                w.copy_block(
                    arena, k, dk, a_edges[j][a_e], a_edges[j][a_e + 1]
                )
            w.commit(dna, vals_a[a_e])
        self._copy_passthrough(arena, w, e)
        return True


# -- absorb -------------------------------------------------------------------


class _AbsorbStructuralKernel(_LevelKernel):
    """The restriction phase of ``alpha_{A,B}``: below every ``A``
    entry, descend to ``B``'s occurrences, keep only the entry whose
    value equals the enclosing ``A`` value (binary search on the
    decoded column), splice ``B``'s children into its parent, and
    prune emptied unions on the way back up."""

    __slots__ = ("sa", "sb", "a_pos", "dm", "path")

    def __init__(self, tree: FTree, a_attr: str, b_attr: str) -> None:
        from repro.ops.absorb import _absorb_parts, _structural_tree

        node_a, node_b = _absorb_parts(tree, a_attr, b_attr)
        structural, merged = _structural_tree(tree, node_a, node_b)
        super().__init__(tree, structural, node_a.label)
        sskel, dskel = self.sskel, self.dskel
        sa = sskel.index[node_a.label]
        sb = sskel.index[node_b.label]
        self.sa = sa
        self.sb = sb
        self.a_pos = self.level_nodes.index(sa)
        self.dm = dskel.index[merged.label]
        # Owners of the forests on the path from A down to B's parent;
        # per owner: (src idx, dst idx, continuation slot, passthrough
        # child copies, splice pairs -- the last only at B's parent).
        chain: List[int] = []
        x = sskel.parent[sb]
        while x != sa:
            chain.append(x)
            x = sskel.parent[x]
        chain.append(sa)
        chain.reverse()
        path = []
        for d, sx in enumerate(chain):
            dx = self.dm if sx == sa else dskel.index[sskel.labels[sx]]
            nxt = chain[d + 1] if d + 1 < len(chain) else sb
            j_cont = sskel.children[sx].index(nxt)
            passthrough = [
                (j, k, dskel.index[sskel.labels[k]])
                for j, k in enumerate(sskel.children[sx])
                if j != j_cont
            ]
            splice = None
            if nxt == sb:
                splice = [
                    (j, k, dskel.index[sskel.labels[k]])
                    for j, k in enumerate(sskel.children[sb])
                ]
            path.append((sx, dx, j_cont, passthrough, splice))
        self.path = path
        self._keep_members((sa,))

    def _below(
        self,
        arena: ArenaRep,
        w: ArenaWriter,
        d: int,
        e: int,
        a_val: object,
    ) -> bool:
        sx, _, j_cont, passthrough, splice = self.path[d]
        edges = arena.offsets[sx]
        lo, hi = edges[j_cont][e], edges[j_cont][e + 1]
        if splice is not None:
            # The continuation member is B itself: restrict its union
            # to a_val -- bisect_left on the decoded column, exactly
            # UnionRep.find.
            sb = self.sb
            vals_b = arena.values[sb]
            pool = arena.pool
            p_lo, p_hi = lo, hi
            while p_lo < p_hi:
                mid = (p_lo + p_hi) // 2
                if pool[vals_b[mid]] < a_val:
                    p_lo = mid + 1
                else:
                    p_hi = mid
            if p_lo >= hi or pool[vals_b[p_lo]] != a_val:
                return False
            b_edges = arena.offsets[sb]
            for j, k, dk in splice:
                w.copy_block(
                    arena, k, dk, b_edges[j][p_lo], b_edges[j][p_lo + 1]
                )
        else:
            nxt_sx, nxt_dx = self.path[d + 1][0], self.path[d + 1][1]
            vals = arena.values[nxt_sx]
            kept = False
            for t in range(lo, hi):
                marks = w.mark(nxt_dx)
                if self._below(arena, w, d + 1, t, a_val):
                    w.commit(nxt_dx, vals[t])
                    kept = True
                else:
                    w.rollback(nxt_dx, marks)
            if not kept:
                return False
        for j, k, dk in passthrough:
            w.copy_block(arena, k, dk, edges[j][e], edges[j][e + 1])
        return True

    def level(
        self, arena: ArenaRep, w: ArenaWriter, e: Optional[int]
    ) -> bool:
        sa = self.sa
        a_lo, a_hi = self._rng(arena, self.a_pos, sa, e)
        vals_a = arena.values[sa]
        pool = arena.pool
        dm = self.dm
        kept = False
        for a_e in range(a_lo, a_hi):
            a_vid = vals_a[a_e]
            marks = w.mark(dm)
            if self._below(arena, w, 0, a_e, pool[a_vid]):
                w.commit(dm, a_vid)
                kept = True
            else:
                w.rollback(dm, marks)
        if not kept:
            return False
        self._copy_passthrough(arena, w, e)
        return True


class KernelChain:
    """A prepared sequence of kernels run back to back (absorb =
    restriction + normalisation replay; select-eq = filter +
    normalisation replay; compiled plans = one kernel per step)."""

    __slots__ = ("kernels", "out_tree")

    def __init__(self, kernels: Sequence[object], out_tree: FTree) -> None:
        self.kernels = list(kernels)
        self.out_tree = out_tree

    def run(self, arena: ArenaRep) -> Optional[ArenaRep]:
        current: Optional[ArenaRep] = arena
        for kernel in self.kernels:
            current = kernel.run(current)
            if current is None:
                return None
        return current


def _normalise_chain(tree: FTree) -> KernelChain:
    """Prepared push-up kernels replaying ``normalise_tree(tree)``."""
    from repro.ops.normalise import normalise_tree

    kernels: List[PushKernel] = []
    current = tree
    _, trace = normalise_tree(tree)
    for attr in trace:
        kernel = PushKernel(current, attr)
        kernels.append(kernel)
        current = kernel.out_tree
    return KernelChain(kernels, current)


def _absorb_chain(tree: FTree, a_attr: str, b_attr: str) -> KernelChain:
    structural = _AbsorbStructuralKernel(tree, a_attr, b_attr)
    tail = _normalise_chain(structural.out_tree)
    return KernelChain([structural] + tail.kernels, tail.out_tree)


# -- prepared-kernel cache ----------------------------------------------------

_PREPARERS: Dict[str, Callable[..., object]] = {
    "swap": SwapKernel,
    "merge": MergeKernel,
    "push": PushKernel,
    "absorb": _absorb_chain,
    "normalise": _normalise_chain,
}

_KERNEL_CACHE: Dict[tuple, object] = {}
_KERNEL_CACHE_MAX = 512


def kernel_for(tree: FTree, kind: str, args: Sequence[str] = ()):
    """The prepared arena kernel for ``kind`` (``swap``/``merge``/
    ``push``/``absorb``/``normalise``) on ``tree``, cached by the
    tree's canonical key so plan replays and repeated shard/delta
    executions skip preparation (and share destination skeletons,
    keeping the enumeration codegen cache warm)."""
    key = (tree.key(), kind, tuple(args))
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        if len(_KERNEL_CACHE) >= _KERNEL_CACHE_MAX:
            _KERNEL_CACHE.clear()
        kernel = _PREPARERS[kind](tree, *args)
        _KERNEL_CACHE[key] = kernel
    return kernel


# -- whole-plan compilation ---------------------------------------------------


class CompiledArenaPlan:
    """An f-plan compiled to a chain of prepared columnar kernels.

    All per-step preparation (skeletons, slot mappings, normalisation
    traces) happens once at compile time; execution is one generated
    driver running kernel after kernel over flat columns -- no f-tree
    transforms, no per-step key assertions, no object materialisation.
    """

    __slots__ = ("kernels", "steps", "out_tree", "_drive")

    def __init__(self, plan) -> None:
        kernels = []
        for step, in_tree, expected in zip(
            plan.steps, plan.trees, plan.trees[1:]
        ):
            kernel = kernel_for(in_tree, step.kind, step.args)
            if kernel.out_tree.key() != expected.key():
                raise AssertionError(
                    f"kernel for {step} produced an unexpected f-tree"
                )
            kernels.append(kernel)
        self.kernels = kernels
        #: The source f-plan steps, index-aligned with :attr:`kernels`
        #: (labels for :mod:`repro.obs.profile`).
        self.steps = tuple(plan.steps)
        self.out_tree = plan.output_tree
        self._drive = _plan_driver(len(kernels))

    def execute(self, fr: FactorisedRelation) -> FactorisedRelation:
        if fr.is_empty():
            return FactorisedRelation(self.out_tree, arena=None)
        result = self._drive(fr.arena, self.kernels)
        return FactorisedRelation(self.out_tree, arena=result)


_DRIVER_CACHE: Dict[int, Callable] = {}


def _plan_driver(n: int) -> Callable:
    """Generate (once per plan length) the straight-line driver that
    chains ``n`` kernel runs -- the whole-plan analogue of the
    per-skeleton enumeration codegen in :mod:`repro.core.arena`."""
    driver = _DRIVER_CACHE.get(n)
    if driver is not None:
        return driver
    lines = ["def _run(arena, kernels):"]
    for i in range(n):
        lines.append(f"    arena = kernels[{i}].run(arena)")
        lines.append("    if arena is None:")
        lines.append("        return None")
    lines.append("    return arena")
    namespace: Dict[str, object] = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - self-generated
    driver = namespace["_run"]
    _DRIVER_CACHE[n] = driver
    return driver


_PLAN_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def compiled_plan_for(plan) -> CompiledArenaPlan:
    """The compiled arena pipeline for ``plan``, weakly cached per
    plan object (plans are themselves cached by the session layer, so
    a hot query compiles once)."""
    compiled = _PLAN_CACHE.get(plan)
    if compiled is None:
        compiled = CompiledArenaPlan(plan)
        _PLAN_CACHE[plan] = compiled
    return compiled


# -- union and product --------------------------------------------------------


def _right_remap(left_pool, right_pool):
    """An id remap table taking right-pool ids into (an extension of)
    the left pool; returns ``(out_pool, vmap)``."""
    if isinstance(left_pool, ValuePool):
        # Shared pools are append-only: intern the right values in
        # place so the output keeps the sharing identity.
        ids = [left_pool.intern(value) for value in right_pool]
        out_pool = left_pool
    else:
        out_pool = list(left_pool)
        intern: Dict[type, Dict[object, int]] = {}
        for vid, value in enumerate(out_pool):
            table = intern.setdefault(value.__class__, {})
            table.setdefault(value, vid)
        ids = []
        for value in right_pool:
            table = intern.setdefault(value.__class__, {})
            vid = table.get(value)
            if vid is None:
                vid = table[value] = len(out_pool)
                out_pool.append(value)
            ids.append(vid)
    return out_pool, np.asarray(ids, dtype=np.int64)


def union_arena(left: ArenaRep, right: ArenaRep) -> ArenaRep:
    """Structural union of two arenas over the same f-tree: a decoded
    two-pointer merge per union occurrence, with one-sided runs
    bulk-copied.  Shares the left pool when both inputs already do
    (the shared-pool shard path); otherwise right ids are remapped
    through one vectorised table.  Exactness needs branch-compatible
    inputs, as in :func:`repro.ops.union.union`."""
    skel = left.skel
    if left.pool is right.pool:
        out_pool = left.pool
        vmap = None
    else:
        out_pool, vmap = _right_remap(left.pool, right.pool)
    w = ArenaWriter(skel, out_pool)
    lpool = left.pool
    rpool = right.pool

    def merge(si: int, llo: int, lhi: int, rlo: int, rhi: int) -> None:
        lvals = left.values[si]
        rvals = right.values[si]
        kids = skel.children[si]
        i, j = llo, rlo
        while i < lhi and j < rhi:
            lv = lpool[lvals[i]]
            rv = rpool[rvals[j]]
            if lv < rv:
                stop = i + 1
                while stop < lhi and lpool[lvals[stop]] < rv:
                    stop += 1
                w.copy_block(left, si, si, i, stop)
                i = stop
            elif rv < lv:
                stop = j + 1
                while stop < rhi and rpool[rvals[stop]] < lv:
                    stop += 1
                w.copy_block(right, si, si, j, stop, vmap)
                j = stop
            else:
                l_edges, r_edges = left.offsets[si], right.offsets[si]
                for js, k in enumerate(kids):
                    merge(
                        k,
                        l_edges[js][i],
                        l_edges[js][i + 1],
                        r_edges[js][j],
                        r_edges[js][j + 1],
                    )
                w.commit(si, lvals[i])
                i += 1
                j += 1
        w.copy_block(left, si, si, i, lhi)
        w.copy_block(right, si, si, j, rhi, vmap)

    for r in skel.roots:
        merge(
            r, 0, len(left.values[r]), 0, len(right.values[r])
        )
    return w.finish()


def product_arena(
    out_tree: FTree, left: ArenaRep, right: ArenaRep
) -> ArenaRep:
    """Cartesian product: the output forest adopts both input column
    sets verbatim (zero copies when the pools are already shared;
    otherwise the right value columns are re-based onto the
    concatenated pool with one vectorised shift)."""
    dskel = _skeleton_of(out_tree)
    n = len(dskel)
    values: List[array] = [None] * n  # type: ignore[list-item]
    offsets: List[List[array]] = [None] * n  # type: ignore[list-item]
    shared = left.pool is right.pool
    if shared:
        pool = left.pool
        shift = 0
    else:
        pool = list(left.pool) + list(right.pool)
        shift = len(left.pool)

    def adopt(src: ArenaRep, delta: int) -> None:
        sskel = src.skel
        for i in range(len(sskel)):
            di = dskel.index[sskel.labels[i]]
            if delta == 0:
                values[di] = src.values[i]
            else:
                shifted = _i64()
                _extend_shifted(
                    shifted, src.values[i], 0, len(src.values[i]), delta
                )
                values[di] = shifted
            offsets[di] = list(src.offsets[i])

    adopt(left, 0)
    adopt(right, shift)
    return ArenaRep(dskel, values, offsets, pool)
