"""The user-facing factorised relation: an f-tree plus its data.

A :class:`FactorisedRelation` bundles an :class:`~repro.core.ftree.
FTree` with a representation over it (``None`` encodes the empty
relation) and offers the logical-layer view of Section 1: the relation
*is* a relation -- it can be enumerated, counted, compared and exported
flat -- while the physical layer stays factorised.

A relation holds exactly one physical encoding, named by
:attr:`~FactorisedRelation.encoding`:

- the **arena** encoding (:class:`~repro.core.arena.ArenaRep`, built
  with ``arena=``) -- flat interned-value and offset-range columns; the
  encoding every production path (sessions, workers, servers, IVM)
  evaluates in;
- the **object** encoding (:class:`~repro.core.frep.ProductRep` /
  ``UnionRep`` trees, built with ``data=``) -- the reference
  implementation the differential tests compare the arena against,
  reached through ``FDB(db, encoding="object")``.

Reading :attr:`~FactorisedRelation.data` on an arena relation, or
:attr:`~FactorisedRelation.arena` on an object relation, raises
:class:`TypeError`; :meth:`~FactorisedRelation.to_arena` and
:meth:`~FactorisedRelation.to_object` are the only conversions.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.core import arena as arena_mod
from repro.core.arena import ArenaRep
from repro.core.enumerate import Assignment, iter_assignments, iter_rows
from repro.core.expr import Expression, Empty, expression_of
from repro.core.frep import ProductRep
from repro.core.ftree import FTree
from repro.core.size import data_elements, representation_size, tuple_count
from repro.core.validate import validate_relation
from repro.relational.relation import Relation

#: Constructor default: tells "not given" apart from ``None`` (the
#: empty relation).
_MISSING = object()


class FactorisedRelation:
    """A relation stored factorised over an f-tree.

    >>> from repro.core.build import factorise
    >>> from repro.core.ftree import FTree
    >>> from repro.relational.relation import Relation
    >>> r = Relation.from_rows("R", ("a", "b"), [(1, 1), (1, 2), (2, 2)])
    >>> tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    >>> fr = FactorisedRelation(tree, factorise([r], tree))
    >>> fr.count()
    3
    >>> fr.size()  # 2 a-singletons + 3 b-singletons
    5
    >>> fa = fr.to_arena()
    >>> (fa.encoding, fa.count(), fa.size())
    ('arena', 3, 5)
    """

    __slots__ = ("tree", "_rep", "encoding")

    def __init__(
        self,
        tree: FTree,
        data: Optional[ProductRep] = _MISSING,  # type: ignore[assignment]
        *,
        arena: Optional[ArenaRep] = _MISSING,  # type: ignore[assignment]
    ) -> None:
        if (data is _MISSING) == (arena is _MISSING):
            raise ValueError(
                "FactorisedRelation needs exactly one of data= (object "
                "encoding) or arena= (arena encoding)"
            )
        self.tree = tree
        if arena is _MISSING:
            self._rep = data
            #: The physical encoding: ``"object"`` or ``"arena"``.
            self.encoding = "object"
        else:
            self._rep = arena
            self.encoding = "arena"

    # -- encodings -----------------------------------------------------------

    @property
    def data(self) -> Optional[ProductRep]:
        """The object representation; ``TypeError`` on an arena relation."""
        if self.encoding != "object":
            raise TypeError(
                "arena-encoded relation has no object data; "
                "call to_object() to convert explicitly"
            )
        return self._rep

    @property
    def arena(self) -> Optional[ArenaRep]:
        """The arena representation; ``TypeError`` on an object relation."""
        if self.encoding != "arena":
            raise TypeError(
                "object-encoded relation has no arena; "
                "call to_arena() to convert explicitly"
            )
        return self._rep

    def to_arena(self) -> "FactorisedRelation":
        """This relation in the arena encoding (converted if needed)."""
        if self.encoding == "arena":
            return self
        return FactorisedRelation(
            self.tree, arena=arena_mod.from_product(self.tree, self._rep)
        )

    def to_object(self) -> "FactorisedRelation":
        """This relation in the object encoding (converted if needed)."""
        if self.encoding == "object":
            return self
        return FactorisedRelation(self.tree, arena_mod.to_product(self._rep))

    # -- relational view -----------------------------------------------------

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Attributes in canonical (sorted) order."""
        return tuple(sorted(self.tree.attributes()))

    def is_empty(self) -> bool:
        return self._rep is None

    def size(self) -> int:
        """Representation size ``|E|``: the number of singletons."""
        return representation_size(self.tree.roots, self._rep)

    def count(self) -> int:
        """Number of represented tuples, without enumeration."""
        return tuple_count(self.tree.roots, self._rep)

    def flat_data_elements(self) -> int:
        """Size of the *flat* equivalent in data elements."""
        return data_elements(self.tree.roots, self._rep)

    def __iter__(self) -> Iterator[Assignment]:
        return iter_assignments(self.tree.roots, self._rep)

    def rows(
        self, attributes: Optional[Sequence[str]] = None
    ) -> Iterator[tuple]:
        """Iterate tuples projected onto ``attributes`` (default all)."""
        order = self.attributes if attributes is None else tuple(attributes)
        return iter_rows(self.tree.roots, self._rep, order)

    def to_relation(self, name: str = "flat") -> Relation:
        """Materialise the flat relation (use with care on big data)."""
        return Relation.from_rows(name, self.attributes, self.rows())

    def to_expression(self) -> Expression:
        """The Definition-1 expression AST of this representation."""
        data = self.to_object().data
        if data is None:
            return Empty(self.tree.attributes())
        return expression_of(self.tree, data)

    # -- aggregates (computed without enumeration) -----------------------------

    def sum(self, attribute: str) -> float:
        """``SUM(attribute)`` over all represented tuples."""
        from repro.core import aggregate

        return aggregate.sum_of(self.tree.roots, self._rep, attribute)

    def avg(self, attribute: str) -> Optional[float]:
        """``AVG(attribute)``; ``None`` on the empty relation."""
        from repro.core import aggregate

        return aggregate.average(
            self.tree.roots, self._rep, attribute
        )

    def min(self, attribute: str):
        """``MIN(attribute)``; ``None`` on the empty relation."""
        from repro.core import aggregate

        return aggregate.min_of(self.tree.roots, self._rep, attribute)

    def max(self, attribute: str):
        """``MAX(attribute)``; ``None`` on the empty relation."""
        from repro.core import aggregate

        return aggregate.max_of(self.tree.roots, self._rep, attribute)

    def count_distinct(self, attribute: str) -> int:
        """``COUNT(DISTINCT attribute)``."""
        from repro.core import aggregate

        return aggregate.count_distinct(
            self.tree.roots, self._rep, attribute
        )

    def group_count(self, attribute: str):
        """``GROUP BY attribute`` with ``COUNT(*)`` per group."""
        from repro.core import aggregate

        return aggregate.group_count(
            self.tree.roots, self._rep, attribute
        )

    # -- comparisons and checks ----------------------------------------------

    def same_relation(self, other: "FactorisedRelation") -> bool:
        """Do both factorisations represent the same relation?"""
        if set(self.attributes) != set(other.attributes):
            return False
        mine = set(self.rows())
        theirs = set(other.rows(self.attributes))
        return mine == theirs

    def equals_flat(self, relation: Relation) -> bool:
        """Does this factorisation represent exactly ``relation``?"""
        if set(self.attributes) != set(relation.attributes):
            return False
        order = self.attributes
        perm = [relation.schema.index_of(a) for a in order]
        flat = {tuple(row[i] for i in perm) for row in relation}
        return set(self.rows(order)) == flat

    def validate(self) -> "FactorisedRelation":
        """Check all structural invariants; returns self for chaining.

        An arena relation is checked twice: the cheap arena-level bounds
        and order checks, then the full object-level validation on its
        explicitly converted object form -- correctness never forks
        between the encodings.
        """
        data = self._rep
        if self.encoding == "arena":
            arena_mod.validate_arena(self.tree, data)
            data = arena_mod.to_product(data)
        validate_relation(self.tree, data)
        return self

    # -- display ---------------------------------------------------------------

    def pretty(self, unicode_glyphs: bool = True) -> str:
        """Render as a Definition-1 expression string."""
        return self.to_expression().to_text(unicode_glyphs)

    def __repr__(self) -> str:
        return (
            f"FactorisedRelation(attrs={list(self.attributes)}, "
            f"size={self.size()}, tuples={self.count()}, "
            f"encoding={self.encoding})"
        )

    def copy(self) -> "FactorisedRelation":
        rep = None if self._rep is None else self._rep.copy()
        if self.encoding == "arena":
            return FactorisedRelation(self.tree, arena=rep)
        return FactorisedRelation(self.tree, rep)
