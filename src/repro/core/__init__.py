"""Core factorised-database layer: f-trees and f-representations.

This subpackage is the paper's primary contribution surface:

- :mod:`repro.core.ftree` -- factorisation trees with the dependency
  hypergraph, path constraint and normalisation predicate (Section 2);
- :mod:`repro.core.frep` -- structured f-representations (products of
  value-sorted unions aligned to an f-tree);
- :mod:`repro.core.arena` -- the flat, columnar arena encoding of the
  same representations (interned values + offset-range columns);
- :mod:`repro.core.expr` -- the Definition-1 expression AST;
- :mod:`repro.core.build` -- factorising flat data over an f-tree;
- :mod:`repro.core.enumerate` -- constant-delay tuple enumeration;
- :mod:`repro.core.size` -- the singleton-count size measure;
- :mod:`repro.core.factorised` -- the user-facing bundle of both;
- :mod:`repro.core.aggregate` -- SQL aggregates without enumeration.

Factorised results are saved and loaded through :mod:`repro.persist`.
"""

from repro.core import aggregate
from repro.core.arena import ArenaRep, from_product, to_product
from repro.core.build import ArenaFactoriser, Factoriser, factorise
from repro.core.enumerate import iter_assignments, iter_rows
from repro.core.expr import expression_of
from repro.core.factorised import FactorisedRelation
from repro.core.frep import FRepError, ProductRep, UnionRep
from repro.core.ftree import FNode, FTree, FTreeError
from repro.core.size import representation_size, tuple_count
from repro.core.validate import validate, validate_relation, validate_tree

__all__ = [
    "aggregate",
    "ArenaFactoriser",
    "ArenaRep",
    "expression_of",
    "from_product",
    "factorise",
    "FactorisedRelation",
    "Factoriser",
    "to_product",
    "FNode",
    "FRepError",
    "FTree",
    "FTreeError",
    "iter_assignments",
    "iter_rows",
    "ProductRep",
    "representation_size",
    "tuple_count",
    "UnionRep",
    "validate",
    "validate_relation",
    "validate_tree",
]
