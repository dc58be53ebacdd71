"""Tests for the columnar arena encoding (:mod:`repro.core.arena`).

The contract under test: the arena and object encodings are two
physical layouts of the *same* representation -- conversion round-trips
exactly, enumeration order is identical, every derived measure (size,
count, aggregates) agrees, and the operator fast paths (non-equality
selection, subtree-dropping projection) never fork from the object
reference.  Properties run over >= 50 seeded random databases plus the
documented edge cases: the empty relation (``None``) and the nullary
tuple (``ProductRep([])`` / a zero-node arena).
"""

from __future__ import annotations

import pickle
from array import array

import pytest

from repro.core import arena
from repro.core.arena import ArenaError, ArenaRep, ArenaWriter
from repro.core.build import ArenaFactoriser, factorise
from repro.core.factorised import FactorisedRelation
from repro.core.frep import ProductRep
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.ops import project, select_constant
from repro.query.hypergraph import Hypergraph
from repro.query.parser import parse_query
from repro.query.query import ConstantCondition
from repro.workloads import random_database, random_spj_queries
from repro.workloads.generator import random_query

#: >= 50 seeded databases for the round-trip / order properties.
PROPERTY_SEEDS = list(range(300, 350))


def _result_pair(seed: int):
    """(object result, db, query) for one seeded random SPJ query."""
    db = random_database(
        relations=3, attributes=7, tuples=6, domain=4, seed=seed
    )
    query = random_spj_queries(
        db, 1, seed=seed + 1000, max_relations=3, max_equalities=2
    )[0]
    return FDB(db).evaluate(query), db, query


def _nonempty_result(seed: int):
    """The first non-empty seeded result at or after ``seed``."""
    for offset in range(20):
        fr, db, query = _result_pair(seed + offset)
        if not fr.is_empty():
            return fr, db, query
    raise AssertionError("no non-empty result in 20 seeds")


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_round_trip_and_enumeration_order(seed):
    fr, db, query = _result_pair(seed)
    rep = arena.from_product(fr.tree, fr.data)
    # Round trip is exact (including the empty relation).
    assert arena.to_product(rep) == fr.data
    if fr.data is None:
        assert rep is None
        return
    fa = FactorisedRelation(fr.tree, arena=rep)
    order = fr.attributes
    # Identical enumeration order, not merely equal row sets.
    assert list(fa.rows(order)) == list(fr.rows(order))
    assert list(iter(fa)) == list(iter(fr))
    assert fa.count() == fr.count()
    assert fa.size() == fr.size()
    assert fa.flat_data_elements() == fr.flat_data_elements()
    fa.validate()


#: Small SPJ results, plus larger three-relation joins (Experiment 3
#: queries over 25-tuple relations); on several of these (304, 307,
#: 309) the optimal f-tree has memoised subtrees that the build
#: repeats by bulk copy.
_BUILD_CASES = [
    pytest.param(seed, 6, "spj", id=str(seed))
    for seed in PROPERTY_SEEDS[:10]
] + [
    pytest.param(seed, 25, "join", id=f"join25-{seed}")
    for seed in PROPERTY_SEEDS[:10]
]


@pytest.mark.parametrize("seed, tuples, shape", _BUILD_CASES)
def test_direct_arena_build_matches_object_build(seed, tuples, shape):
    """ArenaFactoriser output == from_product(object factorisation),
    column for column and pool for pool."""
    db = random_database(
        relations=3, attributes=7, tuples=tuples, domain=4, seed=seed
    )
    if shape == "spj":
        query = random_spj_queries(
            db, 1, seed=seed + 2000, max_relations=3, max_equalities=2
        )[0]
    else:
        query = random_query(db, 2, seed=seed + 2000)
    fdb = FDB(db)
    tree = fdb.optimal_tree(query)
    relations = [db[name] for name in query.relations]
    product = factorise(relations, tree)
    built = ArenaFactoriser(relations, tree).run()
    assert arena.to_product(built) == product
    if product is not None:
        encoded = arena.from_product(tree, product)
        assert built.values == encoded.values
        assert built.offsets == encoded.offsets
        assert built.pool == encoded.pool
        order = tuple(sorted(tree.attributes()))
        assert list(arena.iter_rows(built, order)) == list(
            FactorisedRelation(tree, product).rows(order)
        )


def test_memoised_subtree_is_invalidated_by_a_rollback():
    """``b``'s union depends on no ancestor, so it is built once and
    copied -- but the copy source written under ``a = 1`` is rolled
    back when ``c`` comes up empty there, and ``a = 2`` must rebuild
    it rather than copy truncated columns."""
    from repro.relational.relation import Relation

    s = Relation.from_rows("S", ("b", "d"), [(1, 1), (1, 2), (2, 3)])
    t = Relation.from_rows("T", ("a", "c"), [(1, 1), (2, 2), (3, 3)])
    u = Relation.from_rows("U", ("a", "c"), [(1, 5), (2, 2), (3, 3)])
    tree = FTree.from_nested(
        [("a", [("b", [("d", [])]), ("c", [])])],
        [{"b", "d"}, {"a", "c"}],
    )
    relations = [s, t, u]
    built = ArenaFactoriser(relations, tree).run()
    product = factorise(relations, tree)
    assert arena.to_product(built) == product
    arena.validate_arena(tree, built)
    # a = 2 and a = 3 survive, each with the full b-union.
    assert arena.tuple_count(built) == 2 * 3
    assert list(built.values[1]) == list(built.values[1][:2]) * 2


def test_memoised_node_intersects_candidates_once_per_key(monkeypatch):
    """On the chain a -> b -> c -> d, ``c``'s union depends on ``b``
    alone: its candidates are computed once per distinct ``b``, not
    once per (a, b) prefix."""
    from repro.relational.relation import Relation

    r = Relation.from_rows(
        "R", ("a", "b"), [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]
    )
    s = Relation.from_rows("S", ("b", "c"), [(1, 1), (1, 2), (2, 2)])
    t = Relation.from_rows("T", ("c", "d"), [(1, 7), (2, 8), (2, 9)])
    tree = FTree.from_nested(
        [("a", [("b", [("c", [("d", [])])])])],
        [{"a", "b"}, {"b", "c"}, {"c", "d"}],
    )
    calls = []
    original = ArenaFactoriser._candidates

    def counted(self, node, context):
        calls.append(node.label)
        return original(self, node, context)

    monkeypatch.setattr(ArenaFactoriser, "_candidates", counted)
    relations = [r, s, t]
    built = ArenaFactoriser(relations, tree).run()
    assert arena.to_product(built) == factorise(relations, tree)
    assert calls.count(frozenset({"c"})) == 2  # distinct b values
    assert calls.count(frozenset({"b"})) == 3  # one per a value


@pytest.mark.parametrize("seed", PROPERTY_SEEDS[:12])
def test_aggregates_agree_between_encodings(seed):
    fr, db, query = _result_pair(seed)
    if fr.is_empty():
        pytest.skip("empty result: aggregates covered separately")
    fa = fr.to_arena()
    for attribute in fr.attributes:
        assert fa.sum(attribute) == pytest.approx(fr.sum(attribute))
        assert fa.avg(attribute) == pytest.approx(fr.avg(attribute))
        assert fa.min(attribute) == fr.min(attribute)
        assert fa.max(attribute) == fr.max(attribute)
        assert fa.count_distinct(attribute) == fr.count_distinct(
            attribute
        )
        assert fa.group_count(attribute) == fr.group_count(attribute)


def test_empty_relation_round_trip():
    tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    assert arena.from_product(tree, None) is None
    assert arena.to_product(None) is None
    fa = FactorisedRelation(tree, arena=None)
    assert fa.is_empty()
    assert fa.count() == 0 and fa.size() == 0
    assert list(fa.rows()) == []
    assert fa.to_object().data is None
    assert fa.to_object().to_arena().arena is None


def test_nullary_tuple_round_trip():
    """ProductRep([]) over an empty forest <-> a zero-node arena."""
    tree = FTree([], Hypergraph([]))
    nullary = ProductRep([])
    rep = arena.from_product(tree, nullary)
    assert rep is not None and rep.node_count == 0
    assert arena.to_product(rep) == nullary
    assert arena.tuple_count(rep) == 1
    assert list(arena.iter_rows(rep, ())) == [()]
    fa = FactorisedRelation(tree, arena=rep)
    assert not fa.is_empty()
    assert fa.count() == 1 and fa.size() == 0


def test_explicit_conversion_both_ways_and_wrong_accessor_raises():
    fr, _, _ = _nonempty_result(301)
    assert fr.encoding == "object"
    fa = fr.to_arena()
    assert fa.encoding == "arena"
    assert fa.to_arena() is fa and fr.to_object() is fr
    back = fa.to_object()
    assert back.encoding == "object"
    assert back.data == fr.data
    # A relation holds one encoding: the other accessor never converts.
    with pytest.raises(TypeError, match="to_object"):
        fa.data
    with pytest.raises(TypeError, match="to_arena"):
        fr.arena
    with pytest.raises(ValueError, match="exactly one"):
        FactorisedRelation(fr.tree, fr.data, arena=fa.arena)


def test_mixed_encoding_union_and_product_raise():
    from repro.ops import OperatorError, product, union

    fr, _, _ = _nonempty_result(304)
    fa = fr.to_arena()
    for left, right in ((fr, fa), (fa, fr)):
        with pytest.raises(OperatorError, match="mixed encodings"):
            union(left, right)
    other = FactorisedRelation(
        FTree.from_nested([("zz", [])], [{"zz"}]), None
    )
    for left, right in ((fa, other), (other.to_arena(), fr)):
        with pytest.raises(OperatorError, match="mixed encodings"):
            product(left, right)


def test_copy_preserves_encoding_and_isolates_columns():
    fr, _, _ = _nonempty_result(302)
    fa = fr.to_arena()
    clone = fa.copy()
    assert clone.encoding == "arena"
    assert list(clone.rows()) == list(fa.rows())
    clone.arena.values[0][0] = clone.arena.values[0][0]  # same buffer?
    assert clone.arena.values[0] is not fa.arena.values[0]


def test_arena_pickle_round_trip():
    """Process-pool workers ship arena-backed results by pickle."""
    fr, _, _ = _nonempty_result(303)
    fa = fr.to_arena()
    loaded = pickle.loads(pickle.dumps(fa))
    assert loaded.encoding == "arena"
    assert list(loaded.rows()) == list(fa.rows())
    loaded.validate()


# -- operator fast paths ------------------------------------------------------


def _grocery_like():
    from repro.relational.database import Database

    db = Database()
    db.add_rows(
        "Orders",
        ("oid", "item"),
        [(i, i % 6) for i in range(30)],
    )
    db.add_rows(
        "Store",
        ("item2", "loc"),
        [(i % 6, i % 4) for i in range(24)],
    )
    query = parse_query(
        "SELECT * FROM Orders, Store WHERE item = item2"
    )
    return db, query


@pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "!="])
def test_select_fast_path_matches_object_path(op):
    db, query = _grocery_like()
    fo = FDB(db).evaluate(query)
    fa = FDB(db, encoding="arena").evaluate(query)
    for attribute in fo.attributes:
        cond = ConstantCondition(attribute, op, 2)
        expected = select_constant(fo, cond)
        got = select_constant(fa, cond)
        assert got.encoding == "arena" or got.is_empty()
        assert sorted(got.rows()) == sorted(expected.rows()), (
            attribute,
            op,
        )
        if not got.is_empty():
            got.validate()


def test_select_equality_falls_back_and_agrees():
    db, query = _grocery_like()
    fo = FDB(db).evaluate(query)
    fa = FDB(db, encoding="arena").evaluate(query)
    cond = ConstantCondition("item", "=", 3)
    expected = select_constant(fo, cond)
    got = select_constant(fa, cond)
    assert sorted(got.rows()) == sorted(expected.rows())


def test_select_fast_path_empty_result_keeps_arena_encoding():
    db, query = _grocery_like()
    fa = FDB(db, encoding="arena").evaluate(query)
    cond = ConstantCondition("oid", "<", -1)
    got = select_constant(fa, cond)
    assert got.is_empty()
    assert got.encoding == "arena"


def test_project_subtree_drop_fast_path():
    """A projection that removes whole subtrees keeps the arena and
    agrees with the object path's relation."""
    db, query = _grocery_like()
    fo = FDB(db).evaluate(query)
    fa = FDB(db, encoding="arena").evaluate(query)
    # Find a projection that drops a leaf subtree: project onto all
    # attributes of the tree except one leaf node's.
    tree = fa.tree
    leaves = [n for n in tree.iter_nodes() if not n.children]
    target = leaves[-1]
    keep = sorted(tree.attributes() - target.label)
    expected = project(fo, keep)
    got = project(fa, keep)
    assert got.encoding == "arena"
    assert sorted(got.rows()) == sorted(expected.rows())
    got.validate()


def test_project_identity_returns_input():
    db, query = _grocery_like()
    fa = FDB(db, encoding="arena").evaluate(query)
    assert project(fa, sorted(fa.tree.attributes())) is fa


@pytest.mark.parametrize("seed", PROPERTY_SEEDS[:15])
def test_random_projections_agree_between_encodings(seed):
    """Projection over arena inputs (fast path or fallback) always
    matches the object reference."""
    import random

    rng = random.Random(seed)
    fr, db, query = _result_pair(seed)
    if fr.is_empty():
        pytest.skip("empty result")
    fa = fr.to_arena()
    attrs = list(fr.attributes)
    keep = sorted(
        rng.sample(attrs, rng.randint(1, len(attrs)))
    )
    expected = project(fr, keep)
    got = project(fa, keep)
    assert sorted(set(got.rows())) == sorted(set(expected.rows()))


# -- writer/validation internals ---------------------------------------------


def test_writer_rollback_truncates_descendants():
    tree = FTree.from_nested(
        [("a", [("b", []), ("c", [])])],
        edges=[{"a", "b"}, {"a", "c"}],
    )
    writer = ArenaWriter(tree)
    root = writer.index[frozenset({"a"})]
    marks = writer.mark(root)
    writer.extend_leaf(writer.index[frozenset({"b"})], [1, 2])
    writer.rollback(root, marks)
    assert writer.entry_count(writer.index[frozenset({"b"})]) == 0


def test_intern_distinguishes_equal_values_of_different_types():
    tree = FTree.from_nested([("a", [])], edges=[])
    writer = ArenaWriter(tree)
    assert writer.intern(1) != writer.intern(True)
    assert writer.intern(1) != writer.intern(1.0)
    assert writer.intern(1) == writer.intern(1)


def test_validate_arena_rejects_mismatched_tree():
    fr, _, _ = _nonempty_result(304)
    if fr.is_empty():
        pytest.skip("empty result")
    rep = fr.to_arena().arena
    other = FTree.from_nested([("zz", [])], edges=[])
    with pytest.raises(ArenaError):
        arena.validate_arena(other, rep)


def test_validate_arena_rejects_bad_ranges():
    db, query = _grocery_like()
    fa = FDB(db, encoding="arena").evaluate(query)
    broken = fa.arena.copy()
    for edges in broken.offsets:
        if edges:
            edges[0][1] = 10_000_000
            break
    with pytest.raises(ArenaError):
        arena.validate_arena_bounds(fa.tree, broken)


def test_tuple_count_is_exact_above_the_int64_bound():
    """A count past ``_INT64_SAFE`` (1000**7 below one entry of ``p``)
    takes the exact Python-int fallback, also for the parent that
    reads ``p``'s counts, and matches the object encoding exactly."""
    from repro.core.frep import UnionRep
    from repro.core.size import tuple_count as object_count

    leaves = [f"y{i}" for i in range(7)]
    tree = FTree.from_nested(
        [("r", [("p", [(y, []) for y in leaves]), ("q", [])])],
        [{"r", "p"}, {"r", "q"}] + [{"p", y} for y in leaves],
    )

    def leaf(n):
        return UnionRep([(v, ProductRep([])) for v in range(n)])

    inner = UnionRep([(1, ProductRep([leaf(1000) for _ in leaves]))])
    product = ProductRep(
        [UnionRep([(1, ProductRep([inner, leaf(3)]))])]
    )
    rep = arena.from_product(tree, product)
    expected = object_count(tree.roots, product)
    assert expected == 3 * 1000**7 > arena._INT64_SAFE
    assert arena.tuple_count(rep) == expected
    assert arena.group_count(rep, "q") == {v: 1000**7 for v in range(3)}


def test_pool_is_compacted_after_build():
    """Rolled-back entries must not leave dangling pool values."""
    db, query = _grocery_like()
    fa = FDB(db, encoding="arena").evaluate(query)
    rep = fa.arena
    used = set()
    for column in rep.values:
        used.update(column)
    assert used == set(range(len(rep.pool)))


# -- review regressions -------------------------------------------------------


def test_count_distinct_collapses_equal_values_of_different_types():
    """1 and 1.0 intern into distinct pool slots but COUNT(DISTINCT)
    uses value equality, exactly like the object encoding."""
    from repro.relational.database import Database

    db = Database()
    db.add_rows("R", ("a", "c"), [(1, 1), (2, 1.0), (3, True), (4, 2)])
    q = parse_query("SELECT * FROM R")
    fo = FDB(db).evaluate(q)
    fa = FDB(db, encoding="arena").evaluate(q)
    assert fo.count_distinct("c") == fa.count_distinct("c") == 2


def test_bounds_check_rejects_non_contiguous_ranges():
    """In-bounds but non-DFS-tiling offsets (what a CRC-valid tampered
    blob could carry) must fail validation -- the bulk-copy kernels
    rely on the tiling."""
    from repro.relational.relation import Relation

    r = Relation.from_rows(
        "R", ("a", "b"), [(1, 1), (1, 2), (2, 3), (2, 4)]
    )
    tree = FTree.from_nested([("a", [("b", [])])], [{"a", "b"}])
    rep = ArenaFactoriser([r], tree).run()
    arena.validate_arena_bounds(tree, rep)  # healthy baseline
    assert list(rep.offsets[0][0]) == [0, 2, 4]
    tampers = {
        "non-monotone": ([0, 5, 4], "strictly"),
        "empty union": ([0, 4, 4], "strictly"),
        "bad start": ([1, 2, 4], "tile"),
        "bad end": ([0, 2, 3], "tile"),
        "short": ([0, 4], "expected one more"),
        "long": ([0, 1, 2, 4], "expected one more"),
    }
    for name, (offsets, message) in tampers.items():
        broken = rep.copy()
        broken.offsets[0][0] = array("q", offsets)
        with pytest.raises(ArenaError, match=message):
            arena.validate_arena_bounds(tree, broken)


def test_iter_rows_unknown_attribute_raises_like_objects():
    fr, _, _ = _nonempty_result(306)
    fa = fr.to_arena()
    with pytest.raises(KeyError):
        list(fr.rows(["not_an_attribute"]))
    with pytest.raises(KeyError):
        list(fa.rows(["not_an_attribute"]))
