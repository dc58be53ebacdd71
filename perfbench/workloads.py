"""Inputs of the three workloads.

The database and the query pools are fixed per scale: the reference
database is the ROADMAP's ``random_database(3, 9, 3000, domain=40,
seed=5)``, the served templates are ``random_spj_queries(db, 24,
seed=0, max_relations=3, max_equalities=3)`` and the explore joins are
the first 24 distinct ``random_query(db, 3, seed=i)`` for i = 0, 1, ...
The run seed (``--seed``) only draws the served operation sequences:
the order of the reads in each served-hot cycle, the order of reads,
appends and deletes, and the rows written.  local-explore's sequence is the same for every seed.  Seeds
therefore differ in order and sampling, not in the kind of work, which
keeps the figures of different seeds comparable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.query.equivalence import UnionFind
from repro.query.query import Query
from repro.relational.database import Database
from repro.workloads.generator import (
    random_database,
    random_query,
    random_spj_queries,
)


@dataclass(frozen=True)
class Scale:
    tuples: int
    relations: int = 3
    attributes: int = 9
    domain: int = 40
    db_seed: int = 5
    pool_seed: int = 0
    templates: int = 24
    mutate_templates: int = 12
    explore_joins: int = 24
    explore_equalities: int = 3

    def params(self) -> Dict[str, object]:
        return {
            "database": (
                f"random_database({self.relations}, {self.attributes}, "
                f"{self.tuples}, domain={self.domain}, "
                f"seed={self.db_seed})"
            ),
            "pool_seed": self.pool_seed,
            "templates": self.templates,
            "mutate_templates": self.mutate_templates,
            "explore_joins": self.explore_joins,
            "explore_equalities": self.explore_equalities,
        }


SCALES = {
    "reference": Scale(tuples=3000),
    "tiny": Scale(tuples=120),
}

#: Reads in one served-hot cycle (rounded per template: 242 at 24
#: templates).
HOT_CYCLE_READS = 240

#: served-mutate runs in cycles of 48 operations: 12 blocks of three
#: reads and one write.  The 36 reads are three rounds over the 12 join
#: templates (75%); the writes are 10 appends of 20 rows (~20%) and 2
#: deletes of 10 live rows (~5%), on relations taken in rotation.  The
#: layout is fixed, so every seed re-factorises and catches up the same
#: templates as often; the seed orders the templates within each round
#: and draws the rows written.
READS_PER_BLOCK = 3
WRITES_PER_CYCLE = 12
DELETE_SLOTS = (5, 11)
APPEND_ROWS = 20
DELETE_ROWS = 10


def database(scale: Scale) -> Database:
    return random_database(
        scale.relations,
        scale.attributes,
        scale.tuples,
        domain=scale.domain,
        seed=scale.db_seed,
    )


def served_templates(db: Database, scale: Scale) -> List[Query]:
    """The served-hot pool; list position is the Zipf rank."""
    return random_spj_queries(
        db,
        scale.templates,
        seed=scale.pool_seed,
        max_relations=3,
        max_equalities=3,
    )


def mutate_templates(db: Database, scale: Scale) -> List[Query]:
    """The first joins (two or more relations) of the served pool."""
    joins = [q for q in served_templates(db, scale) if len(q.relations) > 1]
    return joins[: scale.mutate_templates]


def zipf_counts(count: int) -> List[int]:
    """Reads of each template in one served-hot cycle: proportional to
    1/rank over :data:`HOT_CYCLE_READS` reads, at least one each."""
    weights = [1.0 / (r + 1) for r in range(count)]
    total = sum(weights)
    return [max(1, round(HOT_CYCLE_READS * w / total)) for w in weights]


def hot_cycles(count: int, seed: int) -> Iterator[List[Tuple]]:
    """Endless served-hot cycles of ``("read", template)`` operations.

    Every cycle holds the same reads (:func:`zipf_counts`); the seed
    draws their order.  A run that measures whole cycles therefore does
    the same work at every seed.
    """
    rng = random.Random(seed)
    reads = [
        i for i, n in enumerate(zipf_counts(count)) for _ in range(n)
    ]
    while True:
        rng.shuffle(reads)
        yield [("read", i) for i in reads]


def mutate_cycles(
    db_names: Sequence[str], templates: int, domain: int, arities, seed: int
) -> Iterator[List[Tuple]]:
    """Endless served-mutate cycles of 48 operations.

    An operation is ``("read", template)``, ``("append", relation,
    rows)`` or ``("delete", relation, pick)``; ``pick`` is a
    ``random.Random`` the caller uses to choose live rows, so deletes
    stay seeded while depending on the state the earlier writes left.
    """
    rng = random.Random(seed)
    for cycle in itertools.count():
        ops: List[Tuple] = []
        reads: List[int] = []
        while len(reads) < WRITES_PER_CYCLE * READS_PER_BLOCK:
            order = list(range(templates))
            rng.shuffle(order)
            reads.extend(order)
        for w in range(WRITES_PER_CYCLE):
            for t in reads[w * READS_PER_BLOCK : (w + 1) * READS_PER_BLOCK]:
                ops.append(("read", t))
            relation = db_names[(w + cycle) % len(db_names)]
            if w in DELETE_SLOTS:
                ops.append(
                    ("delete", relation, random.Random(rng.randrange(2**31)))
                )
            else:
                ops.append((
                    "append",
                    relation,
                    [
                        tuple(
                            rng.randint(1, domain)
                            for _ in range(arities[relation])
                        )
                        for _ in range(APPEND_ROWS)
                    ],
                ))
        yield ops


def explore_joins(db: Database, scale: Scale) -> List[Query]:
    """The first distinct paper-style joins (Experiment 3 queries)."""
    out: List[Query] = []
    seen = set()
    i = 0
    while len(out) < scale.explore_joins:
        query = random_query(db, scale.explore_equalities, seed=i)
        key = query.canonical_key()
        if key not in seen:
            seen.add(key)
            out.append(query)
        i += 1
    return out


def followup(db: Database, join: Query, seed: int) -> Query:
    """One or two equalities merging attribute classes of ``join``.

    The same selection as ``random_followup_equalities`` on the
    join's result f-tree (Experiment 4), drawn over the classes in a
    fixed order rather than the f-tree's node order, so the follow-ups
    do not change when the optimiser picks another f-tree.
    """
    rng = random.Random(seed)
    attrs = [a for name in join.relations for a in db[name].attributes]
    classes = sorted(
        (sorted(c) for c in join.attribute_classes(attrs)),
        key=lambda c: c[0],
    )
    count = rng.randint(1, 2)
    merged = UnionFind(range(len(classes)))
    pairs: List[Tuple[str, str]] = []
    while len(pairs) < count:
        i, j = rng.sample(range(len(classes)), 2)
        if merged.union(i, j):
            pairs.append((classes[i][0], classes[j][0]))
    return Query.make(list(join.relations), equalities=pairs)


def combined(join: Query, follow: Query) -> Query:
    """The single query a follow-up selection on ``join`` answers."""
    return Query.make(
        list(join.relations),
        equalities=[(e.left, e.right) for e in join.equalities]
        + [(e.left, e.right) for e in follow.equalities],
    )
