"""Serialisation of factorised relations through the FDBP format.

Factorised results are saved with :func:`repro.persist.save` and read
back with :func:`repro.persist.load` (what ``repro compile`` and
``repro stats FILE`` use).  These tests pin the result-specific
contract: both blob kinds (``arena``, ``factorised``) round-trip
exactly, constant nodes survive, and foreign, version-skewed, corrupt
or structurally invalid blobs raise :class:`PersistError`.
"""

import json
import struct

import pytest

from repro.core.factorised import FactorisedRelation
from repro.core.frep import ProductRep, UnionRep
from repro.core.ftree import FTree
from repro.engine import FDB
from repro.persist import (
    FORMAT_VERSION,
    MAGIC,
    PersistError,
    inspect,
    load,
    save,
)
from repro.persist.codec import encode, write_blob
from repro.workloads import grocery_database, query_q1
from tests.conftest import assignments


@pytest.fixture
def fr():
    return FDB(grocery_database(), encoding="arena").evaluate(query_q1())


def _round_trip(fr, tmp_path):
    path = str(tmp_path / "result.fdbp")
    save(fr, path)
    return load(path)


def _saved_bytes(fr, tmp_path):
    path = str(tmp_path / "result.fdbp")
    save(fr, path)
    with open(path, "rb") as handle:
        return path, bytearray(handle.read())


def _write_raw(path, kind, payload):
    """A well-framed blob (valid magic, version and CRC) around an
    arbitrary payload, so only the payload decoder can reject it."""
    with open(path, "wb") as handle:
        write_blob(handle, kind, {}, payload)


def test_round_trip_preserves_everything(fr, tmp_path):
    for original in (fr, fr.to_object()):
        restored = _round_trip(original, tmp_path)
        assert restored.encoding == original.encoding
        assert restored.tree.key() == original.tree.key()
        assert assignments(restored) == assignments(original)
        assert restored.size() == original.size()
    assert restored.data == original.data  # the object blob, exactly


def test_round_trip_through_file(fr, tmp_path):
    path = str(tmp_path / "q1.fdbp")
    save(fr, path)
    info = inspect(path)
    assert info["kind"] == "arena"
    assert info["singletons"] == fr.size()
    restored = load(path)
    assert restored.tree.key() == fr.tree.key()
    assert list(restored.rows()) == list(fr.rows())


def test_empty_relation_round_trip(tmp_path):
    tree = FTree.from_nested([("a", [])], [{"a"}])
    for empty in (
        FactorisedRelation(tree, None),
        FactorisedRelation(tree, arena=None),
    ):
        restored = _round_trip(empty, tmp_path)
        assert restored.is_empty()
        assert restored.encoding == empty.encoding
        assert restored.tree.key() == tree.key()


def test_constant_nodes_round_trip(fr, tmp_path):
    from repro.ops import select_constant
    from repro.query.query import ConstantCondition

    selected = select_constant(fr, ConstantCondition("oid", "=", 1))
    for original in (selected, selected.to_object()):
        restored = _round_trip(original, tmp_path)
        assert restored.tree.node_of("oid").constant
        assert assignments(restored) == assignments(original)


def test_document_has_format_marker(fr, tmp_path):
    _, data = _saved_bytes(fr, tmp_path)
    assert bytes(data[:4]) == MAGIC
    assert struct.unpack(">H", bytes(data[4:6]))[0] == FORMAT_VERSION


def test_wrong_format_rejected(tmp_path):
    # A result in the retired JSON document format is a foreign file.
    path = tmp_path / "q1.fdb.json"
    path.write_text(json.dumps({"format": "fdb-factorised", "version": 1}))
    with pytest.raises(PersistError, match="not an FDBP file"):
        load(str(path))


def test_wrong_version_rejected(fr, tmp_path):
    path, data = _saved_bytes(fr, tmp_path)
    data[4:6] = struct.pack(">H", FORMAT_VERSION + 98)
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    with pytest.raises(PersistError, match="version"):
        load(path)


def test_corrupted_data_rejected(fr, tmp_path):
    path, data = _saved_bytes(fr, tmp_path)
    data[-3] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    with pytest.raises(PersistError, match="checksum"):
        load(path)


def test_unsorted_data_rejected(tmp_path):
    # Well-framed, but violating the value-order invariant: must not load.
    tree = FTree.from_nested([("a", [])], [{"a"}])
    unsorted = FactorisedRelation(
        tree,
        ProductRep(
            [UnionRep([(2, ProductRep([])), (1, ProductRep([]))])]
        ),
    )
    kind, _, payload = encode(unsorted)
    path = str(tmp_path / "unsorted.fdbp")
    _write_raw(path, kind, payload)
    with pytest.raises(PersistError, match="invariants"):
        load(path)


def test_malformed_tree_rejected(tmp_path):
    path = str(tmp_path / "bad-tree.fdbp")
    for kind in ("factorised", "arena"):
        # Declares a 40-byte f-tree but carries three bytes of it.
        _write_raw(path, kind, b"\x28abc")
        with pytest.raises(PersistError):
            load(path)


def test_serialised_is_compact_for_factorised_data(fr, tmp_path):
    """The paper's point, in bytes: a saved factorisation is smaller
    than the saved flat relation it represents."""
    factorised_path = str(tmp_path / "factorised.fdbp")
    flat_path = str(tmp_path / "flat.fdbp")
    save(fr.to_object(), factorised_path)
    save(fr.to_relation(), flat_path)
    assert inspect(factorised_path)["kind"] == "factorised"
    with open(factorised_path, "rb") as f, open(flat_path, "rb") as g:
        assert len(f.read()) < len(g.read())
