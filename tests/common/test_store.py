"""The keyed directory store's on-disk contract, shared by every cache."""

import json

import pytest

from repro.common.store import SCHEMA_FILENAME, Store, digest


def encode(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def make(root, schema=1, evictions=None) -> Store:
    on_evict = None if evictions is None else (lambda: evictions.append(1))
    return Store(root, schema=schema, suffix=".json", on_evict=on_evict)


@pytest.fixture()
def store(tmp_path) -> Store:
    return make(tmp_path / "store")


class TestEntries:
    def test_miss_on_empty_store(self, store):
        assert store.get("k", json.loads, dict) is None

    def test_round_trip(self, store):
        assert store.put("k", encode({"a": 1}))
        assert store.get("k", json.loads, dict) == {"a": 1}
        assert store.path("k").name == "k.json"

    def test_no_temp_file_left_after_write(self, store):
        store.put("k", encode({"a": 1}))
        assert sorted(p.name for p in store.root.iterdir()) == [SCHEMA_FILENAME, "k.json"]

    @pytest.mark.parametrize("damaged", [b'{"a": 1', b"\x00\xffgarbage", b""])
    def test_undecodable_entry_is_evicted(self, tmp_path, damaged):
        evictions = []
        store = make(tmp_path / "store", evictions=evictions)
        store.put("k", damaged)
        assert store.get("k", json.loads, dict) is None
        assert not store.path("k").exists()
        assert evictions == [1]

    def test_wrong_shape_payload_is_evicted(self, store):
        store.put("k", encode(["a", "list"]))
        assert store.get("k", json.loads, dict) is None
        assert not store.path("k").exists()


class TestSchema:
    def test_schema_bump_evicts(self, tmp_path):
        evictions = []
        make(tmp_path / "store").put("k", encode({"a": 1}))
        bumped = make(tmp_path / "store", schema=2, evictions=evictions)
        assert bumped.get("k", json.loads, dict) is None
        assert evictions == [1]
        assert (tmp_path / "store" / SCHEMA_FILENAME).read_text().strip() == "2"

    def test_current_schema_survives_reopen(self, store):
        store.put("k", encode({"a": 1}))
        assert make(store.root).get("k", json.loads, dict) == {"a": 1}

    def test_missing_marker_evicts(self, store):
        store.put("k", encode({"a": 1}))
        (store.root / SCHEMA_FILENAME).unlink()
        assert make(store.root).get("k", json.loads, dict) is None


class TestBlockedDirectory:
    def test_blocked_directory_misses_and_skips_writes(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        store = make(blocker / "store")
        assert store.put("k", encode({"a": 1})) is False
        assert store.get("k", json.loads, dict) is None
        assert blocker.read_text() == "in the way"


class TestDigest:
    def test_tuple_and_list_material_agree(self):
        assert digest({"files": [("a", "1")]}) == digest({"files": [["a", "1"]]})

    def test_key_order_does_not_matter(self):
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_uncanonicalizable_material_rejected(self):
        with pytest.raises(TypeError):
            digest({"a": object()})
