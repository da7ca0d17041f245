"""Unit tests for the record model, preprocessing, tokenisation and pairs."""

import pytest

from repro.records.pairs import PairSet, RecordPair, canonical_pair
from repro.records.preprocessing import normalize_record, normalize_text, strip_price_symbols
from repro.records.record import Record, RecordError, RecordStore
from repro.records.tokenize import WhitespaceTokenizer, record_token_list, record_token_set


# ---------------------------------------------------------------- Record
class TestRecord:
    def test_attributes_are_copied_and_frozen(self):
        attributes = {"name": "oceana"}
        record = Record("r1", attributes)
        attributes["name"] = "changed"
        assert record.get("name") == "oceana"

    def test_empty_id_rejected(self):
        with pytest.raises(RecordError):
            Record("", {"name": "x"})

    def test_equality_and_hash_by_id(self):
        a = Record("r1", {"name": "a"})
        b = Record("r1", {"name": "b"})
        assert a == b
        assert hash(a) == hash(b)
        assert a != Record("r2", {"name": "a"})

    def test_get_with_default(self):
        record = Record("r1", {"name": "x"})
        assert record.get("missing", "fallback") == "fallback"

    def test_text_concatenates_selected_attributes(self):
        record = Record("r1", {"name": "oceana", "city": "new york", "type": "seafood"})
        assert record.text(["name", "city"]) == "oceana new york"
        assert record.text() == "oceana new york seafood"

    def test_text_skips_empty_values(self):
        record = Record("r1", {"name": "oceana", "city": ""})
        assert record.text() == "oceana"

    def test_with_attributes_returns_modified_copy(self):
        record = Record("r1", {"name": "a", "city": "x"}, source="abt")
        updated = record.with_attributes(name="b")
        assert updated.get("name") == "b"
        assert updated.get("city") == "x"
        assert updated.source == "abt"
        assert record.get("name") == "a"

    def test_as_dict_includes_id_and_source(self):
        record = Record("r1", {"name": "a"}, source="buy")
        payload = record.as_dict()
        assert payload["record_id"] == "r1"
        assert payload["source"] == "buy"


# ------------------------------------------------------------ RecordStore
class TestRecordStore:
    def test_add_and_lookup(self):
        store = RecordStore()
        store.add(Record("r1", {"name": "a"}))
        assert "r1" in store
        assert store.get("r1").get("name") == "a"
        assert len(store) == 1

    def test_duplicate_id_rejected(self):
        store = RecordStore()
        store.add(Record("r1", {"name": "a"}))
        with pytest.raises(RecordError):
            store.add(Record("r1", {"name": "b"}))

    def test_from_rows_uses_id_attribute(self):
        store = RecordStore.from_rows(
            [{"record_id": "x", "name": "a"}, {"record_id": "y", "name": "b"}]
        )
        assert store.record_ids == ["x", "y"]
        assert "record_id" not in store.get("x").attributes

    def test_from_rows_generates_ids_when_missing(self):
        store = RecordStore.from_rows([{"name": "a"}, {"name": "b"}])
        assert store.record_ids == ["r1", "r2"]

    def test_all_pairs_count(self):
        store = RecordStore.from_rows([{"name": str(i)} for i in range(6)])
        assert len(list(store.all_pairs())) == 15
        assert store.total_pair_count() == 15

    def test_sources_and_cross_source_pairs(self):
        store = RecordStore()
        store.add(Record("a1", {"name": "x"}, source="abt"))
        store.add(Record("a2", {"name": "y"}, source="abt"))
        store.add(Record("b1", {"name": "z"}, source="buy"))
        assert store.sources() == ["abt", "buy"]
        cross = list(store.cross_source_pairs("abt", "buy"))
        assert len(cross) == 2
        assert all(pair[0].source == "abt" and pair[1].source == "buy" for pair in cross)

    def test_same_source_cross_pairs_are_that_sources_self_join(self):
        store = RecordStore()
        store.add(Record("r0", {"name": "x"}, source="a"))
        store.add(Record("r1", {"name": "y"}, source="a"))
        store.add(Record("r2", {"name": "z"}, source="b"))
        store.add(Record("r3", {"name": "w"}, source="a"))
        ids = [(a.record_id, b.record_id) for a, b in store.cross_source_pairs("a", "a")]
        assert ids == [("r0", "r1"), ("r0", "r3"), ("r1", "r3")]
        assert list(store.cross_source_pairs("b", "b")) == []

    def test_attribute_names_union_in_order(self):
        store = RecordStore()
        store.add(Record("r1", {"name": "a", "city": "x"}))
        store.add(Record("r2", {"name": "b", "price": "1"}))
        assert store.attribute_names() == ["name", "city", "price"]

    def test_iteration_preserves_insertion_order(self):
        store = RecordStore.from_records([Record(f"r{i}", {"v": str(i)}) for i in range(5)])
        assert [record.record_id for record in store] == [f"r{i}" for i in range(5)]


# --------------------------------------------------------- preprocessing
class TestPreprocessing:
    def test_normalize_text_lowercases_and_strips_punctuation(self):
        assert normalize_text("Apple iPad-2, 16GB (WiFi)!") == "apple ipad 2 16gb wifi"

    def test_normalize_text_collapses_whitespace(self):
        assert normalize_text("  a   b  ") == "a b"

    def test_normalize_text_empty(self):
        assert normalize_text("") == ""
        assert normalize_text("!!!") == ""

    def test_normalize_record(self):
        record = Record("r1", {"name": "Oceana!", "city": "New York"})
        normalized = normalize_record(record)
        assert normalized.get("name") == "oceana"
        assert normalized.get("city") == "new york"
        assert normalized.record_id == "r1"

    def test_strip_price_symbols(self):
        assert strip_price_symbols("$1,299.00") == "1299.00"


# ------------------------------------------------------------ tokenisers
class TestTokenizers:
    def test_whitespace_tokenizer(self):
        tokenizer = WhitespaceTokenizer()
        assert tokenizer.tokenize("iPad Two 16GB") == ["ipad", "two", "16gb"]
        assert tokenizer.token_set("a b a") == frozenset({"a", "b"})

    def test_whitespace_tokenizer_empty(self):
        assert WhitespaceTokenizer().tokenize("") == []

    def test_record_token_set_pools_attributes(self):
        record = Record("r1", {"name": "iPad Two", "price": "$490"})
        tokens = record_token_set(record)
        assert tokens == frozenset({"ipad", "two", "490"})

    def test_record_token_set_over_chosen_attributes(self):
        """The ``similarity_attributes`` path: only the named values pool."""
        record = Record("r1", {"name": "iPad Two", "price": "$490", "city": "nyc"})
        assert record_token_set(record, ["name"]) == frozenset({"ipad", "two"})
        assert record_token_set(record, ("price", "name")) == frozenset({"ipad", "two", "490"})
        assert record_token_set(record, []) == frozenset()

    def test_record_token_list_keeps_duplicates(self):
        record = Record("r1", {"name": "a a b"})
        assert record_token_list(record) == ["a", "a", "b"]


# ------------------------------------------------------------------ pairs
class TestPairs:
    def test_canonical_pair_orders_ids(self):
        assert canonical_pair("r2", "r1") == ("r1", "r2")
        with pytest.raises(ValueError):
            canonical_pair("r1", "r1")

    def test_record_pair_is_unordered(self):
        assert RecordPair("b", "a") == RecordPair("a", "b")
        assert hash(RecordPair("b", "a")) == hash(RecordPair("a", "b"))

    def test_record_pair_likelihood_validation(self):
        with pytest.raises(ValueError):
            RecordPair("a", "b", likelihood=1.5)

    def test_record_pair_other(self):
        pair = RecordPair("a", "b")
        assert pair.other("a") == "b"
        assert pair.other("b") == "a"
        with pytest.raises(KeyError):
            pair.other("c")

    def test_pair_set_deduplicates_and_keeps_higher_likelihood(self):
        pairs = PairSet()
        pairs.add(RecordPair("a", "b", likelihood=0.4))
        pairs.add(RecordPair("b", "a", likelihood=0.9))
        assert len(pairs) == 1
        assert pairs.get("a", "b").likelihood == 0.9

    def test_pair_set_contains(self):
        pairs = PairSet([RecordPair("a", "b", likelihood=0.5)])
        assert ("b", "a") in pairs
        assert RecordPair("a", "b") in pairs
        assert ("a", "c") not in pairs

    def test_filter_by_likelihood(self, simple_pairs):
        filtered = simple_pairs.filter_by_likelihood(0.75)
        assert filtered.to_key_set() == frozenset({("a", "b"), ("b", "c")})

    def test_filter_drops_unscored_pairs(self):
        pairs = PairSet([RecordPair("a", "b")])
        assert len(pairs.filter_by_likelihood(0.0)) == 0

    def test_sorted_by_likelihood(self, simple_pairs):
        ordered = simple_pairs.sorted_by_likelihood()
        likelihoods = [pair.likelihood for pair in ordered]
        assert likelihoods == sorted(likelihoods, reverse=True)

    def test_record_ids_and_intersection(self, simple_pairs):
        assert simple_pairs.record_ids() == {"a", "b", "c", "d", "e"}
        overlap = simple_pairs.intersection_keys([("b", "a"), ("x", "y")])
        assert overlap == {("a", "b")}

    def test_from_keys_roundtrip(self):
        keys = [("a", "b"), ("c", "d")]
        assert PairSet.from_keys(keys).to_key_set() == frozenset(keys)
