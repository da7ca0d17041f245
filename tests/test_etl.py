"""Tests for the ETL layer: parsing, manifests, the loader and the registry.

Structure vs values: messy *values* (unparseable prices, text that
normalises away) must load with lineage counts, while broken *structure*
(duplicate ids, missing columns, checksum mismatches) must raise
:class:`EtlError`/:class:`ManifestError` with a message pointing at the
exact file and line — those errors are part of the contract and asserted
here.
"""

import json
import shutil

import pytest

from repro.etl import (
    CorpusSpec,
    EtlError,
    ManifestError,
    SourceSpec,
    available_corpora,
    bundled_corpus_dir,
    corpus_spec,
    etl_normalize,
    load_corpus,
    load_corpus_from_dir,
    load_manifest,
    md5_id,
    parse_price_currency,
    sha256_file,
    strip_accents,
    verify_manifest,
)
from repro.etl.manifest import MANIFEST_FILENAME


# ----------------------------------------------------------------- parsing
class TestParsing:
    def test_md5_id_stable_and_short(self):
        assert md5_id("abt_buy", "abt", 552) == md5_id("abt_buy", "abt", "552")
        assert len(md5_id("x")) == 12
        assert md5_id("a", "b") != md5_id("a", "c")

    def test_strip_accents(self):
        assert strip_accents("café Ébène") == "cafe Ebene"
        assert strip_accents("Sony™") == "SonyTM"  # compatibility decomposition

    def test_etl_normalize_folds_unicode_and_punctuation(self):
        assert etl_normalize("Sony® BRAVIA – 32″ LCD, Café!") == (
            "sony bravia 32 lcd cafe"
        )
        assert etl_normalize(None) == ""
        assert etl_normalize("  ") == ""

    @pytest.mark.parametrize("raw,expected", [
        ("$1,299.00", (1299.0, "USD")),
        ("£279.99", (279.99, "GBP")),
        ("1.299,00 €", (1299.0, "EUR")),
        ("12,50 €", (12.5, "EUR")),
        ("GBP 279", (279.0, "GBP")),
        ("1299.00 usd", (1299.0, "USD")),
        ("449", (449.0, None)),
        ("1,299", (1299.0, None)),
        ("call for price", (None, None)),
        ("", (None, None)),
        (None, (None, None)),
        ("n/a", (None, None)),
    ])
    def test_parse_price_currency(self, raw, expected):
        assert parse_price_currency(raw) == expected


# ---------------------------------------------------------------- fixtures
SPEC = CorpusSpec(
    name="toy",
    sources=(
        SourceSpec(name="left", filename="left.csv",
                   column_map={"name": "name"}, price_column="price"),
        SourceSpec(name="right", filename="right.csv",
                   column_map={"title": "name"}),
    ),
    mapping_filename="gold.csv",
    mapping_columns=("idLeft", "idRight"),
)


def stamp(directory):
    """Write a ``manifest.json`` naming every CSV file in ``directory``."""
    document = {
        "corpus": "toy",
        "files": {
            path.name: {"sha256": sha256_file(path), "bytes": path.stat().st_size}
            for path in sorted(directory.glob("*.csv"))
        },
    }
    (directory / MANIFEST_FILENAME).write_text(json.dumps(document))
    return directory


def write_corpus(directory, left_rows, right_rows, gold_rows,
                 left_header="id,name,price", right_header="id,title",
                 gold_header="idLeft,idRight"):
    (directory / "left.csv").write_text(
        "\n".join([left_header] + left_rows) + "\n", encoding="utf-8"
    )
    (directory / "right.csv").write_text(
        "\n".join([right_header] + right_rows) + "\n", encoding="utf-8"
    )
    (directory / "gold.csv").write_text(
        "\n".join([gold_header] + gold_rows) + "\n", encoding="utf-8"
    )
    return stamp(directory)


@pytest.fixture
def toy_dir(tmp_path):
    return write_corpus(
        tmp_path,
        left_rows=['1,"Sony® TV",$299.00', '2,"Apple iPad","call for price"'],
        right_rows=['a,"sony tv"', 'b,"!!!"'],
        gold_rows=["1,a"],
    )


# ------------------------------------------------------------------ loader
class TestLoader:
    def test_loads_records_gold_pairs_and_lineage(self, toy_dir):
        dataset = load_corpus_from_dir(SPEC, toy_dir)
        assert dataset.record_count == 4
        assert dataset.cross_sources == ("left", "right")
        left_id = md5_id("toy", "left", "1")
        right_id = md5_id("toy", "right", "a")
        assert dataset.ground_truth == {tuple(sorted((left_id, right_id)))}
        record = dataset.store.get(left_id)
        assert record.get("name") == "sony tv"
        assert record.get("price") == "299.00"
        assert record.get("currency") == "USD"
        counts = dataset.metadata["lineage"]["counts"]
        assert counts["left_records"] == 2
        assert counts["right_records"] == 2
        assert counts["malformed_prices"] == 1   # "call for price"
        assert counts["empty_token_records"] == 1  # "!!!" normalises away
        assert counts["gold_pairs"] == 1

    def test_duplicate_source_id_raises_with_location(self, tmp_path):
        write_corpus(
            tmp_path,
            left_rows=["1,tv,$5", "1,tv again,$6"],
            right_rows=["a,x"],
            gold_rows=["1,a"],
        )
        with pytest.raises(EtlError, match=r"left\.csv line 3: duplicate source id '1'"):
            load_corpus_from_dir(SPEC, tmp_path)

    def test_empty_source_id_raises(self, tmp_path):
        write_corpus(
            tmp_path,
            left_rows=[",tv,$5"],
            right_rows=["a,x"],
            gold_rows=["1,a"],
        )
        with pytest.raises(EtlError, match=r"left\.csv line 2: empty or missing 'id'"):
            load_corpus_from_dir(SPEC, tmp_path)

    def test_missing_file_and_missing_header(self, tmp_path):
        with pytest.raises(ManifestError,
                           match=r"does not list left\.csv, right\.csv, gold\.csv"):
            load_corpus_from_dir(SPEC, stamp(tmp_path))
        write_corpus(tmp_path, ["1,tv,$5"], ["a,x"], ["1,a"])
        (tmp_path / "left.csv").write_text("", encoding="utf-8")
        stamp(tmp_path)
        with pytest.raises(EtlError, match="no header row"):
            load_corpus_from_dir(SPEC, tmp_path)

    def test_missing_mapping_columns_raise(self, tmp_path):
        write_corpus(
            tmp_path,
            left_rows=["1,tv,$5"],
            right_rows=["a,x"],
            gold_rows=["1,a"],
            gold_header="wrong,columns",
        )
        with pytest.raises(EtlError, match=r"gold\.csv line 2: expected columns"):
            load_corpus_from_dir(SPEC, tmp_path)

    def test_gold_rows_referencing_absent_records_are_counted(self, tmp_path):
        write_corpus(
            tmp_path,
            left_rows=["1,tv,$5"],
            right_rows=["a,tv"],
            gold_rows=["1,a", "99,a", "1,zz"],
        )
        dataset = load_corpus_from_dir(SPEC, tmp_path)
        counts = dataset.metadata["lineage"]["counts"]
        assert counts["gold_pairs"] == 1
        assert counts["gold_pairs_skipped"] == 2


# ---------------------------------------------------------------- manifest
class TestManifest:
    def test_checksum_mismatch_names_the_file(self, toy_dir):
        manifest = load_manifest(bundled_corpus_dir("abt-buy"))
        verify_manifest(toy_dir)  # clean pass
        original = (toy_dir / "left.csv").read_text(encoding="utf-8")
        # Same byte length, different content — only the digest catches it.
        (toy_dir / "left.csv").write_text(original.replace("Sony", "Sonx"))
        with pytest.raises(ManifestError, match=r"left\.csv.*checksum mismatch"):
            verify_manifest(toy_dir)
        assert manifest.corpus == "abt-buy"

    def test_urls_are_provenance_and_nothing_is_fetched(self, toy_dir):
        """A manifest may name where its files came from; the load reads the
        files on disk and carries ``source_url`` into the lineage."""
        document = {
            "corpus": "toy",
            "source_url": "https://example.org/toy.zip",
            "files": {
                name: {"sha256": sha256_file(toy_dir / name),
                       "bytes": (toy_dir / name).stat().st_size,
                       "url": f"https://example.org/{name}"}
                for name in ("left.csv", "right.csv", "gold.csv")
            },
        }
        (toy_dir / MANIFEST_FILENAME).write_text(json.dumps(document))
        dataset = load_corpus_from_dir(SPEC, toy_dir)
        assert dataset.record_count == 4
        assert dataset.metadata["lineage"]["source_url"] == "https://example.org/toy.zip"

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ManifestError, match="no manifest"):
            load_manifest(tmp_path)

    def test_a_file_the_manifest_leaves_out_is_refused(self, toy_dir):
        """A manifest that omits the gold file would let a rewritten gold
        file load unchecked."""
        document = json.loads((toy_dir / MANIFEST_FILENAME).read_text())
        del document["files"]["gold.csv"]
        (toy_dir / MANIFEST_FILENAME).write_text(json.dumps(document))
        (toy_dir / "gold.csv").write_text("idLeft,idRight\n2,b\n", encoding="utf-8")
        verify_manifest(toy_dir)  # every file it lists is intact
        with pytest.raises(ManifestError, match=r"does not list gold\.csv"):
            load_corpus_from_dir(SPEC, toy_dir)

    def test_missing_file_named_in_manifest(self, toy_dir):
        document = {
            "corpus": "toy",
            "files": {"ghost.csv": {"sha256": "0" * 64, "bytes": 1}},
        }
        (toy_dir / MANIFEST_FILENAME).write_text(json.dumps(document))
        with pytest.raises(ManifestError, match=r"ghost\.csv.*missing"):
            verify_manifest(toy_dir)


# ---------------------------------------------------------------- registry
class TestRegistry:
    def test_bundled_corpora_load_and_verify(self):
        assert set(available_corpora()) >= {"abt-buy", "amazon-google"}
        for name in ("abt-buy", "amazon-google"):
            dataset = load_corpus(name)
            assert dataset.record_count > 400
            assert len(dataset.ground_truth) > 150
            lineage = dataset.metadata["lineage"]
            assert lineage["files"] == {
                name: stamp.sha256
                for name, stamp in load_manifest(bundled_corpus_dir(name)).files.items()
            }
            assert dataset.metadata["default_threshold"] == corpus_spec(name).default_threshold

    def test_unknown_corpus_lists_registered_names(self):
        with pytest.raises(EtlError, match="unknown corpus 'dblp-acm'.*abt-buy"):
            load_corpus("dblp-acm")

    def test_tampered_bundled_copy_fails_checksums(self, tmp_path):
        source = bundled_corpus_dir("abt-buy")
        copy = tmp_path / "abt_buy"
        shutil.copytree(source, copy)
        target = copy / "Abt.csv"
        # Same byte count, different bytes: the digest is the only tell.
        payload = bytearray(target.read_bytes())
        payload[-2] ^= 0x01
        target.write_bytes(bytes(payload))
        with pytest.raises(ManifestError, match=r"Abt\.csv: checksum mismatch"):
            load_corpus("abt-buy", data_dir=str(copy))

    def test_adhoc_dirs_are_always_verified(self, toy_dir):
        (toy_dir / "gold.csv").write_text("idLeft,idRight\n1,a\n2,b\n", encoding="utf-8")
        with pytest.raises(ManifestError, match=r"gold\.csv: size mismatch"):
            load_corpus_from_dir(SPEC, toy_dir)
        (toy_dir / MANIFEST_FILENAME).unlink()
        with pytest.raises(ManifestError, match="no manifest"):
            load_corpus_from_dir(SPEC, toy_dir)

    def test_loads_are_deterministic(self):
        a = load_corpus("abt-buy")
        b = load_corpus("abt-buy")
        assert sorted(a.store.record_ids) == sorted(b.store.record_ids)
        assert a.ground_truth == b.ground_truth
        assert [r.attributes for r in a.store] == [r.attributes for r in b.store]
