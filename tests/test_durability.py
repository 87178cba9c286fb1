"""Persistence error paths and crash consistency (format v2).

Covers the durability layer's contract: corrupt/truncated catalogs are
rejected with clear errors, digests catch damaged page files, any other
format version is refused, and — the core guarantee — a crash at *any*
page-write or rename boundary during ``save_tree`` leaves either the old
or the new index fully loadable.
"""

import json
import os
import shutil

import pytest

from repro import (
    EditDistance,
    EuclideanDistance,
    FaultInjector,
    SPBTree,
    SimulatedCrash,
    load_tree,
    save_tree,
)
from repro.core.persist import CatalogError, _file_digest
from repro.datasets import generate_words

PAGE = 512


@pytest.fixture(scope="module")
def words():
    return generate_words(150, seed=3)


@pytest.fixture(scope="module")
def tree(words):
    return SPBTree.build(
        words, EditDistance(), num_pivots=3, seed=1, page_size=PAGE
    )


def _catalog(directory):
    with open(os.path.join(directory, "spbtree.json")) as fh:
        return json.load(fh)


def _rewrite_catalog(directory, meta):
    with open(os.path.join(directory, "spbtree.json"), "w") as fh:
        json.dump(meta, fh)


class TestCatalogErrors:
    def test_missing_directory(self):
        with pytest.raises(CatalogError, match="cannot read catalog"):
            load_tree("/nonexistent/spb-dir", EditDistance())

    def test_corrupt_json(self, tree, tmp_path):
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        with open(os.path.join(d, "spbtree.json"), "w") as fh:
            fh.write('{"format_version": 2, "metr')
        with pytest.raises(CatalogError, match="not valid JSON"):
            load_tree(d, EditDistance())

    def test_truncated_catalog(self, tree, tmp_path):
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        with open(os.path.join(d, "spbtree.json"), "w") as fh:
            fh.write("")
        with pytest.raises(CatalogError):
            load_tree(d, EditDistance())

    def test_unsupported_version(self, tree, tmp_path):
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        meta = _catalog(d)
        # 1 is the fixed-file-name layout no writer has produced since the
        # generation protocol: refused like a version from the future.
        for version in (99, 1):
            meta["format_version"] = version
            _rewrite_catalog(d, meta)
            with pytest.raises(CatalogError, match=f"format version {version}"):
                load_tree(d, EditDistance())

    def test_metric_mismatch(self, tree, tmp_path):
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        with pytest.raises(ValueError, match="metric"):
            load_tree(d, EuclideanDistance())

    def test_unknown_curve_rejected(self, tree, tmp_path):
        # The legacy loader silently fell back to Z-order for any
        # unrecognized curve name; now it must refuse.
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        meta = _catalog(d)
        meta["curve"] = "peano"
        _rewrite_catalog(d, meta)
        with pytest.raises(ValueError, match="unknown curve"):
            load_tree(d, EditDistance())

    def test_digest_mismatch(self, tree, tmp_path):
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        raf_file = os.path.join(d, _catalog(d)["files"]["raf"])
        with open(raf_file, "r+b") as fh:
            fh.seek(10)
            fh.write(b"\xff\xff\xff")
        with pytest.raises(CatalogError, match="digest mismatch"):
            load_tree(d, EditDistance())
        # A file whose digest the catalog vouches for must still be whole
        # page slots.
        with open(raf_file, "ab") as fh:
            fh.write(b"tail garbage")
        meta = _catalog(d)
        meta["digests"]["raf"] = _file_digest(raf_file)
        _rewrite_catalog(d, meta)
        with pytest.raises(CatalogError, match="not page aligned"):
            load_tree(d, EditDistance())

    def test_missing_page_file(self, tree, tmp_path):
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        os.unlink(os.path.join(d, _catalog(d)["files"]["btree"]))
        with pytest.raises(CatalogError, match="cannot read page file"):
            load_tree(d, EditDistance())


class TestAtomicSave:
    def test_generation_bumps_and_old_files_removed(self, tree, tmp_path):
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        assert _catalog(d)["generation"] == 1
        save_tree(tree, d)
        meta = _catalog(d)
        assert meta["generation"] == 2
        names = set(os.listdir(d))
        assert names == {"spbtree.json", meta["files"]["btree"], meta["files"]["raf"]}

    def test_stale_tmp_files_removed_on_next_save(self, tree, tmp_path):
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        stale = os.path.join(d, "btree.7.pages.tmp")
        with open(stale, "wb") as fh:
            fh.write(b"half a page")
        save_tree(tree, d)
        assert not os.path.exists(stale)

    def test_crash_at_every_boundary_leaves_a_loadable_index(
        self, words, tmp_path
    ):
        # Acceptance (b): enumerate every crash point of the save protocol;
        # each must leave either the old or the new index fully loadable.
        old = SPBTree.build(
            words[:60], EditDistance(), num_pivots=3, seed=1, page_size=PAGE
        )
        new = SPBTree.build(
            words, EditDistance(), num_pivots=3, seed=1, page_size=PAGE
        )
        ref = str(tmp_path / "ref")
        save_tree(old, ref)
        counting = FaultInjector()
        probe = str(tmp_path / "probe")
        shutil.copytree(ref, probe)
        save_tree(new, probe, faults=counting)
        total = counting.ops
        assert total > 10  # page writes + renames + cleanup boundaries
        for n in range(total):
            d = str(tmp_path / f"crash{n}")
            shutil.copytree(ref, d)
            with pytest.raises(SimulatedCrash):
                save_tree(new, d, faults=FaultInjector(crash_after=n))
            recovered = load_tree(d, EditDistance())
            assert len(recovered) in (len(old), len(new))
            report = recovered.verify(check_objects=False)
            assert report.ok, (n, report.errors)

    def test_crash_then_resave_recovers(self, words, tree, tmp_path):
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        with pytest.raises(SimulatedCrash):
            save_tree(tree, d, faults=FaultInjector(crash_after=2))
        save_tree(tree, d)  # clean retry after the "reboot"
        reopened = load_tree(d, EditDistance())
        assert len(reopened) == len(tree)
        assert reopened.verify().ok


class TestChecksummedPersistence:
    def test_checksums_survive_round_trip(self, words, tmp_path):
        tree = SPBTree.build(
            words, EditDistance(), num_pivots=3, seed=1,
            page_size=PAGE, checksums=True,
        )
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        assert _catalog(d)["checksums"] is True
        reopened = load_tree(d, EditDistance())
        assert reopened._checksums is True
        assert reopened.btree.pagefile.checksums
        assert reopened.raf.pagefile.checksums
        q = words[3]
        assert sorted(reopened.range_query(q, 2)) == sorted(tree.range_query(q, 2))

    def test_dumped_corruption_stays_detectable(self, words, tmp_path):
        # A page corrupted in memory keeps its stale CRC through dump/load,
        # so the reloaded tree still detects it on read.
        tree = SPBTree.build(
            words, EditDistance(), num_pivots=3, seed=1,
            page_size=PAGE, checksums=True,
        )
        FaultInjector(tree.raf.pagefile, seed=1).tear_page(0, keep=7)
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        reopened = load_tree(d, EditDistance())  # digests match the dump
        assert reopened.raf.pagefile.verify_all() == [0]
        assert not reopened.verify().ok
