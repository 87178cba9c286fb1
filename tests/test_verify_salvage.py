"""Structural verification and salvage of damaged indexes."""

import json
import os
import re
import shutil
from collections import Counter

import pytest

from repro import (
    EditDistance,
    EuclideanDistance,
    FaultInjector,
    SPBTree,
    load_tree,
    salvage_tree,
    save_tree,
)
from repro import cli
from repro.cluster import ShardedIndex
from repro.core.costmodel import CostModel
from repro.datasets import generate_synthetic, generate_words
from repro.storage.serializers import StringSerializer
from repro.tuning import Tuner

PAGE = 512


@pytest.fixture(scope="module")
def words():
    return generate_words(300, seed=5)


def _checked_tree(words, **kwargs):
    kwargs.setdefault("num_pivots", 3)
    kwargs.setdefault("seed", 1)
    kwargs.setdefault("page_size", PAGE)
    kwargs.setdefault("checksums", True)
    return SPBTree.build(words, EditDistance(), **kwargs)


def _record_extents(tree):
    """Byte range [start, end) of every record in the RAF, from the walk:
    each record ends where the next begins, the last at the end of data."""
    starts = [offset for offset, _, _ in tree.raf.walk()]
    return list(zip(starts, starts[1:] + [tree.raf._end_offset]))


class TestVerify:
    def test_ok_on_bulk_built_trees(self, words):
        assert _checked_tree(words).verify().ok
        vectors = generate_synthetic(200, seed=2, dimensions=3)
        tree = SPBTree.build(
            vectors, EuclideanDistance(), num_pivots=3, seed=1, page_size=PAGE
        )
        report = tree.verify()
        assert report.ok
        assert report.raf_records == 200
        assert report.leaf_entries == 200
        assert report.raf_sfc_ordered

    def test_ok_after_updates_and_reload(self, words, tmp_path):
        tree = _checked_tree(words[:200])
        for w in words[200:260]:
            tree.insert(w)
        for w in words[:30]:
            assert tree.delete(w)
        assert tree.verify().ok
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        assert load_tree(d, EditDistance()).verify().ok

    def test_ok_on_z_curve_tree(self, words):
        tree = SPBTree.build(
            words, EditDistance(), num_pivots=3, seed=1,
            page_size=PAGE, curve="z",
        )
        assert tree.verify().ok

    def test_observation_free(self, words):
        """An audit or a probe leaves every counter the tree has where it
        was: verify(), building a cost model, the tuner's pivot check, a
        block that raises — and a cluster's verify() and pivot check."""

        def tallies(tree):
            nodes, records = tree.btree.pagefile.counter, tree.raf.pagefile.counter
            pool = tree.raf.buffer_pool
            return (
                nodes.reads, nodes.writes, records.reads, records.writes,
                pool.hits, pool.misses, tree.distance.count,
            )  # fmt: skip

        def raising(tree):
            with pytest.raises(RuntimeError), tree.unobserved():
                tree.knn_query(words[1], 3)
                raise RuntimeError("mid-audit")

        def pivot_checks(index):
            with Tuner(index) as tuner:
                tuner.tick()
                assert "drift" in tuner.tick()["pivots"]

        def verified(index):
            assert index.verify().ok

        tree = _checked_tree(words)
        for observe in (
            lambda t: t.verify(),
            CostModel,
            pivot_checks,
            raising,
        ):
            tree.range_query(words[0], 1)
            before = tallies(tree)
            observe(tree)
            assert tallies(tree) == before
        index = ShardedIndex.build(words, EditDistance(), shards=2, num_pivots=3)
        for observe in (verified, pivot_checks):
            index.range_query(words[0], 1)
            before = [tallies(shard.tree) for shard in index.shards]
            observe(index)
            assert [tallies(shard.tree) for shard in index.shards] == before

    def test_detects_raf_corruption(self, words):
        tree = _checked_tree(words)
        FaultInjector(tree.raf.pagefile, seed=1).tear_page(1, keep=4)
        report = tree.verify()
        assert not report.ok
        assert any("page 1" in e for e in report.errors)

    def test_detects_btree_corruption(self, words):
        tree = _checked_tree(words)
        FaultInjector(tree.btree.pagefile, seed=1).flip_bit(
            tree.btree.root_page, bit=9
        )
        assert not tree.verify().ok

    def test_detects_count_drift(self, words):
        tree = _checked_tree(words)
        tree.btree.entry_count += 1
        report = tree.verify()
        assert not report.ok
        assert any("entry_count" in e for e in report.errors)

    def test_detects_leaf_entry_on_a_tombstone(self, words):
        """No delete leaves a leaf entry on a tombstoned record, and the
        read path trusts that; verify is where a planted one shows."""
        tree = _checked_tree(words)
        for w in words[:10]:
            assert tree.delete(w)
        assert tree.verify().ok
        entry = list(tree.btree.leaf_entries())[17]
        tree.raf.mark_deleted(entry.ptr)
        report = tree.verify()
        assert not report.ok
        assert any(
            "references tombstoned record" in e and f"offset {entry.ptr}" in e
            for e in report.errors
        )

    def test_summary_format(self, words):
        text = _checked_tree(words).verify().summary()
        assert text.startswith("verify: OK")
        assert "RAF records" in text


class TestSalvage:
    def _corrupt_raf_pages(self, directory, page_ids, checksums=True):
        with open(os.path.join(directory, "spbtree.json")) as fh:
            meta = json.load(fh)
        raf_file = os.path.join(directory, meta["files"]["raf"])
        slot = PAGE + (4 if checksums else 0)
        with open(raf_file, "r+b") as fh:
            for pid in page_ids:
                fh.seek(pid * slot + 16)
                fh.write(b"\xde\xad" * 64)

    def test_recovers_surviving_records(self, words, tmp_path):
        # Acceptance (c): everything whose bytes survive comes back, and the
        # salvaged tree answers queries exactly like a fresh rebuild.
        tree = _checked_tree(words)
        extents = _record_extents(tree)
        assert len(extents) == len(words)
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        bad_pages = (1, 3)
        self._corrupt_raf_pages(d, bad_pages)
        bad_ranges = [(p * PAGE, (p + 1) * PAGE) for p in bad_pages]
        surviving = sum(
            1
            for start, end in extents
            if not any(end > lo and start < hi for lo, hi in bad_ranges)
        )
        salv, report = salvage_tree(d, EditDistance())
        assert report.records_recovered >= surviving
        assert report.records_recovered < len(words)  # damage did cost records
        # leaf pointers enumerate every live record, so the loss accounting
        # is exact even though sequential framing broke
        assert report.records_recovered + report.records_lost == len(words)
        assert report.used_catalog and report.used_pivots
        assert set(salv.objects()) <= set(words)
        assert len(salv) == report.records_recovered
        assert salv.verify().ok
        fresh = SPBTree.build(
            sorted(salv.objects()), EditDistance(),
            num_pivots=3, seed=1, page_size=PAGE,
        )
        for q in words[:15]:
            assert sorted(salv.range_query(q, 2)) == sorted(fresh.range_query(q, 2))

    def test_mines_btree_past_framing_break(self, words, tmp_path):
        # Corrupting page 0 destroys the first record *headers*, which breaks
        # sequential framing; the B+-tree pointers recover the rest.
        tree = _checked_tree(words)
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        self._corrupt_raf_pages(d, (0,))
        salv, report = salvage_tree(d, EditDistance())
        assert report.used_btree
        assert report.records_recovered > len(words) // 2
        recovered = set(salv.objects())
        assert recovered <= set(words)

    def test_clean_index_salvages_losslessly(self, words, tmp_path):
        tree = _checked_tree(words)
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        salv, report = salvage_tree(d, EditDistance())
        assert report.records_recovered == len(words)
        assert report.records_lost == 0
        assert sorted(salv.objects()) == sorted(words)
        q = words[11]
        assert sorted(salv.range_query(q, 2)) == sorted(tree.range_query(q, 2))

    def test_salvage_without_catalog(self, words, tmp_path):
        tree = _checked_tree(words)
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        os.unlink(os.path.join(d, "spbtree.json"))
        salv, report = salvage_tree(
            d,
            EditDistance(),
            serializer=StringSerializer(),
            page_size=PAGE,
            checksums=True,
        )
        assert not report.used_catalog
        assert report.records_recovered == len(words)
        assert sorted(salv.objects()) == sorted(words)
        assert "pivot table re-selected" in " ".join(report.notes)

    def test_metric_mismatch_rejected(self, words, tmp_path):
        tree = _checked_tree(words)
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        with pytest.raises(ValueError, match="metric"):
            salvage_tree(d, EuclideanDistance())

    def test_nothing_recoverable_raises(self, tmp_path):
        d = str(tmp_path / "empty")
        os.makedirs(d)
        with pytest.raises(ValueError, match="nothing to rebuild"):
            salvage_tree(d, EditDistance(), serializer=StringSerializer())

    def test_salvaged_tree_persists(self, words, tmp_path):
        tree = _checked_tree(words)
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        self._corrupt_raf_pages(d, (2,))
        salv, _ = salvage_tree(d, EditDistance())
        out = str(tmp_path / "rescued")
        save_tree(salv, out)
        reopened = load_tree(out, EditDistance())
        assert len(reopened) == len(salv)
        assert reopened.verify().ok


class TestCLI:
    def test_build_verify_salvage_end_to_end(self, tmp_path, capsys):
        d = str(tmp_path / "idx")
        cli.main(["build", "--dataset", "words", "--size", "150", "--out", d])
        cli.main(["verify", "--dir", d])
        out = capsys.readouterr().out
        assert "verify: OK" in out

        # damage the RAF payload; the digest check makes verify refuse to load
        with open(os.path.join(d, "spbtree.json")) as fh:
            raf_file = os.path.join(d, json.load(fh)["files"]["raf"])
        with open(raf_file, "r+b") as fh:
            fh.seek(40)
            fh.write(b"\xff" * 200)
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["verify", "--dir", d])
        assert exc_info.value.code == 1
        out = capsys.readouterr().out
        assert "salvage" in out  # points the user at the rescue path

        rescued = str(tmp_path / "rescued")
        cli.main(["salvage", "--dir", d, "--out", rescued])
        out = capsys.readouterr().out
        assert "records recovered" in out
        tree = load_tree(rescued, EditDistance())
        assert len(tree) > 0
        assert tree.verify().ok

    def test_verify_fast_skips_object_checks(self, tmp_path, capsys):
        d = str(tmp_path / "idx")
        cli.main(["build", "--dataset", "words", "--size", "80", "--out", d])
        cli.main(["verify", "--dir", d, "--fast"])
        assert "verify: OK" in capsys.readouterr().out

    def test_metric_override_and_unknown_metric(self, tmp_path, capsys):
        d = str(tmp_path / "idx")
        cli.main(["build", "--dataset", "words", "--size", "80", "--out", d])
        cli.main(["verify", "--dir", d, "--metric", "edit"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli.main(["verify", "--dir", d, "--metric", "wavelet"])


class TestSalvageWal:
    """Salvage replays a surviving write-ahead log over the recovered base."""

    def _walled_dir(self, words, tmp_path):
        from repro.core.persist import open_tree

        tree = _checked_tree(words)
        d = str(tmp_path / "idx")
        save_tree(tree, d)
        live = open_tree(d, EditDistance())
        live.insert("zzyzx")
        live.insert("syzygy")
        assert live.delete(words[4])
        expected = sorted(obj for _, _, obj in live.raf.scan())
        return d, live, expected

    def test_wal_mutations_survive_salvage(self, words, tmp_path):
        d, live, expected = self._walled_dir(words, tmp_path)
        live.wal.close()
        salv, report = salvage_tree(d, EditDistance())
        assert report.used_wal
        assert sorted(salv.objects()) == expected
        assert report.records_recovered == len(expected)
        assert salv.verify().ok

    def test_wal_plus_page_damage(self, words, tmp_path):
        """Corrupt base pages AND keep the log: salvage merges what survives
        of the base with the logged mutations."""
        d, live, _ = self._walled_dir(words, tmp_path)
        live.wal.close()
        with open(os.path.join(d, "spbtree.json")) as fh:
            meta = json.load(fh)
        raf_file = os.path.join(d, meta["files"]["raf"])
        with open(raf_file, "r+b") as fh:
            fh.seek(2 * (PAGE + 4) + 16)
            fh.write(b"\xde\xad" * 64)
        salv, report = salvage_tree(d, EditDistance())
        assert report.used_wal
        recovered = set(salv.objects())
        assert {"zzyzx", "syzygy"} <= recovered  # logged inserts survive
        assert words[4] not in recovered  # logged delete still applies
        assert report.records_lost > 0  # the damage did cost base records

    def test_stale_wal_not_double_applied(self, words, tmp_path):
        d, live, expected = self._walled_dir(words, tmp_path)
        # The checkpoint-crash window: new generation committed, old log left.
        save_tree(live, d)
        live.wal.close()
        salv, report = salvage_tree(d, EditDistance())
        assert not report.used_wal
        assert any("ignored" in note for note in report.notes)
        assert sorted(salv.objects()) == expected


class TestVerifySalvageAgree:
    """verify() and salvage read the RAF with the same walk, so one damaged
    page costs both the same records."""

    def test_each_damaged_page_costs_both_the_same_records(self, words, tmp_path):
        tree = _checked_tree(words)
        clean = str(tmp_path / "clean")
        save_tree(tree, clean)
        with open(os.path.join(clean, "spbtree.json")) as fh:
            files = json.load(fh)["files"]
        stored = {offset: obj for offset, _, obj in tree.raf.scan()}
        starts = sorted(stored)
        tail_page = (tree.raf._end_offset - len(tree.raf._tail)) // PAGE
        assert tree.raf._tail and tail_page == tree.raf.num_pages - 1
        for page in range(tree.raf.num_pages):
            d = str(tmp_path / f"page{page}")
            shutil.copytree(clean, d)
            # the same damage in memory (a tree with a cold pool) and on disk
            victim = load_tree(d, EditDistance())
            FaultInjector(victim.raf.pagefile).flip_bit(page, bit=PAGE * 4)
            with open(os.path.join(d, files["raf"]), "r+b") as fh:
                fh.seek(page * (PAGE + 4))
                fh.write(victim.raf.pagefile.raw_slot(page))
            # no B+-tree to mine: salvage keeps what its sequential pass read
            os.unlink(os.path.join(d, files["btree"]))

            unreadable = set()
            for error in victim.verify().errors:
                match = re.match(r"record (header )?at offset (\d+)", error)
                if match and match.group(1):  # unframeable from here on
                    offset = int(match.group(2))
                    unreadable.update(s for s in starts if s >= offset)
                elif match:
                    unreadable.add(int(match.group(2)))
            salvaged, _ = salvage_tree(d, EditDistance())
            lost = Counter(words) - Counter(salvaged.objects())
            assert unreadable, page
            if page == tail_page:  # salvage reads the catalog's copy instead
                assert not lost
                continue
            assert Counter(stored[offset] for offset in unreadable) == lost, page


#: Every catalog field salvage reads, with the JSON type it must have.
_CATALOG_TYPES = {
    "metric_name": str, "serializer": str, "curve": str, "page_size": int,
    "cache_pages": int, "generation": int, "checksums": bool,
    "d_plus": float, "delta": float, "pivots": list, "files": dict,
    "files.btree": str, "files.raf": str, "raf": dict, "raf.end_offset": int,
    "raf.tail": str, "raf.deleted": list,
}  # fmt: skip


class TestSalvageMistypedCatalog:
    """Salvage is the tolerant reader: a catalog field of the wrong JSON
    type is treated as absent and noted, never a traceback."""

    @pytest.mark.parametrize(
        "name, value",
        [
            (name, value)
            for name, kind in _CATALOG_TYPES.items()
            for value in (None, [], "x")
            if not isinstance(value, kind)
        ],
    )
    def test_mistyped_field_counts_as_absent(self, words, tmp_path, name, value):
        d = str(tmp_path / "idx")
        save_tree(_checked_tree(words), d)
        path = os.path.join(d, "spbtree.json")
        with open(path) as fh:
            meta = json.load(fh)
        *section, key = name.split(".")
        (meta[section[0]] if section else meta)[key] = value
        with open(path, "w") as fh:
            json.dump(meta, fh)
        salvaged, report = salvage_tree(
            d, EditDistance(), serializer=StringSerializer(),
            page_size=PAGE, checksums=True,
        )
        assert f"catalog field {name!r}" in " ".join(report.notes)
        assert report.records_recovered == len(words)
        assert sorted(salvaged.objects()) == sorted(words)

    def test_cli_salvage_of_a_null_raf_section(self, words, tmp_path, capsys):
        d = str(tmp_path / "idx")
        save_tree(_checked_tree(words), d)
        path = os.path.join(d, "spbtree.json")
        with open(path) as fh:
            meta = json.load(fh)
        meta["raf"] = None
        with open(path, "w") as fh:
            json.dump(meta, fh)
        cli.main(["salvage", "--dir", d, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert f"{len(words)} records recovered" in out
        assert "catalog field 'raf' is a NoneType" in out
