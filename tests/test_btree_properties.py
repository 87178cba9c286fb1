"""Property-based tests: the B+-tree must behave like a sorted multiset."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.btree import BPlusTree
from repro.sfc import HilbertCurve, ZCurve

keys = st.integers(0, 255 * 256 + 255)  # any 2x8-bit Z value


@st.composite
def operations(draw):
    """A bulk load followed by a mixed insert/delete sequence.  About half
    of the deletes name an entry the model holds (``"delete-held"`` picks
    one by index); the rest draw any key, so most of those miss."""
    initial = sorted(
        zip(
            draw(st.lists(keys, max_size=60)),
            range(1000),
        )
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "insert", "delete", "delete-held"]),
                keys,
            ),
            max_size=40,
        )
    )
    return initial, ops


@st.composite
def churn(draw):
    """A bulk load, then inserts and deletes of entries the tree holds
    (a delete picks one by index), enough of them to empty leaves."""
    initial = sorted(zip(draw(st.lists(keys, min_size=10, max_size=60)), range(1000)))
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["insert", "delete", "delete"]), keys),
            max_size=80,
        )
    )
    return initial, ops


class TestAgainstModel:
    @given(operations())
    @settings(max_examples=60, deadline=None)
    def test_matches_sorted_list_model(self, scenario):
        initial, ops = scenario
        tree = BPlusTree(ZCurve(2, 8), page_size=128)
        tree.bulk_load(initial)
        model = list(initial)
        next_ptr = 10_000
        for op, key in ops:
            if op == "insert":
                tree.insert(key, next_ptr)
                model.append((key, next_ptr))
                next_ptr += 1
            elif op == "delete-held" and model:
                held = model[key % len(model)]
                assert tree.delete(*held)
                model.remove(held)
            else:
                candidates = [p for k, p in model if k == key]
                if candidates:
                    assert tree.delete(key, candidates[0])
                    model.remove((key, candidates[0]))
                else:
                    assert not tree.delete(key, 0)
        model.sort(key=lambda kv: kv[0])
        got = tree.items()
        assert [k for k, _ in got] == [k for k, _ in model]
        assert sorted(got) == sorted(model)

    @pytest.mark.parametrize("curve", (ZCurve, HilbertCurve))
    @given(scenario=churn())
    @settings(max_examples=60, deadline=None)
    def test_every_entry_summarises_its_child_exactly(self, curve, scenario):
        """Inserts widen a summary by the new key's cell and deletes keep it
        when the cell left from inside: the stored MBB and routing key stay
        the ones a full recompute from the child's entries gives.  Every
        node a write leaves — a split's two halves and a new root too —
        carries its decoded arrays, and they are the ones decoding its
        entries gives."""
        initial, ops = scenario
        tree = BPlusTree(curve(2, 8), page_size=64)  # 5 per leaf, 3 per node
        tree.bulk_load(initial)
        live = list(initial)
        _check_summaries(tree)
        for n, (op, arg) in enumerate(ops):
            if op == "insert":
                tree.insert(arg, 10_000 + n)
                live.append((arg, 10_000 + n))
            elif live:
                assert tree.delete(*live.pop(arg % len(live)))
            _check_summaries(tree)

    @given(st.lists(keys, min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_insert_only_construction_equals_bulk_load(self, raw_keys):
        items = sorted((k, i) for i, k in enumerate(raw_keys))
        bulk = BPlusTree(ZCurve(2, 8), page_size=128)
        bulk.bulk_load(items)
        incremental = BPlusTree(ZCurve(2, 8), page_size=128)
        for i, k in enumerate(raw_keys):
            incremental.insert(k, i)
        assert [k for k, _ in incremental.items()] == [k for k, _ in bulk.items()]
        assert sorted(incremental.items()) == sorted(bulk.items())

    @given(st.lists(keys, min_size=1, max_size=80), keys)
    @settings(max_examples=60, deadline=None)
    def test_find_entries_complete(self, raw_keys, probe):
        items = sorted((k, i) for i, k in enumerate(raw_keys))
        tree = BPlusTree(ZCurve(2, 8), page_size=128)
        tree.bulk_load(items)
        expected = sorted(p for k, p in items if k == probe)
        assert sorted(e.ptr for e in tree.find_entries(probe)) == expected


def _check_summaries(tree: BPlusTree) -> None:
    """Check every node's carried arrays against a fresh decode of its
    entries, and each routing key and each stored MBB against them."""
    decode = tree.curve.decode_many
    stack = [tree.root_page]
    while stack:
        node = tree.read_node(stack.pop())
        assert node.arrays is not None, f"page {node.page_id} left undecoded"
        if node.is_leaf:
            cells = tree.leaf_cells(node)
            assert cells.tolist() == decode([e.key for e in node.entries]).tolist()
            continue
        lo, hi = tree.child_boxes(node)
        assert lo.tolist() == decode([e.min_sfc for e in node.entries]).tolist()
        assert hi.tolist() == decode([e.max_sfc for e in node.entries]).tolist()
        for entry in node.entries:
            child = tree.read_node(entry.child)
            if child.count:
                assert entry.key == child.min_key()
                assert tree.decode_box(entry) == tree.node_box(child)
            stack.append(entry.child)
