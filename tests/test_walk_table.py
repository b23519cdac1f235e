"""Walk tables: the flat prune of a treelet vs a plain top-down walk.

A treelet's walk table (:meth:`~repro.bat.file.BATFile.walk_tables`)
lets the read core test every node of a treelet in one numpy pass. That
equals a top-down walk only where child boxes and bitmaps nest inside
their parents', so the tests here cover the other side: a hand-tampered
treelet that does not nest, the core's node counters against a level
walk written out in plain Python, and the table's life as a resident of
the decoded-column tier (tight budgets, cache-less handles, concurrent
readers). The batched build is pinned byte for byte to the per-treelet
one in ``tests/reference_walk_table.py``, and a child link that leaves
its treelet is an integrity error.
"""

import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.bat.file as bat_file
from repro import QueryRequest
from repro.bat import AttributeFilter, BATFile, build_bat
from repro.bat.builder import BATBuildConfig
from repro.bat.filecache import BATFileCache
from repro.bat.format import shallow_inner_dtype, treelet_header_dtype, treelet_node_dtype
from repro.bat.query import (
    QueryStats,
    quality_to_depth,
    query_file,
    stream_query_file,
)
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.errors import IntegrityError
from repro.machines import testing_machine
from repro.types import Box, ParticleBatch
from tests.reference_query import query_file_recursive
from tests.reference_walk_table import build_walk_table
from tests.test_colcache import _digest, _until
from tests.test_pipeline import make_rank_data
from tests.test_query_engines import (
    assert_same_result,
    boxes,
    filter_sets,
    ladders,
    quality_pairs,
    reassemble,
)

N = 12_000

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(5)
    pos = rng.random((N, 3)).astype(np.float32)
    return ParticleBatch(pos, {"density": rng.random(N), "vel": rng.normal(0, 5, N)})


@pytest.fixture(scope="module")
def image(batch):
    """A v2 image: raw node records, no checksum to trip over an edit."""
    return build_bat(batch, BATBuildConfig(checksums=False)).data


@pytest.fixture(scope="module")
def bat(image):
    with BATFile.from_bytes(image) as f:
        yield f


@pytest.fixture(scope="module")
def v4_image(batch):
    return build_bat(batch, BATBuildConfig(codecs="auto")).data


def tampered(image: bytes, leaf: int, edit) -> BATFile:
    """Reopen ``image`` after ``edit(nodes)`` rewrote one treelet's records."""
    return BATFile.from_bytes(tamper_treelet(image, leaf, edit))


def tamper_treelet(image: bytes, leaf: int, edit) -> bytes:
    buf = bytearray(image)
    with BATFile.from_bytes(image) as f:
        off = int(f.shallow_leaves[leaf]["treelet_offset"]) + treelet_header_dtype().itemsize
        n_nodes = len(f.treelet(leaf).nodes)
        node_dt = treelet_node_dtype(f.header.n_attrs)
    edit(np.frombuffer(buf, dtype=node_dt, count=n_nodes, offset=off))
    return bytes(buf)


def tamper_shallow(image: bytes, edit) -> bytes:
    """``image`` after ``edit(inner)`` rewrote the shallow inner records."""
    buf = bytearray(image)
    with BATFile.from_bytes(image) as f:
        h = f.header
    edit(np.frombuffer(
        buf, dtype=shallow_inner_dtype(h.n_attrs), count=h.n_shallow_inner,
        offset=h.shallow_inner_offset,
    ))
    return bytes(buf)


def assert_reads_like_the_recursive_walk(f, **kw):
    r1, s1 = query_file_recursive(f, **kw)
    r2, s2 = query_file(f, **kw)
    assert_same_result(r1, s1, r2, s2)
    return s2


class TestTreeletsThatDoNotNest:
    """(a) files come from disk: the flat test must not assume nesting."""

    def test_builder_output_nests(self, bat):
        assert all(t["nests"][0] for t in bat.walk_tables(range(bat.n_treelets)))

    def test_split_outside_the_parent_box(self, image, bat):
        table = bat.walk_tables([0])[0]
        leaf_hi = table["hi"][0]
        # an inner node whose box stops short of the leaf box along its own
        # split axis: pushing its split past its box makes its left child
        # reach where the node itself does not
        nodes = bat.treelet(0).nodes
        victim = next(
            i for i in range(1, len(nodes))
            if nodes[i]["axis"] >= 0
            and table["hi"][i][nodes[i]["axis"]] < leaf_hi[nodes[i]["axis"]] - 0.05
        )
        ax = int(nodes[victim]["axis"])
        edge = float(table["hi"][victim][ax])

        def edit(recs):
            recs[victim]["split"] = edge + 0.04

        with tampered(image, 0, edit) as f:
            assert not f.walk_tables([0])[0]["nests"][0]
            # a box the left child's widened box meets and the victim's misses
            lo, hi = table["lo"][victim].copy(), table["hi"][victim].copy()
            lo[ax], hi[ax] = edge + 0.01, edge + 0.03
            probe = Box(tuple(lo), tuple(hi))
            for box in (probe, Box((0.1,) * 3, (0.8,) * 3), None):
                for q in (0.3, 1.0):
                    assert_reads_like_the_recursive_walk(f, quality=q, box=box)
            # the probe is the case a nesting-blind flat test gets wrong
            left = int(nodes[victim]["left"])
            wt = f.walk_tables([0])[0]
            qlo, qhi = np.asarray(probe.lower), np.asarray(probe.upper)
            meets = np.all((wt["lo"] <= qhi) & (wt["hi"] >= qlo), axis=1)
            assert meets[left] and not meets[victim]

    def test_child_bitmap_outside_the_parent_bitmap(self, image, bat):
        nodes = bat.treelet(0).nodes
        victim = next(i for i in range(1, len(nodes)) if nodes[i]["axis"] >= 0)

        def edit(recs):
            recs[victim]["bitmap_ids"][0] = 0  # id 0 is the empty bitmap

        with tampered(image, 0, edit) as f:
            assert not f.walk_tables([0])[0]["nests"][0]
            filt = (AttributeFilter("density", 0.2, 0.9),)
            s = assert_reads_like_the_recursive_walk(f, quality=1.0, filters=filt)
            clean = query_file(bat, quality=1.0, filters=filt)[1]
            # the victim's subtree is gone for the walk and the table alike
            assert s.points_tested < clean.points_tested
            assert_reads_like_the_recursive_walk(
                f, quality=0.6, box=Box((0.0,) * 3, (0.7,) * 3), filters=filt
            )

    def test_bitmap_id_outside_the_dictionary_never_prunes(self, image, bat):
        def edit(recs):
            recs[1]["bitmap_ids"][0] = 0xFFFF

        assert len(bat.dictionary) < 0xFFFF
        with tampered(image, 0, edit) as f:
            filt = (AttributeFilter("density", 0.2, 0.9),)
            got, _ = query_file(f, quality=1.0, filters=filt)
            want, _ = query_file(bat, quality=1.0, filters=filt)
            assert got.positions.tobytes() == want.positions.tobytes()


# -- (b) node counters vs a level walk written out from tv.nodes -------------------


def _query_bitmaps(bat, filters):
    """Per filter, ``(attribute index, query bitmap)``: each filter prunes
    with its own bitmap, two on one attribute as well, as in the read."""
    return tuple(
        (bat.attr_index(f.name), int(bat.binnings[f.name].query(f.lo, f.hi))) for f in filters
    )


def _outcome(bat, box, qbitmaps, node_box, bitmap_ids):
    if box is not None and not node_box.intersects(box):
        return "spatial"
    if any(bat.bitmap(int(bitmap_ids[a])) & q == 0 for a, q in qbitmaps):
        return "bitmap"
    return "kept"


def _shallow_walk(bat, box, qbitmaps):
    """``(outcomes of every shallow node visited, surviving leaves)``."""
    outcomes, leaves = [], []
    stack = [bat.root()]
    while stack:
        idx, is_leaf = stack.pop()
        rec = (bat.shallow_leaves if is_leaf else bat.shallow_inner)[idx]
        node_box = bat.leaf_box(idx) if is_leaf else bat.inner_box(idx)
        outcomes.append(_outcome(bat, box, qbitmaps, node_box, rec["bitmap_ids"]))
        if outcomes[-1] == "kept":
            if is_leaf:
                leaves.append(idx)
            else:
                stack.extend(bat.children(idx))
    return outcomes, leaves


def _treelet_walk(bat, leaf, box, qbitmaps):
    """``(depth, outcome)`` of every node a top-down walk of the treelet visits."""
    nodes = bat.treelet(leaf).nodes
    visited = []
    stack = [(0, bat.leaf_box(leaf), 0)]
    while stack:
        nid, node_box, depth = stack.pop()
        rec = nodes[nid]
        outcome = _outcome(bat, box, qbitmaps, node_box, rec["bitmap_ids"])
        visited.append((depth, outcome))
        if outcome == "kept" and rec["axis"] >= 0:
            left, right = node_box.split(int(rec["axis"]), float(rec["split"]))
            stack.append((int(rec["right"]), right, depth + 1))
            stack.append((int(rec["left"]), left, depth + 1))
    return visited


class _LevelWalkCounter:
    """The node counters a rung-by-rung read must show, from plain walks.

    Pruning is quality independent, so each treelet is walked once in
    full; a window then counts the visited nodes no deeper than the
    deepest ``floor(e_hi)`` so far. A treelet emitted whole counts as one
    more node and is never looked at again.
    """

    def __init__(self, bat, box, filters, quality):
        self.bat, self.box, self.filters = bat, box, tuple(filters)
        qbitmaps = _query_bitmaps(bat, filters)
        # the read prologue proves some requests empty without any walk
        self.live = not (
            quality_to_depth(quality, bat.max_treelet_depth) == 0.0
            or any(q == 0 for _, q in qbitmaps)
            or (box is not None and not bat.bounds.intersects(box))
        )
        self.shallow, leaves = _shallow_walk(bat, box, qbitmaps) if self.live else ([], [])
        self.treelets = {t: _treelet_walk(bat, t, box, qbitmaps) for t in leaves}
        self.whole: set[int] = set()
        self.reach = -1

    def window(self, e_lo, e_hi):
        for t in self.treelets:
            if (
                t not in self.whole and not self.filters and e_lo == 0.0
                and e_hi >= self.bat.treelet(t).max_depth + 1
                and (self.box is None or self.box.contains_box(self.bat.leaf_box(t)))
            ):
                self.whole.add(t)
                # what earlier windows counted stays counted; the whole
                # emit adds one node and nothing is counted afterwards
                counted = [(-1, o) for d, o in self.treelets[t] if d <= self.reach]
                self.treelets[t] = [*counted, (-1, "kept")]
        self.reach = max(self.reach, math.floor(e_hi))

    def counters(self):
        seen = list(self.shallow)
        for visited in self.treelets.values():
            seen += [outcome for depth, outcome in visited if depth <= self.reach]
        return (len(seen), seen.count("spatial"), seen.count("bitmap"))


def _core_counters(stats):
    return (stats.nodes_visited, stats.pruned_spatial, stats.pruned_bitmap)


class TestNodeCounters:
    @SETTINGS
    @given(box=boxes(), filters=filter_sets(), qs=quality_pairs())
    def test_one_shot_window(self, bat, box, filters, qs):
        q0, q1 = qs
        _, stats = query_file(bat, quality=q1, prev_quality=q0, box=box, filters=filters)
        want = _LevelWalkCounter(bat, box, filters, q1)
        if want.live:
            depth = bat.max_treelet_depth
            want.window(quality_to_depth(q0, depth), quality_to_depth(q1, depth))
        assert _core_counters(stats) == want.counters()

    @SETTINGS
    @given(box=boxes(), filters=filter_sets(), data=st.data())
    def test_every_rung_of_a_ladder(self, bat, box, filters, data):
        q0, q1 = data.draw(quality_pairs())
        ladder = data.draw(ladders(q0, q1))
        stats = QueryStats()
        want = _LevelWalkCounter(bat, box, filters, ladder[-1])
        depth = bat.max_treelet_depth
        for inc in stream_query_file(bat, ladder, q0, box=box, filters=filters, stats=stats):
            if want.live:
                want.window(
                    quality_to_depth(inc.prev_quality, depth),
                    quality_to_depth(inc.quality, depth),
                )
            assert _core_counters(stats) == want.counters()


# -- (d) one file, treelets of every kind ---------------------------------------------


def _expected(f, box, filters, q0, rungs, quality) -> QueryStats:
    """All ten counters a read of ``q0 → quality`` must show after the
    windows ``q0 → rungs[0] → ...``, from the references.

    Points come from the recursive walk, one window at a time (a window's
    points are the recursive read of exactly that window); treelets are
    counted up front, for the whole range; node and prune counters come
    from the plain top-down walks of :class:`_LevelWalkCounter`.
    """
    kw = dict(box=box, filters=filters)
    counter = _LevelWalkCounter(f, box, filters, quality)
    depth = f.max_treelet_depth
    tested = returned = 0
    for lo, hi in zip([q0, *rungs], rungs):
        _, s = query_file_recursive(f, quality=hi, prev_quality=lo, **kw)
        tested += s.points_tested
        returned += s.points_returned
        if counter.live:
            counter.window(quality_to_depth(lo, depth), quality_to_depth(hi, depth))
    nodes, spatial, bitmap = counter.counters()
    _, whole = query_file_recursive(f, quality=quality, prev_quality=q0, **kw)
    return QueryStats(
        treelets_visited=whole.treelets_visited, nodes_visited=nodes,
        points_tested=tested, points_returned=returned, pruned_spatial=spatial,
        pruned_bitmap=bitmap, files_opened=1,
    )


def assert_like_the_references(f, box, filters, q0, ladder):
    """A one-shot read and every rung of a streamed one, bytes and all ten
    :class:`QueryStats` fields, against the recursive walk."""
    kw = dict(box=box, filters=filters)
    q1 = ladder[-1]
    want, want_stats = query_file_recursive(f, quality=q1, prev_quality=q0, **kw)
    got, stats = query_file(f, quality=q1, prev_quality=q0, **kw)
    assert_same_result(want, want_stats, got, stats)
    assert stats == _expected(f, box, filters, q0, [q1], q1)

    stats, incs = QueryStats(), []
    for k, inc in enumerate(stream_query_file(f, ladder, q0, stats=stats, **kw)):
        incs.append(inc)
        assert stats == _expected(f, box, filters, q0, ladder[: k + 1], q1)
        # the increments so far are the direct read up to this rung
        direct, _ = query_file_recursive(f, quality=inc.quality, prev_quality=q0, **kw)
        pos, attrs = reassemble(incs)
        assert pos.tobytes() == direct.positions.tobytes()
        for name, arr in attrs.items():
            assert arr.tobytes() == direct.attributes[name].tobytes()


def _leaf_cube(f, leaf, margin):
    box = f.leaf_box(leaf)
    return Box(
        tuple(max(v - margin, 0.0) for v in box.lower),
        tuple(min(v + margin, 1.0) for v in box.upper),
    )


class TestTreeletsOfEveryKindInOneFile:
    @SETTINGS
    @given(leaf=st.integers(0, 7), margin=st.floats(0.01, 0.3), data=st.data())
    def test_whole_and_walked_treelets(self, bat, leaf, margin, data):
        """A box around one leaf: that treelet is emitted whole, the ones it
        cuts are walked, all in one file read."""
        box = _leaf_cube(bat, leaf, margin)
        survivors = [t for t in range(bat.n_treelets) if bat.leaf_box(t).intersects(box)]
        whole = [t for t in survivors if box.contains_box(bat.leaf_box(t))]
        assume(len(whole) < len(survivors))
        assert_like_the_references(bat, box, (), 0.0, data.draw(ladders(0.0, 1.0)))

    @SETTINGS
    @given(box=boxes(), filters=filter_sets(), qs=quality_pairs(), data=st.data())
    def test_loose_and_nesting_treelets(self, loose_bat, box, filters, qs, data):
        """Treelets whose boxes or bitmaps do not nest beside ones that do:
        the push-down covers only the rows of the loose ones."""
        q0, q1 = qs
        assert_like_the_references(loose_bat, box, filters, q0, data.draw(ladders(q0, q1)))

    @SETTINGS
    @given(box=boxes(), filters=filter_sets(), qs=quality_pairs(), data=st.data())
    def test_shallow_tree_that_does_not_nest(self, loose_shallow_bat, box, filters, qs, data):
        q0, q1 = qs
        assert_like_the_references(
            loose_shallow_bat, box, filters, q0, data.draw(ladders(q0, q1))
        )


@pytest.fixture(scope="module")
def loose_bat(image, bat):
    """Treelets 1 and 5 tampered (a split, a bitmap), the other six intact."""
    nodes = bat.treelet(1).nodes
    table = bat.walk_tables([1])[0]
    victim = next(
        i for i in range(1, len(nodes))
        if nodes[i]["axis"] >= 0
        and table["hi"][i][nodes[i]["axis"]] < table["hi"][0][nodes[i]["axis"]] - 0.05
    )

    def widen(recs):
        ax = int(recs[victim]["axis"])
        recs[victim]["split"] = table["hi"][victim][ax] + 0.04

    def empty_bitmap(recs):
        recs[2]["bitmap_ids"][0] = 0  # id 0 is the empty bitmap

    edited = tamper_treelet(tamper_treelet(image, 1, widen), 5, empty_bitmap)
    with BATFile.from_bytes(edited) as f:
        nests = [bool(t["nests"][0]) for t in f.walk_tables(range(f.n_treelets))]
        assert nests == [t not in (1, 5) for t in range(f.n_treelets)]
        yield f


@pytest.fixture(scope="module")
def loose_shallow_bat(image, bat):
    """A shallow tree that does not nest: below the root, one inner node's
    box shrunk to its lower half along x, another's first bitmap emptied."""
    assert bat.header.n_shallow_inner > 2

    def edit(recs):
        bb = recs[1]["bbox"]
        bb[3] = (bb[0] + bb[3]) / 2
        recs[2]["bitmap_ids"][0] = 0  # id 0 is the empty bitmap

    with BATFile.from_bytes(tamper_shallow(image, edit)) as f:
        assert not f.shallow_table()["nests"][0]
        yield f


@pytest.fixture
def count_builds(monkeypatch):
    """Every treelet a walk-table build covers, one entry per table built."""
    calls = []
    lock = threading.Lock()
    build = bat_file.build_walk_tables

    def counting(leaves, *args):
        with lock:
            calls.extend(leaves)
        return build(leaves, *args)

    monkeypatch.setattr(bat_file, "build_walk_tables", counting)
    return calls


WALKED = dict(quality=0.7, box=Box((0.05,) * 3, (0.9,) * 3))


def _tables(cache, kind=bat_file.WALK_TABLE_SLOT):
    return [arr for key, arr in cache.column_cache._entries.items() if key[2] == kind]


class TestTableRetention:
    def test_budget_too_small_for_tables_and_columns(self, v4_image, tmp_path, count_builds):
        path = tmp_path / "a.bat"
        path.write_bytes(v4_image)
        with BATFile(path) as plain:
            want, _ = query_file(plain, **WALKED)
            n_treelets = plain.n_treelets
            table_bytes = plain.walk_tables([0])[0].nbytes
        del count_builds[:]
        # room for a few columns or tables at a time, never for all of them
        budget = 6 * table_bytes
        with BATFileCache(capacity=4, column_cache_bytes=budget) as cache:
            f = cache.get(path)
            for _ in range(3):
                got, _ = query_file(f, **WALKED)
                assert _digest(got) == _digest(want)
                assert cache.column_cache.nbytes <= budget
            assert cache.column_cache.stats()["evictions"] > 0
            # evicted tables are rebuilt, never kept on the handle on the side
            assert len(count_builds) > n_treelets
            assert f._memo == {}

    def test_tables_are_charged_to_the_budget(self, v4_image, tmp_path):
        path = tmp_path / "a.bat"
        path.write_bytes(v4_image)
        with BATFileCache(capacity=4) as cache:
            f = cache.get(path)
            query_file(f, **WALKED)
            tables = _tables(cache)
            assert len(tables) == f.n_treelets
            assert cache.column_cache.nbytes >= sum(t.nbytes for t in tables)
            # built in one batch, yet each table owns its memory: a cached
            # table's nbytes is exactly what it pins
            assert all(t.base is None and t.flags.owndata for t in tables)
            decoded = f.decoded_bytes
            query_file(f, **WALKED)
            assert f.decoded_bytes == decoded  # a table is not codec work

    @pytest.mark.parametrize("which", ["image", "v4_image"])
    def test_cacheless_handle_builds_each_table_once(self, which, request, tmp_path, count_builds):
        path = tmp_path / "a.bat"
        path.write_bytes(request.getfixturevalue(which))
        with BATFile(path) as f:
            first, _ = query_file(f, **WALKED)
            assert sorted(count_builds) == list(range(f.n_treelets))
            for _ in range(2):
                query_file(f, quality=1.0, prev_quality=0.7, box=WALKED["box"])
                list(stream_query_file(f, (0.2, 0.7), box=WALKED["box"]))
            assert sorted(count_builds) == list(range(f.n_treelets))
            assert _digest(query_file(f, **WALKED)[0]) == _digest(first)

    def test_threads_with_overlapping_survivors_build_each_table_once(
        self, v4_image, tmp_path, monkeypatch
    ):
        """The batched miss path is single-flight per table: threads asking
        for overlapping survivor sets while the first build is held wait
        for the tables it claimed and build only the rest."""
        path = tmp_path / "a.bat"
        path.write_bytes(v4_image)
        built, lock = [], threading.Lock()
        entered, release = threading.Event(), threading.Event()
        build = bat_file.build_walk_tables

        def held(leaves, *args):
            with lock:
                first = not built
                built.extend(leaves)
            if first:
                entered.set()
                assert release.wait(10.0)
            return build(leaves, *args)

        monkeypatch.setattr(bat_file, "build_walk_tables", held)
        sets = [[0, 1, 2, 3], [2, 3, 4, 5], [3, 4, 5, 6, 7], list(range(8))]
        with BATFileCache(capacity=4) as cache:
            f = cache.get(path)
            assert f.n_treelets == 8
            got = [None] * len(sets)

            def run(i):
                got[i] = f.walk_tables(sets[i])

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(sets))]
            threads[0].start()
            assert entered.wait(10.0)
            for t in threads[1:]:
                t.start()
            # every later set waits on at least the tables set 0 holds
            _until(lambda: cache.column_cache.stats()["joins"] >= 7, "the joins")
            release.set()
            for t in threads:
                t.join(10.0)
                assert not t.is_alive(), "a walk-table waiter hung"
            assert sorted(built) == list(range(8))
            for leaves, tables in zip(sets, got):
                for leaf, table in zip(leaves, tables):
                    assert table is cache.column_cache.peek(f.cache_key, leaf, -1)
                    want = build_walk_table(
                        f.treelet(leaf).nodes, f.shallow_leaves["bbox"][leaf],
                        f.dictionary, f.max_treelet_depth + 2,
                    )
                    assert table.tobytes() == want.tobytes()


# -- (e) the batched build against the per-treelet reference ---------------------------


@st.composite
def treelets(draw, n_attrs=2, max_depth=5):
    """Node records of one random treelet in pre-order: any depth from a
    lone root down, axes and splits anywhere (boxes need not nest), bitmap
    ids in and beyond a 16-entry dictionary."""
    recs = []
    node_ids = st.lists(st.integers(0, 20), min_size=n_attrs, max_size=n_attrs)

    def node(depth):
        i = len(recs)
        recs.append(None)
        rec = dict(
            axis=-1, depth=depth, split=0.0, left=-1, right=-1,
            begin=draw(st.integers(0, 50)), count=draw(st.integers(0, 50)),
            bitmap_ids=draw(node_ids),
        )
        if depth < max_depth and draw(st.booleans()):
            rec["axis"] = draw(st.integers(0, 2))
            rec["split"] = draw(st.floats(-0.5, 1.5, width=32))
            rec["left"] = node(depth + 1)
            rec["right"] = node(depth + 1)
        recs[i] = rec
        return i

    node(0)
    out = np.zeros(len(recs), dtype=treelet_node_dtype(n_attrs))
    for i, rec in enumerate(recs):
        for key, value in rec.items():
            out[i][key] = value
    return out


DICTIONARY = np.random.default_rng(3).integers(0, 2**32, 16, dtype=np.uint32)


def assert_like_the_reference(leaves, nodes, bboxes, dictionary, levels):
    tables = bat_file.build_walk_tables(leaves, nodes, bboxes, dictionary, levels)
    assert len(tables) == len(nodes)
    for recs, bbox, table in zip(nodes, bboxes, tables):
        want = build_walk_table(recs, bbox, dictionary, levels)
        assert table.dtype == want.dtype
        assert table.tobytes() == want.tobytes()
        assert table.flags.owndata


class TestBatchedBuildEqualsTheReference:
    @SETTINGS
    @given(
        forest=st.lists(treelets(), min_size=1, max_size=6),
        levels=st.integers(1, 8),
        data=st.data(),
    )
    def test_random_treelets_of_mixed_depths(self, forest, levels, data):
        boxes = data.draw(st.lists(
            st.lists(st.floats(-1.0, 2.0), min_size=6, max_size=6),
            min_size=len(forest), max_size=len(forest),
        ))
        assert_like_the_reference(
            list(range(len(forest))), forest, np.asarray(boxes), DICTIONARY, levels
        )

    def test_one_node_treelets(self):
        lone = np.zeros(1, dtype=treelet_node_dtype(2))
        lone["axis"] = -1
        lone["count"] = 7
        bboxes = np.array([[0, 0, 0, 1, 1, 1], [0.5, 0, 0, 1, 0.5, 1]], dtype=np.float64)
        assert_like_the_reference([4, 9], [lone, lone.copy()], bboxes, DICTIONARY, 3)

    @SETTINGS
    @given(subset=st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True))
    def test_survivor_subsets_of_a_written_file(self, image, subset):
        with BATFile.from_bytes(image) as f:
            nodes = [f.treelet(t).nodes for t in subset]
            bboxes = f.shallow_leaves["bbox"][subset]
            assert_like_the_reference(
                subset, nodes, bboxes, f.dictionary, f.max_treelet_depth + 2
            )
            for t, table in zip(subset, f.walk_tables(subset)):
                want = build_walk_table(
                    f.treelet(t).nodes, bboxes[subset.index(t)], f.dictionary,
                    f.max_treelet_depth + 2,
                )
                assert table.tobytes() == want.tobytes()

    @pytest.mark.parametrize("edit", ["split", "bitmap", "dictionary"])
    def test_treelets_that_do_not_nest(self, image, bat, edit):
        """The three tamperings of :class:`TestTreeletsThatDoNotNest`, in a
        batch beside intact treelets."""
        nodes = bat.treelet(0).nodes
        table = bat.walk_tables([0])[0]
        victim = next(
            i for i in range(1, len(nodes))
            if nodes[i]["axis"] >= 0
            and table["hi"][i][nodes[i]["axis"]] < table["hi"][0][nodes[i]["axis"]] - 0.05
        )

        def tamper(recs):
            if edit == "split":
                recs[victim]["split"] = table["hi"][victim][int(recs[victim]["axis"])] + 0.04
            elif edit == "bitmap":
                recs[victim]["bitmap_ids"][0] = 0
            else:
                recs[1]["bitmap_ids"][0] = 0xFFFF

        with tampered(image, 0, tamper) as f:
            leaves = [3, 0, 6]
            nodes = [f.treelet(t).nodes for t in leaves]
            assert_like_the_reference(
                leaves, nodes, f.shallow_leaves["bbox"][leaves], f.dictionary,
                f.max_treelet_depth + 2,
            )
            if edit != "dictionary":
                assert not f.walk_tables([0])[0]["nests"][0]


# -- (f) child links that leave the treelet ---------------------------------------------


def _bad_link_image(image: bytes, link) -> bytes:
    """``image`` with treelet 0's root linking its left child to ``link``
    (``"n_nodes"``: one past the last node)."""

    def edit(recs):
        assert recs[0]["axis"] >= 0
        recs[0]["left"] = len(recs) if link == "n_nodes" else link

    return tamper_treelet(image, 0, edit)


class TestChildLinksOutsideTheTreelet:
    """A flipped link in a v2 file (no CRC to catch it) is an integrity
    error, like every other damage a read can trip over."""

    @pytest.mark.parametrize("link", [-7, "n_nodes"])
    def test_query_file_raises_integrity_error(self, image, link):
        with BATFile.from_bytes(_bad_link_image(image, link), name="bad.bat") as f:
            with pytest.raises(IntegrityError, match="child link") as err:
                query_file(f, **WALKED)
        assert err.value.section == "treelet 0"
        assert err.value.path == "bad.bat"

    def test_treelet_without_nodes_raises_integrity_error(self, image):
        buf = bytearray(image)
        with BATFile.from_bytes(image) as f:
            off = int(f.shallow_leaves[0]["treelet_offset"])
        buf[off : off + 4] = bytes(4)  # the treelet header's n_nodes
        with BATFile.from_bytes(bytes(buf)) as f:
            with pytest.raises(IntegrityError, match="no nodes") as err:
                query_file(f, **WALKED)
        assert err.value.section == "treelet 0"

    @pytest.mark.parametrize("link", [-7, "n_nodes"])
    def test_degraded_dataset_read_quarantines_the_file(self, tmp_path, link):
        data = make_rank_data(nranks=4, seed=3)
        writer = TwoPhaseWriter(
            testing_machine(), target_size=64 * 1024,
            bat_config=BATBuildConfig(checksums=False),
        )
        report = writer.write(data, out_dir=tmp_path, name="v2")
        with BATDataset(report.metadata_path) as ds:
            assert ds.n_files > 1
            req = QueryRequest(quality=0.7)
            full, _ = ds.query(req)
            victim = tmp_path / ds.metadata.leaves[0].file_name
            victim.write_bytes(_bad_link_image(victim.read_bytes(), link))
            ds.file_cache.close()  # reopen the edited file
            with pytest.raises(IntegrityError):
                ds.query(req)
            part, stats = ds.query(dataclasses.replace(req, on_error="degrade"))
            assert stats.quarantined_files == 1
            assert list(ds.quarantined()) == [0]
            assert 0 < len(part) < len(full)
