"""Flowline structure, validation, and timing tests.

Makespan expectations are checked against an independent oracle: exhaustive
enumeration of every entry->exit path, summing vertex and edge weights.
Random-DAG weights are dyadic rationals (k/8) so float sums are exact and
the recursion must match the oracle bit-for-bit.
"""

import heapq
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgflow.flowline import (
    Flowline,
    FlowlineError,
    NetParams,
    TaskNode,
    TaskProfile,
    apply_partition,
    finish_times,
    makespan,
    n_slices,
    validate,
)


def op(tid, function="integrate", **config):
    return TaskNode(id=tid, kind="operator",
                    config={"function": function, **config})


def model(tid, function="BertNER", kind="model-CE"):
    return TaskNode(id=tid, kind=kind, config={"function": function})


def chain_flowline(weights):
    ids = [f"t{i}" for i in range(len(weights))]
    vertices = [op(i) for i in ids]
    edges = [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
    profile = TaskProfile(dict(zip(ids, weights)))
    return Flowline.build(vertices, edges), profile


def enumerate_paths_makespan(fl, profile, delay) -> float:
    """Oracle: max over all entry->exit paths of vertex + edge weight sums."""
    best = None

    def walk(tid, acc):
        nonlocal best
        acc = acc + profile.weight(tid)
        if tid == fl.exit:
            best = acc if best is None else max(best, acc)
            return
        for nxt in fl.successors[tid]:
            walk(nxt, acc + delay.get((tid, nxt), 0.0))

    walk(fl.entry, 0.0)
    assert best is not None
    return best


def random_dag(rng, max_vertices=12):
    """Random single-entry single-exit DAG with dyadic weights."""
    n = rng.randint(3, max_vertices)
    ids = [f"t{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        for _ in range(rng.randint(1, 3)):
            edges.add((ids[rng.randrange(i)], ids[i]))
    with_out = {a for a, _ in edges}
    for i in range(1, n - 1):
        if ids[i] not in with_out:
            edges.add((ids[i], ids[n - 1]))
    fl = Flowline.build([op(t) for t in ids], sorted(edges))
    weights = {t: rng.randint(0, 100) / 8 for t in ids}
    payloads = {e: float(rng.randint(0, 4000)) for e in fl.edges}
    return fl, TaskProfile(weights, payloads)


class TestTaskFunction:
    @pytest.mark.parametrize("node, expected", [
        (TaskNode(id="b0f0", config={"function": "filter"}), "filter"),
        (TaskNode(id="merge"), "merge"),
        (TaskNode(id="filter[f_bert]", label="keep"), "filter"),
    ], ids=["config", "bare-id", "labeled-id"])
    def test_function(self, node, expected):
        assert node.function == expected

    def test_model_without_config_function_is_looked_up_by_id(self):
        ner = TaskNode(id="BertNER", label="ner", kind="model-CE")
        assert validate(Flowline.build([ner], [])).ok
        renamed = TaskNode(id="ner", label="BertNER", kind="model-CE")
        report = validate(Flowline.build([renamed], []))
        assert {v.code for v in report.violations} == {"unknown-model"}


class TestValidate:
    def test_listing_shape_flowline_ok(self):
        fl = fig5_flowline()
        report = validate(fl)
        assert report.ok, str(report)

    def test_single_vertex_ok(self):
        fl = Flowline.build([op("only")], [])
        assert validate(fl).ok

    def test_two_cycle_reported(self):
        fl = Flowline(vertices=(op("a"), op("b")),
                      edges=(("a", "b"), ("b", "a")), entry="a", exit="b")
        report = validate(fl)
        codes = {v.code for v in report.violations}
        assert "cycle" in codes

    def test_cycle_finding_names_the_tasks_on_it(self):
        # s feeds the cycle a -> b -> c -> a and t hangs off it: neither is
        # on the cycle, though the topological sort leaves t unsorted too.
        fl = Flowline(vertices=tuple(op(t) for t in "sabct"),
                      edges=(("s", "a"), ("a", "b"), ("b", "c"), ("c", "a"),
                             ("c", "t")), entry="s", exit="t")
        (cycle,) = [v for v in validate(fl).violations if v.code == "cycle"]
        assert cycle.tasks == ("a", "b", "c")

    def test_unreachable_vertex(self):
        fl = Flowline(vertices=(op("a"), op("b"), op("c"), op("d")),
                      edges=(("a", "b"), ("c", "b")), entry="a", exit="b")
        codes = {v.code for v in validate(fl).violations}
        # c has in-degree 0 alongside a; d dangles entirely
        assert "multiple-entries" in codes

    def test_dangling_edge(self):
        with pytest.raises(FlowlineError, match=re.escape("('a', 'ghost')")):
            Flowline(vertices=(op("a"), op("b")),
                     edges=(("a", "b"), ("a", "ghost")), entry="a", exit="b")

    def test_incompatible_pipe(self):
        # triple constructor needs entity_pair + relation_category; a CE model
        # supplies neither, so the direct pipe is flagged.
        fl = Flowline.build(
            [model("ner"), op("t", function="triple")], [("ner", "t")])
        report = validate(fl)
        assert any(v.code == "incompatible-pipe" for v in report.violations)

    def test_unknown_operator_flagged(self):
        fl = Flowline.build([op("a"), op("b", function="frobnicate")],
                            [("a", "b")])
        codes = {v.code for v in validate(fl).violations}
        assert "unknown-operator" in codes

    def test_zero_weight_model_warns(self):
        fl = Flowline.build([model("m"), op("o")], [("m", "o")])
        profile = TaskProfile({"m": 0.0, "o": 1.0})
        report = validate(fl, profile)
        assert report.ok
        assert any(w.code == "zero-weight-model" for w in report.warnings)

    def test_entry_mismatch_names_both_ends(self):
        fl = Flowline(vertices=(op("a"), op("b")), edges=(("a", "b"),),
                      entry="b", exit="b")
        [finding] = validate(fl).violations
        assert (finding.code, finding.detail, finding.tasks) == (
            "entry-mismatch", "declared entry 'b', found 'a'", ("b", "a"))

    def test_findings_name_their_tasks(self):
        fl = Flowline(vertices=(op("a"), op("b"), op("c", "frobnicate")),
                      edges=(("a", "c"), ("b", "c")), entry="a", exit="a")
        assert [(v.code, v.tasks) for v in validate(fl).violations] == [
            ("multiple-entries", ("a", "b")),
            ("exit-mismatch", ("a", "c")),
            ("unknown-operator", ("c",))]
        pipe = Flowline.build([model("ner"), op("t", function="triple")],
                              [("ner", "t")])
        assert [v.tasks for v in validate(pipe).violations] == [("t",)]

    def test_report_text_lists_findings_then_warnings(self):
        fl = Flowline.build([model("m"), op("o", function="frobnicate")],
                            [("m", "o")])
        report = validate(fl, TaskProfile({"m": 0.0, "o": 1.0}))
        assert str(report) == (
            "unknown-operator: task 'o': operator 'frobnicate' not registered"
            "\nwarning: zero-weight-model: model task 'm' has weight 0")
        assert str(validate(fig5_flowline())) == "ok"

    @pytest.mark.parametrize("edges, message", [
        ([], "cannot infer entry, candidates: ['a', 'b', 'c']"),
        ([("a", "b"), ("a", "c")],
         "cannot infer exit, candidates: ['b', 'c']"),
    ])
    def test_build_cannot_infer_an_end(self, edges, message):
        with pytest.raises(FlowlineError, match=re.escape(message)):
            Flowline.build([op("a"), op("b"), op("c")], edges)


class TestMakespan:
    def test_single_vertex(self):
        fl = Flowline.build([op("v")], [])
        assert makespan(fl, TaskProfile({"v": 3.0})) == 3.0

    def test_diamond(self):
        fl = Flowline.build(
            [op("e"), op("a"), op("b"), op("x")],
            [("e", "a"), ("e", "b"), ("a", "x"), ("b", "x")])
        profile = TaskProfile({"e": 1.0, "a": 2.0, "b": 5.0, "x": 1.0})
        assert makespan(fl, profile) == 7.0

    def test_two_vm_chain(self):
        fl, profile = chain_flowline([2.0, 3.0])
        profile = TaskProfile(profile.vertex_weights, {("t0", "t1"): 4000.0})
        delay = apply_partition(fl, profile, {"t0": 0, "t1": 1},
                                NetParams(latency_s=0.1, bandwidth_Bps=10000.0))
        expected = enumerate_paths_makespan(fl, profile, delay)
        assert expected == 5.5
        assert makespan(fl, profile, delay) == 5.5

    def test_matches_path_enumeration_on_random_dags(self):
        rng = random.Random(20240811)
        for _ in range(60):
            fl, profile = random_dag(rng)
            assert makespan(fl, profile) == enumerate_paths_makespan(
                fl, profile, {})
            # And under a random partition with cross-VM edge weights.
            assignment = {v.id: rng.randrange(3) for v in fl.vertices}
            delay = apply_partition(fl, profile, assignment,
                                    NetParams(0.125, 8000.0))
            assert makespan(fl, profile, delay) == enumerate_paths_makespan(
                fl, profile, delay)

    def test_monotone_in_weights(self):
        rng = random.Random(7)
        for _ in range(25):
            fl, profile = random_dag(rng, max_vertices=8)
            base = makespan(fl, profile)
            bumped_vertex = rng.choice([v.id for v in fl.vertices])
            weights = dict(profile.vertex_weights)
            weights[bumped_vertex] += 2.0
            assert makespan(fl, TaskProfile(weights)) >= base
            if fl.edges:
                bumped_edge = rng.choice(list(fl.edges))
                assert makespan(fl, profile, {bumped_edge: 1.5}) >= base


def enumerate_paths_finish(fl, duration, delay, start, after):
    """Oracle: FT(v) is the max over every path u0 -> ... -> v, starting at
    any task u0, of max(start, after[u0]) plus its durations and delays."""
    finish = {}

    def walk(tid, acc):
        acc += duration[tid]
        finish[tid] = max(finish.get(tid, acc), acc)
        for nxt in fl.successors[tid]:
            walk(nxt, acc + delay[(tid, nxt)])

    for v in fl.vertices:
        walk(v.id, max(start, after[v.id]) if after else start)
    return finish


def random_case(rng, max_vertices=9):
    """A random DAG with dyadic durations and delays on every edge."""
    fl, profile = random_dag(rng, max_vertices)
    delay = {e: rng.randint(0, 40) / 8 for e in fl.edges}
    return fl, dict(profile.vertex_weights), delay


class TestFinishTimes:
    def test_floats_match_path_enumeration(self):
        rng = random.Random(3)
        for _ in range(60):
            fl, duration, delay = random_case(rng)
            st, ft = finish_times(fl.topological_order, fl.predecessors,
                                  duration, delay)
            assert ft == enumerate_paths_finish(fl, duration, delay, 0.0,
                                                None)
            assert st == {t: ft[t] - duration[t] for t in ft}

    @staticmethod
    def rows(fl, slices, rng):
        """Random dyadic durations, row j for topological_order[j]."""
        return np.array([[rng.randint(0, 100) / 8 for _ in range(slices)]
                         for _ in fl.topological_order]).reshape(-1, slices)

    @staticmethod
    def column(fl, times, s):
        """Column s of order-aligned ``times``, keyed by task."""
        return {t: float(times[j, s])
                for j, t in enumerate(fl.topological_order)}

    def test_columns_time_each_slice_as_the_float_path(self):
        rng = random.Random(5)
        for _ in range(30):
            fl, _, delay = random_case(rng)
            slices = rng.randint(1, 6)
            duration = self.rows(fl, slices, rng)
            st, ft = finish_times(fl.topological_order, fl.predecessors,
                                  duration, delay)
            assert st.shape == ft.shape == duration.shape
            for s in range(slices):
                want_st, want_ft = finish_times(
                    fl.topological_order, fl.predecessors,
                    self.column(fl, duration, s), delay)
                assert self.column(fl, st, s) == want_st
                assert self.column(fl, ft, s) == want_ft

    def test_delay_rows_time_each_column_as_the_float_path(self):
        rng = random.Random(6)
        for _ in range(30):
            fl, duration, _ = random_case(rng)
            plans = rng.randint(1, 5)
            delay = {e: np.array([rng.randint(0, 40) / 8
                                  for _ in range(plans)])
                     for e in fl.edges}
            weights = np.array([[duration[t]] for t in fl.topological_order])
            wide = np.broadcast_to(weights, (len(weights), plans))
            _, ft = finish_times(fl.topological_order, fl.predecessors, wide,
                                 delay)
            for p in range(plans):
                one = {e: float(d[p]) for e, d in delay.items()}
                _, want = finish_times(fl.topological_order, fl.predecessors,
                                       duration, one)
                assert self.column(fl, ft, p) == want

    def test_serial_waits_for_the_previous_slice(self):
        rng = random.Random(9)
        for _ in range(30):
            fl, _, delay = random_case(rng)
            slices = rng.randint(1, 8)
            duration = self.rows(fl, slices, rng)
            st, ft = finish_times(fl.topological_order, fl.predecessors,
                                  duration, delay, serial=True)
            before = None
            for s in range(slices):
                one = self.column(fl, duration, s)
                want = enumerate_paths_finish(fl, one, delay, 0.0, before)
                assert self.column(fl, ft, s) == want
                assert self.column(fl, st, s) == {
                    t: want[t] - one[t] for t in want}
                before = want

    def test_one_column_broadcasts_against_slices(self):
        rng = random.Random(11)
        for _ in range(30):
            fl, duration, delay = random_case(rng)
            slices = rng.randint(1, 6)
            weights = np.array([[duration[t]] for t in fl.topological_order])
            st, ft = finish_times(fl.topological_order, fl.predecessors,
                                  weights, delay)
            want_st, want_ft = finish_times(fl.topological_order,
                                            fl.predecessors, duration, delay)
            assert self.column(fl, st, 0) == want_st
            assert self.column(fl, ft, 0) == want_ft
            wide = np.broadcast_to(weights, (len(weights), slices))
            wide_st, wide_ft = finish_times(fl.topological_order,
                                            fl.predecessors, wide, delay)
            assert np.array_equal(wide_st, np.broadcast_to(st, wide.shape))
            assert np.array_equal(wide_ft, np.broadcast_to(ft, wide.shape))
            # Serially, each slice queues behind the one before.
            _, serial_ft = finish_times(fl.topological_order,
                                        fl.predecessors, wide, delay,
                                        serial=True)
            before = None
            for s in range(slices):
                before = enumerate_paths_finish(fl, duration, delay, 0.0,
                                                before)
                assert self.column(fl, serial_ft, s) == before

    def test_no_slices(self):
        fl, duration, delay = random_case(random.Random(1))
        empty = np.zeros((len(duration), 0))
        for serial in (False, True):
            st, ft = finish_times(fl.topological_order, fl.predecessors,
                                  empty, delay, serial=serial)
            assert st.shape == ft.shape == empty.shape


class TestRejectBadNumbers:
    # A NaN weight on b in a -> b -> c, a -> c once gave a makespan of 2.0.
    @pytest.mark.parametrize("weight", [math.nan, math.inf, -1.0])
    def test_task_weight(self, weight):
        with pytest.raises(FlowlineError, match="weight for task 'a'"):
            TaskProfile({"a": weight})

    @pytest.mark.parametrize("size", [math.nan, math.inf, -1.0])
    def test_edge_payload(self, size):
        with pytest.raises(FlowlineError, match="payload for edge"):
            TaskProfile({"a": 1.0, "b": 1.0}, {("a", "b"): size})

    @pytest.mark.parametrize("latency", [-5.0, math.nan, math.inf])
    def test_latency(self, latency):
        with pytest.raises(FlowlineError, match="latency_s"):
            NetParams(latency_s=latency)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, math.nan])
    def test_bandwidth(self, bandwidth):
        with pytest.raises(FlowlineError, match="bandwidth_Bps"):
            NetParams(bandwidth_Bps=bandwidth)


class TestNSlices:
    @pytest.mark.parametrize("corpus, size, expected", [
        (0, 200, 0), (1, 200, 1), (200, 200, 1), (201, 200, 2),
        (8100, 200, 41), (8000, 200, 40), (2.5, 0.5, 5), (0.1, 700, 1)])
    def test_ceil(self, corpus, size, expected):
        assert n_slices(corpus, size) == expected

    @pytest.mark.parametrize("corpus, size, field", [
        (100, 0, "slice_size"), (100, -1, "slice_size"),
        (100, math.nan, "slice_size"), (100, math.inf, "slice_size"),
        (-1, 200, "corpus_size"), (math.nan, 200, "corpus_size"),
        (math.inf, 200, "corpus_size")])
    def test_rejects(self, corpus, size, field):
        with pytest.raises(FlowlineError, match=field):
            n_slices(corpus, size)

    def test_table_workload(self):
        fl = Flowline.build([op("w")], [])
        profile = TaskProfile({"w": 4.65})
        assert (n_slices(8000, 200) * makespan(fl, profile)
                == pytest.approx(186.0))

    def test_rejects_a_count_that_overflows(self):
        with pytest.raises(FlowlineError) as err:
            n_slices(1e308, 1e-10)
        assert "corpus_size" in str(err.value)
        assert "slice_size" in str(err.value)


class TestApplyPartition:
    def test_colocated_edges_zero(self):
        fl, profile = chain_flowline([1.0, 1.0, 1.0])
        delay = apply_partition(fl, profile, {"t0": 0, "t1": 0, "t2": 0},
                                NetParams(0.1, 10000.0))
        assert delay == {}

    def test_cut_edge_weight(self):
        fl, profile = chain_flowline([1.0, 1.0])
        profile = TaskProfile(profile.vertex_weights, {("t0", "t1"): 4000.0})
        delay = apply_partition(fl, profile, {"t0": 0, "t1": 1},
                                NetParams(0.1, 10000.0))
        assert delay == {("t0", "t1"): pytest.approx(0.5)}

    def test_zero_bandwidth_rejected(self):
        fl, profile = chain_flowline([1.0, 1.0])
        with pytest.raises(FlowlineError, match="bandwidth"):
            apply_partition(fl, profile, {"t0": 0, "t1": 1}, NetParams(0.1, 0.0))

    def test_unassigned_vertex_rejected(self):
        fl, profile = chain_flowline([1.0, 1.0])
        with pytest.raises(FlowlineError, match="unassigned"):
            apply_partition(fl, profile, {"t0": 0}, NetParams(0.1, 1.0))

    def test_refinement_never_faster(self):
        rng = random.Random(99)
        net = NetParams(0.25, 2000.0)
        for _ in range(25):
            fl, profile = random_dag(rng, max_vertices=9)
            ids = [v.id for v in fl.vertices]
            coarse = {t: rng.randrange(2) for t in ids}
            fine = dict(coarse)
            # Split block 0 into blocks 0 and 2: a strict refinement.
            movable = [t for t in ids if coarse[t] == 0]
            for t in movable:
                if rng.random() < 0.5:
                    fine[t] = 2
            d_coarse = apply_partition(fl, profile, coarse, net)
            d_fine = apply_partition(fl, profile, fine, net)
            assert (makespan(fl, profile, d_fine)
                    >= makespan(fl, profile, d_coarse))


class TestPartitionedTime:
    def test_colocated_equals_ideal(self):
        fl, profile = chain_flowline([2.0, 3.0])
        delay = apply_partition(fl, profile, {"t0": 0, "t1": 0},
                                NetParams(0.1, 1000.0))
        assert makespan(fl, profile, delay) == makespan(fl, profile)

    def test_two_vm_chain_two_slices(self):
        fl, profile = chain_flowline([2.0, 3.0])
        profile = TaskProfile(profile.vertex_weights, {("t0", "t1"): 4000.0})
        delay = apply_partition(fl, profile, {"t0": 0, "t1": 1},
                                NetParams(0.1, 10000.0))
        assert 2 * enumerate_paths_makespan(fl, profile, delay) == 11.0
        assert n_slices(400, 200) * makespan(fl, profile, delay) == 11.0

    def test_cutting_an_edge_never_decreases(self):
        rng = random.Random(4242)
        net = NetParams(0.5, 1000.0)
        for _ in range(25):
            fl, profile = random_dag(rng, max_vertices=8)
            ids = [v.id for v in fl.vertices]
            together = apply_partition(fl, profile, {t: 0 for t in ids}, net)
            cut_vertex = rng.choice(ids)
            split = {t: (1 if t == cut_vertex else 0) for t in ids}
            apart = apply_partition(fl, profile, split, net)
            before = enumerate_paths_makespan(fl, profile, together)
            after = enumerate_paths_makespan(fl, profile, apart)
            assert after >= before
            assert makespan(fl, profile, apart) >= makespan(fl, profile,
                                                            together)


def reference_topo_sort(ids, edges):
    """Sorted-list Kahn's algorithm over the graph ``edges`` draws on
    ``ids``: pop the smallest ready id each step."""
    indeg = {i: 0 for i in ids}
    succs = {i: [] for i in ids}
    for a, b in edges:
        indeg[b] += 1
        succs[a].append(b)
    ready = sorted(i for i, d in indeg.items() if d == 0)
    order = []
    while ready:
        nxt = ready.pop(0)
        order.append(nxt)
        for succ in succs[nxt]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
        ready.sort()
    if len(order) != len(indeg):
        return None
    return tuple(order)


def topo_order(fl):
    """``fl.topological_order``, or None for a graph with a cycle."""
    try:
        return fl.topological_order
    except FlowlineError:
        return None


class TestTopologicalSort:
    def test_matches_reference_on_random_dags(self):
        rng = random.Random(11)
        for _ in range(300):
            fl, _ = random_dag(rng, max_vertices=30)
            assert topo_order(fl) == reference_topo_sort(
                [v.id for v in fl.vertices], fl.edges)

    def test_matches_reference_on_random_graphs(self):
        # Shuffled vertex order, arbitrary edges: cycles give None in both.
        rng = random.Random(12)
        cyclic = 0
        for _ in range(300):
            ids = [f"v{rng.randrange(100)}" for _ in range(rng.randint(1, 15))]
            ids = list(dict.fromkeys(ids))
            rng.shuffle(ids)
            edges = [(rng.choice(ids), rng.choice(ids))
                     for _ in range(rng.randint(0, 2 * len(ids)))]
            fl = Flowline(tuple(op(i) for i in ids), tuple(edges),
                          ids[0], ids[-1])
            want = reference_topo_sort(ids, dict.fromkeys(edges))
            cyclic += want is None
            assert topo_order(fl) == want
        assert 0 < cyclic < 300

    def test_validate_reads_the_cached_order(self, monkeypatch):
        sorts = []
        heapify = heapq.heapify

        def counted(ready):
            sorts.append(list(ready))
            heapify(ready)

        monkeypatch.setattr(heapq, "heapify", counted)
        fl = fig5_flowline()
        assert validate(fl).ok and validate(fl).ok
        assert fl.topological_order == topo_order(fl)
        assert len(sorts) == 1

    def test_repeated_edge_orders_as_the_deduplicated_graph(self):
        plain = fig5_flowline()
        repeated = Flowline.build(plain.vertices,
                                  plain.edges + plain.edges[::3])
        assert repeated.edges == plain.edges
        assert validate(repeated).ok
        assert repeated.topological_order == plain.topological_order
        pair = Flowline.build([op("a"), op("b")], [("a", "b"), ("a", "b")])
        assert pair.topological_order == ("a", "b")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_edge_lists_construct_or_raise(self, data):
        # Repeats, self-loops and unknown ends ("zz") all occur.
        ids = data.draw(st.lists(st.sampled_from("abcdef"), min_size=1,
                                 unique=True))
        ends = st.sampled_from([*ids, "zz"])
        edges = data.draw(st.lists(st.tuples(ends, ends), max_size=15))
        entry, exit = data.draw(ends), data.draw(ends)
        try:
            fl = Flowline(tuple(op(i) for i in ids), tuple(edges), entry, exit)
        except FlowlineError:
            assert "zz" in {entry, exit, *(x for e in edges for x in e)}
            return
        unique = tuple(dict.fromkeys(edges))
        assert fl.edges == unique
        assert topo_order(fl) == reference_topo_sort(ids, unique)


class TestInvariant:
    """Construction rejects what no flowline may hold, naming it."""

    CASES = {
        "dangling-edge": ({"edges": [("a", "b"), ("a", "zz")]},
                          "('a', 'zz')"),
        "unknown-entry": ({"entry": "zz"}, "entry 'zz'"),
        "unknown-exit": ({"exit": "zz"}, "exit 'zz'"),
    }

    @staticmethod
    def direct(edges, entry, exit):
        return Flowline((op("a"), op("b")), tuple(edges), entry or "a",
                        exit or "b")

    @staticmethod
    def build(edges, entry, exit):
        return Flowline.build([op("a"), op("b")], edges, entry, exit)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("make", ["direct", "build"])
    def test_rejected_naming_the_offender(self, make, case):
        fields, offender = self.CASES[case]
        args = {"edges": [("a", "b")], "entry": None, "exit": None, **fields}
        with pytest.raises(FlowlineError, match=re.escape(offender)):
            getattr(self, make)(**args)

    def test_edge_ends_are_not_coerced(self):
        # build() checks edges as the constructor does: 1 is no task "1".
        message = re.escape("edges join unknown tasks: [(1, 'b')]")
        with pytest.raises(FlowlineError, match=message):
            Flowline.build([op("1"), op("b")], [(1, "b")])
        with pytest.raises(FlowlineError, match=message):
            Flowline((op("1"), op("b")), ((1, "b"),), "1", "b")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(FlowlineError, match="duplicate"):
            Flowline.build([op("a"), op("a")], [])
        with pytest.raises(FlowlineError,
                           match=r"duplicate task ids: \['a', 'b'\]"):
            Flowline.build([op("b"), op("a"), op("c"), op("b"), op("a")], [])
        with pytest.raises(FlowlineError,
                           match=r"duplicate task ids: \['a', 'b'\]"):
            Flowline(vertices=(op("b"), op("a"), op("b"), op("a")),
                     edges=(), entry="a", exit="b")


def fig5_flowline() -> Flowline:
    """The running NER->filters->pair->RE->merge->triple example DAG."""
    vertices = [
        op("data", function="data"),
        model("BertNER", "BertNER"),
        op("filter[f_bert]", function="filter"),
        op("filter[f_lstm]", function="filter"),
        op("permutate[p1]", function="permutate"),
        op("permutate[p2]", function="permutate"),
        model("BERTRE", "BERTRE", kind="model-CC"),
        model("LSTMRE", "LSTMRE", kind="model-CC"),
        op("merge[re]", function="merge"),
        op("triple", function="triple"),
    ]
    edges = [
        ("data", "BertNER"),
        ("BertNER", "filter[f_bert]"),
        ("BertNER", "filter[f_lstm]"),
        ("filter[f_bert]", "permutate[p1]"),
        ("filter[f_lstm]", "permutate[p2]"),
        ("permutate[p1]", "BERTRE"),
        ("permutate[p2]", "LSTMRE"),
        ("BERTRE", "merge[re]"),
        ("LSTMRE", "merge[re]"),
        ("merge[re]", "triple"),
    ]
    return Flowline.build(vertices, edges)
