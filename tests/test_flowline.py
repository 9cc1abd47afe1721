"""Flowline structure, validation, and timing tests.

Makespan expectations are checked against an independent oracle: exhaustive
enumeration of every entry->exit path, summing vertex and edge weights.
Random-DAG weights are dyadic rationals (k/8) so float sums are exact and
the recursion must match the oracle bit-for-bit.
"""

import json
import math
import random

import pytest

from kgflow.flowline import (
    Flowline,
    FlowlineError,
    NetParams,
    TaskNode,
    TaskProfile,
    _topo_sort,
    apply_partition,
    finish_times,
    flowline_from_dict,
    flowline_to_dict,
    ideal_time,
    makespan,
    n_slices,
    validate,
)


def op(tid, function="integrate", family="integrator", **config):
    return TaskNode(id=tid, kind="operator", operator_family=family,
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

    def test_unreachable_vertex(self):
        fl = Flowline(vertices=(op("a"), op("b"), op("c"), op("d")),
                      edges=(("a", "b"), ("c", "b")), entry="a", exit="b")
        codes = {v.code for v in validate(fl).violations}
        # c has in-degree 0 alongside a; d dangles entirely
        assert "multiple-entries" in codes

    def test_dangling_edge(self):
        fl = Flowline(vertices=(op("a"), op("b")),
                      edges=(("a", "b"), ("a", "ghost")), entry="a", exit="b")
        codes = {v.code for v in validate(fl).violations}
        assert "dangling-edge" in codes

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


class TestFinishTimes:
    def test_start_and_after_match_path_enumeration(self):
        rng = random.Random(3)
        for _ in range(60):
            fl, profile = random_dag(rng, max_vertices=9)
            duration = dict(profile.vertex_weights)
            delay = {e: rng.randint(0, 40) / 8 for e in fl.edges}
            start = rng.randint(0, 80) / 8
            after = rng.choice([None, {v.id: rng.randint(0, 200) / 8
                                       for v in fl.vertices}])
            st, ft = finish_times(fl.topological_order, fl.predecessors,
                                  duration, delay, start=start, after=after)
            assert ft == enumerate_paths_finish(fl, duration, delay, start,
                                                after)
            assert st == {t: ft[t] - duration[t] for t in ft}


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


class TestIdealTime:
    def test_table_workload(self):
        fl = Flowline.build([op("w")], [])
        profile = TaskProfile({"w": 4.65})
        assert ideal_time(fl, profile, 8000, 200) == pytest.approx(186.0)

    def test_one_slice(self):
        fl, profile = chain_flowline([1.0, 2.5])
        assert ideal_time(fl, profile, 200, 200) == makespan(fl, profile)

    def test_empty_corpus(self):
        fl, profile = chain_flowline([1.0])
        assert ideal_time(fl, profile, 0, 200) == 0.0

    def test_zero_slice_rejected(self):
        fl, profile = chain_flowline([1.0])
        with pytest.raises(FlowlineError, match="slice_size"):
            ideal_time(fl, profile, 100, 0)

    def test_short_last_slice_runs_whole(self):
        fl, profile = chain_flowline([1.0, 2.5])
        assert ideal_time(fl, profile, 201, 200) == 2 * 3.5
        assert ideal_time(fl, profile, 1, 200) == 3.5


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
        assert (n_slices(1000, 100) * makespan(fl, profile, delay)
                == ideal_time(fl, profile, 1000, 100))

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


class TestSerialization:
    def test_round_trip(self):
        fl = fig5_flowline()
        profile = TaskProfile({v.id: 1.0 for v in fl.vertices},
                              {e: 100.0 for e in fl.edges})
        doc = flowline_to_dict(fl, profile)
        blob = json.dumps(doc, sort_keys=True)
        fl2, profile2 = flowline_from_dict(json.loads(blob))
        assert fl2.entry == fl.entry and fl2.exit == fl.exit
        assert {v.id for v in fl2.vertices} == {v.id for v in fl.vertices}
        assert set(fl2.edges) == set(fl.edges)
        assert profile2 is not None
        assert profile2.vertex_weights == profile.vertex_weights
        assert profile2.edge_payloads == profile.edge_payloads

    def test_duplicate_ids_rejected(self):
        with pytest.raises(FlowlineError, match="duplicate"):
            Flowline.build([op("a"), op("a")], [])
        with pytest.raises(FlowlineError,
                           match=r"duplicate task ids: \['a', 'b'\]"):
            Flowline.build([op("b"), op("a"), op("c"), op("b"), op("a")], [])


def reference_topo_sort(flowline):
    """Sorted-list Kahn's algorithm: pop the smallest ready id each step."""
    indeg = {v.id: 0 for v in flowline.vertices}
    for a, b in flowline.edges:
        if a in indeg and b in indeg:
            indeg[b] += 1
    ready = sorted(i for i, d in indeg.items() if d == 0)
    order = []
    while ready:
        nxt = ready.pop(0)
        order.append(nxt)
        for succ in flowline.successors[nxt]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
        ready.sort()
    if len(order) != len(flowline.vertices):
        return None
    return tuple(order)


class TestTopologicalSort:
    def test_matches_reference_on_random_dags(self):
        rng = random.Random(11)
        for _ in range(300):
            fl, _ = random_dag(rng, max_vertices=30)
            assert _topo_sort(fl) == reference_topo_sort(fl)

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
            want = reference_topo_sort(fl)
            cyclic += want is None
            assert _topo_sort(fl) == want
        assert 0 < cyclic < 300

    def test_validate_reports_duplicates_sorted(self):
        fl = Flowline(vertices=(op("b"), op("a"), op("b"), op("a")),
                      edges=(), entry="a", exit="b")
        dupes = [v.detail for v in validate(fl).violations
                 if v.code == "duplicate-id"]
        assert dupes == ["task id 'a' repeats", "task id 'b' repeats"]


def fig5_flowline() -> Flowline:
    """The running NER->filters->pair->RE->merge->triple example DAG."""
    vertices = [
        op("data", function="data", family="controller"),
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
