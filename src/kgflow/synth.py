"""Synthetic flowline generator for scheduling experiments.

Builds branch-and-merge pipelines shaped like real extraction workloads:
one entry CE model fans out into per-branch operator chains (filters ending
in a pair constructor), each feeding a CC model; branch outputs meet in a
merge, then an operator tail ends in the triple constructor. Shapes are
named by their task mix, e.g. ``3m6o`` = 3 models + 6 operators.
"""

from __future__ import annotations

import random

from .flowline import Flowline, TaskNode, TaskProfile

EXPERIMENT_SHAPES = ((3, 6), (3, 11), (4, 8), (6, 18), (6, 29))


def synthetic_flowline(n_models: int, n_operators: int,
                       seed: int = 0) -> tuple[Flowline, TaskProfile]:
    """Deterministic (flowline, profile) with the requested task mix.

    Needs at least 2 models and, per CC branch, one pair constructor plus
    the shared merge and triple tail: n_operators >= n_models + 1.
    """
    if n_models < 2:
        raise ValueError("need at least 2 models (one CE entry, one CC)")
    branches = n_models - 1
    min_ops = branches + 2  # one permutate each, merge, triple
    if n_operators < min_ops:
        raise ValueError(
            f"{n_models} models need at least {min_ops} operators")

    rng = random.Random(seed)
    extras = n_operators - min_ops
    branch_filters = [0] * branches
    tail_ops = 0
    for i in range(extras):
        slot = i % (branches + 1)
        if slot < branches:
            branch_filters[slot] += 1
        else:
            tail_ops += 1

    vertices: list[TaskNode] = []
    edges: list[tuple[str, str]] = []

    def add(vid: str, function: str, kind: str = "operator") -> str:
        vertices.append(TaskNode(id=vid, kind=kind,
                                 config={"function": function}))
        return vid

    entry = add("m0", "BertNER", "model-CE")
    cc_functions = ("BERTRE", "LSTMRE")
    merge_inputs = []
    for b in range(branches):
        prev = entry
        for j in range(branch_filters[b]):
            prev_new = add(f"b{b}f{j}", "filter")
            edges.append((prev, prev_new))
            prev = prev_new
        pair = add(f"b{b}p", "permutate")
        edges.append((prev, pair))
        model_id = add(f"m{b + 1}", cc_functions[b % 2], "model-CC")
        edges.append((pair, model_id))
        merge_inputs.append(model_id)

    merge = add("merge", "merge")
    for mid in merge_inputs:
        edges.append((mid, merge))
    prev = merge
    for j in range(tail_ops):
        nxt = add(f"x{j}", "integrate")
        edges.append((prev, nxt))
        prev = nxt
    exit_id = add("triple", "triple")
    edges.append((prev, exit_id))

    flowline = Flowline.build(vertices, edges)
    weights = {}
    payloads = {}
    for v in flowline.vertices:
        if v.is_model:
            weights[v.id] = round(rng.uniform(0.6, 1.2), 4)
        else:
            weights[v.id] = round(rng.uniform(0.01, 0.06), 4)
    for e in flowline.edges:
        payloads[e] = float(rng.randint(200_000, 800_000))
    return flowline, TaskProfile(weights, payloads)
