"""The task-function table: one lookup decides a vertex's contract."""

import pytest

from kgflow import gfl, registry
from kgflow.flowline import Flowline, TaskNode, validate
from kgflow.registry import OpSpec


@pytest.fixture
def table(monkeypatch):
    """A copy of the table that is put back after the test."""
    monkeypatch.setattr(registry, "_SPECS", dict(registry._SPECS))


def vertex(tid, kind="operator"):
    return TaskNode(id=tid, kind=kind, config={"function": tid})


def findings(*vertices):
    ids = [v.id for v in vertices]
    fl = Flowline.build(vertices, list(zip(ids, ids[1:])))
    return [str(v) for v in validate(fl).violations]


class TestOneTable:
    def test_operator_vertex_naming_a_model(self):
        assert findings(vertex("data"), vertex("BertNER")) == [
            "unknown-operator: task 'BertNER': operator 'BertNER' "
            "not registered"]
        with pytest.raises(gfl.GflError, match="unknown-operator"):
            gfl.parse(":data\n    | opt.BertNER:\n")

    def test_model_vertex_naming_an_operator(self):
        assert findings(vertex("data"), vertex("filter", "model-CE")) == [
            "unknown-model: task 'filter': model 'filter' not registered"]

    def test_model_under_the_wrong_paradigm(self):
        assert findings(vertex("data"), vertex("BertNER", "model-CC"),
                        vertex("triple")) == [
            "unknown-model: task 'BertNER': model 'BertNER' is registered "
            "as model-CE, not model-CC"]
        # Under its own paradigm the pipe into `triple` is what is wrong.
        assert findings(vertex("data"), vertex("BertNER", "model-CE"),
                        vertex("triple")) == [
            "incompatible-pipe: task 'triple' requires columns "
            "['entity_pair', 'relation_category'] not supplied by "
            "precursor(s) BertNER"]


class TestRegister:
    def test_programmable_operator(self, table):
        registry.register(OpSpec("dedupe", registry.FILTER,
                                 requires=(registry.ENTITY,)))
        src = (":data\n    | model.BertNER\n        | opt.dedupe\n"
               "            | opt.permutate:\n")
        assert validate(gfl.parse(src)).ok
        with pytest.raises(gfl.GflError, match="requires columns "
                                               r"\['entity'\]"):
            gfl.parse(":data\n    | opt.dedupe:\n")

    def test_model_gets_its_paradigms_contract(self, table):
        registry.register(registry.model("SpanNER", registry.MODEL_CE))
        spec = registry.spec("SpanNER")
        assert spec == OpSpec("SpanNER", "model-CE", ("sample",),
                              ("entity", "entity_type"), carries=False,
                              keeps=("sample",))
        fl = gfl.parse(":data\n    | model.SpanNER\n"
                       "        | opt.permutate:\n")
        assert fl.node("SpanNER").kind == "model-CE"
        assert validate(fl).ok

    def test_unknown_paradigm_raises(self, table):
        with pytest.raises(ValueError, match="unknown model paradigm"):
            registry.model("X", "model-XX")
        with pytest.raises(ValueError, match="unknown family 'model-XX'"):
            registry.register(OpSpec("X", "model-XX"))
        assert registry.spec("X") is None
