"""GFL parsing, canonical formatting, and DOT export tests."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from kgflow import gfl, registry
from kgflow.flowline import Flowline, TaskNode, validate
from kgflow.synth import EXPERIMENT_SHAPES, synthetic_flowline

# The running two-branch NER/RE pipeline, written in GFL.
PIPELINE_SRC = """\
filtered_ent := []
:data
    | model.BertNER -> ent, ent_t
        | opt.filter[f_bert](ent_t in filtered_ent)
            | opt.permutate[p1] -> ent_p, ent_t_p
                | model.BERTRE -> rel, ent_p, ent_t_p
        | opt.filter[f_lstm](ent_t not in filtered_ent)
            | opt.permutate[p2] -> ent_p, ent_t_p
                | model.LSTMRE -> rel, ent_p, ent_t_p
    | model.BERTRE
        | opt.merge[re]
    | model.LSTMRE
        | opt.merge[re]
            | opt.triple:
"""

PIPELINE_VERTICES = {
    "data", "BertNER", "filter[f_bert]", "filter[f_lstm]",
    "permutate[p1]", "permutate[p2]", "BERTRE", "LSTMRE",
    "merge[re]", "triple",
}

PIPELINE_EDGES = {
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
}


def edge_set(fl: Flowline) -> set:
    return set(fl.edges)


_KEYWORDS = ("in", "not", "and", "or")
_PRED_NAMES = st.from_regex(r"\A[a-z_][a-z0-9_.]{0,5}\Z").filter(
    lambda w: w not in _KEYWORDS)
_PRED_LITERALS = st.one_of(
    st.integers(-99, 99).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map("{0[0]}.{0[1]}".format),
    st.text("ab ,()[]'\"\\", max_size=4).map(gfl._format_literal))


@st.composite
def grammar_predicates(draw):
    """A predicate drawn from the grammar in ``gfl``'s comment."""
    item = st.one_of(_PRED_NAMES, _PRED_LITERALS)
    lists = st.lists(item, max_size=3).map(
        lambda items: "[" + ", ".join(items) + "]")

    def extend(inner):
        operand = st.one_of(_PRED_NAMES, _PRED_LITERALS, lists,
                            inner.map("({})".format))
        return st.one_of(
            st.tuples(operand, st.sampled_from(("in", "not in", "==", "!=")),
                      operand).map(" ".join),
            st.tuples(inner, st.sampled_from(("and", "or")), inner
                      ).map(" ".join))

    return draw(st.recursive(st.one_of(_PRED_NAMES, _PRED_LITERALS, lists),
                             extend, max_leaves=10))


class TestParse:
    def test_pipeline_vertices_and_edges(self):
        fl = gfl.parse(PIPELINE_SRC)
        assert {v.id for v in fl.vertices} == PIPELINE_VERTICES
        assert edge_set(fl) == PIPELINE_EDGES
        assert fl.entry == "data"
        assert fl.exit == "triple"

    def test_pipeline_kinds(self):
        fl = gfl.parse(PIPELINE_SRC)
        assert fl.node("BertNER").kind == "model-CE"
        assert fl.node("BERTRE").kind == "model-CC"
        assert fl.node("filter[f_bert]").kind == "operator"

    def test_pipeline_configs(self):
        fl = gfl.parse(PIPELINE_SRC)
        f = fl.node("filter[f_bert]")
        assert f.config["predicate"] == "ent_t in filtered_ent"
        assert f.config["bindings"] == {"filtered_ent": []}
        assert fl.node("BertNER").config["outputs"] == ["ent", "ent_t"]

    def test_minimal_pipeline(self):
        fl = gfl.parse(":data\n    | opt.triple:")
        assert {v.id for v in fl.vertices} == {"data", "triple"}
        assert edge_set(fl) == {("data", "triple")}

    def test_label_namespace_conflict(self):
        src = (":data\n"
               "    | opt.merge[re]\n"
               "        | model.merge[re]\n"
               "            | opt.triple:\n")
        with pytest.raises(gfl.GflError, match="label conflict"):
            gfl.parse(src)

    def test_repeated_label_merges_to_one_vertex(self):
        src = (":data\n"
               "    | opt.integrate[a]\n"
               "        | opt.merge[m]\n"
               "    | opt.integrate[b]\n"
               "        | opt.merge[m]\n"
               "            | opt.triple:\n")
        fl = gfl.parse(src)
        assert len([v for v in fl.vertices if v.id == "merge[m]"]) == 1
        assert set(fl.predecessors["merge[m]"]) == {"integrate[a]", "integrate[b]"}

    def test_tabs_rejected_with_span(self):
        with pytest.raises(gfl.GflError) as err:
            gfl.parse(":data\n\t| opt.triple:")
        assert err.value.line == 2

    def test_unknown_namespace(self):
        with pytest.raises(gfl.GflError, match="namespace"):
            gfl.parse(":data\n    | ops.triple:")

    def test_over_indent_rejected(self):
        src = ":data\n    | opt.integrate[a]\n            | opt.triple:"
        with pytest.raises(gfl.GflError, match="over-indented"):
            gfl.parse(src)

    def test_inconsistent_indent_rejected(self):
        src = ":data\n    | opt.integrate[a]\n          | opt.triple:"
        with pytest.raises(gfl.GflError, match="indentation"):
            gfl.parse(src)

    def test_unbalanced_predicate(self):
        with pytest.raises(gfl.GflError) as err:
            gfl.parse(":data\n    | opt.filter[f](a in (b)\n")
        assert err.value.message == "predicate: expected ')'"
        assert (err.value.line, err.value.col) == (2, 29)  # end of line

    def test_missing_outlet(self):
        with pytest.raises(gfl.GflError, match="outlet"):
            gfl.parse(":data\n    | opt.integrate[a]\n")

    def test_two_outlets(self):
        src = ":data\n    | opt.integrate[a]:\n    | opt.triple:"
        with pytest.raises(gfl.GflError, match="outlet"):
            gfl.parse(src)

    def test_cycle_detected_via_re_reference(self):
        src = (":data\n"
               "    | opt.integrate[a]\n"
               "        | opt.integrate[b]\n"
               "            | opt.integrate[a]\n"
               "                | opt.triple:\n")
        with pytest.raises(gfl.GflError, match="cycle") as err:
            gfl.parse(src)
        # At a call of a or b, the tasks on the cycle, not at the entry.
        assert (err.value.line, err.value.col) in {(2, 7), (3, 11), (4, 15)}

    def test_unknown_function_fails_validation_not_grammar(self):
        with pytest.raises(gfl.GflError, match="unknown-operator") as err:
            gfl.parse(":data\n    | opt.frobnicate:\n")
        assert (err.value.line, err.value.col) == (2, 7)

    @pytest.mark.parametrize("src, line, col", [
        (":data\n"
         "    | opt.filter[a]\n"
         "        | opt.relation_filter[a]:\n", 3, 11),
        (":data\n"
         "    | opt.filter\n"
         "        | opt.filter[f]\n"
         "            | opt.relation_filter:\n", 4, 15),
    ])
    def test_pipe_finding_points_at_the_consumer(self, src, line, col):
        # The message names the precursor too; the consumer is the task.
        with pytest.raises(gfl.GflError, match="incompatible-pipe") as err:
            gfl.parse(src)
        assert (err.value.line, err.value.col) == (line, col)

    def test_repeated_call_with_a_conflicting_predicate(self):
        src = (":data\n"
               "    | opt.filter[f](a in xs)\n"
               "        | opt.triple:\n"
               "    | opt.filter[f](b in xs)\n")
        with pytest.raises(gfl.GflError) as err:
            gfl.parse(src)
        assert err.value.message == ("conflicting predicate for repeated "
                                     "call 'filter[f]'")
        assert (err.value.line, err.value.col) == (4, 7)

    def test_binding_after_root_rejected(self):
        src = ":data\nxs := [1]\n    | opt.triple:"
        with pytest.raises(gfl.GflError):
            gfl.parse(src)

    def test_root_call_opens_a_model_entry(self):
        src = (":model.BertNER[m0] -> ent, ent_t\n"
               "    | opt.permutate[p]\n"
               "        | model.BERTRE[m1]\n"
               "            | opt.triple:\n")
        fl = gfl.parse(src)
        assert (fl.entry, fl.exit) == ("BertNER[m0]", "triple")
        entry = fl.node("BertNER[m0]")
        assert entry.kind == "model-CE"
        assert entry.config == {"namespace": "model", "function": "BertNER",
                                "label": "m0", "outputs": ["ent", "ent_t"]}

    def test_bare_root_is_the_operator_call(self):
        assert gfl.parse(":opt.data\n    | opt.triple:") == \
            gfl.parse(":data\n    | opt.triple:")

    def test_root_call_may_be_the_outlet(self):
        fl = gfl.parse("xs := [1]\n:opt.filter[f](a in xs):\n")
        assert (fl.entry, fl.exit, fl.edges) == ("filter[f]", "filter[f]", ())
        assert fl.node("filter[f]").config["bindings"] == {"xs": [1]}

    @pytest.mark.parametrize("src, message, col", [
        (":opt.filter[1x]\n    | opt.triple:",
         "instance label '1x' is not an identifier", 13),
        (":model.\n    | opt.triple:",
         "expected a namespace.function call, got 'model.'", 2),
        (":opt.data:\n    | opt.triple:",
         "multiple outlets: 'data' and 'triple'", 7),
        (":opt.data x\n    | opt.triple:",
         "unexpected trailing text 'x'", 11),
    ])
    def test_root_call_errors(self, src, message, col):
        with pytest.raises(gfl.GflError) as err:
            gfl.parse(src)
        assert (err.value.message, err.value.col) == (message, col)

    def test_eight_space_unit_accepted(self):
        src = (":data\n"
               "        | opt.integrate[a]\n"
               "                | opt.triple:\n")
        fl = gfl.parse(src)
        assert edge_set(fl) == {("data", "integrate[a]"),
                                ("integrate[a]", "triple")}


class TestPredicates:
    @pytest.mark.parametrize("predicate", ["ent_t in [')']", "ent_t == '('"])
    def test_parenthesis_in_string_literal(self, predicate):
        src = (":data\n    | model.BertNER -> ent, ent_t\n"
               f"        | opt.filter[f]({predicate})\n"
               "            | opt.permutate:\n")
        fl = gfl.parse(src)
        assert fl.node("filter[f]").config["predicate"] == predicate
        assert gfl.format_flowline(fl) == src
        assert gfl.parse(gfl.format_flowline(fl)) == fl

    @pytest.mark.parametrize("predicate, names", [
        ("ent_t in filtered_ent", {"ent_t", "filtered_ent"}),
        ("ent_t in types and score != 0", {"ent_t", "types", "score"}),
        ("x not in ['a', 'b'] or x == 'b'", {"x"}),
        ("(a in b) and ((c == 1) or d != e)", {"a", "b", "c", "d", "e"}),
        ("xs.y in zs", {"xs.y", "zs"}),
        ("a in [b, c, 'd', 1]", {"a"}),
        ("[b] == [c]", set()),
        ("1 == 2.5", set()),
        ("not_a in or_b and in_c", {"not_a", "or_b", "in_c"}),
        ("x == x or x != y", {"x", "y"}),
    ])
    def test_call_carries_the_names_used(self, predicate, names):
        call = gfl._split_call(f"opt.filter[f]({predicate})", 2, 5)
        assert call.predicate == predicate
        assert call.names == frozenset(names)

    # The call's text after ``opt.filter[f]``; ``^`` marks the column the
    # error names and is not part of the text.
    @pytest.mark.parametrize("args, message", [
        ("(a in b ^c)", "expected ')'"),
        ("(a not ^b)", "expected 'in' after 'not'"),
        ("((a in b)^", "expected ')'"),
        ("(a in ^)", "unexpected token ')'"),
        ("(a in^", "unexpected end of predicate"),
        ("(a in ^: x", "unexpected end of predicate"),
        ("(a in b ^-> x", "expected ')'"),
        ("(a in [b ^-> x", "expected ']'"),
        ("(a in ^,)", "unexpected token ','"),
        ("(a in [^(])", "lists may only contain literals"),
        ("(a in [1 ^2 3])", "expected ',' or ']'"),
        ("(a in [x^'z'])", "expected ',' or ']'"),
        ("(a in [b^", "expected ']'"),
        ("(a in [b,^", "expected ']'"),
        ("(a in [^", "expected ']'"),
        ("(^)", "unexpected token ')'"),
    ])
    def test_grammar_errors_at_the_offending_token(self, args, message):
        text = "opt.filter[f]" + args
        with pytest.raises(gfl.GflError) as err:
            gfl._split_call(text.replace("^", ""), line=2, col=5)
        assert err.value.message == f"predicate: {message}"
        assert (err.value.line, err.value.col) == (2, 5 + text.index("^"))

    @settings(max_examples=200, deadline=None)
    @given(grammar_predicates())
    def test_the_parser_finds_its_own_closing_paren(self, predicate):
        call = gfl._split_call(f"opt.filter[f]({predicate}) -> a, b:", 3, 5)
        depth, refs = 0, set()
        for m in gfl._TOKEN_RX.finditer(predicate):
            sym = m.group("sym")
            depth += (sym == "[") - (sym == "]")
            if m.group("ident") not in (None, *_KEYWORDS) and depth == 0:
                refs.add(m.group("ident"))
        assert call.predicate == predicate
        assert call.outputs == ("a", "b")
        assert call.is_outlet
        assert call.names == refs

    def test_one_parser_per_predicate_and_binding_list(self, monkeypatch):
        made = []

        class CountingParser(gfl._PredParser):
            def __init__(self, *args):
                made.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(gfl, "_PredParser", CountingParser)
        gfl.parse(PIPELINE_SRC)
        assert len(made) == 3  # two predicates and one binding list

    def test_deep_parentheses_raise_gfl_error(self):
        limit = gfl._MAX_NESTING

        def src(depth):
            return (f":data\n    | opt.filter[f]({'(' * depth}a{')' * depth})"
                    "\n        | opt.triple:\n")

        gfl.parse(src(limit))
        for depth in (limit + 1, 5000):
            with pytest.raises(gfl.GflError, match="nested deeper") as err:
                gfl.parse(src(depth))
            # The first nested '(' is at column 21; the one too deep follows.
            assert (err.value.line, err.value.col) == (2, 21 + limit)

    def test_a_binding_named_only_inside_a_list_is_not_collected(self):
        src = ("xs := ['a']\n:data\n    | opt.filter[f](x in {})\n"
               "        | opt.triple:\n")
        listed = gfl.parse(src.format("[xs]")).node("filter[f]").config
        assert "bindings" not in listed
        named = gfl.parse(src.format("xs")).node("filter[f]").config
        assert named["bindings"] == {"xs": ["a"]}

    def test_binding_list_items_need_commas(self):
        with pytest.raises(gfl.GflError, match="expected ',' or ']'") as err:
            gfl.parse("zs := [x'z']\n:data\n    | opt.triple:\n")
        assert (err.value.line, err.value.col) == (1, 9)  # the quote
        fl = gfl.parse("zs := [x, 'z',]\n:data\n"
                       "    | opt.filter[f](a in zs)\n        | opt.triple:\n")
        assert fl.node("filter[f]").config["bindings"] == {"zs": ["x", "z"]}

    @pytest.mark.parametrize("src, col", [
        ("ys := 3", 7), ("ys :=  [1] x", 8), ("ys :=[1], [2]", 6)])
    def test_binding_value_error_at_the_value(self, src, col):
        with pytest.raises(gfl.GflError, match="literal list") as err:
            gfl.parse(src + "\n:data\n    | opt.triple:\n")
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize("predicate, char, col", [
        ("a in $$", "$", 26),
        ("x in xs> a, b", ">", 28),  # '>' alone neither ends nor is a token
    ])
    def test_bad_token_has_span(self, predicate, char, col):
        with pytest.raises(gfl.GflError) as err:
            gfl.parse(f":data\n    | opt.filter[f]({predicate}\n")
        assert err.value.message == f"bad predicate character {char!r}"
        assert (err.value.line, err.value.col) == (2, col)

    @pytest.mark.parametrize("predicate, col", [
        ("a in (b:", 28), ("a in (b) -> x, y:", 30), ("a in b->c", 27)])
    def test_outlet_or_outputs_end_an_unclosed_predicate(self, predicate,
                                                         col):
        with pytest.raises(gfl.GflError) as err:
            gfl.parse(f":data\n    | opt.filter[f]({predicate}\n")
        assert err.value.message == "predicate: expected ')'"
        assert (err.value.line, err.value.col) == (2, col)


def reference_split_call(text: str, line: int, col: int) -> gfl.CallNode:
    """``gfl._split_call`` as it read a call's tail before the tail pattern:
    by stripping and slicing ``rest`` and moving ``offset`` along with it."""
    m = gfl._CALL_RX.match(text)
    if m is None:
        raise gfl.GflError(f"expected a namespace.function call, got "
                           f"{text!r}", line, col)
    ns, fn, label = m.group("ns"), m.group("fn"), m.group("label")
    if ns not in (gfl.NAMESPACE_MODEL, gfl.NAMESPACE_OPT):
        raise gfl.GflError(f"unknown namespace {ns!r}", line, col)
    if label is not None and not gfl._IDENT_RX.fullmatch(label):
        raise gfl.GflError(f"instance label {label!r} is not an identifier",
                           line, col + m.start("label"))
    offset = m.end()
    predicate, names = None, frozenset()
    if text.startswith("(", offset):
        parser = gfl._PredParser(text, line, col, offset)
        predicate = parser.predicate()
        names, offset = frozenset(parser.names), parser.pos
    rest = text[offset:]

    outputs: tuple[str, ...] = ()
    stripped = rest.lstrip()
    offset += len(rest) - len(stripped)
    rest = stripped
    if rest.startswith("->"):
        rest = rest[2:]
        is_outlet = rest.rstrip().endswith(":")
        if is_outlet:
            rest = rest.rstrip()[:-1]
        outputs = tuple(n.strip() for n in rest.split(","))
        if any(not gfl._IDENT_RX.fullmatch(n) for n in outputs):
            raise gfl.GflError(f"bad output binding list {rest.strip()!r}",
                               line, col + offset)
        rest = ""
    else:
        is_outlet = False

    rest = rest.strip()
    if rest == ":":
        is_outlet = True
    elif rest:
        raise gfl.GflError(f"unexpected trailing text {rest!r}", line,
                           col + offset)

    return gfl.CallNode(ns, fn, label, predicate, outputs, is_outlet, line,
                        col, names)


def _split_outcome(split, text):
    try:
        return split(text, 3, 5)
    except gfl.GflError as err:
        return err.message, err.line, err.col


_CALL_HEADS = ("opt.filter", "model.BertNER", "opt.filter[f]",
               "opt.filter[f](a in xs)", "opt.merge[re](x == 'a:b')")
_TAIL_PIECES = (" ", "  ", "\t", "\n", "\x1c", "\u00a0", "->", "-> a", "->a,b",
                "-> ", ", b", "b ", ",", ",,", ":", " :", "::", "-", ">",
                "a", "x", "(", ")", "[", "a:b")


class TestCallTail:
    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(_CALL_HEADS),
           st.lists(st.sampled_from(_TAIL_PIECES), max_size=6).map("".join))
    def test_tail_pattern_reads_as_the_offset_code(self, head, tail):
        # Outputs, outlet, predicate and names, or message, line and column.
        assert _split_outcome(gfl._split_call, head + tail) == \
            _split_outcome(reference_split_call, head + tail)

    @pytest.mark.parametrize("tail, outputs, outlet", [
        ("", (), False), (" : ", (), True), ("-> a, b", ("a", "b"), False),
        (" ->a ,b :", ("a", "b"), True)])
    def test_outputs_and_outlet(self, tail, outputs, outlet):
        call = gfl._split_call("opt.filter[f](a in xs)" + tail, 2, 7)
        assert (call.outputs, call.is_outlet) == (outputs, outlet)

    @pytest.mark.parametrize("tail, message, col", [
        (" x:", "unexpected trailing text 'x:'", 19),
        (" ::", "unexpected trailing text '::'", 19),
        (" -> a, :", "bad output binding list 'a,'", 19),
        ("  -> a: b", "bad output binding list 'a: b'", 20)])
    def test_errors_keep_their_columns(self, tail, message, col):
        with pytest.raises(gfl.GflError) as err:
            gfl._split_call("opt.filter[f]" + tail, 2, 5)
        assert (err.value.message, err.value.col) == (message, col)


def random_opt_flowline(rng: random.Random, n: int) -> Flowline:
    """Random DAG of labeled integrate operators under a data entry."""
    ids = ["data"] + [f"integrate[x{i}]" for i in range(1, n)]
    edges = set()
    for i in range(1, n):
        for _ in range(rng.randint(1, 2)):
            edges.add((ids[rng.randrange(i)], ids[i]))
    with_out = {a for a, _ in edges}
    for i in range(1, n - 1):
        if ids[i] not in with_out:
            edges.add((ids[i], ids[n - 1]))

    def node(vid):
        if vid == "data":
            return TaskNode(id=vid, kind="operator",
                            config={"namespace": "opt", "function": "data"})
        label = vid[len("integrate["):-1]
        return TaskNode(id=vid, kind="operator",
                        config={"namespace": "opt", "function": "integrate",
                                "label": label})

    return Flowline.build([node(v) for v in ids], sorted(edges))


def assert_round_trip(fl: Flowline, written: dict[str, str]) -> str:
    """Check that ``fl`` formats to text that parses back to it, task ``t``
    as the vertex ``written[t]``: the same kinds, functions, predicates,
    outputs, bindings, edges, entry and exit; and that formatting the
    parsed flowline gives the same text, which is returned."""
    def facts(v):
        config = v.config
        return (v.kind, v.function, config.get("predicate"),
                list(config.get("outputs") or ()),
                {k: list(x)
                 for k, x in (config.get("bindings") or {}).items()})

    text = gfl.format_flowline(fl)
    back = gfl.parse(text)
    assert {v.id: facts(v) for v in back.vertices} == \
        {written[v.id]: facts(v) for v in fl.vertices}
    assert set(back.edges) == {(written[a], written[b]) for a, b in fl.edges}
    assert (back.entry, back.exit) == (written[fl.entry], written[fl.exit])
    assert gfl.format_flowline(back) == text
    return text


_ENTRY_FUNCTIONS = ("data", "filter", "BertNER", "BERTRE")
_TASK_FUNCTIONS = ("BertNER", "FastNER", "BERTRE", "LSTMRE", "filter",
                   "merge", "integrate", "permutate", "triple")
_BOUND_NAMES = ("XS", "YS", "ZS")  # upper case, so no _PRED_NAMES name
_OUTPUT_NAMES = ("ent", "ent_t", "rel", "a1")


@st.composite
def valid_flowlines(draw):
    """A random valid flowline of CE models, CC models and operators under
    a model or an operator entry, with ids in all three forms the formatter
    writes (the function, ``function[label]``, and an identifier that
    becomes the label) and a predicate, outputs and bindings on any task,
    the entry included; with the vertex id each task is written as. Each
    task's function is drawn among those its precursors can feed."""
    n = draw(st.integers(1, 8))
    definitions = draw(st.dictionaries(st.sampled_from(_BOUND_NAMES), st.lists(
        st.one_of(st.integers(-99, 99), st.text("ab '\"\\", max_size=4)),
        max_size=3)))
    preds = [sorted(set(draw(st.lists(st.integers(0, i - 1), min_size=1,
                                      max_size=2)))) for i in range(1, n)]
    preds.insert(0, [])
    fed = {p for ps in preds for p in ps}
    preds[-1] += [i for i in range(n - 1) if i not in fed]  # one exit

    tasks, edges, written, columns = [], [], {}, []

    def received(spec, i):
        feeds = [columns[p] for p in preds[i]] if i else [
            frozenset({registry.SAMPLE, registry.ANY})]
        return frozenset().union(*map(spec.received_columns, feeds))

    for i in range(n):
        specs = map(registry.spec, _TASK_FUNCTIONS if i else _ENTRY_FUNCTIONS)
        spec = draw(st.sampled_from(
            [s for s in specs if set(s.requires) <= received(s, i)]))
        columns.append(spec.output_columns(received(spec, i)))
        fn = spec.name
        tid = draw(st.sampled_from(
            (fn, f"{fn}[v{i}]", f"t{i}") if fn not in written.values()
            else (f"{fn}[v{i}]", f"t{i}")))
        written[tid] = tid if "[" in tid or tid == fn else f"{fn}[{tid}]"
        config = {"function": fn}
        if draw(st.booleans()):
            bound = draw(st.lists(st.sampled_from(_BOUND_NAMES), max_size=2))
            config["predicate"] = " and ".join(
                [draw(grammar_predicates())]
                + [f"{_OUTPUT_NAMES[0]} in {name}" for name in bound])
            if set(bound) & definitions.keys():
                config["bindings"] = {name: definitions[name]
                                      for name in bound if name in definitions}
        outputs = draw(st.lists(st.sampled_from(_OUTPUT_NAMES), max_size=3))
        if outputs:
            config["outputs"] = outputs
        kind = spec.family if spec.family in registry.PARADIGMS else "operator"
        tasks.append(TaskNode(tid, kind=kind, config=config))
        edges += [(tasks[p].id, tid) for p in preds[i]]
    fl = Flowline.build(tasks, edges)
    assert validate(fl).ok
    return fl, written


class TestFormat:
    def test_trivial_canonical_text(self):
        fl = gfl.parse(":data\n    | opt.triple:")
        assert gfl.format_flowline(fl) == ":data\n    | opt.triple:\n"

    def test_pipeline_round_trip_isomorphic(self):
        fl = gfl.parse(PIPELINE_SRC)
        text = gfl.format_flowline(fl)
        fl2 = gfl.parse(text)
        assert {v.id for v in fl2.vertices} == PIPELINE_VERTICES
        assert edge_set(fl2) == PIPELINE_EDGES

    def test_format_idempotent_on_pipeline(self):
        fl = gfl.parse(PIPELINE_SRC)
        once = gfl.format_flowline(fl)
        twice = gfl.format_flowline(gfl.parse(once))
        assert once == twice

    def test_round_trip_corpus(self):
        rng = random.Random(20240810)
        corpus = [gfl.parse(PIPELINE_SRC),
                  gfl.parse(":data\n    | opt.triple:")]
        corpus += [random_opt_flowline(rng, rng.randint(3, 10))
                   for _ in range(22)]
        for fl in corpus:
            assert_round_trip(fl, {v.id: v.id for v in fl.vertices})

    @pytest.mark.parametrize("shape", EXPERIMENT_SHAPES,
                             ids=lambda s: f"{s[0]}m{s[1]}o")
    def test_experiment_shapes_round_trip(self, shape):
        fl, _ = synthetic_flowline(*shape)
        text = assert_round_trip(fl, {
            v.id: v.id if v.id == v.function else f"{v.function}[{v.id}]"
            for v in fl.vertices})
        assert text.startswith(":model.BertNER[m0]\n")
        assert "    | opt.filter[b0f0]\n" in text

    @settings(max_examples=150, deadline=None)
    @given(valid_flowlines())
    def test_round_trip_property(self, case):
        assert_round_trip(*case)

    @pytest.mark.parametrize("task, text", [
        (TaskNode("data"), ":opt.data:\n"),
        (TaskNode("m0", kind="model-CE",
                  config={"function": "BertNER", "outputs": ["e"]}),
         ":model.BertNER[m0] -> e:\n"),
    ], ids=["operator", "model"])
    def test_one_task_flowline_writes_its_root_as_the_outlet(self, task,
                                                             text):
        fl = Flowline.build([task], [])
        assert assert_round_trip(fl, {"data": "data", "m0": "BertNER[m0]"}) \
            == text

    def test_a_labelled_controller_entry_is_written_as_a_call(self):
        fl = Flowline.build([TaskNode("data[v0]"), TaskNode("triple")],
                            [("data[v0]", "triple")])
        assert gfl.format_flowline(fl) == ":opt.data[v0]\n    | opt.triple:\n"

    def test_children_are_ordered_by_the_id_they_are_written_as(self):
        # "t1" sorts after "integrate[u]" but is written "integrate[t1]".
        fl = Flowline.build(
            [TaskNode("data"),
             TaskNode("t1", config={"function": "integrate"}),
             TaskNode("integrate[u]"), TaskNode("triple")],
            [("data", "t1"), ("data", "integrate[u]"), ("t1", "triple"),
             ("integrate[u]", "triple")])
        assert assert_round_trip(fl, {
            "data": "data", "t1": "integrate[t1]",
            "integrate[u]": "integrate[u]", "triple": "triple"}) == (
            ":data\n    | opt.integrate[t1]\n        | opt.triple:\n"
            "    | opt.integrate[u]\n        | opt.triple\n")

    def test_a_chain_deeper_than_the_recursion_limit_round_trips(self):
        ids = ["data", *(f"integrate[c{i}]" for i in range(1500)), "triple"]
        fl = Flowline.build([TaskNode(i) for i in ids], zip(ids, ids[1:]))
        assert_round_trip(fl, {i: i for i in ids})

    def test_a_task_the_entry_does_not_reach_is_refused(self):
        fl = Flowline(
            (TaskNode("data"), TaskNode("start"), TaskNode("merge[m]"),
             TaskNode("triple")),
            (("data", "merge[m]"), ("start", "merge[m]"),
             ("merge[m]", "triple")), "data", "triple")
        with pytest.raises(gfl.GflError) as err:
            gfl.format_flowline(fl)
        assert err.value.message == ("tasks ['start'] are not reached from "
                                     "the entry 'data'")

    @pytest.mark.parametrize("task", [
        TaskNode("x-y", config={"function": "filter"}),
        TaskNode("filter[1x]"),
        TaskNode("filter[a]b"),
        TaskNode("x-y"),
    ], ids=["id", "label", "after-label", "function"])
    def test_an_id_that_is_no_call_is_refused(self, task):
        fl = Flowline.build([TaskNode("data"), task], [("data", task.id)])
        with pytest.raises(gfl.GflError) as err:
            gfl.format_flowline(fl)
        assert err.value.message == \
            f"task {task.id!r} cannot be written as a GFL call"

    def test_two_tasks_written_alike_are_refused(self):
        fl = Flowline.build(
            [TaskNode("data"), TaskNode("filter[a]"),
             TaskNode("a", config={"function": "filter"}),
             TaskNode("triple")],
            [("data", "filter[a]"), ("data", "a"), ("filter[a]", "triple"),
             ("a", "triple")])
        with pytest.raises(gfl.GflError) as err:
            gfl.format_flowline(fl)
        assert err.value.message == ("tasks 'filter[a]' and 'a' would both "
                                     "be written as 'filter[a]'")

    def test_bindings_emitted_first_and_sorted(self):
        src = ("zs := ['z']\n"
               "names := ['n', 'm']\n"
               ":data\n"
               "    | opt.filter[a](x in names)\n"
               "        | opt.filter[b](y in zs)\n"
               "            | opt.triple:\n")
        text = gfl.format_flowline(gfl.parse(src))
        lines = text.splitlines()
        assert lines[0] == "names := ['m', 'n']" or lines[0] == "names := ['n', 'm']"
        assert lines[1].startswith("zs := ")
        assert lines[2] == ":data"


    def test_inconsistent_bindings_rejected(self):
        fl = Flowline.build(
            [TaskNode("data"),
             TaskNode("filter[a]", config={"bindings": {"xs": [1]}}),
             TaskNode("filter[b]", config={"bindings": {"xs": [2]}})],
            [("data", "filter[a]"), ("filter[a]", "filter[b]")])
        with pytest.raises(gfl.GflError) as err:
            gfl.format_flowline(fl)
        assert err.value.message == ("binding 'xs' defined inconsistently "
                                     "across vertices")

    @staticmethod
    def _two_filters(a_config, b_config):
        return Flowline.build(
            [TaskNode("data"), TaskNode("filter[a]", config=a_config),
             TaskNode("filter[b]", config=b_config), TaskNode("triple")],
            [("data", "filter[a]"), ("filter[a]", "filter[b]"),
             ("filter[b]", "triple")])

    def test_bindings_that_parse_back_alike_round_trip(self):
        fl = self._two_filters(
            {"predicate": "x in XS", "bindings": {"XS": [1]}},
            {"predicate": "y in XS or y in YS", "bindings": {"XS": [1]}})
        assert assert_round_trip(fl, {v.id: v.id for v in fl.vertices}) \
            .startswith("XS := [1]\n:data\n")

    @pytest.mark.parametrize("a_config, b_config, message", [
        # parse would bind XS on filter[a] too.
        ({"predicate": "x in XS"},
         {"predicate": "y in XS", "bindings": {"XS": [1]}},
         "task 'filter[a]' does not bind ['XS'], which its predicate uses "
         "and another task binds"),
        # parse would drop XS from filter[b].
        ({"predicate": "x in XS", "bindings": {"XS": [1]}},
         {"predicate": "y in YS", "bindings": {"XS": [1]}},
         "task 'filter[b]' binds ['XS'], which its predicate does not use"),
        ({"bindings": {"XS": [1]}}, {},
         "task 'filter[a]' binds ['XS'], which its predicate does not use"),
        ({"predicate": "x in"}, {},
         "task 'filter[a]': predicate: unexpected token ')'"),
    ], ids=["unbound-use", "unused-binding", "no-predicate", "bad-predicate"])
    def test_bindings_that_would_not_parse_back_are_refused(
            self, a_config, b_config, message):
        fl = self._two_filters(a_config, b_config)
        with pytest.raises(gfl.GflError) as err:
            gfl.format_flowline(fl)
        assert err.value.message == message


class TestDot:
    def test_trivial_counts(self):
        fl = gfl.parse(":data\n    | opt.triple:")
        dot = gfl.emit_dot(fl)
        node_lines = [l for l in dot.splitlines() if "[shape=" in l]
        edge_lines = [l for l in dot.splitlines() if " -> " in l]
        assert len(node_lines) == 2
        assert len(edge_lines) == 1

    def test_pipeline_counts_match_pipes(self):
        fl = gfl.parse(PIPELINE_SRC)
        dot = gfl.emit_dot(fl)
        node_lines = [l for l in dot.splitlines() if "[shape=" in l]
        edge_lines = [l for l in dot.splitlines() if " -> " in l]
        assert len(node_lines) == 10
        assert len(edge_lines) == 10
        assert '"BertNER" [shape=ellipse]' in dot

    def test_no_attribute_clutter(self):
        fl = gfl.parse(":data\n    | opt.triple:")
        dot = gfl.emit_dot(fl)
        assert '"triple" [shape=box];' in dot

    def test_deterministic(self):
        fl = gfl.parse(PIPELINE_SRC)
        assert gfl.emit_dot(fl) == gfl.emit_dot(fl)

    def test_quotes_and_backslashes_are_escaped(self):
        fl = Flowline.build([TaskNode('x"y', label='say "hi"'),
                             TaskNode("a\\b")], [('x"y', "a\\b")])
        lines = gfl.emit_dot(fl).splitlines()
        assert '    "x\\"y" [shape=box, label="say \\"hi\\""];' in lines
        assert '    "a\\\\b" [shape=box];' in lines
        assert '    "x\\"y" -> "a\\\\b";' in lines


# --- pinned parse outcomes ---------------------------------------------------
#
# A seeded corpus of valid and broken sources, each parsed and its outcome
# hashed: the flowline (vertices with kind, label and config, then edges,
# entry and exit) or the error (message, line, column). The digests were
# generated before the parser kept one record per vertex, and the parse
# digest re-pinned, on that same older parser, when vertices stopped copying
# their registry family and resource class; so any change to what some
# source parses to, or to which error it reports first (a lex error anywhere
# goes ahead of a graph error), shows here. All three were re-pinned when a
# list literal started to require a comma between items: 10 sources with a
# list such as [x'z'] changed outcome, 5 of them from accepted to rejected.
# The parse digest was re-pinned when a predicate came to be lexed once,
# inside its call: 24 predicate errors changed message or column, and
# nothing that parses changed; and again when a binding's value began to be
# read from its own column: 60 binding errors moved right; and again when a
# cycle finding came to name the tasks on the cycle: all 35 cycle errors
# moved from the entry to the first call of such a task, message unchanged.

SMALL_SOURCES = (
    ":data\n    | opt.triple:",
    ":data\n    | opt.integrate[a]\n        | opt.merge[m]\n"
    "    | opt.integrate[b]\n        | opt.merge[m]\n"
    "            | opt.triple:\n",
    ":data\n    | opt.integrate[a]\n        | opt.integrate[b]\n"
    "            | opt.integrate[a]\n                | opt.triple:\n",
    ":data\n        | opt.integrate[a]\n                | opt.triple:\n",
    "zs := ['z']\nnames := ['n', 'm']\n:data\n"
    "    | opt.filter[a](x in names)\n"
    "        | opt.filter[b](y in zs)\n            | opt.triple:\n",
    ":start\n    | model.FastNER -> e, t\n        | opt.permutate\n"
    "            | model.KeywordRE(score == 1 or t != 'X')\n"
    "                | opt.triple:\n",
    "xs := ['a']\n:data\n    | opt.filter[f](x in xs) -> a, b\n"
    "        | opt.merge[m]\n    | opt.filter[f] -> a, b\n"
    "        | opt.integrate[i]\n            | opt.merge[m]\n"
    "                | opt.triple:\n",
)

# Fragments the mutator splices into lines; it also swaps one word for
# another.
_WORDS = ("opt.", "model.", "ops.", "filter", "merge", "integrate", "triple",
          "permutate", "BertNER", "BERTRE", "LSTMRE", "frobnicate", "data")
_TOKENS = _WORDS + (
    "[a]", "[re]", "[1x]", "[]", "(ent_t in filtered_ent)",
    "(x not in ['a', 'b'])", "(a in (b", "(a $ b)", " -> a, b",
    " -> ent, ent_t", " -> 1x", "(x in xs)", " -> a", ":", "|", "    ", "\t",
    "  ", ",", ")")
_LINES = ("xs := [1, 'a', 2.5]", "filtered_ent := ['PER']", "ys := 3",
          ":data", ":start", "    | opt.integrate[z]", "    | opt.triple:",
          "        | opt.merge[re]", "            | model.LSTMRE",
          "\t| opt.end", "", "   ")


def _mutate(rng: random.Random, lines: list[str]) -> list[str]:
    """One random edit: insert a stock line; delete, copy or swap lines;
    shift an indent; toggle the outlet colon; splice in a fragment or swap
    a word; cut a few characters; flip the namespace; or add a predicate or
    outputs to a call."""
    lines = list(lines)
    op = rng.randrange(11)
    i = rng.randrange(len(lines)) if lines else 0
    if not lines or op == 0:
        lines.insert(i, rng.choice(_LINES))
    elif op == 1:
        del lines[i]
    elif op == 2:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif op == 3:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 4:
        shift = rng.choice((-4, 4, 2, -1, 8))
        body = lines[i].lstrip(" ")
        indent = len(lines[i]) - len(body)
        lines[i] = " " * max(0, indent + shift) + body
    elif op == 5:
        lines[i] = (lines[i][:-1] if lines[i].endswith(":")
                    else lines[i] + ":")
    elif op == 6:
        pos = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:pos] + rng.choice(_TOKENS) + lines[i][pos:]
    elif op == 7:
        old = rng.choice(_WORDS)
        if old in lines[i]:
            lines[i] = lines[i].replace(old, rng.choice(_WORDS), 1)
        else:
            lines[i] = lines[i].replace("[", "[x", 1)
    elif op == 8:
        pos = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:pos] + lines[i][pos + rng.randint(1, 4):]
    elif op == 9:
        lines[i] = (lines[i].replace("opt.", "model.") if "opt." in lines[i]
                    else lines[i].replace("model.", "opt."))
    else:
        extra = rng.choice(("(x in xs)", "(y in xs)", " -> a", " -> b, a"))
        pos = len(lines[i].rstrip(":"))
        if extra.startswith("(") and "]" in lines[i]:
            pos = lines[i].index("]") + 1
        lines[i] = lines[i][:pos] + extra + lines[i][pos:]
    return lines


def gfl_corpus(seed: int = 7, mutants: int = 2000) -> list[str]:
    """The running pipeline, small hand-written and formatted random
    sources, and seeded one- to three-edit mutations of them."""
    rng = random.Random(seed)
    bases = [PIPELINE_SRC, *SMALL_SOURCES,
             gfl.format_flowline(gfl.parse(PIPELINE_SRC))]
    bases += [gfl.format_flowline(random_opt_flowline(rng, rng.randint(3, 9)))
              for _ in range(24)]
    corpus = list(bases)
    for _ in range(mutants):
        lines = rng.choice(bases[:9] if rng.random() < 0.6 else bases
                           ).splitlines()
        for _ in range(rng.randint(1, 3)):
            lines = _mutate(rng, lines)
        corpus.append("\n".join(lines) + rng.choice(("\n", "")))
    return corpus


def _outcome(src: str) -> tuple[str, Flowline | None]:
    try:
        fl = gfl.parse(src)
    except gfl.GflError as err:
        return repr(("GflError", err.message, err.line, err.col)), None
    except Exception as err:  # pinned too: parse should never raise these
        return repr((type(err).__name__, str(err))), None
    vertices = [(v.id, v.kind, v.label, json.dumps(v.config, sort_keys=True))
                for v in fl.vertices]
    return repr((vertices, fl.edges, fl.entry, fl.exit)), fl


PINNED_COUNTS = (279, 1754)  # (accepted, rejected)
PINNED_PARSE_DIGEST = \
    "95df78c74beff81324e1b7cdb17b7ed836050c335e3882994438b028146166ab"
PINNED_TEXT_DIGEST = \
    "03edc4d28d2141186a8011343a5f989902980a0edd7bf5e818bf5919ac325e50"


@pytest.fixture(scope="module")
def corpus_outcomes():
    return [_outcome(src) for src in gfl_corpus()]


class TestPinnedCorpus:
    def test_corpus_mixes_accepted_and_rejected(self, corpus_outcomes):
        accepted = sum(fl is not None for _, fl in corpus_outcomes)
        assert len(corpus_outcomes) >= 2000
        assert (accepted, len(corpus_outcomes) - accepted) == PINNED_COUNTS

    def test_parse_outcomes_pinned(self, corpus_outcomes):
        h = hashlib.sha256()
        for key, _ in corpus_outcomes:
            h.update(key.encode() + b"\n")
        assert h.hexdigest() == PINNED_PARSE_DIGEST

    def test_format_and_dot_pinned(self, corpus_outcomes):
        h = hashlib.sha256()
        for _, fl in corpus_outcomes:
            if fl is not None:
                h.update(gfl.format_flowline(fl).encode())
                h.update(gfl.emit_dot(fl).encode())
        assert h.hexdigest() == PINNED_TEXT_DIGEST
