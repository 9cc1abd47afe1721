"""Graphic Flowline Language: parse, canonical formatting, DOT export.

GFL is the textual twin of the visual flowline designer. ``:=`` binds a name
to a literal list, the root line opens the unique entry, ``|`` pipes data
from the enclosing (less indented) call into the nested one, and the single
call suffixed ``:`` is the outlet. A call is ``namespace.function`` with an
optional ``[label]`` instance tag, an optional ``(...)`` predicate, and an
optional ``-> a, b`` output binding list. The root is a bare ``:<name>``,
the operator ``opt.<name>``, or a call with its namespace written out, such
as ``:model.BertNER[m0]``, which may be the outlet too. A predicate is
checked against its grammar and read for the names it uses, which is how a
vertex picks up the bindings it needs; kgflow never evaluates one, so
``and`` and ``or`` form one level. A predicate is lexed once, inside its
call: one parser reads it token by token, stops at the ``)`` that closes it,
and reports an error at the column of the token that raised it. Two calls
with the same (namespace, function, label) denote the same DAG vertex; a
repeated call adds an in-edge, except directly under the entry where a
repetition merely re-opens the vertex to continue its pipeline.

Indentation is significant: spaces only, one level per nesting step, using
any consistent multiple of four spaces.

A call's vertex id is ``function`` or ``function[label]``, so
``format_flowline`` writes a task whose id is neither, ``b0f0`` running
``filter``, with the id as its label: ``opt.filter[b0f0]``.

``parse`` lexes every line before it builds the graph, so a lex error
anywhere in the text is reported ahead of a graph error (an over-indented
pipe, a label or outlet conflict, or a validation finding).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter
from typing import Any

from . import registry
from .flowline import KIND_OPERATOR, Flowline, TaskNode, validate

NAMESPACE_MODEL = "model"
NAMESPACE_OPT = "opt"

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RX = re.compile(_IDENT)


class GflError(ValueError):
    """Parse or format failure, carrying a source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


# --- predicate mini-language -------------------------------------------------
#
# expr    := cmp (('and' | 'or') cmp)*
# cmp     := operand (('in' | 'not in' | '==' | '!=') operand)?
# operand := IDENT | STRING | NUMBER | list | '(' expr ')'
# list    := '[' (item (',' item)* ','?)? ']'
# item    := IDENT | STRING | NUMBER
#
# Identifiers name row columns (or their `->` aliases) and document bindings;
# a name inside a list is a string item. kgflow checks a predicate against
# this grammar and reads the names it uses, and never evaluates it, so `and`
# and `or` form one level. A predicate is lexed once, inside its call: the
# parser reads `'(' expr ')'` from the call's text a token at a time and
# stops just after the matching `)`. The end of the text, an outlet `:` and
# an output list's `->` each end the predicate.

_TOKEN_RX = re.compile(
    r"\s*(?:(?P<string>'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")"
    r"|(?P<number>-?\d+(?:\.\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<sym>==|!=|\[|\]|\(|\)|,)"
    r"|(?P<end>$|:|->)|(?P<bad>.))")
_KEYWORDS = ("in", "not", "and", "or")
_MAX_NESTING = 100  # parentheses inside one predicate


class _PredParser:
    """Recursive descent over ``text`` from offset ``pos``; ``text[0]`` is
    at column ``col``. A token is lexed when the parser first looks at it,
    so nothing past the last token it needs is read. Collects the names the
    predicate uses (its ``ref`` tokens outside lists) in ``names``."""

    def __init__(self, text: str, line: int, col: int, pos: int = 0):
        self.text = text
        self.line = line
        self.col = col
        self.pos = pos  # where the next token's lexing starts
        self.at = pos  # offset of the token looked at last
        self.tok: tuple[str | None, Any] | None = None
        self.depth = 0
        self.names: set[str] = set()

    def error(self, msg):
        raise GflError(f"predicate: {msg}", self.line, self.col + self.at)

    def peek(self) -> tuple[str | None, Any]:
        if self.tok is None:
            m = _TOKEN_RX.match(self.text, self.pos)
            kind = m.lastgroup
            raw = m.group(kind)
            self.at, self.pos = m.start(kind), m.end()
            if kind == "bad":
                raise GflError(f"bad predicate character {raw!r}",
                               self.line, self.col + self.at)
            if kind == "string":
                self.tok = ("lit", raw[1:-1].replace("\\'", "'")
                            .replace('\\"', '"').replace("\\\\", "\\"))
            elif kind == "number":
                self.tok = ("lit", float(raw) if "." in raw else int(raw))
            elif kind == "ident":
                self.tok = ("kw" if raw in _KEYWORDS else "ref", raw)
            else:  # the end is (None, "") or (None, ':' or '->')
                self.tok = (None if kind == "end" else kind, raw)
        return self.tok

    def take(self):
        tok = self.peek()
        self.tok = None
        return tok

    def expect_sym(self, sym):
        if self.take() != ("sym", sym):
            self.error(f"expected {sym!r}")

    def predicate(self) -> str:
        """Read a call's ``'(' expr ')'``; return the text between them."""
        start = self.pos
        self.expect_sym("(")
        self.expr()
        self.expect_sym(")")
        return self.text[start + 1:self.at]

    def expr(self):
        self.cmp()
        while self.peek() in (("kw", "and"), ("kw", "or")):
            self.take()
            self.cmp()

    def cmp(self):
        self.operand()
        kind, val = self.peek()
        if kind == "kw" and val == "not":
            self.take()
            if self.take() != ("kw", "in"):
                self.error("expected 'in' after 'not'")
            self.operand()
        elif (kind, val) in (("kw", "in"), ("sym", "=="), ("sym", "!=")):
            self.take()
            self.operand()

    def operand(self) -> tuple | None:
        """Consume one operand; a list returns its items, else None."""
        kind, val = self.take()
        if kind == "ref":
            self.names.add(val)
        elif kind == "sym" and val == "[":
            items = []
            while self.peek() != ("sym", "]"):
                tok_kind, tok_val = self.take()
                if tok_kind is None:
                    self.error("expected ']'")
                if tok_kind not in ("lit", "ref"):
                    self.error("lists may only contain literals")
                items.append(tok_val)
                after = self.peek()
                if after == ("sym", ","):
                    self.take()
                elif after[0] is not None and after != ("sym", "]"):
                    self.error("expected ',' or ']'")
            self.take()  # closing ]
            return tuple(items)
        elif kind == "sym" and val == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                self.error(f"parentheses nested deeper than {_MAX_NESTING}")
            self.expr()
            self.expect_sym(")")
            self.depth -= 1
        elif kind is None:
            self.error("unexpected end of predicate")
        elif kind != "lit":
            self.error(f"unexpected token {val!r}")
        return None


# --- parsing -----------------------------------------------------------------

@dataclass(frozen=True)
class CallNode:
    """One call in the source text; ``parse`` keeps one per vertex."""

    namespace: str
    function: str
    instance_label: str | None
    predicate: str | None
    outputs: tuple[str, ...]
    is_outlet: bool
    line: int
    col: int
    names: frozenset[str] = frozenset()  # the names ``predicate`` uses

    @property
    def vertex_id(self) -> str:
        if self.instance_label:
            return f"{self.function}[{self.instance_label}]"
        return self.function


_CALL_RX = re.compile(
    rf"(?P<ns>{_IDENT})\.(?P<fn>{_IDENT})"
    rf"(?:\[(?P<label>[^\]]*)\])?")
# What follows a call's head and predicate: an optional `->` output list, an
# optional outlet `:`, then the end; anything else is trailing text, which
# the second branch reads without its surrounding whitespace.
_TAIL_RX = re.compile(
    r"\s*(?:(?P<arrow>->)(?P<outputs>.*?))?\s*(?P<outlet>:)?\s*\Z"
    r"|\s*(?P<rest>.+?)\s*\Z", re.DOTALL)
_BINDING_RX = re.compile(rf"^(?P<name>{_IDENT})\s*:=\s*(?P<rest>.+)$")
# The root is `:name`, the call `opt.name`, or `:` and a call whose
# `model.` or `opt.` namespace is written out, read as a pipe's call is.
_ROOT_RX = re.compile(rf"^:(?P<name>{_IDENT})\s*$")
_ROOT_CALL = (f":{NAMESPACE_MODEL}.", f":{NAMESPACE_OPT}.")
_VERTEX_ID_RX = re.compile(rf"{_IDENT}(?:\[{_IDENT}\])?")


def _parse_literal_list(text: str, line: int, col: int) -> tuple:
    stripped = text.strip()
    if stripped.startswith("[") and stripped.endswith("]"):
        parser = _PredParser(text, line, col)
        items = parser.operand()
        if parser.peek() == (None, ""):
            return items
    raise GflError("binding value must be a [...] literal list", line, col)


def _split_call(text: str, line: int, col: int) -> CallNode:
    """Parse one `ns.fn[label](pred) -> a, b:` call expression."""
    m = _CALL_RX.match(text)
    if m is None:
        raise GflError(f"expected a namespace.function call, got {text!r}",
                       line, col)
    ns, fn, label = m.group("ns"), m.group("fn"), m.group("label")
    if ns not in (NAMESPACE_MODEL, NAMESPACE_OPT):
        raise GflError(f"unknown namespace {ns!r}", line, col)
    if label is not None and not _IDENT_RX.fullmatch(label):
        raise GflError(f"instance label {label!r} is not an identifier",
                       line, col + m.start("label"))
    pos = m.end()
    predicate, names = None, frozenset()
    if text.startswith("(", pos):
        parser = _PredParser(text, line, col, pos)
        predicate = parser.predicate()
        names, pos = frozenset(parser.names), parser.pos

    tail = _TAIL_RX.match(text, pos)
    if tail["rest"]:
        raise GflError(f"unexpected trailing text {tail['rest']!r}", line,
                       col + tail.start("rest"))
    outputs: tuple[str, ...] = ()
    if tail["arrow"]:
        outputs = tuple(n.strip() for n in tail["outputs"].split(","))
        if any(not _IDENT_RX.fullmatch(n) for n in outputs):
            raise GflError(
                f"bad output binding list {tail['outputs'].strip()!r}", line,
                col + tail.start("arrow"))
    return CallNode(ns, fn, label, predicate, outputs,
                    tail["outlet"] is not None, line, col, names)


def _node_kind(namespace: str, function: str) -> str:
    """A model call's registered paradigm (an unregistered model is a
    classifier until ``validate`` reports it), else an operator."""
    if namespace != NAMESPACE_MODEL:
        return KIND_OPERATOR
    family = getattr(registry.spec(function), "family", None)
    return family if family in registry.PARADIGMS else registry.MODEL_CC


def parse(text: str) -> Flowline:
    """Parse GFL source into a validated flowline.

    Raises GflError (with line/column) on lex errors, unknown namespaces,
    conflicting labels, or if the resulting graph fails flowline validation.
    """
    definitions: dict[str, tuple] = {}
    entry: CallNode | None = None
    lexed: list[tuple[int, CallNode]] = []  # (nesting depth, call)
    indent_unit: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if stripped.startswith("\t"):
            raise GflError("tabs are not allowed in indentation", lineno, 1)
        if entry is None:
            if indent != 0:
                raise GflError("indentation before the pipeline root",
                               lineno, 1)
            m = _BINDING_RX.match(stripped)
            if m:
                name = m.group("name")
                if name in definitions:
                    raise GflError(f"duplicate binding {name!r}", lineno, 1)
                definitions[name] = _parse_literal_list(
                    m.group("rest"), lineno, m.start("rest") + 1)
                continue
            if stripped.startswith(_ROOT_CALL):
                entry = _split_call(stripped[1:], lineno, 2)
                continue
            m = _ROOT_RX.match(stripped)
            if m:
                entry = _split_call(f"{NAMESPACE_OPT}.{m['name']}", lineno, 1)
                continue
            raise GflError("expected a binding or the ':<entry>' root",
                           lineno, 1)
        # Pipeline body.
        if indent == 0:
            raise GflError("only one pipeline root is allowed", lineno, 1)
        if indent_unit is None:
            if indent % 4 != 0:
                raise GflError("indentation must be a multiple of 4 spaces",
                               lineno, 1)
            indent_unit = indent
        if indent % indent_unit != 0:
            raise GflError(
                f"inconsistent indentation (unit is {indent_unit} spaces)",
                lineno, 1)
        if not stripped.startswith("|"):
            raise GflError("pipeline lines must start with '|'", lineno,
                           indent + 1)
        body = stripped[1:].strip()
        col = indent + 1 + (len(stripped) - len(stripped[1:].lstrip()))
        lexed.append((indent // indent_unit, _split_call(body, lineno, col)))
    if entry is None:
        raise GflError("no ':<entry>' root found", 1, 1)

    # Each vertex's first call, with predicates and outputs merged in from
    # its repetitions; edges in insertion order.
    calls: dict[str, CallNode] = {entry.vertex_id: entry}
    edges: dict[tuple[str, str], None] = {}
    stack: list[str] = [entry.vertex_id]
    outlet = entry.vertex_id if entry.is_outlet else None
    for depth, call in lexed:
        if depth > len(stack):
            raise GflError("over-indented pipe (skips a nesting level)",
                           call.line, call.col)
        parent = stack[depth - 1]
        vid = call.vertex_id
        first = calls.get(vid)
        if first is None:
            calls[vid] = call
            edges[parent, vid] = None
        else:
            if first.namespace != call.namespace:
                raise GflError(
                    f"label conflict: {vid!r} already defined in namespace "
                    f"{first.namespace!r}", call.line, call.col)
            if call.predicate is not None and \
                    first.predicate not in (None, call.predicate):
                raise GflError(
                    f"conflicting predicate for repeated call {vid!r}",
                    call.line, call.col)
            if call.outputs and first.outputs not in ((), call.outputs):
                raise GflError(
                    f"conflicting output bindings for repeated call {vid!r}",
                    call.line, call.col)
            calls[vid] = replace(first,
                                 predicate=first.predicate or call.predicate,
                                 names=first.names | call.names,
                                 outputs=first.outputs or call.outputs)
            # A repetition directly under the entry re-opens the vertex to
            # continue its pipeline; it does not pipe the corpus into it.
            if parent != entry.vertex_id:
                edges[parent, vid] = None
        if call.is_outlet:
            if outlet is not None and outlet != vid:
                raise GflError(
                    f"multiple outlets: {outlet!r} and {vid!r}",
                    call.line, call.col)
            outlet = vid
        del stack[depth:]
        stack.append(vid)

    if outlet is None:
        raise GflError("no outlet: exactly one call must end with ':'",
                       entry.line, 1)

    nodes = []
    for vid, call in calls.items():
        config: dict[str, Any] = {
            "namespace": call.namespace,
            "function": call.function,
        }
        if call.instance_label:
            config["label"] = call.instance_label
        if call.predicate is not None:
            config["predicate"] = call.predicate
            bound = sorted(call.names & definitions.keys())
            if bound:
                config["bindings"] = {n: list(definitions[n]) for n in bound}
        if call.outputs:
            config["outputs"] = list(call.outputs)
        nodes.append(TaskNode(id=vid, label=call.function, config=config,
                              kind=_node_kind(call.namespace, call.function)))

    flowline = Flowline(tuple(nodes), tuple(edges), entry.vertex_id, outlet)
    report = validate(flowline)
    if not report.ok:
        # Point at the first call among the tasks the finding names, else
        # at the entry.
        finding = report.violations[0]
        at = next((c for vid, c in calls.items() if vid in finding.tasks),
                  entry)
        raise GflError(f"invalid flowline: {finding}", at.line, at.col)
    return flowline


# --- canonical formatting ----------------------------------------------------

def _format_literal(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return repr(value)


def _vertex_id(node: TaskNode) -> str:
    """The vertex id a task is written as: its own id if that is its
    function or ``function[label]``, else ``function[<task id>]``."""
    function = node.function
    vid = (node.id if node.id.split("[", 1)[0] == function
           else f"{function}[{node.id}]")
    if not _VERTEX_ID_RX.fullmatch(vid):
        raise GflError(f"task {node.id!r} cannot be written as a GFL call")
    return vid


def format_flowline(flowline: Flowline) -> str:
    """Render a flowline as canonical GFL.

    Deterministic: bindings first (sorted), four-space indents, children in
    vertex-id order, each vertex expanded at its first occurrence, and
    cross-edges into entry-level siblings emitted as trailing continuation
    blocks. A root that is not a bare operator is written as a call.

    A task id other than the function or ``function[label]`` becomes the
    label, ``m1`` running ``BERTRE`` is written ``model.BERTRE[m1]``, and
    ``parse(format_flowline(f))`` equals ``f`` under that id map and
    formats to the same text. Raises GflError naming the task for an id
    that is not an identifier either, two tasks written alike, a task the
    entry does not reach, or bindings that would not parse back: a task
    whose predicate names a list another task binds but that does not bind
    it, or a task that binds a name its predicate does not use.
    """
    tasks: dict[str, TaskNode] = {}  # vertex id -> the task written as it
    bindings: dict[str, tuple] = {}
    for v in flowline.vertices:
        vid = _vertex_id(v)
        if tasks.setdefault(vid, v) is not v:
            raise GflError(f"tasks {tasks[vid].id!r} and {v.id!r} would both "
                           f"be written as {vid!r}")
        for name, value in (v.config.get("bindings") or {}).items():
            value = tuple(value)
            if name in bindings and bindings[name] != value:
                raise GflError(
                    f"binding {name!r} defined inconsistently across vertices")
            bindings[name] = value
    # ``parse`` binds each list that a task's predicate names to that task.
    for v in flowline.vertices:
        names: set[str] = set()
        if v.config.get("predicate") is not None:
            parser = _PredParser(f"({v.config['predicate']})", 0, 0)
            try:
                parser.predicate()
            except GflError as err:
                raise GflError(f"task {v.id!r}: {err.message}") from None
            names = parser.names
        bound = (v.config.get("bindings") or {}).keys()
        missing = sorted(names & (bindings.keys() - bound))
        if missing:
            raise GflError(f"task {v.id!r} does not bind {missing}, which "
                           "its predicate uses and another task binds")
        unused = sorted(bound - names)
        if unused:
            raise GflError(f"task {v.id!r} binds {unused}, which its "
                           "predicate does not use")
    written = {v.id: vid for vid, v in tasks.items()}
    successors = {written[t]: sorted(written[c] for c in children)
                  for t, children in flowline.successors.items()}
    entry, exit = written[flowline.entry], written[flowline.exit]

    def call(vid: str, first: bool = False) -> str:
        """The call of ``vid``: at its first occurrence with its details,
        and with the outlet marker if it is the exit."""
        task = tasks[vid]
        text = f"{NAMESPACE_MODEL if task.is_model else NAMESPACE_OPT}.{vid}"
        if first:
            predicate = task.config.get("predicate")
            if predicate is not None:
                text += f"({predicate})"
            outputs = task.config.get("outputs") or ()
            if outputs:
                text += " -> " + ", ".join(outputs)
            if vid == exit:
                text += ":"
        return text

    lines: list[tuple[int, str]] = []  # (depth, call)
    expanded: set[str] = set()
    entry_children = set(successors[entry])
    deferred: list[tuple[str, str]] = []

    # Depth first, children in order, each task settled when it is reached;
    # a stack of (depth, parent, task), so no chain is too deep for it.
    stack = [(1, entry, child) for child in reversed(successors[entry])]
    while stack:
        depth, parent, vid = stack.pop()
        if vid in expanded:
            lines.append((depth, call(vid)))
        elif vid in entry_children and parent != entry:
            deferred.append((parent, vid))
        else:
            lines.append((depth, call(vid, True)))
            expanded.add(vid)
            stack += [(depth + 1, vid, child)
                      for child in reversed(successors[vid])]
    unreached = sorted(tasks[vid].id for vid in tasks.keys() - expanded
                       if vid != entry)
    if unreached:
        raise GflError(f"tasks {unreached} are not reached from the entry "
                       f"{flowline.entry!r}")

    for parent, pairs in groupby(sorted(deferred), key=itemgetter(0)):
        lines.append((1, call(parent)))
        lines += [(2, call(child)) for _, child in pairs]

    root = call(entry, True)
    if root == f"{NAMESPACE_OPT}.{tasks[entry].function}":
        root = entry  # a bare root
    out = [" " * (4 * depth) + "| " + text for depth, text in lines]
    header = [f"{name} := [" + ", ".join(_format_literal(v) for v in values) + "]"
              for name, values in sorted(bindings.items())]
    return "\n".join(header + [f":{root}"] + out) + "\n"


# --- DOT export ---------------------------------------------------------------

_DOT_SHAPES = {True: "ellipse", False: "box"}


def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string, its ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(flowline: Flowline, name: str = "flowline") -> str:
    """Render the flowline as a Graphviz digraph (deterministic ordering)."""
    lines = [f"digraph {name} {{", "    rankdir=LR;"]
    for v in sorted(flowline.vertices, key=lambda v: v.id):
        attrs = [f"shape={_DOT_SHAPES[v.is_model]}"]
        if v.label and v.label != v.id:
            attrs.append(f"label={_dot_string(v.label)}")
        lines.append(f'    {_dot_string(v.id)} [{", ".join(attrs)}];')
    for a, b in sorted(flowline.edges):
        lines.append(f"    {_dot_string(a)} -> {_dot_string(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
