"""The one table of task functions, built-in operators and IE models alike.

Each row is an ``OpSpec``: a function's family, the columns it consumes and
produces, and whether unconsumed columns pass through. A model's family is
its paradigm, the string a model vertex's ``TaskNode.kind`` carries, and its
columns follow from it. Flowline validation and GFL parsing read this table
and nothing else. A programmable operator is registered with its own
contract, ``register(OpSpec("dedupe", FILTER, (ENTITY,)))``, and a model
with its paradigm's, ``register(model("SpanNER", MODEL_CE))``.
"""

from __future__ import annotations

from dataclasses import dataclass

# Canonical column names carried by records.
SAMPLE = "sample"
ENTITY = "entity"
ENTITY_TYPE = "entity_type"
ENTITY_PAIR = "entity_pair"
RELATION = "relation_category"
TRIPLE = "triple"
SCORE = "meta.score"

ANY = "*"

# Operator families.
FILTER = "filter"
MAPPER = "mapper"
INTEGRATOR = "integrator"
CONSTRUCTOR = "constructor"
CONTROLLER = "controller"

# Model families, one per paradigm: a chunk extractor (a set of spans per
# row) and a classifier (one label per row), with their (inputs, outputs).
MODEL_CE = "model-CE"
MODEL_CC = "model-CC"
PARADIGMS = {
    MODEL_CE: ((SAMPLE,), (ENTITY, ENTITY_TYPE)),
    MODEL_CC: ((SAMPLE, ENTITY_PAIR), (RELATION, SCORE)),
}
FAMILIES = (FILTER, MAPPER, INTEGRATOR, CONSTRUCTOR, CONTROLLER, *PARADIGMS)


@dataclass(frozen=True)
class OpSpec:
    """Column contract of one task function.

    ``requires`` are the columns that must be present on incoming rows.
    ``outputs`` are the columns the function produces. A carrying function
    (filters, mappers, integrators) receives and passes whole rows; a
    non-carrying one (row-reshaping constructors, the controllers, models)
    receives exactly ``requires`` + ``keeps`` and only ``keeps`` survive it.
    """

    name: str
    family: str
    requires: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    carries: bool = True
    keeps: tuple[str, ...] = ()

    def received_columns(self, available: frozenset[str]) -> frozenset[str]:
        """Columns arriving over one edge (task-column projection)."""
        if self.carries:
            return available
        wanted = frozenset(self.requires) | frozenset(self.keeps)
        if ANY in available:
            return wanted
        return wanted & available

    def output_columns(self, received: frozenset[str]) -> frozenset[str]:
        """Columns present after this function, given what arrived."""
        passed = received if self.carries else received & frozenset(self.keeps)
        return passed | frozenset(self.outputs)


def model(name: str, kind: str) -> OpSpec:
    """The row of a model under paradigm ``kind``: it needs and keeps the
    paradigm's inputs and adds its outputs."""
    try:
        inputs, outputs = PARADIGMS[kind]
    except KeyError:
        raise ValueError(f"unknown model paradigm: {kind!r}") from None
    return OpSpec(name, kind, inputs, outputs, carries=False, keeps=inputs)


_SPECS: dict[str, OpSpec] = {}


def register(spec: OpSpec) -> None:
    """Add or replace the row of ``spec.name``; its family must be known."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r} of {spec.name!r}; "
                         f"known: {', '.join(FAMILIES)}")
    _SPECS[spec.name] = spec


def spec(name: str) -> OpSpec | None:
    return _SPECS.get(name)


# The corpus feed passes raw rows through the start controller, so besides
# `sample` it may supply arbitrary pre-extracted columns (wildcard).
for _spec in [
    OpSpec("start", CONTROLLER, (), (SAMPLE, ANY), carries=False),
    OpSpec("data", CONTROLLER, (), (SAMPLE, ANY), carries=False),
    OpSpec("end", CONTROLLER),
    # Predicate-driven row filter (GFL `opt.filter(...)`).
    OpSpec("filter", FILTER),
    OpSpec("entity_type_filter", FILTER, (ENTITY, ENTITY_TYPE)),
    OpSpec("relation_filter", FILTER, (RELATION,)),
    OpSpec("score_filter", FILTER, (SCORE,)),
    OpSpec("entity_type_mapper", MAPPER, (ENTITY_TYPE,)),
    OpSpec("relation_mapper", MAPPER, (RELATION,)),
    # Ensemble integrator: groups aligned rows across inputs, config picks
    # vote / score / chunk semantics.
    OpSpec("merge", INTEGRATOR),
    # Plain concatenation of inputs.
    OpSpec("integrate", INTEGRATOR),
    # Entity pair constructor ("permutate"): n entities -> n(n-1) ordered pairs.
    OpSpec("permutate", CONSTRUCTOR, (ENTITY, ENTITY_TYPE), (ENTITY_PAIR,),
           carries=False, keeps=(SAMPLE,)),
    OpSpec("triple", CONSTRUCTOR, (ENTITY_PAIR, RELATION), (TRIPLE,),
           carries=False, keeps=()),
    *(model(name, MODEL_CE) for name in
      ("BertNER", "FastNER", "LSTMNER", "GazetteerNER", "OracleNER")),
    *(model(name, MODEL_CC) for name in
      ("BERTRE", "LSTMRE", "KeywordRE", "OracleRE")),
]:
    register(_spec)
