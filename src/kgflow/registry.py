"""Registries of built-in operators and model kinds.

The registry is pure metadata: which columns a task consumes and produces,
its operator family, and whether unconsumed columns pass through. Flowline
validation uses it to check pipe compatibility.
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

# Model task paradigms: classifier (one label per row) vs chunk extractor
# (a set of spans per row).
TASK_CC = "cc"
TASK_CE = "ce"


@dataclass(frozen=True)
class OpSpec:
    """Column contract of one built-in operator.

    ``requires`` are the columns that must be present on incoming rows.
    ``outputs`` are the columns the operator produces. A carrying operator
    (filters, mappers, integrators) receives and passes whole rows; a
    non-carrying one (row-reshaping constructors, the controllers) receives
    exactly ``requires`` + ``keeps`` and only ``keeps`` survive it.
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
        """Columns present after this operator, given what arrived."""
        passed = received if self.carries else received & frozenset(self.keeps)
        return passed | frozenset(self.outputs)


_OPERATORS: dict[str, OpSpec] = {}


def register_operator(spec: OpSpec) -> None:
    _OPERATORS[spec.name] = spec


def operator_spec(name: str) -> OpSpec | None:
    return _OPERATORS.get(name)


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
]:
    register_operator(_spec)


@dataclass(frozen=True)
class ModelSpec:
    """A registered model name and its paradigm (columns: ``task_io``)."""

    name: str
    task: str  # TASK_CC | TASK_CE


_CE_IO = ((SAMPLE,), (ENTITY, ENTITY_TYPE))
_CC_IO = ((SAMPLE, ENTITY_PAIR), (RELATION, SCORE))

_MODELS: dict[str, ModelSpec] = {}


def register_model(name: str, task: str) -> ModelSpec:
    """Register a model name under a paradigm; returns the entry."""
    if task not in (TASK_CC, TASK_CE):
        raise ValueError(f"unknown model task: {task!r}")
    spec = ModelSpec(name, task)
    _MODELS[name] = spec
    return spec


def model_spec(name: str) -> ModelSpec | None:
    return _MODELS.get(name)


for _name, _task in [
    ("BertNER", TASK_CE),
    ("FastNER", TASK_CE),
    ("LSTMNER", TASK_CE),
    ("GazetteerNER", TASK_CE),
    ("OracleNER", TASK_CE),
    ("BERTRE", TASK_CC),
    ("LSTMRE", TASK_CC),
    ("KeywordRE", TASK_CC),
    ("OracleRE", TASK_CC),
]:
    register_model(_name, _task)


def task_io(task: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(inputs, outputs) column contract for a model paradigm."""
    return _CC_IO if task == TASK_CC else _CE_IO
