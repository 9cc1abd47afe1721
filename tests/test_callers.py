"""Tooling guards: every public name in ``kgflow`` has a caller, and no
kgflow module imports a private name from another.

The scan parses ``src/kgflow/*.py`` and ``bench/*.py`` and collects every
name the code references, as a bare name or as an attribute; an import
alone is not a reference, and ``kgflow/__init__.py``'s re-exports are not
scanned. A public top-level function or class of ``kgflow``, or a public
method of such a class, that nothing references is callerless. Each
callerless name must be listed below with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CALLERLESS = {
    "gfl.format_flowline": "the CLI's fmt command (ROADMAP item 8)",
    "gfl.emit_dot": "the CLI's dot command (item 8)",
    "scheduler.plan_from_dict": "the CLI reads plan files with it (item 8)",
    "sim.timeline_to_chrome_trace": "the CLI's simulate --trace (item 8)",
    "costmodel.MakespanPriceFit.makespan_at": "the plan diagnostics show the "
                                              "fitted curve (item 8)",
}


def _sources() -> list[Path]:
    package = [p for p in sorted((ROOT / "src" / "kgflow").glob("*.py"))
               if p.name != "__init__.py"]
    return package + sorted((ROOT / "bench").glob("*.py"))


def scan() -> tuple[dict[str, str], set[str]]:
    """The public definitions of ``kgflow`` (qualified name -> the name a
    caller writes) and every name the scanned code references."""
    public: dict[str, str] = {}
    referenced: set[str] = set()
    for path in _sources():
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
        if path.parent.name != "kgflow":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            public[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) \
                            and not member.name.startswith("_"):
                        public[f"{path.stem}.{node.name}.{member.name}"] = \
                            member.name
    return public, referenced


def test_scan_sees_definitions_and_references():
    public, referenced = scan()
    assert {"gfl.parse", "scheduler.schedule", "scheduler.Ledger.fitting",
            "costmodel.ProcurementPlan.expand"} <= set(public)
    assert {"parse", "schedule", "fitting", "expand"} <= referenced


def test_every_public_name_has_a_caller_or_a_reason():
    public, referenced = scan()
    callerless = {name for name, called in public.items()
                  if called not in referenced}
    assert callerless == set(CALLERLESS)
    assert all(CALLERLESS.values())


def private_imports(path: Path) -> list[str]:
    """The underscore names ``path`` imports from a kgflow module; a
    private module itself (``from . import _fields``) is allowed."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module is not None \
                and (node.level or node.module.split(".")[0] == "kgflow"):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_private_import_scan_sees_a_sibling_name(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from . import _fields\n"
                      "from .scheduler import Ledger, _compile\n"
                      "from kgflow.gfl import _IDENT\n")
    assert private_imports(module) == ["scheduler._compile",
                                       "kgflow.gfl._IDENT"]


def test_no_module_imports_a_private_name_from_a_sibling():
    assert {path.name: names
            for path in sorted((ROOT / "src" / "kgflow").glob("*.py"))
            if (names := private_imports(path))} == {}
