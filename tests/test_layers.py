"""The package's layer order, written once.

The paper's system is an offline stage that publishes artifacts and an
online stage that only reads them. :data:`LAYERS` is the module order that
keeps the two apart: the serving stack sits below everything that trains,
so a serving process loads no training code, and a stage worker starts on
a module that imports nothing of either.

The import graph is read from the source (AST): an edge is a module-level
import outside ``if TYPE_CHECKING:``, plus the implicit edge to every
package ``__init__`` that import runs (the importing module's own
ancestors excepted — they ran before it). The layer rule also reads the
imports in function bodies. A package that resolves a name on first use
(PEP 562 ``__getattr__`` over its ``_LAZY`` map) has no edge to the module
that defines it; ``from package import name`` does.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

#: Lowest layer first. An entry names a module, or a package: its
#: ``__init__`` and every module under it that no longer entry names. A
#: module imports only from its own layer or a lower one.
LAYERS = (
    # The serving stack: all a serving process imports.
    ("repro", "repro.errors", "repro.rng"),
    ("repro.obs",),
    ("repro.resilience",),
    ("repro.graph",),
    ("repro.text",),  # vocab, tokenizer, Entity Dict, lexicon, UserEntitySequence
    ("repro.preference",),
    ("repro.online",),  # the read path: reasoning, targeting, explain, feedback
    ("repro.serving",),  # registry, runtime, cache
    ("repro.online.api",),
    ("repro.serving.frontend",),
    # Offline: what trains, builds and publishes.
    ("repro.trmp", "repro.trmp.stage_worker"),
    ("repro.datasets",),
    ("repro.tensor",),
    ("repro.nn",),
    ("repro.text.ner", "repro.text.sequence_extractor"),
    ("repro.trmp.daily",),
    ("repro.embeddings",),
    ("repro.gnn",),
    ("repro.eval",),
    (
        "repro.trmp.losses", "repro.trmp.negative_sampling", "repro.trmp.candidate",
        "repro.trmp.alpc", "repro.trmp.ensemble",
    ),
    ("repro.trmp.stages",),
    ("repro.trmp.pipeline",),
    ("repro.datasets.benchmark_data", "repro.baselines"),
    ("repro.online.system",),
    ("repro.simulation",),
    ("repro.cli",),
)

TRAINING_PACKAGES = ("repro.tensor", "repro.nn", "repro.gnn", "repro.embeddings", "repro.trmp")


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(path): path for path in SRC.rglob("*.py")}


def is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def import_statements(module: str, deferred: bool) -> list[ast.stmt]:
    """The module's import statements outside ``if TYPE_CHECKING:``: those
    at module level, plus (``deferred``) those in function bodies."""
    tree = ast.parse(MODULES[module].read_text(encoding="utf-8"))
    skipped = {
        id(statement)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
        for statement in ast.walk(node)
    }
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef)
    if not deferred:
        skipped |= {
            id(statement)
            for node in ast.walk(tree) if isinstance(node, scopes)
            for statement in ast.walk(node)
        }
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in skipped
    ]


def defining_module(package: str, name: str) -> str:
    """Where ``from package import name`` leads: a name the package resolves
    on first use (its ``_LAZY`` map) leads to the module that defines it."""
    lazy = getattr(importlib.import_module(package), "_LAZY", {}) if package in MODULES else {}
    return f"{package}.{lazy[name]}" if name in lazy else f"{package}.{name}"


def import_edges(module: str, deferred: bool = False) -> set[str]:
    named: set[str] = set()
    for node in import_statements(module, deferred):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        else:
            assert node.level == 0, f"{module}: relative import"
            named.add(node.module)
            named.update(defining_module(node.module, alias.name) for alias in node.names)
    parts = module.split(".")
    ancestors = {".".join(parts[:i]) for i in range(1, len(parts))}
    edges = set()
    for name in named:
        pieces = name.split(".")
        for i in range(1, len(pieces) + 1):  # the package inits the import runs
            prefix = ".".join(pieces[:i])
            if prefix in MODULES and prefix not in ancestors and prefix != module:
                edges.add(prefix)
    return edges


GRAPH = {module: import_edges(module) for module in MODULES}


def layer(module: str) -> int:
    entry = max(
        (e for row in LAYERS for e in row if module == e or module.startswith(e + ".")), key=len
    )
    assert entry != "repro" or module == "repro", f"{module} has no place in LAYERS"
    return next(i for i, row in enumerate(LAYERS) if entry in row)


def test_the_table_names_real_modules_once():
    entries = [entry for row in LAYERS for entry in row]
    assert len(entries) == len(set(entries))
    assert set(entries) <= set(MODULES)


def test_the_import_graph_has_no_cycle():
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            raise AssertionError(" -> ".join(path[path.index(module):] + [module]))
        if module not in done:
            for target in sorted(GRAPH[module]):
                visit(target, path + [module])
            done.add(module)

    for module in sorted(GRAPH):
        visit(module, [])


def test_no_module_imports_one_above_it():
    """Not at import time, and not in a function body either."""
    upward = [
        (module, target)
        for module in sorted(MODULES)
        for target in sorted(import_edges(module, deferred=True))
        if layer(target) > layer(module)
    ]
    assert upward == []


def test_a_package_sits_no_higher_than_its_lowest_module():
    """Importing any module runs its packages' ``__init__``: a package
    whose ``__init__`` imported from a higher layer would load that layer
    into every process that imports the package's lowest module."""
    for package in filter(is_package, MODULES):
        for module in MODULES:
            if module.startswith(package + "."):
                assert layer(package) <= layer(module), (package, module)


def test_every_exported_name_resolves():
    """A package's ``__all__``, the names it resolves on first use included."""
    for package in filter(is_package, MODULES):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name) is not None, (package, name)


def _loaded_after(statement: str) -> set[str]:
    program = (
        f"import json, sys; {statement}; "
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'repro']))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(result.stdout))


def _inside(module: str, packages) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


@pytest.mark.parametrize(
    ("statement", "forbidden"),
    [
        ("import repro", None),
        ("import repro.serving.frontend", TRAINING_PACKAGES),
        ("import repro.trmp.stage_worker", ("repro.serving", "repro.online")),
        (
            "import repro.trmp.daily",
            ("repro.embeddings", "repro.gnn", "repro.trmp.alpc", "repro.trmp.ensemble"),
        ),
    ],
    ids=["root", "serving", "stage-worker", "daily"],
)
def test_what_a_fresh_interpreter_loads(statement, forbidden):
    loaded = _loaded_after(statement)
    if forbidden is None:  # the root package imports no submodule
        assert loaded == {"repro"}
    else:
        assert sorted(m for m in loaded if _inside(m, forbidden)) == []
