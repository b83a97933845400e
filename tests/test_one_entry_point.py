"""One online entry point: ``QueryFrontend.dispatch``.

Guards the shape of the request path: ``dispatch`` is the only opener of a
request record, the service holds no metric or record code, ``EGLSystem``
answers no query, and every name the end-to-end benchmark imports or wraps
(``benchmarks/e2e/server.py``, ``workloads.py`` and ``trace.py``) still
resolves — its package-level imports in a fresh interpreter, where no
earlier import has run a package ``__init__`` for them.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.graph.entity_graph import EntityGraph
from repro.obs import Observability
from repro.online import EGLSystem
from repro.online.api import ApiResponse, EGLService
from repro.online.reasoning import GraphReasoner
from repro.serving.frontend import AdmissionController, QueryFrontend
from repro.text.entity_dict import EntityDict

SRC = Path(repro.__file__).parent
E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def load_trace_module():
    """``benchmarks/e2e/trace.py`` by path: its module name ``trace``
    would resolve to the standard library's."""
    spec = importlib.util.spec_from_file_location("e2e_trace", E2E / "trace.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_benchmark_wrapped_attribute_still_exists():
    trace = load_trace_module()
    tracer = trace.Tracer()
    tracer.install()  # raises KeyError for an attribute its class lost
    try:
        wrapped = {(owner, attribute) for owner, attribute, _, _ in trace.WRAPPED}
        assert (EGLService, "expand") in wrapped and (QueryFrontend, "dispatch") in wrapped
    finally:
        tracer.uninstall()  # raises if a wrapper survives
    for owner, attribute in wrapped:
        assert not hasattr(vars(owner)[attribute], "__wrapped__")


def test_the_tracer_sees_the_reasoners_khop_call(world):
    """``GraphReasoner`` calls ``k_hop_expansion`` through
    ``repro.online.reasoning``'s module global, where ``trace.py`` wraps it."""
    trace = load_trace_module()
    reasoner = GraphReasoner(
        EntityGraph.from_edge_list(world.num_entities, [(0, 1), (1, 2)], [0.9, 0.8], [0, 0]),
        EntityDict.from_world(world),
    )
    tracer = trace.Tracer()
    tracer.install()
    try:
        reasoner.expand([world.entities[0].name], depth=2)
    finally:
        tracer.uninstall()
    assert [span.name for span in tracer.spans] == ["khop", "reasoner"]
    assert tracer.spans[0].counts == {"khop.nodes": 3}


def package_imports(script: Path) -> list[str]:
    """The script's ``from repro.<package> import …`` lines (a package, not
    a module: the imports an ``__init__`` change can break)."""
    return [
        ast.unparse(node)
        for node in ast.parse(script.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        and (SRC.parent / node.module.replace(".", "/") / "__init__.py").is_file()
    ]


@pytest.mark.parametrize("script", ["server.py", "workloads.py"])
def test_the_benchmark_package_imports_resolve_in_a_fresh_interpreter(script):
    lines = package_imports(E2E / script)
    assert lines
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    for line in lines:
        subprocess.run([sys.executable, "-c", line], env=env, check=True)


def test_the_benchmark_server_bring_up_names_resolve(world, tmp_path):
    """``server.py``'s constructors, and the read-outs it takes from them."""
    system = EGLSystem(
        world, None, store_path=tmp_path / "store", artifact_root=tmp_path / "registry"
    )
    frontend = QueryFrontend(EGLService(system)).start()
    try:
        assert frontend.port > 0
        assert {"admitted", "shed"} <= set(frontend.admission.snapshot())
        runtime = system.runtime
        assert runtime.acquire().graph_version is None
        assert runtime.cache_stats()["hits"] == 0
        assert runtime.versions()["graph_version"] is None
        for name in ("expand", "target", "target_batch"):
            assert callable(getattr(runtime, name))
        assert callable(AdmissionController.try_admit)
        assert callable(ApiResponse.to_dict)
    finally:
        assert frontend.stop() is True


def test_dispatch_is_the_only_record_opener():
    openers = [
        (path.relative_to(SRC).as_posix(), line)
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if re.search(r"journeys\.open\(", line)
    ]
    assert openers == [("serving/frontend.py", "        record = self._journeys.open(endpoint)")]


def _class_identifiers(cls_name: str, path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls_name]
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.Name):
            names.add(child.id)
    return names


def test_the_service_holds_no_metric_or_record_code():
    """It reads the ring and the registry for its GET routes, but opens,
    closes, counts and times nothing."""
    names = _class_identifiers("EGLService", SRC / "online" / "api.py")
    assert not names & {
        "open", "close", "RequestRecord", "counter", "histogram", "gauge",
        "add_collector", "phase", "annotate",
    }


def test_the_system_answers_no_query():
    for name in (
        "reasoner", "expand", "target_users", "target_users_batch",
        "target_users_for_phrases", "preference_store",
    ):
        assert not hasattr(EGLSystem, name), name


def test_the_service_takes_the_system_alone(world, tmp_path):
    assert list(inspect.signature(EGLService).parameters) == ["system"]
    service = EGLService(EGLSystem(world, artifact_root=tmp_path, obs=Observability()))
    assert service.obs is service.system.obs
