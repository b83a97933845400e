"""A real storage fault: a publish that runs into the file-size limit.

The child process ignores ``SIGXFSZ`` and lowers its own ``RLIMIT_FSIZE``
below the size of one array of each kind, so writing that array fails with
``OSError(EFBIG)`` — the error a full or quota-limited disk gives. The
limit is set in the child only and acts on that process alone. The
publish raises that error once, to its caller, after removing the
generation directory it was writing; the registry on disk is left as it
was, and the next publish of each kind, in another process, gets the next
version and opens.
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph import EntityGraph
from repro.preference.store import PreferenceStore
from repro.serving import ArtifactRegistry
from repro.text.sequence_extractor import UserEntitySequence

resource = pytest.importorskip("resource")

#: Below the 24 KB ``neighbors.npy`` and the 512 KB ``user_matrix.npy``;
#: above every other file a publish writes first, and above the manifest.
LIMIT_BYTES = 16 * 1024

CHILD = r"""
import json, resource, signal, sys

from repro.serving import ArtifactRegistry
from test_file_size_limit import generations, graph, preferences

root, limit = sys.argv[1], int(sys.argv[2])
too_big = {"graph": graph(), "preferences": preferences()}
registry = ArtifactRegistry(root)
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.RLIM_INFINITY))
failures = {}
for kind, artifact in too_big.items():
    try:
        getattr(registry, f"publish_{kind}")(artifact, tag="too-big")
    except OSError as error:
        failures[kind] = [type(error).__name__, error.errno, generations(root)]
print(json.dumps(failures))
"""


def graph() -> EntityGraph:
    """3,000 edges over 500 nodes: a 24 KB ``neighbors.npy``."""
    rng = np.random.default_rng(3)
    pairs = {tuple(sorted(p)) for p in rng.integers(0, 500, size=(3_200, 2)).tolist()}
    pairs = sorted(p for p in pairs if p[0] != p[1])[:3_000]
    return EntityGraph.from_edge_list(
        500, pairs, rng.uniform(0.1, 1.0, size=len(pairs)).tolist(), [0] * len(pairs)
    )


def preferences() -> PreferenceStore:
    """2,000 covered users x 32 dims: a 512 KB ``user_matrix.npy``."""
    rng = np.random.default_rng(4)
    sequences = {
        u: UserEntitySequence(u, rng.integers(0, 50, size=6).tolist()) for u in range(2_000)
    }
    return PreferenceStore(rng.normal(size=(50, 32))).build(sequences, 2_000)


def generations(root) -> list[str]:
    """The generation directories under a registry root."""
    return sorted(
        path.name for path in Path(root).iterdir()
        if path.name.startswith(("graph-csr-", "preferences-"))
    )


def catalogue(registry: ArtifactRegistry) -> dict:
    return {
        kind: [record.to_dict() for record in registry.records(kind)]
        for kind in ("graph", "preferences")
    }


def test_publishes_past_the_file_size_limit_fail_and_leave_the_registry_whole(tmp_path):
    registry = ArtifactRegistry(tmp_path)
    registry.publish_graph(graph(), tag="week-0")
    registry.publish_preferences(preferences(), tag="daily-1")
    before = catalogue(registry)

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p or os.getcwd() for p in sys.path))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), str(LIMIT_BYTES)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # Each failed publish removed the version-2 directory it was writing.
    published = ["graph-csr-000001", "preferences-000001"]
    assert json.loads(result.stdout) == {
        "graph": ["OSError", errno.EFBIG, published],
        "preferences": ["OSError", errno.EFBIG, published],
    }

    json.loads((tmp_path / "registry.json").read_text(encoding="utf-8"))
    assert not list(tmp_path.rglob("*.tmp"))
    reopened = ArtifactRegistry(tmp_path)
    assert catalogue(reopened) == before
    assert reopened.quarantined == []
    assert reopened.publish_graph(graph(), tag="week-1").version == 2
    assert reopened.open_graph(2).num_edges == graph().num_edges
    assert reopened.publish_preferences(preferences(), tag="daily-2").version == 2
    assert reopened.open_preferences(2).num_users == 2_000
