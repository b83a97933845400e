"""A served generation owns its bytes: its files may be damaged under it.

Each case runs in a child process, because damage to a file a process has
mapped can end that process (a read past the end of a truncated mapping is
``SIGBUS``). The child opens and serves one generation, damages one of its
live array files, and answers again; the answers must be the ones from
before the damage. The next open of that directory must then be refused
and quarantined with a reason that names the damaged array.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

CHILD = r"""
import json, os, sys
from pathlib import Path

import numpy as np

from repro.errors import CorruptArtifactError
from repro.graph import EntityGraph, k_hop_expansion
from repro.preference.store import PreferenceStore
from repro.serving import ArtifactRegistry, ServingRuntime
from repro.text.sequence_extractor import UserEntitySequence

kind, array, damage, root = sys.argv[1:]
registry = ArtifactRegistry(Path(root))
rng = np.random.default_rng(3)
if kind == "preferences":
    # 2,000 covered users x 32 dims: a 512 KB user_matrix.npy.
    num_entities = 50
    sequences = {
        u: UserEntitySequence(u, rng.integers(0, num_entities, size=6).tolist())
        for u in range(2_000)
    }
    store = PreferenceStore(rng.normal(size=(num_entities, 32))).build(sequences, 2_000)
    version = registry.publish_preferences(store).version
    del store
    runtime = ServingRuntime()
    runtime.activate_preferences(registry.open_preferences(version), version)

    def answers():
        return [
            [(u.user_id, u.score) for u in runtime.target(runtime.acquire(), ids, k=25).users]
            for ids in ([1, 2, 3], [7], [10, 20, 30, 40])
        ]
else:
    # 3,000 edges: a 24 KB neighbors.npy.
    pairs = {tuple(sorted(p)) for p in rng.integers(0, 500, size=(3_200, 2)).tolist()}
    pairs = sorted(p for p in pairs if p[0] != p[1])[:3_000]
    graph = EntityGraph.from_edge_list(
        500, pairs, rng.uniform(0.1, 1.0, size=len(pairs)).tolist(), [0] * len(pairs)
    )
    version = registry.publish_graph(graph).version
    served = registry.open_graph(version)

    def answers():
        return [
            sorted(k_hop_expansion(served, [seed], 2).scores.items())
            for seed in (0, 17, 250)
        ]

before = answers()
path = Path(root) / f"{kind}-{'csr-' if kind == 'graph' else ''}{version:06d}" / array
if damage == "truncate":
    os.truncate(path, 4096)
elif damage == "unlink":
    path.unlink()
else:
    data = bytearray(path.read_bytes())
    data[200_000] ^= 0xFF
    path.write_bytes(bytes(data))
after = answers()
try:
    getattr(registry, f"open_{kind}")(version)
    reason = None
except CorruptArtifactError:
    reason = registry.quarantined[-1]["reason"]
print(json.dumps({
    "equal": after == before,
    "reason": reason,
    "latest": None if registry.latest(kind) is None else registry.latest(kind).version,
    "quarantined": (Path(root) / "quarantine" / path.parent.name).is_dir(),
}))
"""


@pytest.mark.parametrize(
    "kind, array, damage",
    [
        ("preferences", "user_matrix.npy", "truncate"),
        ("preferences", "user_matrix.npy", "unlink"),
        ("preferences", "user_matrix.npy", "flip"),
        ("graph", "neighbors.npy", "truncate"),
    ],
    ids=["pref-truncate", "pref-unlink", "pref-flip", "graph-truncate"],
)
def test_damaging_a_live_generation_changes_no_answer(tmp_path, kind, array, damage):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p or os.getcwd() for p in sys.path))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, kind, array, damage, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, (done.returncode, done.stderr[-2000:])
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["equal"]
    assert result["reason"] is not None and array in result["reason"]
    assert result["quarantined"] and result["latest"] is None
