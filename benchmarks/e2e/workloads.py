"""Seeded request streams for the socket-to-kernel benchmark.

The dataset is fixed (it is not a knob): the world, the behaviour log and
the TRMP schedule below never change between runs, so two commits are
compared on the same artifacts. ``--seed`` drives only the request
streams; the server receives nothing but the requests generated here.

Every request is pre-serialised to the exact bytes the client sends with
one ``sendall``. The same seed yields byte-identical streams
(:func:`streams_digest`; ``python workloads.py --out DIR`` writes them).

Phrase pairs are unordered pairs of the 400 entity names: 79,800 in all.
The probe set and the hot set are carved out first, and every cold
stream takes its own slice of one seeded permutation of the rest, so a
cold pair is never sent twice in a run (warm-up, phase A and both phase-B
clients included) and never collides with a probe or a hot pair.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datasets import BehaviorConfig, World, WorldConfig  # noqa: E402

WORLD_CONFIG = WorldConfig(num_entities=400, num_users=20000, seed=7)
BEHAVIOR_CONFIG = BehaviorConfig(
    num_days=28, daily_activity=0.03, events_per_active_day=1.0, seed=11
)

#: Closed-loop clients in phase B. A constant, not ``os.cpu_count()``: the
#: stream layout (and so the request bytes) must not depend on the host.
CLIENTS = 2
HOT_SET_SIZE = 64
PROBES_PER_ENDPOINT = 32
TARGET_ENTITIES = 15
TARGET_K = 100
BATCH_SIZE = 4
#: ``ExpandRequest.max_entities`` default; requests do not override it.
MAX_ENTITIES = 25
#: Seed of the probe set and the hot set: fixed, so that digests printed by
#: two commits (or two ``--seed`` values) are comparable.
FIXED_SEED = 20230413
#: Requests per non-repeating stream (cold and mixed). The parent serves
#: ~23 requests/s per client; these lengths leave room for a server two
#: orders faster before a stream runs dry (a dry stream ends its segment
#: early and the run reports it as a failure).
WARMUP_LENGTH = 3000
PHASE_LENGTH = 9000
#: Requests per repeating stream. Hot expands and targeting may wrap: the
#: first is meant to hit the cache and the second has none.
CYCLE_LENGTH = 2048

WORKLOADS = {
    "expand_hot": (
        "100% POST /expand depth 2 over 64 fixed phrase pairs that fit the "
        "256-entry cache: every request is a hit, so transport, dispatch, "
        "facade and envelope do the work and kernel changes must not move it."
    ),
    "expand_cold": (
        "100% POST /expand depth 3 over phrase pairs drawn without "
        "replacement: every request misses, so k-hop over CSR, the runtime "
        "miss path, cache put/evict and a ~3 KB body do the work."
    ),
    "target_audience": (
        "100% POST /target, 15 weighted entities, k=100, over the 20k-user "
        "memmap store: the preference kernel dominates, so kernel changes "
        "show here and must leave both expand workloads flat."
    ),
    "refresh_under_load": (
        "40/30/25/5 mix of hot expand, cold expand, target and target_batch "
        "of 4 while a daily preference refresh starts every 3 s: reads "
        "beside writes, so costlier swaps, purges or retained generations show."
    ),
}


@dataclass(frozen=True)
class Request:
    """One pre-serialised request plus what the checker needs to know."""

    endpoint: str
    wire: bytes  # the full HTTP/1.1 request, sent with one sendall
    depth: int = 0  # expand only
    k: int = 0  # target / target_batch only
    batch: int = 0  # target_batch only


@dataclass(frozen=True)
class Stream:
    """The requests one client sends in one phase, in order."""

    requests: tuple[Request, ...]
    #: Cold streams must not repeat a pair; the others wrap around.
    cyclic: bool


def _wire(endpoint: str, payload: dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = (
        f"POST /{endpoint} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


def _request(endpoint: str, payload: dict) -> Request:
    wire = _wire(endpoint, payload)
    if endpoint == "expand":
        return Request(endpoint, wire, depth=payload["depth"])
    if endpoint == "target":
        return Request(endpoint, wire, k=payload["k"])
    sets = payload["requests"]
    return Request(endpoint, wire, k=sets[0]["k"], batch=len(sets))


def entity_names() -> list[str]:
    """Names of the fixed world's entities (the phrase vocabulary)."""
    return [entity.name for entity in World(WORLD_CONFIG).entities]


def _pair(index: int, n: int) -> tuple[int, int]:
    """Decode ``index`` in ``[0, n(n-1)/2)`` to the unordered pair ``i < j``."""
    i = int((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * index)) // 2)
    # Guard the float square root at row boundaries.
    while i * (2 * n - i - 1) // 2 > index:
        i -= 1
    while (i + 1) * (2 * n - i - 2) // 2 <= index:
        i += 1
    j = index - i * (2 * n - i - 1) // 2 + i + 1
    return i, j


class Generator:
    """Builds the probe set and the per-workload streams."""

    def __init__(self, names: list[str] | None = None) -> None:
        self.names = names if names is not None else entity_names()
        n = len(self.names)
        self.num_pairs = n * (n - 1) // 2
        fixed = np.random.default_rng(FIXED_SEED)
        reserved = fixed.permutation(self.num_pairs)[
            : HOT_SET_SIZE + PROBES_PER_ENDPOINT
        ]
        self._hot_pairs = reserved[:HOT_SET_SIZE]
        self._probe_pairs = reserved[HOT_SET_SIZE:]
        self._reserved = set(int(p) for p in reserved)
        self._probe_sets = [
            self._target_payload(fixed) for _ in range(PROBES_PER_ENDPOINT)
        ]

    # ------------------------------------------------------------------
    def _expand(self, pair_index: int, depth: int) -> Request:
        i, j = _pair(int(pair_index), len(self.names))
        return _request("expand", {"phrases": [self.names[i], self.names[j]], "depth": depth})

    def _target_payload(self, rng: np.random.Generator) -> dict:
        ids = rng.choice(len(self.names), size=TARGET_ENTITIES, replace=False)
        weights = np.round(rng.uniform(0.1, 1.0, size=TARGET_ENTITIES), 3)
        return {
            "entity_ids": [int(e) for e in ids],
            "k": TARGET_K,
            "weights": [float(w) for w in weights],
        }

    # ------------------------------------------------------------------
    def probe_payloads(self) -> dict[str, list[dict]]:
        """The fixed probe set as payload dicts, per endpoint.

        ``server.py`` evaluates the same payloads directly on the kernels;
        the two digests must agree.
        """
        n = len(self.names)
        expand = []
        for index, pair in enumerate(self._probe_pairs):
            i, j = _pair(int(pair), n)
            expand.append(
                {"phrases": [self.names[i], self.names[j]], "depth": 2 + index % 2}
            )
        sets = self._probe_sets
        batches = [
            {"requests": [sets[(start + o) % len(sets)] for o in range(BATCH_SIZE)]}
            for start in range(len(sets))
        ]
        return {"expand": expand, "target": list(sets), "target_batch": batches}

    def probes(self, endpoints: tuple[str, ...]) -> list[Request]:
        payloads = self.probe_payloads()
        return [_request(e, payload) for e in endpoints for payload in payloads[e]]

    # ------------------------------------------------------------------
    def streams(self, workload: str, seed: int) -> dict[str, Stream]:
        """Streams ``warmup``, ``a0`` (phase A) and ``b0``/``b1`` (phase B)."""
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; have {sorted(WORKLOADS)}")
        rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
        hot = [self._expand(p, 2) for p in self._hot_pairs]
        cold = iter(())
        if workload in ("expand_cold", "refresh_under_load"):
            order = rng.permutation(self.num_pairs)
            cold = iter(int(p) for p in order if int(p) not in self._reserved)
        return {
            name: self._stream(workload, rng, hot, cold, name == "warmup")
            for name in self.stream_names()
        }

    @staticmethod
    def stream_names() -> list[str]:
        return ["warmup", "a0"] + [f"b{c}" for c in range(CLIENTS)]

    def _stream(self, workload, rng, hot, cold, is_warmup) -> Stream:
        length = WARMUP_LENGTH if is_warmup else PHASE_LENGTH
        # The warm-up opens with every hot pair once, so the cache is full
        # before the first timed request.
        head = list(hot) if is_warmup else []
        if workload == "expand_hot":
            order = rng.integers(0, len(hot), size=CYCLE_LENGTH).tolist()
            return Stream(tuple(head + [hot[i] for i in order]), cyclic=True)
        if workload == "expand_cold":
            return Stream(
                tuple(self._expand(next(cold), 3) for _ in range(length)), cyclic=False
            )
        if workload == "target_audience":
            return Stream(
                tuple(_request("target", self._target_payload(rng)) for _ in range(CYCLE_LENGTH)), cyclic=True
            )
        # refresh_under_load: 40% hot expand, 30% cold expand, 25% target,
        # 5% target_batch of 4, exact in every block of 20 requests (a
        # shuffled block, not independent draws): the slow kinds then make
        # up the same share of every timed window, whatever the seed.
        block = [0] * 8 + [1] * 6 + [2] * 5 + [3]
        requests = head
        kinds = [kind for _ in range(length // len(block)) for kind in rng.permutation(block)]
        for kind in kinds:
            if kind == 0:
                requests.append(hot[int(rng.integers(0, len(hot)))])
            elif kind == 1:
                requests.append(self._expand(next(cold), 3))
            elif kind == 2:
                requests.append(_request("target", self._target_payload(rng)))
            else:
                sets = [self._target_payload(rng) for _ in range(BATCH_SIZE)]
                requests.append(_request("target_batch", {"requests": sets}))
        return Stream(tuple(requests), cyclic=False)


def endpoints_of(workload: str) -> tuple[str, ...]:
    """Endpoints a workload exercises (its share of the probe set)."""
    return {
        "expand_hot": ("expand",),
        "expand_cold": ("expand",),
        "target_audience": ("target",),
        "refresh_under_load": ("expand", "target", "target_batch"),
    }[workload]


def streams_digest(streams: dict[str, Stream]) -> str:
    """SHA-256 over every stream's wire bytes: equal seeds, equal digest."""
    digest = hashlib.sha256()
    for name in sorted(streams):
        digest.update(name.encode("ascii"))
        for request in streams[name].requests:
            digest.update(request.wire)
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description="write the request streams to files")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=FIXED_SEED)
    parser.add_argument("--out", type=Path, default=Path(__file__).parent / "out")
    args = parser.parse_args()
    streams = Generator().streams(args.workload, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    for name, stream in streams.items():
        path = args.out / f"requests-{args.workload}-{args.seed}-{name}.http"
        path.write_bytes(b"".join(request.wire for request in stream.requests))
        print(f"{path}  {len(stream.requests)} requests")
    print(f"sha256 {streams_digest(streams)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
