"""Thread-safety of the hot read path: records, cache, hot-swap.

The concurrent front end (PR: admission control + load harness) drives
the whole serving stack from a thread pool, so the invariants these tests
pin are correctness requirements, not hygiene:

* one ``RequestRecord`` per request — overlapping requests must never
  share or re-stamp one (the pre-fix design kept a single context per
  service);
* the versioned LRU cache must not lose counter updates or corrupt its
  LRU order under a multi-threaded hammer;
* a hot-swap during K in-flight expansions must yield every response
  wholly from exactly one generation (no torn reads across artifacts);
* autograd mode is per-thread — racing ``no_grad()`` blocks on serving
  threads must never leave graph recording disabled for a later training
  run in the same process.
"""

import threading
import time

from repro.graph import EntityGraph
from repro.obs import Observability
from repro.obs.context import current_record
from repro.online import EGLSystem
from repro.online.api import EGLService
from repro.online.reasoning import GraphReasoner
from repro.serving import ServingRuntime, VersionedLRUCache
from repro.serving.frontend import QueryFrontend


# ----------------------------------------------------------------------
# Satellite 1: per-request RequestRecord (regression for the reuse race)
# ----------------------------------------------------------------------
class TestRequestContextPerRequest:
    def test_interleaved_requests_get_distinct_contexts(self, world, tmp_path):
        """Two overlapping requests must observe distinct, stable records.

        With the old one-context-per-service design the second request
        re-stamps the shared context while the first is still in flight:
        both threads would see the *same* object and the first thread's
        request id would change under it mid-request.
        """
        system = EGLSystem(world, artifact_root=tmp_path)
        graph = EntityGraph.from_edge_list(
            world.num_entities, [(0, 1), (1, 2)], [0.9, 0.8], [0, 0]
        )
        reasoner = GraphReasoner(graph, system.pipeline.entity_dict)
        system.runtime.activate_graph(reasoner, version=1, tag="week-0")
        frontend = QueryFrontend(EGLService(system))
        view = system.runtime.expand(
            system.runtime.acquire(), [world.entities[0].name], depth=1
        )

        barrier = threading.Barrier(2, timeout=5.0)
        observed: list[tuple] = []
        lock = threading.Lock()
        real_expand = system.runtime.expand

        def slow_expand(active, phrases, depth=2, min_score=0.0, deadline=None):
            ctx = current_record()
            entry_id = ctx.id
            barrier.wait()  # both requests are now in flight together
            time.sleep(0.01)  # give the other thread room to trample
            with lock:
                observed.append((ctx, entry_id, ctx.id, deadline))
            return view

        system.runtime.expand = slow_expand
        try:
            phrase = world.entities[0].name
            requests = [
                {"phrases": [phrase], "timeout_ms": 60_000.0},
                {"phrases": [phrase]},  # no deadline
            ]
            threads = [
                threading.Thread(target=frontend.dispatch, args=("expand", req))
                for req in requests
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
        finally:
            system.runtime.expand = real_expand

        assert len(observed) == 2
        (ctx_a, entry_a, exit_a, dl_a), (ctx_b, entry_b, exit_b, dl_b) = observed
        assert ctx_a is not ctx_b  # distinct objects, not a shared re-stamp
        assert entry_a != entry_b  # distinct request ids
        # Ids stayed stable across the overlap window.
        assert entry_a == exit_a and entry_b == exit_b
        # Exactly one request carried a deadline; it never leaked across.
        assert sorted(dl is not None for dl in (dl_a, dl_b)) == [False, True]

    def test_concurrent_requests_mint_unique_journeys(self, world, tmp_path):
        system = EGLSystem(world, artifact_root=tmp_path)
        graph = EntityGraph.from_edge_list(
            world.num_entities, [(0, 1), (1, 2)], [0.9, 0.8], [0, 0]
        )
        reasoner = GraphReasoner(graph, system.pipeline.entity_dict)
        system.runtime.activate_graph(reasoner, version=1, tag="week-0")
        service = EGLService(system)
        frontend = QueryFrontend(service)
        phrase = world.entities[0].name
        per_thread, n_threads = 25, 4

        def worker():
            for _ in range(per_thread):
                status, envelope = frontend.dispatch("expand", {"phrases": [phrase]})
                assert status == 200 and envelope["ok"]

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        journeys = service.obs.journeys.tail()
        assert len(journeys) == per_thread * n_threads
        ids = [j["id"] for j in journeys]
        assert len(set(ids)) == len(ids)
        # No phase of one request landed in another's record: each holds
        # exactly its own runtime > cache.get chain.
        for journey in journeys:
            names = [name for name, *_ in journey["phases"]]
            assert names[:4] == ["admission", "api", "runtime", "cache.get"]
            assert [names.count(n) for n in ("runtime", "cache.get")] == [1, 1]


# ----------------------------------------------------------------------
# Satellite 2: thread-safe LRU cache
# ----------------------------------------------------------------------
class TestCacheConcurrency:
    def test_unique_put_hammer_has_exact_eviction_accounting(self):
        """T threads insert all-distinct keys: evictions must account for
        exactly every insert beyond capacity (a double-eviction or lost
        eviction breaks the equality)."""
        capacity, n_threads, per_thread = 32, 8, 400
        cache = VersionedLRUCache(capacity)

        def worker(tid: int) -> None:
            for i in range(per_thread):
                cache.put(1, (tid, i), {"value": i})

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        stats = cache.stats()
        total_puts = n_threads * per_thread
        assert stats["size"] == capacity
        assert stats["evictions"] == total_puts - capacity
        assert len(cache) <= capacity
        assert stats["hits"] + stats["misses"] == 0  # no get was issued

    def test_mixed_hammer_loses_no_counter_updates(self):
        capacity, n_threads, per_thread = 16, 8, 500
        cache = VersionedLRUCache(capacity)

        def worker(tid: int) -> None:
            for i in range(per_thread):
                key = (i * 7 + tid) % 40
                if cache.get(1, key) is None:
                    cache.put(1, key, {"k": key})

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        stats = cache.stats()
        # Every get counted exactly once — a lost update breaks this.
        assert stats["hits"] + stats["misses"] == n_threads * per_thread
        assert stats["size"] <= capacity
        assert len(cache) <= capacity

    def test_purge_races_puts_without_corruption(self):
        cache = VersionedLRUCache(64)
        stop = threading.Event()

        def putter() -> None:
            i = 0
            while not stop.is_set():
                cache.put(i % 3, i, i)
                i += 1

        def purger() -> None:
            while not stop.is_set():
                cache.purge_version(0)
                cache.purge_version(1)

        threads = [threading.Thread(target=putter) for _ in range(3)]
        threads += [threading.Thread(target=purger) for _ in range(2)]
        for t in threads:
            t.start()
        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        stats = cache.stats()
        assert len(cache) <= cache.capacity
        assert stats["hits"] + stats["misses"] == 0  # no get was issued


# ----------------------------------------------------------------------
# Satellite 4: hot-swap under load — no torn reads across generations
# ----------------------------------------------------------------------
class TestHotSwapUnderLoad:
    def test_every_inflight_expansion_serves_one_whole_generation(self, world):
        """Property: with swaps racing K in-flight expansions, every result
        equals one generation's expected output exactly — never a blend —
        and that generation is the one its acquired label names."""
        obs = Observability.disabled()
        runtime = ServingRuntime(cache_size=0, obs=obs)  # every expand computes
        from repro.text import EntityDict

        entity_dict = EntityDict.from_world(world)
        graph_a = EntityGraph.from_edge_list(
            world.num_entities, [(0, 1), (1, 2)], [0.9, 0.8], [0, 0]
        )
        graph_b = EntityGraph.from_edge_list(
            world.num_entities, [(0, 3), (3, 4), (4, 5)], [0.7, 0.6, 0.5], [0, 0, 0]
        )
        reasoner_a = GraphReasoner(graph_a, entity_dict)
        reasoner_b = GraphReasoner(graph_b, entity_dict)
        phrase = world.entities[0].name

        def fingerprint(view) -> tuple:
            return (
                tuple(e.entity_id for e in view.entities),
                tuple(view.hop_sizes),
            )

        def answer() -> tuple:
            """One request: (its label, its answer's fingerprint)."""
            active = runtime.acquire()
            view = runtime.expand(active, [phrase], depth=3)
            return active.graph_tag, fingerprint(view)

        runtime.activate_graph(reasoner_a, version=1, tag="gen-a")
        _, expected_a = answer()
        runtime.activate_graph(reasoner_b, version=2, tag="gen-b")
        _, expected_b = answer()
        assert expected_a != expected_b  # generations are distinguishable
        expected = {"gen-a": expected_a, "gen-b": expected_b}

        stop = threading.Event()
        torn: list[tuple] = []
        served = [0]
        lock = threading.Lock()

        def reader() -> None:
            while not stop.is_set():
                label, got = answer()
                with lock:
                    served[0] += 1
                    if got != expected[label]:
                        torn.append((label, got))

        readers = [threading.Thread(target=reader) for _ in range(6)]
        for t in readers:
            t.start()
        for swap in range(40):  # swap storm while readers are in flight
            if swap % 2 == 0:
                runtime.activate_graph(reasoner_a, version=2 * swap + 3, tag="gen-a")
            else:
                runtime.activate_graph(reasoner_b, version=2 * swap + 3, tag="gen-b")
            time.sleep(0.002)
        stop.set()
        for t in readers:
            t.join(timeout=10.0)
        assert served[0] > 0
        assert torn == []  # every answer came wholly from the labelled generation


# ----------------------------------------------------------------------
# Autograd mode is per-thread (regression for the global no_grad race)
# ----------------------------------------------------------------------
class TestGradModeThreadIsolation:
    def test_racing_no_grad_blocks_leave_recording_enabled(self):
        """Overlapping no_grad() enters/exits on N threads must restore each
        thread's own mode — with a process-global flag, an exit could restore
        a `False` saved by a concurrent enter, silently disabling autograd
        for every later training run (losses stop decreasing)."""
        from repro.tensor import is_grad_enabled, no_grad

        n = 8
        barrier = threading.Barrier(n)
        errors: list[str] = []

        def worker() -> None:
            barrier.wait()
            for _ in range(300):
                with no_grad():
                    if is_grad_enabled():
                        errors.append("recording enabled inside no_grad")
                if not is_grad_enabled():
                    errors.append("no_grad leaked past its block")

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert errors == []
        assert is_grad_enabled()  # the storm must not poison this thread

    def test_no_grad_in_one_thread_does_not_disable_another(self):
        """Inference holding no_grad open must not turn off recording for a
        concurrent training thread."""
        from repro.tensor import Tensor, is_grad_enabled, no_grad

        inside = threading.Event()
        release = threading.Event()

        def inference() -> None:
            with no_grad():
                inside.set()
                release.wait(timeout=10.0)

        t = threading.Thread(target=inference)
        t.start()
        try:
            assert inside.wait(timeout=10.0)
            assert is_grad_enabled()
            x = Tensor([1.0, 2.0], requires_grad=True)
            loss = (x * x).sum()
            loss.backward()
            assert x.grad is not None  # training thread still records
        finally:
            release.set()
            t.join(timeout=10.0)
