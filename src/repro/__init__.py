"""repro — a reproduction of the EGL System (ICDE 2023).

"Who Would be Interested in Services? An Entity Graph Learning System for
User Targeting" (Yang, Hu, Yang et al., Ant Group).

Quick tour
----------
>>> import tempfile
>>> from repro.datasets import BehaviorLogGenerator, World, WorldConfig
>>> from repro.online.system import EGLSystem
>>> world = World(WorldConfig(num_entities=200, num_users=150))
>>> root = tempfile.TemporaryDirectory()            # the artifact registry
>>> system = EGLSystem(world, artifact_root=root.name)
>>> generator = BehaviorLogGenerator(world)
>>> events = generator.generate_week(0)
>>> report = system.weekly_refresh(events)          # offline: TRMP
>>> covered = system.daily_preference_refresh(events)
>>> from repro.online.targeting import target_users_for_phrases
>>> view, result = target_users_for_phrases(       # online: cold start
...     system.runtime.acquire(), [world.entities[0].name], depth=2, k=20)
>>> from repro.online.api import EGLService       # online: one request
>>> from repro.serving.frontend import QueryFrontend
>>> status, envelope = QueryFrontend(EGLService(system)).dispatch(
...     "expand", {"phrases": [world.entities[0].name], "depth": 2})

Subpackages: :mod:`repro.tensor` (autograd), :mod:`repro.nn` (layers),
:mod:`repro.text`, :mod:`repro.embeddings`, :mod:`repro.graph`,
:mod:`repro.gnn`, :mod:`repro.baselines`, :mod:`repro.trmp` (the core),
:mod:`repro.preference`, :mod:`repro.online`, :mod:`repro.datasets`,
:mod:`repro.eval`, :mod:`repro.simulation`, :mod:`repro.obs`
(metrics/tracing/clock).

This package imports nothing: a process loads only the layers it uses
(``tests/test_layers.py`` holds the order), so a stage worker loads no
serving code and the serving path loads no training code.
"""

__version__ = "1.1.0"
