"""The daily preference build, the one stage a daily refresh runs.

:class:`~repro.online.system.EGLSystem` runs :func:`preference_stage` in a
:class:`~repro.trmp.stage_worker.StageWorker`; it lives apart from
:mod:`repro.trmp.stages` so that worker imports the NER extractor and the
preference store, not the training stack the weekly stages need.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

import numpy as np

from repro.datasets.behavior import BehaviorLog
from repro.preference.store import PreferenceStore
from repro.text.sequence_extractor import EntitySequenceExtractor


def preference_stage(
    extractor: EntitySequenceExtractor,
    events: BehaviorLog,
    embeddings: np.ndarray,
    num_users: int,
    directory: Path,
    tag: str,
) -> tuple[int, dict[str, float]]:
    """The daily build, written to ``directory``; returns #covered users."""
    start = perf_counter()
    sequences = extractor.extract_sequences(events)
    extracted = perf_counter()
    store = PreferenceStore(embeddings, version_tag=tag).build(sequences, num_users)
    built = perf_counter()
    store.save_memmap(directory)
    return store.num_users, {
        "extract": extracted - start,
        "build": built - extracted,
        "save": perf_counter() - built,
    }
