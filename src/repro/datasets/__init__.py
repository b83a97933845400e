"""Synthetic data substrate: world, behavior logs, drift, splits.

:mod:`repro.datasets.benchmark_data` (the Table II datasets) mines its
graph with TRMP, so it sits above :mod:`repro.trmp` and is imported from
its own module, not from here.
"""

from repro.datasets.world import NUM_ENTITY_TYPES, EntityRecord, World, WorldConfig
from repro.datasets.behavior import (
    BehaviorConfig,
    BehaviorEvent,
    BehaviorLog,
    BehaviorLogBuilder,
    BehaviorLogGenerator,
    Mention,
    WeeklyDriftProcess,
)
from repro.datasets.splits import LinkPredictionSplit, make_link_prediction_split
from repro.datasets.io import load_entity_dict, load_events, save_entity_dict, save_events

__all__ = [
    "World",
    "WorldConfig",
    "EntityRecord",
    "NUM_ENTITY_TYPES",
    "BehaviorConfig",
    "BehaviorEvent",
    "BehaviorLog",
    "BehaviorLogBuilder",
    "BehaviorLogGenerator",
    "Mention",
    "WeeklyDriftProcess",
    "LinkPredictionSplit",
    "make_link_prediction_split",
    "save_events",
    "load_events",
    "save_entity_dict",
    "load_entity_dict",
]
