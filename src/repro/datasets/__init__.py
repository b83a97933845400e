"""Synthetic data substrate: world, behavior logs, drift, splits."""

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
from repro.datasets.benchmark_data import (
    DEFAULT_SAMPLING_RATIOS,
    DatasetMBundle,
    OfflineDataset,
    build_dataset_m,
    sample_sub_datasets,
)

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
    "DEFAULT_SAMPLING_RATIOS",
    "DatasetMBundle",
    "OfflineDataset",
    "build_dataset_m",
    "sample_sub_datasets",
    "save_events",
    "load_events",
    "save_entity_dict",
    "load_entity_dict",
]
