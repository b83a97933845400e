"""TRMP: the Three-stage Relation Mining Procedure (the paper's core).

Names resolve on first use (PEP 562): a stage worker imports
:mod:`repro.trmp.stage_worker` through this package and must not pay for
the training stack before its first job asks for it.
"""

import importlib

_LAZY = {
    **dict.fromkeys(
        (
            "CandidateGenerationConfig", "CandidateGenerator", "CandidateResult",
            "popularity_sampling_pairs",
        ),
        "candidate",
    ),
    **dict.fromkeys(
        ("anchor_negative_mask", "info_nce_loss", "prediction_loss", "threshold_loss", "total_loss"),
        "losses",
    ),
    **dict.fromkeys(
        ("hard_negative_pairs", "mixed_negative_pairs", "semantic_anchor_pairs"),
        "negative_sampling",
    ),
    **dict.fromkeys(("ALPCConfig", "ALPCLinkPredictor", "ALPCModel", "ALPCTrainReport"), "alpc"),
    **dict.fromkeys(("EnsembleConfig", "EnsembleLinkPredictor", "EnsembleModel"), "ensemble"),
    **dict.fromkeys(("TRMPConfig", "TRMPipeline", "WeeklyRun"), "pipeline"),
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_LAZY)
