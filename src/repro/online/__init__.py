"""Online serving: graph reasoning, user targeting, feedback, EGL facade.

:class:`EGLSystem` (which runs the offline refreshes) and the API facade
sit above :mod:`repro.serving`, which imports the read path from here, so
their names resolve on first use (PEP 562): importing
:mod:`repro.online.reasoning` loads no refresh and no serving code.
"""

import importlib

from repro.online.reasoning import EntityView, ExpansionView, GraphReasoner
from repro.online.targeting import TargetingResult, UserTargeting, target_users_for_phrases
from repro.online.feedback import FeedbackRecorder
from repro.online.explain import UserExplanation, explain_expansion, explain_targeting, explain_user

_LAZY = {
    "EGLSystem": "system",
    "RefreshReport": "system",
    "ApiResponse": "api",
    "EGLService": "api",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EntityView",
    "ExpansionView",
    "GraphReasoner",
    "TargetingResult",
    "UserTargeting",
    "target_users_for_phrases",
    "FeedbackRecorder",
    "UserExplanation",
    "explain_expansion",
    "explain_targeting",
    "explain_user",
    *_LAZY,
]
