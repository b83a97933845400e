"""Online serving: graph reasoning, user targeting, feedback, EGL facade."""

from repro.online.reasoning import EntityView, ExpansionView, GraphReasoner
from repro.online.targeting import TargetingResult, UserTargeting, target_users_for_phrases
from repro.online.feedback import FeedbackRecorder
from repro.online.system import EGLSystem, RefreshReport
from repro.online.explain import UserExplanation, explain_expansion, explain_targeting, explain_user
from repro.online.api import ApiResponse, EGLService

__all__ = [
    "EntityView",
    "ExpansionView",
    "GraphReasoner",
    "TargetingResult",
    "UserTargeting",
    "target_users_for_phrases",
    "FeedbackRecorder",
    "EGLSystem",
    "RefreshReport",
    "UserExplanation",
    "explain_expansion",
    "explain_targeting",
    "explain_user",
    "ApiResponse",
    "EGLService",
]
