"""Answer checking for the socket-to-kernel benchmark.

Two levels:

* **Every response** (:func:`check_response`): status 200, ``ok`` true,
  both artifact versions present, expansions within ``depth`` and
  ``max_entities``, audiences exactly ``k`` distinct users in descending
  score order, and versions that never go backwards on one connection.
* **Probe set** (:func:`answers_digest`): a canonical digest of the fixed
  probe answers (ids in order, scores to 4 dp). The digest of the answers
  that came over HTTP must equal the digest of the answers obtained by
  calling ``GraphReasoner.expand`` and
  ``PreferenceStore.top_users_for_entities`` directly on the same
  generation. The kernel side checks the full order (score descending,
  then user id ascending) on unrounded scores; a response carries scores
  rounded to 6 dp, where distinct scores can collapse, so the per-response
  check cannot demand ascending ids among equal rounded scores.

:func:`self_test` proves the checker rejects corrupted responses.
"""

from __future__ import annotations

import hashlib
import json

from workloads import MAX_ENTITIES, Request


class CheckError(Exception):
    """A response that is not a correct answer to its request."""


def _check_users(users: list, k: int) -> None:
    if len(users) != k:
        raise CheckError(f"expected {k} users, got {len(users)}")
    scores = [user["score"] for user in users]
    if any(a < b for a, b in zip(scores, scores[1:])):
        raise CheckError("users are not in descending score order")
    if len({user["user_id"] for user in users}) != len(users):
        raise CheckError("duplicate user in audience")


def check_response(
    request: Request, status: int, body: bytes, last_versions: tuple[int, int]
) -> tuple[int, int]:
    """Validate one response; returns its ``(graph, preference)`` versions.

    ``last_versions`` are the versions of the previous response on the
    same connection (``(0, 0)`` for the first).
    """
    if status != 200:
        raise CheckError(f"HTTP {status}: {body[:200]!r}")
    try:
        envelope = json.loads(body)
    except ValueError as error:
        raise CheckError(f"body is not JSON: {error}") from None
    if envelope.get("ok") is not True:
        raise CheckError(f"ok is not true: {envelope.get('code')} {envelope.get('error')}")
    versions = (envelope.get("graph_version"), envelope.get("preference_version"))
    if versions[0] is None or versions[1] is None:
        raise CheckError(f"missing artifact version: {versions}")
    if versions[0] < last_versions[0] or versions[1] < last_versions[1]:
        raise CheckError(f"versions went backwards: {last_versions} -> {versions}")
    payload = envelope.get("payload") or {}
    if request.endpoint == "expand":
        entities = payload.get("entities")
        if not isinstance(entities, list) or not payload.get("seeds"):
            raise CheckError("expand payload lacks seeds or entities")
        if len(entities) > MAX_ENTITIES:
            raise CheckError(f"{len(entities)} entities exceed max_entities")
        if any(entity["hop"] > request.depth for entity in entities):
            raise CheckError(f"entity beyond depth {request.depth}")
    elif request.endpoint == "target":
        _check_users(payload.get("users") or [], request.k)
    else:
        results = payload.get("results") or []
        if len(results) != request.batch:
            raise CheckError(f"expected {request.batch} results, got {len(results)}")
        for result in results:
            _check_users(result.get("users") or [], request.k)
    return versions


def canonical_answer(endpoint: str, payload: dict) -> list:
    """The part of a response payload that the probe digest covers."""
    if endpoint == "expand":
        return [[e["entity_id"], round(e["score"], 4)] for e in payload["entities"]]
    if endpoint == "target":
        return [[u["user_id"], round(u["score"], 4)] for u in payload["users"]]
    return [canonical_answer("target", result) for result in payload["results"]]


def answers_digest(answers: list) -> str:
    """SHA-256 of canonical answers, in probe order."""
    return hashlib.sha256(
        json.dumps(answers, separators=(",", ":")).encode("ascii")
    ).hexdigest()


def self_test() -> None:
    """Raise unless the checker rejects corrupted copies of good responses."""

    def envelope(payload: dict) -> dict:
        return {"ok": True, "graph_version": 2, "preference_version": 3,
                "payload": payload}

    expand = Request("expand", b"", depth=2)
    target = Request("target", b"", k=3)
    good_expand = envelope({
        "seeds": ["a"],
        "entities": [{"entity_id": 5, "hop": 1, "score": 0.9},
                     {"entity_id": 7, "hop": 2, "score": 0.4}],
    })
    good_target = envelope({
        "users": [{"user_id": 9, "score": 0.8}, {"user_id": 2, "score": 0.5},
                  {"user_id": 4, "score": 0.5}],
    })
    cases = []
    for request, good in ((expand, good_expand), (target, good_target)):
        body = json.dumps(good).encode("utf-8")
        check_response(request, 200, body, (2, 3))
        cases.append(("status", request, 500, body, (0, 0)))
        cases.append(("truncation", request, 200, body[: len(body) // 2], (0, 0)))
        cases.append(("version order", request, 200, body, (3, 3)))
        for name, change in (("ok", {"ok": False}), ("version", {"graph_version": None})):
            bad = json.dumps({**good, **change}).encode("utf-8")
            cases.append((name, request, 200, bad, (0, 0)))
    entities = good_expand["payload"]["entities"]
    users = good_target["payload"]["users"]
    for name, request, payload in (
        ("hop", expand, {"seeds": ["a"], "entities": [{**entities[0], "hop": 3}]}),
        ("entity count", expand, {"seeds": ["a"], "entities": entities * 13}),
        ("user order", target, {"users": users[::-1]}),
        ("user count", target, {"users": users[:2]}),
        ("duplicate user", target, {"users": [users[0], users[1], users[1]]}),
    ):
        bad = json.dumps(envelope(payload)).encode("utf-8")
        cases.append((name, request, 200, bad, (0, 0)))
    for name, request, status, body, last in cases:
        try:
            check_response(request, status, body, last)
        except CheckError:
            continue
        raise AssertionError(f"checker accepted a corrupted {name} ({request.endpoint})")
