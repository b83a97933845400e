"""The paper's online rules, written to be obviously correct.

**Targeting** — one user at a time, from the users' ``sequences`` and the
entity embeddings — never from a store's arrays:

    score(u) = Σ_e ŵ_e · (r_u · h_e + direct_weight · freq_u(e))

``r_u`` is the mean of ``h_e`` over the user's sequence (Eq. 7),
``freq_u(e)`` the share of the sequence spent on ``e``, ``ŵ`` the request
weights scaled to sum to one (uniform when absent; a repeated entity
counts once per repeat). Users with an empty sequence are never returned.
The audience is the top ``k`` by score, ties by ascending user id.

**k-hop expansion** — one node at a time, from the committed edge list —
never from a reader. The serving artifact stores weights as float32 and
every adjacency row ascending by neighbour id, so:

* a relevance score is the float64 product of the *stored* (float32)
  weights along the best path from a seed;
* expansion is hop-synchronous: every frontier node expands from the score
  it held when the hop started;
* ``min_edge_weight`` drops edges whose stored weight is below the
  threshold (compared as stored, in float32);
* ``max_neighbors_per_node`` follows only a row's strongest edges,
  strongest first, ties by ascending neighbour id;
* a node's score (and parent) is replaced only by a strictly greater one;
* new nodes are admitted in the order they are met until ``max_nodes``
  nodes are known; a hop's list is that admission order.
"""

import numpy as np

TOLERANCE = 1e-9


def reference_scores(
    embeddings, sequences, num_users, entity_ids, weights=None,
    direct_weight=25.0, normalize=True,
) -> dict[int, float]:
    h = np.asarray(embeddings, dtype=np.float64)
    if normalize:
        h = h / np.maximum(np.linalg.norm(h, axis=1, keepdims=True), 1e-12)
    w = np.ones(len(entity_ids)) if weights is None else np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    scores = {}
    for user in range(num_users):
        ids = list(sequences[user].entity_ids) if user in sequences else []
        if not ids:
            continue
        r_u = np.mean([h[e] for e in ids], axis=0)
        scores[user] = sum(
            w_e * (float(r_u @ h[e]) + direct_weight * ids.count(e) / len(ids))
            for e, w_e in zip(entity_ids, w)
        )
    return scores


def reference_top_k(scores: dict[int, float], k: int) -> list[tuple[int, float]]:
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]


def assert_matches_reference(got, scores: dict[int, float], k: int, sequences) -> None:
    """``got`` (objects with ``user_id``/``score``) is the model's top-k:
    same user at every rank unless the two candidates' model scores are
    within ``TOLERANCE``, scores within ``TOLERANCE``, and users with
    identical sequences (exact ties) in ascending user id."""
    want = reference_top_k(scores, k)
    assert len(got) == len(want)
    assert len({g.user_id for g in got}) == len(got)
    for g, (user, score) in zip(got, want):
        assert abs(g.score - scores[g.user_id]) <= TOLERANCE
        assert g.user_id == user or abs(scores[g.user_id] - score) <= TOLERANCE
    by_sequence: dict[tuple, list[int]] = {}
    for g in got:
        by_sequence.setdefault(tuple(sequences[g.user_id].entity_ids), []).append(g.user_id)
    assert all(users == sorted(users) for users in by_sequence.values())


def expansion_key(result):
    """An ``ExpansionResult`` in the shape :func:`reference_expansion` returns."""
    return result.seeds, result.hops, result.scores, result.parents


def reference_expansion(
    num_nodes, edges, seeds, depth,
    min_edge_weight=0.0, max_neighbors_per_node=None, max_nodes=None,
):
    """``(seeds, hops, scores, parents)`` of the expansion over ``edges``,
    the committed ``(u, v, weight)`` triples (one per undirected edge)."""
    rows = {node: [] for node in range(num_nodes)}
    for u, v, weight in edges:
        stored = np.float32(weight)
        rows[int(u)].append((int(v), stored))
        rows[int(v)].append((int(u), stored))
    seeds = list(dict.fromkeys(int(s) for s in seeds))
    scores = {s: 1.0 for s in seeds}
    parents = {s: s for s in seeds}
    hops = [list(seeds)]
    for _ in range(depth):
        frontier = [(node, scores[node]) for node in hops[-1]]
        admitted = []
        for node, base in frontier:
            row = sorted(rows[node])
            if min_edge_weight > 0:
                row = [(n, w) for n, w in row if w >= np.float32(min_edge_weight)]
            if max_neighbors_per_node is not None:
                row = sorted(row, key=lambda edge: -edge[1])[:max_neighbors_per_node]
            for neighbour, stored in row:
                score = base * float(stored)
                if neighbour not in scores:
                    if max_nodes is not None and len(scores) >= max_nodes:
                        continue
                    admitted.append(neighbour)
                elif score <= scores[neighbour]:
                    continue
                scores[neighbour] = score
                parents[neighbour] = node
        hops.append(admitted)
    return seeds, hops, scores, parents
