"""k-hop entity expansion — the online "entity graph reasoning" primitive.

Given seed entities (the marketer's service phrases), expand outwards along
the entity graph. Each discovered entity carries a *relevance score*: the
best product of edge confidences along any path from a seed, so scores decay
with depth exactly the way the paper's relevancy/diversity trade-off
describes (§II-B: deeper expansion → more entities, lower relevance).

Expansion is *hop-synchronous*: every node of a frontier expands from the
score it held when the hop started, and all score improvements commit at
the end of the hop. That makes the result a pure function of the graph and
the parameters — independent of the order frontier rows are processed.

One kernel, ``_expand_csr``, implements it: a frontier sweep over a CSR
adjacency (anything with ``num_nodes`` and ``csr_view() -> (offsets,
neighbors, weights)``) — one gather per hop, then a vectorized weight
filter, per-row top-k and best-parent merge. ``tests/reference_model.py``
holds the per-node definition it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError
from repro.graph.entity_graph import EntityGraph
from repro.obs.context import phase


@dataclass
class ExpansionResult:
    """Result of a k-hop expansion.

    Attributes
    ----------
    seeds:
        The seed entity ids.
    hops:
        ``hops[d]`` is the list of entity ids first reached at depth ``d``
        (``hops[0] == seeds``).
    scores:
        Mapping entity id → relevance score in ``(0, 1]``.
    parents:
        Mapping entity id → the neighbour it was best reached from
        (seeds map to themselves); enables path explanations.
    """

    seeds: list[int]
    hops: list[list[int]]
    scores: dict[int, float]
    parents: dict[int, int] = field(default_factory=dict)
    _seed_set: frozenset[int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _depths: dict[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def entities(self, min_score: float = 0.0, exclude_seeds: bool = False) -> list[int]:
        """All discovered entities, best-score order, optionally filtered."""
        if self._seed_set is None:
            self._seed_set = frozenset(self.seeds)
        seed_set = self._seed_set
        items = [
            (node, score)
            for node, score in self.scores.items()
            if score >= min_score and not (exclude_seeds and node in seed_set)
        ]
        items.sort(key=lambda pair: (-pair[1], pair[0]))
        return [node for node, _ in items]

    def depth_of(self, node: int) -> int:
        if self._depths is None:
            self._depths = {
                n: depth for depth, nodes in enumerate(self.hops) for n in nodes
            }
        try:
            return self._depths[node]
        except KeyError:
            raise GraphError(f"entity {node} was not reached by this expansion") from None

    def path_to(self, node: int) -> list[int]:
        """Best path seed → node (the marketer-facing explanation)."""
        if node not in self.parents:
            raise GraphError(f"entity {node} was not reached by this expansion")
        path = [node]
        while self.parents[path[-1]] != path[-1]:
            path.append(self.parents[path[-1]])
        path.reverse()
        return path


def k_hop_expansion(
    graph: EntityGraph,
    seeds: list[int],
    depth: int,
    min_edge_weight: float = 0.0,
    max_neighbors_per_node: int | None = None,
    max_nodes: int | None = None,
) -> ExpansionResult:
    """Breadth-first expansion with multiplicative confidence scores.

    Parameters
    ----------
    graph:
        The mined entity graph — anything exposing ``num_nodes`` and
        ``csr_view()``: a :class:`~repro.graph.csr.CSRGraph` artifact or an
        in-memory :class:`EntityGraph`.
    seeds:
        Seed entity ids (deduplicated, order preserved).
    depth:
        Number of hops (``depth=0`` returns only the seeds).
    min_edge_weight:
        Edges below this confidence are ignored.
    max_neighbors_per_node:
        If set, only each node's strongest ``k`` edges are followed —
        keeps the frontier tractable on hub entities. Edges of a capped
        row are processed strongest-first (ties by adjacency position).
    max_nodes:
        Hard budget on total discovered entities — the serving runtime's
        per-request guardrail. Once reached, no new nodes are admitted
        (scores of already-seen nodes may still improve).
    """
    if depth < 0:
        raise GraphError("depth must be non-negative")
    if max_nodes is not None and max_nodes < 1:
        raise GraphError("max_nodes must be >= 1")
    ordered_seeds: list[int] = []
    seed_set: set[int] = set()
    for s in seeds:
        s = int(s)
        if not 0 <= s < graph.num_nodes:
            raise GraphError(f"seed {s} out of range")
        if s not in seed_set:
            seed_set.add(s)
            ordered_seeds.append(s)

    return _expand_csr(
        graph, ordered_seeds, depth, min_edge_weight, max_neighbors_per_node, max_nodes
    )


def _expand_csr(
    graph,
    ordered_seeds: list[int],
    depth: int,
    min_edge_weight: float,
    max_neighbors_per_node: int | None,
    max_nodes: int | None,
) -> ExpansionResult:
    """Vectorized frontier sweep over one CSR adjacency.

    Per hop: one gather of every frontier row, a vectorized weight filter
    and per-row top-k, then a single lexsort-based merge that picks each
    target's best (score, earliest-candidate) parent.

    Each stage of the sweep is a phase of the ambient request record
    (``khop`` → ``hop.seed`` / ``hop.gather`` / ``hop.filter_cap`` /
    ``hop.merge`` / ``hop.admit`` / ``hop.collect``), so one ``/journeys``
    row attributes a cold expansion's wall time; outside a request the
    phase blocks are no-ops.
    """
    with phase("khop"):
        with phase("hop.seed"):
            offsets, adj_nbrs, adj_ws = graph.csr_view()
            num_nodes = graph.num_nodes

            score = np.zeros(num_nodes)
            parent = np.full(num_nodes, -1, dtype=np.int64)
            seen = np.zeros(num_nodes, dtype=bool)
            seed_arr = np.asarray(ordered_seeds, dtype=np.int64)
            score[seed_arr] = 1.0
            parent[seed_arr] = seed_arr
            seen[seed_arr] = True
            seen_count = len(seed_arr)

            hops: list[list[int]] = [list(ordered_seeds)]
            frontier = seed_arr
        for _ in range(depth):
            if len(frontier) == 0:
                break
            with phase("hop.gather"):
                starts = np.asarray(offsets[frontier], dtype=np.int64)
                counts = np.asarray(offsets[frontier + 1], dtype=np.int64) - starts
                # rep[i] says which frontier position produced candidate i;
                # within a row, candidates keep row order.
                rep = np.repeat(np.arange(len(frontier)), counts)
                row_start = np.cumsum(counts) - counts
                edge_idx = starts[rep] + (np.arange(len(rep)) - row_start[rep])
                nbrs = np.asarray(adj_nbrs[edge_idx], dtype=np.int64)
                ws = np.asarray(adj_ws[edge_idx])

            with phase("hop.filter_cap"):
                if min_edge_weight > 0:
                    keep = ws >= min_edge_weight
                    rep, nbrs, ws = rep[keep], nbrs[keep], ws[keep]
                if max_neighbors_per_node is not None and len(rep):
                    # Reorder every row strongest-first (ties by position)
                    # and keep its first `cap` entries.
                    pos = np.arange(len(rep))
                    order = np.lexsort((pos, -ws, rep))
                    rep_sorted = rep[order]
                    row_first = np.flatnonzero(
                        np.r_[True, rep_sorted[1:] != rep_sorted[:-1]]
                    )
                    row_sizes = np.diff(np.r_[row_first, len(rep_sorted)])
                    rank = np.arange(len(rep_sorted)) - np.repeat(row_first, row_sizes)
                    order = order[rank < max_neighbors_per_node]
                    rep, nbrs, ws = rep[order], nbrs[order], ws[order]
            if len(rep) == 0:
                hops.append([])
                frontier = np.empty(0, dtype=np.int64)
                break

            with phase("hop.merge"):
                # Hop-synchronous bases (scores at hop start); the stored
                # (float32) weights are multiplied in float64.
                cand_scores = score[frontier[rep]] * ws.astype(np.float64)

                # Per-target merge: best score wins, earliest candidate on
                # ties (a later candidate must be strictly greater to win).
                merge = np.lexsort((np.arange(len(nbrs)), -cand_scores, nbrs))
                nbrs_sorted = nbrs[merge]
                best_mask = np.r_[True, nbrs_sorted[1:] != nbrs_sorted[:-1]]
                best_targets = nbrs_sorted[best_mask]
                best_scores = cand_scores[merge][best_mask]
                best_parents = frontier[rep[merge]][best_mask]

            with phase("hop.admit"):
                # Admission order of new nodes = first occurrence in
                # candidate order; the max_nodes budget truncates in that
                # same order.
                uniq_targets, first_occ = np.unique(nbrs, return_index=True)
                fresh = ~seen[uniq_targets]
                admitted = uniq_targets[fresh][np.argsort(first_occ[fresh])]
                if max_nodes is not None:
                    admitted = admitted[: max(0, max_nodes - seen_count)]
                admitted_mask = np.zeros(num_nodes, dtype=bool)
                admitted_mask[admitted] = True

                new_sel = admitted_mask[best_targets]
                improve_sel = seen[best_targets] & (best_scores > score[best_targets])
                commit = new_sel | improve_sel
                score[best_targets[commit]] = best_scores[commit]
                parent[best_targets[commit]] = best_parents[commit]
                seen[admitted] = True
                seen_count += len(admitted)

                hops.append([int(n) for n in admitted])
                frontier = admitted
        with phase("hop.collect"):
            while len(hops) < depth + 1:
                hops.append([])

            scores: dict[int, float] = {}
            parents: dict[int, int] = {}
            for hop_nodes in hops:
                for node in hop_nodes:
                    scores[node] = float(score[node])
                    parents[node] = int(parent[node])
            return ExpansionResult(
                seeds=ordered_seeds, hops=hops, scores=scores, parents=parents
            )
