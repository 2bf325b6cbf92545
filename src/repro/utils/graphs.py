"""Unweighted graph routines over insertion-ordered adjacency dicts.

A graph is a ``dict[node, dict[node, data]]`` with ``adj[u][v] is
adj[v][u]``: the layout of ``networkx.Graph._adj``.  The coupling map, the
router and both matching decoders walk such dicts, and their results hang
on the order in which ties are met (which neighbour a BFS reaches first,
which shortest path a route takes), so every routine here is a port of
networkx 3.6.1 that visits nodes and neighbours in the order upstream does
for a graph with the same insertion order:

* :func:`add_edge` is ``Graph.add_edge``;
* :func:`copied` is ``Graph.copy()``, which re-adds every edge node by node,
  so a copy's neighbour order can differ from the original's;
* :func:`edges` is ``Graph.edges(data=True)`` (``EdgeDataView.__iter__``);
* :func:`bfs` is ``single_source_shortest_path_length``, and its key order
  is ``[source]`` plus the targets of ``bfs_edges``;
* :func:`shortest_path` is the unweighted ``shortest_path(G, source,
  target)``: ``bidirectional_shortest_path`` and its helper
  ``_bidirectional_pred_succ``, line for line, apart from returning ``None``
  where upstream raises ``NetworkXNoPath``.

``tests/utils/test_graphs.py`` checks each against networkx itself.

networkx is distributed under the 3-clause BSD license::

   Copyright (c) 2004-2025, NetworkX Developers
   Aric Hagberg <hagberg@lanl.gov>
   Dan Schult <dschult@colgate.edu>
   Pieter Swart <swart@lanl.gov>
   All rights reserved.

   Redistribution and use in source and binary forms, with or without
   modification, are permitted provided that the following conditions are
   met:

     * Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

     * Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

     * Neither the name of the NetworkX Developers nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator
from typing import Any

Adjacency = dict[Hashable, dict[Hashable, Any]]


def add_edge(adj: Adjacency, u, v, data=None) -> None:
    """Add the edge ``u``-``v``: ``u`` joins the nodes before ``v``, and an
    existing edge keeps its place in both neighbour orders."""
    adj.setdefault(u, {})[v] = data
    adj.setdefault(v, {})[u] = data


def copied(adj: Adjacency) -> Adjacency:
    """A copy in ``Graph.copy()``'s order: the same node order, and each
    node's edges re-added, node by node, from both ends."""
    copy: Adjacency = {u: {} for u in adj}
    for u, nbrs in adj.items():
        for v, data in nbrs.items():
            copy[u][v] = data
            copy[v][u] = data
    return copy


def edges(adj: Adjacency) -> Iterator[tuple[Any, Any, Any]]:
    """Each edge once as ``(u, v, data)``, from the end met first in node
    order."""
    seen = set()
    for u, nbrs in adj.items():
        for v, data in nbrs.items():
            if v not in seen:
                yield u, v, data
        seen.add(u)


def bfs(adj: Adjacency, source) -> dict:
    """Hop count from ``source`` to every node it reaches, in the order a
    breadth-first search reaches them."""
    lengths = {source: 0}
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        this_level, frontier = frontier, []
        for v in this_level:
            for w in adj[v]:
                if w not in lengths:
                    lengths[w] = level
                    frontier.append(w)
    return lengths


def shortest_path(adj: Adjacency, source, target) -> list | None:
    """A shortest ``source``-``target`` path by bidirectional BFS, or
    ``None`` if none exists.  Each round grows the smaller fringe (the
    forward one on a tie) and stops at the first node both searches hold."""
    if target == source:
        return [source]
    pred = {source: None}
    succ = {target: None}
    forward_fringe = [source]
    reverse_fringe = [target]
    while forward_fringe and reverse_fringe:
        if len(forward_fringe) <= len(reverse_fringe):
            this_level = forward_fringe
            forward_fringe = []
            for v in this_level:
                for w in adj[v]:
                    if w not in pred:
                        forward_fringe.append(w)
                        pred[w] = v
                    if w in succ:
                        return _join(pred, succ, w)
        else:
            this_level = reverse_fringe
            reverse_fringe = []
            for v in this_level:
                for w in adj[v]:
                    if w not in succ:
                        succ[w] = v
                        reverse_fringe.append(w)
                    if w in pred:
                        return _join(pred, succ, w)
    return None


def _join(pred: dict, succ: dict, w) -> list:
    """The path from ``pred``'s root through ``w`` to ``succ``'s root."""
    path = []
    while w is not None:
        path.append(w)
        w = pred[w]
    path.reverse()
    w = succ[path[-1]]
    while w is not None:
        path.append(w)
        w = succ[w]
    return path
