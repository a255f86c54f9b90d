"""Directed acyclic graphs and purely structural criteria.

A :class:`Dag` stores an ordered node list and a parent set per node.
Everything here is graph-only: topological ordering, d-separation (by a
reachability sweep) and the back-door admissibility test.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import CycleError, UnknownNode, ValidationError


@dataclass(frozen=True)
class Dag:
    """Immutable DAG: ordered nodes plus an ordered parent tuple per node.

    ``parents`` is a read-only view of a private copy.

    Declaration order of ``nodes`` is the tie-breaking order used by every
    deterministic operation in the package.
    """

    nodes: tuple[str, ...]
    parents: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(self, "parents", MappingProxyType(dict(self.parents)))
        if len(set(self.nodes)) != len(self.nodes):
            raise ValidationError("duplicate node identifiers")
        node_set = set(self.nodes)
        if set(self.parents) != node_set:
            raise ValidationError("parents map must have exactly one entry per node")
        for child, pars in self.parents.items():
            if len(set(pars)) != len(pars):
                raise ValidationError(f"duplicate parents for {child!r}")
            for p in pars:
                if p not in node_set:
                    raise UnknownNode(f"parent {p!r} of {child!r} is not a node")
        # acyclicity: raises CycleError if no order exists
        topological_order(self)

    @classmethod
    def from_edges(cls, nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Dag":
        nodes = tuple(nodes)
        parents: dict[str, list[str]] = {n: [] for n in nodes}
        for parent, child in edges:
            if child not in parents:
                raise UnknownNode(f"edge child {child!r} is not a node")
            parents[child].append(parent)
        return cls(nodes, {n: tuple(ps) for n, ps in parents.items()})

    def children_map(self) -> dict[str, tuple[str, ...]]:
        children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for child in self.nodes:
            for p in self.parents[child]:
                children[p].append(child)
        return {n: tuple(cs) for n, cs in children.items()}

    def edges(self) -> list[tuple[str, str]]:
        return [(p, c) for c in self.nodes for p in self.parents[c]]

    def _check_nodes(self, names: Iterable[str]) -> None:
        node_set = set(self.nodes)
        for n in names:
            if n not in node_set:
                raise UnknownNode(f"unknown node {n!r}")


def topological_order(dag: Dag) -> list[str]:
    """Kahn's algorithm with declaration-order tie-breaking.

    The ready set is a heap of declaration indices.  Raises CycleError if
    the graph has a directed cycle.
    """
    index = {n: i for i, n in enumerate(dag.nodes)}
    indegree = [len(dag.parents[n]) for n in dag.nodes]
    children = dag.children_map()
    order: list[str] = []
    ready = [i for i, d in enumerate(indegree) if d == 0]  # ascending, so a heap
    while ready:
        n = dag.nodes[heapq.heappop(ready)]
        order.append(n)
        for c in children[n]:
            i = index[c]
            indegree[i] -= 1
            if indegree[i] == 0:
                heapq.heappush(ready, i)
    if len(order) != len(dag.nodes):
        done = set(order)
        remaining = [n for n in dag.nodes if n not in done]
        raise CycleError(f"no topological order; cycle among {remaining}")
    return order


def ancestors(dag: Dag, nodes: Iterable[str]) -> set[str]:
    """All strict ancestors of ``nodes`` (the nodes themselves excluded)."""
    dag._check_nodes(nodes)
    seen: set[str] = set()
    stack = [p for n in nodes for p in dag.parents[n]]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(dag.parents[n])
    return seen


def descendants(dag: Dag, node: str) -> set[str]:
    """All strict descendants of ``node``."""
    dag._check_nodes([node])
    children = dag.children_map()
    seen: set[str] = set()
    stack = list(children[node])
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(children[n])
    return seen


def d_separated(dag: Dag, a: Iterable[str], b: Iterable[str], s: Iterable[str] = ()) -> bool:
    """True iff every path between ``a`` and ``b`` is blocked given ``s``.

    Linear-time reachability sweep (the "ball" walks edges in both
    directions, crossing colliders only when an ancestor of ``s``).
    """
    a, b, s = set(a), set(b), set(s)
    dag._check_nodes(a | b | s)
    if a & b or a & s or b & s:
        raise ValueError("a, b, s must be pairwise disjoint")
    children = dag.children_map()
    anc_s = ancestors(dag, s) | s

    # direction encodes how the node was entered: 'up' = from a child
    # (or a start node), 'down' = from a parent.
    queue: deque[tuple[str, str]] = deque((x, "up") for x in a)
    visited: set[tuple[str, str]] = set()
    while queue:
        node, direction = queue.popleft()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node not in s and node in b:
            return False
        if direction == "up" and node not in s:
            for p in dag.parents[node]:
                queue.append((p, "up"))
            for c in children[node]:
                queue.append((c, "down"))
        elif direction == "down":
            if node not in s:
                for c in children[node]:
                    queue.append((c, "down"))
            if node in anc_s:
                for p in dag.parents[node]:
                    queue.append((p, "up"))
    return True


def backdoor_admissible(dag: Dag, treatment: str, outcome: str, s: Iterable[str]) -> bool:
    """Back-door criterion: ``s`` has no descendant of the treatment and
    blocks every path into the treatment that reaches the outcome."""
    s = set(s)
    dag._check_nodes(s | {treatment, outcome})
    if treatment == outcome:
        raise ValidationError("treatment and outcome must differ")
    if treatment in s or outcome in s:
        raise ValueError("adjustment set must exclude treatment and outcome")
    if s & descendants(dag, treatment):
        return False
    # removing the treatment's outgoing edges leaves exactly the
    # back-door paths, so plain d-separation decides blocking
    trimmed = Dag(
        dag.nodes,
        {
            n: tuple(p for p in dag.parents[n] if p != treatment)
            for n in dag.nodes
        },
    )
    return d_separated(trimmed, {treatment}, {outcome}, s)

