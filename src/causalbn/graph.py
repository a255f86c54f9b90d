"""Directed acyclic graphs and purely structural criteria.

A :class:`Dag` stores an ordered node list and a parent set per node.
Everything here is graph-only: topological ordering, d-separation (by a
reachability sweep) and the back-door admissibility test.  Every other
walk, ``bayesnet``'s pruning too, is one ``_reach`` call; the sweep keeps
its own loop, since it stops at the first node of ``b`` it reaches.
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

    ``parents`` is a read-only view of a private copy; the children map is
    built once, with the graph, and is read-only too.

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
        children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for child in self.nodes:
            for p in self.parents[child]:
                children[p].append(child)
        object.__setattr__(
            self, "_children", MappingProxyType({n: tuple(cs) for n, cs in children.items()})
        )
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

    def children_map(self) -> Mapping[str, tuple[str, ...]]:
        """Read-only map from each node to its children, in declaration order."""
        return self._children

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
    the graph has a directed cycle, naming in declaration order the nodes
    that lie on one.
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
        on_cycle = [n for n in dag.nodes if n not in done and n in descendants(dag, n)]
        raise CycleError(f"no topological order; cycle among {on_cycle}")
    return order


def _reach(step, start: Iterable[str]) -> set[str]:
    """``start`` and every node reached from it by repeated ``step``, a
    map from a node to its neighbours; depth first, to the end."""
    seen: set[str] = set()
    stack = list(start)
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(step(n))
    return seen


def ancestors(dag: Dag, nodes: Iterable[str]) -> set[str]:
    """All strict ancestors of ``nodes`` (the nodes themselves excluded)."""
    nodes = tuple(nodes)
    dag._check_nodes(nodes)
    parents = dag.parents
    return _reach(parents.__getitem__, [p for n in nodes for p in parents[n]])


def descendants(dag: Dag, node: str) -> set[str]:
    """All strict descendants of ``node``."""
    dag._check_nodes([node])
    children = dag.children_map()
    return _reach(children.__getitem__, children[node])


def d_separated(dag: Dag, a: Iterable[str], b: Iterable[str], s: Iterable[str] = ()) -> bool:
    """True iff every path between ``a`` and ``b`` is blocked given ``s``.

    Linear-time reachability sweep (the "ball" walks edges in both
    directions, crossing colliders only when an ancestor of ``s``).
    """
    a, b, s = set(a), set(b), set(s)
    dag._check_nodes(a | b | s)
    if a & b or a & s or b & s:
        raise ValueError("a, b, s must be pairwise disjoint")
    return _sweep(dag, a, b, s)


def _sweep(dag: Dag, a: set, b: set, s: set, cut: str | None = None) -> bool:
    """``d_separated`` on checked sets, in the graph without the edges out
    of ``cut``.

    ``cut`` must be in ``a`` and have no descendant in ``s``.  Then the
    edges left out change no ancestor of ``s``, and walking one of them up
    into ``cut`` only reaches a start again, so the sweep need only not
    walk them down.
    """
    children = dag.children_map()
    anc_s = _reach(dag.parents.__getitem__, s)

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
        below = () if node == cut else children[node]
        if direction == "up" and node not in s:
            for p in dag.parents[node]:
                queue.append((p, "up"))
            for c in below:
                queue.append((c, "down"))
        elif direction == "down":
            if node not in s:
                for c in below:
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
    # without the treatment's outgoing edges only the back-door paths are
    # left, so d-separation there decides blocking
    return _sweep(dag, {treatment}, {outcome}, s, cut=treatment)

