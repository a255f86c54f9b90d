"""Discrete Bayesian networks: CPTs, exact inference, forward sampling.

Inference works on the full joint table (paper-scale models have a
handful of nodes), guarded by a configuration-count cap.  Probabilities
live in numpy arrays with one axis per variable, first scope variable
slowest (C order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DomainError,
    EmptyDataset,
    SizeCapExceeded,
    UnknownVariable,
    ValidationError,
    ZeroProbabilityEvidence,
)
from .graph import Dag, topological_order

#: row sums of user-supplied CPTs must match 1 this closely
ROW_SUM_TOL = 1e-9
#: internal arithmetic identities are checked this tightly
ARITH_TOL = 1e-12
#: default cap on joint configuration count
DEFAULT_SIZE_CAP = 2**24
#: rows rendered per chunk by ``Dataset.to_csv``
_CSV_CHUNK_ROWS = 1 << 17


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with an ordered state list."""

    name: str
    states: tuple[str, ...]

    def __post_init__(self):
        if len(self.states) < 2:
            raise ValidationError(f"variable {self.name!r} needs >= 2 states")
        if len(set(self.states)) != len(self.states):
            raise ValidationError(f"variable {self.name!r} has duplicate states")


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table for one child.

    ``table`` has one row per parent configuration (first listed parent
    slowest-varying) and one column per child state.
    """

    child: str
    parents: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=float))


@dataclass(frozen=True)
class DiscreteBayesNet:
    dag: Dag
    variables: Mapping[str, Variable]
    cpts: Mapping[str, Cpt]

    def card(self, name: str) -> int:
        return len(self.variables[name].states)

    def state_index(self, name: str, state: str) -> int:
        var = self.variables.get(name)
        if var is None:
            raise UnknownVariable(f"unknown variable {name!r}")
        try:
            return var.states.index(state)
        except ValueError:
            raise UnknownVariable(f"{state!r} is not a state of {name!r}") from None


def validate(net: DiscreteBayesNet) -> None:
    """Raise ValidationError naming the first violated invariant."""
    dag = net.dag
    if set(net.variables) != set(dag.nodes):
        raise ValidationError("variable set does not match dag nodes")
    for node in dag.nodes:
        if node not in net.cpts:
            raise ValidationError(f"missing CPT for {node!r}")
        cpt = net.cpts[node]
        if cpt.child != node:
            raise ValidationError(f"CPT child mismatch for {node!r}")
        if cpt.parents != dag.parents[node]:
            raise ValidationError(
                f"parent mismatch for {node!r}: CPT {cpt.parents} vs dag {dag.parents[node]}"
            )
        n_rows = 1
        for p in cpt.parents:
            n_rows *= net.card(p)
        if cpt.table.shape != (n_rows, net.card(node)):
            raise ValidationError(
                f"CPT shape for {node!r} is {cpt.table.shape}, expected {(n_rows, net.card(node))}"
            )
        if np.any(cpt.table < 0) or np.any(cpt.table > 1):
            raise ValidationError(f"CPT entry outside [0,1] for {node!r}")
        sums = cpt.table.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if bad.size:
            raise ValidationError(
                f"row sum {sums[bad[0]]:.12g} != 1 in CPT for {node!r} (row {bad[0]})"
            )


@dataclass(frozen=True)
class Factor:
    """Nonnegative table over an ordered variable scope.

    ``values`` has one axis per scope variable, first variable slowest.
    ``states`` gives the state labels per scope variable.
    """

    scope: tuple[str, ...]
    states: tuple[tuple[str, ...], ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expected = tuple(len(s) for s in self.states)
        if vals.shape != expected:
            raise ValueError(f"factor shape {vals.shape} != {expected}")
        if np.any(vals < -ARITH_TOL):
            raise ValueError("negative factor value")
        object.__setattr__(self, "values", vals)

    def _axis(self, name: str) -> int:
        try:
            return self.scope.index(name)
        except ValueError:
            raise UnknownVariable(f"{name!r} not in factor scope") from None

    def marginal(self, keep: Iterable[str]) -> "Factor":
        """Sum out everything not in ``keep``; scope keeps its order."""
        keep = set(keep)
        for name in keep:
            self._axis(name)
        drop_axes = tuple(i for i, v in enumerate(self.scope) if v not in keep)
        new_scope = tuple(v for v in self.scope if v in keep)
        new_states = tuple(s for v, s in zip(self.scope, self.states) if v in keep)
        return Factor(new_scope, new_states, self.values.sum(axis=drop_axes))

    def condition(self, evidence: Mapping[str, str]) -> "Factor":
        """Slice at the evidence states and renormalize the rest."""
        if not evidence:
            total = self.values.sum()
            if total <= 0:
                raise ZeroProbabilityEvidence("factor sums to zero")
            return Factor(self.scope, self.states, self.values / total)
        index: list[object] = [slice(None)] * len(self.scope)
        for name, state in evidence.items():
            ax = self._axis(name)
            try:
                index[ax] = self.states[ax].index(state)
            except ValueError:
                raise UnknownVariable(f"{state!r} is not a state of {name!r}") from None
        sliced = self.values[tuple(index)]
        total = sliced.sum()
        if total <= 0:
            raise ZeroProbabilityEvidence(f"evidence {dict(evidence)} has probability 0")
        new_scope = tuple(v for v in self.scope if v not in evidence)
        new_states = tuple(s for v, s in zip(self.scope, self.states) if v not in evidence)
        return Factor(new_scope, new_states, sliced / total)

    def prob(self, assignment: Mapping[str, str]) -> float:
        """Value at one full-scope assignment."""
        idx = []
        for v, states in zip(self.scope, self.states):
            if v not in assignment:
                raise UnknownVariable(f"assignment missing {v!r}")
            idx.append(states.index(assignment[v]))
        return float(self.values[tuple(idx)])


def _broadcast_cpt(net: DiscreteBayesNet, node: str, axis_of: Mapping[str, int], ndim: int) -> np.ndarray:
    """Reshape a CPT into the full-joint axis layout for broadcasting."""
    cpt = net.cpts[node]
    cards = [net.card(p) for p in cpt.parents] + [net.card(node)]
    cube = cpt.table.reshape(cards)
    src = [axis_of[p] for p in cpt.parents] + [axis_of[node]]
    shape = [1] * ndim
    for ax, c in zip(src, cards):
        shape[ax] = c
    order = np.argsort(src)
    return cube.transpose(order).reshape(shape)


def joint(net: DiscreteBayesNet, size_cap: int = DEFAULT_SIZE_CAP) -> Factor:
    """Exact joint over all variables, scope in declaration order."""
    validate(net)
    nodes = net.dag.nodes
    total = 1
    for n in nodes:
        total *= net.card(n)
        if total > size_cap:
            raise SizeCapExceeded(f"joint would exceed {size_cap} configurations")
    axis_of = {n: i for i, n in enumerate(nodes)}
    values = np.ones([net.card(n) for n in nodes])
    for n in nodes:
        values = values * _broadcast_cpt(net, n, axis_of, len(nodes))
    return Factor(nodes, tuple(net.variables[n].states for n in nodes), values)


def query(
    net: DiscreteBayesNet,
    targets: Iterable[str],
    evidence: Mapping[str, str] | None = None,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Factor:
    """Conditional distribution of ``targets`` given ``evidence``."""
    evidence = dict(evidence or {})
    targets = list(targets)
    f = joint(net, size_cap=size_cap)
    f = f.marginal(set(targets) | set(evidence))
    return f.condition(evidence)


@dataclass(frozen=True)
class Dataset:
    """Rows of joint assignments stored as state indices."""

    columns: tuple[str, ...]
    states: tuple[tuple[str, ...], ...]
    rows: np.ndarray  # shape (n, len(columns)), integer state indices

    def __post_init__(self):
        cards = np.array([len(s) for s in self.states], dtype=np.int64)
        width = len(self.columns)
        if len(cards) != width or self.rows.ndim != 2 or self.rows.shape[1] != width:
            raise ValidationError(
                f"dataset rows of shape {self.rows.shape} do not fit columns {self.columns}"
            )
        if not self.rows.size:
            return
        # the overall maximum settles the usual case without a slow per-column pass
        too_big = self.rows.max() >= cards.min() and np.any(self.rows.max(axis=0) >= cards)
        if too_big or self.rows.min() < 0:
            raise ValidationError("dataset row holds a state index outside its column")

    def __len__(self) -> int:
        return self.rows.shape[0]

    def to_csv(self) -> str:
        """CSV text: header of variable names, one state label per cell, LF.

        Rows are rendered a chunk at a time: each row gets a mixed-radix
        code over its states, each distinct code is rendered once, and the
        chunk is the join of those lines in row order.  When every
        configuration fits in a chunk, the lines come from one table of
        all configurations; otherwise from the chunk's distinct codes.
        Columns whose joint code would overflow int64 are split into
        consecutive groups rendered the same way and joined with ``,``.
        """
        cards = [len(s) for s in self.states]
        groups = _radix_groups(cards)

        def render(configs, end: str) -> np.ndarray:
            return np.array([",".join(cfg) + end for cfg in configs], dtype=object)

        ends = [","] * (len(groups) - 1) + ["\n"]
        tables = [
            render(itertools.product(*(self.states[j] for j in cols)), end)
            if size <= _CSV_CHUNK_ROWS
            else None
            for (cols, size), end in zip(groups, ends)
        ]

        parts = [",".join(self.columns) + "\n"]
        for start in range(0, len(self), _CSV_CHUNK_ROWS):
            block = self.rows[start : start + _CSV_CHUNK_ROWS]
            cells = None
            for (cols, _), end, table in zip(groups, ends, tables):
                codes = np.zeros(block.shape[0], dtype=np.int64)
                for j in cols:
                    codes = codes * cards[j] + block[:, j]
                if table is not None:
                    lines = table[codes]
                else:
                    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
                    configs = (
                        [self.states[j][v] for j, v in zip(cols, row)]
                        for row in block[first][:, cols].tolist()
                    )
                    lines = render(configs, end)[inverse]
                cells = lines if cells is None else cells + lines
            parts.append("".join(cells))
        return "".join(parts)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv())


def _radix_groups(cards: list[int]) -> list[tuple[list[int], int]]:
    """Consecutive column groups, each with its configuration count.

    Every group's mixed-radix codes fit in int64.  There is always at
    least one group, so a dataset without columns still renders one
    (empty) line per row.
    """
    groups: list[tuple[list[int], int]] = []
    cols: list[int] = []
    size = 1
    for j, c in enumerate(cards):
        if cols and size * c > 2**63:
            groups.append((cols, size))
            cols, size = [], 1
        cols.append(j)
        size *= c
    groups.append((cols, size))
    return groups


def forward_sample(net: DiscreteBayesNet, n: int, seed: int) -> Dataset:
    """Ancestral sampling with a fixed, documented RNG scheme.

    The generator is numpy's PCG64 seeded with ``seed``.  Nodes are
    visited in topological order (ties broken by declaration order);
    each node consumes one uniform draw ``u`` per row, and the row's
    state is the number of entries of its CPT row's cumulative sum that
    lie strictly below ``u``, clamped to the last state.  Identical
    (net, n, seed) therefore reproduces the dataset bit for bit.
    """
    validate(net)
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    nodes = net.dag.nodes
    col_of = {name: i for i, name in enumerate(nodes)}
    rows = np.zeros((n, len(nodes)), dtype=np.int64)
    for name in topological_order(net.dag):
        cpt = net.cpts[name]
        u = rng.random(n)
        # cumsum of a CPT row does the same float additions as per-row cumsum
        cdf = np.cumsum(cpt.table, axis=1)
        # row index into the CPT, first parent slowest
        idx = np.zeros(n, dtype=np.int64)
        for p in cpt.parents:
            idx = idx * net.card(p) + rows[:, col_of[p]]
        state = rows[:, col_of[name]]
        # CDF rows never decrease (validate rejects negative entries), so
        # leaving out the last column is the clamp to the last state
        for j in range(net.card(name) - 1):
            column = cdf[:, j]
            state += u > (column[idx] if cpt.parents else column[0])
    return Dataset(nodes, tuple(net.variables[m].states for m in nodes), rows)


def empirical_joint(dataset: Dataset) -> Factor:
    """Relative-frequency factor over the dataset's columns."""
    if len(dataset) == 0:
        raise EmptyDataset("dataset has no rows")
    cards = [len(s) for s in dataset.states]
    flat = np.zeros(dataset.rows.shape[0], dtype=np.int64)
    for j, c in enumerate(cards):
        flat = flat * c + dataset.rows[:, j]
    counts = np.bincount(flat, minlength=int(np.prod(cards))).reshape(cards)
    return Factor(dataset.columns, dataset.states, counts / len(dataset))
