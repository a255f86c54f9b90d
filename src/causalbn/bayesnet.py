"""Discrete Bayesian networks: CPTs, exact inference, forward sampling.

Exact inference is one kernel, ``joint``: it keeps the ancestors of the
variables a request needs, slices each CPT at the evidence and
contracts what is left in one ``np.einsum`` call, guarded by a cap on
the configurations that call iterates over.  A network is compiled once,
when it is built: it keeps each node's cardinality and each CPT as a cube
over ``(*parents, child)``, and ``joint`` keeps the read-only tables it
has contracted for reuse.  Probabilities live in numpy arrays with one
axis per variable, first scope variable slowest (C order).
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
#: cap on the configurations one ``joint`` call iterates over, read at
#: call time
DEFAULT_SIZE_CAP = 2**24
#: float64 entries of contracted tables one network keeps for ``joint`` to
#: reuse, each charged for its Python objects too (``_charge``); a table
#: charged more is not kept
JOINT_CACHE_ENTRIES = 2**16
#: entries charged to each kept table for its Factor, array, tuples and
#: store slot; ``_charge`` adds its key's sets and pairs.  Over 24-200 kept
#: one-entry tables of a 12-node chain, tracemalloc read 760-910 bytes per
#: table with 1-4 evidence pairs and 1420-1850 with 5-12, against charges
#: of 1048-1216 and 1784-2176 bytes
_TABLE_OVERHEAD = 96
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
    slowest-varying) and one column per child state.  The table is a
    read-only float copy, so it cannot change after validation.
    """

    child: str
    parents: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        table = np.array(self.table, dtype=float)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)


@dataclass(frozen=True)
class DiscreteBayesNet:
    """A DAG with one variable and one CPT per node, validated when built.

    ``variables`` and ``cpts`` are read-only views of private copies, so a
    built network stays valid and can be shared.  Building it also stores
    each node's cardinality, each CPT as a read-only cube over
    ``(*parents, child)``, and an empty store of the tables ``joint``
    contracts.
    """

    dag: Dag
    variables: Mapping[str, Variable]
    cpts: Mapping[str, Cpt]

    def __post_init__(self):
        object.__setattr__(self, "variables", MappingProxyType(dict(self.variables)))
        object.__setattr__(self, "cpts", MappingProxyType(dict(self.cpts)))
        card = {n: len(v.states) for n, v in self.variables.items()}
        object.__setattr__(self, "_card", card)
        validate(self)
        cubes = {
            n: cpt.table.reshape([card[v] for v in (*cpt.parents, n)])
            for n, cpt in self.cpts.items()
        }
        object.__setattr__(self, "_cubes", MappingProxyType(cubes))
        object.__setattr__(self, "_tables", _Tables())

    def card(self, name: str) -> int:
        return self._card[name]

    def states(self, name: str) -> tuple[str, ...]:
        var = self.variables.get(name)
        if var is None:
            raise UnknownVariable(f"unknown variable {name!r}")
        return var.states

    def state_index(self, name: str, state: str) -> int:
        try:
            return self.states(name).index(state)
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
        # written so that NaN fails the check too
        if not np.all((cpt.table >= 0) & (cpt.table <= 1)):
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
        if (vals < -ARITH_TOL).any():
            raise ValueError("negative factor value")
        object.__setattr__(self, "values", vals)

    def marginal(self, keep: Iterable[str]) -> "Factor":
        """Sum out everything not in ``keep``; scope keeps its order."""
        scope, values = _marginal(self.scope, self.values, keep)
        states = tuple(s for v, s in zip(self.scope, self.states) if v in scope)
        return Factor(scope, states, values)

    def conditional(
        self, target: Sequence[str], given: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every p(target | given) at once, with the weights p(given).

        ``table`` has axes ``(*given, *target)`` in the order listed;
        ``weight`` has axes ``given``.  Entries whose weight is 0 are 0.
        """
        given, target = tuple(given), tuple(target)
        scope, values = _marginal(self.scope, self.values, given + target)
        p = values.transpose([scope.index(v) for v in given + target])
        weight = p.sum(axis=tuple(range(len(given), p.ndim)))
        with np.errstate(divide="ignore", invalid="ignore"):
            table = p / weight[(...,) + (None,) * len(target)]
        return np.where(np.isfinite(table), table, 0.0), weight

    def condition(self, evidence: Mapping[str, str]) -> "Factor":
        """Slice at the evidence states and renormalize the rest."""
        scope, values = _condition(self.scope, self.states, self.values, evidence)
        states = tuple(s for v, s in zip(self.scope, self.states) if v not in evidence)
        return Factor(scope, states, values)

    def prob(self, assignment: Mapping[str, str]) -> float:
        """Value at one full-scope assignment."""
        idx = []
        for v, states in zip(self.scope, self.states):
            if v not in assignment:
                raise UnknownVariable(f"assignment missing {v!r}")
            idx.append(states.index(assignment[v]))
        return float(self.values[tuple(idx)])


def _axis(scope: tuple[str, ...], name: str) -> int:
    try:
        return scope.index(name)
    except ValueError:
        raise UnknownVariable(f"{name!r} not in factor scope") from None


def _marginal(
    scope: tuple[str, ...], values: np.ndarray, keep: Iterable[str]
) -> tuple[tuple[str, ...], np.ndarray]:
    """(scope, values) of the table with everything not in ``keep`` summed
    out; the scope keeps its order.  A name outside ``scope`` raises
    UnknownVariable."""
    keep = set(keep)
    for name in keep:
        _axis(scope, name)
    drop_axes = tuple(i for i, v in enumerate(scope) if v not in keep)
    return tuple(v for v in scope if v in keep), values.sum(axis=drop_axes)


def _condition(
    scope: tuple[str, ...],
    states: tuple[tuple[str, ...], ...],
    values: np.ndarray,
    evidence: Mapping[str, str],
) -> tuple[tuple[str, ...], np.ndarray]:
    """(scope, values) of the table sliced at the evidence states and
    renormalised.  An unknown name or state raises UnknownVariable, and
    evidence of probability 0 raises ZeroProbabilityEvidence."""
    index: list[object] = [slice(None)] * len(scope)
    for name, state in evidence.items():
        ax = _axis(scope, name)
        try:
            index[ax] = states[ax].index(state)
        except ValueError:
            raise UnknownVariable(f"{state!r} is not a state of {name!r}") from None
    sliced = values[tuple(index)]
    total = sliced.sum()
    if total <= 0:
        raise ZeroProbabilityEvidence(f"evidence {dict(evidence)} has probability 0")
    return tuple(v for v in scope if v not in evidence), sliced / total


#: the one empty set that every kept key uses, so that it costs no memory
_NO_ITEMS: frozenset = frozenset()


def _items(assignment: Mapping[str, str]) -> frozenset:
    return frozenset(assignment.items()) if assignment else _NO_ITEMS


def joint(
    net: DiscreteBayesNet,
    do: Mapping[str, str] | None = None,
    *,
    keep: Iterable[str] | None = None,
    evidence: Mapping[str, str] | None = None,
) -> Factor:
    """Unnormalised table over ``keep`` minus the evidence variables.

    The scope is in declaration order; ``keep=None`` keeps every
    variable.  Each entry is the probability of that configuration
    together with ``evidence``.  With ``do``, each intervened node
    contributes a point mass at its assigned state instead of its CPT:
    the truncated factorization of the mutilated model.

    Only the ancestors of ``keep`` and ``evidence`` in the mutilated
    graph take part, since every other node's CPT sums to 1.  Each CPT
    is sliced at the evidence states (and at the assigned state of an
    intervened node outside ``keep``), and the remaining factors are
    multiplied in declaration order and summed in one ``np.einsum``
    call.  ``DEFAULT_SIZE_CAP`` bounds the configurations of the variables
    left free by that slicing, which is the space the call iterates over.

    The network keeps the table of each distinct ``(keep, do, evidence)``
    request, up to ``JOINT_CACHE_ENTRIES`` entries, and a repeated request
    returns the kept Factor.  Its values are therefore read-only; copy them
    to modify them.  The size cap is checked on every call, kept or not.
    """
    nodes = net.dag.nodes
    do, evidence = do or {}, evidence or {}
    point_at = {n: net.state_index(n, state) for n, state in do.items()}
    fixed = {n: net.state_index(n, state) for n, state in evidence.items()}
    keep = frozenset(nodes if keep is None else keep) or _NO_ITEMS
    key = (keep, _items(do), _items(evidence))
    kept = net._tables.get(key)
    if kept is not None:
        _check_size(kept[0])
        return kept[1]
    unknown = keep - net.variables.keys()
    if unknown:
        raise UnknownVariable(f"unknown variable {min(unknown)!r}")
    # ancestors in the mutilated graph: an intervened node has no parents
    relevant: set[str] = set()
    stack = [*keep, *fixed]
    while stack:
        n = stack.pop()
        if n not in relevant:
            relevant.add(n)
            if n not in point_at:
                stack.extend(net.dag.parents[n])
    # an intervened node outside ``keep`` is sliced at its assigned state;
    # where evidence names it too, the evidence state is the slice
    fixed = {**{n: i for n, i in point_at.items() if n not in keep}, **fixed}
    free = [n for n in nodes if n in relevant and n not in fixed]
    total = math.prod(net.card(n) for n in free)
    _check_size(total)
    # np.einsum takes at most 52 labels and 63 operands (the output included)
    if len(free) > 52 or len(relevant) > 61:
        raise SizeCapExceeded(
            f"joint over {len(relevant)} factors and {len(free)} free variables "
            "exceeds np.einsum's limits"
        )
    label = {n: i for i, n in enumerate(free)}
    # the product starts from 1, so even a single factor yields a new array
    operands: list[object] = [np.ones(()), []]
    for n in nodes:
        if n not in relevant:
            continue
        if n in point_at:
            scope: tuple[str, ...] = (n,)
            cube = np.zeros(net.card(n))
            cube[point_at[n]] = 1.0
        else:
            scope = (*net.cpts[n].parents, n)
            cube = net._cubes[n]
        operands += [
            cube[tuple(fixed.get(v, slice(None)) for v in scope)],
            [label[v] for v in scope if v not in fixed],
        ]
    out = tuple(n for n in free if n in keep)
    values = np.einsum(*operands, [label[n] for n in out], optimize=False)
    factor = Factor(out, tuple(net.variables[n].states for n in out), values)
    factor.values.flags.writeable = False
    net._tables.put(key, total, factor)
    return factor


def _check_size(configurations: int) -> None:
    """Raise SizeCapExceeded past ``DEFAULT_SIZE_CAP``, as read now."""
    if configurations > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"joint would exceed {DEFAULT_SIZE_CAP} configurations")


class _Tables(dict):
    """The tables ``joint`` contracted for one network, oldest first.

    Each request key (a tuple of sets) maps to (free configurations,
    Factor).  Each kept table is charged ``_charge`` in ``entries``, at
    most ``JOINT_CACHE_ENTRIES``: the oldest go first to make room, and a
    table charged more is not kept.  ``put`` holds a lock, so
    threads that store at once neither raise nor miscount.
    """

    def __init__(self):
        super().__init__()
        self.entries = 0
        self._lock = threading.Lock()

    def put(self, key: tuple, configurations: int, factor: Factor) -> None:
        size = _charge(key, factor)
        if size > JOINT_CACHE_ENTRIES:
            return
        with self._lock:
            if key in self:
                return
            self[key] = (configurations, factor)
            self.entries += size
            while self.entries > JOINT_CACHE_ENTRIES:
                old = next(iter(self))
                self.entries -= _charge(old, self.pop(old)[1])


def _charge(key: tuple, factor: Factor) -> int:
    """Entries a kept table is charged: its size, ``_TABLE_OVERHEAD``, and
    the bytes of its key's nonempty sets and of the (name, state) pairs they
    hold, as ``sys.getsizeof`` counts them, in float64 entries."""
    _, do, evidence = key
    held = sum(sys.getsizeof(part) for part in key if part)
    held += sum(map(sys.getsizeof, (*do, *evidence)))
    return factor.values.size + _TABLE_OVERHEAD + held // 8


def query(
    net: DiscreteBayesNet,
    targets: Iterable[str],
    evidence: Mapping[str, str] | None = None,
) -> Factor:
    """Conditional distribution of ``targets`` given ``evidence``."""
    evidence = dict(evidence or {})
    f = joint(net, keep=targets, evidence=evidence)
    total = f.values.sum()
    if total <= 0:
        raise ZeroProbabilityEvidence(f"evidence {evidence} has probability 0")
    return Factor(f.scope, f.states, f.values / total)


@dataclass(frozen=True)
class Dataset:
    """Rows of joint assignments stored as state indices.

    ``rows`` may have any integer dtype and memory layout; other dtypes
    (floats, bools) are rejected when the dataset is built.
    """

    columns: tuple[str, ...]
    states: tuple[tuple[str, ...], ...]
    rows: np.ndarray  # shape (n, len(columns)), integer state indices

    def __post_init__(self):
        if self.rows.dtype.kind not in "iu":
            raise ValidationError(f"dataset rows must be integers, not {self.rows.dtype}")
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
                codes = _mixed_radix(block, cols, cards)
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
        """Write ``to_csv()`` to ``path``; the text is rendered before the
        file is opened, so a failed render leaves an existing file as it was."""
        text = self.to_csv()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _mixed_radix(rows: np.ndarray, cols: Sequence[int], cards: Sequence[int]) -> np.ndarray:
    """Mixed-radix code of each row over ``cols``, first column slowest.

    ``cards[j]`` is the radix of column ``j``.  The code accumulates in
    place in an ``intp`` array that starts at zero, so a narrow or
    unsigned state column neither wraps nor widens it; the caller keeps
    the product of the radices within int64.
    """
    codes = np.zeros(rows.shape[0], dtype=np.intp)
    for j in cols:
        codes *= cards[j]
        np.add(codes, rows[:, j], out=codes, dtype=np.intp, casting="unsafe")
    return codes


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

    The rows are stored column-major (one contiguous column per node) in
    the narrowest unsigned dtype that holds every state index.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    nodes = net.dag.nodes
    col_of = {name: i for i, name in enumerate(nodes)}
    cards = [net.card(m) for m in nodes]
    rows = np.zeros((n, len(nodes)), dtype=np.min_scalar_type(max(cards) - 1), order="F")
    for name in topological_order(net.dag):
        cpt = net.cpts[name]
        u = rng.random(n)
        # cumsum of a CPT row does the same float additions as per-row cumsum
        cdf = np.cumsum(cpt.table, axis=1)
        # row index into the CPT, first parent slowest
        idx = _mixed_radix(rows, [col_of[p] for p in cpt.parents], cards)
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
    size = math.prod(cards)
    if size > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"empirical joint would exceed {DEFAULT_SIZE_CAP} configurations")
    flat = _mixed_radix(dataset.rows, range(len(cards)), cards)
    counts = np.bincount(flat, minlength=size).reshape(cards)
    return Factor(dataset.columns, dataset.states, counts / len(dataset))
