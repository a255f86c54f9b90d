"""Discrete Bayesian networks: CPTs, exact inference, forward sampling.

Exact inference is one kernel, ``joint``: it keeps the ancestors of the
variables a request needs, slices each CPT at the evidence and
contracts what is left in one ``np.einsum`` call, guarded by a cap on
the configurations that call iterates over.  A network is compiled once,
when it is built: it keeps each node's cardinality and each CPT as a cube
over ``(*parents, child)``, and one store (``_Tables``) of kept answers.
A network derived from another (``_derive``) shares what its CPT changes
leave alone.  A contraction is a request resolved on a network
(``_resolve``: its ancestors, slices, point masses and einsum labels) and
then executed (``_execute``: the size cap, the cubes sliced from the
executing network and the einsum), so a scan resolves its requests once
and executes them on every cell.
Every answer a network keeps comes from a kept function (``_kept``): the
tables of ``joint``, the distributions of ``query`` and of the
do-operator (one kept function, ``_distribution``), and the estimators
built on them.  Each is keyed by the function, the size cap in force when
it was computed and its own arguments, names as a sorted tuple and
assignments as sorted (name, state) pairs, and its arrays are read-only.
A call under another cap is computed afresh, and checked against that
cap; errors are never kept.  Probabilities live in numpy arrays with one
axis per variable, first scope variable slowest (C order).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import sys
import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    EmptyDataset,
    SizeCapExceeded,
    UnknownVariable,
    ValidationError,
    ZeroProbabilityEvidence,
)
from .fileio import write_file
from .graph import Dag, _reach, topological_order

#: row sums of user-supplied CPTs must match 1 this closely
ROW_SUM_TOL = 1e-9
#: internal arithmetic identities are checked this tightly
ARITH_TOL = 1e-12
#: cap on the configurations one ``joint`` call iterates over, read at
#: call time
DEFAULT_SIZE_CAP = 2**24
#: float64 entries of tables and answers one network keeps for reuse, each
#: charged for its Python objects too (``_charge``); an answer charged more
#: is not kept
JOINT_CACHE_ENTRIES = 2**16
#: entries charged to each kept answer for its Factor, array, tuples and
#: store slot; ``_charge`` adds what it holds and its key's tuples and
#: pairs.  Over 24-200 kept one-entry tables of a 12-node chain,
#: tracemalloc read 620-1240 bytes per table with 1-12 evidence pairs,
#: against charges of 880-1584 bytes
_TABLE_OVERHEAD = 96
#: rows rendered per chunk by ``Dataset.to_csv``
_CSV_CHUNK_ROWS = 1 << 17
#: rows drawn per block by ``forward_sample``: a block's temporaries (its
#: float64 uniforms, its gathered thresholds and the ``intp`` index that
#: ``take`` widens the parent code to, 512 KB each) fit a 2 MB L2 cache.
#: A sample of at most one block is drawn in the calling thread alone
_SAMPLE_BLOCK_ROWS = 1 << 16
#: most row ranges ``forward_sample`` draws at once, one thread each.  Each
#: range holds its own block's temporaries (about 1.65 MB on ``modelD``), so
#: a third would lift the sampler's peak past its rows plus 4 MiB; and 2 is
#: the CPU count the gain was measured on, while under a CPU quota the
#: affinity set can list more CPUs than the process gets
_SAMPLE_MAX_RANGES = 2


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
    ``(*parents, child)``, an empty store of the tables and answers it
    keeps (``_Tables``), and the ``_names`` of all its nodes, the ``keep``
    of every full-joint request.
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
        object.__setattr__(self, "_all_names", _names(self.dag.nodes))

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
        _check_cpt(net, node, net.cpts[node])


def _check_cpt(net: DiscreteBayesNet, node: str, cpt: Cpt) -> None:
    """Raise ValidationError naming the first invariant that ``cpt``, the
    CPT of ``node``, violates in ``net``: ``validate``'s check of one CPT."""
    if cpt.child != node:
        raise ValidationError(f"CPT child mismatch for {node!r}")
    if cpt.parents != net.dag.parents[node]:
        raise ValidationError(
            f"parent mismatch for {node!r}: CPT {cpt.parents} vs dag {net.dag.parents[node]}"
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


def _derive(net: DiscreteBayesNet, tables: Mapping[str, np.ndarray]) -> DiscreteBayesNet:
    """``net`` with the CPT table of each node in ``tables`` replaced.

    Each table is a float array of its node's CPT shape that the caller
    holds nowhere else: the derived network takes it as its own and makes
    it read-only, without a copy.  Only these CPTs are checked, by
    ``_check_cpt`` in declaration order, so the first bad one raises
    ``validate``'s error; every other CPT is ``net``'s, checked already.
    The derived network shares ``net``'s DAG, variables, cardinalities,
    names and unchanged cubes, and starts with an empty store of kept
    answers.  A request resolved on ``net`` executes on it unchanged.
    """
    cpts, cubes = dict(net.cpts), dict(net._cubes)
    for node in [n for n in net.dag.nodes if n in tables]:
        table = tables[node]
        table.flags.writeable = False
        cpt = object.__new__(Cpt)
        # the table is the caller's own copy, so it is frozen, not copied again
        vars(cpt).update(child=node, parents=net.cpts[node].parents, table=table)
        _check_cpt(net, node, cpt)
        cpts[node] = cpt
        cubes[node] = table.reshape([net.card(v) for v in (*cpt.parents, node)])
    derived = object.__new__(DiscreteBayesNet)
    vars(derived).update(
        dag=net.dag,
        variables=net.variables,
        cpts=MappingProxyType(cpts),
        _card=net._card,
        _cubes=MappingProxyType(cubes),
        _tables=_Tables(),
        _all_names=net._all_names,
    )
    return derived


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
        ``weight`` has axes ``given``.  Entries of weight <= 0 are 0.
        """
        return _conditional(self.scope, self.values, target, given)

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


def _conditional(
    scope: tuple[str, ...], values: np.ndarray, target: Sequence[str], given: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """``Factor.conditional`` of the table (scope, values)."""
    given, target = tuple(given), tuple(target)
    scope, values = _marginal(scope, values, given + target)
    p = values.transpose([scope.index(v) for v in given + target])
    weight = p.sum(axis=tuple(range(len(given), p.ndim)))
    w = weight[(...,) + (None,) * len(target)]
    return np.divide(p, w, out=np.zeros_like(p), where=w > 0), weight


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


def _names(names: Iterable[str]) -> tuple[str, ...]:
    """The names, sorted, each once: a kept function's argument."""
    return tuple(sorted(set(names)))


def _pairs(assignment: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    """The assignment's (name, state) pairs, sorted: a kept function's
    argument."""
    return tuple(sorted(assignment.items()))


def _kept(compute):
    """``compute`` as the function that returns the answer ``net`` keeps
    for ``compute(net, *args)`` under the size cap in force (see
    ``_Tables``).

    ``compute`` takes a network and hashable arguments: names from
    ``_names`` and assignments from ``_pairs``, so that equal requests
    share one key.
    """

    def kept(net: DiscreteBayesNet, *args):
        return net._tables.answer(compute, net, *args)

    return kept


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
    request (see ``_Tables``), and a repeated request returns the kept
    Factor.  Its values are therefore read-only; copy them to modify them.
    A table is kept under the size cap it was contracted under, so a call
    under another cap contracts afresh and is checked against that cap.
    """
    keep = net._all_names if keep is None else _names(keep)
    return _joint(net, keep, _pairs(do or {}), _pairs(evidence or {}))


def _contract(
    net: DiscreteBayesNet,
    keep: tuple[str, ...],
    do: tuple[tuple[str, str], ...],
    evidence: tuple[tuple[str, str], ...],
) -> Factor:
    """``joint``'s table, contracted: the request resolved (``_resolve``)
    and executed (``_execute``) on ``net``.

    An estimator contracts its table here when the table serves only its
    own answer, which the network keeps instead.
    """
    request = _resolve(net, keep, do, evidence)
    out = request.out
    return Factor(out, tuple(net.variables[n].states for n in out), _execute(net, request))


class _Request(NamedTuple):
    """A contraction request resolved on a network (``_resolve``).

    ``count`` is the number of configurations of the free variables and
    ``width`` the number of those variables.  ``operands`` holds one
    ``(node, index, mass, labels)`` per factor, in declaration order:
    ``index`` slices the factor at the request's states (an int per sliced
    axis, a whole slice per free one), ``mass`` is an intervened node's
    point mass, so sliced, or None for the node's CPT cube, and ``labels``
    are the einsum labels of the axes left.  ``out`` is the table's scope
    and ``out_labels`` its labels.
    """

    count: int
    width: int
    operands: tuple[tuple[str, tuple[int | slice, ...], np.ndarray | None, list[int]], ...]
    out: tuple[str, ...]
    out_labels: list[int]


def _resolve(
    net: DiscreteBayesNet,
    keep: tuple[str, ...],
    do: tuple[tuple[str, str], ...],
    evidence: tuple[tuple[str, str], ...],
) -> _Request:
    """The request for ``joint``'s table over ``keep`` under ``do`` and
    ``evidence`` (see ``_contract``), resolved on ``net``: it holds names,
    ints, slices and point masses, and no CPT, so it executes on any
    network derived from ``net``.  An unknown name or state raises
    UnknownVariable."""
    point_at = {n: net.state_index(n, state) for n, state in do}
    observed = {n: net.state_index(n, state) for n, state in evidence}
    for n in keep:
        if n not in net.variables:
            raise UnknownVariable(f"unknown variable {n!r}")
    keep_set = set(keep)
    # ancestors in the mutilated graph: an intervened node has no parents
    parents = net.dag.parents
    relevant = _reach(lambda n: () if n in point_at else parents[n], [*keep, *observed])
    # an intervened node outside ``keep`` is sliced at its assigned state;
    # where evidence names an intervened node too, the evidence state is the slice
    fixed = {n: i for n, i in point_at.items() if n not in keep_set}
    fixed.update(observed)
    free = [n for n in net.dag.nodes if n in relevant and n not in fixed]
    label = {n: i for i, n in enumerate(free)}
    operands = []
    for n in net.dag.nodes:
        if n not in relevant:
            continue
        scope = (n,) if n in point_at else (*parents[n], n)
        index = tuple(fixed.get(v, slice(None)) for v in scope)
        mass = None
        if n in point_at:
            cube = np.zeros(net.card(n))
            cube[point_at[n]] = 1.0
            cube.flags.writeable = False
            mass = cube[index]
        operands.append((n, index, mass, [label[v] for v in scope if v not in fixed]))
    out = tuple(n for n in free if n in keep_set)
    return _Request(
        math.prod(net.card(n) for n in free), len(free), tuple(operands), out,
        [label[n] for n in out],
    )


def _execute(net: DiscreteBayesNet, request: _Request) -> np.ndarray:
    """The values of ``request``'s table in ``net``: one ``np.einsum`` call
    over its operands in declaration order, each point mass as it was
    resolved and each CPT cube sliced from ``net``.  The size cap in force
    and ``np.einsum``'s limits are checked on every call."""
    if request.count > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"joint would exceed {DEFAULT_SIZE_CAP} configurations")
    # np.einsum takes at most 52 labels and 63 operands (the output included)
    if request.width > 52 or len(request.operands) > 61:
        raise SizeCapExceeded(
            f"joint over {len(request.operands)} factors and {request.width} free variables "
            "exceeds np.einsum's limits"
        )
    cubes = net._cubes
    # the product starts from 1, so even a single factor yields a new array
    operands: list[object] = [np.ones(()), []]
    for n, index, mass, labels in request.operands:
        operands += [cubes[n][index] if mass is None else mass, labels]
    return np.einsum(*operands, request.out_labels, optimize=False)


#: ``joint``'s table, kept.  An estimator reads its table here when one
#: table serves several of its answers: the full joint, or the table over a
#: selection pool with both endpoints, whatever their roles.
_joint = _kept(_contract)


class _Tables(dict):
    """The answers one network keeps, oldest first: the tables ``joint``
    contracts and the answers of the estimators built on them.

    ``answer(compute, net, *args)`` keys the answer of ``compute(net,
    *args)`` on ``(compute, DEFAULT_SIZE_CAP, *args)``, the cap read at the
    call, and makes its array (a Factor's values, or an array answer)
    read-only.  Since a network never changes, a kept answer stays right,
    and it fit the cap in its key; a call under another cap misses, so the
    kernel checks that cap, and a request that raises keeps nothing.
    Each kept answer is charged ``_charge`` in ``entries``, at most
    ``JOINT_CACHE_ENTRIES``: the oldest go first to make room, and an
    answer charged more is not kept.  ``put`` holds a lock, so threads
    that store at once neither raise nor miscount.
    """

    def __init__(self):
        super().__init__()
        self.entries = 0
        self._lock = threading.Lock()

    def answer(self, compute, net: DiscreteBayesNet, *args):
        """The kept answer of ``compute(net, *args)``, or the computed one,
        kept."""
        key = (compute, DEFAULT_SIZE_CAP, *args)
        kept = self.get(key)
        if kept is None:
            kept = compute(net, *args)
            values = getattr(kept, "values", kept)
            if isinstance(values, np.ndarray):
                values.flags.writeable = False
            self.put(key, kept)
        return kept

    def put(self, key: tuple, answer) -> None:
        size = _charge(key, answer)
        if size > JOINT_CACHE_ENTRIES:
            return
        with self._lock:
            if key in self:
                return
            self[key] = answer
            self.entries += size
            while self.entries > JOINT_CACHE_ENTRIES:
                old = next(iter(self))
                self.entries -= _charge(old, self.pop(old))


def _charge(key: tuple, answer) -> int:
    """Entries a kept answer is charged: ``_TABLE_OVERHEAD``, which covers
    the Python objects of a Factor or an array, and, in float64 entries, the
    bytes of its array data (or what ``sys.getsizeof`` counts for any other
    answer: a float, or a result that counts its own records), of its key's
    nonempty tuples and of the (name, state) pairs they hold."""
    values = getattr(answer, "values", answer)
    held = values.nbytes if isinstance(values, np.ndarray) else sys.getsizeof(answer)
    for part in key:
        if type(part) is tuple and part:
            held += sys.getsizeof(part)
            # a part holds names or (name, state) pairs, never both, and
            # every pair is a tuple of one size
            if type(part[0]) is tuple:
                held += len(part) * sys.getsizeof(part[0])
    return _TABLE_OVERHEAD + held // 8


def query(
    net: DiscreteBayesNet,
    targets: Iterable[str],
    evidence: Mapping[str, str] | None = None,
) -> Factor:
    """Conditional distribution of ``targets`` given ``evidence``.

    The network keeps the answer, so its values are read-only.
    """
    return _distribution(net, _names(targets), (), _pairs(evidence or {}))


@_kept
def _distribution(
    net: DiscreteBayesNet,
    targets: tuple[str, ...],
    do: tuple[tuple[str, str], ...],
    evidence: tuple[tuple[str, str], ...],
) -> Factor:
    """p(targets | do(do), evidence): ``query``'s answer, and with ``do``
    the interventional distribution."""
    f = _contract(net, targets, do, evidence)
    _normalise(f.values, evidence)
    return f


def _normalise(values: np.ndarray, evidence: tuple[tuple[str, str], ...]) -> np.ndarray:
    """``values``, a contraction's own table, divided where it lies by its
    total: ``_distribution``'s arithmetic.  A total of 0 raises
    ZeroProbabilityEvidence naming ``evidence``."""
    total = values.sum()
    if total <= 0:
        raise ZeroProbabilityEvidence(f"evidence {dict(evidence)} has probability 0")
    values /= total
    return values


@dataclass(frozen=True)
class Dataset:
    """Rows of joint assignments stored as state indices.

    ``rows`` is a numpy array of any integer dtype and memory layout;
    anything else (a list, floats, bools) is rejected when the dataset is
    built.
    """

    columns: tuple[str, ...]
    states: tuple[tuple[str, ...], ...]
    rows: np.ndarray  # shape (n, len(columns)), integer state indices

    def __post_init__(self):
        if not isinstance(self.rows, np.ndarray):
            raise ValidationError(
                f"dataset rows must be a numpy array of integers, not {type(self.rows).__name__}"
            )
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
        """CSV text: header of variable names, one state label per cell, LF,
        each a ``_csv_fields`` field.

        Raises ``ValidationError`` if a name or state label cannot be
        encoded as UTF-8 (a lone surrogate), whether or not a row uses it.

        Rows are rendered a chunk at a time: each row gets a mixed-radix
        code over its states, and the chunk takes its rows' lines from a
        table of lines by code.  When every configuration fits in a
        chunk, the table holds all configurations; otherwise the chunk's
        distinct codes.  Columns whose joint code would overflow int64 are
        split into consecutive groups, each rendered the same way and
        placed side by side.  When each column's labels all encode to one
        UTF-8 width, every line of a table has one width, so the table is
        a ``uint8`` matrix with a line per row (``_byte_lines``) and a
        chunk is its rows' bytes, decoded on its own.  Otherwise the table
        holds strings (``_str_lines``) and a chunk is their join.
        """
        names = _csv_fields(self.columns)
        labels = [_csv_fields(s) for s in self.states]
        try:
            _, *encoded = [[f.encode("utf-8") for f in col] for col in (names, *labels)]
        except UnicodeEncodeError as e:
            raise ValidationError(f"{e.object!r} cannot be encoded as UTF-8") from None
        cards = [len(s) for s in self.states]
        groups = _radix_groups(cards)
        if all(len({len(f) for f in col}) <= 1 for col in encoded):
            labels, sep, eol, render, join = encoded, b",", b"\n", _byte_lines, _bytes_text
        else:
            sep, eol, render, join = ",", "\n", _str_lines, _strs_text
        ends = [sep] * (len(groups) - 1) + [eol]
        tables = [
            render(itertools.product(*(labels[j] for j in cols)), end)
            if size <= _CSV_CHUNK_ROWS
            else None
            for (cols, size), end in zip(groups, ends)
        ]

        parts = [",".join(names) + "\n"]
        for start in range(0, len(self), _CSV_CHUNK_ROWS):
            block = self.rows[start : start + _CSV_CHUNK_ROWS]
            lines = []
            for (cols, _), end, table in zip(groups, ends, tables):
                codes = _mixed_radix(block, cols, cards)
                if table is None:
                    _, first, codes = np.unique(codes, return_index=True, return_inverse=True)
                    configs = (
                        [labels[j][v] for j, v in zip(cols, row)]
                        for row in block[first][:, cols].tolist()
                    )
                    table = render(configs, end)
                lines.append(table.take(codes, axis=0))
            parts.append(join(lines))
        return "".join(parts)

    def write_csv(self, path) -> None:
        """Write ``to_csv()`` to ``path`` (a path, not a file descriptor)
        through ``fileio.write_file``.

        The text is rendered before the file is opened, so a failed render
        leaves an existing file byte-identical.  A write that fails
        part-way, or a process killed mid-write, leaves an empty file or a
        prefix of the new text, never old bytes behind new ones.  Nothing is
        synced: a power loss soon after the write can leave the file empty
        or short (see ``write_file``).
        """
        write_file(path, self.to_csv().encode("utf-8"))


def _csv_fields(texts: Sequence[str]) -> Sequence[str]:
    """``texts`` as CSV fields (RFC 4180): each that holds a comma, a
    quote, CR or LF is quoted, with its quotes doubled.  One look at the
    joined texts settles the usual case, where none is quoted."""

    def special(text: str) -> bool:
        return any(c in text for c in ',"\r\n')

    if not special("".join(texts)):
        return texts
    return ['"' + t.replace('"', '""') + '"' if special(t) else t for t in texts]


def _str_lines(configs: Iterable[Sequence[str]], end: str) -> np.ndarray:
    """Each configuration's fields joined with ``,`` and ended with
    ``end``: an object array of lines."""
    return np.array([",".join(cfg) + end for cfg in configs], dtype=object)


def _strs_text(lines: Sequence[np.ndarray]) -> str:
    """One chunk's text from each group's lines for its rows."""
    return "".join(functools.reduce(operator.add, lines))


def _byte_lines(configs: Iterable[Sequence[bytes]], end: bytes) -> np.ndarray:
    """Each configuration's encoded fields joined with ``,`` and ended with
    ``end``: a ``uint8`` matrix with one line per row.  The lines must all
    have one width, since ``np.array`` pads shorter ones with NUL."""
    lines = np.array([b",".join(cfg) + end for cfg in configs], dtype=bytes)
    return lines.view(np.uint8).reshape(len(lines), lines.itemsize)


def _bytes_text(lines: Sequence[np.ndarray]) -> str:
    """One chunk's text from each group's ``uint8`` lines for its rows.  A
    chunk holds whole lines, so it decodes on its own."""
    return np.hstack(lines).tobytes().decode("utf-8")


def _mixed_radix(rows: np.ndarray, cols: Sequence[int], cards: Sequence[int]) -> np.ndarray:
    """Mixed-radix code of each row over ``cols``, first column slowest.

    ``cards[j]`` is the radix of column ``j``.  The code accumulates in
    place in the narrowest unsigned dtype that holds the product of the
    radices (``uint8``, ``uint16`` or ``uint32``; ``intp`` above 2**32),
    so a state column of any integer dtype neither wraps nor widens it;
    the caller keeps that product within int64 (``_radix_groups``).
    """
    size = math.prod(cards[j] for j in cols)
    dtype = np.min_scalar_type(size - 1) if size <= 2**32 else np.intp
    codes = np.zeros(rows.shape[0], dtype=dtype)
    # every partial code fits the dtype, so arithmetic modulo its range is
    # exact; a radix equal to that range, met only while every code is 0,
    # multiplies as 0 where the Python int itself would not convert
    wrap = 1 << (8 * codes.itemsize)
    for j in cols:
        codes *= cards[j] % wrap
        np.add(codes, rows[:, j], out=codes, dtype=dtype, casting="unsafe")
    return codes


def _radix_groups(cards: list[int]) -> list[tuple[list[int], int]]:
    """Consecutive column groups, each with its configuration count.

    Every group's mixed-radix codes fit in int64, the widest dtype
    ``_mixed_radix`` accumulates in.  There is always at
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else every CPU of the machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _draw_range(
    rows: np.ndarray, lo: int, hi: int, plan: list, cards: list[int], seed: int
) -> None:
    """Fill rows ``lo`` to ``hi - 1`` of ``forward_sample``'s ``rows``.

    Node ``k`` of ``plan`` (topological order) draws from its own PCG64
    advanced to output ``k*n + lo``, so a range reads the same uniforms
    whichever ranges the rows were cut into.  The rows are drawn
    ``_SAMPLE_BLOCK_ROWS`` at a time, every node in turn, so that a
    block's uniforms, parent codes and thresholds stay in cache.
    """
    n = len(rows)
    part = rows[lo:hi]
    rngs = [
        np.random.Generator(np.random.PCG64(seed).advance(k * n + lo)) for k in range(len(plan))
    ]
    u = np.empty(min(hi - lo, _SAMPLE_BLOCK_ROWS))
    for start in range(0, hi - lo, _SAMPLE_BLOCK_ROWS):
        block = part[start : start + _SAMPLE_BLOCK_ROWS]
        draws = u[: len(block)]
        for rng, (col, parents, thresholds) in zip(rngs, plan):
            rng.random(out=draws)
            state = block[:, col]
            if parents:
                # row index into the CPT, first parent slowest
                idx = _mixed_radix(block, parents, cards)
                for column in thresholds:
                    state += draws > column.take(idx)
            else:
                for threshold in thresholds:
                    state += draws > threshold


def forward_sample(net: DiscreteBayesNet, n: int, seed: int) -> Dataset:
    """Ancestral sampling with a fixed, documented RNG scheme.

    The generator is numpy's PCG64 seeded with ``seed``.  Nodes are
    visited in topological order (ties broken by declaration order);
    node ``k`` in that order takes the stream's outputs ``k*n`` to
    ``(k+1)*n - 1``, one 64-bit output per uniform ``u`` and one ``u``
    per row, and the row's state is the number of entries of its CPT
    row's cumulative sum that lie strictly below ``u``, clamped to the
    last state.  Identical (net, n, seed) therefore reproduces the
    dataset bit for bit.

    The rows are stored column-major (one contiguous column per node) in
    the narrowest unsigned dtype that holds every state index.  They are
    cut into one contiguous range per usable CPU, at most one per
    ``_SAMPLE_BLOCK_ROWS`` rows and at most ``_SAMPLE_MAX_RANGES`` in
    all, so that the ranges' block temporaries stay within a bound, and
    each range is drawn in its own
    thread (the caller draws the first) from generators advanced to its
    place in the stream; the draws, comparisons and gathers are numpy
    calls that release the GIL.  The rows are the same for any CPU
    count.  An exception raised in any range is raised here, after
    every range has ended.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    nodes = net.dag.nodes
    col_of = {name: i for i, name in enumerate(nodes)}
    cards = [net.card(m) for m in nodes]
    rows = np.zeros((n, len(nodes)), dtype=np.min_scalar_type(max(cards) - 1), order="F")
    plan = []
    for name in topological_order(net.dag):
        parents = [col_of[p] for p in net.cpts[name].parents]
        # cumsum of a CPT row does the same float additions as per-row cumsum;
        # CDF rows never decrease (validate rejects negative entries), so
        # leaving out the last column is the clamp to the last state
        cdf = np.cumsum(net.cpts[name].table, axis=1)[:, :-1]
        thresholds = list(cdf.T) if parents else cdf[0].tolist()
        plan.append((col_of[name], parents, thresholds))
    parts = min(_usable_cpus(), _SAMPLE_MAX_RANGES, -(-n // _SAMPLE_BLOCK_ROWS))
    errors: list[BaseException | None] = [None] * parts

    def draw(i: int) -> None:
        try:
            _draw_range(rows, n * i // parts, n * (i + 1) // parts, plan, cards, seed)
        except BaseException as exc:  # raised below, once every range has ended
            errors[i] = exc

    threads = []
    try:
        for i in range(1, parts):
            thread = threading.Thread(target=draw, args=(i,))
            thread.start()
            threads.append(thread)
        draw(0)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
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
