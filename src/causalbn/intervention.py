"""The do-operator and everything built on it.

Interventional distributions come from the truncated factorization
(drop the intervened CPT factors, clamp the intervened values).  On top
of that sit the adjustment estimator, the unadjusted conditional, the
conditioning-bias expression, and the two-stage sufficient-confounder
selection.  The estimators keep their intermediate tables as arrays; the
public functions wrap their results in validated Factors.  Each estimator
is one kept function (``bayesnet._kept``): the network keeps its answer
under its own arguments and the size cap in force, so a repeated request
is one lookup; kept arrays are read-only.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bayesnet import (
    DiscreteBayesNet,
    Factor,
    _condition,
    _conditional,
    _contract,
    _distribution,
    _joint,
    _kept,
    _marginal,
    _names,
    _pairs,
)
from .errors import (
    PositivityViolation,
    SizeCapExceeded,
    ValidationError,
    ZeroProbabilityEvidence,
)
from .graph import d_separated, descendants

#: pool-size ceiling for subset enumeration in confounder selection
SELECTION_POOL_CAP = 12
#: max-norm gap under which distributional selection calls two conditionals equal
SELECTION_TOL = 1e-9


def interventional_distribution(
    net: DiscreteBayesNet, target: str, do: Mapping[str, str]
) -> Factor:
    """p(target | do(assignments)) by truncated factorization.

    The kernel rejects an unknown name or state with UnknownVariable.  The
    network keeps the answer, so its values are read-only.
    """
    if target in do:
        raise ValueError("target cannot be intervened on")
    return _distribution(net, (target,), _pairs(do), ())


def _distinct(**roles: str) -> None:
    """Raise ValidationError unless each role names a different variable."""
    if len(set(roles.values())) != len(roles):
        named = ", ".join(f"{role} {name!r}" for role, name in roles.items())
        raise ValidationError(f"{named} must be distinct variables")


def _levels(
    net: DiscreteBayesNet, treatment: str, level1: str | None, level0: str | None
) -> tuple[str, str]:
    """(z1, z0), each missing level on its own: z1 the last state, z0 the first."""
    states = net.states(treatment)
    return (
        states[-1] if level1 is None else level1,
        states[0] if level0 is None else level0,
    )


def _outcome_values(net: DiscreteBayesNet, outcome: str) -> np.ndarray:
    """Numeric labels as values; a non-numeric label counts as its index."""
    states = net.states(outcome)
    vals = []
    for i, s in enumerate(states):
        try:
            vals.append(float(s))
        except ValueError:
            vals.append(float(i))
    return np.array(vals)


def _expected(values: np.ndarray, dist: np.ndarray) -> float:
    return float(np.dot(values, dist))


def ace(
    net: DiscreteBayesNet,
    treatment: str,
    outcome: str,
    level1: str | None = None,
    level0: str | None = None,
) -> float:
    """Average causal effect E[Y | do(z1)] - E[Y | do(z0)]."""
    _distinct(treatment=treatment, outcome=outcome)
    level1, level0 = _levels(net, treatment, level1, level0)
    vals = _outcome_values(net, outcome)
    d1 = _distribution(net, (outcome,), ((treatment, level1),), ())
    d0 = _distribution(net, (outcome,), ((treatment, level0),), ())
    return _expected(vals, d1.values) - _expected(vals, d0.values)


def adjusted_estimate(
    net: DiscreteBayesNet,
    treatment: str,
    outcome: str,
    s: Iterable[str],
) -> dict[str, Factor]:
    """Sum_s p(outcome | z, s) p(s) for every treatment level z.

    Raises PositivityViolation whenever some stratum of ``s`` with
    positive probability lacks a treatment level.
    """
    rows = _adjusted(net, treatment, outcome, _names(s))
    states = (net.variables[outcome].states,)
    levels = net.variables[treatment].states
    return {level: Factor((outcome,), states, row) for level, row in zip(levels, rows)}


@_kept
def _adjusted(
    net: DiscreteBayesNet, treatment: str, outcome: str, s_names: tuple[str, ...]
) -> np.ndarray:
    """``adjusted_estimate``'s values, one row per treatment state."""
    _distinct(treatment=treatment, outcome=outcome)
    if treatment in s_names or outcome in s_names:
        raise ValueError("adjustment set must exclude treatment and outcome")
    # the kernel rejects unknown names; its scope is in declaration order
    f = _contract(net, _names((treatment, outcome, *s_names)), (), ())
    return _adjusted_rows(net, f.scope, f.values, treatment, outcome, s_names)


def _adjusted_rows(
    net: DiscreteBayesNet,
    scope: tuple[str, ...],
    values: np.ndarray,
    treatment: str,
    outcome: str,
    s_names: tuple[str, ...],
) -> np.ndarray:
    """``_adjusted``'s rows from the table (scope, values) over the
    treatment, the outcome and ``s_names``; ``net`` names the states of a
    positivity violation."""
    s = [v for v in scope if v in s_names]
    # cond[z, s..., y] = p(y | z, s) and p_zs[z, s...] = p(z, s)
    cond, p_zs = _conditional(scope, values, [outcome], [treatment, *s])
    p_s = p_zs.sum(axis=0)  # (s...)
    bad = (p_s > 0) & np.any(p_zs <= 0, axis=0)
    if np.any(bad):
        cell = np.argwhere(bad)[0]
        cfg = {v: net.variables[v].states[i] for v, i in zip(s, cell)}
        lvl_idx = int(np.argmin(p_zs[(slice(None), *cell)]))
        level = net.variables[treatment].states[lvl_idx]
        raise PositivityViolation(
            f"p({treatment}={level}, {cfg}) = 0 while p({cfg}) > 0"
        )
    sum_axes = tuple(range(1, 1 + len(s)))
    weighted = cond * p_s[None, ..., None] if s else cond
    dist = weighted.sum(axis=sum_axes) if s else weighted
    return dist / dist.sum(axis=1, keepdims=True)


def unadjusted_estimate(
    net: DiscreteBayesNet, treatment: str, outcome: str
) -> dict[str, Factor]:
    """Plain conditional p(outcome | z) per treatment level."""
    rows = _unadjusted(net, treatment, outcome)
    states = (net.variables[outcome].states,)
    levels = net.variables[treatment].states
    return {level: Factor((outcome,), states, row) for level, row in zip(levels, rows)}


@_kept
def _unadjusted(
    net: DiscreteBayesNet, treatment: str, outcome: str
) -> np.ndarray:
    """``unadjusted_estimate``'s values, one row per treatment state."""
    _distinct(treatment=treatment, outcome=outcome)
    levels = net.states(treatment)
    full = _joint(net, net._all_names, (), ())
    return _unadjusted_rows(full.scope, full.states, full.values, treatment, outcome, levels)


def _unadjusted_rows(
    scope: tuple[str, ...],
    states: tuple[tuple[str, ...], ...],
    values: np.ndarray,
    treatment: str,
    outcome: str,
    levels: Sequence[str],
) -> np.ndarray:
    """``_unadjusted``'s rows, p(outcome | treatment = level) for each of
    ``levels``, from the table (scope, values) with ``states``."""
    rows = []
    for level in levels:
        try:
            sub_scope, sub = _condition(scope, states, values, {treatment: level})
        except ZeroProbabilityEvidence:
            raise ZeroProbabilityEvidence(
                f"p({treatment}={level}) = 0; conditional undefined"
            ) from None
        rows.append(_marginal(sub_scope, sub, {outcome})[1])
    return np.array(rows)


def conditioning_bias(
    net: DiscreteBayesNet,
    treatment: str,
    outcome: str,
    x: str,
    level1: str | None = None,
    level0: str | None = None,
) -> float:
    """Bias of adjusting for ``x`` relative to ignoring it, on the ACE scale.

    Computes sum_{y,x} y p(y|z,x) [p(x) - p(x|z)] at each level and takes
    the level difference.  Algebraically identical to
    ace(adjusted by {x}) - ace(unadjusted); kept as a separate code path
    so the two can be cross-checked; it therefore slices and renormalises
    the joint (as ``Factor.condition`` does) rather than reading
    ``Factor.conditional``.  The network keeps the answer.
    """
    return _bias(net, treatment, outcome, x, level1, level0)


@_kept
def _bias(
    net: DiscreteBayesNet,
    treatment: str,
    outcome: str,
    x: str,
    level1: str | None,
    level0: str | None,
) -> float:
    _distinct(treatment=treatment, outcome=outcome, covariate=x)
    level1, level0 = _levels(net, treatment, level1, level0)
    y_vals = _outcome_values(net, outcome)
    full = _joint(net, net._all_names, (), ())
    scope, states, values = full.scope, full.states, full.values
    _, p_x = _marginal(scope, values, {x})
    zx_scope, p_zx = _marginal(scope, values, {treatment, x})
    p_zx = p_zx if zx_scope[0] == treatment else p_zx.T  # axes (treatment, x)

    def given(evidence: Mapping[str, str], keep: str) -> np.ndarray:
        """p(keep | evidence) over the joint's states of ``keep``."""
        sub_scope, sub = _condition(scope, states, values, evidence)
        return _marginal(sub_scope, sub, {keep})[1]

    def level_term(level: str) -> float:
        p_x_given_z = given({treatment: level}, x)
        z = net.state_index(treatment, level)
        term = 0.0
        x_states = net.variables[x].states
        for i, xs in enumerate(x_states):
            geom_weight = p_x[i] - p_x_given_z[i]
            if geom_weight == 0.0:
                continue
            if p_zx[z, i] <= 0:
                raise PositivityViolation(
                    f"p({treatment}={level}, {x}={xs}) = 0 in bias expression"
                )
            p_y = given({treatment: level, x: xs}, outcome)
            term += float(np.dot(y_vals, p_y)) * geom_weight
        return term

    return level_term(level1) - level_term(level0)


@dataclass(frozen=True, slots=True)
class AuditRecord:
    stage: int
    subset: tuple[str, ...]
    verdict: bool


@dataclass(frozen=True, slots=True)
class SelectionResult:
    chosen: tuple[str, ...]
    pool: tuple[str, ...]
    stage1: tuple[str, ...]
    audit: tuple[AuditRecord, ...]

    def __sizeof__(self) -> int:
        """Bytes of the result with its tuples and audit records; the names
        they hold are the network's."""
        held = (self.chosen, self.pool, self.stage1, self.audit, *self.audit)
        subsets = (record.subset for record in self.audit)
        return object.__sizeof__(self) + sum(map(sys.getsizeof, (*held, *subsets)))


def _subsets_smallest_first(
    net: DiscreteBayesNet, pool: Sequence[str]
) -> Iterator[tuple[str, ...]]:
    """Every subset of ``pool``, each in pool order, yielded by total state
    count, ties lexicographic on the sorted names.

    The subsets come lazily from a heap keyed by (state count, sorted
    names).  Each is pushed by the subset without its last name in sorted
    order, which has a smaller state count, so it is pushed before its
    turn and exactly once.
    """
    names = sorted(pool)
    position = {v: i for i, v in enumerate(pool)}
    # (state count, sorted names, index in ``names`` of the last name)
    heap: list[tuple[int, tuple[str, ...], int]] = [(0, (), -1)]
    while heap:
        count, sub, last = heapq.heappop(heap)
        yield tuple(sorted(sub, key=position.__getitem__))
        for j in range(last + 1, len(names)):
            heapq.heappush(heap, (count + net.card(names[j]), (*sub, names[j]), j))


def _conditional_equal(
    f: Factor,
    target: str,
    given_common: tuple[str, ...],
    full_set: tuple[str, ...],
    tolerance: float = SELECTION_TOL,
) -> Callable[[tuple[str, ...]], bool]:
    """The numeric test of P(target | common, full) == P(target | common, sub),
    as a function of ``sub``.

    The full-set conditional and its weights are computed once, here, and
    serve every subset tested against them.  ``sub`` is an ordered
    subsequence of ``full_set``, so the smaller table broadcasts over the
    larger one once its missing axes are 1.  Compared only on
    positive-probability configurations of the larger conditioning set;
    max-norm against ``tolerance``.
    """
    cond_full = (*given_common, *full_set)
    p_full, weight = f.conditional([target], cond_full)
    positive = weight > 0

    def equal(sub_set: tuple[str, ...]) -> bool:
        cond_sub = (*given_common, *sub_set)
        p_sub, _ = f.conditional([target], cond_sub)
        shape = [n if v in cond_sub else 1 for v, n in zip(cond_full, weight.shape)]
        gap = np.abs(p_full - p_sub.reshape(shape + [p_full.shape[-1]]))
        return float(np.max(gap[positive], initial=0.0)) <= tolerance

    return equal


def select_sufficient_confounders(
    net: DiscreteBayesNet,
    treatment: str,
    outcome: str,
    mode: str = "graphical",
) -> SelectionResult:
    """Two-stage minimal sufficient confounder set.

    Candidate pool: every variable except treatment, outcome, and
    descendants of the treatment.  Stage 1 finds the smallest subset
    that preserves the outcome conditional given treatment; stage 2
    shrinks it further while preserving the treatment conditional.
    "Smallest" means minimal total state count, ties broken
    lexicographically.

    Modes: 'graphical' decides each equality by d-separation;
    'distributional' compares conditionals on the exact joint to
    ``SELECTION_TOL``; an unknown mode raises ValidationError.  The
    network keeps the answer for the pool cap and tolerance it was found
    under.
    """
    return _select(net, treatment, outcome, mode, SELECTION_POOL_CAP, SELECTION_TOL)


@_kept
def _select(
    net: DiscreteBayesNet,
    treatment: str,
    outcome: str,
    mode: str,
    pool_cap: int,
    tolerance: float,
) -> SelectionResult:
    _distinct(treatment=treatment, outcome=outcome)
    if mode not in ("graphical", "distributional"):
        raise ValidationError(f"unknown mode {mode!r}")
    dag = net.dag
    excluded = {treatment, outcome} | descendants(dag, treatment)
    pool = tuple(v for v in dag.nodes if v not in excluded)
    if len(pool) > pool_cap:
        raise SizeCapExceeded(f"candidate pool of {len(pool)} exceeds cap {pool_cap}")

    # one table over the pool and both endpoints serves every equality
    # test; an empty pool needs none
    full = (
        _joint(net, _names((treatment, outcome, *pool)), (), ())
        if mode == "distributional" and pool
        else None
    )
    audit: list[AuditRecord] = []

    def smallest_equal(
        stage: int, target: str, common: tuple[str, ...], full_set: tuple[str, ...]
    ) -> tuple[str, ...]:
        """The first subset of ``full_set``, smallest first, that keeps the
        conditional of ``target`` given ``common`` and the set."""
        # an empty full set has only itself to test, which needs no table
        equal = (
            _conditional_equal(full, target, common, full_set, tolerance)
            if mode == "distributional" and full_set
            else None
        )
        for sub in _subsets_smallest_first(net, full_set):
            removed = tuple(v for v in full_set if v not in sub)
            if not removed:
                verdict = True
            elif mode == "graphical":
                verdict = d_separated(dag, {target}, set(removed), set(common) | set(sub))
            else:
                verdict = equal(sub)
            audit.append(AuditRecord(stage, sub, verdict))
            if verdict:
                return sub
        return full_set

    # stage 1: smallest X' with P(outcome | treatment, pool) preserved
    stage1 = smallest_equal(1, outcome, (treatment,), pool)
    # stage 2: smallest X with P(treatment | X') preserved
    chosen = smallest_equal(2, treatment, (), stage1)
    return SelectionResult(chosen, pool, stage1, tuple(audit))


@dataclass(frozen=True)
class EffectReport:
    """Expected outcome at every treatment state, three ways.

    ``truth[i]``, ``adjusted[i]`` and ``unadjusted[i]`` are E[outcome] under
    do(treatment = levels[i]), under the covariate-adjusted estimate and
    under the plain conditional.  An ACE is the last entry minus the first.
    """

    levels: tuple[str, ...]
    truth: tuple[float, ...]
    adjusted: tuple[float, ...]
    unadjusted: tuple[float, ...]


def effect_report(
    net: DiscreteBayesNet,
    treatment: str,
    outcome: str,
    covariates: Iterable[str],
) -> EffectReport:
    """The interventional truth, the adjusted estimate (adjusting for
    ``covariates``) and the unadjusted estimate, at every treatment state."""
    _distinct(treatment=treatment, outcome=outcome)
    levels = net.states(treatment)
    vals = _outcome_values(net, outcome)
    truth = tuple(
        _expected(vals, _distribution(net, (outcome,), ((treatment, lv),), ()).values)
        for lv in levels
    )
    unadj = _unadjusted(net, treatment, outcome)
    adj = _adjusted(net, treatment, outcome, _names(covariates))
    return EffectReport(
        levels,
        truth,
        tuple(_expected(vals, row) for row in adj),
        tuple(_expected(vals, row) for row in unadj),
    )
