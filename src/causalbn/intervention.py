"""The do-operator and everything built on it.

Interventional distributions come from the truncated factorization
(drop the intervened CPT factors, clamp the intervened values).  On top
of that sit the adjustment estimator, the unadjusted conditional, the
conditioning-bias expression, and the two-stage sufficient-confounder
selection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bayesnet import DiscreteBayesNet, Factor, joint
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

    The kernel rejects an unknown name or state with UnknownVariable.
    """
    if target in do:
        raise ValueError("target cannot be intervened on")
    f = joint(net, do, keep={target})
    return Factor(f.scope, f.states, f.values / f.values.sum())


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


def _expected(dist: Factor, values: np.ndarray) -> float:
    return float(np.dot(values, dist.values))


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
    d1 = interventional_distribution(net, outcome, {treatment: level1})
    d0 = interventional_distribution(net, outcome, {treatment: level0})
    return _expected(d1, vals) - _expected(d0, vals)


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
    _distinct(treatment=treatment, outcome=outcome)
    s = set(s)
    if treatment in s or outcome in s:
        raise ValueError("adjustment set must exclude treatment and outcome")
    # the kernel rejects unknown names; its scope is in declaration order
    f = joint(net, keep={treatment, outcome, *s})
    s = [v for v in f.scope if v in s]
    out_states = net.variables[outcome].states
    # cond[z, s..., y] = p(y | z, s) and p_zs[z, s...] = p(z, s)
    cond, p_zs = f.conditional([outcome], [treatment, *s])
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
    result: dict[str, Factor] = {}
    for i, level in enumerate(net.variables[treatment].states):
        acc = dist[i]
        result[level] = Factor((outcome,), (out_states,), acc / acc.sum())
    return result


def unadjusted_estimate(
    net: DiscreteBayesNet, treatment: str, outcome: str
) -> dict[str, Factor]:
    """Plain conditional p(outcome | z) per treatment level."""
    full = joint(net)
    result = {}
    for level in net.variables[treatment].states:
        try:
            result[level] = full.condition({treatment: level}).marginal({outcome})
        except ZeroProbabilityEvidence:
            raise ZeroProbabilityEvidence(
                f"p({treatment}={level}) = 0; conditional undefined"
            ) from None
    return result


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
    so the two can be cross-checked; it therefore stays on
    ``Factor.condition`` rather than ``Factor.conditional``.
    """
    _distinct(treatment=treatment, outcome=outcome, covariate=x)
    level1, level0 = _levels(net, treatment, level1, level0)
    y_vals = _outcome_values(net, outcome)
    full = joint(net)
    p_x = full.marginal({x})
    p_zx = full.marginal({treatment, x})

    def level_term(level: str) -> float:
        p_x_given_z = full.condition({treatment: level}).marginal({x})
        term = 0.0
        x_states = net.variables[x].states
        for i, xs in enumerate(x_states):
            geom_weight = p_x.values[i] - p_x_given_z.values[i]
            if geom_weight == 0.0:
                continue
            if p_zx.prob({treatment: level, x: xs}) <= 0:
                raise PositivityViolation(
                    f"p({treatment}={level}, {x}={xs}) = 0 in bias expression"
                )
            p_y = full.condition({treatment: level, x: xs}).marginal({outcome})
            term += float(np.dot(y_vals, p_y.values)) * geom_weight
        return term

    return level_term(level1) - level_term(level0)


@dataclass(frozen=True)
class AuditRecord:
    stage: int
    subset: tuple[str, ...]
    verdict: bool


@dataclass(frozen=True)
class SelectionResult:
    chosen: tuple[str, ...]
    pool: tuple[str, ...]
    stage1: tuple[str, ...]
    audit: tuple[AuditRecord, ...]


def _subsets_smallest_first(
    net: DiscreteBayesNet, pool: Sequence[str]
) -> list[tuple[str, ...]]:
    """All subsets ordered by total state count, ties lexicographic on names."""

    def key(sub: tuple[str, ...]):
        return (sum(net.card(v) for v in sub), tuple(sorted(sub)))

    subs = [
        combo
        for r in range(len(pool) + 1)
        for combo in itertools.combinations(pool, r)
    ]
    return sorted(subs, key=key)


def _conditional_equal(
    f: Factor,
    target: str,
    given_common: tuple[str, ...],
    full_set: tuple[str, ...],
    sub_set: tuple[str, ...],
) -> bool:
    """Numeric test of P(target | common, full) == P(target | common, sub).

    ``sub_set`` is an ordered subsequence of ``full_set``, so the smaller
    table broadcasts over the larger one once its missing axes are 1.
    Compared only on positive-probability configurations of the larger
    conditioning set; max-norm against ``SELECTION_TOL``.
    """
    cond_full = (*given_common, *full_set)
    cond_sub = (*given_common, *sub_set)
    p_full, weight = f.conditional([target], cond_full)
    p_sub, _ = f.conditional([target], cond_sub)
    shape = [n if v in cond_sub else 1 for v, n in zip(cond_full, weight.shape)]
    gap = np.abs(p_full - p_sub.reshape(shape + [p_full.shape[-1]]))
    return float(np.max(gap[weight > 0], initial=0.0)) <= SELECTION_TOL


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
    ``SELECTION_TOL``.
    """
    _distinct(treatment=treatment, outcome=outcome)
    if mode not in ("graphical", "distributional"):
        raise ValueError(f"unknown mode {mode!r}")
    dag = net.dag
    excluded = {treatment, outcome} | descendants(dag, treatment)
    pool = tuple(v for v in dag.nodes if v not in excluded)
    if len(pool) > SELECTION_POOL_CAP:
        raise SizeCapExceeded(
            f"candidate pool of {len(pool)} exceeds cap {SELECTION_POOL_CAP}"
        )

    # one table over the pool and both endpoints serves every equality
    # test; an empty pool needs none
    full = (
        joint(net, keep={treatment, outcome, *pool})
        if mode == "distributional" and pool
        else None
    )
    audit: list[AuditRecord] = []

    def equality(stage: int, target: str, common: tuple[str, ...], full_set, sub) -> bool:
        removed = tuple(v for v in full_set if v not in sub)
        if not removed:
            verdict = True
        elif mode == "graphical":
            verdict = d_separated(dag, {target}, set(removed), set(common) | set(sub))
        else:
            verdict = _conditional_equal(full, target, common, full_set, sub)
        audit.append(AuditRecord(stage, sub, verdict))
        return verdict

    # stage 1: smallest X' with P(outcome | treatment, pool) preserved
    stage1 = pool
    for sub in _subsets_smallest_first(net, pool):
        if equality(1, outcome, (treatment,), pool, sub):
            stage1 = sub
            break

    # stage 2: smallest X with P(treatment | X') preserved
    chosen = stage1
    for sub in _subsets_smallest_first(net, stage1):
        if equality(2, treatment, (), stage1, sub):
            chosen = sub
            break

    return SelectionResult(chosen, pool, stage1, tuple(audit))


@dataclass(frozen=True)
class EffectReport:
    """Everything needed to compare truth vs adjusted vs unadjusted."""

    treatment: str
    outcome: str
    levels: tuple[str, str]  # (z1, z0)
    true_dist: dict[str, Factor]
    adjusted_dist: dict[tuple[str, ...], dict[str, Factor]]
    unadjusted_dist: dict[str, Factor]
    ace_true: float
    ace_adjusted: dict[tuple[str, ...], float]
    ace_unadjusted: float
    per_level_errors: dict[str, dict[str, float]]  # strategy label -> level -> error
    ace_errors: dict[str, float]  # strategy label -> ace error


def effect_report(
    net: DiscreteBayesNet,
    treatment: str,
    outcome: str,
    covariate_sets: Sequence[Iterable[str]],
) -> EffectReport:
    """One call computing true, adjusted, and unadjusted quantities.

    Per-level errors are differences of expected outcome against the
    interventional truth; ACE errors are the corresponding ACE
    differences (so ace_error == error(z1) - error(z0) by construction).
    """
    states = net.states(treatment)
    level1, level0 = levels = (states[-1], states[0])
    vals = _outcome_values(net, outcome)
    true_dist = {lv: interventional_distribution(net, outcome, {treatment: lv}) for lv in levels}
    unadj = unadjusted_estimate(net, treatment, outcome)
    unadjusted_dist = {lv: unadj[lv] for lv in levels}
    adjusted_dist: dict[tuple[str, ...], dict[str, Factor]] = {}
    for s in covariate_sets:
        key = tuple(sorted(set(s)))
        adj = adjusted_estimate(net, treatment, outcome, s)
        adjusted_dist[key] = {lv: adj[lv] for lv in levels}

    def means(dists: Mapping[str, Factor]) -> dict[str, float]:
        return {lv: _expected(dists[lv], vals) for lv in levels}

    mean_true, mean_unadj = means(true_dist), means(unadjusted_dist)
    mean_adj = {key: means(d) for key, d in adjusted_dist.items()}
    ace_true = mean_true[level1] - mean_true[level0]
    ace_unadjusted = mean_unadj[level1] - mean_unadj[level0]
    ace_adjusted = {key: m[level1] - m[level0] for key, m in mean_adj.items()}

    per_level_errors: dict[str, dict[str, float]] = {
        "unadjusted": {lv: mean_unadj[lv] - mean_true[lv] for lv in levels}
    }
    ace_errors = {"unadjusted": ace_unadjusted - ace_true}
    for key, m in mean_adj.items():
        label = "adjusted:" + ",".join(key)
        per_level_errors[label] = {lv: m[lv] - mean_true[lv] for lv in levels}
        ace_errors[label] = ace_adjusted[key] - ace_true

    return EffectReport(
        treatment,
        outcome,
        levels,
        true_dist,
        adjusted_dist,
        unadjusted_dist,
        ace_true,
        ace_adjusted,
        ace_unadjusted,
        per_level_errors,
        ace_errors,
    )
