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

from .bayesnet import (
    DEFAULT_SIZE_CAP,
    DiscreteBayesNet,
    Factor,
    joint,
    validate,
)
from .errors import (
    PositivityViolation,
    SizeCapExceeded,
    UnknownVariable,
    ZeroProbabilityEvidence,
)
from .graph import d_separated, descendants

#: pool-size ceiling for subset enumeration in confounder selection
SELECTION_POOL_CAP = 12


@dataclass(frozen=True)
class InterventionQuery:
    target: str
    do_assignments: Mapping[str, str]
    net: DiscreteBayesNet

    def __post_init__(self):
        if self.target in self.do_assignments:
            raise ValueError("target cannot be intervened on")
        for name in [self.target, *self.do_assignments]:
            if name not in self.net.variables:
                raise UnknownVariable(f"unknown variable {name!r}")


def _truncated_joint(net: DiscreteBayesNet, do: Mapping[str, str], size_cap: int) -> Factor:
    """Joint of the mutilated model: intervened CPTs become point masses."""
    from .bayesnet import _broadcast_cpt  # local to avoid cycle at import

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
        if n in do:
            point = np.zeros(net.card(n))
            point[net.state_index(n, do[n])] = 1.0
            shape = [1] * len(nodes)
            shape[axis_of[n]] = net.card(n)
            values = values * point.reshape(shape)
        else:
            values = values * _broadcast_cpt(net, n, axis_of, len(nodes))
    return Factor(nodes, tuple(net.variables[n].states for n in nodes), values)


def interventional_distribution(
    q: InterventionQuery, size_cap: int = DEFAULT_SIZE_CAP
) -> Factor:
    """p(target | do(assignments)) by truncated factorization."""
    f = _truncated_joint(q.net, q.do_assignments, size_cap)
    f = f.marginal({q.target})
    return Factor(f.scope, f.states, f.values / f.values.sum())


def _default_levels(net: DiscreteBayesNet, treatment: str) -> tuple[str, str]:
    states = net.variables[treatment].states
    return states[-1], states[0]


def _outcome_values(
    net: DiscreteBayesNet, outcome: str, value_map: Mapping[str, float] | None
) -> np.ndarray:
    states = net.variables[outcome].states
    if value_map is not None:
        return np.array([float(value_map[s]) for s in states])
    vals = []
    for i, s in enumerate(states):
        try:
            vals.append(float(s))
        except ValueError:
            vals.append(float(i))
    return np.array(vals)


def _expected(net, outcome, dist: Factor, values: np.ndarray) -> float:
    return float(np.dot(dist.values, values))


def ace(
    net: DiscreteBayesNet,
    treatment: str,
    outcome: str,
    level1: str | None = None,
    level0: str | None = None,
    outcome_value_map: Mapping[str, float] | None = None,
) -> float:
    """Average causal effect E[Y | do(z1)] - E[Y | do(z0)]."""
    if level1 is None or level0 is None:
        level1, level0 = _default_levels(net, treatment)
    vals = _outcome_values(net, outcome, outcome_value_map)
    d1 = interventional_distribution(InterventionQuery(outcome, {treatment: level1}, net))
    d0 = interventional_distribution(InterventionQuery(outcome, {treatment: level0}, net))
    return _expected(net, outcome, d1, vals) - _expected(net, outcome, d0, vals)


def adjusted_estimate(
    net: DiscreteBayesNet,
    treatment: str,
    outcome: str,
    s: Iterable[str],
    size_cap: int = DEFAULT_SIZE_CAP,
) -> dict[str, Factor]:
    """Sum_s p(outcome | z, s) p(s) for every treatment level z.

    Raises PositivityViolation whenever some stratum of ``s`` with
    positive probability lacks a treatment level.
    """
    s = sorted(set(s), key=net.dag.nodes.index)
    if treatment in s or outcome in s:
        raise ValueError("adjustment set must exclude treatment and outcome")
    full = joint(net, size_cap=size_cap)
    out_states = net.variables[outcome].states
    # axes: (treatment, s..., outcome)
    marg = full.marginal({treatment, outcome, *s})
    order = [marg.scope.index(treatment)] + [marg.scope.index(v) for v in s]
    order.append(marg.scope.index(outcome))
    p = marg.values.transpose(order)  # shape (|Z|, |s1|, ..., |Y|)
    p_zs = p.sum(axis=-1)  # (|Z|, s...)
    p_s = p_zs.sum(axis=0)  # (s...)
    bad = (p_s > 0) & np.any(p_zs <= 0, axis=0)
    if np.any(bad):
        cell = np.argwhere(bad)[0]
        cfg = {
            v: net.variables[v].states[i] for v, i in zip(s, cell)
        }
        lvl_idx = int(np.argmin(p_zs[(slice(None), *cell)]))
        level = net.variables[treatment].states[lvl_idx]
        raise PositivityViolation(
            f"p({treatment}={level}, {cfg}) = 0 while p({cfg}) > 0"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = p / p_zs[..., None]  # p(y | z, s)
    cond = np.where(np.isfinite(cond), cond, 0.0)
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
    outcome_value_map: Mapping[str, float] | None = None,
) -> float:
    """Bias of adjusting for ``x`` relative to ignoring it, on the ACE scale.

    Computes sum_{y,x} y p(y|z,x) [p(x) - p(x|z)] at each level and takes
    the level difference.  Algebraically identical to
    ace(adjusted by {x}) - ace(unadjusted); kept as a separate code path
    so the two can be cross-checked.
    """
    if level1 is None or level0 is None:
        level1, level0 = _default_levels(net, treatment)
    y_vals = _outcome_values(net, outcome, outcome_value_map)
    full = joint(net)
    p_x = full.marginal({x})

    def level_term(level: str) -> float:
        p_x_given_z = full.condition({treatment: level}).marginal({x})
        term = 0.0
        x_states = net.variables[x].states
        for i, xs in enumerate(x_states):
            geom_weight = p_x.values[i] - p_x_given_z.values[i]
            if geom_weight == 0.0:
                continue
            p_zx = full.marginal({treatment, x}).prob({treatment: level, x: xs})
            if p_zx <= 0:
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
    net: DiscreteBayesNet, pool: Sequence[str], metric: str
) -> list[tuple[str, ...]]:
    """All subsets ordered by size metric, ties lexicographic on names."""

    def key(sub: tuple[str, ...]):
        cards = [net.card(v) for v in sub]
        if metric == "product":
            size = int(np.prod(cards)) if cards else 0
        else:
            size = sum(cards)
        return (size, tuple(sorted(sub)))

    subs = [
        combo
        for r in range(len(pool) + 1)
        for combo in itertools.combinations(pool, r)
    ]
    return sorted(subs, key=key)


def _conditional_equal(
    net: DiscreteBayesNet,
    target: str,
    given_common: tuple[str, ...],
    full_set: tuple[str, ...],
    sub_set: tuple[str, ...],
    tolerance: float,
) -> bool:
    """Numeric test of P(target | common, full) == P(target | common, sub).

    Compared only on positive-probability configurations of the larger
    conditioning set; max-norm against ``tolerance``.
    """
    f = joint(net)
    cond_full = list(given_common) + [v for v in full_set if v not in given_common]
    cond_sub = list(given_common) + [v for v in sub_set if v not in given_common]
    worst = 0.0
    for cfg in itertools.product(*[net.variables[v].states for v in cond_full]):
        ev_full = dict(zip(cond_full, cfg))
        weight = f.marginal(set(cond_full)).prob(ev_full)
        if weight <= 0:
            continue
        ev_sub = {v: ev_full[v] for v in cond_sub}
        try:
            p_full = f.condition(ev_full).marginal({target}).values
            p_sub = f.condition(ev_sub).marginal({target}).values
        except ZeroProbabilityEvidence:
            continue
        worst = max(worst, float(np.max(np.abs(p_full - p_sub))))
    return worst <= tolerance


def select_sufficient_confounders(
    net: DiscreteBayesNet,
    treatment: str,
    outcome: str,
    mode: str = "graphical",
    tolerance: float = 1e-9,
    metric: str = "sum",
) -> SelectionResult:
    """Two-stage minimal sufficient confounder set.

    Candidate pool: every variable except treatment, outcome, and
    descendants of the treatment.  Stage 1 finds the smallest subset
    that preserves the outcome conditional given treatment; stage 2
    shrinks it further while preserving the treatment conditional.
    "Smallest" means minimal total state count (or product when
    ``metric='product'``), ties broken lexicographically.

    Modes: 'graphical' decides each equality by d-separation;
    'distributional' compares conditionals on the exact joint to
    ``tolerance``.
    """
    if mode not in ("graphical", "distributional"):
        raise ValueError(f"unknown mode {mode!r}")
    validate(net)
    dag = net.dag
    excluded = {treatment, outcome} | descendants(dag, treatment)
    pool = tuple(v for v in dag.nodes if v not in excluded)
    if len(pool) > SELECTION_POOL_CAP:
        raise SizeCapExceeded(
            f"candidate pool of {len(pool)} exceeds cap {SELECTION_POOL_CAP}"
        )

    audit: list[AuditRecord] = []

    def equality(stage: int, target: str, common: tuple[str, ...], full_set, sub) -> bool:
        removed = tuple(v for v in full_set if v not in sub)
        if not removed:
            verdict = True
        elif mode == "graphical":
            verdict = d_separated(dag, {target}, set(removed), set(common) | set(sub))
        else:
            verdict = _conditional_equal(net, target, common, full_set, sub, tolerance)
        audit.append(AuditRecord(stage, sub, verdict))
        return verdict

    # stage 1: smallest X' with P(outcome | treatment, pool) preserved
    stage1 = pool
    for sub in _subsets_smallest_first(net, pool, metric):
        if equality(1, outcome, (treatment,), pool, sub):
            stage1 = sub
            break

    # stage 2: smallest X with P(treatment | X') preserved
    chosen = stage1
    for sub in _subsets_smallest_first(net, stage1, metric):
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
    level1: str | None = None,
    level0: str | None = None,
    outcome_value_map: Mapping[str, float] | None = None,
) -> EffectReport:
    """One call computing true, adjusted, and unadjusted quantities.

    Per-level errors are differences of expected outcome against the
    interventional truth; ACE errors are the corresponding ACE
    differences (so ace_error == error(z1) - error(z0) by construction).
    """
    if level1 is None or level0 is None:
        level1, level0 = _default_levels(net, treatment)
    vals = _outcome_values(net, outcome, outcome_value_map)

    def expect(dist: Factor) -> float:
        return float(np.dot(vals, dist.values))

    levels = (level1, level0)
    true_dist = {
        lv: interventional_distribution(InterventionQuery(outcome, {treatment: lv}, net))
        for lv in levels
    }
    unadj = unadjusted_estimate(net, treatment, outcome)
    unadjusted_dist = {lv: unadj[lv] for lv in levels}
    adjusted_dist: dict[tuple[str, ...], dict[str, Factor]] = {}
    for s in covariate_sets:
        key = tuple(sorted(set(s)))
        adj = adjusted_estimate(net, treatment, outcome, s)
        adjusted_dist[key] = {lv: adj[lv] for lv in levels}

    ace_true = expect(true_dist[level1]) - expect(true_dist[level0])
    ace_unadjusted = expect(unadjusted_dist[level1]) - expect(unadjusted_dist[level0])
    ace_adjusted = {
        key: expect(d[level1]) - expect(d[level0]) for key, d in adjusted_dist.items()
    }

    per_level_errors: dict[str, dict[str, float]] = {
        "unadjusted": {
            lv: expect(unadjusted_dist[lv]) - expect(true_dist[lv]) for lv in levels
        }
    }
    ace_errors = {"unadjusted": ace_unadjusted - ace_true}
    for key, d in adjusted_dist.items():
        label = "adjusted:" + ",".join(key)
        per_level_errors[label] = {
            lv: expect(d[lv]) - expect(true_dist[lv]) for lv in levels
        }
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
