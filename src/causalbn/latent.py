"""Associative-confounder machinery.

Binary scenario templates (the two three-node models, the five-node
M-structure with and without a latent-latent link, the single hidden
cause), the common-cause dissection of a conditional probability, the
three-correlation feasibility bound, explaining-away classification,
and exact bias scans over parameter grids.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bayesnet import Cpt, DiscreteBayesNet, Factor, Variable, joint
from .errors import (
    CausalbnError,
    DegenerateEndpoints,
    DomainError,
    InfeasibleEndpoints,
    StructureError,
    ValidationError,
    ZeroProbabilityEvidence,
)
from .graph import Dag
from .intervention import effect_report

BINARY = ("0", "1")

#: winner ties are declared below this ACE-error gap
TIE_TOL = 1e-12
#: default endpoints of ``decompose_common_cause`` lie this far outside
#: the two conditionals
ENDPOINT_MARGIN = 0.05
#: most cells a scan grid may have; the CLI also stops a grid range whose
#: value index would pass it
MAX_SCAN_CELLS = 10**6


@dataclass(frozen=True)
class Template:
    name: str
    nodes: tuple[str, ...]
    parents: dict[str, tuple[str, ...]]

    def param_keys(self) -> list[str]:
        """One key per CPT row: 'x' for roots, 'x|u=0,w=1' otherwise."""
        keys = []
        for node in self.nodes:
            pars = self.parents[node]
            if not pars:
                keys.append(node.lower())
                continue
            for cfg in itertools.product(BINARY, repeat=len(pars)):
                cond = ",".join(f"{p.lower()}={v}" for p, v in zip(pars, cfg))
                keys.append(f"{node.lower()}|{cond}")
        return keys


TEMPLATES: dict[str, Template] = {
    t.name: t
    for t in [
        Template("model1_fig1", ("X", "Z", "Y"), {"X": (), "Z": ("X",), "Y": ("Z", "X")}),
        Template("model2_fig1", ("X", "Z", "Y"), {"X": (), "Z": (), "Y": ("Z", "X")}),
        Template(
            "model1_fig2",
            ("U", "W", "X", "Z", "Y"),
            {"U": (), "W": (), "X": ("U", "W"), "Z": ("U", "X"), "Y": ("W", "X", "Z")},
        ),
        # observed surrogate for the fully associative three-node model
        Template("modelA", ("X", "Z", "Y"), {"X": (), "Z": ("X",), "Y": ("Z", "X")}),
        Template(
            "modelB",
            ("U", "W", "X", "Z", "Y"),
            {"U": (), "W": (), "X": ("U", "W"), "Z": ("U",), "Y": ("Z", "W")},
        ),
        Template(
            "modelC",
            ("V", "X", "Z", "Y"),
            {"V": (), "X": ("V",), "Z": ("V",), "Y": ("Z", "V")},
        ),
        Template(
            "modelD",
            ("U", "W", "X", "Z", "Y"),
            {"U": (), "W": ("U",), "X": ("U", "W"), "Z": ("U",), "Y": ("Z", "W")},
        ),
    ]
}

#: baseline parameter values used by the bundled model corpus and as
#: scan defaults for parameters the grid does not vary
DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "model1_fig1": {
        "x": 0.5,
        "z|x=0": 0.2, "z|x=1": 0.8,
        "y|z=0,x=0": 0.1, "y|z=0,x=1": 0.5, "y|z=1,x=0": 0.6, "y|z=1,x=1": 0.9,
    },
    "model2_fig1": {
        "x": 0.3, "z": 0.5,
        "y|z=0,x=0": 0.1, "y|z=0,x=1": 0.5, "y|z=1,x=0": 0.6, "y|z=1,x=1": 0.9,
    },
    "model1_fig2": {
        "u": 0.3, "w": 0.7,
        "x|u=0,w=0": 0.1, "x|u=0,w=1": 0.5, "x|u=1,w=0": 0.4, "x|u=1,w=1": 0.9,
        "z|u=0,x=0": 0.2, "z|u=0,x=1": 0.6, "z|u=1,x=0": 0.5, "z|u=1,x=1": 0.9,
        "y|w=0,x=0,z=0": 0.05, "y|w=0,x=0,z=1": 0.3,
        "y|w=0,x=1,z=0": 0.2, "y|w=0,x=1,z=1": 0.5,
        "y|w=1,x=0,z=0": 0.35, "y|w=1,x=0,z=1": 0.6,
        "y|w=1,x=1,z=0": 0.5, "y|w=1,x=1,z=1": 0.95,
    },
    "modelA": {
        "x": 0.4,
        "z|x=0": 0.25, "z|x=1": 0.75,
        "y|z=0,x=0": 0.15, "y|z=0,x=1": 0.45, "y|z=1,x=0": 0.55, "y|z=1,x=1": 0.85,
    },
    "modelB": {
        "u": 0.4, "w": 0.6,
        "x|u=0,w=0": 0.1, "x|u=0,w=1": 0.7, "x|u=1,w=0": 0.6, "x|u=1,w=1": 0.95,
        "z|u=0": 0.3, "z|u=1": 0.8,
        "y|z=0,w=0": 0.2, "y|z=0,w=1": 0.5, "y|z=1,w=0": 0.4, "y|z=1,w=1": 0.9,
    },
    "modelC": {
        "v": 0.45,
        "x|v=0": 0.2, "x|v=1": 0.85,
        "z|v=0": 0.25, "z|v=1": 0.7,
        "y|z=0,v=0": 0.15, "y|z=0,v=1": 0.55, "y|z=1,v=0": 0.5, "y|z=1,v=1": 0.9,
    },
    "modelD": {
        "u": 0.4,
        "w|u=0": 0.35, "w|u=1": 0.8,
        "x|u=0,w=0": 0.1, "x|u=0,w=1": 0.7, "x|u=1,w=0": 0.6, "x|u=1,w=1": 0.95,
        "z|u=0": 0.3, "z|u=1": 0.8,
        "y|z=0,w=0": 0.2, "y|z=0,w=1": 0.5, "y|z=1,w=0": 0.4, "y|z=1,w=1": 0.9,
    },
}


@dataclass(frozen=True)
class ScenarioParams:
    """Template name plus one probability per CPT row.

    Each parameter is P(child = "1" | the named parent configuration).
    """

    template: str
    parameters: Mapping[str, float]

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise ValidationError(f"unknown template {self.template!r}")
        schema = TEMPLATES[self.template].param_keys()
        given = set(self.parameters)
        if given != set(schema):
            missing = sorted(set(schema) - given)
            extra = sorted(given - set(schema))
            raise ValidationError(
                f"parameter mismatch for {self.template}: missing {missing}, extra {extra}"
            )
        for k, v in self.parameters.items():
            if not 0.0 <= float(v) <= 1.0:
                raise ValidationError(f"parameter {k}={v} outside [0,1]")


def build_scenario(sp: ScenarioParams) -> DiscreteBayesNet:
    """Instantiate a template into a binary network (validated when built)."""
    tpl = TEMPLATES[sp.template]
    dag = Dag(tpl.nodes, {n: tpl.parents[n] for n in tpl.nodes})
    variables = {n: Variable(n, BINARY) for n in tpl.nodes}
    # param_keys lists each node's rows in turn, parent configurations in order
    p1 = (float(sp.parameters[k]) for k in tpl.param_keys())
    cpts = {}
    for node in tpl.nodes:
        pars = tpl.parents[node]
        rows = [[1.0 - p, p] for p in itertools.islice(p1, len(BINARY) ** len(pars))]
        cpts[node] = Cpt(node, pars, np.array(rows))
    return DiscreteBayesNet(dag, variables, cpts)


@dataclass(frozen=True)
class CommonCauseDecomposition:
    """Dissection of p(x|y), p(x|y') between two common-cause endpoints."""

    p_x_given_y: float
    p_x_given_yprime: float
    p_x_given_t: float
    p_x_given_tprime: float
    p_t_given_y: float
    p_t_given_yprime: float


def decompose_common_cause(
    p_x_given_y: float,
    p_x_given_yprime: float,
    endpoint_lo: float | None = None,
    endpoint_hi: float | None = None,
) -> CommonCauseDecomposition:
    """Place a binary common cause behind an X-Y association.

    The endpoints are p(x|t') = ``endpoint_lo`` and p(x|t) =
    ``endpoint_hi``; the weights p(t|y), p(t|y') are fixed by the
    requirement that each conditional dissects the endpoint interval in
    the weight ratio.  When endpoints are omitted they default to
    (min - ENDPOINT_MARGIN, max + ENDPOINT_MARGIN) clamped to [0, 1].  An
    endpoint outside [0, 1], or NaN, raises InfeasibleEndpoints if the pair
    fails to bracket the conditionals and DomainError otherwise.
    """
    for v in (p_x_given_y, p_x_given_yprime):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"conditional probability {v} outside [0,1]")
    lo_in, hi_in = min(p_x_given_y, p_x_given_yprime), max(p_x_given_y, p_x_given_yprime)
    if endpoint_lo is None:
        endpoint_lo = max(0.0, lo_in - ENDPOINT_MARGIN)
    if endpoint_hi is None:
        endpoint_hi = min(1.0, hi_in + ENDPOINT_MARGIN)
    if endpoint_lo == endpoint_hi:
        raise DegenerateEndpoints(
            f"endpoints coincide at {endpoint_lo}; weights undefined"
        )
    if endpoint_lo > endpoint_hi:
        raise InfeasibleEndpoints(f"lo {endpoint_lo} > hi {endpoint_hi}")
    if endpoint_lo > lo_in or endpoint_hi < hi_in:
        raise InfeasibleEndpoints(
            f"endpoints [{endpoint_lo}, {endpoint_hi}] do not bracket "
            f"({p_x_given_y}, {p_x_given_yprime})"
        )
    # NaN fails every comparison above, so it is caught here
    for v in (endpoint_lo, endpoint_hi):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"endpoint {v} outside [0,1]")
    span = endpoint_hi - endpoint_lo
    return CommonCauseDecomposition(
        p_x_given_y=p_x_given_y,
        p_x_given_yprime=p_x_given_yprime,
        p_x_given_t=endpoint_hi,
        p_x_given_tprime=endpoint_lo,
        p_t_given_y=(p_x_given_y - endpoint_lo) / span,
        p_t_given_yprime=(p_x_given_yprime - endpoint_lo) / span,
    )


def _check_correlation(*rs: float) -> None:
    for r in rs:
        if not -1.0 <= r <= 1.0:
            raise DomainError(f"correlation {r} outside [-1,1]")


def third_correlation_interval(r_ac: float, r_bc: float) -> tuple[float, float]:
    """Feasible closed interval for the third pairwise correlation."""
    _check_correlation(r_ac, r_bc)
    center = r_ac * r_bc
    half = math.sqrt(max(0.0, (1.0 - r_ac**2) * (1.0 - r_bc**2)))
    return (max(-1.0, center - half), min(1.0, center + half))


def correlation_feasible(r_ab: float, r_ac: float, r_bc: float) -> bool:
    """True iff the three correlations admit a joint distribution
    (3x3 correlation matrix positive semidefinite, up to 1e-12 slack)."""
    _check_correlation(r_ab, r_ac, r_bc)
    return r_ac**2 + r_bc**2 + r_ab**2 <= 1.0 + 2.0 * r_ab * r_ac * r_bc + 1e-12


def classify_interaction(net: DiscreteBayesNet, u: str, w: str, x: str) -> str:
    """How the two causes of a collider interact once it is observed.

    Returns 'explaining_away' when observing u=1 at x=1 lowers the
    posterior of w=1, 'monotonic' when it raises it, 'none' for no
    change.  "0" and "1" stand for each variable's first and second state
    label.
    """
    pars = net.dag.parents[x]
    if u not in pars or w not in pars:
        raise StructureError(f"{u!r} and {w!r} must both be parents of {x!r}")
    for name in (u, w, x):
        if net.card(name) != 2:
            raise StructureError(f"{name!r} must be binary")
    # post[x, u, w] = p(w | x, u); the states are indices 0 and 1
    post, weight = joint(net).conditional([w], [x, u])
    if weight[1, 0] <= 0 or weight[1, 1] <= 0:
        x1 = net.variables[x].states[1]
        raise ZeroProbabilityEvidence(f"a state of {u!r} has probability 0 given {x}={x1}")
    delta = post[1, 1, 1] - post[1, 0, 1]
    if delta < -TIE_TOL:
        return "explaining_away"
    if delta > TIE_TOL:
        return "monotonic"
    return "none"


def dependence_strength(f: Factor, a: str, b: str) -> float:
    """max over states b of max-norm(p(a|b) - p(a)); 0 iff independent."""
    cond, weight = f.conditional([a], [b])
    if np.any(weight <= 0):
        raise ZeroProbabilityEvidence(f"a state of {b!r} has probability 0")
    return float(np.max(np.abs(cond - f.marginal({a}).values)))


@dataclass(frozen=True)
class ScanResult:
    """Exact condition-vs-ignore evidence for one grid cell."""

    grid_point: dict[str, float]
    dep_zx: float = float("nan")
    dep_xy: float = float("nan")
    interaction_class: str = "none"
    err_adjusted: dict[str, float] = field(default_factory=dict)  # level -> |error|
    err_unadjusted: dict[str, float] = field(default_factory=dict)
    err_adjusted_ace: float = float("nan")
    err_unadjusted_ace: float = float("nan")
    winner: str = "tie"  # "failed" when the cell raised; ``error`` says why
    error: str | None = None


def _scan_cell(
    template: str,
    params: dict[str, float],
    grid_point: dict[str, float],
    treatment: str,
    outcome: str,
    covariate: str,
) -> ScanResult:
    try:
        net = build_scenario(ScenarioParams(template, params))
        rep = effect_report(net, treatment, outcome, (covariate,))
        f = joint(net)
        dep_zx = dependence_strength(f, covariate, treatment)
        dep_xy = dependence_strength(f, covariate, outcome)
        tpl = TEMPLATES[template]
        x_pars = tpl.parents[covariate]
        if len(x_pars) == 2:
            interaction = classify_interaction(net, x_pars[0], x_pars[1], covariate)
        else:
            interaction = "none"
        levels, truth, adj, unadj = rep.levels, rep.truth, rep.adjusted, rep.unadjusted
        err_adj = {lv: abs(e - t) for lv, e, t in zip(levels, adj, truth)}
        err_unadj = {lv: abs(e - t) for lv, e, t in zip(levels, unadj, truth)}
        err_adj_ace = abs((adj[-1] - adj[0]) - (truth[-1] - truth[0]))
        err_unadj_ace = abs((unadj[-1] - unadj[0]) - (truth[-1] - truth[0]))
        if abs(err_adj_ace - err_unadj_ace) <= TIE_TOL:
            winner = "tie"
        elif err_adj_ace < err_unadj_ace:
            winner = "condition"
        else:
            winner = "ignore"
        return ScanResult(
            grid_point=grid_point,
            dep_zx=dep_zx,
            dep_xy=dep_xy,
            interaction_class=interaction,
            err_adjusted=err_adj,
            err_unadjusted=err_unadj,
            err_adjusted_ace=err_adj_ace,
            err_unadjusted_ace=err_unadj_ace,
            winner=winner,
        )
    except CausalbnError as exc:  # a modelled failure of this cell; scan continues
        return ScanResult(grid_point=grid_point, winner="failed", error=str(exc))


def _check_grid_cells(axis_lengths: Iterable[int]) -> None:
    """Raise ValidationError if a grid with these axis lengths has more
    than ``MAX_SCAN_CELLS`` cells."""
    cells = math.prod(axis_lengths)
    if cells > MAX_SCAN_CELLS:
        raise ValidationError(f"grid of {cells} cells exceeds {MAX_SCAN_CELLS}")


def bias_scan(
    template: str,
    grid_spec: Mapping[str, Sequence[float]],
    treatment: str = "Z",
    outcome: str = "Y",
    covariate: str = "X",
    base_params: Mapping[str, float] | None = None,
) -> list[ScanResult]:
    """Exact bias comparison on every cell of a parameter grid.

    Grid axes iterate row-major with parameter names sorted.  Treatment,
    outcome and covariate must be three distinct nodes of the template,
    every grid axis must be non-empty with values in [0, 1], and the grid
    may have at most ``MAX_SCAN_CELLS`` cells.
    """
    if template not in TEMPLATES:
        raise ValidationError(f"unknown template {template!r}")
    nodes = TEMPLATES[template].nodes
    if len({treatment, outcome, covariate} & set(nodes)) != 3:
        raise ValidationError(
            f"treatment {treatment!r}, outcome {outcome!r} and covariate {covariate!r} "
            f"are not three distinct nodes of {template} {nodes}"
        )
    schema = set(TEMPLATES[template].param_keys())
    for name, values in grid_spec.items():
        if name not in schema:
            raise ValidationError(f"grid parameter {name!r} not in template schema")
        if len(values) == 0 or not all(0.0 <= float(v) <= 1.0 for v in values):
            raise ValidationError(f"grid parameter {name!r} needs values, all in [0, 1]")
    _check_grid_cells(len(values) for values in grid_spec.values())
    base = dict(DEFAULT_PARAMS[template])
    if base_params:
        base.update(base_params)
    axes = sorted(grid_spec)
    results = []
    for values in itertools.product(*[grid_spec[a] for a in axes]):
        point = dict(zip(axes, [float(v) for v in values]))
        params = dict(base)
        params.update(point)
        results.append(_scan_cell(template, params, point, treatment, outcome, covariate))
    return results


def _fmt(x: float) -> str:
    """12 significant digits, the one number format of CSV and CLI output."""
    return f"{x:.12g}"


def scan_to_csv(results: Sequence[ScanResult]) -> str:
    """Render scan rows as the documented CSV (LF, UTF-8, 12 sig digits)."""
    if not results:
        return ""
    axes = sorted(results[0].grid_point)
    header = axes + [
        "dep_zx", "dep_xy", "interaction_class",
        "err_adj_z0", "err_adj_z1", "err_unadj_z0", "err_unadj_z1",
        "err_adj_ace", "err_unadj_ace", "winner",
    ]
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for r in results:
        row = [_fmt(r.grid_point[a]) for a in axes]
        row += [_fmt(r.dep_zx), _fmt(r.dep_xy), r.interaction_class]
        for errs in (r.err_adjusted, r.err_unadjusted):
            row.append(_fmt(errs.get("0", float("nan"))))
            row.append(_fmt(errs.get("1", float("nan"))))
        row += [_fmt(r.err_adjusted_ace), _fmt(r.err_unadjusted_ace), r.winner]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def scan_summary(results: Sequence[ScanResult]) -> str:
    """Condition-vs-ignore win rates stratified by interaction class and
    dependence strength (split at the median of dep_zx + dep_xy)."""
    ok = [r for r in results if r.winner != "failed"]
    lines = [f"cells: {len(results)} ({len(results) - len(ok)} failed)"]
    if not ok:
        return "\n".join(lines)
    strengths = sorted(r.dep_zx + r.dep_xy for r in ok)
    median = strengths[len(strengths) // 2]
    for klass in sorted({r.interaction_class for r in ok}):
        for band, pred in (
            ("weak", lambda r: r.dep_zx + r.dep_xy <= median),
            ("strong", lambda r: r.dep_zx + r.dep_xy > median),
        ):
            cells = [r for r in ok if r.interaction_class == klass and pred(r)]
            if not cells:
                continue
            wins = sum(1 for r in cells if r.winner == "condition")
            lines.append(
                f"class={klass} dependence={band}: "
                f"condition wins {wins}/{len(cells)} ({wins / len(cells):.1%})"
            )
    total_wins = sum(1 for r in ok if r.winner == "condition")
    lines.append(f"overall: condition wins {total_wins}/{len(ok)} ({total_wins / len(ok):.1%})")
    return "\n".join(lines)
