"""Associative-confounder machinery.

Named CPT rows of a network as scan axes, the common-cause dissection of
a conditional probability, the three-correlation feasibility bound,
explaining-away classification, and exact bias scans over parameter
grids of a binary network.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .bayesnet import (
    DiscreteBayesNet,
    Factor,
    _conditional,
    _csv_fields,
    _derive,
    _execute,
    _marginal,
    _names,
    _normalise,
    _Request,
    _resolve,
    joint,
)
from .errors import (
    CausalbnError,
    DegenerateEndpoints,
    DomainError,
    InfeasibleEndpoints,
    StructureError,
    ValidationError,
    ZeroProbabilityEvidence,
)
from .intervention import (
    _adjusted_rows,
    _distinct,
    _expected,
    _outcome_values,
    _unadjusted_rows,
)
from .modelfile import load_model

BINARY = ("0", "1")

#: winner ties are declared below this ACE-error gap
TIE_TOL = 1e-12
#: default endpoints of ``decompose_common_cause`` lie this far outside
#: the two conditionals
ENDPOINT_MARGIN = 0.05
#: most cells a scan grid may have; the CLI also stops a grid range whose
#: value index would pass it
MAX_SCAN_CELLS = 10**6


def scan_parameters(net: DiscreteBayesNet) -> dict[str, tuple[str, int]]:
    """Scan axis name -> (node, CPT row), one per row in declaration order.

    A root's row is named by the lower-case node, 'x'; any other row by
    the node and its parent states, 'x|u=0,w=1', rows in CPT order.  Two
    rows with one name (nodes 'X' and 'x', say) raise ValidationError.
    """
    axes: dict[str, tuple[str, int]] = {}
    for node in net.dag.nodes:
        pars = net.dag.parents[node]
        configs = itertools.product(*(net.variables[p].states for p in pars))
        for row, cfg in enumerate(configs):
            cond = ",".join(f"{p.lower()}={s}" for p, s in zip(pars, cfg))
            name = f"{node.lower()}|{cond}" if pars else node.lower()
            if name in axes:
                raise ValidationError(f"scan axis {name!r} names two CPT rows")
            axes[name] = (node, row)
    return axes


def with_parameters(net: DiscreteBayesNet, values: Mapping[str, float]) -> DiscreteBayesNet:
    """A new network, derived from ``net``, in which each named row is [1 - p, p].

    ``values`` maps ``scan_parameters`` names to p, the probability of the
    node's second state.  An unknown name, a node that is not binary or a
    p outside [0, 1] raises ValidationError.  Only the changed CPTs are
    checked; the new network shares everything else with ``net``,
    including a memo of contraction plans (see ``bayesnet._derive``).
    """
    return _with_parameters(net, scan_parameters(net), values)


def _with_parameters(
    net: DiscreteBayesNet, axes: Mapping[str, tuple[str, int]], values: Mapping[str, float]
) -> DiscreteBayesNet:
    """``with_parameters`` given ``axes``, the ``scan_parameters`` of ``net``."""
    tables: dict[str, np.ndarray] = {}
    for name, value in values.items():
        if name not in axes:
            raise ValidationError(f"unknown scan parameter {name!r}")
        p = _number(value)
        if p is None:
            raise ValidationError(f"parameter {name!r} needs a number, not {value!r}")
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"parameter {name}={value} outside [0,1]")
        node, row = axes[name]
        if net.card(node) != 2:
            raise ValidationError(f"parameter {name!r} needs a binary node, not {node!r}")
        # one copy per changed node, whatever the number of its rows set
        if node not in tables:
            tables[node] = net.cpts[node].table.copy()
        tables[node][row] = (1.0 - p, p)
    return _derive(net, tables)


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
    if u == w or u not in pars or w not in pars:
        raise StructureError(f"{u!r} and {w!r} must be two distinct parents of {x!r}")
    for name in (u, w, x):
        if net.card(name) != 2:
            raise StructureError(f"{name!r} must be binary")
    f = joint(net)
    return _interaction(f.scope, f.states, f.values, u, w, x)


def _interaction(
    scope: tuple[str, ...],
    states: tuple[tuple[str, ...], ...],
    values: np.ndarray,
    u: str,
    w: str,
    x: str,
) -> str:
    """``classify_interaction``'s class from the table (scope, values) with
    ``states``, over u, w and x, each binary."""
    # post[x, u, w] = p(w | x, u); the states are indices 0 and 1
    post, weight = _conditional(scope, values, [w], [x, u])
    if weight[1, 0] <= 0 or weight[1, 1] <= 0:
        x1 = states[scope.index(x)][1]
        raise ZeroProbabilityEvidence(f"a state of {u!r} has probability 0 given {x}={x1}")
    delta = post[1, 1, 1] - post[1, 0, 1]
    if delta < -TIE_TOL:
        return "explaining_away"
    if delta > TIE_TOL:
        return "monotonic"
    return "none"


def dependence_strength(f: Factor, a: str, b: str) -> float:
    """max over states b of max-norm(p(a|b) - p(a)); 0 iff independent.

    ``a`` and ``b`` must be distinct (ValidationError).
    """
    _distinct(a=a, b=b)
    return _dependence(f.scope, f.values, a, b)


def _dependence(scope: tuple[str, ...], values: np.ndarray, a: str, b: str) -> float:
    """``dependence_strength`` of the table (scope, values)."""
    cond, weight = _conditional(scope, values, [a], [b])
    if np.any(weight <= 0):
        raise ZeroProbabilityEvidence(f"a state of {b!r} has probability 0")
    return float(np.max(np.abs(cond - _marginal(scope, values, {a})[1])))


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


class _ScanRequests(NamedTuple):
    """What a scan resolves once, on its base (``bayesnet._resolve``): the
    requests its cells execute, each slicing every CPT cube from the cell's
    network, and the outcome's values.  ``truth`` has the outcome's table
    under do(treatment = level) for each level, and ``adjusted`` the table
    over the treatment, the outcome and the covariate."""

    truth: tuple[_Request, ...]
    adjusted: _Request
    outcome_values: np.ndarray


def _scan_cell(
    base: DiscreteBayesNet,
    axes: Mapping[str, tuple[str, int]],
    requests: _ScanRequests,
    grid_point: dict[str, float],
    treatment: str,
    outcome: str,
    covariate: str,
) -> ScanResult:
    """One cell: ``effect_report``, ``dependence_strength`` and
    ``classify_interaction`` of the cell's network, in that order, from the
    scan's resolved requests and the network's one full joint."""
    try:
        net = _with_parameters(base, axes, grid_point)
        vals = requests.outcome_values
        truth = tuple(_expected(vals, _normalise(_execute(net, r), ())) for r in requests.truth)
        f = joint(net)
        unadj_rows = _unadjusted_rows(f.scope, f.states, f.values, treatment, outcome, BINARY)
        table = requests.adjusted
        adj_rows = _adjusted_rows(
            net, table.out, _execute(net, table), treatment, outcome, (covariate,)
        )
        dep_zx = _dependence(f.scope, f.values, covariate, treatment)
        dep_xy = _dependence(f.scope, f.values, covariate, outcome)
        x_pars = net.dag.parents[covariate]
        interaction = (
            _interaction(f.scope, f.states, f.values, *x_pars, covariate)
            if len(x_pars) == 2
            else "none"
        )
        adj = tuple(_expected(vals, row) for row in adj_rows)
        unadj = tuple(_expected(vals, row) for row in unadj_rows)
        err_adj = {lv: abs(e - t) for lv, e, t in zip(BINARY, adj, truth)}
        err_unadj = {lv: abs(e - t) for lv, e, t in zip(BINARY, unadj, truth)}
        err_adj_ace = abs((adj[-1] - adj[0]) - (truth[-1] - truth[0]))
        err_unadj_ace = abs((unadj[-1] - unadj[0]) - (truth[-1] - truth[0]))
        gap = err_adj_ace - err_unadj_ace
        winner = "tie" if abs(gap) <= TIE_TOL else "condition" if gap < 0 else "ignore"
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
    """Refuse a grid of more than ``MAX_SCAN_CELLS`` cells (ValidationError)."""
    cells = math.prod(axis_lengths)
    if cells > MAX_SCAN_CELLS:
        raise ValidationError(f"grid of {cells} cells exceeds {MAX_SCAN_CELLS}")


def bias_scan(
    net: DiscreteBayesNet,
    grid_spec: Mapping[str, Sequence[float]],
    treatment: str = "Z",
    outcome: str = "Y",
    covariate: str = "X",
    base_params: Mapping[str, float] | None = None,
) -> list[ScanResult]:
    """Exact bias comparison on every cell of a grid of ``scan_parameters``.

    Each cell is ``with_parameters`` at its grid point of ``net`` with
    ``base_params`` set; axes iterate row-major, sorted.  The contractions
    every cell needs are resolved once, on that base (``_ScanRequests``),
    and each cell executes them.  Before any cell, ValidationError is
    raised unless every node's states are "0", "1", the three roles are
    distinct nodes, every axis is a scan axis whose values are a non-empty
    sequence of numbers, all in [0, 1], the grid has at most
    ``MAX_SCAN_CELLS`` cells and ``base_params`` is valid.
    """
    nodes = net.dag.nodes
    for node, var in net.variables.items():
        if var.states != BINARY:
            raise ValidationError(f"a scan needs states {BINARY}; {node!r} has {var.states}")
    if len({treatment, outcome, covariate} & set(nodes)) != 3:
        raise ValidationError(
            f"treatment {treatment!r}, outcome {outcome!r} and covariate {covariate!r} "
            f"are not three distinct nodes of {nodes}"
        )
    axes = scan_parameters(net)
    grid = {}
    for name, values in grid_spec.items():
        if name not in axes:
            raise ValidationError(f"grid parameter {name!r} is not a scan axis of the network")
        grid[name] = _grid_values(name, values)
    _check_grid_cells(len(values) for values in grid.values())
    # the cells share the network's axes, so they are named once per scan
    base = _with_parameters(net, axes, base_params or {})
    names = sorted(grid)
    # and the requests every cell executes are resolved once, on the base
    requests = _ScanRequests(
        tuple(_resolve(base, (outcome,), ((treatment, lv),), ()) for lv in BINARY),
        _resolve(base, _names((treatment, outcome, covariate)), (), ()),
        _outcome_values(base, outcome),
    )
    return [
        _scan_cell(base, axes, requests, dict(zip(names, values)), treatment, outcome, covariate)
        for values in itertools.product(*[grid[a] for a in names])
    ]


def _grid_values(name: str, values) -> list[float]:
    """The values of grid axis ``name`` as floats; ValidationError unless
    they are a non-empty sequence, not text, of numbers, all in [0, 1]."""
    try:
        points = [] if isinstance(values, (str, bytes)) else [_number(v) for v in values]
    except TypeError:
        points = []
    if not points or not all(p is not None and 0.0 <= p <= 1.0 for p in points):
        raise ValidationError(f"grid parameter {name!r} needs values, all in [0, 1]")
    return points


def _number(value) -> float | None:
    """``value`` as a float, or None unless it is a number: text and bools
    are not, as ``parse_model`` refuses JSON ``true`` and ``false``."""
    if isinstance(value, (str, bytes, bool, np.bool_)):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _fmt(x: float) -> str:
    """12 significant digits, the one number format of CSV and CLI output."""
    return f"{x:.12g}"


def scan_to_csv(results: Sequence[ScanResult]) -> str:
    """Render scan rows as the documented CSV (LF, UTF-8, 12 sig digits,
    header names as ``_csv_fields``)."""
    if not results:
        return ""
    axes = sorted(results[0].grid_point)
    header = axes + [
        "dep_zx", "dep_xy", "interaction_class",
        "err_adj_z0", "err_adj_z1", "err_unadj_z0", "err_unadj_z1",
        "err_adj_ace", "err_unadj_ace", "winner",
    ]
    buf = io.StringIO()
    buf.write(",".join(_csv_fields(header)) + "\n")
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


# ------------------------------------------------------------------------
# Aliases of the former template API, kept only for the benchmark's scan
# workload; nothing else in the package uses them, and they go when that
# workload moves to model files.  Each former template is a bundled model,
# loaded on first use, and its default parameters are the model's rows.

_TEMPLATE_MODELS = {
    "model1_fig1": "fig1_left", "model2_fig1": "fig1_right", "model1_fig2": "fig2_model1",
    "modelA": "modelA_observed", "modelB": "modelB", "modelC": "modelC", "modelD": "modelD",
}

ScenarioParams = NamedTuple("ScenarioParams", [("template", str), ("parameters", Mapping)])


def build_scenario(sp: ScenarioParams) -> DiscreteBayesNet:
    return with_parameters(load_model(_TEMPLATE_MODELS[sp.template]), sp.parameters)


_scan_network = bias_scan


@functools.wraps(_scan_network)
def bias_scan(net, *args, **kwargs):  # noqa: F811 (also takes a former template name)
    net = load_model(_TEMPLATE_MODELS[net]) if isinstance(net, str) else net
    return _scan_network(net, *args, **kwargs)


@functools.cache
def _template_tables() -> dict[str, dict]:
    templates, defaults = {}, {}
    for name, model in _TEMPLATE_MODELS.items():
        net = load_model(model)
        axes = scan_parameters(net)
        templates[name] = SimpleNamespace(
            nodes=net.dag.nodes, parents=net.dag.parents, param_keys=lambda a=axes: list(a)
        )
        defaults[name] = {k: float(net.cpts[n].table[row, 1]) for k, (n, row) in axes.items()}
    return {"TEMPLATES": templates, "DEFAULT_PARAMS": defaults}


def __getattr__(name: str):
    # TEMPLATES and DEFAULT_PARAMS parse models, so they are built on first use
    if name in ("TEMPLATES", "DEFAULT_PARAMS"):
        return _template_tables()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
