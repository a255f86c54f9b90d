"""Independent reference implementations used only for cross-checking.

Everything here is deliberately naive (nested loops, path enumeration,
recursive DFS) and shares no code with the library's fast paths, except
``select_distributional`` and the Factor-chain references at the end,
which keep earlier forms of library algorithms on the library's own
kernel.
"""

import itertools
import math

import numpy as np

from causalbn.bayesnet import Cpt, DiscreteBayesNet, Factor, Variable, joint
from causalbn.errors import PositivityViolation, ZeroProbabilityEvidence
from causalbn.graph import Dag
from causalbn.intervention import EffectReport, _distinct, _levels, _outcome_values


def has_cycle_dfs(nodes, parents):
    """Recursive three-color DFS cycle check over the parent relation."""
    children = {n: [] for n in nodes}
    for c in nodes:
        for p in parents[c]:
            children[p].append(c)
    color = {n: 0 for n in nodes}  # 0 white, 1 grey, 2 black

    def visit(n):
        color[n] = 1
        for c in children[n]:
            if color[c] == 1:
                return True
            if color[c] == 0 and visit(c):
                return True
        color[n] = 2
        return False

    return any(color[n] == 0 and visit(n) for n in nodes)


def brute_joint(net: DiscreteBayesNet) -> dict:
    """Full joint as a dict config -> probability, by nested products."""
    nodes = net.dag.nodes
    out = {}
    for cfg in itertools.product(*[net.variables[n].states for n in nodes]):
        assign = dict(zip(nodes, cfg))
        p = 1.0
        for n in nodes:
            cpt = net.cpts[n]
            row = 0
            for par in cpt.parents:
                row = row * net.card(par) + net.variables[par].states.index(assign[par])
            p *= cpt.table[row][net.variables[n].states.index(assign[n])]
        out[cfg] = p
    return out


def brute_query(net, targets, evidence):
    """p(targets | evidence) from the brute joint; dict config -> prob."""
    nodes = net.dag.nodes
    jd = brute_joint(net)
    targets = list(targets)
    num = {}
    den = 0.0
    for cfg, p in jd.items():
        assign = dict(zip(nodes, cfg))
        if any(assign[k] != v for k, v in evidence.items()):
            continue
        den += p
        key = tuple(assign[t] for t in targets)
        num[key] = num.get(key, 0.0) + p
    if den <= 0:
        raise ZeroDivisionError("zero-probability evidence")
    return {k: v / den for k, v in num.items()}


def brute_truncated_joint(net, do):
    """Joint of the mutilated model as a dict config -> probability: 0 off
    the intervened states, else the product of the other nodes' CPTs."""
    nodes = net.dag.nodes
    out = {}
    for cfg in itertools.product(*[net.variables[n].states for n in nodes]):
        assign = dict(zip(nodes, cfg))
        if any(assign[k] != v for k, v in do.items()):
            out[cfg] = 0.0
            continue
        p = 1.0
        for n in nodes:
            if n in do:
                continue
            cpt = net.cpts[n]
            row = 0
            for par in cpt.parents:
                row = row * net.card(par) + net.variables[par].states.index(assign[par])
            p *= cpt.table[row][net.variables[n].states.index(assign[n])]
        out[cfg] = p
    return out


def brute_do(net, target, do):
    """p(target | do(...)) by enumerating the truncated factorization."""
    col = net.dag.nodes.index(target)
    out = {s: 0.0 for s in net.variables[target].states}
    for cfg, p in brute_truncated_joint(net, do).items():
        out[cfg[col]] += p
    total = sum(out.values())
    return {k: v / total for k, v in out.items()}


def _all_undirected_paths(dag: Dag, start, end):
    """All simple paths treating edges as undirected, with directions kept."""
    nbrs = {n: [] for n in dag.nodes}
    for c in dag.nodes:
        for p in dag.parents[c]:
            nbrs[p].append((c, "out"))   # p -> c
            nbrs[c].append((p, "in"))    # edge into c from p
    paths = []

    def walk(node, visited, path):
        if node == end:
            paths.append(list(path))
            return
        for nxt, direction in nbrs[node]:
            if nxt in visited:
                continue
            path.append((node, nxt, direction))
            walk(nxt, visited | {nxt}, path)
            path.pop()

    walk(start, {start}, [])
    return paths


def d_separated_paths(dag: Dag, a, b, s):
    """Path-enumeration d-separation oracle (graphs of ~8 nodes max)."""
    s = set(s)
    desc_or_self = {}
    children = {n: [] for n in dag.nodes}
    for c in dag.nodes:
        for p in dag.parents[c]:
            children[p].append(c)

    def desc(n):
        if n not in desc_or_self:
            acc = {n}
            for c in children[n]:
                acc |= desc(c)
            desc_or_self[n] = acc
        return desc_or_self[n]

    for x in a:
        for y in b:
            for path in _all_undirected_paths(dag, x, y):
                blocked = False
                for i in range(1, len(path)):
                    mid = path[i - 1][1]
                    into_prev = path[i - 1][2] == "out"  # edge points into mid
                    into_next = path[i][2] == "in"       # next edge points into mid
                    is_collider = into_prev and into_next
                    if is_collider:
                        if not (desc(mid) & s):
                            blocked = True
                            break
                    elif mid in s:
                        blocked = True
                        break
                if not blocked:
                    return False
    return True


def random_cpts(dag: Dag, rng, cards=None):
    """Random strictly-positive CPTs for a dag (binary by default)."""
    cards = cards or {n: 2 for n in dag.nodes}
    variables = {
        n: Variable(n, tuple(str(i) for i in range(cards[n]))) for n in dag.nodes
    }
    cpts = {}
    for n in dag.nodes:
        n_rows = 1
        for p in dag.parents[n]:
            n_rows *= cards[p]
        raw = rng.uniform(0.05, 1.0, size=(n_rows, cards[n]))
        cpts[n] = Cpt(n, dag.parents[n], raw / raw.sum(axis=1, keepdims=True))
    return DiscreteBayesNet(dag, variables, cpts)


def random_net(rng, n_nodes, max_card=3, zero_frac=0.0):
    """Random network over N0..N{n-1}: each node draws up to three parents
    among the lower-numbered ones and 2..``max_card`` states, and the nodes
    are declared in a shuffled order.  With ``zero_frac``, that share of
    CPT rows gets one entry set to 0 (so some evidence has probability 0).
    """
    order = [f"N{i}" for i in range(n_nodes)]
    parents = {}
    for i, n in enumerate(order):
        picks = rng.choice(i, size=int(rng.integers(0, min(i, 3) + 1)), replace=False)
        parents[n] = tuple(order[j] for j in sorted(picks))
    names = tuple(order[i] for i in rng.permutation(n_nodes))
    cards = {n: int(rng.integers(2, max_card + 1)) for n in names}
    net = random_cpts(Dag(names, parents), rng, cards)
    cpts = {}
    for n, cpt in net.cpts.items():
        table = cpt.table.copy()
        for row in table:
            if rng.random() < zero_frac:
                row[rng.integers(len(row))] = 0.0
        cpts[n] = Cpt(n, cpt.parents, table / table.sum(axis=1, keepdims=True))
    return DiscreteBayesNet(net.dag, net.variables, cpts)


def chain(n_nodes):
    """Binary chain N0 -> N1 -> ... with distinct CPT rows."""
    names = tuple(f"N{i}" for i in range(n_nodes))
    dag = Dag.from_edges(names, list(zip(names, names[1:])))
    cpts = {"N0": Cpt("N0", (), [[0.3, 0.7]])}
    for i, (p, c) in enumerate(zip(names, names[1:])):
        q = 0.1 + 0.8 * ((i * 7) % 10) / 10
        cpts[c] = Cpt(c, (p,), [[1 - q, q], [q / 2, 1 - q / 2]])
    return DiscreteBayesNet(dag, {v: Variable(v, ("0", "1")) for v in names}, cpts)


def unscannable_net(change):
    """A scan-shaped network with one defect: other states at a node, or
    two roots ``X`` and ``x`` whose scan axes are both named ``x``."""
    states = {n: ("0", "1") for n in ("U", "X", "Z", "Y")}
    parents = {"U": (), "X": ("U",), "Z": ("U",), "Y": ("Z", "X")}
    if change == "X and x":
        parents = {"x": (), **parents, "X": ()}
        states["x"] = ("0", "1")
    else:
        states.update(change)
    cpts = {}
    for node, pars in parents.items():
        rows = math.prod(len(states[p]) for p in pars)
        k = len(states[node])
        cpts[node] = Cpt(node, pars, [[1 / k] * k] * rows)
    variables = {n: Variable(n, s) for n, s in states.items()}
    return DiscreteBayesNet(Dag(tuple(parents), parents), variables, cpts)


def with_rows(net, point):
    """``net`` with each CPT row named in ``point`` set to [1 - p, p].

    A root's row is named by its lower-case node, any other row by the
    node and its parent states ('x|u=0,w=1'), spelled here from the
    documented rule rather than by the library.
    """
    tables = {n: net.cpts[n].table.copy() for n in net.dag.nodes}
    for node in net.dag.nodes:
        pars = net.dag.parents[node]
        for row, cfg in enumerate(itertools.product("01", repeat=len(pars))):
            cond = ",".join(f"{p.lower()}={v}" for p, v in zip(pars, cfg))
            name = f"{node.lower()}|{cond}" if pars else node.lower()
            if name in point:
                tables[node][row] = [1 - point[name], point[name]]
    cpts = {n: Cpt(n, net.dag.parents[n], t) for n, t in tables.items()}
    return DiscreteBayesNet(net.dag, net.variables, cpts)


def scan_row(net, treatment, outcome, covariate):
    """Expected values of one binary scan row, by enumeration.

    ``interaction_delta`` is p(w=1 | x=1, u=1) - p(w=1 | x=1, u=0) for the
    covariate's two parents (u, w), or None when it has other than two.
    """
    t, y, x = treatment, outcome, covariate
    truth = {z: brute_do(net, y, {t: z})["1"] for z in "01"}
    pxy = brute_query(net, [x, y], {})
    px = {a: pxy[(a, "0")] + pxy[(a, "1")] for a in "01"}
    py = {b: pxy[("0", b)] + pxy[("1", b)] for b in "01"}
    ref, adj, unadj, px_z = {}, {}, {}, {}
    for z in "01":
        pyx = brute_query(net, [y, x], {t: z})
        px_z[z] = {a: pyx[("0", a)] + pyx[("1", a)] for a in "01"}
        unadj[z] = pyx[("1", "0")] + pyx[("1", "1")]
        adj[z] = sum(pyx[("1", a)] / px_z[z][a] * px[a] for a in "01")
        ref[f"err_adj_z{z}"] = abs(adj[z] - truth[z])
        ref[f"err_unadj_z{z}"] = abs(unadj[z] - truth[z])
    ace = truth["1"] - truth["0"]
    ref["err_adj_ace"] = abs(adj["1"] - adj["0"] - ace)
    ref["err_unadj_ace"] = abs(unadj["1"] - unadj["0"] - ace)
    ref["dep_zx"] = max(abs(px_z[z][a] - px[a]) for z in "01" for a in "01")
    ref["dep_xy"] = max(abs(pxy[(a, b)] / py[b] - px[a]) for b in "01" for a in "01")
    ref["interaction_delta"] = None
    if len(net.dag.parents[x]) == 2:
        u, w = net.dag.parents[x]
        pwu = brute_query(net, [w, u], {x: "1"})
        post = {a: pwu[("1", a)] / (pwu[("0", a)] + pwu[("1", a)]) for a in "01"}
        ref["interaction_delta"] = post["1"] - post["0"]
    return ref


def _conditional_equal(f, target, given_common, full_set, sub_set, tolerance):
    """P(target | common, full) == P(target | common, sub) on the
    positive-probability configurations of the larger set, both
    conditionals computed afresh for this one test."""
    cond_full = (*given_common, *full_set)
    cond_sub = (*given_common, *sub_set)
    p_full, weight = f.conditional([target], cond_full)
    p_sub, _ = f.conditional([target], cond_sub)
    shape = [n if v in cond_sub else 1 for v, n in zip(cond_full, weight.shape)]
    gap = np.abs(p_full - p_sub.reshape(shape + [p_full.shape[-1]]))
    return float(np.max(gap[weight > 0], initial=0.0)) <= tolerance


def select_distributional(net, treatment, outcome, tolerance):
    """Distributional two-stage selection as a per-subset loop.

    Each equality test recomputes the full-set conditional as well as the
    subset's.  The tables come from the library's ``joint`` and
    ``Factor.conditional``, so every verdict comes from the same float
    operations as the library's.  Returns ``(chosen, pool, stage1,
    audit)``, the audit a list of ``(stage, subset, verdict)``.
    """
    nodes = net.dag.nodes
    below = {treatment}
    while True:  # the treatment's descendants, by repeated parent scans
        more = {n for n in nodes if below & set(net.dag.parents[n])} - below
        if not more:
            break
        below |= more
    pool = tuple(n for n in nodes if n not in below | {outcome})
    f = joint(net, keep={treatment, outcome, *pool}) if pool else None
    audit = []

    def smallest_equal(stage, target, common, full_set):
        subsets = [
            sub for r in range(len(full_set) + 1)
            for sub in itertools.combinations(full_set, r)
        ]
        subsets.sort(key=lambda sub: (sum(net.card(v) for v in sub), sorted(sub)))
        for sub in subsets:
            verdict = sub == full_set or _conditional_equal(
                f, target, common, full_set, sub, tolerance
            )
            audit.append((stage, sub, verdict))
            if verdict:
                return sub

    stage1 = smallest_equal(1, outcome, (treatment,), pool)
    chosen = smallest_equal(2, treatment, (), stage1)
    return chosen, pool, stage1, audit


# ------------------------------------------------------------------------
# Factor-chain references: the estimators as they were written when every
# slice and marginal was a validated ``Factor``.  They call only the
# library's kernel, its ``Factor`` methods and its argument checks, so the
# array forms in ``causalbn.intervention`` and ``causalbn.latent`` must give
# the same floats and raise the same errors.


def factor_conditional(f, target, given):
    """``Factor.conditional`` with its marginal taken as a ``Factor``."""
    given, target = tuple(given), tuple(target)
    marg = f.marginal(given + target)
    p = marg.values.transpose([marg.scope.index(v) for v in given + target])
    weight = p.sum(axis=tuple(range(len(given), p.ndim)))
    with np.errstate(divide="ignore", invalid="ignore"):
        table = p / weight[(...,) + (None,) * len(target)]
    return np.where(np.isfinite(table), table, 0.0), weight


def interventional_distribution(net, target, do):
    if target in do:
        raise ValueError("target cannot be intervened on")
    f = joint(net, do, keep={target})
    return Factor(f.scope, f.states, f.values / f.values.sum())


def adjusted_estimate(net, treatment, outcome, s):
    _distinct(treatment=treatment, outcome=outcome)
    s = set(s)
    if treatment in s or outcome in s:
        raise ValueError("adjustment set must exclude treatment and outcome")
    f = joint(net, keep={treatment, outcome, *s})
    s = [v for v in f.scope if v in s]
    out_states = net.variables[outcome].states
    cond, p_zs = factor_conditional(f, [outcome], [treatment, *s])
    p_s = p_zs.sum(axis=0)
    bad = (p_s > 0) & np.any(p_zs <= 0, axis=0)
    if np.any(bad):
        cell = np.argwhere(bad)[0]
        cfg = {v: net.variables[v].states[i] for v, i in zip(s, cell)}
        lvl_idx = int(np.argmin(p_zs[(slice(None), *cell)]))
        level = net.variables[treatment].states[lvl_idx]
        raise PositivityViolation(f"p({treatment}={level}, {cfg}) = 0 while p({cfg}) > 0")
    sum_axes = tuple(range(1, 1 + len(s)))
    weighted = cond * p_s[None, ..., None] if s else cond
    dist = weighted.sum(axis=sum_axes) if s else weighted
    result = {}
    for i, level in enumerate(net.variables[treatment].states):
        acc = dist[i]
        result[level] = Factor((outcome,), (out_states,), acc / acc.sum())
    return result


def unadjusted_estimate(net, treatment, outcome):
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


def conditioning_bias(net, treatment, outcome, x, level1=None, level0=None):
    _distinct(treatment=treatment, outcome=outcome, covariate=x)
    level1, level0 = _levels(net, treatment, level1, level0)
    y_vals = _outcome_values(net, outcome)
    full = joint(net)
    p_x = full.marginal({x})
    p_zx = full.marginal({treatment, x})

    def level_term(level):
        p_x_given_z = full.condition({treatment: level}).marginal({x})
        term = 0.0
        for i, xs in enumerate(net.variables[x].states):
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


def effect_report(net, treatment, outcome, covariates):
    levels = net.states(treatment)
    vals = _outcome_values(net, outcome)

    def expected(dist):
        return float(np.dot(vals, dist.values))

    truth = tuple(
        expected(interventional_distribution(net, outcome, {treatment: lv})) for lv in levels
    )
    unadj = unadjusted_estimate(net, treatment, outcome)
    adj = adjusted_estimate(net, treatment, outcome, covariates)
    return EffectReport(
        levels,
        truth,
        tuple(expected(adj[lv]) for lv in levels),
        tuple(expected(unadj[lv]) for lv in levels),
    )


def dependence_strength(f, a, b):
    cond, weight = factor_conditional(f, [a], [b])
    if np.any(weight <= 0):
        raise ZeroProbabilityEvidence(f"a state of {b!r} has probability 0")
    return float(np.max(np.abs(cond - f.marginal({a}).values)))
