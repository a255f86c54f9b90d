"""The benchmark's three workloads: ``scan``, ``query`` and ``sample``.

A workload is built from a seed during set-up, which is not timed.  It
then yields an endless stream of ``Op``s from ``ops()``; the same seed
gives the same stream.  The runner times each of ``Op.steps`` and calls
``Op.check`` afterwards, outside the timed region.  Checks compare
against the independent oracles in ``tests/oracles.py``.

Library functions are always looked up on their module at call time
(``causalbn.latent.bias_scan(...)``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
import itertools
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import causalbn
import causalbn.cli
import oracles
from causalbn.bayesnet import Cpt, DiscreteBayesNet, Variable

#: outputs must match the oracles this closely
TOL = 1e-10


@dataclass
class Op:
    """One request of the closed loop: steps timed one by one, then checked."""

    steps: list[Callable[[], object]]
    #: takes the steps' results, returns one message per failed operation
    check: Callable[[list], list[str]]
    #: operations attempted, the denominator of fail_frac
    operations: int
    #: units counted by throughput_per_s (cells, requests or rows)
    items: int
    #: failures here are the seed's documented error-contract defects
    known_defect: bool = False


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def load_models_code(models) -> str:
    """Set-up code for a fresh interpreter: import causalbn, load ``models``."""
    return f"import causalbn\nfor m in {list(models)!r}:\n    causalbn.load_model(m)\n"


def _descendants(parents, node: str) -> set[str]:
    children: dict[str, list[str]] = {n: [] for n in parents}
    for child, pars in parents.items():
        for p in pars:
            children[p].append(child)
    seen: set[str] = set()
    stack = list(children[node])
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(children[n])
    return seen


# --------------------------------------------------------------------- scan

SCAN_TEMPLATES = ("modelD", "model1_fig2")
#: values per grid axis; two axes, so 49 cells per template and 98 per op
GRID_POINTS = 7
#: scan CSV columns after the grid axes (axis names may contain commas)
SCAN_COLUMNS = (
    "dep_zx", "dep_xy", "interaction_class", "err_adj_z0", "err_adj_z1",
    "err_unadj_z0", "err_unadj_z1", "err_adj_ace", "err_unadj_ace", "winner",
)


def _template_net(template: str, params) -> DiscreteBayesNet:
    """The scenario network, built from the template without the library."""
    tpl = causalbn.latent.TEMPLATES[template]
    cpts = {}
    for node in tpl.nodes:
        pars = tpl.parents[node]
        rows = []
        for cfg in itertools.product("01", repeat=len(pars)):
            cond = ",".join(f"{p.lower()}={v}" for p, v in zip(pars, cfg))
            p1 = params[f"{node.lower()}|{cond}" if pars else node.lower()]
            rows.append([1.0 - p1, p1])
        cpts[node] = Cpt(node, pars, np.array(rows))
    dag = SimpleNamespace(nodes=tpl.nodes, parents=tpl.parents)
    return DiscreteBayesNet(dag, {n: Variable(n, ("0", "1")) for n in tpl.nodes}, cpts)


def scan_reference(net) -> dict[str, float]:
    """Expected scan-row values (Z treatment, Y outcome, X covariate)."""
    truth = {z: oracles.brute_do(net, "Y", {"Z": z})["1"] for z in "01"}
    pyx = {z: oracles.brute_query(net, ["Y", "X"], {"Z": z}) for z in "01"}
    pxy = oracles.brute_query(net, ["X", "Y"], {})
    pwu = oracles.brute_query(net, ["W", "U"], {"X": "1"})
    px = {x: pxy[(x, "0")] + pxy[(x, "1")] for x in "01"}
    py = {y: pxy[("0", y)] + pxy[("1", y)] for y in "01"}
    ref: dict[str, float] = {}
    adj, unadj, px_z = {}, {}, {}
    for z in "01":
        px_z[z] = {x: pyx[z][("0", x)] + pyx[z][("1", x)] for x in "01"}
        unadj[z] = pyx[z][("1", "0")] + pyx[z][("1", "1")]
        adj[z] = sum(pyx[z][("1", x)] / px_z[z][x] * px[x] for x in "01")
        ref[f"err_adj_z{z}"] = abs(adj[z] - truth[z])
        ref[f"err_unadj_z{z}"] = abs(unadj[z] - truth[z])
    ace = truth["1"] - truth["0"]
    ref["err_adj_ace"] = abs(adj["1"] - adj["0"] - ace)
    ref["err_unadj_ace"] = abs(unadj["1"] - unadj["0"] - ace)
    ref["dep_zx"] = max(abs(px_z[z][x] - px[x]) for z in "01" for x in "01")
    ref["dep_xy"] = max(abs(pxy[(x, y)] / py[y] - px[x]) for y in "01" for x in "01")
    post = {u: pwu[("1", u)] / (pwu[("0", u)] + pwu[("1", u)]) for u in "01"}
    ref["interaction_delta"] = post["1"] - post["0"]
    return ref


def _check_scan_row(row: dict[str, str], ref: dict[str, float]) -> str | None:
    for col in ("dep_zx", "dep_xy", "err_adj_z0", "err_adj_z1", "err_unadj_z0",
                "err_unadj_z1", "err_adj_ace", "err_unadj_ace"):
        if not _close(float(row[col]), ref[col]):
            return f"{col}={row[col]} expected {ref[col]!r}"
    delta = ref["interaction_delta"]
    if abs(delta) > 1e-9:
        klass = "explaining_away" if delta < 0 else "monotonic"
        if row["interaction_class"] != klass:
            return f"interaction_class={row['interaction_class']} expected {klass}"
    gap = ref["err_adj_ace"] - ref["err_unadj_ace"]
    if abs(gap) > 1e-9:
        winner = "condition" if gap < 0 else "ignore"
        if row["winner"] != winner:
            return f"winner={row['winner']} expected {winner}"
    return None


def check_scan_grid(template, base, grid, csv_text: str, summary: str) -> list[str]:
    axes = sorted(grid)
    cells = list(itertools.product(*[grid[a] for a in axes]))
    lines = csv_text.splitlines()
    if len(lines) != len(cells) + 1:
        return [f"{template}: csv has {len(lines)} lines for {len(cells)} cells"] * len(cells)
    if not lines[0].endswith(",".join(SCAN_COLUMNS)):
        return [f"{template}: csv header {lines[0]!r}"] * len(cells)
    failures = []
    wins = 0
    for values, line in zip(cells, lines[1:]):
        fields = line.split(",")
        row = dict(zip(SCAN_COLUMNS, fields[len(axes):]))
        params = dict(base)
        params.update(zip(axes, values))
        if fields[:len(axes)] != [f"{v:.12g}" for v in values]:
            problem = f"row {line!r} is not this grid point"
        else:
            try:
                problem = _check_scan_row(row, scan_reference(_template_net(template, params)))
            except (KeyError, ValueError) as exc:
                problem = f"unreadable row {line!r}: {exc!r}"
        if problem:
            failures.append(f"{template} {dict(zip(axes, values))}: {problem}")
        wins += row.get("winner") == "condition"
    head, _, tail = summary.partition("\n")
    n = len(cells)
    if head != f"cells: {n} (0 failed)" or f"overall: condition wins {wins}/{n} " not in tail:
        failures.append(f"{template}: summary disagrees with the csv: {summary!r}")
    return failures


class Scan:
    """``bias_scan`` -> ``scan_to_csv`` -> ``scan_summary`` on two templates."""

    name = "scan"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        first = self._job(np.random.default_rng(seed))
        builds = "".join(
            f"causalbn.build_scenario(causalbn.ScenarioParams({t!r}, {dict(b)!r}))\n"
            for t, b, _ in first
        )
        self.setup_code = f"import causalbn\n{builds}"

    @staticmethod
    def _job(rng):
        job = []
        for template in SCAN_TEMPLATES:
            keys = causalbn.latent.TEMPLATES[template].param_keys()
            base = {k: float(rng.uniform(0.02, 0.98)) for k in keys}
            grid = {}
            for a in sorted(rng.choice(len(keys), size=2, replace=False)):
                lo, hi = sorted(float(v) for v in rng.uniform(0.02, 0.98, size=2))
                step = (hi - lo) / (GRID_POINTS - 1)
                grid[keys[a]] = [lo + i * step for i in range(GRID_POINTS)]
            job.append((template, base, grid))
        return job

    @staticmethod
    def _scan(template, base, grid):
        latent = causalbn.latent
        results = latent.bias_scan(template, grid, base_params=base)
        return latent.scan_to_csv(results), latent.scan_summary(results)

    @staticmethod
    def _check(job, out) -> list[str]:
        failures = []
        for (template, base, grid), (csv_text, summary) in zip(job, out):
            failures += check_scan_grid(template, base, grid, csv_text, summary)
        return failures

    def _op(self, job) -> Op:
        cells = sum(GRID_POINTS ** len(grid) for _, _, grid in job)
        steps = [lambda args=args: self._scan(*args) for args in job]
        return Op(steps, lambda out: self._check(job, out), cells, cells)

    def ops(self):
        rng = np.random.default_rng(self.seed)
        while True:
            yield self._op(self._job(rng))

    def warmup(self) -> None:
        for template in SCAN_TEMPLATES:
            self._scan(template, dict(causalbn.latent.DEFAULT_PARAMS[template]), {})


# -------------------------------------------------------------------- query

#: (nodes, ternary nodes) of the generated networks: joints of 11664 to
#: 1594323 entries
GENERATED_SHAPES = ((10, 6), (11, 7), (12, 8), (12, 10), (12, 12), (13, 13))
#: well-formed requests on the bundled corpus in each block of 100
BUNDLED_MIX = (
    ("query", 12), ("do", 12), ("ace", 8), ("adjust", 8), ("bias", 6), ("dsep", 12),
    ("backdoor", 8), ("select_graph", 6), ("select_dist", 4), ("decompose", 4),
    ("corr", 4),
)
#: malformed requests in each block, by their documented exit code
MALFORMED = {
    "usage": 2, "bad_choice": 2, "missing_file": 3, "bad_assignment": 3,
    "infeasible_endpoints": 4, "corr_domain": 4,
}


def generated_slots(block: int) -> list[tuple[str, int]]:
    """The 10 requests on generated networks in a block: (kind, network index).

    Joints are contracted only on the four smaller networks (up to 236 196
    entries, 1.9 MB).  The two largest (531 441 and 1 594 323 entries)
    serve only graph requests: contracting them made ``request_tail_ms``
    spread by a third across seeds on a shared host, because another
    tenant's load slows array-bound work differently from the speed probe.
    The multi-contraction kinds rotate over the three smallest networks.
    """
    n = len(GENERATED_SHAPES)
    return [
        ("do", n - 3), ("query", n - 3),
        ("ace", block % 3), ("adjust", (block + 1) % 3), ("adjust", (block + 2) % 3),
        ("query", block % 3), ("do", (block + 1) % 3),
        ("dsep", n - 1 - block % 2), ("backdoor", n - 2 + block % 2),
        ("select_graph", n - 1 - block % 2),
    ]


#: the known error-contract defects listed in ROADMAP.md: each is sent
#: once per run, expects exit 3, and is counted as a failure while the
#: defect stands
KNOWN_DEFECTS = (
    "do_target_intervened", "dsep_overlap", "backdoor_treatment_in_set",
    "adjust_outcome_in_set", "unknown_variable",
)
EXIT_OK = {"dsep": (0, 1), "backdoor": (0, 1), "corr": (0, 1)}


@dataclass
class Reply:
    code: int | None
    stdout: str
    raised: str | None


def run_cli(argv) -> Reply:
    """One in-process ``causalbn`` invocation with stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = causalbn.cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a traceback: exit 1 from the console script
        code, raised = None, f"{type(exc).__name__}: {exc}"
    return Reply(code, out.getvalue(), raised)


@dataclass
class Request:
    argv: tuple[str, ...]
    kind: str
    net: object = None
    generated: bool = False
    expect_code: int | None = None
    #: kind-specific arguments for the check
    info: dict | None = None


def _parse_dist(stdout: str) -> dict[str, float]:
    out = {}
    for line in stdout.splitlines():
        name_state, value = line.rsplit(": ", 1)
        out[name_state.split("=", 1)[1]] = float(value)
    return out


def _adjusted(net, treatment, outcome, s, z) -> dict[str, float]:
    """sum_s p(outcome | z, s) p(s) from the brute oracle."""
    if not s:
        return {k[0]: v for k, v in oracles.brute_query(net, [outcome], {treatment: z}).items()}
    p_ys = oracles.brute_query(net, [outcome, *s], {treatment: z})
    p_s = oracles.brute_query(net, list(s), {})
    states = net.variables[outcome].states
    out = dict.fromkeys(states, 0.0)
    for cfg, weight in p_s.items():
        p_s_given_z = sum(p_ys[(y, *cfg)] for y in states)
        for y in states:
            out[y] += p_ys[(y, *cfg)] / p_s_given_z * weight
    return out


def _expect(net, outcome, dist) -> float:
    return sum(float(s) * dist[s] for s in net.variables[outcome].states)


def _backdoor_reference(dag, treatment, outcome, s) -> bool:
    if set(s) & _descendants(dag.parents, treatment):
        return False
    trimmed = SimpleNamespace(
        nodes=dag.nodes,
        parents={n: tuple(p for p in dag.parents[n] if p != treatment) for n in dag.nodes},
    )
    return oracles.d_separated_paths(trimmed, {treatment}, {outcome}, set(s))


def _sized_dag(rng, n_nodes: int, n_ternary: int):
    nodes = tuple(f"V{i}" for i in range(n_nodes))
    parents = {}
    for j, v in enumerate(nodes):
        k = min(j, int(rng.integers(1, 4)))
        picks = sorted(rng.choice(j, size=k, replace=False)) if k else []
        parents[v] = tuple(nodes[i] for i in picks)
    ternary = set(rng.choice(n_nodes, size=n_ternary, replace=False).tolist())
    cards = {v: 3 if i in ternary else 2 for i, v in enumerate(nodes)}
    return causalbn.graph.Dag(nodes, parents), cards


class Query:
    """A closed loop of in-process ``causalbn`` CLI requests, one client."""

    name = "query"
    #: a run sends a fixed number of requests, this many per second of
    #: --seconds (about the scaled rate at the seed).  The known-defect
    #: probes fail in every run; with a fixed count, ``failed`` and
    #: ``attempted``, and so ``fail_frac``, are the same in every run of a
    #: seed, where a timed run would vary the probes' share.
    requests_per_s = 210

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.bundled = {m: causalbn.load_model(m) for m in causalbn.BUNDLED_MODELS}
        rng = np.random.default_rng(seed)
        self.generated = []  # (path, net, treatment, outcome)
        for i, (n_nodes, n_ternary) in enumerate(GENERATED_SHAPES):
            dag, cards = _sized_dag(rng, n_nodes, n_ternary)
            net = oracles.random_cpts(dag, rng, cards)
            path = workdir / f"generated{i}.model"
            path.write_text(causalbn.serialize_model(net), encoding="utf-8")
            self.generated.append((str(path), net, *self._effect_pair(net.dag, rng)))
        self.setup_code = load_models_code(
            [*causalbn.BUNDLED_MODELS, *(g[0] for g in self.generated)])
        self.seen: dict[tuple[str, ...], tuple] = {}
        self.references: dict[tuple[str, ...], object] = {}

    @staticmethod
    def _effect_pair(dag, rng):
        """A treatment whose candidate pool stays small, and a descendant outcome."""
        n = len(dag.nodes)
        desc = {v: _descendants(dag.parents, v) for v in dag.nodes}
        fits = [v for v in dag.nodes if desc[v] and n - 1 - len(desc[v]) <= 7]
        treatment = fits[int(rng.integers(len(fits)))] if fits else max(
            dag.nodes, key=lambda v: len(desc[v]))
        outcomes = sorted(desc[treatment], key=dag.nodes.index)
        return treatment, outcomes[int(rng.integers(len(outcomes)))]

    # request builders ------------------------------------------------

    @staticmethod
    def _pick(rng, seq, k):
        return [seq[i] for i in sorted(rng.choice(len(seq), size=k, replace=False))]

    @staticmethod
    def _assign(rng, net, names) -> str:
        return ",".join(
            f"{v}={net.variables[v].states[int(rng.integers(net.card(v)))]}" for v in names
        )

    def _bundled_request(self, rng, kind: str) -> Request:
        if kind == "decompose":
            py, pyp = (f"{v:.6f}" for v in rng.uniform(0.1, 0.9, size=2))
            return Request(("decompose", "--py", py, "--pyp", pyp), kind)
        if kind == "corr":
            r1, r2, r3 = (f"{v:.6f}" for v in rng.uniform(-0.95, 0.95, size=3))
            argv = ("corr", "--r1", r1, "--r2", r2)
            if rng.random() < 0.5:
                return Request(argv + ("--r3", r3), kind, info={"r3": float(r3)})
            return Request(argv, kind, info={"r3": None})
        model = causalbn.BUNDLED_MODELS[int(rng.integers(len(causalbn.BUNDLED_MODELS)))]
        net = self.bundled[model]
        nodes = list(net.dag.nodes)
        if kind in ("query", "do", "dsep"):
            picks = self._pick(rng, nodes, int(rng.integers(2, min(4, len(nodes)) + 1)))
            first, rest = picks[0], picks[1:]
            if kind == "dsep":
                given = ",".join(rest[1:])
                argv = ("dsep", model, "--a", first, "--b", rest[0], "--given", given)
                return Request(argv, kind, net, info={"a": first, "b": rest[0], "s": rest[1:]})
            flag = "--given" if kind == "query" else "--do"
            evidence = rest[: int(rng.integers(0 if kind == "query" else 1, len(rest) + 1))]
            argv = (kind, model, "--target", first, flag, self._assign(rng, net, evidence))
            ev = dict(p.split("=") for p in argv[-1].split(",")) if evidence else {}
            return Request(argv, kind, net, info={"target": first, "evidence": ev})
        treatment, outcome = self._pick(rng, nodes, 2)
        if rng.random() < 0.5:
            treatment, outcome = outcome, treatment
        others = [v for v in nodes if v not in (treatment, outcome)]
        base = ("--treatment", treatment, "--outcome", outcome)
        info = {"treatment": treatment, "outcome": outcome}
        if kind in ("adjust", "backdoor"):
            s = self._pick(rng, others, int(rng.integers(0, min(2, len(others)) + 1)))
            info["s"] = s
            return Request((kind, model, *base, "--set", ",".join(s)), kind, net, info=info)
        if kind == "bias":
            info["x"] = others[int(rng.integers(len(others)))]
            return Request(("bias", model, *base, "--covariate", info["x"]), kind, net, info=info)
        if kind in ("select_graph", "select_dist"):
            mode = kind.split("_")[1]
            return Request(("select", model, *base, "--mode", mode), kind, net, info=info)
        return Request(("ace", model, *base), kind, net, info=info)

    def _generated_request(self, rng, kind: str, index: int) -> Request:
        path, net, treatment, outcome = self.generated[index]
        nodes = list(net.dag.nodes)
        base = ("--treatment", treatment, "--outcome", outcome)
        if kind == "query":
            argv = ("query", path, "--target", outcome, "--given",
                    self._assign(rng, net, [treatment]))
        elif kind == "do":
            argv = ("do", path, "--target", outcome, "--do", self._assign(rng, net, [treatment]))
        elif kind == "ace":
            argv = ("ace", path, *base)
        elif kind == "adjust":
            argv = ("adjust", path, *base, "--set", ",".join(net.dag.parents[treatment]))
        elif kind == "dsep":
            a, b, *s = self._pick(rng, nodes, int(rng.integers(2, 5)))
            argv = ("dsep", path, "--a", a, "--b", b, "--given", ",".join(s))
        elif kind == "backdoor":
            others = [v for v in nodes if v not in (treatment, outcome)]
            s = self._pick(rng, others, int(rng.integers(0, 3)))
            argv = ("backdoor", path, *base, "--set", ",".join(s))
        else:
            argv = ("select", path, *base, "--mode", "graph")
        return Request(argv, kind, net, generated=True)

    def _malformed_request(self, rng, case: str) -> Request:
        model = causalbn.BUNDLED_MODELS[int(rng.integers(len(causalbn.BUNDLED_MODELS)))]
        lo, hi = sorted(float(f"{v:.6f}") for v in rng.uniform(0.1, 0.8, size=2))
        argv = {
            "usage": ("query", model),
            "bad_choice": ("select", model, "--treatment", "Z", "--outcome", "Y",
                           "--mode", "fast"),
            "missing_file": ("do", f"no_such_model_{int(rng.integers(1000))}",
                             "--target", "Y", "--do", "Z=1"),
            "bad_assignment": ("query", model, "--target", "Y", "--given", "Z"),
            "infeasible_endpoints": ("decompose", "--py", f"{lo:.6f}", "--pyp", f"{hi:.6f}",
                                     "--lo", f"{lo + 0.05:.6f}",
                                     "--hi", f"{min(1.0, hi + 0.1):.6f}"),
            "corr_domain": ("corr", "--r1", f"{1.0 + hi:.6f}", "--r2", f"{lo:.6f}"),
            "do_target_intervened": ("do", model, "--target", "Y", "--do", "Y=1"),
            "dsep_overlap": ("dsep", model, "--a", "Z", "--b", "Z"),
            "backdoor_treatment_in_set": ("backdoor", model, "--treatment", "Z",
                                          "--outcome", "Y", "--set", "Z"),
            "adjust_outcome_in_set": ("adjust", model, "--treatment", "Z", "--outcome", "Y",
                                      "--set", "Y"),
            "unknown_variable": ("query", model, "--target", "Q"),
        }[case]
        return Request(argv, case, expect_code=MALFORMED.get(case, 3))

    def requests(self):
        """The seeded request stream: the known-defect probes, then blocks of 100."""
        rng = np.random.default_rng(self.seed + 1)
        for case in KNOWN_DEFECTS:
            yield self._malformed_request(rng, case)
        for block in itertools.count():
            batch = [self._bundled_request(rng, k) for k, n in BUNDLED_MIX for _ in range(n)]
            batch += [self._malformed_request(rng, case) for case in MALFORMED]
            batch += [
                self._generated_request(rng, kind, index)
                for kind, index in generated_slots(block)
            ]
            for i in rng.permutation(len(batch)):
                yield batch[i]

    # checks ------------------------------------------------------------

    def _reference(self, req: Request):
        if req.argv not in self.references:
            net, info = req.net, req.info
            if req.kind == "query":
                ref = oracles.brute_query(net, [info["target"]], info["evidence"])
                ref = {k[0]: v for k, v in ref.items()}
            elif req.kind == "do":
                ref = oracles.brute_do(net, info["target"], info["evidence"])
            elif req.kind == "dsep":
                ref = oracles.d_separated_paths(net.dag, {info["a"]}, {info["b"]}, set(info["s"]))
            elif req.kind == "backdoor":
                ref = _backdoor_reference(net.dag, info["treatment"], info["outcome"], info["s"])
            else:  # ace, adjust, bias: per treatment level, truth and adjusted
                t, y = info["treatment"], info["outcome"]
                s = [info["x"]] if req.kind == "bias" else info.get("s", [])
                levels = net.variables[t].states
                ref = {
                    z: (oracles.brute_do(net, y, {t: z}), _adjusted(net, t, y, s, z),
                        _adjusted(net, t, y, [], z))
                    for z in levels
                }
            self.references[req.argv] = ref
        return self.references[req.argv]

    def _check_output(self, req: Request, reply: Reply) -> str | None:
        kind, out, net = req.kind, reply.stdout, req.net
        if kind in ("dsep", "backdoor"):
            verdict = out == "true\n"
            if out not in ("true\n", "false\n") or reply.code != (0 if verdict else 1):
                return "verdict and exit code disagree"
            if not req.generated and verdict != self._reference(req):
                return "verdict disagrees with the path oracle"
        elif kind in ("query", "do"):
            dist = _parse_dist(out)
            if req.generated:
                if min(dist.values()) < 0 or not _close(sum(dist.values()), 1.0):
                    return "not a distribution"
            elif dist.keys() != self._reference(req).keys() or not all(
                _close(dist[k], v) for k, v in self._reference(req).items()
            ):
                return "distribution disagrees with the brute oracle"
        elif kind == "adjust":
            for line in out.splitlines():
                if line.startswith("do("):
                    level = line[line.index("=") + 1: -2]
                    continue
                state, rest = line.strip().split(": ")
                fields = dict(f.split("=") for f in rest.split())
                adj, true = float(fields["adjusted"]), float(fields["true"])
                state = state.split("=", 1)[1]
                if req.generated:
                    expected = (true, true)  # back-door identity: parents of the treatment
                else:
                    truth, adjusted, _ = self._reference(req)[level]
                    expected = (adjusted[state], truth[state])
                if not (_close(adj, expected[0]) and _close(true, expected[1])):
                    return f"adjust line {line!r} expected {expected}"
        elif kind == "ace" and not req.generated:
            y = req.info["outcome"]
            ref = self._reference(req)
            levels = net.variables[req.info["treatment"]].states
            ace = _expect(net, y, ref[levels[-1]][0]) - _expect(net, y, ref[levels[0]][0])
            if not _close(float(out), ace):
                return f"ace {out.strip()} expected {ace!r}"
        elif kind == "bias":
            ref = self._reference(req)
            y = req.info["outcome"]
            lines = out.splitlines()
            last = net.variables[y].states[-1]
            levels = net.variables[req.info["treatment"]].states
            for line, z in zip(lines, levels):
                truth, adjusted, _ = ref[z]
                if not _close(float(line.rsplit(" ", 1)[1]), adjusted[last] - truth[last]):
                    return f"{line!r} disagrees with the brute oracle"

            def gap(z):
                _, adjusted, plain = ref[z]
                return _expect(net, y, adjusted) - _expect(net, y, plain)

            if not _close(float(lines[-1].split()[1]), gap(levels[-1]) - gap(levels[0])):
                return f"{lines[-1]!r} disagrees with the brute oracle"
        elif kind.startswith("select"):
            lines = out.splitlines()
            chosen = lines[0].removeprefix("chosen: ")
            pool = lines[1].removeprefix("pool: ").split(",")
            if not lines[0].startswith("chosen: ") or not (
                chosen == "(empty)" or set(chosen.split(",")) <= set(pool)
            ):
                return "chosen set is not drawn from the pool"
        elif kind == "decompose":
            residuals = [float(line.rsplit("residual ", 1)[1].rstrip(")"))
                         for line in out.splitlines() if "residual" in line]
            if len(residuals) != 2 or max(map(abs, residuals)) > TOL:
                return "reconstruction residuals too large"
        elif kind == "corr":
            lo, hi = (float(v) for v in out.splitlines()[0].split("[")[1].rstrip("]").split(", "))
            r3 = req.info["r3"]
            if lo > hi or (r3 is not None and reply.code != (0 if lo <= r3 <= hi else 1)):
                return "interval and verdict disagree"
        return None

    def check(self, req: Request, reply: Reply) -> list[str]:
        where = " ".join(req.argv)
        if reply.raised is not None:
            return [f"{where}: raised {reply.raised}"]
        if req.expect_code is not None:
            if reply.code != req.expect_code:
                return [f"{where}: exit {reply.code}, documented {req.expect_code}"]
            return []
        if reply.code not in EXIT_OK.get(req.kind, (0,)):
            return [f"{where}: exit {reply.code}"]
        first = self.seen.setdefault(req.argv, (reply.code, reply.stdout))
        if first != (reply.code, reply.stdout):
            return [f"{where}: output differs from an identical earlier request"]
        try:
            problem = self._check_output(req, reply)
        except (ValueError, IndexError, KeyError) as exc:
            problem = f"unreadable output {reply.stdout!r}: {exc!r}"
        return [f"{where}: {problem}"] if problem else []

    def ops(self):
        for req in self.requests():
            yield Op(
                [lambda req=req: run_cli(req.argv)],
                lambda out, req=req: self.check(req, out[0]),
                1, 1,
                known_defect=req.kind in KNOWN_DEFECTS,
            )

    def warmup(self) -> None:
        rng = np.random.default_rng(self.seed)
        for kind, _ in BUNDLED_MIX:
            run_cli(self._bundled_request(rng, kind).argv)


# ------------------------------------------------------------------- sample

SAMPLE_MODELS = ("fig1_left", "modelD")
SAMPLE_ROWS = 10**6
#: total-variation distance allowed between the sample and the exact joint
TV_LIMIT = 0.01


def reference_csv_digest(net, n: int, seed: int) -> str:
    """SHA-256 of the CSV that the documented sampling contract fixes.

    PCG64 seeded with ``seed``; nodes in topological order with ties broken
    by declaration order; one uniform per row per node, mapped to a state
    by inverse CDF over the state order.  Written independently of
    ``forward_sample`` and ``Dataset.to_csv``.
    """
    nodes = net.dag.nodes
    order: list[str] = []
    while len(order) < len(nodes):
        order.append(next(
            v for v in nodes if v not in order and all(p in order for p in net.dag.parents[v])
        ))
    rng = np.random.Generator(np.random.PCG64(seed))
    cols: dict[str, np.ndarray] = {}
    for v in order:
        u = rng.random(n)
        cpt = net.cpts[v]
        row = np.zeros(n, dtype=np.int64)
        for p in cpt.parents:
            row = row * net.card(p) + cols[p]
        cdf = np.cumsum(cpt.table, axis=1)[row]
        cols[v] = np.minimum((u[:, None] > cdf).sum(axis=1), net.card(v) - 1)
    flat = np.zeros(n, dtype=np.int64)
    for v in nodes:
        flat = flat * net.card(v) + cols[v]
    lines = np.array([
        ",".join(cfg) + "\n"
        for cfg in itertools.product(*[net.variables[v].states for v in nodes])
    ], dtype=object)
    digest = hashlib.sha256((",".join(nodes) + "\n").encode())
    for start in range(0, n, 1 << 17):
        digest.update("".join(lines[flat[start:start + (1 << 17)]]).encode())
    return digest.hexdigest()


def total_variation(factor, net) -> float:
    exact = np.array(list(oracles.brute_joint(net).values()))
    return 0.5 * float(np.abs(factor.values.ravel() - exact).sum())


class Sample:
    """``forward_sample`` -> ``Dataset.write_csv`` -> ``empirical_joint``."""

    name = "sample"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rows = SAMPLE_ROWS
        self.nets = {m: causalbn.load_model(m) for m in SAMPLE_MODELS}
        self.setup_code = load_models_code(SAMPLE_MODELS)

    def _path(self, model: str) -> Path:
        return self.workdir / f"sample-{model}.csv"

    def _steps(self, sample_seed: int, n: int):
        """Per model: sample, write the CSV, count; the count is the step's result."""
        bayesnet = causalbn.bayesnet
        data = {}
        steps = []
        for model, net in self.nets.items():
            steps += [
                lambda m=model, net=net: data.__setitem__(
                    m, bayesnet.forward_sample(net, n, sample_seed)),
                lambda m=model: data[m].write_csv(self._path(m)),
                lambda m=model: bayesnet.empirical_joint(data.pop(m)),
            ]
        return steps

    def _check(self, sample_seed: int, out) -> list[str]:
        failures = []
        for model, factor in zip(self.nets, out[2::3]):
            net = self.nets[model]
            path = self._path(model)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if digest != reference_csv_digest(net, self.rows, sample_seed):
                failures.append(f"{model} seed {sample_seed}: csv digest breaks the contract")
            elif factor.scope != net.dag.nodes or total_variation(factor, net) >= TV_LIMIT:
                failures.append(f"{model} seed {sample_seed}: empirical joint is off")
        return failures

    def ops(self):
        rng = np.random.default_rng(self.seed)
        while True:
            sample_seed = int(rng.integers(2**32))
            yield Op(
                self._steps(sample_seed, self.rows),
                lambda out, s=sample_seed: self._check(s, out),
                len(self.nets), len(self.nets) * self.rows,
            )

    def warmup(self) -> None:
        for step in self._steps(self.seed, n=10_000):
            step()


WORKLOADS = {w.name: w for w in (Scan, Query, Sample)}
