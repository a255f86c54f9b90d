import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbn import bayesnet
from causalbn.errors import CycleError, SizeCapExceeded, UnknownNode
from causalbn.graph import (
    Dag,
    ancestors,
    backdoor_admissible,
    d_separated,
    descendants,
    topological_order,
)
from causalbn.bayesnet import _contract, _names, _pairs, joint

from oracles import d_separated_paths, has_cycle_dfs, random_cpts, random_net

M_STRUCTURE = Dag.from_edges(
    ("U", "W", "X", "Z", "Y"),
    [("U", "Z"), ("U", "X"), ("W", "X"), ("W", "Y"), ("Z", "Y")],
)
FIG1_LEFT = Dag.from_edges(("X", "Z", "Y"), [("X", "Z"), ("X", "Y"), ("Z", "Y")])
FIG2_MODEL1 = Dag.from_edges(
    ("U", "W", "X", "Z", "Y"),
    [("U", "X"), ("U", "Z"), ("W", "X"), ("W", "Y"),
     ("X", "Z"), ("X", "Y"), ("Z", "Y")],
)


def random_dag(rng, n_nodes, p_edge=0.4):
    names = [f"N{i}" for i in range(n_nodes)]
    edges = [
        (names[i], names[j])
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if rng.random() < p_edge
    ]
    return Dag.from_edges(names, edges)


def kahn_reference(nodes, parents):
    """Plain Kahn's algorithm: always take the earliest-declared ready node.

    Returns the order, or the CycleError message when there is none: it
    names, in declaration order, the nodes that networkx finds on a
    directed cycle (in a strongly connected component of two or more
    nodes, or with a loop to themselves).
    """
    indegree = {n: len(parents[n]) for n in nodes}
    order = []
    while len(order) < len(nodes):
        ready = [n for n in nodes if indegree[n] == 0 and n not in order]
        if not ready:
            g = nx.DiGraph([(p, c) for c in nodes for p in parents[c]])
            cyclic = {n for comp in nx.strongly_connected_components(g) if len(comp) > 1
                      for n in comp} | set(nx.nodes_with_selfloops(g))
            on_cycle = [n for n in nodes if n in cyclic]
            return f"no topological order; cycle among {on_cycle}"
        order.append(ready[0])
        for c in nodes:
            indegree[c] -= parents[c].count(ready[0])
    return order


@st.composite
def parent_maps(draw):
    """Up to 12 nodes in a random declaration order; half the maps may be cyclic."""
    n = draw(st.integers(1, 12))
    nodes = tuple(draw(st.permutations([f"N{i}" for i in range(n)])))
    rank = draw(st.permutations(range(n)))
    acyclic = draw(st.booleans())
    parents = {}
    for i, child in enumerate(nodes):
        pool = [p for j, p in enumerate(nodes)
                if j != i and (rank[j] < rank[i] or not acyclic)]
        parents[child] = tuple(draw(st.lists(st.sampled_from(pool), unique=True))) if pool else ()
    return nodes, parents


class TestTopologicalOrder:
    @settings(max_examples=200)
    @given(parent_maps())
    def test_matches_plain_kahn(self, case):
        nodes, parents = case
        expected = kahn_reference(nodes, parents)
        if isinstance(expected, str):
            with pytest.raises(CycleError) as exc:
                Dag(nodes, parents)
            assert str(exc.value) == expected
        else:
            assert topological_order(Dag(nodes, parents)) == expected

    def test_chain(self):
        dag = Dag.from_edges(("X", "Z", "Y"), [("X", "Z"), ("Z", "Y")])
        assert topological_order(dag) == ["X", "Z", "Y"]

    def test_m_structure_edge_condition(self):
        order = topological_order(M_STRUCTURE)
        pos = {n: i for i, n in enumerate(order)}
        for p, c in M_STRUCTURE.edges():
            assert pos[p] < pos[c]
        assert pos["U"] < pos["X"] and pos["W"] < pos["X"] and pos["Z"] < pos["Y"]

    def test_two_cycle(self):
        with pytest.raises(CycleError):
            Dag(("Z", "Y"), {"Z": ("Y",), "Y": ("Z",)})

    def test_deterministic_tie_break(self):
        dag = Dag.from_edges(("B", "A", "C"), [("B", "C"), ("A", "C")])
        assert topological_order(dag) == ["B", "A", "C"]

    def test_cycle_iff_dfs_oracle(self):
        # random parent maps, some cyclic; CycleError must match the oracle
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(2, 6)
            names = [f"N{i}" for i in range(n)]
            parents = {
                m: tuple(p for p in names if p != m and rng.random() < 0.35)
                for m in names
            }
            cyclic = has_cycle_dfs(names, parents)
            if cyclic:
                with pytest.raises(CycleError):
                    Dag(tuple(names), parents)
            else:
                order = topological_order(Dag(tuple(names), parents))
                pos = {m: i for i, m in enumerate(order)}
                for c in names:
                    for p in parents[c]:
                        assert pos[p] < pos[c]


class TestDSeparation:
    def test_model_b_marginal_independence(self):
        assert d_separated(M_STRUCTURE, {"Z"}, {"W"})

    def test_model_b_collider_opens(self):
        assert not d_separated(M_STRUCTURE, {"Z"}, {"W"}, {"X"})

    def test_chain_blocked(self):
        dag = Dag.from_edges(("A", "B", "C"), [("A", "B"), ("B", "C")])
        assert d_separated(dag, {"A"}, {"C"}, {"B"})

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            d_separated(M_STRUCTURE, {"Q"}, {"W"})

    def test_disjointness_required(self):
        with pytest.raises(ValueError):
            d_separated(M_STRUCTURE, {"Z"}, {"W"}, {"Z"})

    def test_symmetry_and_path_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            dag = random_dag(rng, int(rng.integers(3, 8)))
            names = list(dag.nodes)
            rng.shuffle(names)
            a, b = {names[0]}, {names[1]}
            s = set(names[2: 2 + rng.integers(0, len(names) - 2)])
            got = d_separated(dag, a, b, s)
            assert got == d_separated(dag, b, a, s)
            assert got == d_separated_paths(dag, a, b, s)

    def test_numeric_soundness(self):
        # d-separation must imply exact conditional independence
        rng = np.random.default_rng(3)
        pairs_checked = 0
        for dag in (FIG1_LEFT, M_STRUCTURE, FIG2_MODEL1):
            for _ in range(100):
                net = random_cpts(dag, rng)
                f = joint(net)
                for a, b in itertools.combinations(dag.nodes, 2):
                    others = [n for n in dag.nodes if n not in (a, b)]
                    for r in range(len(others) + 1):
                        for s in itertools.combinations(others, r):
                            if not d_separated(dag, {a}, {b}, set(s)):
                                continue
                            pairs_checked += 1
                            for cfg in itertools.product(
                                *[net.variables[v].states for v in (b, *s)]
                            ):
                                ev = dict(zip((b, *s), cfg))
                                ev_s = {k: v for k, v in ev.items() if k != b}
                                lhs = f.condition(ev).marginal({a}).values
                                rhs = f.condition(ev_s).marginal({a}).values
                                assert np.max(np.abs(lhs - rhs)) < 1e-10
        assert pairs_checked > 0


class TestBackdoor:
    def test_fig1_left(self):
        assert backdoor_admissible(FIG1_LEFT, "Z", "Y", {"X"})
        assert not backdoor_admissible(FIG1_LEFT, "Z", "Y", set())

    def test_model_b(self):
        assert backdoor_admissible(M_STRUCTURE, "Z", "Y", set())
        assert not backdoor_admissible(M_STRUCTURE, "Z", "Y", {"X"})

    def test_fig2_model1(self):
        assert backdoor_admissible(FIG2_MODEL1, "Z", "Y", {"X", "W"})
        assert not backdoor_admissible(FIG2_MODEL1, "Z", "Y", {"X"})

    def test_descendant_excluded(self):
        assert not backdoor_admissible(FIG1_LEFT, "X", "Y", {"Z"})

    def test_treatment_in_set_rejected(self):
        with pytest.raises(ValueError):
            backdoor_admissible(FIG1_LEFT, "Z", "Y", {"Z"})

    @settings(max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_d_separation_on_the_trimmed_graph(self, seed):
        """The criterion as its definition reads: no descendant of the
        treatment in ``s``, and ``s`` d-separates treatment and outcome once
        the treatment's outgoing edges are removed, checked by path
        enumeration and by networkx."""
        rng = np.random.default_rng(seed)
        dag = random_net(rng, int(rng.integers(2, 8))).dag
        treatment, outcome, *others = rng.permutation(dag.nodes).tolist()
        s = set(others[: int(rng.integers(0, len(others) + 1))])
        trimmed = Dag.from_edges(dag.nodes, [(p, c) for p, c in dag.edges() if p != treatment])
        g = nx.DiGraph(trimmed.edges())
        g.add_nodes_from(dag.nodes)
        if s & descendants(dag, treatment):
            expected = False
        else:
            expected = d_separated_paths(trimmed, {treatment}, {outcome}, s)
            assert expected == nx.is_d_separator(g, {treatment}, {outcome}, s)
        assert backdoor_admissible(dag, treatment, outcome, s) == expected


def test_descendants():
    assert descendants(FIG2_MODEL1, "X") == {"Z", "Y"}
    assert descendants(FIG2_MODEL1, "Y") == set()


def networkx_case(seed):
    """A ``random_net`` of 2 to 7 nodes, its networkx graph and the rng."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, int(rng.integers(2, 8)))
    g = nx.DiGraph(net.dag.edges())
    g.add_nodes_from(net.dag.nodes)
    return rng, net, g


def some(rng, nodes):
    """A random subset of ``nodes``, as a list."""
    return [n for n in nodes if rng.random() < 0.4]


class TestAgainstNetworkx:
    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_ancestors_and_descendants(self, seed):
        rng, net, g = networkx_case(seed)
        dag = net.dag
        for n in dag.nodes:
            assert ancestors(dag, [n]) == nx.ancestors(g, n)
            assert descendants(dag, n) == nx.descendants(g, n)
        names = some(rng, dag.nodes)
        assert ancestors(dag, iter(names)) == set().union(*(nx.ancestors(g, n) for n in names))

    @settings(max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_d_separated(self, seed):
        rng, net, g = networkx_case(seed)
        order = rng.permutation(net.dag.nodes).tolist()
        cut = int(rng.integers(1, len(order)))
        end = int(rng.integers(cut + 1, len(order) + 1))
        a, b, rest = set(order[:cut]), set(order[cut:end]), order[end:]
        s = set(some(rng, rest))
        assert d_separated(net.dag, a, b, s) == nx.is_d_separator(g, a, b, s)

    @settings(max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_contraction_iterates_the_free_ancestors(self, seed):
        """The configurations of a contraction are the product of the cards
        of the ancestors of ``keep`` and the evidence in the graph without
        the intervened nodes' incoming edges, less the evidence and the
        intervened nodes outside ``keep``."""
        rng, net, g = networkx_case(seed)
        nodes = net.dag.nodes

        def assignment():
            return {n: str(rng.choice(net.states(n))) for n in some(rng, nodes)}

        keep, do, evidence = some(rng, nodes), assignment(), assignment()
        g.remove_edges_from([(p, c) for p, c in net.dag.edges() if c in do])
        relevant = {*keep, *evidence}.union(*(nx.ancestors(g, n) for n in {*keep, *evidence}))
        fixed = set(evidence) | (set(do) - set(keep))
        free = [n for n in nodes if n in relevant and n not in fixed]
        configurations = math.prod(net.card(n) for n in free)
        request = (net, _names(keep), _pairs(do), _pairs(evidence))
        # the cap admits exactly the configurations the contraction iterates
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bayesnet, "DEFAULT_SIZE_CAP", configurations - 1)
            with pytest.raises(SizeCapExceeded, match=f"exceed {configurations - 1} conf"):
                _contract(*request)
            patch.setattr(bayesnet, "DEFAULT_SIZE_CAP", configurations)
            f = _contract(*request)
        assert f.scope == tuple(n for n in free if n in keep)
