import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbn.errors import CycleError, UnknownNode
from causalbn.graph import (
    Dag,
    backdoor_admissible,
    d_separated,
    descendants,
    topological_order,
)
from causalbn.bayesnet import joint

from oracles import d_separated_paths, has_cycle_dfs, random_cpts

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

    Returns the order, or the CycleError message when there is none.
    """
    indegree = {n: len(parents[n]) for n in nodes}
    order = []
    while len(order) < len(nodes):
        ready = [n for n in nodes if indegree[n] == 0 and n not in order]
        if not ready:
            remaining = [n for n in nodes if n not in order]
            return f"no topological order; cycle among {remaining}"
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
    @settings(derandomize=True, max_examples=200, deadline=None)
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


def test_descendants():
    assert descendants(FIG2_MODEL1, "X") == {"Z", "Y"}
    assert descendants(FIG2_MODEL1, "Y") == set()
