import hashlib
import itertools

import numpy as np
import pytest

from causalbn.bayesnet import (
    Cpt,
    Dataset,
    DiscreteBayesNet,
    Variable,
    empirical_joint,
    forward_sample,
    joint,
    query,
    validate,
)
from causalbn.errors import (
    DomainError,
    EmptyDataset,
    SizeCapExceeded,
    ValidationError,
    ZeroProbabilityEvidence,
)
from causalbn.graph import Dag
from causalbn.modelfile import load_model

from oracles import brute_joint, brute_query, random_cpts


def single_node(p1=0.25):
    dag = Dag(("X",), {"X": ()})
    return DiscreteBayesNet(
        dag, {"X": Variable("X", ("0", "1"))}, {"X": Cpt("X", (), [[1 - p1, p1]])}
    )


def two_coins():
    dag = Dag(("A", "B"), {"A": (), "B": ()})
    return DiscreteBayesNet(
        dag,
        {n: Variable(n, ("0", "1")) for n in "AB"},
        {n: Cpt(n, (), [[0.5, 0.5]]) for n in "AB"},
    )


class TestValidate:
    def test_ok(self):
        validate(load_model("fig1_left"))

    def test_row_sum(self):
        net = single_node()
        bad = DiscreteBayesNet(net.dag, net.variables, {"X": Cpt("X", (), [[0.6, 0.3]])})
        with pytest.raises(ValidationError, match="row sum"):
            validate(bad)

    def test_parent_mismatch(self):
        good = load_model("fig1_left")
        cpts = dict(good.cpts)
        cpts["Z"] = Cpt("Z", (), [[0.5, 0.5]])
        with pytest.raises(ValidationError, match="parent mismatch"):
            validate(DiscreteBayesNet(good.dag, good.variables, cpts))

    def test_missing_cpt(self):
        good = load_model("fig1_left")
        cpts = {k: v for k, v in good.cpts.items() if k != "Y"}
        with pytest.raises(ValidationError, match="missing CPT"):
            validate(DiscreteBayesNet(good.dag, good.variables, cpts))


class TestJoint:
    def test_fig1_left_entry(self):
        f = joint(load_model("fig1_left"))
        assert f.prob({"X": "1", "Z": "1", "Y": "1"}) == pytest.approx(0.36, abs=1e-15)

    def test_single_node(self):
        f = joint(single_node(0.25))
        assert np.allclose(f.values, [0.75, 0.25])

    def test_two_coins(self):
        f = joint(two_coins())
        assert np.allclose(f.values, 0.25)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dag = Dag.from_edges(("A", "B", "C"), [("A", "B"), ("A", "C"), ("B", "C")])
            net = random_cpts(dag, rng, cards={"A": 2, "B": 3, "C": 2})
            assert abs(joint(net).values.sum() - 1.0) < 1e-12

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            joint(two_coins(), size_cap=2)


class TestQuery:
    def test_fig1_left_conditional(self):
        q = query(load_model("fig1_left"), ["Y"], {"Z": "1"})
        assert q.prob({"Y": "1"}) == pytest.approx(0.84, abs=1e-12)

    def test_marginal_full_scope_identity(self):
        f = joint(load_model("fig1_left"))
        assert f.marginal(set(f.scope)).values.tolist() == f.values.tolist()

    def test_zero_probability_evidence(self):
        net = single_node(1.0)
        with pytest.raises(ZeroProbabilityEvidence):
            query(net, ["X"], {"X": "0"})

    def test_matches_brute_oracle(self):
        # frozen oracle: full double loop over configurations
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            names = [f"N{i}" for i in range(n)]
            edges = [
                (names[i], names[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            net = random_cpts(Dag.from_edges(names, edges), rng)
            f = joint(net)
            for cfg, p in brute_joint(net).items():
                assert abs(f.prob(dict(zip(names, cfg))) - p) < 1e-12
            target, ev_var = names[0], names[-1]
            expected = brute_query(net, [target], {ev_var: "1"})
            got = query(net, [target], {ev_var: "1"})
            for key, p in expected.items():
                assert abs(got.prob({target: key[0]}) - p) < 1e-12

    def test_invariant_to_declaration_order(self):
        rng = np.random.default_rng(23)
        dag = Dag.from_edges(("A", "B", "C"), [("A", "B"), ("A", "C"), ("B", "C")])
        net = random_cpts(dag, rng)
        perm = ("B", "A", "C")
        permuted = DiscreteBayesNet(
            Dag(perm, {n: dag.parents[n] for n in perm}), net.variables, net.cpts
        )
        for ev in ({}, {"B": "1"}):
            a = query(net, ["C"], ev).values
            b = query(permuted, ["C"], ev).values
            assert np.max(np.abs(a - b)) < 1e-12


class TestSampling:
    def test_seed_determinism(self):
        net = load_model("fig1_left")
        d1 = forward_sample(net, 1000, seed=7)
        d2 = forward_sample(net, 1000, seed=7)
        assert np.array_equal(d1.rows, d2.rows)
        assert d1.to_csv() == d2.to_csv()

    def test_point_mass(self):
        ds = forward_sample(single_node(1.0), 100, seed=1)
        assert np.all(ds.rows == 1)

    def test_monte_carlo_agreement(self):
        net = load_model("fig1_left")
        ds = forward_sample(net, 10**6, seed=7)
        emp = empirical_joint(ds)
        exact = joint(net)
        # conditional p(y=1 | z=1) close to the exact 0.84
        emp_cond = emp.condition({"Z": "1"}).marginal({"Y"}).prob({"Y": "1"})
        assert abs(emp_cond - 0.84) < 0.005
        tv = 0.5 * float(np.abs(emp.values - exact.values).sum())
        assert tv < 0.01

    def test_csv_format(self):
        csv = forward_sample(single_node(1.0), 3, seed=0).to_csv()
        assert csv == "X\n1\n1\n1\n"


def reference_csv(ds):
    """Per-row renderer: header, then one joined line per row, LF."""
    lines = [",".join(ds.columns)]
    for row in ds.rows.tolist():
        lines.append(",".join(ds.states[j][v] for j, v in enumerate(row)))
    return "\n".join(lines) + "\n"


def reference_sample(net, n, seed):
    """Per-row sampler written from the documented contract.

    PCG64 seeded with ``seed``; nodes in topological order, ties broken by
    declaration order; for each node in turn ``n`` uniforms; a row's state
    is the number of its CPT row's running sums strictly below ``u``,
    clamped to the last state.
    """
    nodes = list(net.dag.nodes)
    order = []
    while len(order) < len(nodes):
        order.append(next(
            v for v in nodes if v not in order and all(p in order for p in net.dag.parents[v])
        ))
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = [[0] * len(nodes) for _ in range(n)]
    for v in order:
        u = rng.random(n)
        cpt = net.cpts[v]
        card = net.card(v)
        for i in range(n):
            r = 0
            for p in cpt.parents:
                r = r * net.card(p) + rows[i][nodes.index(p)]
            acc, below = 0.0, 0
            for prob in cpt.table[r].tolist():
                acc += prob
                below += u[i] > acc
            rows[i][nodes.index(v)] = min(below, card - 1)
    return rows


def labelled_net():
    """3-state multi-character root, binary middle, 3-state child of both."""
    dag = Dag.from_edges(("A", "B", "C"), [("A", "B"), ("A", "C"), ("B", "C")])
    variables = {
        "A": Variable("A", ("lo", "mid", "high")),
        "B": Variable("B", ("no", "yes")),
        "C": Variable("C", ("c0", "c11", "c222")),
    }
    cpts = {
        "A": Cpt("A", (), [[0.2, 0.5, 0.3]]),
        "B": Cpt("B", ("A",), [[0.9, 0.1], [0.4, 0.6], [0.25, 0.75]]),
        "C": Cpt("C", ("A", "B"), [
            [0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.5, 0.25, 0.25],
            [0.6, 0.1, 0.3], [0.05, 0.9, 0.05], [1 / 3, 1 / 3, 1 / 3],
        ]),
    }
    return DiscreteBayesNet(dag, variables, cpts)


class TestSamplingReference:
    """The library against the per-row references above."""

    def check(self, net, n, seed):
        ds = forward_sample(net, n, seed)
        assert ds.rows.tolist() == reference_sample(net, n, seed)
        assert ds.to_csv() == reference_csv(ds)
        return ds

    def test_multi_character_three_state_labels(self):
        ds = self.check(labelled_net(), 3000, seed=11)
        assert ds.to_csv().startswith("A,B,C\n")
        first = {line.split(",")[0] for line in ds.to_csv().splitlines()[1:]}
        assert first == {"lo", "mid", "high"}

    def test_single_row(self):
        ds = self.check(labelled_net(), 1, seed=3)
        assert ds.to_csv().count("\n") == 2

    def test_single_column(self):
        self.check(single_node(0.3), 500, seed=4)

    def test_random_networks(self):
        rng = np.random.default_rng(29)
        for trial in range(15):
            n = int(rng.integers(1, 6))
            names = [f"N{i}" for i in range(n)]
            edges = [
                (names[i], names[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            # declare in a shuffled order so ties and parent order vary
            decl = [names[i] for i in rng.permutation(n)]
            dag = Dag.from_edges(decl, edges)
            cards = {m: int(rng.integers(2, 4)) for m in names}
            self.check(random_cpts(dag, rng, cards=cards), 400, seed=trial)

    def test_rows_span_several_chunks(self):
        net = load_model("fig1_left")
        ds = forward_sample(net, 2**18 + 3, seed=5)
        assert ds.to_csv() == reference_csv(ds)

    @pytest.mark.parametrize("width", [1, 62, 63, 64, 70])
    def test_wide_binary_dataset(self, width):
        # past 63 binary columns the mixed-radix code no longer fits int64
        rng = np.random.default_rng(width)
        columns = tuple(f"V{j}" for j in range(width))
        states = tuple(("off", "on") for _ in range(width))
        rows = rng.integers(0, 2, size=(300, width))
        # pairs that differ only in the slowest column, whose weight a
        # wrapped int64 code would drop
        rows[1::2] = rows[::2]
        rows[1::2, 0] ^= 1
        ds = Dataset(columns, states, rows)
        assert ds.to_csv() == reference_csv(ds)

    def test_wide_many_state_columns(self):
        # four columns of 2**21 states: a group of three (2**63 codes), then one
        rng = np.random.default_rng(8)
        card = 2**21
        labels = tuple(str(i) for i in range(card))
        ds = Dataset(("P", "Q", "R", "S"), (labels,) * 4, rng.integers(0, card, size=(50, 4)))
        assert ds.to_csv() == reference_csv(ds)

    def test_pinned_digest(self):
        # SHA-256 of criterion 8's dataset, fixed by the sampling contract
        csv = forward_sample(load_model("fig1_left"), 10**6, seed=7).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "0dea14cd1aa817bf4ee09c1d5dc948f0f31df517d9734235e7915b0b487d46b3"
        )

    def test_empty_sample_is_domain_error(self):
        with pytest.raises(DomainError):
            forward_sample(single_node(), 0, seed=1)

    def test_out_of_range_state_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(("X",), (("0", "1"),), np.array([[0], [2]]))
        with pytest.raises(ValidationError):
            Dataset(("X",), (("0", "1"),), np.array([[-1]]))
        with pytest.raises(ValidationError):
            Dataset(("X", "Y"), (("0", "1"),) * 2, np.zeros((3, 1), dtype=int))
        mixed = (("0", "1"), ("a", "b", "c"))
        Dataset(("X", "Y"), mixed, np.array([[1, 2]]))
        with pytest.raises(ValidationError):
            Dataset(("X", "Y"), mixed, np.array([[2, 0]]))


class TestEmpiricalJoint:
    def test_point_mass(self):
        ds = forward_sample(single_node(1.0), 1, seed=0)
        f = empirical_joint(ds)
        assert f.values.tolist() == [0.0, 1.0]

    def test_even_split(self):
        ds = Dataset(("X",), (("0", "1"),), np.array([[0], [1], [0], [1]]))
        assert empirical_joint(ds).values.tolist() == [0.5, 0.5]

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            empirical_joint(Dataset(("X",), (("0", "1"),), np.zeros((0, 1), dtype=int)))
