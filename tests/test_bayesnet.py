import gc
import hashlib
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbn import bayesnet
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
    UnknownVariable,
    ValidationError,
    ZeroProbabilityEvidence,
)
from causalbn.graph import Dag
from causalbn.modelfile import (
    BUNDLED_MODELS,
    bundled_model_text,
    load_model,
    parse_model,
    serialize_model,
)

from oracles import (
    brute_do,
    brute_joint,
    brute_query,
    brute_truncated_joint,
    chain,
    random_cpts,
    random_net,
)


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
        with pytest.raises(ValidationError, match="row sum"):
            DiscreteBayesNet(net.dag, net.variables, {"X": Cpt("X", (), [[0.6, 0.3]])})

    def test_parent_mismatch(self):
        good = load_model("fig1_left")
        cpts = dict(good.cpts)
        cpts["Z"] = Cpt("Z", (), [[0.5, 0.5]])
        with pytest.raises(ValidationError, match="parent mismatch"):
            validate(DiscreteBayesNet(good.dag, good.variables, cpts))

    def test_nan_entry_rejected(self):
        net = single_node()
        with pytest.raises(ValidationError, match=r"outside \[0,1\]"):
            DiscreteBayesNet(
                net.dag, net.variables, {"X": Cpt("X", (), [[float("nan"), 0.5]])}
            )

    def test_tables_are_read_only(self):
        net = load_model("fig1_left")
        with pytest.raises(ValueError):
            net.cpts["Z"].table[0, 0] = 0.5
        source = np.array([[0.25, 0.75]])
        cpt = Cpt("X", (), source)
        source[0, 0] = 0.5  # the CPT keeps its own copy
        assert cpt.table[0, 0] == 0.25

    def test_missing_cpt(self):
        good = load_model("fig1_left")
        cpts = {k: v for k, v in good.cpts.items() if k != "Y"}
        with pytest.raises(ValidationError, match="missing CPT"):
            validate(DiscreteBayesNet(good.dag, good.variables, cpts))


class TestImmutable:
    @pytest.mark.parametrize("make", [lambda: load_model("modelD"), two_coins])
    def test_mappings_reject_assignment(self, make):
        net = make()
        node = net.dag.nodes[0]
        with pytest.raises(TypeError):
            net.cpts[node] = Cpt(node, (), [[float("nan"), 0.5]])
        with pytest.raises(TypeError):
            net.variables[node] = Variable(node, ("a", "b"))
        with pytest.raises(TypeError):
            net.dag.parents[node] = ()

    def test_caller_dicts_are_copied(self):
        parents = {"A": (), "B": ()}
        cpts = {n: Cpt(n, (), [[0.5, 0.5]]) for n in "AB"}
        net = DiscreteBayesNet(
            Dag(("A", "B"), parents), {n: Variable(n, ("0", "1")) for n in "AB"}, cpts
        )
        parents["B"] = ("A",)
        cpts["A"] = Cpt("A", (), [[float("nan"), 0.5]])
        assert net.dag.parents["B"] == ()
        assert net.cpts["A"].table[0, 0] == 0.5


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

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(bayesnet, "DEFAULT_SIZE_CAP", 2)
        with pytest.raises(SizeCapExceeded):
            joint(two_coins())


def broadcast_joint(net, do):
    """Full joint of the mutilated model as the product, from 1 and in
    declaration order, of each factor broadcast to every axis."""
    nodes = net.dag.nodes
    values = np.ones([net.card(n) for n in nodes])
    for n in nodes:
        if n in do:
            axes = [n]
            cube = np.zeros(net.card(n))
            cube[net.variables[n].states.index(do[n])] = 1.0
        else:
            axes = [*net.cpts[n].parents, n]
            cube = net.cpts[n].table.reshape([net.card(v) for v in axes])
        cube = cube.transpose(np.argsort([nodes.index(v) for v in axes]))
        values = values * cube.reshape([net.card(v) if v in axes else 1 for v in nodes])
    return values


def random_assignment(rng, net, names):
    return {v: net.variables[v].states[int(rng.integers(net.card(v)))] for v in names}


class TestJointKernel:
    """``joint(net, do, keep=, evidence=)`` against brute-force enumeration."""

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, int(rng.integers(2, 8)), zero_frac=0.3)
        nodes = net.dag.nodes

        def pick(pool):
            size = int(rng.integers(0, min(3, len(pool)) + 1))
            return [str(v) for v in rng.choice(pool, size=size, replace=False)]

        # keep, evidence and do are drawn independently, so they may overlap;
        # one node stays out of ``do`` to be the interventional target
        target = str(rng.choice(nodes))
        keep = pick(nodes)
        ev = random_assignment(rng, net, pick(nodes))
        do = random_assignment(rng, net, pick([v for v in nodes if v != target]))
        f = joint(net, do, keep=keep, evidence=ev)
        scope = tuple(v for v in nodes if v in keep and v not in ev)
        assert f.scope == scope
        expected = np.zeros([net.card(v) for v in scope])
        for cfg, p in brute_truncated_joint(net, do).items():
            assign = dict(zip(nodes, cfg))
            if all(assign[v] == x for v, x in ev.items()):
                expected[tuple(net.variables[v].states.index(assign[v]) for v in scope)] += p
        assert np.max(np.abs(f.values - expected), initial=0.0) < 1e-12

        targets = [v for v in keep if v not in ev]
        try:
            brute = brute_query(net, targets, ev)
        except ZeroDivisionError:
            with pytest.raises(ZeroProbabilityEvidence):
                query(net, targets, ev)
        else:
            post = query(net, targets, ev)
            for idx in np.ndindex(post.values.shape):
                cfg = {v: s[i] for v, s, i in zip(post.scope, post.states, idx)}
                key = tuple(cfg[v] for v in targets)
                assert abs(post.values[idx] - brute.get(key, 0.0)) < 1e-12

        dist = joint(net, do, keep={target})
        for state, p in brute_do(net, target, do).items():
            i = net.variables[target].states.index(state)
            assert abs(dist.values[i] / dist.values.sum() - p) < 1e-12

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_full_scope_is_the_broadcast_product(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, int(rng.integers(1, 8)), zero_frac=0.3)
        nodes = net.dag.nodes
        do = random_assignment(rng, net, [v for v in nodes if rng.random() < 0.3])
        ev = random_assignment(rng, net, [v for v in nodes if rng.random() < 0.3])
        f = joint(net, do, evidence=ev)
        at = tuple(
            net.variables[v].states.index(ev[v]) if v in ev else slice(None) for v in nodes
        )
        assert f.scope == tuple(v for v in nodes if v not in ev)
        assert np.array_equal(f.values, broadcast_joint(net, do)[at])

    def test_bundled_full_joint_is_the_broadcast_product(self):
        for model in BUNDLED_MODELS:
            net = load_model(model)
            for do in [{}] + [{v: net.variables[v].states[0]} for v in net.dag.nodes]:
                assert np.array_equal(joint(net, do).values, broadcast_joint(net, do))

    def test_unknown_names_and_states(self):
        net = load_model("fig1_left")
        for kwargs in (
            {"keep": ["Q"]},
            {"evidence": {"Q": "1"}},
            {"evidence": {"Z": "7"}},
            {"do": {"Q": "1"}},
            {"do": {"Z": "7"}},
        ):
            with pytest.raises(UnknownVariable):
                joint(net, **kwargs)


class TestPrunedSizeCap:
    """The size cap bounds the pruned, evidence-sliced space of a request."""

    def test_long_chain_answers_early_requests(self):
        net = chain(30)  # a 2**30-entry joint, beyond the default cap
        with pytest.raises(SizeCapExceeded):
            joint(net)
        short = chain(4)
        for got, expected in [
            (query(net, ["N2"], {"N1": "1"}), query(short, ["N2"], {"N1": "1"})),
            (query(net, ["N3"]), query(short, ["N3"])),
            (joint(net, {"N1": "0"}, keep={"N3"}), joint(short, {"N1": "0"}, keep={"N3"})),
        ]:
            assert got.scope == expected.scope
            assert np.array_equal(got.values, expected.values)
        # the intervention cuts N28 off from its 28 ancestors
        assert np.array_equal(
            joint(net, {"N28": "0"}, keep={"N29"}).values, net.cpts["N29"].table[0]
        )

    def test_own_space_over_the_cap_raises(self, monkeypatch):
        net = chain(30)
        with pytest.raises(SizeCapExceeded):
            query(net, ["N29"])
        # N0..N9 span exactly the cap; evidence on N11 adds N10
        monkeypatch.setattr(bayesnet, "DEFAULT_SIZE_CAP", 2**10)
        assert joint(net, keep={"N9"}).values.shape == (2,)
        with pytest.raises(SizeCapExceeded):
            joint(net, keep={"N9"}, evidence={"N11": "0"})

    def test_einsum_limits_raise(self, monkeypatch):
        # 53 free variables, more labels than np.einsum has
        monkeypatch.setattr(bayesnet, "DEFAULT_SIZE_CAP", 2**60)
        with pytest.raises(SizeCapExceeded, match="einsum"):
            joint(chain(53))
        # a root observed through many children: few free variables but
        # one factor per child
        for n_children, ok in ((60, True), (61, False)):
            kids = tuple(f"C{i}" for i in range(n_children))
            dag = Dag.from_edges(("R", *kids), [("R", c) for c in kids])
            cpts = {"R": Cpt("R", (), [[0.5, 0.5]])}
            cpts.update({c: Cpt(c, ("R",), [[0.9, 0.1], [0.2, 0.8]]) for c in kids})
            variables = {v: Variable(v, ("0", "1")) for v in dag.nodes}
            net = DiscreteBayesNet(dag, variables, cpts)
            evidence = {c: "1" for c in kids}
            if ok:
                assert query(net, ["R"], evidence).values[1] > 0.999
            else:
                with pytest.raises(SizeCapExceeded, match="einsum"):
                    query(net, ["R"], evidence)


def random_request(rng, net):
    """(do, keep, evidence) drawn independently, so they may overlap."""
    nodes = net.dag.nodes

    def pick():
        return [v for v in nodes if rng.random() < 0.3]

    keep = None if rng.random() < 0.2 else pick()
    return random_assignment(rng, net, pick()), keep, random_assignment(rng, net, pick())


class TestJointCache:
    """A network keeps the tables ``joint`` contracts and returns them again."""

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_kept_tables_equal_fresh_contractions(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, int(rng.integers(2, 7)), zero_frac=0.3)
        text = serialize_model(net)
        requests = [random_request(rng, net) for _ in range(6)]
        # every request twice, interleaved, so a kept table answering
        # another request's key shows
        for do, keep, ev in requests + requests[::-1]:
            got = joint(net, do, keep=keep, evidence=ev)
            fresh = joint(parse_model(text), do, keep=keep, evidence=ev)
            assert got.scope == fresh.scope and got.states == fresh.states
            assert np.array_equal(got.values, fresh.values)

    def test_tables_are_read_only(self):
        net = parse_model(bundled_model_text("modelD"))
        for _ in range(2):
            for f in (joint(net, keep={"Y"}), joint(net, keep=(), evidence={"Y": "1"})):
                with pytest.raises(ValueError, match="read-only"):
                    f.values[...] = 0.5

    def test_size_cap_is_read_on_every_call(self, monkeypatch):
        net = chain(5)
        full = joint(net)
        # N2's table has 2 entries, but its contraction runs over N0..N2
        part = joint(net, keep={"N2"})
        for cap, request in ((31, {}), (7, {"keep": {"N2"}})):
            monkeypatch.setattr(bayesnet, "DEFAULT_SIZE_CAP", cap)
            for _ in range(2):
                with pytest.raises(SizeCapExceeded):
                    joint(net, **request)
        # the refusals were not kept; the kept tables answer again
        monkeypatch.setattr(bayesnet, "DEFAULT_SIZE_CAP", 32)
        assert joint(net) is full and joint(net, keep={"N2"}) is part

    def test_unknown_names_and_states_raise_on_every_call(self):
        net = parse_model(bundled_model_text("fig1_left"))
        known = {"do": {"Z": "0"}, "keep": {"Y"}, "evidence": {"X": "1"}}
        joint(net, **known)
        for change in (
            {"do": {"Z": "7"}},
            {"do": {"Q": "0"}},
            {"keep": {"Y", "Q"}},
            {"evidence": {"X": "7"}},
            {"evidence": {"Q": "1"}},
        ):
            for _ in range(2):
                with pytest.raises(UnknownVariable):
                    joint(net, **{**known, **change})

    def test_kept_entries_never_exceed_the_bound(self, monkeypatch):
        monkeypatch.setattr(bayesnet, "JOINT_CACHE_ENTRIES", 24)

        # a small charge that grows with the key, so that the small bound
        # still keeps a few tables
        def charge(key, g):
            return g.values.size + 3 + sum(len(part) for part in key)

        monkeypatch.setattr(bayesnet, "_charge", charge)
        rng = np.random.default_rng(11)
        net = random_net(rng, 6)
        pool = [random_request(rng, net) for _ in range(20)]
        seen = {"hit": 0, "past the bound": 0, "evicted": 0}
        for i in rng.integers(len(pool), size=300):
            do, keep, ev = pool[i]
            before = dict(net._tables)
            f = joint(net, do, keep=keep, evidence=ev)
            kept = net._tables
            assert kept.entries == sum(charge(k, g) for k, (_, g) in kept.items()) <= 24
            key = (
                frozenset(net.dag.nodes if keep is None else keep),
                frozenset(do.items()),
                frozenset(ev.items()),
            )
            if any(f is g for _, g in before.values()):
                seen["hit"] += 1
                assert list(kept) == list(before)
            elif charge(key, f) > 24:
                seen["past the bound"] += 1
                assert list(kept) == list(before)
            else:
                # the new table is kept last, and what made room for it is
                # the oldest
                *rest, last = kept
                assert kept[last][1] is f
                old = list(before)
                assert rest == old[len(old) - len(rest) :]
                seen["evicted"] += len(rest) < len(old)
        assert all(seen.values()), seen

    def test_threads_storing_at_once_keep_the_count(self, monkeypatch):
        monkeypatch.setattr(bayesnet, "JOINT_CACHE_ENTRIES", 24)
        monkeypatch.setattr(bayesnet, "_charge", lambda key, g: g.values.size + 3)
        net = two_coins()
        coin = joint(net, keep={"A"})
        keys = [("request", i) for i in range(64)]
        # every thread stores the same keys in the same order, so they
        # test, store and evict the same entries at about the same time
        start = threading.Barrier(8)
        errors = []

        def work():
            try:
                start.wait()
                for _ in range(150):
                    for key in keys:
                        net._tables.put(key, 2, coin)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        kept = net._tables
        assert kept.entries == sum(g.values.size + 3 for _, g in kept.values()) <= 24

    def test_tiny_tables_are_charged_their_overhead(self):
        net = chain(12)
        requests = itertools.islice(itertools.product("01", repeat=12), 4000)
        for states in requests:
            f = joint(net, keep=(), evidence=dict(zip(net.dag.nodes, states)))
            assert f.values.size == 1
        kept = net._tables
        # one entry, the fixed overhead, the evidence set and its 12 pairs
        held = sys.getsizeof(frozenset(range(12))) + 12 * sys.getsizeof(("N0", "0"))
        charge = 1 + bayesnet._TABLE_OVERHEAD + held // 8
        assert len(kept) == 2**16 // charge
        assert kept.entries == len(kept) * charge <= 2**16

    def test_keys_share_the_empty_set(self):
        net = chain(4)
        for request in ({}, {"keep": ()}, {"keep": (), "evidence": {"N1": "0"}}):
            joint(net, **request)
        # 2 + 3 + 2 empty sets of keep, do and evidence
        empty = [part for key in net._tables for part in key if not part]
        assert len(empty) == 7 and all(part is empty[0] for part in empty)

    @pytest.mark.parametrize("pairs", [1, 2, 3, 4, 5, 6, 11, 12])
    def test_charge_covers_the_measured_bytes(self, monkeypatch, pairs):
        """tracemalloc's bytes per kept one-entry table of a fresh 12-node
        chain stay within 8 bytes per charged entry.  Every request is
        distinct, and there are at least 24 of them, so the store's own first
        allocation, made once per network, is spread thin."""
        monkeypatch.setattr(bayesnet, "JOINT_CACHE_ENTRIES", 2**30)  # keep them all
        net = chain(12)
        rng = np.random.default_rng(pairs)
        requests = {}
        while len(requests) < min(200, 2**pairs * math.comb(12, pairs)):
            names = rng.choice(net.dag.nodes, size=pairs, replace=False)
            evidence = {str(v): str(rng.integers(2)) for v in names}
            requests[frozenset(evidence.items())] = evidence
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for evidence in requests.values():
                joint(net, keep=(), evidence=evidence)
            gc.collect()
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(net._tables) == len(requests)
        held = sys.getsizeof(frozenset(range(pairs))) + pairs * sys.getsizeof(("N0", "0"))
        charge = 1 + bayesnet._TABLE_OVERHEAD + held // 8
        assert len(requests) >= 24 and used / len(requests) <= 8 * charge

    def test_a_table_past_the_bound_is_returned_not_kept(self):
        net = chain(17)  # 2**17 entries, past the default bound of 2**16
        assert bayesnet.JOINT_CACHE_ENTRIES < 2**17
        first, second = joint(net), joint(net)
        assert first.values.shape == (2,) * 17 and first is not second
        assert np.array_equal(first.values, second.values)
        assert len(net._tables) == 0 and net._tables.entries == 0

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_children_map_is_stored_read_only(self, seed):
        rng = np.random.default_rng(seed)
        dag = random_net(rng, int(rng.integers(1, 9))).dag
        children = dag.children_map()
        assert dag.children_map() is children
        assert dict(children) == {
            n: tuple(c for c in dag.nodes if n in dag.parents[c]) for n in dag.nodes
        }
        with pytest.raises(TypeError):
            children[dag.nodes[0]] = ()


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


class TestConditional:
    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_query(self, seed):
        # several targets, a given order unrelated to the scope order, and
        # CPT zeros so that some given configurations have weight 0
        rng = np.random.default_rng(seed)
        net = random_net(rng, int(rng.integers(2, 7)), zero_frac=0.3)
        names = [str(v) for v in rng.permutation(net.dag.nodes)]
        k = int(rng.integers(1, min(3, len(names)) + 1))
        target, given_ = names[:k], names[k : k + int(rng.integers(0, 3))]
        table, weight = joint(net).conditional(target, given_)
        assert table.shape == tuple(net.card(v) for v in given_ + target)
        assert np.shape(weight) == table.shape[: len(given_)]
        col = {v: i for i, v in enumerate(net.dag.nodes)}
        brute = brute_joint(net)
        states = [net.variables[v].states for v in given_ + target]
        for g_idx in itertools.product(*(range(len(s)) for s in states[: len(given_)])):
            ev = {v: states[j][i] for j, (v, i) in enumerate(zip(given_, g_idx))}
            p_ev = sum(p for cfg, p in brute.items() if all(cfg[col[v]] == x for v, x in ev.items()))
            assert abs(weight[g_idx] - p_ev) < 1e-12
            if p_ev == 0:
                assert not table[g_idx].any()
                continue
            expected = brute_query(net, target, ev)
            for t_idx in itertools.product(*(range(len(s)) for s in states[len(given_) :])):
                key = tuple(states[len(given_) + j][i] for j, i in enumerate(t_idx))
                assert abs(table[g_idx + t_idx] - expected.get(key, 0.0)) < 1e-12

    def test_given_order_sets_the_axes(self):
        f = joint(load_model("modelD"))
        zu, w_zu = f.conditional(["Y", "W"], ["Z", "U"])
        uz, w_uz = f.conditional(["Y", "W"], ["U", "Z"])
        assert np.array_equal(zu, uz.transpose(1, 0, 2, 3))
        assert np.array_equal(w_zu, w_uz.T)
        yw, _ = f.conditional(["W", "Y"], ["Z", "U"])
        assert np.array_equal(zu, yw.transpose(0, 1, 3, 2))


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

    def test_layout_on_bundled_models(self):
        # one contiguous column per node, one byte per state index
        for name in BUNDLED_MODELS:
            rows = forward_sample(load_model(name), 50, seed=1).rows
            assert rows.flags.f_contiguous and rows.dtype == np.uint8, name

    def test_300_state_node(self):
        dag = Dag.from_edges(("A", "B"), [("A", "B")])
        net = random_cpts(dag, np.random.default_rng(300), cards={"A": 300, "B": 2})
        ds = self.check(net, 2000, seed=6)
        assert ds.rows.dtype == np.uint16

    def test_row_layouts_agree(self):
        sampled = forward_sample(labelled_net(), 3000, seed=12)
        base = sampled.rows.astype(np.int64)
        layouts = {
            "C int64": np.ascontiguousarray(base),
            "F uint8": np.asfortranarray(base, dtype=np.uint8),
            "int8": base.astype(np.int8),
            "uint64": base.astype(np.uint64),
            "strided view": np.repeat(base, 2, axis=1)[:, ::2],
        }
        assert not layouts["strided view"].flags.c_contiguous
        expected = Dataset(sampled.columns, sampled.states, base)
        for name, rows in layouts.items():
            ds = Dataset(sampled.columns, sampled.states, rows)
            assert ds.to_csv() == expected.to_csv() == reference_csv(expected), name
            assert np.array_equal(empirical_joint(ds).values, empirical_joint(expected).values)

    def test_uint8_codes_past_255(self):
        # 12 binary columns: codes reach 4095, which a uint8 accumulator would wrap
        rng = np.random.default_rng(12)
        rows = rng.integers(0, 2, size=(2000, 12)).astype(np.uint8)
        rows[0] = 1
        ds = Dataset(tuple(f"V{j}" for j in range(12)), (("off", "on"),) * 12, rows)
        assert ds.to_csv() == reference_csv(ds)
        counts = empirical_joint(ds).values * len(ds)
        assert counts[(1,) * 12] == sum(r == [1] * 12 for r in rows.tolist())

    @pytest.mark.parametrize(
        "rows", [np.array([[0.5]]), np.array([[0.0], [1.0]]), np.array([[False], [True]])],
        ids=["fraction", "whole-floats", "bool"],
    )
    def test_non_integer_rows_rejected(self, rows):
        with pytest.raises(ValidationError, match="integers"):
            Dataset(("X",), (("0", "1"),), rows)

    def test_uint64_rows_keep_full_code_width(self):
        # uint64 columns are added in int64: int64 + uint64 would promote to
        # float64 and merge codes near 2**63 that differ in the last column
        rng = np.random.default_rng(9)
        card = 2**21
        labels = tuple(str(i) for i in range(card))
        rows = rng.integers(0, card - 1, size=(40, 4)).astype(np.uint64)
        rows[1::2] = rows[::2]
        rows[1::2, 2] += 1
        ds = Dataset(("P", "Q", "R", "S"), (labels,) * 4, rows)
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

    def test_size_cap(self, monkeypatch):
        rows = np.zeros((3, 4), dtype=np.uint8)
        ds = Dataset(tuple("ABCD"), (("0", "1"),) * 4, rows)
        monkeypatch.setattr(bayesnet, "DEFAULT_SIZE_CAP", 2**4)
        assert empirical_joint(ds).values.shape == (2,) * 4
        monkeypatch.setattr(bayesnet, "DEFAULT_SIZE_CAP", 2**4 - 1)
        with pytest.raises(SizeCapExceeded, match="empirical joint"):
            empirical_joint(ds)
