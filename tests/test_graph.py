import random
from fractions import Fraction

import pytest

import odeobs.conserved
import odeobs.graph as graph_module
import odeobs.report
from odeobs.expr import Const, Symbol, add, diff, ln, mul, neg, parse_expr, sym, to_str
from odeobs.graph import (
    InferenceGraph,
    build_graph,
    export_dot,
    forward_closure,
    graphical_observable,
    minimal_sensor_sets,
    scc_condensation,
)
from odeobs.model import OdeSystem, parse_model, reduce_by_conserved, verify_all_conserved
from odeobs.poly import is_zero
from odeobs.report import build_report

from conftest import random_expr
from test_generated_reports import chain, twin


def names(symbols):
    return [s.name for s in symbols]


def comp_names(comps):
    return [tuple(s.name for s in comp) for comp in comps]


class TestBuildGraph:
    def test_sir_edges(self, sir):
        g = build_graph(sir)
        assert g.edge_names() == (
            ("S", "S"),
            ("S", "I"),
            ("I", "S"),
            ("I", "I"),
            ("R", "I"),
        )
        # R has no incoming edge
        assert all(dst.name != "R" for _, dst in g.edges)

    def test_transformed_sir_has_infected_as_only_source(self, sir):
        verified, _ = verify_all_conserved(sir)
        red = reduce_by_conserved(verified, verified.conserved[0], sir.state_named("I"))
        c = scc_condensation(build_graph(red))
        assert comp_names(c.root_components()) == [("I",)]

    def test_mm_product_is_only_source(self, mm):
        c = scc_condensation(build_graph(mm))
        assert comp_names(c.root_components()) == [("p",)]

    def test_cancelled_variable_creates_no_edge(self):
        x, y = Symbol("x", "state"), Symbol("y", "state")
        table = {"x": x, "y": y}
        sys = OdeSystem(
            name="cancel",
            states=(x, y),
            params=(),
            rhs=(parse_expr("y + x - x", table), parse_expr("y", table)),
        )
        g = build_graph(sys)
        assert g.edge_names() == (("x", "y"), ("y", "y"))

    def test_edges_are_nonzero_partial_derivatives(self):
        # independent oracle: x_j enters dx_i/dt iff d(rhs_i)/dx_j is not zero,
        # tested variable by variable
        rng = random.Random(59)
        states = tuple(Symbol(n, "state") for n in ("x", "y", "z"))
        k = Symbol("a", "parameter")
        symbols = states + (k,)
        for trial in range(40):
            rhs = []
            for _ in states:
                e = random_expr(rng, depth=3, symbols=symbols, allow_ln=trial % 4 == 0)
                v = sym(rng.choice(states))
                rhs.append(add(e, mul(v, sym(k)), neg(mul(v, sym(k)))))  # v cancels
            sys = OdeSystem(name="random", states=states, params=(k,), rhs=tuple(rhs))
            expected = tuple(
                (src, dst)
                for src, f in zip(states, rhs)
                for dst in states
                if not is_zero(diff(f, dst)).is_zero_like
            )
            assert build_graph(sys).edges == expected

    def test_transcendental_rhs_uses_sampled_dependence(self):
        x, y = Symbol("x", "state"), Symbol("y", "state")
        rhs = (add(ln(sym(y)), neg(ln(sym(y))), sym(x)), mul(ln(sym(x)), sym(y)))
        sys = OdeSystem(name="logs", states=(x, y), params=(), rhs=rhs)
        assert build_graph(sys).edge_names() == (("x", "x"), ("y", "x"), ("y", "y"))

    def test_undecidable_dependence_keeps_the_edge(self):
        x, k = Symbol("x", "state"), Symbol("k", "parameter")
        rhs = (parse_expr("x*ln(x)/(k - k)", (x, k)),)
        sys = OdeSystem(name="pole", states=(x,), params=(k,), rhs=rhs)
        assert build_graph(sys).edge_names() == (("x", "x"),)

    @pytest.mark.parametrize(
        "text, edges",
        [
            ("ln(1/(x - x))", (("y", "y"),)),
            ("1/(y - y) + ln(x)", (("x", "x"), ("y", "y"))),
        ],
    )
    def test_pole_beside_ln_takes_the_sampled_test(self, text, edges):
        # ln/exp chooses the sampled test before any expansion, so a
        # rational pole is never expanded, wherever it sits
        x, y = Symbol("x", "state"), Symbol("y", "state")
        f = parse_expr(text, (x, y))
        sys = OdeSystem(name="pole", states=(x, y), params=(), rhs=(f, sym(y)))
        sampled = tuple(
            ("x", v.name) for v in (x, y) if not is_zero(diff(f, v)).is_zero_like
        )
        assert build_graph(sys).edge_names() == sampled + (("y", "y"),) == edges

    def test_scaling_invariance(self, sir):
        scaled = OdeSystem(
            name="scaled",
            states=sir.states,
            params=sir.params,
            rhs=tuple(mul(Const(Fraction(5)), f) for f in sir.rhs),
        )
        assert build_graph(scaled).edges == build_graph(sir).edges


class TestDependencyMemo:
    def _record(self, monkeypatch):
        normalized, graphs = [], []
        normalize, build = graph_module.normalize_rational, graph_module.build_graph

        def recording_normalize(e, *args):
            normalized.append(e)  # held, so no memo entry dies during the reports
            return normalize(e, *args)

        def recording_build(sys, seed=0):
            g = build(sys, seed)
            graphs.append((sys, seed, g))
            return g

        monkeypatch.setattr(graph_module, "normalize_rational", recording_normalize)
        for module in (odeobs.report, odeobs.conserved):
            monkeypatch.setattr(module, "build_graph", recording_build)
        return normalized, graphs

    def test_each_distinct_rhs_is_normalized_once(self, monkeypatch):
        normalized, graphs = self._record(monkeypatch)
        for text in (chain(6), chain(7), twin(3)):
            build_report(parse_model(text), seed=1)
        assert graphs and normalized
        assert len({to_str(e) for e in normalized}) == len(normalized)
        for sys, seed, g in graphs:
            expected = tuple(
                (src, dst)
                for src, f in zip(sys.states, sys.rhs)
                for dst in sys.states
                if not is_zero(diff(f, dst), seed=seed).is_zero_like
            )
            assert g.edges == expected

    def test_transcendental_rhs_is_sampled_at_every_seed(self, monkeypatch):
        normalized, _ = self._record(monkeypatch)
        sampled = []
        nonzero = graph_module._nonzero

        def recording_nonzero(e, seed):
            sampled.append(seed)
            return nonzero(e, seed)

        monkeypatch.setattr(graph_module, "_nonzero", recording_nonzero)
        x, y = Symbol("x", "state"), Symbol("y", "state")
        rhs = (mul(ln(sym(x)), sym(y)), sym(x))
        sys = OdeSystem(name="logs", states=(x, y), params=(), rhs=rhs)
        for seed in (0, 1):
            assert build_graph(sys, seed).edge_names() == (("x", "x"), ("x", "y"), ("y", "x"))
        assert sampled == [0, 0, 1, 1]
        # at most once each: ln(x)*y is remembered to have no rational form
        assert all(normalized.count(f) <= 1 for f in rhs)


class TestCondensation:
    def test_toy_roots(self, toy):
        c = scc_condensation(build_graph(toy))
        assert comp_names(c.components) == [("R",), ("S",)]
        assert comp_names(c.root_components()) == [("S",)]

    def test_lv_single_complete_component(self, lv):
        c = scc_condensation(build_graph(lv))
        assert comp_names(c.components) == [("r", "m")]
        assert c.roots == (0,)

    def test_edgeless_graph_all_roots(self):
        nodes = tuple(Symbol(n, "state") for n in ("u", "v", "w"))
        g = InferenceGraph(nodes=nodes, edges=())
        c = scc_condensation(g)
        assert len(c.roots) == 3

    def test_condensation_is_acyclic(self):
        # topological sort must consume every component
        rng = random.Random(71)
        for _ in range(100):
            g = _random_graph(rng)
            c = scc_condensation(g)
            incoming = {i: 0 for i in range(len(c.components))}
            for _, dst in c.dag_edges:
                incoming[dst] += 1
            frontier = [i for i, d in incoming.items() if d == 0]
            seen = 0
            while frontier:
                node = frontier.pop()
                seen += 1
                for src, dst in c.dag_edges:
                    if src == node:
                        incoming[dst] -= 1
                        if incoming[dst] == 0:
                            frontier.append(dst)
            assert seen == len(c.components)

    def test_long_paths_need_no_recursion(self):
        # x_i depends on x_(i-1), declared from x5000 down: the search from
        # the first node runs 5000 deep
        xs = [Symbol(f"x{i}", "state") for i in range(1, 5001)]
        nodes = tuple(reversed(xs))
        chain = tuple((b, a) for a, b in zip(xs, xs[1:]))
        c = scc_condensation(InferenceGraph(nodes=nodes, edges=chain))
        assert c.components == tuple((x,) for x in nodes)
        assert c.dag_edges == tuple((i, i + 1) for i in range(4999))
        assert c.roots == (0,)
        ring = chain + ((xs[0], xs[-1]),)
        c = scc_condensation(InferenceGraph(nodes=nodes, edges=ring))
        assert c.components == (nodes,)
        assert (c.dag_edges, c.roots) == ((), (0,))

    def test_against_brute_force_scc_oracle(self):
        rng = random.Random(73)
        for _ in range(120):
            g = _random_graph(rng)
            c = scc_condensation(g)
            expected_comps, expected_roots = _brute_force_condensation(g)
            assert set(map(frozenset, c.components)) == expected_comps
            got_roots = {frozenset(c.components[i]) for i in c.roots}
            assert got_roots == expected_roots


class TestSensorMenus:
    def test_sir_menu(self, sir):
        menu = minimal_sensor_sets(scc_condensation(build_graph(sir)))
        assert [s.names() for s in menu.sets] == [("R",)]
        assert not menu.truncated

    def test_lv_menu(self, lv):
        menu = minimal_sensor_sets(scc_condensation(build_graph(lv)))
        assert [s.names() for s in menu.sets] == [("r",), ("m",)]

    def test_mm_reduction_menus(self, mm):
        verified, _ = verify_all_conserved(mm)
        red_e = reduce_by_conserved(
            verified, verified.conserved_named("E0"), mm.state_named("e")
        )
        menu_e = minimal_sensor_sets(scc_condensation(build_graph(red_e)))
        assert [s.names() for s in menu_e.sets] == [("e", "p")]
        red_c = reduce_by_conserved(
            verified, verified.conserved_named("S0"), mm.state_named("c")
        )
        menu_c = minimal_sensor_sets(scc_condensation(build_graph(red_c)))
        assert [s.names() for s in menu_c.sets] == [("c",)]

    def test_cardinality_is_product_of_root_sizes(self):
        rng = random.Random(79)
        for _ in range(60):
            g = _random_graph(rng)
            c = scc_condensation(g)
            menu = minimal_sensor_sets(c)
            expected = 1
            for comp in c.root_components():
                expected *= len(comp)
            assert len(menu.sets) == expected

    def test_truncation_flag(self):
        # 14 two-node cycles, each its own source component: 2**14 = 16,384 choices
        nodes = tuple(Symbol(f"v{i:02d}", "state") for i in range(28))
        edges = tuple(
            edge
            for a, b in zip(nodes[::2], nodes[1::2])
            for edge in ((a, b), (b, a))
        )
        c = scc_condensation(InferenceGraph(nodes=nodes, edges=edges))
        assert len(c.roots) == 14
        menu = minimal_sensor_sets(c)
        assert menu.truncated and len(menu.sets) == graph_module.DEFAULT_SENSOR_SET_CAP == 10_000


    def test_empty_graph_has_an_empty_menu(self):
        menu = minimal_sensor_sets(scc_condensation(InferenceGraph(nodes=(), edges=())))
        assert (menu.sets, menu.truncated) == ((), False)


class TestGraphicalObservable:
    def test_sir_infected_only_insufficient(self, sir):
        c = scc_condensation(build_graph(sir))
        verdict = graphical_observable(c, [sir.state_named("I")])
        assert not verdict.sufficient
        assert comp_names(verdict.missing_roots) == [("R",)]

    def test_sir_recovered_sufficient(self, sir):
        c = scc_condensation(build_graph(sir))
        assert graphical_observable(c, [sir.state_named("R")]).sufficient

    def test_mm_enzyme_reduction_needs_both(self, mm):
        verified, _ = verify_all_conserved(mm)
        red = reduce_by_conserved(
            verified, verified.conserved_named("E0"), mm.state_named("e")
        )
        c = scc_condensation(build_graph(red))
        both = graphical_observable(c, [mm.state_named("e"), mm.state_named("p")])
        assert both.sufficient
        only_p = graphical_observable(c, [mm.state_named("p")])
        assert not only_p.sufficient

    def test_matches_root_cover_oracle_on_random_graphs(self):
        rng = random.Random(83)
        for _ in range(80):
            g = _random_graph(rng, max_nodes=6)
            c = scc_condensation(g)
            _, roots = _brute_force_condensation(g)
            node_list = list(g.nodes)
            observed = {n for n in node_list if rng.random() < 0.4}
            verdict = graphical_observable(c, observed)
            expected = all(root & observed for root in roots)
            assert verdict.sufficient == expected

    def test_equivalent_to_full_reachability_on_random_graphs(self):
        # sufficiency <=> every node lies in the observed nodes' closure
        # along the graph's own edge direction
        rng = random.Random(87)
        for _ in range(80):
            g = _random_graph(rng, max_nodes=8)
            c = scc_condensation(g)
            observed = {n for n in g.nodes if rng.random() < 0.35}
            verdict = graphical_observable(c, observed)
            closure = forward_closure(g, observed)
            assert verdict.sufficient == (closure == set(g.nodes))


class TestDot:
    def test_sir_dot_structure(self, sir):
        g = build_graph(sir)
        c = scc_condensation(g)
        dot = export_dot(g, c)
        assert dot.startswith("digraph inference {")
        assert dot.count(" -> ") == 5
        assert "R [root=true, penwidth=2];" in dot
        assert dot.count("subgraph cluster_") == 2

    def test_deterministic_output(self, mm):
        g = build_graph(mm)
        c = scc_condensation(g)
        assert export_dot(g, c) == export_dot(g, c)

    def test_empty_graph(self):
        g = InferenceGraph(nodes=(), edges=())
        assert export_dot(g, scc_condensation(g)) == "digraph {\n}\n"

    def test_keyword_names_are_quoted(self):
        text = "model: m\nparams: a\nstates: node, Edge\ndnode/dt = a*Edge\ndEdge/dt = -a*node\n"
        g = build_graph(parse_model(text))
        dot = export_dot(g, scc_condensation(g))
        assert '    "node" [root=true, penwidth=2];' in dot
        assert '    "Edge" [root=true, penwidth=2];' in dot
        assert '  "node" -> "Edge";' in dot
        assert '  "Edge" -> "node";' in dot
        for name in ("node", "Edge"):
            assert name not in dot.replace(f'"{name}"', "")

    def test_mm_full_dot(self, mm):
        g = build_graph(mm)
        dot = export_dot(g, scc_condensation(g))
        assert "p [root=true, penwidth=2];" in dot
        for n in ("e", "s", "c"):
            assert f"    {n};" in dot


class TestForwardClosure:
    def test_sir_observed_infected_misses_recovered(self, sir):
        g = build_graph(sir)
        closure = forward_closure(g, [sir.state_named("I")])
        assert {s.name for s in closure} == {"S", "I"}

    def test_sir_observed_recovered_reaches_all(self, sir):
        g = build_graph(sir)
        closure = forward_closure(g, [sir.state_named("R")])
        assert {s.name for s in closure} == {"S", "I", "R"}


# ---------------------------------------------------------------------------
# helpers


def _random_graph(rng: random.Random, max_nodes: int = 8) -> InferenceGraph:
    n = rng.randint(1, max_nodes)
    nodes = tuple(Symbol(f"v{i}", "state") for i in range(n))
    edges = []
    for a in nodes:
        for b in nodes:
            if rng.random() < 0.25:
                edges.append((a, b))
    return InferenceGraph(nodes=nodes, edges=tuple(edges))


def _brute_force_condensation(g: InferenceGraph):
    """Pairwise-reachability SCCs and source components, no Tarjan involved."""
    nodes = list(g.nodes)
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for a, b in g.edges:
        reach[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    comps = set()
    for i in range(n):
        members = frozenset(
            nodes[j] for j in range(n) if reach[i][j] and reach[j][i]
        )
        comps.add(members)
    roots = set()
    for comp in comps:
        incoming = any(
            (a not in comp) and (b in comp) for a, b in g.edges
        )
        if not incoming:
            roots.add(comp)
    return comps, roots
