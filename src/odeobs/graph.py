"""Inference graph of an ODE system, SCC condensation, sensor menus.

The graph has an edge x_i -> x_j whenever x_j genuinely enters the equation
for x_i.  Dependence is semantic, not textual: a variable that cancels
identically creates no edge.  A variable must be observed in every source
component (an SCC of the condensation with no incoming edge), and choosing
one variable per source component is both minimal and, structurally,
sufficient; the rank test is the authoritative local check.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

from .expr import Expr, ExprError, Symbol, diff, free_symbols, has_ln_exp
from .model import OdeSystem
from .poly import ZeroTestUndecidedError, is_zero, rational_symbol_sets

DEFAULT_SENSOR_SET_CAP = 10_000


class InferenceGraph(NamedTuple):
    nodes: Tuple[Symbol, ...]
    edges: Tuple[Tuple[Symbol, Symbol], ...]  # sorted by node order, deterministic

    def edge_names(self) -> Tuple[Tuple[str, str], ...]:
        return tuple((a.name, b.name) for a, b in self.edges)


class Condensation(NamedTuple):
    components: Tuple[Tuple[Symbol, ...], ...]  # each in state order
    dag_edges: Tuple[Tuple[int, int], ...]  # indices into components
    roots: Tuple[int, ...]  # component indices with no incoming edge

    def root_components(self) -> Tuple[Tuple[Symbol, ...], ...]:
        return tuple(self.components[i] for i in self.roots)


class SensorSet(NamedTuple):
    variables: frozenset

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(s.name for s in self.variables))


class SensorMenu(NamedTuple):
    sets: Tuple[SensorSet, ...]
    truncated: bool


class GraphicalVerdict(NamedTuple):
    sufficient: bool
    missing_roots: Tuple[Tuple[Symbol, ...], ...]


# rational rhs -> the symbols its rational form depends on.  Nodes are
# interned, so a system that shares an equation with another (a reduced
# system keeps its unchanged ones) shares its entry; an entry lives as long
# as its rhs.  rational_symbol_sets writes the entries, and build_graph
# reads its edges from them: the memo is the only hand-off between the two.
_rational_dependencies = weakref.WeakKeyDictionary()


def _nonzero(e: Expr, seed: int) -> bool:
    """Whether ``e`` is not identically zero; an undecided test says yes, as
    an edge kept that may be absent is the conservative error."""
    try:
        return not is_zero(e, seed=seed).is_zero_like
    except ZeroTestUndecidedError:
        return True


def build_graph(sys: OdeSystem, seed: int = 0) -> InferenceGraph:
    """Edge x_i -> x_j iff x_j enters dx_i/dt after simplification.

    The rational equations that mention a state and have no memo entry go
    through one :func:`rational_symbol_sets` pass first, whose error is
    held.  The equations are then read in order: an ln/exp one tests the
    states it mentions in state order, a rational one reads its entry, and
    the first rational one with no entry is the one whose pass failed, so
    the held error is raised there.  A system thus raises the error of its
    first failing equation, as one test per equation would.
    """
    states = frozenset(sys.states)
    pending = [
        e
        for e in dict.fromkeys(sys.rhs)
        if not (has_ln_exp(e) or e in _rational_dependencies or free_symbols(e).isdisjoint(states))
    ]
    error = None
    try:
        if pending:
            rational_symbol_sets(pending, _rational_dependencies)
    except ExprError as failure:
        error = failure
    edges = []
    for src, rhs in zip(sys.states, sys.rhs):
        mentioned = free_symbols(rhs)
        if mentioned.isdisjoint(states):
            continue
        if has_ln_exp(rhs):
            edges.extend(
                (src, dst) for dst in sys.states if dst in mentioned and _nonzero(diff(rhs, dst), seed)
            )
            continue
        deps = _rational_dependencies.get(rhs)
        if deps is None:
            raise error
        edges.extend((src, dst) for dst in sys.states if dst in deps)
    return InferenceGraph(nodes=sys.states, edges=tuple(edges))


def scc_condensation(g: InferenceGraph) -> Condensation:
    """Tarjan's strongly connected components plus the condensation DAG.

    The depth-first search keeps its own stack of (node, successor iterator)
    frames, so a long path costs no Python recursion.
    """
    succ: Dict[Symbol, List[Symbol]] = {n: [] for n in g.nodes}
    for a, b in g.edges:
        succ[a].append(b)
    index_of: Dict[Symbol, int] = {}
    lowlink: Dict[Symbol, int] = {}
    on_stack: Set[Symbol] = set()
    stack: List[Symbol] = []
    sccs: List[Set[Symbol]] = []
    for root in g.nodes:
        if root in index_of:
            continue
        index_of[root] = lowlink[root] = len(index_of)
        stack.append(root)
        on_stack.add(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            v, successors = frames[-1]
            for w in successors:
                if w not in index_of:
                    index_of[w] = lowlink[w] = len(index_of)
                    stack.append(w)
                    on_stack.add(w)
                    frames.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index_of[w])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index_of[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    sccs.append(comp)

    node_order = {s: i for i, s in enumerate(g.nodes)}
    ordered = sorted(
        (tuple(sorted(comp, key=lambda s: node_order[s])) for comp in sccs),
        key=lambda comp: node_order[comp[0]],
    )
    comp_of = {node: i for i, comp in enumerate(ordered) for node in comp}
    dag_edges = sorted(
        {
            (comp_of[a], comp_of[b])
            for a, b in g.edges
            if comp_of[a] != comp_of[b]
        }
    )
    has_incoming = {dst for _, dst in dag_edges}
    roots = tuple(i for i in range(len(ordered)) if i not in has_incoming)
    return Condensation(tuple(ordered), tuple(dag_edges), roots)


def minimal_sensor_sets(c: Condensation) -> SensorMenu:
    """All ways to pick one variable from each source component, stopping at
    ``DEFAULT_SENSOR_SET_CAP`` sets (the menu is then ``truncated``)."""
    roots = c.root_components()
    if not roots:
        return SensorMenu((), False)
    sets: List[SensorSet] = []
    truncated = False
    for choice in itertools.product(*roots):
        if len(sets) >= DEFAULT_SENSOR_SET_CAP:
            truncated = True
            break
        sets.append(SensorSet(frozenset(choice)))
    return SensorMenu(tuple(sets), truncated)


def graphical_observable(c: Condensation, observed: Iterable[Symbol]) -> GraphicalVerdict:
    """Structurally sufficient iff every source component is observed."""
    observed = set(observed)
    missing = tuple(
        comp for comp in c.root_components() if not observed & set(comp)
    )
    return GraphicalVerdict(sufficient=not missing, missing_roots=missing)


_DOT_KEYWORDS = frozenset(("node", "edge", "graph", "digraph", "subgraph", "strict"))


def export_dot(g: InferenceGraph, c: Condensation) -> str:
    """Deterministic DOT rendering; SCCs as clusters, source SCCs marked."""
    if not g.nodes:
        return "digraph {\n}\n"
    root_nodes = {n for i in c.roots for n in c.components[i]}
    # a DOT keyword (in any case) as a bare ID would start a statement
    ids = {n: f'"{n.name}"' if n.name.lower() in _DOT_KEYWORDS else n.name for n in g.nodes}
    lines = ["digraph inference {"]
    for i, comp in enumerate(c.components):
        tag = " (source)" if i in c.roots else ""
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="scc_{i}{tag}";')
        for node in comp:
            if node in root_nodes:
                lines.append(f"    {ids[node]} [root=true, penwidth=2];")
            else:
                lines.append(f"    {ids[node]};")
        lines.append("  }")
    for a, b in g.edges:
        lines.append(f"  {ids[a]} -> {ids[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def forward_closure(g: InferenceGraph, start: Iterable[Symbol]) -> Set[Symbol]:
    """States whose values influence the trajectories of ``start``.

    Follows the graph's own edge direction: x -> y means y enters dx/dt, so
    everything reachable from an observed state feeds its evolution.
    """
    seen = set(start)
    frontier = list(seen)
    succ: Dict[Symbol, List[Symbol]] = {n: [] for n in g.nodes}
    for a, b in g.edges:
        succ[a].append(b)
    while frontier:
        node = frontier.pop()
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen
