"""Shared builders and brute-force oracles for the test suite.

The oracles recompute everything by direct per-state multiplication in plain
Python loops — no log space, no broadcasting — so they are an independent
implementation the engine is checked against.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from eunet import (
    PROB,
    UTIL,
    BayesNet,
    EUNGraph,
    Network,
    RestrictedPotential,
    ValidationError,
    VariableSpec,
    build_network,
)
from eunet.formats import (
    BN_FORMAT,
    EUN_FORMAT,
    _as_list,
    _as_object,
    _as_str,
    _check_acyclic,
    _fail,
    _load_document,
    _pair,
    _parse_arcs,
    _parse_rows,
    _parse_variables,
    _reject_unknown,
    _require,
)
from eunet.inference import _scope_of
from eunet.model import _axes as axes_of
from eunet.model import _structure


def net_of(domains, ordering=None, prob_arcs=(), util_arcs=(), q=None, w=None):
    """Compact network builder.

    ``domains`` maps name -> domain labels; ``q``/``w`` map variable name ->
    {(value, *parent_values): ratio} with parents in ordering index order,
    reference rows implied.
    """
    specs = {name: VariableSpec(name, tuple(dom)) for name, dom in domains.items()}
    ordering = tuple(ordering) if ordering is not None else tuple(domains)
    graph = EUNGraph.of(prob_arcs=prob_arcs, util_arcs=util_arcs, nodes=ordering)
    skeleton = build_network(list(specs.values()), ordering, graph)
    potentials = []
    for layer, tables in ((PROB, q or {}), (UTIL, w or {})):
        for name, entries in tables.items():
            parents = skeleton.below_neighbors(layer, name)
            potentials.append(
                RestrictedPotential.from_entries(
                    specs[name], [specs[p] for p in parents], layer, entries
                )
            )
    return build_network(list(specs.values()), ordering, graph, potentials)


def binary_chain_net():
    """Three binary variables in a probability chain X1 - X2 - X3."""
    return net_of(
        {"X1": ("0", "1"), "X2": ("0", "1"), "X3": ("0", "1")},
        prob_arcs=[("X1", "X2"), ("X2", "X3")],
        q={
            "X1": {("1",): 2.0},
            "X2": {("1", "0"): 1.0, ("1", "1"): 3.0},
            "X3": {("1", "0"): 1.0, ("1", "1"): 5.0},
        },
    )


def hw_factored_net():
    """Two binary variables, uniform p, utilities multiply independently.

    The utility ratio table over (H, W) is (1, 2, 3, 6).
    """
    return net_of(
        {"H": ("0", "1"), "W": ("0", "1")},
        w={"H": {("1",): 3.0}, "W": {("1",): 2.0}},
    )


def hw_coupled_net():
    """Like hw_factored_net but the utility of W depends on H.

    The utility ratio table over (H, W) is (1, 2, 3, 4): w_W(1|H=0) = 2 but
    w_W(1|H=1) = 4/3, so the two attributes interact.
    """
    return net_of(
        {"H": ("0", "1"), "W": ("0", "1")},
        util_arcs=[("H", "W")],
        w={
            "H": {("1",): 3.0},
            "W": {("1", "0"): 2.0, ("1", "1"): 4.0 / 3.0},
        },
    )


def chain_net(seed, sizes, chain):
    """A network over ``sizes`` (name -> domain size, in ordering order) with
    arcs between consecutive ``chain`` variables in both layers and random
    tables on them; variables off the chain are inert (no arcs, identity
    tables)."""
    rng = np.random.default_rng(seed)
    domains = {n: tuple(str(v) for v in range(s)) for n, s in sizes.items()}
    arcs = list(zip(chain, chain[1:]))

    def tables():
        out = {chain[0]: {(str(v),): rng.uniform(0.5, 2.0) for v in range(1, sizes[chain[0]])}}
        for parent, child in arcs:
            out[child] = {
                (str(v), str(pv)): rng.uniform(0.5, 2.0)
                for v in range(1, sizes[child])
                for pv in range(sizes[parent])
            }
        return out

    return net_of(domains, prob_arcs=arcs, util_arcs=arcs, q=tables(), w=tables())


def extreme_ratio_net():
    """Three free binary variables whose joint probability ratios overflow.

    The ratios 1e200, 1e200 and 1e-300 are finite and positive, so the
    network validates, yet the state (1, 1, 0) has ratio 1e400.
    """
    return net_of(
        {"A": ("0", "1"), "B": ("0", "1"), "C": ("0", "1")},
        q={"A": {("1",): 1e200}, "B": {("1",): 1e200}, "C": {("1",): 1e-300}},
    )


def quotient_range_net():
    """A, B and C binary, arc A - B in both layers, q_A(1) = 1e-200 and
    w_A(1) = w_B(1 | A=1) = 1e200, every other ratio 1.

    Every sum over a clique or a cylinder is in float range, and so are
    u(B=1 | A=1) = 2 and u_norm(A=1) = 1e200, yet a quotient of unlike sums
    is not: u_rel(A=1) = S_u(A=1) / S_p(A=1) is about 5e399.
    """
    return net_of(
        {"A": ("0", "1"), "B": ("0", "1"), "C": ("0", "1")},
        prob_arcs=[("A", "B")],
        util_arcs=[("A", "B")],
        q={"A": {("1",): 1e-200}},
        w={"A": {("1",): 1e200}, "B": {("1", "0"): 1.0, ("1", "1"): 1e200}},
    )


def like_sums_range_net():
    """A, D1, D2 and C binary, {A, D1, D2} a clique of the probability
    layer, q_A(1) = 1e200 and q_D1(1 | A=1) = q_D2(1 | A=1, D1) = 1e-200.

    Ratios of like sums leave float range on their own: p(D1=1, D2=1 | A=1)
    is about 1e-400, yet u(D1=1, D2=1 | A=1) is 1.  C is free, so a question
    that asks C spans cliques.
    """
    return net_of(
        {n: ("0", "1") for n in ("A", "D1", "D2", "C")},
        prob_arcs=[("A", "D1"), ("A", "D2"), ("D1", "D2")],
        q={
            "A": {("1",): 1e200},
            "D1": {("1", "0"): 1.0, ("1", "1"): 1e-200},
            "D2": {("1", a, d): 1e-200 if a == "1" else 1.0 for a in "01" for d in "01"},
        },
    )


def underflow_redo_net():
    """A, C binary and B over 0, 1, 2; arcs A - B and B - C; q_A(1) = 1e10,
    q_B = (1, 1e-300, 1e290) at either A and q_C(1 | B) = 1e-200.

    Summing {A}'s table out of the factors underflows (1e-300 * 1e-200), so
    it is redone in log space, and that redo's exp underflows too; yet
    p(A=1) = 1e10 / (1 + 1e10) is in float range.
    """
    return net_of(
        {"A": ("0", "1"), "B": ("0", "1", "2"), "C": ("0", "1")},
        prob_arcs=[("A", "B"), ("B", "C")],
        q={
            "A": {("1",): 1e10},
            "B": {(b, a): r for a in "01" for b, r in (("1", 1e-300), ("2", 1e290))},
            "C": {("1", b): 1e-200 for b in "012"},
        },
    )


def overflow_total_net():
    """A and B binary and free, q_B(1) = 1e308: every entry is finite, yet
    S_p = 2 + 2e308 of the sure event overflows."""
    return net_of({"A": ("0", "1"), "B": ("0", "1")}, q={"B": {("1",): 1e308}})


def overflow_window_net():
    """Ordering (A, D, B), arcs A - B and D - B, and B's ratio 1e200 at A=1
    against 1e-200 at A=0.

    Every stored entry is finite, yet A's window over (A, D, B) has a
    non-mantle axis (D) and holds the ratio 1e400 at A=1, B=1.
    """
    return net_of(
        {"A": ("0", "1"), "D": ("0", "1"), "B": ("0", "1")},
        ordering=("A", "D", "B"),
        prob_arcs=[("A", "B"), ("D", "B")],
        q={"B": {("1", a, d): (1e200 if a == "1" else 1e-200) for a in "01" for d in "01"}},
    )


def underflow_bn_doc() -> str:
    """A valid ``eun-bn/1`` document whose converted ratio underflows.

    X is binary with two children Y and Z, whose CPTs put 1e-200 on
    (0 | X=1) against 0.5 on (0 | X=0), so X's ratio is 4e-400: 0 in floats.
    """
    child = [
        {"value": y, "given": {"X": x}, "p": p}
        for x, y, p in (("0", "0", 0.5), ("0", "1", 0.5), ("1", "0", 1e-200), ("1", "1", 1.0))
    ]
    return json.dumps({
        "format": "eun-bn/1",
        "variables": [{"name": n, "domain": ["0", "1"]} for n in "XYZ"],
        "dag_edges": [["X", "Y"], ["X", "Z"]],
        "cpts": {
            "X": [{"value": "0", "given": {}, "p": 0.5}, {"value": "1", "given": {}, "p": 0.5}],
            "Y": child,
            "Z": child,
        },
    })


def serialize_oracle(network: Network) -> str:
    """The ``eun/1`` document of ``network`` written the plain way: one dict
    per row, then ``json.dumps(indent=2)`` and a trailing newline."""
    space = network.space
    doc: dict[str, object] = {
        "format": "eun/1",
        "variables": [
            {"name": s.name, "domain": list(s.domain), "reference": s.reference}
            for s in space.specs
        ],
        "ordering": list(space.names),
        "prob_arcs": sorted(list(a) for a in network.graph.prob_arcs),
        "util_arcs": sorted(list(a) for a in network.graph.util_arcs),
    }
    for layer, key in ((PROB, "q"), (UTIL, "w")):
        tables = {}
        for name in space.names:
            pot = network.potential(layer, name)
            if np.all(pot.table == 1.0):
                continue
            spec = space.spec(name)
            parent_specs = [space.spec(p) for p in pot.parents]
            tables[name] = [
                {
                    "value": spec.domain[vi],
                    "given": {p.name: p.domain[c] for p, c in zip(parent_specs, combo)},
                    "ratio": float(pot.table[(vi,) + combo]),
                }
                for vi in range(spec.size)
                if vi != spec.reference_index
                for combo in itertools.product(*(range(p.size) for p in parent_specs))
            ]
        doc[key] = tables
    return json.dumps(doc, indent=2) + "\n"


# -- the per-row document route: the judge of the layer reader's error messages --


def per_row_parse_network(text: str) -> Network:
    """``parse_network`` by the per-row route.

    The structure is read as the parser reads it.  Then every table, ``q``
    before ``w`` and each in document order, goes through ``_parse_rows``
    and ``RestrictedPotential.from_entries``, and ``build_network`` checks
    the whole, so a faulty document fails at its first fault in document
    order.
    """
    doc = _load_document(text, EUN_FORMAT)
    _reject_unknown(
        doc, "$", frozenset({"format", "variables", "ordering", "prob_arcs", "util_arcs", "q", "w"})
    )
    specs = _parse_variables(_require(doc, "variables", "$"), "$.variables")
    ordering = _as_list(_require(doc, "ordering", "$"), "$.ordering")
    ordering = tuple(_as_str(v, f"$.ordering[{k}]") for k, v in enumerate(ordering))
    graph = EUNGraph.of(
        prob_arcs=_parse_arcs(doc.get("prob_arcs", []), "$.prob_arcs"),
        util_arcs=_parse_arcs(doc.get("util_arcs", []), "$.util_arcs"),
        nodes=[s.name for s in specs],
    )
    space, checked = _structure(specs, ordering, graph)
    potentials = []
    for layer, key in ((PROB, "q"), (UTIL, "w")):
        for name, rows in _as_object(doc.get(key, {}), f"$.{key}").items():
            at = f"$.{key}.{name}"
            if name not in space.names:
                _fail(at, f"table for undeclared variable {name!r}")
            parents = checked.below_neighbors(layer, name, space.names)
            relation = (
                f"a below-index neighbour of {name!r} in the {layer} layer "
                f"(expected {sorted(parents)})"
            )
            entries = {k: r for _, k, r in _parse_rows(rows, at, parents, "ratio", relation)}
            potentials.append(RestrictedPotential.from_entries(
                space.spec(name), [space.spec(p) for p in parents], layer, entries
            ))
    return build_network(specs, ordering, graph, potentials)


def per_row_parse_bayes_net(text: str) -> BayesNet:
    """``parse_bayes_net`` by the per-row route.

    The structure is read as the parser reads it.  Then each CPT, in
    declaration order, goes row by row through ``_parse_rows``, the label
    and probability checks, its coverage and its sums; a CPT for an
    undeclared variable fails last.
    """
    doc = _load_document(text, BN_FORMAT)
    _reject_unknown(doc, "$", frozenset({"format", "variables", "dag_edges", "cpts"}))
    specs = _parse_variables(_require(doc, "variables", "$"), "$.variables")
    by_name = {}
    for spec in specs:
        if spec.name in by_name:
            raise ValidationError(f"duplicate variable {spec.name!r}")
        by_name[spec.name] = spec
    names = tuple(by_name)
    edges = set()
    for k, item in enumerate(_as_list(_require(doc, "dag_edges", "$"), "$.dag_edges")):
        a, b = _pair(item, "$.dag_edges", k, "an edge is a [parent, child] pair")
        for n in (a, b):
            if n not in by_name:
                _fail(f"$.dag_edges[{k}]", f"edge touches undeclared variable {n!r}")
        if a == b:
            _fail(f"$.dag_edges[{k}]", f"self-loop edge on {a!r}")
        edges.add((a, b))
    _check_acyclic(names, frozenset(edges))
    parents = {name: tuple(p for p in names if (p, name) in edges) for name in names}
    raw = _as_object(_require(doc, "cpts", "$"), "$.cpts")
    cpts = {}
    for name in names:
        at = f"$.cpts.{name}"
        if name not in raw:
            _fail("$.cpts", f"missing required key {name!r}")
        axes = [by_name[n] for n in (name, *parents[name])]
        table = np.ones([s.size for s in axes])
        covered = np.zeros(table.shape, dtype=bool)
        for rat, key, p in _parse_rows(raw[name], at, parents[name], "p", f"a parent of {name!r}"):
            idx = tuple(s.value_index(label) for s, label in zip(axes, key))
            if np.isnan(p):
                _fail(f"{rat}.p", f"non-finite entry {p!r}")
            if p <= 0.0:
                _fail(f"{rat}.p", f"probabilities must be strictly positive, got {p!r}")
            table[idx], covered[idx] = p, True
        if not covered.all():
            _fail(at, "incomplete table (missing rows for some value combination)")
        with np.errstate(over="ignore"):
            worst = float(np.max(np.abs(table.sum(axis=0) - 1.0)))
        if not worst <= 1e-9:
            _fail(at, f"rows must sum to 1 for every parent configuration (off by {worst:.3g})")
        cpts[name] = table
    unused = sorted(set(raw) - set(names))
    if unused:
        _fail("$.cpts", f"table for undeclared variable {unused[0]!r}")
    return BayesNet(specs=tuple(specs), edges=frozenset(edges), parents=parents, cpts=cpts)


def oracle_ratio_table(network: Network, layer: str) -> np.ndarray:
    """Joint ratio table by direct scalar multiplication over every state."""
    space = network.space
    pots = [network.potential(layer, name) for name in space.names]
    axes = [
        (space.index(p.var),) + tuple(space.index(par) for par in p.parents)
        for p in pots
    ]
    out = np.empty(space.shape)
    for values in itertools.product(*(range(s.size) for s in space.specs)):
        total = 1.0
        for pot, ax in zip(pots, axes):
            total *= float(pot.table[tuple(values[a] for a in ax)])
        out[values] = total
    return out


def oracle_mantle_spread(network: Network, layer: str, var: str, table=None):
    """The full-table audit of one variable, in plain numpy.

    ``table`` is the layer's joint ratio table (``oracle_ratio_table`` by
    default).  Returns ``(spread, ratio)``: the relative spread (hi - lo) / lo
    of the variable's full-window ratio across every non-mantle axis, with
    one axis per variable and mantle member in ordering order (None when no
    axis is free), and that ratio with the non-mantle axes at reference, the
    variable's axis first and the mantle after it in ordering order.
    """
    space, refs = network.space, network.space.reference_indexes
    table = oracle_ratio_table(network, layer) if table is None else table
    i = space.index(var)
    mantle = {space.index(m) for m in network.mantle(layer, var)}
    free = tuple(a for a in range(len(space)) if a != i and a not in mantle)
    ratio = table / np.take(table, [refs[i]], axis=i)
    spread = None
    if free:
        hi, lo = ratio.max(axis=free), ratio.min(axis=free)
        spread = (hi - lo) / lo
    at_ref = tuple(refs[a] if a in free else slice(None) for a in range(len(space)))
    kept = [a for a in range(len(space)) if a not in free]
    return spread, np.moveaxis(ratio[at_ref], kept.index(i), 0)


def oracle_imap_report(network: Network, tolerance: float = 1e-9):
    """Full-table i-map audit: ``[(variable, layer, deviation, witness)]``.

    The witness is the first assignment of the variable and its mantle, in
    row-major order over them in ordering order, whose spread is within
    1e-12 relative of the maximum.
    """
    space = network.space
    out = []
    for layer in (PROB, UTIL):
        table = oracle_ratio_table(network, layer)
        for i, var in enumerate(space.names):
            spread, _ = oracle_mantle_spread(network, layer, var, table)
            if spread is None or spread.max() <= tolerance:
                continue
            deviation = float(spread.max())
            mantle = network.mantle(layer, var)
            kept = [a for a, name in enumerate(space.names) if a == i or name in mantle]
            first = np.argwhere(spread >= deviation * (1.0 - 1e-12))[0]
            witness = {space.names[a]: space.specs[a].domain[v] for a, v in zip(kept, first)}
            out.append((var, layer, deviation, witness))
    return out


def oracle_event_sums(network: Network, member, tables=None) -> tuple[float, float]:
    """(sum of p-ratios, sum of p*u-ratios) over states passing ``member``.

    ``member`` takes a tuple of value indexes.  ``tables`` is the pair of
    ``oracle_ratio_table`` results, built here when not given.
    """
    pr, ur = tables or (oracle_ratio_table(network, PROB), oracle_ratio_table(network, UTIL))
    sp = su = 0.0
    for values in itertools.product(*(range(s.size) for s in network.space.specs)):
        if member(values):
            sp += float(pr[values])
            su += float(pr[values]) * float(ur[values])
    return sp, su


def oracle_kept_sums(network: Network, fixed, keep, tables=None) -> tuple[np.ndarray, np.ndarray]:
    """Tables over the ``keep`` axes of the two ratio sums over a cylinder.

    ``fixed`` maps axes to value indexes; each table entry sums the states of
    the cylinder that take that combination on the kept axes.  ``tables`` is
    as for :func:`oracle_event_sums`.
    """
    pr, ur = tables or (oracle_ratio_table(network, PROB), oracle_ratio_table(network, UTIL))
    shape = tuple(network.space.shape[ax] for ax in keep)
    sp, su = np.zeros(shape), np.zeros(shape)
    for values in itertools.product(*(range(s.size) for s in network.space.specs)):
        if all(values[ax] == v for ax, v in fixed.items()):
            combo = tuple(values[ax] for ax in keep)
            sp[combo] += float(pr[values])
            su[combo] += float(pr[values]) * float(ur[values])
    return sp, su


def whole_scope(network: Network) -> int:
    """The mask of every axis, whose table is the joint's pair."""
    return (1 << len(network.space)) - 1


def routed(network: Network, event, keep=()) -> bool:
    """Whether a question's scope lies inside a clique of the cover other
    than the clique of every axis, so that its table is a clique's smaller
    than the joint or is summed from one; a scope that spans cliques is
    summed from the factors, and on a network whose cover is the one
    clique of every axis each scope is summed from the joint's pair."""
    return network._clique_holding(_scope_of(network, event, keep)) not in (
        None, whole_scope(network)
    )


def cylinder_member(network: Network, partial):
    """Membership predicate for a cylinder given as {name: label}."""
    space = network.space
    fixed = {space.index(k): space.spec(k).value_index(v) for k, v in partial.items()}
    return lambda values: all(values[a] == v for a, v in fixed.items())


def random_layer_arcs(rng, names, arc_prob, fill_in=True):
    """A random arc set closed under marrying each node's below-neighbours.

    After the fill-in, every below-neighbour set is a clique, which makes the
    graph consistent with arbitrary potential tables: each variable's full
    conditional then provably touches only its neighbours.  ``fill_in=False``
    returns the arcs as drawn.
    """
    names = list(names)
    arcs = {
        (a, b)
        for a, b in itertools.combinations(names, 2)
        if rng.random() < arc_prob
    }
    if not fill_in:
        return arcs
    for i in range(len(names) - 1, -1, -1):
        below = [names[j] for j in range(i) if (names[j], names[i]) in arcs]
        for pair in itertools.combinations(below, 2):
            arcs.add(pair)
    return arcs


def random_network(
    rng,
    n_vars=5,
    domain_sizes=(2,),
    arc_prob=0.4,
    low=0.5,
    high=2.0,
    same_graphs=False,
    random_references=False,
    fill_in=True,
    identity=0.0,
    inert=0,
):
    """A random network that passes the mantle-consistency check by construction.

    With ``random_references`` each variable's reference label is drawn from
    its domain instead of being the first one.  With ``fill_in=False`` the
    arcs are left as drawn, so the tables may depend on non-neighbours and
    the network may fail the check.  Each table is the identity with chance
    ``identity``, and ``inert`` variables I1, I2, ... with no arcs and
    identity tables sit at random places in the ordering.
    """
    names = [f"X{i}" for i in range(1, n_vars + 1)]
    specs = []
    for name in names:
        domain = tuple(str(v) for v in range(int(rng.choice(domain_sizes))))
        reference = str(rng.integers(len(domain))) if random_references else None
        specs.append(VariableSpec(name, domain, reference))
    prob_arcs = random_layer_arcs(rng, names, arc_prob, fill_in)
    util_arcs = prob_arcs if same_graphs else random_layer_arcs(rng, names, arc_prob, fill_in)
    # Inert variables keep the X variables' relative order, so the fill-in holds.
    ordering = list(names)
    for k in range(1, inert + 1):
        domain = tuple(str(v) for v in range(int(rng.choice(domain_sizes))))
        reference = str(rng.integers(len(domain))) if random_references else None
        specs.append(VariableSpec(f"I{k}", domain, reference))
        ordering.insert(int(rng.integers(len(ordering) + 1)), f"I{k}")
    graph = EUNGraph.of(prob_arcs=prob_arcs, util_arcs=util_arcs, nodes=ordering)
    skeleton = build_network(specs, ordering, graph)
    by_name = {s.name: s for s in specs}
    potentials = []
    for layer in (PROB, UTIL):
        for spec in specs[:n_vars]:
            if identity and rng.random() < identity:
                continue
            parents = skeleton.below_neighbors(layer, spec.name)
            shape = (spec.size,) + tuple(by_name[p].size for p in parents)
            table = rng.uniform(low, high, shape)
            table[spec.reference_index] = 1.0
            potentials.append(
                RestrictedPotential(
                    spec.name, layer, parents, table,
                    reference_index=spec.reference_index,
                )
            )
    return build_network(specs, ordering, graph, potentials)


def random_network_from_arcs(rng, names, prob_arcs, util_arcs, low=0.5, high=2.0):
    """Binary-domain network with random tables over fixed arc sets.

    The arcs are taken as given, so the caller is responsible for making them
    mantle-safe (see random_layer_arcs for the fill-in that guarantees it).
    """
    names = list(names)
    specs = [VariableSpec(name, ("0", "1")) for name in names]
    graph = EUNGraph.of(prob_arcs=prob_arcs, util_arcs=util_arcs, nodes=names)
    skeleton = build_network(specs, names, graph)
    potentials = []
    for layer in (PROB, UTIL):
        for spec in specs:
            parents = skeleton.below_neighbors(layer, spec.name)
            shape = (spec.size,) + tuple(2 for _ in parents)
            table = rng.uniform(low, high, shape)
            table[spec.reference_index] = 1.0
            potentials.append(
                RestrictedPotential(
                    spec.name, layer, parents, table,
                    reference_index=spec.reference_index,
                )
            )
    return build_network(specs, names, graph, potentials)


def random_positive_table(rng, shape, low=0.5, high=2.0) -> np.ndarray:
    return rng.uniform(low, high, shape)


def planted_factor_table(rng, n_vars, factor_scopes, low=0.5, high=2.0) -> np.ndarray:
    """A strictly positive table that factors over the given axis scopes."""
    shape = (2,) * n_vars
    out = np.ones(shape)
    for scope in factor_scopes:
        factor = rng.uniform(low, high, tuple(2 for _ in scope))
        expanded = np.moveaxis(
            factor.reshape(factor.shape + (1,) * (n_vars - len(scope))),
            range(len(scope)),
            scope,
        )
        out = out * expanded
    return out


def oracle_factor_potentials(space, factors, parents_of) -> dict[str, np.ndarray]:
    """Restricted potentials of the measure that multiplies ``factors``.

    ``factors`` are ``(axes, table)`` pairs and ``parents_of`` maps a name to
    its below-neighbours.  Entry (x_i, pa) divides the product of every
    factor's entry at the state with x_i and pa set and everything else at
    reference by the same product with x_i at reference too.
    """
    refs = space.reference_indexes

    def measure(state):
        total = 1.0
        for axes, table in factors:
            total *= float(table[tuple(state[a] for a in axes)])
        return total

    out = {}
    for i, name in enumerate(space.names):
        kept = [i] + [space.index(p) for p in parents_of(name)]
        table = np.empty(tuple(space.shape[a] for a in kept))
        for combo in itertools.product(*(range(space.shape[a]) for a in kept)):
            state = list(refs)
            for a, v in zip(kept, combo):
                state[a] = v
            num = measure(state)
            state[i] = refs[i]
            table[combo] = num / measure(state)
        out[name] = table
    return out


def random_bayes_net(rng, sizes, max_parents=3):
    """A Bayes network over ``sizes`` (domain sizes, in ordering order).

    Reference labels are drawn at random.  Variable i draws
    ``min(i, max_parents)`` parents among the earlier ones, so with four or
    more variables the fourth has three parents, whose moralisation marries
    all three.
    """
    names = [f"B{i}" for i in range(len(sizes))]
    specs = tuple(
        VariableSpec(name, tuple(f"s{v}" for v in range(size)), f"s{rng.integers(size)}")
        for name, size in zip(names, sizes)
    )
    parents, cpts = {}, {}
    for i, name in enumerate(names):
        k = min(i, max_parents)
        chosen = sorted(rng.choice(i, size=k, replace=False)) if k else []
        parents[name] = tuple(names[j] for j in chosen)
        raw = rng.uniform(0.2, 1.0, (sizes[i], *(sizes[j] for j in chosen)))
        cpts[name] = raw / raw.sum(axis=0, keepdims=True)
    edges = frozenset((p, name) for name in names for p in parents[name])
    return BayesNet(specs=specs, edges=edges, parents=parents, cpts=cpts)
