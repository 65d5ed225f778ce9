"""Shared builders and brute-force oracles for the test suite.

The oracles recompute everything by direct per-state multiplication in plain
Python loops — no log space, no broadcasting — so they are an independent
implementation the engine is checked against.
"""

from __future__ import annotations

import itertools

import numpy as np

from eunet import (
    PROB,
    UTIL,
    EUNGraph,
    Network,
    RestrictedPotential,
    VariableSpec,
    build_network,
)


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


def oracle_event_sums(network: Network, member) -> tuple[float, float]:
    """(sum of p-ratios, sum of p*u-ratios) over states passing ``member``.

    ``member`` takes a tuple of value indexes.
    """
    pr = oracle_ratio_table(network, PROB)
    ur = oracle_ratio_table(network, UTIL)
    sp = su = 0.0
    for values in itertools.product(*(range(s.size) for s in network.space.specs)):
        if member(values):
            sp += float(pr[values])
            su += float(pr[values]) * float(ur[values])
    return sp, su


def oracle_kept_sums(network: Network, fixed, keep) -> tuple[np.ndarray, np.ndarray]:
    """Tables over the ``keep`` axes of the two ratio sums over a cylinder.

    ``fixed`` maps axes to value indexes; each table entry sums the states of
    the cylinder that take that combination on the kept axes.
    """
    pr = oracle_ratio_table(network, PROB)
    ur = oracle_ratio_table(network, UTIL)
    shape = tuple(network.space.shape[ax] for ax in keep)
    sp, su = np.zeros(shape), np.zeros(shape)
    for values in itertools.product(*(range(s.size) for s in network.space.specs)):
        if all(values[ax] == v for ax, v in fixed.items()):
            combo = tuple(values[ax] for ax in keep)
            sp[combo] += float(pr[values])
            su[combo] += float(pr[values]) * float(ur[values])
    return sp, su


def cylinder_member(network: Network, partial):
    """Membership predicate for a cylinder given as {name: label}."""
    space = network.space
    fixed = {space.index(k): space.spec(k).value_index(v) for k, v in partial.items()}
    return lambda values: all(values[a] == v for a, v in fixed.items())


def random_layer_arcs(rng, names, arc_prob):
    """A random arc set closed under marrying each node's below-neighbours.

    After the fill-in, every below-neighbour set is a clique, which makes the
    graph consistent with arbitrary potential tables: each variable's full
    conditional then provably touches only its neighbours.
    """
    names = list(names)
    arcs = {
        (a, b)
        for a, b in itertools.combinations(names, 2)
        if rng.random() < arc_prob
    }
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
):
    """A random network that passes the mantle-consistency check by construction."""
    names = [f"X{i}" for i in range(1, n_vars + 1)]
    specs = [
        VariableSpec(
            name, tuple(str(v) for v in range(int(rng.choice(domain_sizes))))
        )
        for name in names
    ]
    prob_arcs = random_layer_arcs(rng, names, arc_prob)
    util_arcs = prob_arcs if same_graphs else random_layer_arcs(rng, names, arc_prob)
    graph = EUNGraph.of(prob_arcs=prob_arcs, util_arcs=util_arcs, nodes=names)
    skeleton = build_network(specs, names, graph)
    by_name = {s.name: s for s in specs}
    potentials = []
    for layer in (PROB, UTIL):
        for spec in specs:
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
    return build_network(specs, names, graph, potentials)


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
