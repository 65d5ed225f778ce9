"""Seeded, mantle-safe random inputs for the benchmark.

Everything here is plain Python and numpy: a generated network is a
:class:`GenNet` (domains, below-neighbour sets and ratio tables per layer),
and the program only ever sees the ``eun/1`` or ``eun-bn/1`` document text
rendered from it.  The checkers read the same :class:`GenNet`, never the
program's parsed copy.

Mantle safety: every variable's below-neighbour set is a clique in its layer.
A ratio table over such a set can take any positive values and the network
still passes the mantle-consistency audit, because each variable's full
conditional then touches only its neighbours.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

LAYERS = ("prob", "util")
_DOC_KEY = {"prob": "q", "util": "w"}


@dataclass
class GenNet:
    """A network as plain data.

    ``below[layer][i]`` lists the below-index neighbours of variable ``i`` in
    ascending index order; ``tables[layer][i]`` has one axis for variable
    ``i`` and one per below-neighbour, and its reference row (index 0) is 1.
    """

    names: list[str]
    domains: list[tuple[str, ...]]
    below: dict[str, list[tuple[int, ...]]]
    tables: dict[str, list[np.ndarray]]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.domains)

    def arcs(self, layer: str) -> list[list[str]]:
        return [
            [self.names[j], self.names[i]]
            for i, parents in enumerate(self.below[layer])
            for j in parents
        ]

    def neighbours(self, layer: str) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in self.names]
        for i, parents in enumerate(self.below[layer]):
            for j in parents:
                adj[i].add(j)
                adj[j].add(i)
        return adj


def chordal_below(
    rng: np.random.Generator, n: int, max_parents: int, fill: float, window: int | None = None
) -> list[tuple[int, ...]]:
    """Below-neighbour sets that are cliques by construction.

    Variable ``i`` picks an anchor ``j`` among the ``window`` variables just
    before it (any earlier one by default) and takes a subset of
    ``{j} | below(j)``, which is a clique, so ``below(i)`` is one too.
    ``fill`` is the chance each candidate joins, in random order, up to
    ``max_parents``; with ``fill=1`` and ``window=1`` every set has
    ``min(i, max_parents)`` members whatever the seed.
    """
    below: list[tuple[int, ...]] = [()]
    for i in range(1, n):
        j = i - 1 - int(rng.integers(min(i, window or i)))
        pool = [j, *below[j]]
        chosen = [int(c) for c in rng.permutation(pool) if rng.random() < fill][:max_parents]
        below.append(tuple(sorted(chosen)))
    return below


def random_net(
    rng: np.random.Generator,
    n: int,
    max_parents: int,
    fill: float,
    window: int | None = None,
    sizes: tuple[int, ...] | None = None,
    structure_rng: np.random.Generator | None = None,
) -> GenNet:
    """A random network with ratio tables drawn uniformly from [0.5, 2].

    Variables are binary unless ``sizes`` gives the multiset of domain sizes,
    shuffled over the variables.  Domains and graphs are drawn from
    ``structure_rng`` when given, the tables always from ``rng``.
    """
    srng = structure_rng or rng
    width = len(str(n))
    names = [f"X{i:0{width}d}" for i in range(n)]
    sizes = (2,) * n if sizes is None else tuple(int(s) for s in srng.permutation(sizes))
    domains = [tuple(str(v) for v in range(s)) for s in sizes]
    shape = sizes
    below = {layer: chordal_below(srng, n, max_parents, fill, window) for layer in LAYERS}
    tables: dict[str, list[np.ndarray]] = {}
    for layer in LAYERS:
        tables[layer] = []
        for i, parents in enumerate(below[layer]):
            t = rng.uniform(0.5, 2.0, (shape[i], *(shape[j] for j in parents)))
            t[0] = 1.0
            tables[layer].append(t)
    return GenNet(names, domains, below, tables)


def network_doc(net: GenNet) -> str:
    """Render ``net`` as a compact ``eun/1`` document."""
    doc: dict[str, object] = {
        "format": "eun/1",
        "variables": [{"name": n, "domain": list(d)} for n, d in zip(net.names, net.domains)],
        "ordering": list(net.names),
        "prob_arcs": net.arcs("prob"),
        "util_arcs": net.arcs("util"),
    }
    for layer in LAYERS:
        out = {}
        for i, parents in enumerate(net.below[layer]):
            table = net.tables[layer][i]
            rows = []
            for vi in range(1, table.shape[0]):
                for combo in itertools.product(*(range(s) for s in table.shape[1:])):
                    rows.append({
                        "value": net.domains[i][vi],
                        "given": {
                            net.names[j]: net.domains[j][c] for j, c in zip(parents, combo)
                        },
                        "ratio": float(table[(vi, *combo)]),
                    })
            if rows:
                out[net.names[i]] = rows
        doc[_DOC_KEY[layer]] = out
    return json.dumps(doc)


def extreme_nets() -> list[tuple[GenNet, list[dict[int, int]]]]:
    """Valid three-variable networks whose joint ratios leave float range.

    Fixed, seed-independent inputs, each with the cylinder events asked of
    it.  The probability ratios (1e200, 1e200, 1e-300) are finite and
    positive, so the networks validate, yet a product of two of them
    overflows; every event asked has a state that overflows, while its
    exact probability, utilities and value are all within float range.
    """
    flat = [np.array([1.0, 1.0]) for _ in range(3)]
    specs = (
        ((1e200, 1e200, 1e-300), None, [{0: 1}, {1: 1}]),
        ((1e-300, 1e250, 1e150), (2.0, 0.5, 3.0), [{1: 1}, {2: 1}]),
    )
    out = []
    for q, w, events in specs:
        tables = {
            "prob": [np.array([1.0, r]) for r in q],
            "util": [np.array([1.0, r]) for r in w] if w else flat,
        }
        net = GenNet(
            names=["A", "B", "C"],
            domains=[("0", "1")] * 3,
            below={lay: [(), (), ()] for lay in LAYERS},
            tables=tables,
        )
        out.append((net, events))
    return out


# -- Bayes networks ---------------------------------------------------------


@dataclass
class GenBN:
    """A Bayes network as plain data; ``cpts[i]`` has axes (i, *parents[i])."""

    names: list[str]
    domains: list[tuple[str, ...]]
    parents: list[tuple[int, ...]]
    cpts: list[np.ndarray]

    def joint(self) -> np.ndarray:
        """The CPT product over all states, linear space."""
        shape = tuple(len(d) for d in self.domains)
        out = np.ones(shape)
        for i, ps in enumerate(self.parents):
            axes = (i, *ps)
            # Put the table's axes in ascending variable order, then broadcast.
            order = sorted(range(len(axes)), key=lambda k: axes[k])
            view = self.cpts[i].transpose(order)
            idx = tuple(slice(None) if a in axes else np.newaxis for a in range(len(shape)))
            out = out * view[idx]
        return out


def random_bn(
    rng: np.random.Generator,
    sizes: tuple[int, ...],
    max_parents: int = 3,
    structure_rng: np.random.Generator | None = None,
) -> GenBN:
    """A random Bayes network over the given domain sizes, shuffled; each
    variable has ``min(i, max_parents)`` parents chosen among the earlier
    ones.  Domains and edges come from ``structure_rng`` when given."""
    srng = structure_rng or rng
    n = len(sizes)
    names = [f"B{i:02d}" for i in range(n)]
    domains = [tuple(f"s{v}" for v in range(int(s))) for s in srng.permutation(sizes)]
    parents: list[tuple[int, ...]] = []
    cpts = []
    for i in range(n):
        k = min(i, max_parents)
        ps = tuple(sorted(int(p) for p in srng.choice(i, size=k, replace=False))) if k else ()
        parents.append(ps)
        raw = rng.uniform(0.2, 1.0, (len(domains[i]), *(len(domains[p]) for p in ps)))
        cpts.append(raw / raw.sum(axis=0, keepdims=True))
    return GenBN(names, domains, parents, cpts)


def bn_doc(bn: GenBN) -> str:
    cpts = {}
    for i, ps in enumerate(bn.parents):
        rows = []
        table = bn.cpts[i]
        for idx in itertools.product(*(range(s) for s in table.shape)):
            rows.append({
                "value": bn.domains[i][idx[0]],
                "given": {bn.names[p]: bn.domains[p][c] for p, c in zip(ps, idx[1:])},
                "p": float(table[idx]),
            })
        cpts[bn.names[i]] = rows
    doc = {
        "format": "eun-bn/1",
        "variables": [{"name": n, "domain": list(d)} for n, d in zip(bn.names, bn.domains)],
        "dag_edges": [[bn.names[p], bn.names[i]] for i, ps in enumerate(bn.parents) for p in ps],
        "cpts": cpts,
    }
    return json.dumps(doc)
