"""Independence queries: graph separation and table-level ratio tests.

Two views of the same notion live here.  The graph view asks whether a
conditioning set blocks every path between two variable sets in one arc
layer; on a network that passes validation it is sound and, over
partitions of the variables, complete.  The table view asks the question
numerically: a set M is independent of everything outside M and K given K
exactly when the ceteris paribus ratio of M is invariant to the remaining
variables.  The table test accepts the generalised form where M and K do
not exhaust the variables; the leftover variables are quantified over, held
equal on both sides of the comparison.

The pairwise version of the table test recovers the unique minimal graph on
which separation matches table independence over every partition, which is
what :func:`derive_perfect_map` computes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .inference import _clique_holding, _clique_of, _cylinder_sums, _quotient, _sums_from
from .model import (
    PROB,
    UTIL,
    EmptyEventError,
    EUNGraph,
    Event,
    Network,
    ValidationError,
    _check_layer,
    _merged,
    ratio_spread,
    resolve_state_cap,
)

__all__ = [
    "separates",
    "declared_independent",
    "table_independent",
    "max_ratio_spread",
    "derive_perfect_map",
    "eu_independent_vars",
    "eu_independent_events",
]


def _as_sets(*groups: Iterable[str]) -> list[frozenset[str]]:
    return [frozenset(g) for g in groups]


def separates(
    graph: EUNGraph,
    layer: str,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
) -> bool:
    """True when ``c`` blocks every path between ``a`` and ``b`` in the layer.

    Symmetric in ``a`` and ``b`` and monotone in ``c``: adding blockers never
    breaks separation.  ``a`` and ``b`` must be non-empty and the three sets
    pairwise disjoint.
    """
    _check_layer(layer)
    sa, sb, sc = _as_sets(a, b, c)
    if not sa or not sb:
        raise ValidationError("separation requires non-empty variable sets on both sides")
    if sa & sb or sa & sc or sb & sc:
        raise ValidationError("separation requires pairwise disjoint variable sets")
    unknown = (sa | sb | sc) - graph.nodes
    if unknown:
        raise ValidationError(f"unknown variable {sorted(unknown)!r} in separation query")
    return graph.separating(layer, sa, sb, sc)


def _partition(
    network: Network, a: Iterable[str], b: Iterable[str], c: Iterable[str]
) -> list[frozenset[str]]:
    sa, sb, sc = _as_sets(a, b, c)
    everything = set(network.space.names)
    if (sa | sb | sc) != everything or len(sa) + len(sb) + len(sc) != len(everything):
        raise ValidationError("a, b, c must partition the network's variables")
    return [sa, sb, sc]


def declared_independent(
    network: Network,
    layer: str,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
) -> bool:
    """Graph-declared independence of ``a`` and ``b`` given ``c`` on a network.

    The three sets must partition the network's variables.  On a network that
    passes the mantle-consistency check this is exact in both directions for
    the corresponding layer's measure.
    """
    sa, sb, sc = _partition(network, a, b, c)
    return separates(network.graph, layer, sa, sb, sc)


def _validate_table(table: np.ndarray) -> np.ndarray:
    arr = np.asarray(table, dtype=float)
    if arr.ndim < 1:
        raise ValidationError("joint table must have at least one axis")
    if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
        raise ValidationError("joint table must have strictly positive, finite entries")
    return arr


def _axis_sets(table: np.ndarray, m: Iterable[int], k: Iterable[int]):
    sm, sk = frozenset(int(i) for i in m), frozenset(int(i) for i in k)
    nd = table.ndim
    if not sm:
        raise ValidationError("the tested set M must be non-empty")
    if sm & sk:
        raise ValidationError("M and K must be disjoint")
    for ax in sm | sk:
        if not 0 <= ax < nd:
            raise ValidationError(f"axis {ax} out of range for a {nd}-axis table")
    free = [ax for ax in range(nd) if ax not in sm and ax not in sk]
    return sm, sk, free


def max_ratio_spread(table: np.ndarray, m: Iterable[int], k: Iterable[int]) -> float:
    """Worst relative variation of M's ratio across the non-(M|K) variables.

    Zero means the table factors so that, given K and the leftovers, moving
    the M block scales the table by a function of (M, K) alone.  The value is
    the margin by which the factorisation fails.
    """
    arr = _validate_table(table)
    sm, _, free = _axis_sets(arr, m, k)
    if not free:
        return 0.0
    _, spread = ratio_spread(arr, dict.fromkeys(sm, 0), free)
    return float(spread.max())


def table_independent(
    table: np.ndarray,
    m: Iterable[int],
    k: Iterable[int],
    tolerance: float = 1e-9,
) -> bool:
    """Numeric ratio-invariance test on a positive joint table.

    Axes play the role of variables; axis index 0 of each variable is taken
    as its reference value (the answer does not depend on that choice).  ``m``
    holds the tested axes, ``k`` the conditioning axes, and the remaining
    axes are quantified over.  True when the ceteris paribus ratio of the M
    block is invariant, within relative ``tolerance``, to the remaining axes.
    """
    return max_ratio_spread(table, m, k) <= tolerance


def derive_perfect_map(
    p_table: np.ndarray,
    u_table: np.ndarray,
    tolerance: float = 1e-9,
    names: Sequence[str] | None = None,
) -> EUNGraph:
    """Recover the minimal graph pair from a positive (p, u) table pair.

    An arc joins i and j in a layer exactly when the pairwise ratio test
    fails at the same tolerance the independence test uses, so separation on
    the returned graph matches table independence over every partition of
    the axes.
    """
    p = _validate_table(p_table)
    u = _validate_table(u_table)
    if p.shape != u.shape:
        raise ValidationError("p and u tables must share a shape")
    n = p.ndim
    if names is None:
        names = tuple(f"X{i + 1}" for i in range(n))
    else:
        names = tuple(names)
        if len(names) != n:
            raise ValidationError("names must match the table axis count")

    def layer_arcs(arr: np.ndarray) -> list[tuple[str, str]]:
        arcs = []
        for i in range(n):
            for j in range(i + 1, n):
                others = [ax for ax in range(n) if ax not in (i, j)]
                if max_ratio_spread(arr, (i,), others) > tolerance:
                    arcs.append((names[i], names[j]))
        return arcs

    return EUNGraph.of(layer_arcs(p), layer_arcs(u), nodes=names)


def eu_independent_vars(
    network: Network,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
) -> bool:
    """Separation of ``a`` from ``b`` by ``c`` in both layers at once.

    The sets must partition the network's variables.  On a network passing
    the mantle-consistency check, a true answer guarantees that conditional
    expected utilities multiply across the two sides for cylinder events,
    given any full assignment of ``c``.
    """
    sa, sb, sc = _partition(network, a, b, c)
    return separates(network.graph, PROB, sa, sb, sc) and separates(
        network.graph, UTIL, sa, sb, sc
    )


def eu_independent_events(
    network: Network,
    e: Event,
    f: Event,
    g: Event,
    tolerance: float = 1e-9,
) -> bool:
    """Numeric check that u(E and F | G) equals u(E | G) u(F | G).

    All three conditionals must be defined, so E, F and their intersection
    must meet G.  Tolerance is relative.  When all three events are cylinders
    the meets are merged axis->value maps and no Event is built.
    """
    cylinders = e.is_cylinder and f.is_cylinder and g.is_cylinder
    if cylinders:
        if any(ev.space != network.space for ev in (e, f, g)):
            raise ValidationError("event belongs to a different variable system")
        eg, fg = _merged(e._partial, g._partial), _merged(f._partial, g._partial)
        efg = None if eg is None else _merged(eg, f._partial)
        regions = [g._partial, eg, fg, efg]
    else:
        regions = [g] + [None if m.is_empty else m for m in (ev & g for ev in (e, f, e & f))]
    for name, meet in zip(("E", "F", "E and F"), regions[1:]):
        if meet is None:
            raise EmptyEventError(
                f"empty conditioning intersection ({name} meets G nowhere), "
                "conditional utility undefined"
            )
    # The meet of all three holds every region's axes, so its clique pair
    # answers all four sums.
    cap = resolve_state_cap()
    if cylinders:
        clique = _clique_holding(network, regions[-1])
        pair = network._clique_tables(clique, cap)[0]
        sums = [_cylinder_sums(pair, clique.axes, fixed, ()) for fixed in regions]
    else:
        clique = _clique_of(network, regions[-1])
        sums = [_sums_from(network, clique, ev, cap) for ev in regions]
    (sp_g, su_g), *meet_sums = sums
    u_e, u_f, u_ef = (_quotient(su, su_g, sp_g, sp) for sp, su in meet_sums)
    rhs = u_e * u_f
    return abs(u_ef - rhs) <= tolerance * abs(rhs)
