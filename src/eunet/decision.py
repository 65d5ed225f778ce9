"""Decision analysis on expected utility networks.

A decision problem fixes a set of decision variables and an evidence event;
solving it means ranking the joint decision assignments by conditional
expected utility given the evidence.  Because conditional expected utility
is a ratio of event sums, the ranking needs no utility normalisation.

The module also covers structural analyses (which decisions decouple, which
variables cannot matter) and a worked second-price auction: two bidders on a
discrete value grid, the allocation smoothed away from zero probabilities so
the network stays strictly positive.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .inference import _event_sums, _quotient
from .model import (
    PROB,
    UTIL,
    EmptyEventError,
    EUNGraph,
    Event,
    Network,
    RestrictedPotential,
    Space,
    ValidationError,
    VariableSpec,
    _factor_potentials,
    build_network,
    resolve_state_cap,
)

__all__ = [
    "TIE_TOLERANCE",
    "DecisionProblem",
    "OptimalDecision",
    "AuctionModel",
    "optimal_decision",
    "decompose_decisions",
    "classify_relevance",
    "build_vickrey_auction",
    "auction_best_response",
]

TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DecisionProblem:
    """Decision variables plus an evidence event on one network.

    The decision variables are stored in ordering index order.  The evidence
    must be non-empty and must not fix any decision variable.
    """

    network: Network
    decision_vars: tuple[str, ...]
    evidence: Event

    def __post_init__(self) -> None:
        net = self.network
        seen = set()
        for name in self.decision_vars:
            net.space.index(name)
            if name in seen:
                raise ValidationError(f"duplicate decision variable {name!r}")
            seen.add(name)
        if not seen:
            raise ValidationError("a decision problem needs at least one decision variable")
        ordered = tuple(n for n in net.space.names if n in seen)
        object.__setattr__(self, "decision_vars", ordered)
        if self.evidence.space != net.space:
            raise ValidationError("evidence belongs to a different variable system")
        if self.evidence.is_empty:
            raise EmptyEventError("evidence event is empty")
        fixed = set(self.evidence.fixed_variables())
        clash = fixed & seen
        if clash:
            raise ValidationError(
                f"evidence already fixes decision variable(s) {sorted(clash)}"
            )


class OptimalDecision(NamedTuple):
    """Argmax assignments over the decision variables and the attained EU."""

    argmax: tuple[dict[str, str], ...]
    eu: float


def optimal_decision(problem: DecisionProblem, state_cap: int | None = None) -> OptimalDecision:
    """Exhaustively rank decision assignments by conditional expected utility.

    One reduction of the evidence's slice of a clique pair onto the
    decision axes yields S_p(d and E) and S_u(d and E) for every assignment
    d at once, and their totals give S_p(E) and S_u(E); each assignment the
    evidence meets then scores u(d | E) = (S_u(dE) / S_u(E)) (S_p(E) / S_p(dE)).
    Assignments within relative ``TIE_TOLERANCE`` of the maximum are all
    reported, in lexicographic order of value indexes over the decision
    variables (themselves in ordering index order).
    """
    net = problem.network
    d_axes = [net.space.index(n) for n in problem.decision_vars]
    sp, su, member = _event_sums(
        net, problem.evidence, resolve_state_cap(state_cap), keep=d_axes
    )
    if not member.any():
        raise EmptyEventError("no decision assignment is compatible with the evidence")
    sp_e, su_e = float(sp.sum()), float(su.sum())
    eu = np.full(sp.shape, -np.inf)
    with np.errstate(all="ignore"):  # a ratio out of range on its own is redone below
        np.multiply(su / su_e, sp_e / sp, out=eu, where=member)
        best = float(eu.max())
    if not 0.0 < best < math.inf:
        for combo in zip(*np.nonzero(member)):
            eu[combo] = _quotient(float(su[combo]), su_e, sp_e, float(sp[combo]))
        best = float(eu.max())
    winners = tuple(
        {
            net.space.names[a]: net.space.specs[a].domain[v]
            for a, v in zip(d_axes, combo)
        }
        for combo in np.argwhere(eu >= best * (1.0 - TIE_TOLERANCE)).tolist()
    )
    return OptimalDecision(argmax=winners, eu=best)


def decompose_decisions(
    problem: DecisionProblem, conditioning: Iterable[str] = ()
) -> tuple[tuple[str, ...], ...]:
    """Coarsest split of the decision variables into decoupled blocks.

    Two decisions land in the same block when, given the conditioning set
    and every other decision variable, they fail to separate in at least one
    layer.  Distinct blocks of the result are pairwise separated in both
    layers given the conditioning set and the remaining decisions, so each
    block can be optimised on its own.
    """
    net = problem.network
    d = set(problem.decision_vars)
    c = frozenset(conditioning)
    for name in c:
        net.space.index(name)
    if c & d:
        raise ValidationError("conditioning set overlaps the decision variables")

    coupled: dict[str, set[str]] = {name: set() for name in d}
    for x, y in itertools.combinations(sorted(d, key=net.space.index), 2):
        blockers = c | (d - {x, y})
        for layer in (PROB, UTIL):
            if not net.graph.separating(
                layer, frozenset({x}), frozenset({y}), frozenset(blockers)
            ):
                coupled[x].add(y)
                coupled[y].add(x)
                break

    blocks = []
    unseen = set(d)
    while unseen:
        start = min(unseen, key=net.space.index)
        block = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in coupled[node]:
                if nxt not in block:
                    block.add(nxt)
                    frontier.append(nxt)
        unseen -= block
        blocks.append(tuple(sorted(block, key=net.space.index)))
    blocks.sort(key=lambda b: net.space.index(b[0]))
    return tuple(blocks)


def _flat_along_axes(table: np.ndarray, axes: Sequence[int]) -> bool:
    """True when the table does not vary along any of the given axes."""
    for ax in axes:
        first = np.take(table, [0], axis=ax)
        if not np.all(table == first):
            return False
    return True


def _payoff_irrelevant(network: Network, block: frozenset[str]) -> bool:
    """The utility function is constant along the block's variables.

    Exact test on the stored tables: every block variable's own utility
    potential is identically 1, and no other utility potential varies along
    the block variables it conditions on.
    """
    for name in block:
        pot = network.potential(UTIL, name)
        if not np.all(pot.table == 1.0):
            return False
    for name in network.space.names:
        if name in block:
            continue
        pot = network.potential(UTIL, name)
        axes = [1 + k for k, p in enumerate(pot.parents) if p in block]
        if axes and not _flat_along_axes(pot.table, axes):
            return False
    return True


def classify_relevance(
    network: Network,
    b: Iterable[str],
    conditioning: Iterable[str] = (),
) -> str:
    """Classify a variable block as relevant or (strategically) irrelevant.

    "payoff-irrelevant": the utility function never moves when the block
    does.  "strategically-irrelevant": additionally the block is separated,
    in the probability layer given the conditioning set, from every
    payoff-relevant variable outside the block, so the block cannot even
    shift the odds of anything that matters.  Anything else is "relevant".
    """
    block = frozenset(b)
    cond = frozenset(conditioning)
    if not block:
        raise ValidationError("the classified block must be non-empty")
    for name in block | cond:
        network.space.index(name)
    if block & cond:
        raise ValidationError("the block and the conditioning set must be disjoint")

    if not _payoff_irrelevant(network, block):
        return "relevant"

    remainder = [
        name
        for name in network.space.names
        if name not in block
        and name not in cond
        and not _payoff_irrelevant(network, frozenset({name}))
    ]
    if not remainder:
        return "strategically-irrelevant"
    if network.graph.separating(PROB, block, frozenset(remainder), cond):
        return "strategically-irrelevant"
    return "payoff-irrelevant"


# -- second-price auction -------------------------------------------------


def _grid_labels(resolution: int) -> tuple[str, ...]:
    return tuple(f"{k / resolution:g}" for k in range(resolution + 1))


@dataclass(frozen=True)
class AuctionModel:
    """A sealed-bid second-price auction on a discrete value grid.

    Grid points are k/K for k = 0..K.  Variables: the bidder's value V and
    bid B, the opponent's value S and bid C, and the allocation A whose
    outcomes pair a winner (1 for the bidder, 2 for the opponent) with the
    price paid.  A tie goes to the bidder.  The allocation and the
    opponent's bidding rule are smoothed by ``epsilon`` so the network stays
    strictly positive.
    """

    resolution: int
    epsilon: float
    network: Network
    decision_var: str = "B"
    value_var: str = "V"
    tie_rule: str = "bidder wins ties"
    grid: tuple[str, ...] = field(default=())

    def grid_label(self, v: float | str) -> str:
        """Map a grid value to its domain label, rejecting off-grid values."""
        if isinstance(v, str):
            if v in self.grid:
                return v
            try:
                v = float(v)
            except ValueError:
                raise ValidationError(f"off-grid value {v!r}") from None
        for k, label in enumerate(self.grid):
            if abs(v - k / self.resolution) <= 1e-9:
                return label
        raise ValidationError(
            f"off-grid value {v!r}, grid points are multiples of 1/{self.resolution}"
        )

    def decision_problem(self, v: float | str) -> DecisionProblem:
        """The bid-selection problem after observing the value V = v."""
        evidence = self.network.cylinder({self.value_var: self.grid_label(v)})
        return DecisionProblem(self.network, (self.decision_var,), evidence)


def build_vickrey_auction(
    resolution: int,
    epsilon: float = 1e-6,
    opponent_bid_table: np.ndarray | None = None,
) -> AuctionModel:
    """Assemble the auction network for a given grid resolution.

    The bidder's value and the opponent's value are uniform on the grid, the
    bidder's own bid carries a flat placeholder distribution (it cancels out
    of every conditional the decision analysis uses), and the opponent bids
    its value, epsilon-smoothed.  ``opponent_bid_table`` overrides that rule
    with any row-stochastic, strictly positive table indexed (value, bid).

    The allocation takes the winner-pays-loser's-bid outcome with mass
    1 - (R - 1) epsilon (R being the number of allocation outcomes) and
    spreads epsilon on every other outcome.  The utility layer touches only
    the allocation: relative to losing, winning at price m is worth
    (1 + v) / (1 + m) to a bidder with value v.

    The probability potentials are read off the two non-uniform factors,
    the opponent's bid table and the allocation, so the build allocates
    nothing that grows with the state count; the queries on the network
    check the state cap themselves.
    """
    if resolution < 2:
        raise ValidationError("grid resolution must be at least 2")
    if not 0.0 < epsilon < 1e-3:
        raise ValidationError("epsilon must lie strictly between 0 and 1e-3")

    grid = _grid_labels(resolution)
    g = resolution + 1
    alloc_labels = tuple(f"2:{m}" for m in grid) + tuple(f"1:{m}" for m in grid)
    r = len(alloc_labels)

    specs = [
        VariableSpec("V", grid),
        VariableSpec("B", grid),
        VariableSpec("S", grid),
        VariableSpec("C", grid),
        VariableSpec("A", alloc_labels),
    ]
    ordering = ("V", "B", "S", "C", "A")
    graph = EUNGraph.of(
        prob_arcs=[("V", "B"), ("B", "A"), ("B", "C"), ("C", "A"), ("S", "C")],
        util_arcs=[("V", "A")],
        nodes=ordering,
    )
    space = Space(specs)

    if opponent_bid_table is None:
        c_given_s = np.full((g, g), epsilon)
        np.fill_diagonal(c_given_s, 1.0 - resolution * epsilon)
    else:
        c_given_s = np.asarray(opponent_bid_table, dtype=float)
        if c_given_s.shape != (g, g):
            raise ValidationError(f"opponent bid table must have shape {(g, g)}")
        if not np.all(c_given_s > 0.0):
            raise ValidationError("opponent bid table must be strictly positive")
        if not np.allclose(c_given_s.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
            raise ValidationError("opponent bid table rows must sum to 1")

    # Allocation distribution over (b, c): the deterministic second-price
    # outcome keeps mass 1 - (r - 1) eps, everything else gets eps.
    alloc = np.full((g, g, r), epsilon)
    for b in range(g):
        for c in range(g):
            winner = g + c if b >= c else b
            alloc[b, c, winner] = 1.0 - (r - 1) * epsilon

    # The joint is (1/g)^3 c_given_s[s, c] alloc[b, c, a] over (V, B, S, C, A);
    # the uniform constant cancels from every ratio.
    factors = [((2, 3), c_given_s), ((1, 3, 4), alloc)]
    q_pots = _factor_potentials(factors, space, graph, PROB)

    w_a = np.ones((r, g))
    # winner-side rows sit after the g losing rows, so the price index is
    # a_idx - g; using k / resolution rather than re-parsing the label keeps
    # winning at one's own value worth exactly 1
    for a_idx in range(g, r):
        m = (a_idx - g) / resolution
        for v_idx in range(g):
            w_a[a_idx, v_idx] = (1.0 + v_idx / resolution) / (1.0 + m)
    w_pots = [
        RestrictedPotential("A", UTIL, ("V",), w_a, reference_index=0),
    ]

    network = build_network(specs, ordering, graph, [*q_pots, *w_pots])
    return AuctionModel(
        resolution=resolution,
        epsilon=epsilon,
        network=network,
        grid=grid,
    )


def auction_best_response(
    model: AuctionModel, v: float | str, state_cap: int | None = None
) -> tuple[str, ...]:
    """Bids attaining the maximal conditional EU after observing V = v.

    Truthful bidding is always among them; the only other member ever
    present is the grid point one step below the value, which differs from
    the truthful bid only on zero-surplus outcomes.
    """
    problem = model.decision_problem(v)
    result = optimal_decision(problem, state_cap)
    return tuple(partial[model.decision_var] for partial in result.argmax)
