"""Event-level probability and expected utility on a network.

An event's probability, expected utility, and value are all ratios of sums
over the network's (p, p * u) pair.  Writing S_p(E) for the sum of
probability ratios over E and S_u(E) for the sum of probability-times-utility
ratios,

    p(E)      = S_p(E) / S_p(True)
    u_rel(E)  = S_u(E) / S_p(E)        (relative to u at the reference state)
    v(E)      = S_u(E) / S_u(True)
    u_norm(E) = v(E) / p(E) = u(E | True)   (the sure event is worth 1)

Conditionals divide: p(E|F) = p(EF)/p(F), v(E|F) = v(EF)/v(F) and
u(E|F) = (S_u(EF)/S_u(F)) (S_p(F)/S_p(EF)).  Each measure is taken as a
ratio of like sums or a product of two, so it overflows only where its
exact value does, even where a quotient of unlike sums such as u_rel would.

Every sum reads one table form, the network's table of a scope mask: the
stacked (p, p * u) pair over exactly the scope's axes, which holds the
joint's sums over every other variable (``Network._table``).  It is summed
from the table of the clique of the network's cover that holds the scope,
or from the factors where the scope is a clique or spans cliques.  A
cylinder question's scope is its fixed and kept axes, a state set's every
axis, whose table is the joint's pair, read by flat state.  A read indexes
the fixed axes and sums nothing more, save where one table answers several
sums (the F of a conditional, the four meets of eu_independent_events).
The separator shortcut (local_conditional_eu) reads two windows off the
factors.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    PROB,
    UTIL,
    EmptyEventError,
    EunError,
    Event,
    Network,
    NumericRangeError,
    SeparationError,
    ValidationError,
    _ratio_window,
    _require_cap,
    _mask,
    _Table,
    _totals,
    resolve_state_cap,
)

__all__ = [
    "MeasureTriple",
    "marginal_p_ratio",
    "marginal_u_ratio",
    "conditional_probability",
    "event_utility",
    "conditional_event_utility",
    "value",
    "utility_bayes",
    "local_conditional_eu",
]

_AGREEMENT_TOL = 1e-9


@dataclass(frozen=True)
class MeasureTriple:
    """Probability, relative and normalised expected utility, and value."""

    p: float
    u_rel: float
    u_norm: float
    v: float

    @property
    def classification(self) -> str:
        """"good" for u_norm above 1, "bad" below, "neutral" at exactly 1."""
        if self.u_norm > 1.0:
            return "good"
        if self.u_norm < 1.0:
            return "bad"
        return "neutral"


def _event_sums(
    network: Network, event: Event, cap: int, keep: Sequence[int] = ()
) -> tuple:
    """(S_p, S_u) over the event: ratio sums against the reference state.

    With ``keep`` (axes in index order, left free by a cylinder event) the
    sums come back as tables over the kept axes, followed by a boolean table
    marking the combinations the event meets (None for a cylinder, which
    meets every one), the totals [S_p(E), S_u(E)] and the least S_p and S_u
    of a met combination, as from :func:`_tables_in_range`.  Every sum must
    be finite and, over a non-empty event or a met combination, positive; a
    sum that overflowed or underflowed raises NumericRangeError instead of
    turning into an inf, a NaN or a zero in the answer.
    """
    table = network._table(_scope_of(network, event, keep), cap)
    return _sums_from(table, event, keep)


def _scope_of(network: Network, event: Event, keep: Sequence[int] = ()) -> int:
    """The scope of a question, the bit mask of the axes its table spans:
    a cylinder's fixed and kept axes, and every axis for a state set."""
    if event.space != network.space:
        raise ValidationError("event belongs to a different variable system")
    if event._partial is None:
        return (1 << len(network.space)) - 1
    return _mask(event._partial) | _mask(keep)


# Where a table's totals are at most this, no sum of its entries overflows,
# in any order: the entries are non-negative.
_SAFE_TOTAL = sys.float_info.max / 2


def _overflow_reported(read: Callable[..., tuple]) -> Callable[..., tuple]:
    """``read(table, where, keep)`` as it is where the table's totals are
    safe, else under ``np.errstate(over="ignore")``: a sum that overflows is
    then an inf for :func:`_in_range` to report, whatever numpy's error
    state."""

    @functools.wraps(read)
    def guarded(table: _Table, where: object, keep: Sequence[int] = ()) -> tuple:
        if table.sp <= _SAFE_TOTAL and table.su <= _SAFE_TOTAL:
            return read(table, where, keep)
        with np.errstate(over="ignore"):
            return read(table, where, keep)

    return guarded


@_overflow_reported
def _sums_from(table: _Table, event: Event, keep: Sequence[int] = ()) -> tuple:
    """The sums of :func:`_event_sums`, read from a scope table that holds
    the event's axes; with ``keep``, the table of the question's scope.  A
    state set's table spans every axis, so its flat indexes index the pair."""
    if event._partial is not None:
        return _cylinder_sums(table, event._partial, keep)
    flat = event.flat_indexes()
    if flat.size == 0 and not keep:
        return 0.0, 0.0
    vals = table.pair.reshape(2, -1)[:, flat]
    if not keep:
        return _in_range(*vals.sum(axis=1).tolist())
    shape = event.space.shape
    kept_shape = tuple(shape[ax] for ax in keep)
    coords = np.unravel_index(flat, shape)
    code = np.ravel_multi_index(tuple(coords[ax] for ax in keep), kept_shape)
    size = math.prod(kept_shape)
    sums = np.stack([np.bincount(code, weights=half, minlength=size) for half in vals])
    member = np.bincount(code, minlength=size).reshape(kept_shape) > 0
    return _tables_in_range(sums.reshape(2, *kept_shape), member)


_ALL = slice(None)


@_overflow_reported
def _cylinder_sums(table: _Table, fixed: dict[int, int], keep: Sequence[int]) -> tuple:
    """The cylinder branch of :func:`_event_sums`, over a scope table whose
    axes hold ``fixed``; with ``keep``, exactly ``fixed`` and ``keep``.

    The fixed axes index the pair.  With ``keep``, that is the whole read.
    Otherwise the slice's other axes are summed out: F of a conditional
    reads the table of E and F, and sums the axes only E fixes.
    """
    sub = table.pair[(_ALL, *[fixed.get(ax, _ALL) for ax in table.axes])]
    if keep:
        return _tables_in_range(sub)
    return _in_range(*(sub.tolist() if sub.ndim == 1 else _totals(sub)))


def _in_range(sp: float, su: float) -> tuple[float, float]:
    """Pass on the sums of a non-empty event when both are finite and positive."""
    if not (0.0 < sp < math.inf and 0.0 < su < math.inf):
        raise NumericRangeError(
            f"event sums S_p={sp!r}, S_u={su!r} leave float range: the joint "
            "ratios over- or underflow on this network"
        )
    return sp, su


def _tables_in_range(sums: np.ndarray, member: np.ndarray | None = None) -> tuple:
    """Pass on a stacked pair of kept-axes tables, with finite totals and
    positive met entries, as (S_p table, S_u table, ``member``, totals,
    least met entries): the totals are [S_p, S_u] over the event and the
    least entries the smallest S_p and S_u of a met combination; with no
    ``member``, every combination is met.

    The entries are non-negative, so finite totals make every entry finite.
    """
    totals = _totals(sums)
    _in_range(*totals)
    met = sums if member is None else sums[:, member]
    lows = np.minimum.reduce(met, tuple(range(1, met.ndim))).tolist()
    if not min(lows) > 0.0:
        raise NumericRangeError(
            "an event sum underflows to 0: the joint ratios underflow on this network"
        )
    return sums[0], sums[1], member, totals, lows


def _quotient(a: float, b: float, c: float = 1.0, d: float = 1.0) -> float:
    """(a / b) (c / d) for positive sums, b and d the sums a and c are
    compared with.  A product below float range rounds to 0 or a subnormal,
    as any float arithmetic does; one above raises NumericRangeError."""
    out = (a / b) * (c / d)
    if not 0.0 < out < math.inf:
        # A ratio left float range on its own: take the product on the
        # mantissas and the exponents apart.
        (ma, ea), (mb, eb), (mc, ec), (md, ed) = map(math.frexp, (a, b, c, d))
        try:
            out = math.ldexp((ma / mb) * (mc / md), ea - eb + ec - ed)
        except OverflowError:
            raise NumericRangeError("a measure overflows float range on this network") from None
    return out


def _require_nonempty(event: Event, role: str) -> None:
    if event.is_empty:
        raise EmptyEventError(f"{role} is empty, the measure is undefined on it")


def _conditional_sums(
    network: Network, e: Event, f: Event, measure: str, state_cap: int | None
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The sums over E and F and over F, for the conditional ``measure`` of E given F."""
    _require_nonempty(f, "conditioning event F")
    ef = e & f
    if ef.is_empty:
        raise EmptyEventError(f"E and F do not intersect, conditional {measure} undefined")
    # F's fixed axes are among those of E and F, so one table answers both.
    table = network._table(_scope_of(network, ef), resolve_state_cap(state_cap))
    return _sums_from(table, ef), _sums_from(table, f)


def marginal_p_ratio(
    network: Network, partial: Mapping[str, str], state_cap: int | None = None
) -> float:
    """Marginal probability of the cylinder on ``partial``, relative to p(x0).

    The sum of joint ratios over all completions of the free variables,
    taken in index order.  An empty partial yields 1 / p(x0).
    """
    event = network.cylinder(partial)
    sp, _ = _event_sums(network, event, resolve_state_cap(state_cap))
    return sp


def marginal_u_ratio(
    network: Network, partial: Mapping[str, str], state_cap: int | None = None
) -> float:
    """Expected utility of the cylinder on ``partial``, relative to u(x0).

    The probability-weighted average of utility ratios over the completions
    of the free variables.
    """
    sp, su = _event_sums(network, network.cylinder(partial), resolve_state_cap(state_cap))
    return _quotient(su, sp)


def conditional_probability(
    network: Network,
    e: Event,
    f: Event,
    allow_empty: bool = False,
    state_cap: int | None = None,
) -> float:
    """p(E | F).  The conditioning event must have positive probability.

    An empty intersection is a hard error unless ``allow_empty`` is set, in
    which case the conditional is 0.
    """
    if allow_empty and not f.is_empty and (e & f).is_empty:
        return 0.0
    (sp_ef, _), (sp_f, _) = _conditional_sums(network, e, f, "probability", state_cap)
    return _quotient(sp_ef, sp_f)


def _sure_and_event_sums(
    network: Network, e: Event, state_cap: int | None
) -> tuple[float, float, float, float]:
    """S_p and S_u over E, then over the sure event: the totals of E's
    scope table, cached with it."""
    _require_nonempty(e, "event E")
    table = network._table(_scope_of(network, e), resolve_state_cap(state_cap))
    return *_sums_from(table, e), *_in_range(table.sp, table.su)


def event_utility(network: Network, e: Event, state_cap: int | None = None) -> MeasureTriple:
    """Probability, expected utility, and value of one event.

    ``u_rel`` is relative to the utility of the reference state, ``u_norm``
    rescales so the sure event is worth 1, and ``v = u_norm * p`` is the
    additive value measure.  The sure event's sums are the totals of E's
    scope table.  Where one of the four overflows, NumericRangeError is
    raised; u_norm alone is u(E | True) of
    :func:`conditional_event_utility`, bit for bit.
    """
    sp, su, sp_t, su_t = _sure_and_event_sums(network, e, state_cap)
    return MeasureTriple(
        p=_quotient(sp, sp_t),
        u_rel=_quotient(su, sp),
        u_norm=_quotient(su, su_t, sp_t, sp),
        v=_quotient(su, su_t),
    )


def conditional_event_utility(
    network: Network, e: Event, f: Event, state_cap: int | None = None
) -> float:
    """u(E | F) = u(E and F) / u(F), as (S_u(EF) / S_u(F)) (S_p(F) / S_p(EF))."""
    (sp_ef, su_ef), (sp_f, su_f) = _conditional_sums(network, e, f, "utility", state_cap)
    return _quotient(su_ef, su_f, sp_f, sp_ef)


def value(
    network: Network, e: Event, f: Event | None = None, state_cap: int | None = None
) -> float:
    """v(E) or, given ``f``, the conditional value v(E | F) = v(EF) / v(F)."""
    if f is None:
        _, su_ef, _, su_f = _sure_and_event_sums(network, e, state_cap)
    else:
        (_, su_ef), (_, su_f) = _conditional_sums(network, e, f, "value", state_cap)
    return _quotient(su_ef, su_f)


def utility_bayes(network: Network, f: Event, e: Event, state_cap: int | None = None) -> float:
    """u(F | E) from the reversed conditionals, the utility analogue of Bayes.

    Combines u(E|F), u(E|not F), the priors u(F), u(not F), and the posterior
    probabilities of F and not F given E, as

        u(F|E) = 1 / (p(F|E) + (u(E|not F) / u(E|F)) (u(not F) / u(F)) p(not F|E)),

    each utility compared with its like.  The result is checked against the
    direct conditional within a tight relative tolerance.
    """
    cap = resolve_state_cap(state_cap)
    not_f = f.complement(cap)
    for name, ev in (("F", f), ("not F", not_f), ("E and F", e & f), ("E and not F", e & not_f)):
        if ev.is_empty:
            raise EmptyEventError(f"{name} is empty, the utility Bayes rule is undefined")

    sure = network.true_event()
    u_e_given_f = conditional_event_utility(network, e, f, cap)
    u_e_given_nf = conditional_event_utility(network, e, not_f, cap)
    u_f = conditional_event_utility(network, f, sure, cap)
    u_nf = conditional_event_utility(network, not_f, sure, cap)
    p_f_given_e = conditional_probability(network, f, e, state_cap=cap)
    p_nf_given_e = conditional_probability(network, not_f, e, state_cap=cap)

    out = 1.0 / (p_f_given_e + _quotient(u_e_given_nf, u_e_given_f, u_nf, u_f) * p_nf_given_e)
    direct = conditional_event_utility(network, f, e, cap)
    if abs(out - direct) > _AGREEMENT_TOL * abs(direct):
        raise EunError(
            "internal inconsistency: utility Bayes disagrees with the direct conditional"
        )
    return out


def local_conditional_eu(
    network: Network,
    b: Mapping[str, str],
    a: Mapping[str, str],
    state_cap: int | None = None,
) -> float:
    """u(b | a) through the separator shortcut, touching only A and B.

    Requires the variables of ``a`` to separate the variables of ``b`` from
    everything else in both layers, on a network that passes the
    mantle-consistency check.  Under those conditions the conditional
    expected utility reduces to

        u(b | a) = w(b | a) / sum_b' w(b' | a) p(b' | a)

    where w and q are the two layers' ratio tables over the B block given
    the A block (everything else pinned at reference, which the separation
    makes irrelevant), and p(b|a) is q(b|a) renormalised over the B block.
    Both tables, and the cached mantle check (``imap_report``), are windows
    read off the factors under the state cap, not the joint; a window or an
    answer that leaves float range raises NumericRangeError.
    """
    space = network.space
    b_idx = space.partial_indexes(b)
    a_idx = space.partial_indexes(a)
    if set(b_idx) & set(a_idx):
        raise ValidationError("the b and a assignments must not share variables")
    if not b_idx:
        raise ValidationError("the b assignment must be non-empty")

    names = space.names
    b_vars = {names[i] for i in b_idx}
    a_vars = {names[i] for i in a_idx}
    rest = set(names) - b_vars - a_vars
    if rest:
        for layer in (PROB, UTIL):
            if not network.graph.separating(
                layer, frozenset(b_vars), frozenset(rest), frozenset(a_vars)
            ):
                raise SeparationError(
                    f"the conditioning variables do not separate the target block "
                    f"from the rest in the {layer} layer"
                )
    b_axes = sorted(b_idx)
    _require_cap(math.prod(space.shape[ax] for ax in b_axes), state_cap, "a window over")
    if not network.imap_report(state_cap=state_cap).ok:
        raise SeparationError(
            "network fails the mantle-consistency check, the local shortcut is undefined on it"
        )

    # Both windows move the B block, with A at its values and the rest at reference.
    base = [a_idx.get(ax, ref) for ax, ref in enumerate(space.reference_indexes)]
    factors = network._factors
    w, q = (_ratio_window(factors(layer), space, b_axes, b_axes, base) for layer in (UTIL, PROB))
    with np.errstate(all="ignore"):  # reported just below
        out = float(w[tuple(b_idx[ax] for ax in b_axes)] / np.vdot(w, q / q.sum()))
    if not 0.0 < out < math.inf:
        raise NumericRangeError(f"u(b | a) = {out!r} leaves float range on this network")
    return out
