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

Every sum reads one clique's stacked (p, p * u) pair, which holds the
joint's sums over every variable outside the clique and is summed from the
factors by bucket elimination: the smallest clique of both layers' graph
that holds a cylinder question's fixed and kept axes, or else the clique of
every axis, whose pair is the joint's and which state sets index by flat
state.  The separator shortcut (local_conditional_eu) reads two windows off
the factors.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
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
    _Clique,
    _ratio_window,
    _require_cap,
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
    marking the combinations the event meets.  Every sum must be finite and,
    over a non-empty event or a met combination, positive; a sum that
    overflowed or underflowed raises NumericRangeError instead of turning
    into an inf, a NaN or a zero in the answer.
    """
    return _sums_from(network, _clique_of(network, event, keep), event, cap, keep)


def _clique_of(network: Network, event: Event, keep: Sequence[int] = ()) -> _Clique:
    """The clique whose pair answers the event with ``keep`` kept: the one
    :func:`_clique_holding` finds for a cylinder's fixed and kept axes, and
    the clique of every axis for a state set."""
    if event._partial is None:
        return _clique_holding(network, range(len(network.space)))
    return _clique_holding(network, itertools.chain(event._partial, keep))


def _clique_holding(network: Network, axes: Iterable[int]) -> _Clique:
    """The clique with the fewest entries that holds ``axes``, or else the
    clique of every axis, whose pair is the joint's.

    A pure function of the graph, the ordering and the axes, so a question
    reads the same table whatever was asked or cached before.
    """
    mask = 0
    for ax in axes:
        mask |= 1 << ax
    for clique in network._cliques():
        if clique.mask & mask == mask:
            return clique
    n = len(network.space)
    return _Clique((1 << n) - 1, tuple(range(n)))


def _sums_from(
    network: Network, clique: _Clique, event: Event, cap: int, keep: Sequence[int] = ()
) -> tuple:
    """The sums of :func:`_event_sums`, read from the clique's pair.  A
    state set's clique holds every axis, so its flat indexes index the pair."""
    if event.space != network.space:
        raise ValidationError("event belongs to a different variable system")
    pair = network._clique_tables(clique, cap)[0]
    if event._partial is not None:
        return _cylinder_sums(pair, clique.axes, event._partial, keep)
    flat = event.flat_indexes()
    if flat.size == 0 and not keep:
        return 0.0, 0.0
    vals = pair.reshape(2, -1)[:, flat]
    if not keep:
        return _in_range(*vals.sum(axis=1).tolist())
    shape = network.space.shape
    kept_shape = tuple(shape[ax] for ax in keep)
    coords = np.unravel_index(flat, shape)
    code = np.ravel_multi_index(tuple(coords[ax] for ax in keep), kept_shape)
    size = math.prod(kept_shape)
    sums = np.stack([np.bincount(code, weights=half, minlength=size) for half in vals])
    member = np.bincount(code, minlength=size).reshape(kept_shape) > 0
    return _tables_in_range(sums.reshape(2, *kept_shape), member)


# A pass of numpy's reductions runs fast when its innermost loop covers many
# contiguous entries, and element by element around a short innermost axis.
# A run of at least this many contiguous entries is long.  Where one pass and
# the run-by-run order of _cylinder_sums cross depends on the whole layout:
# on a 19-variable binary network it fell between 32 and 128 entries case by
# case, and over 40 random decisions there both bounds took the same time.
_LONG_RUN = 32
_FIXED, _KEPT, _SUMMED = range(3)


def _cylinder_sums(
    pair: np.ndarray, axes: Sequence[int], fixed: dict[int, int], keep: Sequence[int]
) -> tuple:
    """The cylinder branch of :func:`_event_sums`, over a clique's stacked
    pair on ``axes``; ``fixed`` and ``keep`` name axes of the clique.

    Each step sums both halves of the slice at once.  With no kept axes
    that is one sum over every axis of the slice but the halves' axis.

    With kept axes the reduction order follows the slice's layout.  Each run
    of adjacent axes with one role (fixed, kept, summed out) is one axis of a
    reshape of the contiguous pair.  When every free axis is kept, or the
    innermost run is summed out and is long or the only summed-out run (the
    auction's layout), one multi-axis sum over the slice has nothing to gain
    from going run by run.  Otherwise the summed-out runs go one at a time,
    outermost first, so each step adds whole contiguous blocks where one
    multi-axis pass would step around the short innermost axis entry by
    entry.  A summed-out run in front of a short contiguous tail is split in
    two, its inner part just long enough that the tail and it make a long
    block.
    """
    n = len(axes)
    shape = pair.shape[1:]
    index: list[object] = [slice(None)] * (n + 1)
    for ax, v in fixed.items():
        index[axes.index(ax) + 1] = v
    sub = pair[tuple(index)]
    if not keep:
        return _in_range(*sub.sum(axis=tuple(range(1, sub.ndim))).tolist())

    keep_set = set(keep)
    role = [_FIXED if ax in fixed else _KEPT if ax in keep_set else _SUMMED for ax in axes]
    runs = [(r, list(ks)) for r, ks in itertools.groupby(range(n), key=role.__getitem__)]
    summed = [ks for r, ks in runs if r == _SUMMED]
    inner_role, inner_axes = next(run for run in reversed(runs) if run[0] != _FIXED)
    if not summed or (
        inner_role == _SUMMED
        and (len(summed) == 1 or math.prod(shape[k] for k in inner_axes) >= _LONG_RUN)
    ):
        free = [k for k in range(n) if role[k] != _FIXED]
        out = sub.sum(axis=tuple(d + 1 for d, k in enumerate(free) if role[k] == _SUMMED))
        return _tables_in_range(out)

    tail = 1
    for i in range(len(runs) - 1, -1, -1):
        r, ks = runs[i]
        if r == _FIXED:
            break
        if r == _SUMMED and tail < _LONG_RUN:
            inner = tail
            for cut in range(len(ks) - 1, 0, -1):
                inner *= shape[ks[cut]]
                if inner >= _LONG_RUN:
                    runs[i:i + 1] = [(r, ks[:cut]), (r, ks[cut:])]
                    break
        tail *= math.prod(shape[k] for k in ks)

    sizes = [math.prod(shape[k] for k in ks) for _, ks in runs]
    merged_key = tuple(
        int(np.ravel_multi_index([fixed[axes[k]] for k in ks], [shape[k] for k in ks]))
        if r == _FIXED
        else slice(None)
        for r, ks in runs
    )
    out = pair.reshape(2, *sizes)[(slice(None), *merged_key)]
    axis = 1
    for r, _ in runs:
        if r == _SUMMED:
            out = out.sum(axis=axis)
        elif r == _KEPT:
            axis += 1
    return _tables_in_range(out.reshape(2, *(shape[axes.index(ax)] for ax in keep)))


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
    positive met entries, as (S_p table, S_u table, met combinations); with
    no ``member``, every combination is met.

    The entries are non-negative, so finite totals make every entry finite.
    """
    _in_range(*sums.reshape(2, -1).sum(axis=1).tolist())
    met = sums if member is None else sums[:, member]
    if not met.min() > 0.0:
        raise NumericRangeError(
            "an event sum underflows to 0: the joint ratios underflow on this network"
        )
    if member is None:
        member = np.ones(sums.shape[1:], dtype=bool)
    return sums[0], sums[1], member


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
    cap = resolve_state_cap(state_cap)
    clique = _clique_of(network, ef)
    return _sums_from(network, clique, ef, cap), _sums_from(network, clique, f, cap)


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
    """S_p and S_u over E, then over the sure event: the totals of the
    clique pair that answers E, cached with it."""
    _require_nonempty(e, "event E")
    cap = resolve_state_cap(state_cap)
    clique = _clique_of(network, e)
    sp, su = _sums_from(network, clique, e, cap)
    return sp, su, *_in_range(*network._clique_tables(clique, cap)[1:])


def event_utility(network: Network, e: Event, state_cap: int | None = None) -> MeasureTriple:
    """Probability, expected utility, and value of one event.

    ``u_rel`` is relative to the utility of the reference state, ``u_norm``
    rescales so the sure event is worth 1, and ``v = u_norm * p`` is the
    additive value measure.  The sure event's sums are the totals of the
    clique pair that answers E.  Where one of the four overflows,
    NumericRangeError is raised; u_norm alone is u(E | True) of
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
