"""Event-level probability and expected utility on a network.

An event's probability, expected utility, and value are all sums over the
reconstructed joint tables.  Writing S_p(E) for the sum of probability
ratios over E and S_u(E) for the sum of probability-times-utility ratios,

    p(E)      = S_p(E) / S_p(True)
    u_rel(E)  = S_u(E) / S_p(E)        (relative to u at the reference state)
    u_norm(E) = u_rel(E) / u_rel(True) (the sure event is worth exactly 1)
    v(E)      = u_norm(E) p(E) = S_u(E) / S_u(True)

Conditionals divide: p(E|F) = p(EF)/p(F), u(E|F) = u(EF)/u(F), and
v(E|F) = v(EF)/v(F) = u(E|F) p(E|F).  All of it is exact enumeration over
the cached ratio tables, with cylinder events hitting a slicing fast path.
A cylinder question whose fixed and kept axes share a clique of both
layers' graph sums a slice of that clique's marginal tables instead, which
hold the joint's sums over every other variable and are summed from the
factors by bucket elimination, so such a question never builds the joint.
The separator shortcut (local_conditional_eu) reads two windows off the
factors, never the joint.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
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

    A cylinder whose fixed and kept axes share a clique of both layers'
    graph reads that clique's marginal tables; anything else reads the joint.
    """
    return _sums_from(network, _clique_of(network, event, keep), event, cap, keep)


def _clique_of(network: Network, event: Event, keep: Sequence[int] = ()) -> _Clique | None:
    """The clique with the fewest entries that holds a cylinder's fixed axes
    and the kept axes; None for a state set or where no clique holds them.

    A pure function of the graph, the ordering and the question's axes, so a
    question reads the same table whatever was asked or cached before.
    """
    if event._partial is None:
        return None
    mask = 0
    for ax in itertools.chain(event._partial, keep):
        mask |= 1 << ax
    for clique in network._cliques():
        if clique.mask & mask == mask:
            return clique
    return None


def _sums_from(
    network: Network, clique: _Clique | None, event: Event, cap: int, keep: Sequence[int] = ()
) -> tuple:
    """The sums of :func:`_event_sums`, read from the clique's marginal pair,
    or from the joint pair when ``clique`` is None."""
    if event.space != network.space:
        raise ValidationError("event belongs to a different variable system")
    if clique is not None:
        tp, tu, _, _ = network._clique_tables(clique, cap)
        return _clique_sums(tp, tu, clique.axes, event._partial, keep)
    pr, ur = network._ratio_pair(cap)
    if event._partial is not None:
        return _cylinder_sums(pr, ur, event._partial, keep)
    flat = event.flat_indexes()
    if flat.size == 0 and not keep:
        return 0.0, 0.0
    pvals = pr.reshape(-1)[flat]
    puvals = pvals * ur.reshape(-1)[flat]
    if not keep:
        return _in_range(float(pvals.sum()), float(puvals.sum()))
    shape = network.space.shape
    kept_shape = tuple(shape[ax] for ax in keep)
    coords = np.unravel_index(flat, shape)
    code = np.ravel_multi_index(tuple(coords[ax] for ax in keep), kept_shape)
    size = math.prod(kept_shape)
    sp = np.bincount(code, weights=pvals, minlength=size).reshape(kept_shape)
    su = np.bincount(code, weights=puvals, minlength=size).reshape(kept_shape)
    member = np.bincount(code, minlength=size).reshape(kept_shape) > 0
    return _tables_in_range(sp, su, member)


def _clique_sums(
    tp: np.ndarray,
    tu: np.ndarray,
    axes: tuple[int, ...],
    fixed: dict[int, int],
    keep: Sequence[int],
) -> tuple:
    """The cylinder sums over the marginal pair of the clique on ``axes``.

    The entries already sum p and p * u over the variables outside the
    clique, so each sum adds up a slice of one table.
    """
    index: list[object] = [slice(None)] * tp.ndim
    for ax, v in fixed.items():
        index[axes.index(ax)] = v
    key = tuple(index)
    p, u = tp[key], tu[key]
    if not keep:
        return _in_range(float(p.sum()), float(u.sum()))
    free = [ax for ax in axes if ax not in fixed]
    summed = tuple(k for k, ax in enumerate(free) if ax not in keep)
    sp, su = p.sum(axis=summed), u.sum(axis=summed)
    return _tables_in_range(sp, su, np.ones(sp.shape, dtype=bool))


# A pass of numpy's reductions runs fast when its innermost loop covers many
# contiguous entries, and element by element around a short innermost axis.
# A run of at least this many contiguous entries is long.  Where one pass and
# the run-by-run order of _cylinder_sums cross depends on the whole layout:
# on a 19-variable binary network it fell between 32 and 128 entries case by
# case, and over 40 random decisions there both bounds took the same time.
_LONG_RUN = 32
_FIXED, _KEPT, _SUMMED = range(3)


def _cylinder_sums(
    pr: np.ndarray, ur: np.ndarray, fixed: dict[int, int], keep: Sequence[int]
) -> tuple:
    """The cylinder branch of :func:`_event_sums`, over the two ratio tables.

    With no kept axes S_p is one sum over the slice and S_u one contraction
    of the two slices, so p * u never exists as a slice-sized temporary: a
    dot product of the flattened slices when they are shorter than a long
    run (a copy of at most that many entries, with no einsum dispatch), else
    an einsum.

    With kept axes the reduction order follows the slice's layout.  Each run
    of adjacent axes with one role (fixed, kept, summed out) is one axis of a
    reshape of the contiguous table.  When every free axis is kept, or the
    innermost run is summed out and is long or the only summed-out run (the
    auction's layout), one pass over the slice (a multi-axis sum and an
    einsum) has nothing to gain from going run by run.  Otherwise the
    summed-out runs go one at a time, outermost first, so each step adds
    whole contiguous blocks where one multi-axis pass would step around the
    short innermost axis entry by entry.  A summed-out run in front of a
    short contiguous tail is split in two, its inner part just long enough
    that the tail and it make a long block.
    """
    n = pr.ndim
    key = tuple([fixed.get(ax, slice(None)) for ax in range(n)])
    psub, usub = pr[key], ur[key]
    dims = list(range(psub.ndim))
    if not keep:
        if psub.size < _LONG_RUN:
            return _in_range(float(psub.sum()), float(np.vdot(psub, usub)))
        return _in_range(float(psub.sum()), float(np.einsum(psub, dims, usub, dims, [])))

    keep_set = set(keep)
    role = [_FIXED if ax in fixed else _KEPT if ax in keep_set else _SUMMED for ax in range(n)]
    runs = [(r, list(axes)) for r, axes in itertools.groupby(range(n), key=role.__getitem__)]
    summed = [axes for r, axes in runs if r == _SUMMED]
    inner_role, inner_axes = next(run for run in reversed(runs) if run[0] != _FIXED)
    if not summed or (
        inner_role == _SUMMED
        and (len(summed) == 1 or math.prod(pr.shape[ax] for ax in inner_axes) >= _LONG_RUN)
    ):
        free = [ax for ax in range(n) if ax not in fixed]
        kept = [k for k, ax in enumerate(free) if ax in keep_set]
        sp = psub.sum(axis=tuple(k for k in dims if k not in kept))
        su = np.einsum(psub, dims, usub, dims, kept)
        return _tables_in_range(sp, su, np.ones(sp.shape, dtype=bool))

    tail = 1
    for i in range(len(runs) - 1, -1, -1):
        r, axes = runs[i]
        if r == _FIXED:
            break
        if r == _SUMMED and tail < _LONG_RUN:
            inner = tail
            for cut in range(len(axes) - 1, 0, -1):
                inner *= pr.shape[axes[cut]]
                if inner >= _LONG_RUN:
                    runs[i:i + 1] = [(r, axes[:cut]), (r, axes[cut:])]
                    break
        tail *= math.prod(pr.shape[ax] for ax in axes)

    sizes = [math.prod(pr.shape[ax] for ax in axes) for _, axes in runs]
    merged_key = tuple(
        int(np.ravel_multi_index([fixed[ax] for ax in axes], [pr.shape[ax] for ax in axes]))
        if r == _FIXED
        else slice(None)
        for r, axes in runs
    )
    p = pr.reshape(sizes)[merged_key]
    u = ur.reshape(sizes)[merged_key]
    roles = [r for r, _ in runs if r != _FIXED]
    dims = list(range(len(roles)))
    first = roles.index(_SUMMED)
    pu = np.einsum(p, dims, u, dims, dims[:first] + dims[first + 1:])
    p = p.sum(axis=first)
    axis = first
    for r in roles[first + 1:]:
        if r == _SUMMED:
            p = p.sum(axis=axis)
            pu = pu.sum(axis=axis)
        else:
            axis += 1
    kept_shape = tuple(pr.shape[ax] for ax in keep)
    return _tables_in_range(
        p.reshape(kept_shape), pu.reshape(kept_shape), np.ones(kept_shape, dtype=bool)
    )


def _in_range(sp: float, su: float) -> tuple[float, float]:
    """Pass on the sums of a non-empty event when both are finite and positive."""
    if not (0.0 < sp < math.inf and 0.0 < su < math.inf):
        raise NumericRangeError(
            f"event sums S_p={sp!r}, S_u={su!r} leave float range: the joint "
            "ratios over- or underflow on this network"
        )
    return sp, su


def _tables_in_range(sp: np.ndarray, su: np.ndarray, member: np.ndarray) -> tuple:
    """Pass on kept-axes tables with finite totals and positive met entries.

    The entries are non-negative, so finite totals make every entry finite.
    """
    _in_range(float(sp.sum()), float(su.sum()))
    if not (np.all(sp[member] > 0.0) and np.all(su[member] > 0.0)):
        raise NumericRangeError(
            "an event sum underflows to 0: the joint ratios underflow on this network"
        )
    return sp, su, member


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
    return su / sp


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
    return sp_ef / sp_f


def event_utility(network: Network, e: Event, state_cap: int | None = None) -> MeasureTriple:
    """Probability, expected utility, and value of one event.

    ``u_rel`` is relative to the utility of the reference state, ``u_norm``
    rescales so the sure event is worth 1, and ``v = u_norm * p`` is the
    additive value measure.  The sure event's sums come from the table that
    answers E: a clique's totals, or the joint's, cached on the network.
    """
    _require_nonempty(e, "event E")
    cap = resolve_state_cap(state_cap)
    clique = _clique_of(network, e)
    sp, su = _sums_from(network, clique, e, cap)
    if clique is None:
        sp_t, su_t = network._cached(
            "sure_sums", lambda: _sums_from(network, None, network.true_event(), cap)
        )
    else:
        sp_t, su_t = _in_range(*network._clique_tables(clique, cap)[2:])
    u_rel = su / sp
    u_norm = u_rel / (su_t / sp_t)
    p = sp / sp_t
    return MeasureTriple(p=p, u_rel=u_rel, u_norm=u_norm, v=su / su_t)


def conditional_event_utility(
    network: Network, e: Event, f: Event, state_cap: int | None = None
) -> float:
    """u(E | F) = u(E and F) / u(F), in the normalisation-free ratio form."""
    (sp_ef, su_ef), (sp_f, su_f) = _conditional_sums(network, e, f, "utility", state_cap)
    return (su_ef / sp_ef) / (su_f / sp_f)


def value(
    network: Network, e: Event, f: Event | None = None, state_cap: int | None = None
) -> float:
    """v(E) or, given ``f``, the conditional value v(E | F) = v(EF) / v(F)."""
    if f is None:
        return event_utility(network, e, state_cap).v
    (_, su_ef), (_, su_f) = _conditional_sums(network, e, f, "value", state_cap)
    return su_ef / su_f


def utility_bayes(network: Network, f: Event, e: Event, state_cap: int | None = None) -> float:
    """u(F | E) from the reversed conditionals, the utility analogue of Bayes.

    Combines u(E|F), u(E|not F), the priors u(F), u(not F), and the posterior
    probabilities of F and not F given E.  The result is checked against the
    direct conditional within a tight relative tolerance.
    """
    cap = resolve_state_cap(state_cap)
    not_f = f.complement(cap)
    for name, ev in (("F", f), ("not F", not_f), ("E and F", e & f), ("E and not F", e & not_f)):
        if ev.is_empty:
            raise EmptyEventError(f"{name} is empty, the utility Bayes rule is undefined")

    u_e_given_f = conditional_event_utility(network, e, f, cap)
    u_e_given_nf = conditional_event_utility(network, e, not_f, cap)
    u_f = event_utility(network, f, cap).u_norm
    u_nf = event_utility(network, not_f, cap).u_norm
    p_f_given_e = conditional_probability(network, f, e, state_cap=cap)
    p_nf_given_e = conditional_probability(network, not_f, e, state_cap=cap)

    numerator = u_e_given_f * u_f
    denominator = numerator * p_f_given_e + u_e_given_nf * u_nf * p_nf_given_e
    out = numerator / denominator

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
