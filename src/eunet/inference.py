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
    if event.space != network.space:
        raise ValidationError("event belongs to a different variable system")
    pr, ur = network._ratio_pair(cap)
    fixed = event.fixed
    if fixed is not None:
        return _cylinder_sums(pr, ur, fixed, keep)
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
    of the two slices, so p * u never exists as a slice-sized temporary.

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
    idx: list[object] = [slice(None)] * n
    for ax, v in fixed.items():
        idx[ax] = v
    key = tuple(idx)
    psub, usub = pr[key], ur[key]
    dims = list(range(psub.ndim))
    if not keep:
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
    of the free variables.  Agreement with the event-level computation is
    checked internally.
    """
    event = network.cylinder(partial)
    cap = resolve_state_cap(state_cap)
    sp, su = _event_sums(network, event, cap)
    out = su / sp
    direct = event_utility(network, event, cap).u_rel
    if abs(out - direct) > _AGREEMENT_TOL * abs(direct):
        raise EunError(
            "internal inconsistency: marginal utility ratio disagrees with the event computation"
        )
    return out


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
    _require_nonempty(f, "conditioning event F")
    ef = e & f
    if ef.is_empty:
        if allow_empty:
            return 0.0
        raise EmptyEventError(
            "E and F do not intersect, conditional probability undefined"
        )
    cap = resolve_state_cap(state_cap)
    sp_ef, _ = _event_sums(network, ef, cap)
    sp_f, _ = _event_sums(network, f, cap)
    return sp_ef / sp_f


def event_utility(network: Network, e: Event, state_cap: int | None = None) -> MeasureTriple:
    """Probability, expected utility, and value of one event.

    ``u_rel`` is relative to the utility of the reference state, ``u_norm``
    rescales so the sure event is worth 1, and ``v = u_norm * p`` is the
    additive value measure.  The sure event's sums are cached on the network.
    """
    _require_nonempty(e, "event E")
    cap = resolve_state_cap(state_cap)
    sp, su = _event_sums(network, e, cap)
    sp_t, su_t = network._cached(
        "sure_sums", lambda: _event_sums(network, network.true_event(), cap)
    )
    u_rel = su / sp
    u_norm = u_rel / (su_t / sp_t)
    p = sp / sp_t
    return MeasureTriple(p=p, u_rel=u_rel, u_norm=u_norm, v=su / su_t)


def conditional_event_utility(
    network: Network, e: Event, f: Event, state_cap: int | None = None
) -> float:
    """u(E | F) = u(E and F) / u(F), in the normalisation-free ratio form."""
    _require_nonempty(f, "conditioning event F")
    ef = e & f
    if ef.is_empty:
        raise EmptyEventError("E and F do not intersect, conditional utility undefined")
    cap = resolve_state_cap(state_cap)
    sp_ef, su_ef = _event_sums(network, ef, cap)
    sp_f, su_f = _event_sums(network, f, cap)
    return (su_ef / sp_ef) / (su_f / sp_f)


def value(
    network: Network, e: Event, f: Event | None = None, state_cap: int | None = None
) -> float:
    """v(E) or, given ``f``, the conditional value v(E | F) = v(EF) / v(F)."""
    if f is None:
        return event_utility(network, e, state_cap).v
    _require_nonempty(f, "conditioning event F")
    ef = e & f
    if ef.is_empty:
        raise EmptyEventError("E and F do not intersect, conditional value undefined")
    cap = resolve_state_cap(state_cap)
    _, su_ef = _event_sums(network, ef, cap)
    _, su_f = _event_sums(network, f, cap)
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
    The enumeration runs over the B block only.
    """
    b_idx = network.space.partial_indexes(b)
    a_idx = network.space.partial_indexes(a)
    if set(b_idx) & set(a_idx):
        raise ValidationError("the b and a assignments must not share variables")
    if not b_idx:
        raise ValidationError("the b assignment must be non-empty")

    names = network.space.names
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
    report = network.imap_report(state_cap=state_cap)
    if not report.ok:
        raise SeparationError(
            "network fails the mantle-consistency check, the local shortcut is undefined on it"
        )

    # Chain products restricted to the A and B blocks.  Variables outside the
    # two blocks sit at their reference values, where their own factors are
    # exactly 1, so they never need touching.
    local = sorted(set(b_idx) | set(a_idx))
    log_pots = {layer: network._log_potentials(layer) for layer in (PROB, UTIL)}
    refs = network.space.reference_indexes

    def block_ratio(layer: str, values: dict[int, int]) -> float:
        total = 0.0
        for i in local:
            axes, logt = log_pots[layer][i]
            total += float(logt[tuple(values.get(ax, refs[ax]) for ax in axes)])
        return math.exp(total)

    b_axes = sorted(b_idx)
    target = tuple(b_idx[ax] for ax in b_axes)
    w_by_combo: dict[tuple[int, ...], float] = {}
    q_by_combo: dict[tuple[int, ...], float] = {}
    for combo in itertools.product(*(range(network.space.shape[ax]) for ax in b_axes)):
        values = dict(a_idx)
        values.update(zip(b_axes, combo))
        w_by_combo[combo] = block_ratio(UTIL, values)
        q_by_combo[combo] = block_ratio(PROB, values)

    q_total = sum(q_by_combo.values())
    denom = sum(
        w_by_combo[c] * q_by_combo[c] / q_total for c in w_by_combo
    )
    return w_by_combo[target] / denom
