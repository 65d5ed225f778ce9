"""Event measures: marginals, conditionals, the value measure, Bayes forms,
and the separation-enabled local shortcut."""

import io
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

import helpers
from eunet import (
    PROB,
    UTIL,
    STATE_CAP_ENV,
    DecisionProblem,
    EmptyEventError,
    Event,
    Network,
    NumericRangeError,
    SeparationError,
    StateCapError,
    ValidationError,
    conditional_event_utility,
    conditional_probability,
    event_utility,
    full_mantle_potential,
    joint_ratio,
    local_conditional_eu,
    marginal_p_ratio,
    marginal_u_ratio,
    optimal_decision,
    reconstruct_joint,
    utility_bayes,
    validate_imap,
    value,
)
from eunet.inference import _event_sums, _scope_of, _sums_from
from test_model import adversarial_net


def double_chain_net():
    """X1 - X2 - X3 in both layers with non-trivial tables everywhere."""
    return helpers.net_of(
        {"X1": ("0", "1"), "X2": ("0", "1"), "X3": ("0", "1")},
        prob_arcs=[("X1", "X2"), ("X2", "X3")],
        util_arcs=[("X1", "X2"), ("X2", "X3")],
        q={
            "X1": {("1",): 2.0},
            "X2": {("1", "0"): 1.5, ("1", "1"): 3.0},
            "X3": {("1", "0"): 0.5, ("1", "1"): 5.0},
        },
        w={
            "X1": {("1",): 1.25},
            "X2": {("1", "0"): 2.0, ("1", "1"): 0.75},
            "X3": {("1", "0"): 3.0, ("1", "1"): 0.25},
        },
    )


# -- marginal ratios -----------------------------------------------------------


def test_full_assignment_marginal_equals_joint_ratio(chain_net):
    x = {"X1": "1", "X2": "1", "X3": "1"}
    assert marginal_p_ratio(chain_net, x) == pytest.approx(
        joint_ratio(chain_net, PROB, x), rel=1e-12
    )


def test_chain_marginal_sum(chain_net):
    # states with X3=1 carry ratios 1, 5, 2, 30
    assert marginal_p_ratio(chain_net, {"X3": "1"}) == pytest.approx(38.0, rel=1e-12)


def test_marginal_matches_oracle(rng):
    net = helpers.random_network(rng, n_vars=4, domain_sizes=(2, 3))
    partial = {"X2": "1", "X4": "0"}
    want_sp, _ = helpers.oracle_event_sums(net, helpers.cylinder_member(net, partial))
    assert marginal_p_ratio(net, partial) == pytest.approx(want_sp, rel=1e-12)


def test_marginal_u_ratio_factored(hw1):
    assert marginal_u_ratio(hw1, {"H": "1"}) == pytest.approx(4.5, rel=1e-12)


def test_full_assignment_u_marginal_equals_joint_ratio(hw2):
    x = {"H": "1", "W": "1"}
    assert marginal_u_ratio(hw2, x) == pytest.approx(
        joint_ratio(hw2, UTIL, x), rel=1e-12
    )


def test_event_utilities_respond_to_probability_shifts():
    # identical utility tables, different probability weights: the expected
    # utility of H=1 moves even though no utility entry changed
    base = helpers.hw_factored_net()
    tilted = helpers.net_of(
        {"H": ("0", "1"), "W": ("0", "1")},
        q={"W": {("1",): 2.0}},
        w={"H": {("1",): 3.0}, "W": {("1",): 2.0}},
    )
    assert marginal_u_ratio(base, {"H": "1"}) == pytest.approx(4.5, rel=1e-12)
    assert marginal_u_ratio(tilted, {"H": "1"}) == pytest.approx(5.0, rel=1e-12)


# -- event measures ---------------------------------------------------------------


def test_factored_event_measures(hw1):
    triple = event_utility(hw1, hw1.cylinder({"H": "1"}))
    assert triple.u_rel == pytest.approx(4.5, rel=1e-12)
    assert triple.u_norm == pytest.approx(1.5, rel=1e-12)
    assert triple.p == pytest.approx(0.5, rel=1e-12)
    assert triple.v == pytest.approx(0.75, rel=1e-12)
    assert triple.classification == "good"


def test_sure_event_measures_are_exactly_normalised(hw1):
    triple = event_utility(hw1, hw1.true_event())
    assert triple.u_norm == 1.0
    assert triple.v == 1.0
    assert triple.p == 1.0
    assert triple.classification == "neutral"


def test_bad_event_classification(hw1):
    triple = event_utility(hw1, hw1.cylinder({"H": "0"}))
    assert triple.u_norm == pytest.approx(0.5, rel=1e-12)
    assert triple.classification == "bad"


def test_event_measures_on_explicit_state_sets(hw2):
    from eunet import Event

    e = Event.from_assignments(
        hw2.space, [{"H": "0", "W": "0"}, {"H": "1", "W": "1"}]
    )
    triple = event_utility(hw2, e)
    # uniform p over (1, 4): mean utility ratio 2.5 against u(True) 2.5
    assert triple.u_norm == pytest.approx(1.0, rel=1e-12)
    assert triple.p == pytest.approx(0.5, rel=1e-12)


def test_empty_event_rejected(hw1):
    empty = hw1.cylinder({"H": "1"}) & hw1.cylinder({"H": "0"})
    with pytest.raises(EmptyEventError):
        event_utility(hw1, empty)


def clique_chain_net():
    """X1 - X2 - X3 - X4 in both layers with domains of 2, 3, 2 and 3 values:
    three pair cliques of 6 entries each against 36 states."""
    names = ("X1", "X2", "X3", "X4")
    return helpers.chain_net(3, dict(zip(names, (2, 3, 2, 3))), names)


def test_cap_holds_on_cached_reads(chain_net, monkeypatch):
    # chain_net's cliques hold 8 entries, as many as its joint, so it reads
    # the whole clique's pair; clique_chain_net reads smaller clique pairs.
    routed = clique_chain_net()
    for net in (chain_net, routed):
        e = net.cylinder({"X1": "1"})
        f = net.cylinder({"X2": "1"})
        problem = DecisionProblem(net, ("X2",), e)
        # caches the clique pairs these questions read, with their totals
        event_utility(net, e)
        conditional_event_utility(net, e, f)
        optimal_decision(problem)
        assert helpers.routed(net, e & f) == (net is routed)
        below = net.state_count - 1
        with pytest.raises(StateCapError):
            event_utility(net, e, state_cap=below)
        with pytest.raises(StateCapError):
            conditional_event_utility(net, e, net.true_event(), state_cap=below)
        with pytest.raises(StateCapError):
            conditional_probability(net, e, f, state_cap=below)
        with pytest.raises(StateCapError):
            optimal_decision(problem, state_cap=below)
        for layer in (PROB, UTIL):
            with pytest.raises(StateCapError):
                net.ratio_tables(layer, below)
        with monkeypatch.context() as m:
            m.setenv(STATE_CAP_ENV, str(below))
            with pytest.raises(StateCapError):
                event_utility(net, e)
            with pytest.raises(StateCapError):
                value(net, e, f)
            with pytest.raises(StateCapError):
                optimal_decision(problem)


# -- conditionals ------------------------------------------------------------------


def test_chain_conditional_probability(chain_net):
    got = conditional_probability(
        chain_net, chain_net.cylinder({"X1": "1"}), chain_net.cylinder({"X3": "1"})
    )
    assert got == pytest.approx(16.0 / 19.0, rel=1e-12)


def test_conditional_probability_matches_oracle(rng):
    net = helpers.random_network(rng, n_vars=4)
    e = {"X1": "1"}
    f = {"X3": "1", "X4": "0"}
    sp_ef, _ = helpers.oracle_event_sums(net, helpers.cylinder_member(net, {**e, **f}))
    sp_f, _ = helpers.oracle_event_sums(net, helpers.cylinder_member(net, f))
    got = conditional_probability(net, net.cylinder(e), net.cylinder(f))
    assert got == pytest.approx(sp_ef / sp_f, rel=1e-12)


def test_conditional_probability_empty_intersection(hw1):
    e = hw1.cylinder({"H": "1"})
    f = hw1.cylinder({"H": "0"})
    with pytest.raises(EmptyEventError):
        conditional_probability(hw1, e, f)
    assert conditional_probability(hw1, e, f, allow_empty=True) == 0.0


def test_factored_conditional_event_utility(hw1):
    got = conditional_event_utility(
        hw1, hw1.cylinder({"W": "1"}), hw1.cylinder({"H": "1"})
    )
    assert got == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_conditional_utility_of_the_sure_event_is_one(hw2):
    f = hw2.cylinder({"H": "1"})
    assert conditional_event_utility(hw2, hw2.true_event(), f) == pytest.approx(
        1.0, rel=1e-12
    )


def test_partition_property_of_event_utility(hw2):
    # u(E) recombines from any partition of the space crossing E
    e = hw2.cylinder({"W": "1"})
    f = hw2.cylinder({"H": "1"})
    not_f = ~f
    u_e = event_utility(hw2, e).u_norm
    total = sum(
        event_utility(hw2, e & part).u_norm
        * conditional_probability(hw2, part, e)
        for part in (f, not_f)
    )
    assert total == pytest.approx(u_e, rel=1e-9)


def test_value_is_utility_times_probability(hw2):
    e = hw2.cylinder({"W": "1"})
    f = hw2.cylinder({"H": "1"})
    lhs = value(hw2, e, f)
    rhs = conditional_event_utility(hw2, e, f) * conditional_probability(hw2, e, f)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_value_additivity(hw2):
    e1 = hw2.cylinder({"H": "1", "W": "1"})
    e2 = hw2.cylinder({"H": "0", "W": "0"})
    assert value(hw2, e1 | e2) == pytest.approx(
        value(hw2, e1) + value(hw2, e2), rel=1e-12
    )


def test_sure_event_value_is_exactly_one(hw2):
    assert value(hw2, hw2.true_event()) == 1.0


# -- Bayes forms ---------------------------------------------------------------------


def test_probability_bayes_identity(rng):
    net = helpers.random_network(rng, n_vars=4)
    e = net.cylinder({"X1": "1"})
    f = net.cylinder({"X3": "1"})
    p_f_given_e = conditional_probability(net, f, e)
    p_e_given_f = conditional_probability(net, e, f)
    p_e = event_utility(net, e).p
    p_f = event_utility(net, f).p
    assert p_f_given_e == pytest.approx(p_e_given_f * p_f / p_e, rel=1e-9)


def test_utility_bayes_matches_direct_conditional(hw2):
    f = hw2.cylinder({"H": "1"})
    e = hw2.cylinder({"W": "1"})
    got = utility_bayes(hw2, f, e)
    want = conditional_event_utility(hw2, f, e)
    assert got == pytest.approx(want, rel=1e-9)


def test_utility_bayes_factored_case(hw1):
    f = hw1.cylinder({"H": "1"})
    e = hw1.cylinder({"W": "1"})
    # independent attributes: conditioning changes nothing
    assert utility_bayes(hw1, f, e) == pytest.approx(1.5, rel=1e-9)


def test_utility_bayes_on_random_networks(rng):
    for _ in range(10):
        net = helpers.random_network(rng, n_vars=4, domain_sizes=(2, 3))
        f = net.cylinder({"X2": "1"})
        e = net.cylinder({"X4": "0"})
        got = utility_bayes(net, f, e)
        want = conditional_event_utility(net, f, e)
        assert got == pytest.approx(want, rel=1e-9)


def test_utility_bayes_requires_informative_split(hw1):
    f = hw1.true_event()  # complement is empty
    e = hw1.cylinder({"W": "1"})
    with pytest.raises(EmptyEventError):
        utility_bayes(hw1, f, e)


# -- local conditional-EU shortcut ------------------------------------------------------


def test_local_shortcut_matches_general_path():
    net = double_chain_net()
    b = {"X1": "1"}
    a = {"X2": "0"}
    want = conditional_event_utility(net, net.cylinder(b), net.cylinder(a))
    got = local_conditional_eu(net, b, a)
    assert got == pytest.approx(want, rel=1e-9)


def test_local_shortcut_on_isolated_variable(hw1):
    # H has no neighbours at all, so the empty set separates it
    got = local_conditional_eu(hw1, {"H": "1"}, {})
    assert got == pytest.approx(1.5, rel=1e-12)


def test_local_shortcut_with_multi_variable_block():
    net = double_chain_net()
    b = {"X2": "1", "X3": "1"}
    a = {"X1": "0"}
    want = conditional_event_utility(net, net.cylinder(b), net.cylinder(a))
    got = local_conditional_eu(net, b, a)
    assert got == pytest.approx(want, rel=1e-9)


def test_local_shortcut_answers_above_the_cap():
    # 24 binary variables in a chain: the audit reads windows, and the
    # shortcut enumerates X10 alone, so nothing goes near 16.7M states.
    names = [f"X{i:02d}" for i in range(24)]
    net = helpers.chain_net(9, dict.fromkeys(names, 2), names)
    a = {"X09": "0", "X11": "1"}
    x = [dict.fromkeys(names, "0") | a | {"X10": v} for v in "01"]
    q = [joint_ratio(net, PROB, s) for s in x]
    w = [joint_ratio(net, UTIL, s) for s in x]
    want = w[1] / sum(wv * qv / sum(q) for wv, qv in zip(w, q))
    assert local_conditional_eu(net, {"X10": "1"}, a) == pytest.approx(want, rel=1e-12)


def _oracle_conditional_eu(net, b, a, tables):
    """u(b | a) from the oracle's cylinder sums over the full tables."""
    sp_ab, su_ab = helpers.oracle_event_sums(net, helpers.cylinder_member(net, b | a), tables)
    sp_a, su_a = helpers.oracle_event_sums(net, helpers.cylinder_member(net, a), tables)
    return (su_ab / sp_ab) / (su_a / sp_a)


def test_local_shortcut_agrees_on_random_separated_blocks():
    # B is a block of one to three variables and A its mantle in both
    # layers, sometimes with one more variable: A separates B from the rest.
    rng = np.random.default_rng(2026_10)
    configs = 0
    while configs < 240:
        net = helpers.random_network(
            rng, n_vars=6, domain_sizes=(2, 3), arc_prob=0.3, random_references=True
        )
        names = net.ordering
        tables = (helpers.oracle_ratio_table(net, PROB), helpers.oracle_ratio_table(net, UTIL))
        for _ in range(6):
            size = int(rng.integers(1, 4))
            b_vars = [str(v) for v in rng.choice(names, size=size, replace=False)]
            mantles = (net.mantle(layer, v) for layer in (PROB, UTIL) for v in b_vars)
            a_vars = set().union(*mantles) - set(b_vars)
            rest = sorted(set(names) - a_vars - set(b_vars))
            if rest and rng.random() < 0.3:
                a_vars.add(str(rng.choice(rest)))
            b = {v: str(rng.choice(net.space.spec(v).domain)) for v in b_vars}
            a = {v: str(rng.choice(net.space.spec(v).domain)) for v in sorted(a_vars)}
            got = local_conditional_eu(net, b, a)
            general = conditional_event_utility(net, net.cylinder(b), net.cylinder(a))
            assert got == pytest.approx(general, rel=1e-12)
            assert got == pytest.approx(_oracle_conditional_eu(net, b, a, tables), rel=1e-12)
            configs += 1


def test_local_shortcut_in_float_range_on_extreme_ratios():
    net = helpers.extreme_ratio_net()
    # The window over (A, B) holds 1e400, so no finite answer is read.
    with pytest.raises(NumericRangeError, match="'A', 'B' holds an inf"):
        local_conditional_eu(net, {"A": "1", "B": "1"}, {})
    assert local_conditional_eu(net, {"C": "1"}, {"A": "1", "B": "1"}) == 1.0
    # No variable has a utility, so every answer read is exactly 1.
    names = net.ordering
    for k in range(1, 4):
        for b_vars in itertools.combinations(names, k):
            others = [n for n in names if n not in b_vars]
            for a_vars in itertools.chain.from_iterable(
                itertools.combinations(others, j) for j in range(len(others) + 1)
            ):
                for values in itertools.product("01", repeat=k + len(a_vars)):
                    b = dict(zip(b_vars, values))
                    a = dict(zip(a_vars, values[k:]))
                    try:
                        got = local_conditional_eu(net, b, a)
                    except NumericRangeError:
                        continue
                    assert got == 1.0


def test_local_shortcut_in_float_range_where_the_joint_overflows():
    # w(X=1) = 3e300 and w(Y=1) = 1e300: the joint utility ratio at
    # X=1, Y=1 overflows, yet u(X=0 | Y=1) = 1 / (1 + 3e300 * 1e-300) = 1/4.
    net = helpers.net_of(
        {"X": ("0", "1"), "Y": ("0", "1")},
        q={"X": {("1",): 1e-300}},
        w={"X": {("1",): 3e300}, "Y": {("1",): 1e300}},
    )
    assert local_conditional_eu(net, {"X": "0"}, {"Y": "1"}) == pytest.approx(0.25, rel=1e-12)


def test_local_shortcut_block_respects_the_state_cap():
    # Four free binary variables: no audit window at all, an 8-state B block.
    net = helpers.net_of(
        {n: ("0", "1") for n in ("X1", "X2", "X3", "X4")},
        q={n: {("1",): 2.0} for n in ("X1", "X2", "X3")},
        w={"X1": {("1",): 3.0}},
    )
    assert net.imap_report(state_cap=4).ok
    b = {"X1": "1", "X2": "0", "X3": "1"}
    with pytest.raises(StateCapError):
        local_conditional_eu(net, b, {"X4": "0"}, state_cap=4)
    want = conditional_event_utility(net, net.cylinder(b), net.cylinder({"X4": "0"}))
    got = local_conditional_eu(net, b, {"X4": "0"}, state_cap=8)
    assert got == pytest.approx(want, rel=1e-12)


def test_local_shortcut_refuses_unseparated_blocks():
    net = double_chain_net()
    with pytest.raises(SeparationError, match="does not separate|do not separate"):
        local_conditional_eu(net, {"X1": "1"}, {"X3": "0"})


def test_local_shortcut_refuses_single_layer_separation():
    net = helpers.net_of(
        {"A": ("0", "1"), "B": ("0", "1"), "C": ("0", "1")},
        prob_arcs=[("A", "B"), ("B", "C")],
        util_arcs=[("A", "C")],
        w={"C": {("1", "0"): 2.0, ("1", "1"): 3.0}},
    )
    with pytest.raises(SeparationError, match="util"):
        local_conditional_eu(net, {"A": "1"}, {"B": "0"})


def test_local_shortcut_refuses_inconsistent_networks():
    net = adversarial_net()
    # X2 separates X1 from X3 in the declared graph, but the network fails
    # the mantle-consistency check, so the shortcut's premise is void.
    with pytest.raises(SeparationError, match="mantle-consistency"):
        local_conditional_eu(net, {"X1": "1"}, {"X2": "0"})


def test_local_shortcut_validates_blocks(hw1):
    with pytest.raises(ValidationError, match="share variables"):
        local_conditional_eu(hw1, {"H": "1"}, {"H": "0"})
    with pytest.raises(ValidationError, match="non-empty"):
        local_conditional_eu(hw1, {}, {"H": "0"})


# -- numeric range and per-call caps ---------------------------------------------


def test_overflowing_sums_raise_numeric_range_error():
    net = helpers.extreme_ratio_net()
    with pytest.raises(NumericRangeError, match="float range"):
        event_utility(net, net.cylinder({"A": "1"}))


def test_complement_takes_a_per_call_cap(monkeypatch):
    monkeypatch.setenv(STATE_CAP_ENV, "4")
    net = double_chain_net()
    f = net.cylinder({"X3": "1"})
    with pytest.raises(StateCapError):
        ~f
    assert f.complement(8) == net.cylinder({"X3": "0"})


def test_per_call_cap_must_be_an_integer(chain_net):
    sure = chain_net.true_event()
    # a float cap of 7.9 was once truncated to 7 and then refused 8 states
    for cap in (7.9, 8.0, True):
        with pytest.raises(ValidationError, match="state cap must be a positive integer"):
            event_utility(chain_net, sure, state_cap=cap)
    assert event_utility(chain_net, sure, state_cap=np.int64(8)).p == 1.0


def test_utility_bayes_holds_the_per_call_cap_under_a_lower_env_cap(monkeypatch):
    net = double_chain_net()
    monkeypatch.setenv(STATE_CAP_ENV, "4")
    f = net.cylinder({"X3": "1"})
    e = net.cylinder({"X1": "1"})
    got = utility_bayes(net, f, e, state_cap=8)
    sp_fe, su_fe = helpers.oracle_event_sums(net, lambda v: v[0] == 1 and v[2] == 1)
    sp_e, su_e = helpers.oracle_event_sums(net, lambda v: v[0] == 1)
    assert got == pytest.approx((su_fe / sp_fe) / (su_e / sp_e), rel=1e-12)


# -- cylinder event sums, layout by layout ----------------------------------------


def mixed_domain_net():
    """Six variables with domains of 3, 2, 13, 2, 3 and 2 values (936 states)."""
    sizes = dict(zip(("Y0", "Y1", "Y2", "Y3", "Y4", "Y5"), (3, 2, 13, 2, 3, 2)))
    return helpers.chain_net(77, sizes, list(sizes))


def whole_only(net):
    """A copy of ``net`` whose cover is the one clique of every axis, so that
    the table of every scope is summed from the table of every axis."""
    copy = Network(net.space, net.graph, net._potentials)
    whole = helpers.whole_scope(net)
    copy._cliques = lambda: (whole,)
    return copy


# (fixed axis -> value index, kept axes); axis sizes are 3, 2, 13, 2, 3, 2
SUM_LAYOUTS = {
    "fixed outer and inner, keep nothing": ({0: 2, 5: 1}, ()),
    "fixed middle, keep nothing": ({2: 7}, ()),
    "every axis fixed": ({0: 1, 1: 1, 2: 12, 3: 0, 4: 2, 5: 1}, ()),
    "kept innermost": ({0: 1}, (5,)),
    "kept innermost and middle": ({1: 0}, (2, 5)),
    "kept interleaved with summed out": ({0: 2}, (1, 3)),
    "kept interleaved, fixed innermost": ({5: 1}, (0, 2)),
    "kept outer only": ({}, (0, 1)),
    "kept 13-value axis before a short summed tail": ({1: 1}, (2,)),
    "every free axis kept": ({0: 0, 1: 1}, (2, 3, 4, 5)),
}


@pytest.mark.parametrize("layout", SUM_LAYOUTS)
def test_cylinder_sums_match_the_oracle_on_every_layout(layout):
    net = mixed_domain_net()
    fixed, keep = SUM_LAYOUTS[layout]
    event = Event(net.space, partial=fixed)
    want_sp, want_su = helpers.oracle_kept_sums(net, fixed, keep)
    # The route of _event_sums, and the same scope summed from the whole clique.
    for source in (net, whole_only(net)):
        got = _sums_from(source._table(_scope_of(net, event, keep), 10**6), event, keep)
        if not keep:
            assert got == pytest.approx((float(want_sp), float(want_su)), rel=1e-12)
            continue
        sp, su, member, totals, lows = got
        assert sp.shape == su.shape == want_sp.shape
        assert member is None  # a cylinder meets every combination
        np.testing.assert_allclose(sp, want_sp, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(su, want_su, rtol=1e-12, atol=0.0)
        # the totals and least entries come back with the tables
        assert totals == pytest.approx([want_sp.sum(), want_su.sum()], rel=1e-12)
        assert lows == [sp.min(), su.min()]


@pytest.mark.parametrize("fixed", [{0: 1}, {7: 0}])
def test_event_sum_makes_no_slice_sized_temporary(fixed):
    net = helpers.random_network(np.random.default_rng(5), n_vars=16, arc_prob=0.15)
    table = net.ratio_tables(PROB)
    event = Event(net.space, partial=fixed)
    # Both questions fit a clique: read its pair, then the whole clique's.
    assert helpers.routed(net, event)
    for scope in (_scope_of(net, event), helpers.whole_scope(net)):
        _sums_from(net._table(scope, 10**6), event)  # the tables built and cached
        tracemalloc.start()
        try:
            _sums_from(net._table(scope, 10**6), event)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes / 4


# -- cylinder met with a state set ------------------------------------------------


def test_cylinder_meets_state_set_without_materialising_the_cylinder(monkeypatch):
    net = helpers.binary_chain_net()
    monkeypatch.setenv(STATE_CAP_ENV, "4")
    f = net.cylinder({"X3": "1"})
    e = net.true_event()
    got = utility_bayes(net, f, e, state_cap=8)
    sp_f, su_f = helpers.oracle_event_sums(net, lambda v: v[2] == 1)
    sp_t, su_t = helpers.oracle_event_sums(net, lambda v: True)
    assert got == pytest.approx((su_f / sp_f) / (su_t / sp_t), rel=1e-12)


def test_cylinder_and_state_set_meet_in_either_order():
    net = helpers.binary_chain_net()
    states = Event(net.space, states=frozenset({(0, 0, 1), (1, 0, 1), (1, 1, 0)}))
    cyl = net.cylinder({"X1": "1"})
    want = Event(net.space, states=frozenset({(1, 0, 1), (1, 1, 0)}))
    assert (cyl & states) == want == (states & cyl)
    assert (net.cylinder({"X1": "1", "X2": "1", "X3": "1"}) & states).is_empty


# -- table readers on overflowing networks ----------------------------------------


def test_ratio_tables_keep_an_overflow_without_raising_or_warning():
    table = helpers.extreme_ratio_net().ratio_tables(PROB)
    assert np.isinf(table).any()


def test_reconstruct_joint_raises_on_an_overflowing_table():
    with pytest.raises(NumericRangeError, match="inf or 0 entry"):
        reconstruct_joint(helpers.extreme_ratio_net())


def test_imap_readers_raise_on_an_overflowing_table():
    # The readers build windows, not the joint: extreme_ratio_net has no
    # arcs, so no window has a non-mantle axis and A's window is its own table.
    net = helpers.extreme_ratio_net()
    assert validate_imap(net).ok and net.imap_report().ok
    assert full_mantle_potential(net, PROB, "A").table.tolist() == [1.0, 1e200]
    # A's window over (A, D, B) holds 1e400 at A=1, B=1.
    net = helpers.overflow_window_net()
    readers = (validate_imap, Network.imap_report, lambda n: full_mantle_potential(n, PROB, "A"))
    for read in readers:
        with pytest.raises(NumericRangeError, match="window of 'A' holds an inf or 0 entry"):
            read(net)


# -- clique tables ----------------------------------------------------------------


def random_clique_nets(seed, count):
    """``count`` random networks of 4 to 6 variables with mixed domains and
    random references; some are covered by smaller cliques, some by the
    one clique of every axis."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng, helpers.random_network(
            rng,
            n_vars=int(rng.integers(4, 7)),
            domain_sizes=(2, 3),
            arc_prob=float(rng.uniform(0.15, 0.6)),
            random_references=True,
        )


def test_clique_family_is_the_clique_set_of_a_chordal_cover():
    import networkx as nx

    seen_whole = seen_family = 0
    for _, net in random_clique_nets(11, 120):
        family = net._cliques()
        cover = nx.Graph()
        cover.add_nodes_from(range(len(net.space)))
        for clique in family:
            assert 0 < clique < 1 << len(net.space)
            cover.add_edges_from(itertools.combinations(helpers.axes_of(clique), 2))
        # every arc of either layer lies in a clique, the cover is chordal,
        # and the family is exactly its set of maximal cliques
        index = net.space.index
        for x, y in (*net.graph.prob_arcs, *net.graph.util_arcs):
            assert cover.has_edge(index(x), index(y))
        assert nx.is_chordal(cover)
        assert {frozenset(c) for c in nx.find_cliques(cover)} == {
            frozenset(helpers.axes_of(c)) for c in family
        }
        entries = [math.prod(net.space.shape[ax] for ax in helpers.axes_of(c)) for c in family]
        assert entries == sorted(entries)
        # a family of smaller cliques holds fewer entries than the joint;
        # otherwise the cover is the one clique of every axis
        if family == (helpers.whole_scope(net),):
            seen_whole += 1
        else:
            seen_family += 1
            assert sum(entries) < net.state_count
    assert seen_whole and seen_family


def dense_nets(rng):
    """A complete graph, whose only clique is the whole space, and a chain
    whose pair cliques hold as many entries as the joint."""
    dense = helpers.random_network(rng, n_vars=5, domain_sizes=(2, 3), arc_prob=1.0)
    return dense, helpers.binary_chain_net()


def test_dense_networks_are_covered_by_the_clique_of_every_axis(rng):
    for net in dense_nets(rng):
        whole = helpers.whole_scope(net)
        assert net._cliques() == (whole,)
        assert net._clique_tree() == ((),)
        assert all(net._clique_holding(scope) == whole for scope in range(whole + 1))


def test_networks_covered_by_the_clique_of_every_axis_read_the_joint(rng):
    for net in dense_nets(rng):
        e = net.cylinder({net.space.names[0]: "1"})
        assert not helpers.routed(net, e)
        sp, su = helpers.oracle_event_sums(net, helpers.cylinder_member(net, e.fixed_variables()))
        assert _event_sums(net, e, 10**6) == pytest.approx((sp, su), rel=1e-12)
        # the question's table is summed from the joint's pair, which is kept
        assert set(net._tables) == {_scope_of(net, e), helpers.whole_scope(net)}


def test_the_schedule_of_every_axis_is_one_bucket_over_every_term():
    from eunet.model import _Bucket

    checked = 0
    for net in [net for _, net in no_joint_nets(15, 60)] + bench_nets():
        whole = helpers.whole_scope(net)
        if net._cliques() == (whole,):
            continue
        terms = tuple(range(len(net._terms()[0])))
        assert net._schedule(whole) == [_Bucket(whole, 0, terms)]
        checked += 1
    assert checked >= 30


def test_clique_route_matches_the_oracle_on_random_networks():
    """Event sums, kept tables and measures, on 200 random networks, for
    questions that fit a clique and questions that span cliques."""
    fitted = spanning = 0
    for rng, net in random_clique_nets(12, 200):
        n = len(net.space)
        shape = net.space.shape
        tables = (helpers.oracle_ratio_table(net, PROB), helpers.oracle_ratio_table(net, UTIL))
        sure = helpers.oracle_event_sums(net, lambda v: True, tables)
        family = net._cliques()
        questions = []
        if family != (helpers.whole_scope(net),):
            # a question inside a random clique: some axes fixed, some kept
            axes = list(helpers.axes_of(family[int(rng.integers(len(family)))]))
            rng.shuffle(axes)
            k = int(rng.integers(0, len(axes) + 1))
            questions.append((axes[:k], sorted(axes[k:][: int(rng.integers(0, 3))])))
        # a question on random axes, which may span cliques
        axes = [int(a) for a in rng.permutation(n)]
        questions.append((axes[:2], sorted(axes[2:3])))
        for fixed_axes, keep in questions:
            fixed = {ax: int(rng.integers(shape[ax])) for ax in fixed_axes}
            event = Event(net.space, partial=fixed)
            routed = helpers.routed(net, event, keep)
            fitted += routed
            spanning += not routed
            want_sp, want_su = helpers.oracle_kept_sums(net, fixed, keep, tables)
            got = _event_sums(net, event, 10**6, keep=keep)
            if keep:
                assert got[2] is None
            sp, su = got[:2]
            np.testing.assert_allclose(sp, want_sp, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(su, want_su, rtol=1e-12, atol=0.0)
            # the measures of the event, and of it given its first fixed axis
            sp, su = float(want_sp.sum()), float(want_su.sum())
            got = event_utility(net, event)
            assert got.p == pytest.approx(sp / sure[0], rel=1e-12)
            assert got.u_rel == pytest.approx(su / sp, rel=1e-12)
            assert got.v == pytest.approx(su / sure[1], rel=1e-12)
            if fixed:
                first = dict(list(fixed.items())[:1])
                f_sp, f_su = helpers.oracle_event_sums(
                    net, lambda v: all(v[a] == x for a, x in first.items()), tables
                )
                f = Event(net.space, partial=first)
                assert conditional_probability(net, event, f) == pytest.approx(
                    sp / f_sp, rel=1e-12
                )
                assert conditional_event_utility(net, event, f) == pytest.approx(
                    (su / sp) / (f_su / f_sp), rel=1e-12
                )
    assert fitted >= 150 and spanning >= 50


def test_one_question_gives_bit_identical_answers_whatever_was_cached():
    from eunet import parse_network, serialize_network

    names = [f"X{i}" for i in range(1, 10)]
    sizes = dict(zip(names, (2, 3, 2, 2, 3, 2, 2, 3, 2)))
    doc = serialize_network(helpers.chain_net(31, sizes, names))
    fresh = parse_network(doc)

    def ask(net):
        e, f = net.cylinder({"X4": "1"}), net.cylinder({"X5": "2"})
        spans = net.cylinder({"X1": "1", "X9": "0"})
        return (
            event_utility(net, e),
            event_utility(net, spans),
            conditional_event_utility(net, e, f),
            conditional_probability(net, e, f),
            value(net, e, f),
            value(net, spans, f),
            optimal_decision(DecisionProblem(net, ("X6",), f)),
            optimal_decision(DecisionProblem(net, ("X2", "X8"), f)),
        )

    want = ask(fresh)
    assert helpers.routed(fresh, fresh.cylinder({"X4": "1", "X5": "2"}))
    assert ask(fresh) == want  # a repeat call
    warmed = parse_network(doc)
    warmed.ratio_tables(PROB)
    warmed.ratio_tables(UTIL)
    assert ask(warmed) == want  # after ratio_tables warm-up
    rebuilt = parse_network(doc)
    reconstruct_joint(rebuilt)
    assert not helpers.routed(rebuilt, rebuilt.cylinder({"X1": "1", "X9": "0"}))
    assert ask(rebuilt) == want  # after the reference joint, for spanning questions too
    # after other questions built other clique pairs
    busy = parse_network(doc)
    for name in reversed(names):
        event_utility(busy, busy.cylinder({name: "1"}))
    assert ask(busy) == want
    assert ask(parse_network(doc)) == want  # a second parse of the document


def test_overflowing_networks_raise_on_the_clique_route():
    net = helpers.extreme_ratio_net()
    a = net.cylinder({"A": "1"})
    assert helpers.routed(net, a)
    with pytest.raises(NumericRangeError, match="float range"):
        event_utility(net, a)
    with pytest.raises(NumericRangeError, match="float range"):
        conditional_event_utility(net, a, net.cylinder({"A": "1"}))
    with pytest.raises(NumericRangeError):
        optimal_decision(DecisionProblem(net, ("B",), a))
    # overflow_window_net overflows in a window, not in the joint; its one
    # clique holds every variable, so it reads the whole clique and answers
    net = helpers.overflow_window_net()
    assert net._cliques() == (helpers.whole_scope(net),)
    assert event_utility(net, net.true_event()).p == 1.0
    with pytest.raises(NumericRangeError, match="inf or 0 entry"):
        validate_imap(net)


def test_state_sets_and_eu_independent_events_read_the_joint(monkeypatch):
    from eunet import eu_independent_events

    net = clique_chain_net()
    states = Event.from_assignments(
        net.space,
        [{"X1": "1", "X2": "0", "X3": "1", "X4": "2"}, {"X1": "0", "X2": "2", "X3": "1", "X4": "0"}],
    )
    e, f, g = (net.cylinder({n: "1"}) for n in ("X1", "X2", "X3"))
    assert helpers.routed(net, e)

    read = Network._table

    def refuse(self, scope, cap):
        if self._clique_holding(scope) is not None:
            raise AssertionError("a clique table was read")
        return read(self, scope, cap)

    monkeypatch.setattr(Network, "_table", refuse)
    sp, su = helpers.oracle_event_sums(net, lambda v: tuple(v) in states.states())
    sp_t, su_t = helpers.oracle_event_sums(net, lambda v: True)
    assert event_utility(net, states).v == pytest.approx(su / su_t, rel=1e-12)
    assert value(net, states, net.true_event()) == pytest.approx(su / su_t, rel=1e-12)
    optimal_decision(DecisionProblem(net, ("X2",), states | e))
    eu_independent_events(net, e, f, g)
    eu_independent_events(net, e, states | f, g)
    with pytest.raises(AssertionError, match="clique table"):
        event_utility(net, e)


def no_joint_nets(seed, count):
    """``count`` random networks of 3 to 5 variables with domains of 2 to 4
    values, random references, identity tables and up to one inert variable."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng, helpers.random_network(
            rng,
            n_vars=int(rng.integers(3, 6)),
            domain_sizes=(2, 3, 4),
            arc_prob=float(rng.uniform(0.15, 0.6)),
            random_references=True,
            identity=0.3,
            inert=int(rng.integers(0, 2)),
        )


def refuse_the_joint(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a joint ratio table was built")

    read = Network._table

    def refuse_the_whole_clique(self, scope, cap):
        if scope == helpers.whole_scope(self):
            refuse()
        return read(self, scope, cap)

    monkeypatch.setattr(Network, "ratio_tables", refuse)
    monkeypatch.setattr(Network, "_table", refuse_the_whole_clique)


def test_clique_route_builds_no_joint(monkeypatch, tmp_path):
    """Every measure, and the query and decide commands, on questions inside
    a clique of 200 random networks, with the joint tables refused."""
    from eunet import serialize_network
    from eunet.cli import run_command
    from test_decision import oracle_decision

    refuse_the_joint(monkeypatch)
    routed = commands = 0
    for rng, net in no_joint_nets(14, 200):
        family = net._cliques()
        if family == (helpers.whole_scope(net),):
            continue
        space, names = net.space, net.space.names
        tables = (helpers.oracle_ratio_table(net, PROB), helpers.oracle_ratio_table(net, UTIL))
        sp_t, su_t = helpers.oracle_event_sums(net, lambda v: True, tables)
        # E fixes some axes of a random clique; F fixes some of E's axes at
        # E's values and maybe another axis of the clique; the decisions are
        # up to two of the clique's axes that E leaves free.
        clique = family[int(rng.integers(len(family)))]
        axes = [int(a) for a in rng.permutation(helpers.axes_of(clique))]
        k = int(rng.integers(1, len(axes) + 1))
        fixed = {ax: int(rng.integers(space.shape[ax])) for ax in axes[:k]}
        given = {ax: fixed.get(ax, int(rng.integers(space.shape[ax])))
                 for ax in axes[: int(rng.integers(0, k + 1))] + axes[k:k + 1]}
        d_axes = sorted(axes[k:][:2])
        e, f = Event(space, partial=fixed), Event(space, partial=given)
        assert helpers.routed(net, e & f)
        routed += 1

        def sums(partial):
            return helpers.oracle_event_sums(
                net, lambda v: all(v[a] == x for a, x in partial.items()), tables
            )

        sp, su = sums(fixed)
        got = event_utility(net, e)
        assert got.p == pytest.approx(sp / sp_t, rel=1e-12)
        assert got.u_rel == pytest.approx(su / sp, rel=1e-12)
        assert got.u_norm == pytest.approx((su / sp) / (su_t / sp_t), rel=1e-12)
        assert value(net, e) == pytest.approx(su / su_t, rel=1e-12)
        labels = {names[a]: space.specs[a].domain[x] for a, x in fixed.items()}
        assert marginal_p_ratio(net, labels) == pytest.approx(sp, rel=1e-12)
        sp_ef, su_ef = sums(fixed | given)
        sp_f, su_f = sums(given)
        assert conditional_probability(net, e, f) == pytest.approx(sp_ef / sp_f, rel=1e-12)
        assert conditional_event_utility(net, e, f) == pytest.approx(
            (su_ef / sp_ef) / (su_f / sp_f), rel=1e-12
        )
        assert value(net, e, f) == pytest.approx(su_ef / su_f, rel=1e-12)
        if d_axes:
            dvars = tuple(names[a] for a in d_axes)
            assert helpers.routed(net, e, d_axes)
            want_ties, want_eu = oracle_decision(
                net, dvars, helpers.cylinder_member(net, labels), tables
            )
            got = optimal_decision(DecisionProblem(net, dvars, e))
            assert got.argmax == want_ties
            assert got.eu == pytest.approx(want_eu, rel=1e-12)
            if commands < 20:
                # the same questions through the commands, on a fresh parse
                commands += 1
                path = tmp_path / f"net{commands}.json"
                path.write_text(serialize_network(net))
                term = ",".join(f"{n}={v}" for n, v in labels.items())
                for argv in (
                    ["query", str(path), "--eu", "-e", term],
                    ["decide", str(path), "-d", ",".join(dvars), "-e", term],
                ):
                    out, err = io.StringIO(), io.StringIO()
                    assert run_command(argv, stdout=out, stderr=err) == 0, err.getvalue()
                    assert not err.getvalue()
    assert routed >= 150 and commands == 20


def range_nets():
    """Two networks whose joint ratio tables are finite while a product of
    two of their factors overflows.

    Both have arcs A - B and A - C and q_A(1) = 1e-300.  In the first,
    q_B(1 | A=1) = q_C(1 | A=1) = 1e200: q_B q_C = 1e400 where
    q_A q_B q_C = 1e100.  In the second, q_C(1 | A=1) = w_C(1 | A=1) =
    1e300, so the p * u half of C's tables holds 1e600 where q_A brings
    p * u back to 1e300 wherever B = 0; the linear pass trips on it and the
    log-space pass answers.  D and E are free, so the cliques hold fewer
    entries than the joint.
    """
    domains = {n: ("0", "1") for n in "ABCDE"}
    arcs = [("A", "B"), ("A", "C")]
    first = helpers.net_of(
        domains, prob_arcs=arcs,
        q={
            "A": {("1",): 1e-300},
            "B": {("1", "0"): 1.5, ("1", "1"): 1e200},
            "C": {("1", "0"): 0.5, ("1", "1"): 1e200},
            "D": {("1",): 2.0},
        },
        w={"A": {("1",): 3.0}, "E": {("1",): 0.25}},
    )
    second = helpers.net_of(
        domains, prob_arcs=arcs, util_arcs=[("A", "C")],
        q={
            "A": {("1",): 1e-300},
            "B": {("1", "0"): 1.5, ("1", "1"): 1e100},
            "C": {("1", "0"): 0.5, ("1", "1"): 1e300},
            "D": {("1",): 2.0},
        },
        w={"C": {("1", "0"): 2.0, ("1", "1"): 1e300}, "E": {("1",): 0.25}},
    )
    return first, second


def exact_state_sums(net):
    """Each state's probability ratio and p * u ratio as exact fractions."""
    from fractions import Fraction

    space = net.space
    out = {}
    for values in itertools.product(*(range(n) for n in space.shape)):
        p = u = Fraction(1)
        for layer in (PROB, UTIL):
            for name in space.names:
                pot = net.potential(layer, name)
                axes = (space.index(name), *(space.index(x) for x in pot.parents))
                ratio = Fraction(float(pot.table[tuple(values[a] for a in axes)]))
                if layer == PROB:
                    p *= ratio
                else:
                    u *= ratio
        out[values] = (p, p * u)
    return out


def test_clique_route_answers_where_the_joint_answers(monkeypatch):
    """On networks whose factors' products leave float range, every question
    inside a clique that the joint answers gets an answer on the clique
    route, and every answer it gives is within 1e-12 of exact arithmetic."""
    from eunet import model

    ran = []

    def spy(tables, buckets, shape, log):
        ran.append(log)
        return eliminate(tables, buckets, shape, log)

    eliminate = model._eliminate
    monkeypatch.setattr(model, "_eliminate", spy)
    for net in range_nets():
        space = net.space
        exact = exact_state_sums(net)

        def sums(partial):
            members = [s for v, s in exact.items() if all(v[a] == x for a, x in partial.items())]
            return sum(p for p, _ in members), sum(pu for _, pu in members)

        def joint_answers(*events):
            try:
                for ev in events:
                    _sums_from(net._table(helpers.whole_scope(net), 10**6), ev)
            except NumericRangeError:
                return False
            return True

        def check(ask, want, *events):
            try:
                got = ask()
            except NumericRangeError:
                assert not joint_answers(*events)
                return 0
            assert got == pytest.approx(float(want), rel=1e-12)
            return 1

        sp_t, su_t = sums({})
        sure = net.true_event()
        answered = 0
        family = net._cliques()
        assert family != (helpers.whole_scope(net),)
        for clique in family:
            for k in (1, 2):
                for axes in itertools.combinations(helpers.axes_of(clique), k):
                    for vals in itertools.product(*(range(space.shape[a]) for a in axes)):
                        fixed = dict(zip(axes, vals))
                        given = dict(list(fixed.items())[-1:])
                        e, f = Event(space, partial=fixed), Event(space, partial=given)
                        assert helpers.routed(net, e)
                        sp, su = sums(fixed)
                        sp_f, su_f = sums(given)
                        labels = {
                            space.names[a]: space.specs[a].domain[x] for a, x in fixed.items()
                        }
                        answered += check(lambda: marginal_p_ratio(net, labels), sp, e)
                        answered += check(lambda: event_utility(net, e).p, sp / sp_t, e, sure)
                        answered += check(lambda: event_utility(net, e).u_norm,
                                          (su / sp) / (su_t / sp_t), e, sure)
                        answered += check(lambda: value(net, e), su / su_t, e, sure)
                        answered += check(lambda: conditional_probability(net, e, f),
                                          sp / sp_f, e, f)
                        answered += check(lambda: conditional_event_utility(net, e, f),
                                          (su / sp) / (su_f / sp_f), e, f)
                        answered += check(lambda: value(net, e, f), su / su_f, e, f)
        assert answered >= 30
    # the second network's products overflow in the linear pass, which the
    # log-space pass then answers
    assert True in ran and False in ran


def bench_nets():
    """Networks of 16 and 19 variables in the style of the benchmark's
    generator: every variable's below-neighbours are a clique, up to 8 or
    10 of them, anchored at the variable just before it."""
    import importlib.util
    from pathlib import Path

    from eunet import parse_network

    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(gen)
    rng = np.random.default_rng(5)
    return [
        parse_network(gen.network_doc(gen.random_net(rng, n, max_parents=p, fill=1.0, window=1)))
        for n, p in ((16, 8), (16, 8), (19, 10), (19, 10))
    ]


def test_every_bucket_of_a_clique_schedule_lies_in_one_clique():
    """The clique tree has the running intersection property, and each
    clique's schedule uses every term and result once, sums out each
    variable outside the clique that a term mentions once, and adds up no
    bucket beyond one clique of the family; a spanning scope's schedule
    does the same with the scope in place of the clique, and no bucket
    goes beyond one clique joined with the scope."""
    nets = [net for _, net in no_joint_nets(15, 150)] + bench_nets()
    rng = np.random.default_rng(15)
    checked = spanning = 0
    for net in nets:
        family, tree = net._cliques(), net._clique_tree()
        n = len(net.space)
        assert sum(map(len, tree)) == 2 * (len(family) - 1)
        for ax in range(len(net.space)):
            holding = {k for k, c in enumerate(family) if c >> ax & 1}
            reached, frontier = set(), [min(holding)]
            while frontier:
                k = frontier.pop()
                reached.add(k)
                frontier += [j for j in tree[k] if j in holding and j not in reached]
            assert reached == holding
        masks = net._terms()[0]
        mentioned = 0
        for mask in masks:
            mentioned |= mask
        scopes = [sum(1 << int(ax) for ax in rng.choice(n, size=k, replace=False))
                  for k in (2, 2, 3, min(4, n - 1))]
        spans = [s for s in scopes if net._clique_holding(s) is None]
        for scope in (*family, *spans):
            *steps, root = net._schedule(scope)
            assert root == (scope, 0, root.operands)
            joined = 0 if scope in family else scope
            used, summed = [], 0
            for bucket in steps:
                assert any(bucket.scope & ~(c | joined) == 0 for c in family)
                assert bucket.summed and bucket.summed & ~bucket.scope == 0
                assert not summed & bucket.summed
                summed |= bucket.summed
                used += bucket.operands
            used += root.operands
            assert sorted(used) == list(range(len(masks) + len(steps)))
            assert summed == mentioned & ~scope
            checked += 1
        spanning += len(spans)
    assert checked >= 300 and spanning >= 100


def test_clique_tables_match_the_joint_on_benchmark_style_networks():
    for net in bench_nets()[:3]:
        pr, ur = net.ratio_tables(PROB), net.ratio_tables(UTIL)
        dims = list(range(pr.ndim))
        for clique in net._cliques():
            (tp, tu), sp, su, axes = net._table(clique, 10**6)
            assert axes == helpers.axes_of(clique)
            np.testing.assert_allclose(tp, np.einsum(pr, dims, list(axes)), rtol=1e-12)
            np.testing.assert_allclose(tu, np.einsum(pr, dims, ur, dims, list(axes)),
                                       rtol=1e-12)
            assert (sp, su) == (pytest.approx(pr.sum(), rel=1e-12),
                                pytest.approx(np.vdot(pr, ur), rel=1e-12))


def test_log_space_buckets_match_the_linear_ones():
    from eunet.model import _eliminate

    for _, net in no_joint_nets(16, 150):
        tables = net._terms()[1]
        logs = [np.log(t) for t in tables]
        family, whole = net._cliques(), helpers.whole_scope(net)
        spans = [s for s in range(1, whole) if net._clique_holding(s) is None]
        for scope in (*family, *spans):
            buckets = net._schedule(scope)
            linear = _eliminate(tables, buckets, net.space.shape, log=False)
            logged = _eliminate(logs, buckets, net.space.shape, log=True)
            np.testing.assert_allclose(np.exp(logged), linear, rtol=1e-12)


# -- one table form: the whole clique and quotients in range ----------------------


def test_whole_clique_route_matches_the_oracle_on_random_networks():
    """Cylinders summed from the table of every axis, and state sets with
    and without kept axes and decisions, which read it, within 1e-12 of
    the oracle."""
    from test_decision import oracle_decision

    spanning = decisions = 0
    for rng, net in random_clique_nets(17, 120):
        space, n = net.space, len(net.space)
        whole = helpers.whole_scope(net)
        tables = (helpers.oracle_ratio_table(net, PROB), helpers.oracle_ratio_table(net, UTIL))
        # a cylinder on random axes, its table summed from the whole clique's,
        # keeping up to two axes
        axes = [int(a) for a in rng.permutation(n)]
        fixed = {ax: int(rng.integers(space.shape[ax])) for ax in axes[:2]}
        keep = sorted(axes[2:2 + int(rng.integers(0, 3))])
        event = Event(space, partial=fixed)
        spanning += not helpers.routed(net, event, keep)
        want_sp, want_su = helpers.oracle_kept_sums(net, fixed, keep, tables)
        got = _sums_from(whole_only(net)._table(_scope_of(net, event, keep), 10**6), event, keep)
        np.testing.assert_allclose(got[0], want_sp, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got[1], want_su, rtol=1e-12, atol=0.0)
        # a state set of random states, with no kept axes and with some
        states = {tuple(int(rng.integers(k)) for k in space.shape) for _ in range(5)}
        member = states.__contains__
        ev = Event(space, states=frozenset(states))
        assert _scope_of(net, ev) == whole
        u_norm = conditional_event_utility(net, ev, net.true_event())
        assert event_utility(net, ev).u_norm == u_norm  # bit for bit
        assert _event_sums(net, ev, 10**6) == pytest.approx(
            helpers.oracle_event_sums(net, lambda v: tuple(v) in states, tables), rel=1e-12
        )
        keep = sorted(axes[:int(rng.integers(1, 3))])
        sp, su, met, totals, lows = _event_sums(net, ev, 10**6, keep=keep)
        assert totals == pytest.approx([sp.sum(), su.sum()], rel=1e-12)
        assert lows == [sp[met].min(), su[met].min()]
        for combo in itertools.product(*(range(space.shape[ax]) for ax in keep)):
            want = helpers.oracle_event_sums(
                net,
                lambda v, c=combo: tuple(v) in states and all(v[a] == x for a, x in zip(keep, c)),
                tables,
            )
            assert met[combo] == (want[0] > 0.0)
            assert (sp[combo], su[combo]) == pytest.approx(want, rel=1e-12, abs=0.0)
        # decisions: evidence a state set, read off the whole clique, and a
        # spanning cylinder, whose scope is summed from the factors
        dvars = tuple(space.names[a] for a in sorted(axes[2:3]))
        cylinder = Event(space, partial={axes[0]: 0, axes[1]: 0})
        for evidence, test in (
            (ev, member),
            (cylinder, lambda v: v[axes[0]] == 0 and v[axes[1]] == 0),
        ):
            if dvars[0] in evidence.fixed_variables():
                continue
            if not helpers.routed(net, evidence, [axes[2]]):
                decisions += 1
                want_ties, want_eu = oracle_decision(net, dvars, lambda v: test(tuple(v)), tables)
                got = optimal_decision(DecisionProblem(net, dvars, evidence))
                assert got.argmax == want_ties
                assert got.eu == pytest.approx(want_eu, rel=1e-12)
    assert spanning >= 30 and decisions >= 100


def test_a_cold_whole_pair_build_makes_at_most_one_factor_sized_temporary():
    for net in [*bench_nets()[:2], clique_chain_net(), mixed_domain_net()]:
        terms = net._terms()[1]
        tracemalloc.start()
        try:
            pair = net._table(helpers.whole_scope(net), 10**6)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pair.shape == (2, *net.space.shape)
        # a ufunc loop may buffer up to getbufsize() entries of an operand
        buffers = 2 * np.getbufsize() * 8
        assert peak <= pair.nbytes + max(*(t.nbytes for t in terms), buffers) + 4096


def exact_measure_oracle(net):
    """Exact S_p and S_u of a cylinder, from :func:`exact_state_sums`."""
    exact = exact_state_sums(net)

    def sums(partial):
        members = [s for v, s in exact.items() if all(v[a] == x for a, x in partial.items())]
        return sum(p for p, _ in members), sum(pu for _, pu in members)

    return sums


def test_quotients_stay_in_float_range_on_both_routes():
    """Each measure is a product of ratios of like sums, so it is answered
    wherever its exact value is in float range, on a clique, across
    cliques and on the whole clique, and only u_rel(A=1), about 5e399,
    raises."""
    from fractions import Fraction

    from eunet import eu_independent_events

    net = helpers.quotient_range_net()
    sums = exact_measure_oracle(net)
    a1, b1, c0 = (net.cylinder({n: v}) for n, v in (("A", "1"), ("B", "1"), ("C", "0")))
    assert helpers.routed(net, a1 & b1) and not helpers.routed(net, a1 & c0)
    sure = net.true_event()

    def u(e, f):
        (sp_ef, su_ef), (sp_f, su_f) = sums({**f, **e}), sums(f)
        return (su_ef / su_f) * (sp_f / sp_ef)

    def close(got, want):
        assert got == pytest.approx(float(want), rel=1e-12)

    A, B, C = 0, 1, 2
    # the clique {A, B}
    close(conditional_event_utility(net, b1, a1), u({B: 1}, {A: 1}))
    close(conditional_event_utility(net, b1, a1), 2.0)
    close(conditional_event_utility(net, a1, sure), u({A: 1}, {}))
    close(conditional_event_utility(net, a1, sure), 1e200)
    close(value(net, a1), sums({A: 1})[1] / sums({})[1])
    close(conditional_probability(net, a1, sure), sums({A: 1})[0] / sums({})[0])
    with pytest.raises(NumericRangeError, match="float range"):
        event_utility(net, a1)
    with pytest.raises(NumericRangeError, match="float range"):
        marginal_u_ratio(net, {"A": "1"})
    got = optimal_decision(DecisionProblem(net, ("B",), a1))
    assert got.argmax == ({"B": "1"},)
    close(got.eu, u({B: 1}, {A: 1}))
    # across cliques, and the whole clique for a state set and for all three axes
    close(conditional_event_utility(net, a1, c0), u({A: 1}, {C: 0}))
    close(conditional_event_utility(net, b1, a1 & c0), u({B: 1}, {A: 1, C: 0}))
    got = optimal_decision(DecisionProblem(net, ("A",), c0))
    assert got.argmax == ({"A": "1"},)
    close(got.eu, u({A: 1}, {C: 0}))
    close(got.eu, 1e200)
    states = Event.from_assignments(
        net.space, [{"A": "1", "B": "1", "C": "0"}, {"A": "1", "B": "0", "C": "1"}]
    )
    want = (sums({A: 1, B: 1, C: 0})[1] + sums({A: 1, B: 0, C: 1})[1]) / sums({})[1]
    close(value(net, states), want)
    # u(A=1, B=1 | C=0) against u(A=1 | C=0) u(B=1 | C=0), both sides finite
    lhs, rhs = u({A: 1, B: 1}, {C: 0}), u({A: 1}, {C: 0}) * u({B: 1}, {C: 0})
    assert eu_independent_events(net, a1, b1, c0) == (abs(lhs - rhs) <= Fraction(1e-9) * rhs)

    # Ratios of like sums that leave float range on their own:
    # p(D1=1, D2=1 | A=1) is about 1e-400, yet u(D1=1, D2=1 | A=1) is 1.
    net = helpers.like_sums_range_net()
    sums = exact_measure_oracle(net)
    a1 = net.cylinder({"A": "1"})
    for target in ({"D1": "1", "D2": "1"}, {"D1": "1", "D2": "1", "C": "0"}):
        e = net.cylinder(target)
        fixed = {net.space.index(n): int(v) for n, v in target.items()}
        close(conditional_event_utility(net, e, a1), u(fixed, {0: 1}))
    assert helpers.routed(net, net.cylinder({"D1": "1", "D2": "1"}) & a1)
    for evidence in (a1, net.cylinder({"A": "1", "C": "0"})):
        got = optimal_decision(DecisionProblem(net, ("D1", "D2"), evidence))
        assert len(got.argmax) == 4
        close(got.eu, 1.0)


# -- scope tables ----------------------------------------------------------------


def _kept_scopes(net):
    """The tables kept that are neither a clique's nor the joint's, by mask:
    those the bound counts."""
    whole = helpers.whole_scope(net)
    return {
        scope: table for scope, table in net._tables.items()
        if scope not in (net._clique_holding(scope), whole)
    }


def _scope_questions(rng, net):
    """Cylinder questions on random axes: (fixed, keep), the fixed axes and
    the kept ones disjoint, some inside a clique and some spanning."""
    n, shape = len(net.space), net.space.shape
    out = []
    for k_fixed, k_keep in ((1, 0), (2, 0), (2, 1), (1, 2), (3, 1), (0, 1)):
        axes = [int(a) for a in rng.permutation(n)]
        fixed = {ax: int(rng.integers(shape[ax])) for ax in axes[:k_fixed]}
        out.append((fixed, sorted(axes[k_fixed:k_fixed + k_keep])))
    return out


def test_scope_route_matches_the_oracle_on_random_networks():
    """Cylinder sums with and without kept axes, conditionals, decisions and
    eu_independent_events, each read off the table of its own scope, on 120
    random mixed-domain networks with random references; u_norm is
    u(E | True) bit for bit."""
    from eunet import eu_independent_events
    from test_decision import oracle_decision

    routed = spanning = decisions = verdicts = 0
    for rng, net in random_clique_nets(41, 120):
        space = net.space
        tables = (helpers.oracle_ratio_table(net, PROB), helpers.oracle_ratio_table(net, UTIL))

        def sums(fixed):
            return helpers.oracle_event_sums(
                net, lambda v: all(v[a] == x for a, x in fixed.items()), tables
            )

        for fixed, keep in _scope_questions(rng, net):
            event = Event(space, partial=fixed)
            scope = _scope_of(net, event, keep)
            assert scope == sum(1 << ax for ax in (*fixed, *keep))
            if helpers.routed(net, event, keep):
                routed += 1
            else:
                spanning += 1
            want_sp, want_su = helpers.oracle_kept_sums(net, fixed, keep, tables)
            got = _event_sums(net, event, 10**6, keep=keep)
            # the table spans exactly the question's axes
            table = net._table(scope, 10**6)
            assert table.axes == tuple(sorted((*fixed, *keep)))
            assert table.pair.shape == (2, *(space.shape[ax] for ax in table.axes))
            np.testing.assert_allclose(got[0], want_sp, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(got[1], want_su, rtol=1e-12, atol=0.0)
            # the totals are a read of the sure event on the same table
            assert event_utility(net, event).u_norm == conditional_event_utility(
                net, event, net.true_event()
            )
            if not fixed:
                continue
            # the event given its first fixed axis, read off the event's table
            sp, su = float(want_sp.sum()), float(want_su.sum())
            first = dict(list(fixed.items())[:1])
            f_sp, f_su = sums(first)
            f = Event(space, partial=first)
            assert conditional_probability(net, event, f) == pytest.approx(sp / f_sp, rel=1e-12)
            assert conditional_event_utility(net, event, f) == pytest.approx(
                (su / sp) / (f_su / f_sp), rel=1e-12
            )
            assert value(net, event, f) == pytest.approx(su / f_su, rel=1e-12)
            if keep:
                dvars = tuple(space.names[ax] for ax in keep)
                want_ties, want_eu = oracle_decision(
                    net, dvars, lambda v: all(v[a] == x for a, x in fixed.items()), tables
                )
                got = optimal_decision(DecisionProblem(net, dvars, event))
                assert got.argmax == want_ties
                assert got.eu == pytest.approx(want_eu, rel=1e-12)
                decisions += 1
        # E, F and G on three disjoint random axis sets
        axes = [int(a) for a in rng.permutation(len(space))]
        e, f, g = (
            {ax: int(rng.integers(space.shape[ax])) for ax in part}
            for part in (axes[:1], axes[1:2], axes[2:2 + int(rng.integers(0, 3))])
        )
        (sp_g, su_g), *meets = (sums(x) for x in (g, {**e, **g}, {**f, **g}, {**e, **f, **g}))
        u_e, u_f, u_ef = ((su / sp) / (su_g / sp_g) for sp, su in meets)
        gap = abs(u_ef - u_e * u_f) / abs(u_e * u_f)
        if abs(gap - 1e-9) > 1e-6 * 1e-9:
            events = (Event(space, partial=x) for x in (e, f, g))
            assert eu_independent_events(net, *events) == (gap <= 1e-9)
            verdicts += 1
    assert routed >= 150 and spanning >= 150 and decisions >= 200 and verdicts >= 100


def test_scope_answers_are_bit_identical_whatever_was_cached():
    """A question asked first, after other scopes of the same clique, after
    the reference joint, and with the scope tables' bound already full."""
    from eunet import eu_independent_events, parse_network, serialize_network

    checked = 0
    for rng, net in random_clique_nets(43, 40):
        doc = serialize_network(net)
        space = net.space
        questions = _scope_questions(rng, net)
        names = space.names

        def ask(net, questions=questions):
            out = []
            for fixed, keep in questions:
                labels = {names[ax]: space.specs[ax].domain[v] for ax, v in fixed.items()}
                e = net.cylinder(labels)
                first = net.cylinder(dict(list(labels.items())[:1]))
                out.append(event_utility(net, e))
                out.append(conditional_event_utility(net, e, net.true_event()))
                out.append(tuple(x.tolist() for x in _event_sums(net, e, 10**6, keep=keep)[:2])
                           if keep else _event_sums(net, e, 10**6))
                if fixed:
                    out.append(conditional_probability(net, e, first))
                    out.append(value(net, e, first))
                if keep:
                    dvars = tuple(names[ax] for ax in keep)
                    out.append(optimal_decision(DecisionProblem(net, dvars, e)))
            cyl = [net.cylinder({n: space.specs[ax].domain[1]}) for ax, n in enumerate(names[:3])]
            out.append(eu_independent_events(net, *cyl))
            return out

        want = ask(net)
        assert ask(net) == want  # read back from the cache
        # after other scopes of the same cliques: every single axis and pair
        other = parse_network(doc)
        for clique in other._cliques():
            for k in (1, 2):
                for axes in itertools.combinations(helpers.axes_of(clique), k):
                    event_utility(other, Event(space, partial=dict.fromkeys(axes, 0)))
        assert ask(other) == want
        # after the reference joint
        joint = parse_network(doc)
        reconstruct_joint(joint)
        assert ask(joint) == want
        # with the bound full, so that no scope table is kept
        full = parse_network(doc)
        full._scope_entries = 10**6
        assert ask(full) == want
        assert not _kept_scopes(full)
        checked += 1
    assert checked == 40


def test_a_cached_scope_read_checks_the_cap(monkeypatch):
    net = clique_chain_net()
    e = net.cylinder({"X1": "1", "X3": "0"})  # spans the pair cliques
    f = net.cylinder({"X2": "1"})
    problem = DecisionProblem(net, ("X2", "X4"), e)
    event_utility(net, e)
    conditional_probability(net, e, f)
    optimal_decision(problem)
    assert _kept_scopes(net)
    below = net.state_count - 1
    with pytest.raises(StateCapError):
        event_utility(net, e, state_cap=below)
    with pytest.raises(StateCapError):
        conditional_probability(net, e, f, state_cap=below)
    with pytest.raises(StateCapError):
        optimal_decision(problem, state_cap=below)
    with pytest.raises(StateCapError):
        net._table(_scope_of(net, e), below)
    with monkeypatch.context() as m:
        m.setenv(STATE_CAP_ENV, str(below))
        with pytest.raises(StateCapError):
            event_utility(net, e)


def test_scope_tables_kept_stay_within_the_cap():
    """The scope tables kept apart from the clique pairs hold at most the
    cap's entries together; one past the bound is answered and not kept."""
    for rng, net in random_clique_nets(45, 40):
        cap = net.state_count  # the lowest cap the joint passes
        tables = (helpers.oracle_ratio_table(net, PROB), helpers.oracle_ratio_table(net, UTIL))
        for _ in range(4):
            for fixed, keep in _scope_questions(rng, net):
                event = Event(net.space, partial=fixed)
                got = _event_sums(net, event, cap, keep=keep)
                want = helpers.oracle_kept_sums(net, fixed, keep, tables)
                np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0.0)
                kept = _kept_scopes(net)
                assert net._scope_entries == sum(t.pair.size for t in kept.values()) <= cap
    # a 9-variable chain of pair cliques, whose 84 three-axis scopes
    # together hold more entries than the bound
    names = [f"X{i}" for i in range(1, 10)]
    net = helpers.chain_net(31, dict(zip(names, (2, 3, 2, 2, 3, 2, 2, 3, 2))), names)
    cap, asked = net.state_count, 0
    for a, b, c in itertools.combinations(range(9), 3):
        event = Event(net.space, partial={a: 0, b: 1})
        _event_sums(net, event, cap, keep=[c])
        asked += 1
    assert net._scope_entries <= cap
    assert len(_kept_scopes(net)) < asked


def test_one_cache_holds_the_scopes_asked_and_their_source_cliques():
    """After a mixed question set, the one table cache holds exactly the
    scopes asked and the cliques they were summed from: a scope that spans
    cliques has no source, and the table of every axis is kept only after a
    state-set question or where it is the cover's one clique; a scope
    inside a clique is, bit for bit, one sum of that clique's cached pair;
    a clique's table is one object as a source and as a scope; the bound
    counts the other tables only; and a call under a smaller cap keeps a
    clique table it builds."""
    from eunet import eu_independent_events

    both = 0
    for rng, net in random_clique_nets(47, 60):
        space, asked = net.space, set()
        for fixed, keep in _scope_questions(rng, net):
            event = Event(space, partial=fixed)
            asked |= {_scope_of(net, event, keep), _scope_of(net, event)}
            _event_sums(net, event, 10**6, keep=keep)
            event_utility(net, event)
            if fixed:
                first = Event(space, partial=dict(list(fixed.items())[:1]))
                conditional_probability(net, event, first)
            if keep:
                optimal_decision(DecisionProblem(net, tuple(space.names[ax] for ax in keep), event))
        e, f, g = (Event(space, partial={ax: 1}) for ax in range(3))
        eu_independent_events(net, e, f, g)
        asked.add(0b111)
        whole = helpers.whole_scope(net)
        if rng.random() < 0.3:
            event_utility(net, Event(space, states=frozenset({(0,) * len(space)})))
            asked.add(whole)
        # spanning scopes are summed from the factors
        cliques = {net._clique_holding(scope) for scope in asked} - {None}
        # every table of a scope inside a clique is the one-pass sum of that
        # clique's cached pair over the clique's other axes
        sources = set()
        for scope, table in _kept_scopes(net).items():
            clique = net._clique_holding(scope)
            if clique not in cliques:
                continue
            assert clique in net._tables
            held = net._tables[clique]
            summed = tuple(1 + i for i, ax in enumerate(held.axes) if not scope >> ax & 1)
            assert np.array_equal(table.pair, held.pair.sum(axis=summed))
            sources.add(clique)
        assert set(net._tables) == asked | cliques
        assert (whole in net._tables) == (whole in asked or net._cliques() == (whole,))
        # a clique's table is one object as a source and as a scope
        for clique in cliques:
            assert net._table(clique, 10**6) is net._tables[clique]
        both += len(sources & asked)
        assert net._scope_entries == sum(t.pair.size for t in _kept_scopes(net).values())
    assert both >= 10
    # a 9-variable chain of pair cliques: its three-axis scopes, each summed
    # from the factors with no source table, hold more entries than the joint
    names = [f"X{i}" for i in range(1, 10)]
    net = helpers.chain_net(31, dict(zip(names, (2, 3, 2, 2, 3, 2, 2, 3, 2))), names)
    for scope in itertools.combinations(range(9), 3):
        _event_sums(net, Event(net.space, partial=dict.fromkeys(scope, 0)), 10**6)
    assert net._scope_entries > net.state_count
    assert set(net._tables) == set(_kept_scopes(net))
    # under the lowest cap the joint passes, a pair clique's table is built
    # and kept, while a scope summed from it is not
    _event_sums(net, Event(net.space, partial={0: 0, 1: 0}), net.state_count)
    _event_sums(net, Event(net.space, partial={0: 0}), net.state_count)
    assert 0b11 in net._tables and 0b1 not in net._tables


def test_a_scope_build_from_a_warm_pair_makes_no_large_temporary():
    """A scope inside the largest clique is one sum of the clique's warm
    pair with no large temporary, and a scope that spans cliques is summed
    from the factors with a peak far below the joint's pair."""
    net = bench_nets()[2]  # 19 binary variables
    n, whole = len(net.space), helpers.whole_scope(net)
    largest = net._cliques()[-1]
    warm = net._table(largest, 10**6)
    inside = helpers.axes_of(largest)
    # scopes spread over the clique's layout, some with its innermost axis:
    # short kept runs between summed-out ones, where the one-pass sum steps
    # through the 1 MiB pair with no temporary near its size
    reduced = [
        (inside[1], inside[-1]),
        (inside[0], inside[4], inside[7], inside[-1]),
        (inside[1], inside[4], inside[10], inside[14]),
        (inside[4], inside[6], inside[10], inside[-2]),
        (inside[0], inside[7], inside[-1]),
    ]
    spanning = [(6, n - 1), (0, 6, 9, n - 1), (1, 6, 13, 17), (6, 8, 13, n - 2), (6, 16)]
    pairs = {}
    for axes in (*reduced, *spanning):
        scope = sum(1 << ax for ax in axes)
        holding = net._clique_holding(scope)
        assert holding == (largest if axes in reduced else None)
        tracemalloc.start()
        try:
            table = net._table(scope, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.axes == axes
        pairs[axes] = table.pair
        if holding == largest:
            assert peak < warm.pair.nbytes / 128
        else:
            assert peak < 2 * net.state_count * 8 / 4  # a quarter of the joint's pair
    assert whole not in net._tables
    joint = net._table(whole, 10**6).pair
    for axes, pair in pairs.items():
        np.testing.assert_allclose(
            pair, joint.sum(axis=tuple(1 + ax for ax in range(n) if ax not in axes)), rtol=1e-12
        )


def log_range_chain():
    """X1 - ... - X6 in both layers, whose products of factors leave float
    range while every sum of a scope's table stays in it.

    q_X1(1) = 1e155 and q(1 | previous = 1) = 1e-155 further down, so two
    neighbouring probability tables multiply to 1e-310 where both take 1,
    below the smallest normal float; w(1 | previous = 1) = 1e155, so a
    product of the utility tables alone reaches 1e775.  The pair cliques
    hold fewer entries than the joint.
    """
    names = [f"X{i}" for i in range(1, 7)]
    arcs = list(zip(names, names[1:]))
    q = {"X1": {("1",): 1e155}}
    w = {"X1": {("1",): 0.5}}
    for _, name in arcs:
        q[name] = {("1", "0"): 2.0, ("1", "1"): 1e-155}
        w[name] = {("1", "0"): 0.75, ("1", "1"): 1e155}
    return helpers.net_of(
        {n: ("0", "1") for n in names}, prob_arcs=arcs, util_arcs=arcs, q=q, w=w
    )


def test_spanning_questions_are_answered_without_the_joint(monkeypatch):
    """With the joint tables refused, every cylinder question on fewer than
    all the axes of a network covered by smaller cliques is answered,
    whether its axes share a clique or span several: kept-axes sums,
    measures, conditionals, value, decisions and eu_independent_events
    agree with the oracle; and where the linear pass leaves float range on
    a spanning scope, the log-space pass agrees with exact sums."""
    from fractions import Fraction

    from eunet import eu_independent_events, model
    from test_decision import oracle_decision

    refuse_the_joint(monkeypatch)
    spanning = decisions = verdicts = 0
    for rng, net in no_joint_nets(19, 150):
        if net._cliques() == (helpers.whole_scope(net),):
            continue
        space, n = net.space, len(net.space)
        tables = (helpers.oracle_ratio_table(net, PROB), helpers.oracle_ratio_table(net, UTIL))
        sp_t, su_t = helpers.oracle_event_sums(net, lambda v: True, tables)

        def member(fixed):
            return lambda v: all(v[a] == x for a, x in fixed.items())

        def sums(fixed):
            return helpers.oracle_event_sums(net, member(fixed), tables)

        for _ in range(3):
            # E fixes some of n - 1 random axes and keeps up to two others;
            # F fixes some of E's axes at E's values and the first kept axis
            axes = [int(a) for a in rng.permutation(n)][: n - 1]
            k = int(rng.integers(1, len(axes)))
            fixed = {ax: int(rng.integers(space.shape[ax])) for ax in axes[:k]}
            keep = sorted(axes[k:][:2])
            event = Event(space, partial=fixed)
            spanning += not helpers.routed(net, event, keep)
            want_sp, want_su = helpers.oracle_kept_sums(net, fixed, keep, tables)
            got_sp, got_su, met, *_ = _event_sums(net, event, 10**6, keep=keep)
            assert met is None
            np.testing.assert_allclose(got_sp, want_sp, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(got_su, want_su, rtol=1e-12, atol=0.0)
            sp, su = float(want_sp.sum()), float(want_su.sum())
            got = event_utility(net, event)
            assert got.p == pytest.approx(sp / sp_t, rel=1e-12)
            assert got.u_rel == pytest.approx(su / sp, rel=1e-12)
            assert got.u_norm == pytest.approx((su / sp) / (su_t / sp_t), rel=1e-12)
            assert value(net, event) == pytest.approx(su / su_t, rel=1e-12)
            given = dict(list(fixed.items())[: int(rng.integers(0, k + 1))])
            given[keep[0]] = int(rng.integers(space.shape[keep[0]]))
            f = Event(space, partial=given)
            (sp_ef, su_ef), (sp_f, su_f) = sums({**fixed, **given}), sums(given)
            assert conditional_probability(net, event, f) == pytest.approx(sp_ef / sp_f, rel=1e-12)
            assert conditional_event_utility(net, event, f) == pytest.approx(
                (su_ef / sp_ef) / (su_f / sp_f), rel=1e-12
            )
            assert value(net, event, f) == pytest.approx(su_ef / su_f, rel=1e-12)
            dvars = tuple(space.names[ax] for ax in keep)
            want_ties, want_eu = oracle_decision(net, dvars, member(fixed), tables)
            got = optimal_decision(DecisionProblem(net, dvars, event))
            assert got.argmax == want_ties
            assert got.eu == pytest.approx(want_eu, rel=1e-12)
            decisions += 1
        # E, F and G on disjoint axes that leave one axis out
        axes = [int(a) for a in rng.permutation(n)]
        e, f, g = (
            {ax: int(rng.integers(space.shape[ax])) for ax in part}
            for part in (axes[:1], axes[1:2], axes[2:2 + int(rng.integers(0, n - 2))])
        )
        (sp_g, su_g), *meets = (sums(x) for x in (g, {**e, **g}, {**f, **g}, {**e, **f, **g}))
        u_e, u_f, u_ef = ((su / sp) / (su_g / sp_g) for sp, su in meets)
        gap = abs(u_ef - u_e * u_f) / abs(u_e * u_f)
        if abs(gap - 1e-9) > 1e-6 * 1e-9:
            events = (Event(space, partial=x) for x in (e, f, g))
            assert eu_independent_events(net, *events) == (gap <= 1e-9)
            verdicts += 1
    assert spanning >= 250 and decisions >= 300 and verdicts >= 100

    # the log-space pass on spanning scopes, against exact sums
    ran = []
    eliminate = model._eliminate

    def spy(tables, buckets, shape, log):
        ran.append((buckets[-1].scope, log))
        return eliminate(tables, buckets, shape, log)

    monkeypatch.setattr(model, "_eliminate", spy)
    net = log_range_chain()
    exact = exact_state_sums(net)
    for fixed, keep in (({0: 1, 5: 1}, [3]), ({0: 1, 2: 1}, [4]), ({1: 1}, [3, 5])):
        event = Event(net.space, partial=fixed)
        scope = _scope_of(net, event, keep)
        assert net._clique_holding(scope) is None
        got_sp, got_su, *_ = _event_sums(net, event, 10**6, keep=keep)
        assert (scope, True) in ran
        for combo in itertools.product((0, 1), repeat=len(keep)):
            at = {**fixed, **dict(zip(keep, combo))}
            members = [s for v, s in exact.items() if all(v[a] == x for a, x in at.items())]
            want_sp = sum((p for p, _ in members), Fraction(0))
            want_su = sum((pu for _, pu in members), Fraction(0))
            assert got_sp[combo] == pytest.approx(float(want_sp), rel=1e-12)
            assert got_su[combo] == pytest.approx(float(want_su), rel=1e-12)
