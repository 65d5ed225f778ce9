"""Event measures: marginals, conditionals, the value measure, Bayes forms,
and the separation-enabled local shortcut."""

import tracemalloc

import numpy as np
import pytest

import helpers
from eunet import (
    PROB,
    UTIL,
    STATE_CAP_ENV,
    EmptyEventError,
    Event,
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
    reconstruct_joint,
    utility_bayes,
    validate_imap,
    value,
)
from eunet.inference import _event_sums
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


def test_cap_holds_on_cached_reads(chain_net):
    e = chain_net.cylinder({"X1": "1"})
    event_utility(chain_net, e)  # caches both ratio tables and the sure-event sums
    below = chain_net.state_count - 1
    with pytest.raises(StateCapError):
        event_utility(chain_net, e, state_cap=below)
    with pytest.raises(StateCapError):
        conditional_event_utility(chain_net, e, chain_net.true_event(), state_cap=below)
    for layer in (PROB, UTIL):
        with pytest.raises(StateCapError):
            chain_net.ratio_tables(layer, below)


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
    got = _event_sums(net, event, 10**6, keep=keep)
    if not keep:
        assert got == pytest.approx((float(want_sp), float(want_su)), rel=1e-12)
        return
    sp, su, member = got
    assert sp.shape == su.shape == member.shape == want_sp.shape
    assert member.all()
    np.testing.assert_allclose(sp, want_sp, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(su, want_su, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("fixed", [{0: 1}, {7: 0}])
def test_event_sum_makes_no_slice_sized_temporary(fixed):
    net = helpers.random_network(np.random.default_rng(5), n_vars=16, arc_prob=0.15)
    table = net.ratio_tables(PROB)
    event = Event(net.space, partial=fixed)
    _event_sums(net, event, 10**6)  # both tables built and cached
    tracemalloc.start()
    try:
        _event_sums(net, event, 10**6)
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
    net = helpers.extreme_ratio_net()
    with pytest.raises(NumericRangeError, match="inf or 0 entry"):
        validate_imap(net)
    with pytest.raises(NumericRangeError, match="inf or 0 entry"):
        full_mantle_potential(net, PROB, "A")
