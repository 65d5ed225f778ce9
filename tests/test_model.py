"""Core model: construction, validation, ratio semantics, events, caching."""

import itertools
import threading
import tracemalloc

import numpy as np
import pytest

import helpers
from eunet import (
    PROB,
    UTIL,
    STATE_CAP_ENV,
    Assignment,
    EmptyEventError,
    EunError,
    NumericRangeError,
    EUNGraph,
    Event,
    Network,
    RestrictedPotential,
    Space,
    StateCapError,
    ValidationError,
    VariableSpec,
    build_network,
    derive_restricted_potentials,
    full_mantle_potential,
    joint_ratio,
    reconstruct_joint,
    resolve_state_cap,
    validate_imap,
)


def binary(name):
    return VariableSpec(name, ("0", "1"))


def adversarial_net(free=0):
    """Chain graph X1 - X2 - X3 ordered (X1, X3, X2).

    X2's stored table conditions on both neighbours; the chosen entries make
    X1's full conditional depend on X3, which is not one of X1's neighbours,
    so the graph under-declares the dependence structure.  ``free`` binary
    variables F0, F1, ... with no arcs follow the core in the ordering.
    """
    domains = {name: ("0", "1") for name in ("X1", "X3", "X2", *(f"F{k}" for k in range(free)))}
    return helpers.net_of(
        domains,
        prob_arcs=[("X1", "X2"), ("X2", "X3")],
        q={
            "X2": {
                ("1", "0", "0"): 2.0,
                ("1", "0", "1"): 3.0,
                ("1", "1", "0"): 5.0,
                ("1", "1", "1"): 11.0,
            },
        },
    )


# -- variable specs ---------------------------------------------------------


def test_reference_defaults_to_first_label():
    spec = VariableSpec("X", ("a", "b", "c"))
    assert spec.reference == "a"
    assert spec.reference_index == 0


def test_explicit_reference():
    spec = VariableSpec("X", ("a", "b", "c"), reference="c")
    assert spec.reference_index == 2


def test_singleton_domain_rejected():
    with pytest.raises(ValidationError, match="at least 2"):
        VariableSpec("X", ("only",))


def test_duplicate_domain_labels_rejected():
    with pytest.raises(ValidationError, match="unique"):
        VariableSpec("X", ("a", "a"))


def test_reference_outside_domain_rejected():
    with pytest.raises(ValidationError, match="absent from domain"):
        VariableSpec("X", ("a", "b"), reference="z")


def test_value_index_error_names_the_value():
    spec = binary("H")
    with pytest.raises(ValidationError, match="'5' outside domain"):
        spec.value_index("5")


# -- graphs -------------------------------------------------------------------


def test_graph_normalizes_arc_direction():
    g = EUNGraph.of(prob_arcs=[("B", "A")])
    assert g.prob_arcs == frozenset({("A", "B")})


def test_self_loop_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        EUNGraph.of(prob_arcs=[("A", "A")])


def test_neighbors_and_layers_are_independent():
    g = EUNGraph.of(prob_arcs=[("A", "B")], util_arcs=[("B", "C")])
    assert g.neighbors(PROB, "B") == frozenset({"A"})
    assert g.neighbors(UTIL, "B") == frozenset({"C"})


def test_adjacency_matches_the_arc_list(rng):
    names = [f"N{i}" for i in range(7)]
    for _ in range(20):
        layers = {
            layer: [pair for pair in itertools.combinations(names, 2) if rng.random() < 0.3]
            for layer in (PROB, UTIL)
        }
        g = EUNGraph.of(prob_arcs=layers[PROB], util_arcs=layers[UTIL], nodes=names)
        for layer, arcs in layers.items():
            for name in names:
                scan = {y for x, y in arcs if x == name} | {x for x, y in arcs if y == name}
                assert g.neighbors(layer, name) == scan
                assert g.below_neighbors(layer, name, names) == tuple(
                    n for n in names[: names.index(name)] if n in scan
                )
            a, b, *rest = rng.permutation(names)
            c = frozenset(rest[: int(rng.integers(0, 4))])
            # a and b are separated by c when no path joins them outside c
            reach, frontier = {a}, [a]
            while frontier:
                node = frontier.pop()
                for x, y in arcs:
                    nxt = y if x == node else x if y == node else None
                    if nxt is not None and nxt not in c and nxt not in reach:
                        reach.add(nxt)
                        frontier.append(nxt)
            assert g.separating(layer, frozenset({a}), frozenset({b}), c) == (b not in reach)


def test_separating_bfs():
    g = EUNGraph.of(prob_arcs=[("A", "B"), ("B", "C"), ("C", "D")])
    assert g.separating(PROB, frozenset("A"), frozenset("D"), frozenset("B"))
    assert g.separating(PROB, frozenset("A"), frozenset("D"), frozenset("C"))
    assert not g.separating(PROB, frozenset("A"), frozenset("C"), frozenset("D"))


# -- potential construction ---------------------------------------------------


def test_from_entries_fills_reference_rows():
    pot = RestrictedPotential.from_entries(binary("X"), [], PROB, {("1",): 2.5})
    assert pot.table[0] == 1.0
    assert pot.table[1] == 2.5


def test_from_entries_incomplete_table():
    spec = VariableSpec("X", ("0", "1", "2"))
    with pytest.raises(ValidationError, match="incomplete"):
        RestrictedPotential.from_entries(spec, [], PROB, {("1",): 2.0})


def test_from_entries_rejects_non_unit_reference():
    with pytest.raises(ValidationError, match="non-unit reference row"):
        RestrictedPotential.from_entries(binary("X"), [], PROB, {("0",): 2.0, ("1",): 3.0})


def test_from_entries_rejects_wrong_arity():
    with pytest.raises(ValidationError, match="wrong arity"):
        RestrictedPotential.from_entries(binary("X"), [], PROB, {("1", "0"): 2.0})


def test_non_positive_entry_rejected():
    with pytest.raises(ValidationError, match="non-positive"):
        RestrictedPotential("X", PROB, (), np.array([1.0, 0.0]), reference_index=0)


def test_non_finite_entry_rejected():
    with pytest.raises(ValidationError, match="non-finite"):
        RestrictedPotential("X", PROB, (), np.array([1.0, np.inf]), reference_index=0)


def test_potential_table_is_frozen():
    pot = RestrictedPotential.from_entries(binary("X"), [], PROB, {("1",): 2.0})
    with pytest.raises(ValueError):
        pot.table[1] = 9.0


# -- build_network validation -------------------------------------------------


def test_a_network_without_variables_is_rejected():
    from eunet import parse_network

    with pytest.raises(ValidationError, match="at least one variable"):
        build_network([], (), EUNGraph.of())
    with pytest.raises(ValidationError, match="at least one variable"):
        parse_network('{"format": "eun/1", "variables": [], "ordering": []}')


def test_duplicate_variable_rejected():
    with pytest.raises(ValidationError, match="duplicate variable"):
        build_network([binary("X"), binary("X")], ("X", "X"), EUNGraph.of())


def test_ordering_must_be_permutation():
    with pytest.raises(ValidationError, match="permutation"):
        build_network([binary("X"), binary("Y")], ("X",), EUNGraph.of())


def test_unknown_arc_variable_rejected():
    g = EUNGraph.of(prob_arcs=[("X", "Z")])
    with pytest.raises(ValidationError, match="unknown variable in an arc"):
        build_network([binary("X"), binary("Y")], ("X", "Y"), g)


def test_parent_mismatch_rejected():
    g = EUNGraph.of(prob_arcs=[("X", "Y")])
    bad = RestrictedPotential.from_entries(binary("Y"), [], PROB, {("1",): 2.0})
    with pytest.raises(ValidationError, match="conditioning set mismatch"):
        build_network([binary("X"), binary("Y")], ("X", "Y"), g, [bad])


def test_wrong_table_shape_rejected():
    spec_x = VariableSpec("X", ("0", "1", "2"))
    g = EUNGraph.of(prob_arcs=[("X", "Y")])
    bad = RestrictedPotential("Y", PROB, ("X",), np.ones((2, 2)), reference_index=0)
    with pytest.raises(ValidationError, match="does not match domains"):
        build_network([spec_x, binary("Y")], ("X", "Y"), g, [bad])


def test_duplicate_potential_rejected():
    pot = RestrictedPotential.from_entries(binary("X"), [], PROB, {("1",): 2.0})
    with pytest.raises(ValidationError, match="duplicate potential"):
        build_network([binary("X")], ("X",), EUNGraph.of(), [pot, pot])


def test_missing_potentials_default_to_identity():
    net = build_network([binary("X"), binary("Y")], ("X", "Y"), EUNGraph.of())
    joint = reconstruct_joint(net)
    assert np.allclose(joint.p, 0.25)
    assert np.all(joint.u == 1.0)


def test_scaled_reference_row_rejected_at_build():
    table = np.array([2.0, 3.0])  # reference entry not 1
    # without reference_index the constructor leaves the reference row unchecked
    pot = RestrictedPotential("X", PROB, (), table)
    with pytest.raises(ValidationError, match="non-unit reference row"):
        build_network([binary("X")], ("X",), EUNGraph.of(), [pot])


# -- joint ratios -------------------------------------------------------------


def test_reference_state_ratio_is_exactly_one(chain_net):
    ref = {"X1": "0", "X2": "0", "X3": "0"}
    assert joint_ratio(chain_net, PROB, ref) == 1.0
    assert joint_ratio(chain_net, UTIL, ref) == 1.0


def test_chain_joint_ratio(chain_net):
    got = joint_ratio(chain_net, PROB, {"X1": "1", "X2": "1", "X3": "1"})
    assert got == pytest.approx(30.0, rel=1e-12)


def test_coupled_utility_joint_ratio(hw2):
    got = joint_ratio(hw2, UTIL, {"H": "1", "W": "1"})
    assert got == pytest.approx(4.0, rel=1e-12)


def test_joint_ratio_accepts_assignment_object(chain_net):
    a = chain_net.assignment({"X1": "1", "X2": "0", "X3": "0"})
    assert joint_ratio(chain_net, PROB, a) == pytest.approx(2.0, rel=1e-12)


def test_joint_ratio_rejects_foreign_assignment(chain_net, hw1):
    a = hw1.assignment({"H": "1", "W": "1"})
    with pytest.raises(ValidationError, match="different variable system"):
        joint_ratio(chain_net, PROB, a)


def test_joint_ratio_requires_full_assignment(chain_net):
    with pytest.raises(ValidationError):
        joint_ratio(chain_net, PROB, {"X1": "1"})


# -- reconstruction -----------------------------------------------------------


def test_reconstructed_probability_normalises(chain_net):
    joint = reconstruct_joint(chain_net)
    assert abs(joint.p.sum() - 1.0) <= 1e-12


def test_chain_reconstruction_matches_hand_numbers(chain_net):
    joint = reconstruct_joint(chain_net)
    assert joint.p[1, 1, 1] == pytest.approx(30.0 / 48.0, rel=1e-12)
    assert chain_net.ratio_tables(PROB).sum() == pytest.approx(48.0, rel=1e-12)


def test_reconstruction_matches_direct_multiplication_oracle(rng):
    for _ in range(10):
        net = helpers.random_network(rng, n_vars=4, domain_sizes=(2, 3))
        for layer in (PROB, UTIL):
            want = helpers.oracle_ratio_table(net, layer)
            got = net.ratio_tables(layer)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_joint_ratio_agrees_with_full_table(rng):
    net = helpers.random_network(rng, n_vars=5)
    table = net.ratio_tables(PROB)
    space = net.space
    for values in np.ndindex(*space.shape):
        x = {space.names[i]: space.specs[i].domain[v] for i, v in enumerate(values)}
        assert joint_ratio(net, PROB, x) == pytest.approx(table[values], rel=1e-12)


def test_joint_ratio_out_of_float_range_raises_numeric_range_error():
    net = helpers.extreme_ratio_net()
    # 1e200 * 1e200 = 1e400 overflows; 1e200 * 1e-300 does not.
    with pytest.raises(NumericRangeError, match="float range"):
        joint_ratio(net, PROB, {"A": "1", "B": "1", "C": "0"})
    assert joint_ratio(net, PROB, {"A": "1", "B": "0", "C": "1"}) == pytest.approx(1e-100)
    tiny = helpers.net_of(
        {"A": ("0", "1"), "B": ("0", "1")}, q={"A": {("1",): 1e-300}, "B": {("1",): 1e-300}}
    )
    with pytest.raises(NumericRangeError, match="float range"):
        joint_ratio(tiny, PROB, {"A": "1", "B": "1"})


def test_round_trip_through_derived_potentials(rng):
    net = helpers.random_network(rng, n_vars=4, domain_sizes=(2, 3))
    for layer in (PROB, UTIL):
        table = net.ratio_tables(layer)
        derived = derive_restricted_potentials(table, net.space, net.graph, layer)
        for pot in derived:
            stored = net.potential(layer, pot.var)
            assert pot.parents == stored.parents
            assert np.allclose(pot.table, stored.table, rtol=1e-12, atol=0.0)


def test_derived_potentials_check_input_and_float_range(hw1):
    # An inf entry is a bad input; finite entries whose ratio leaves float
    # range are a float-range fault.
    space, graph = hw1.space, hw1.graph
    with pytest.raises(ValidationError, match="strictly positive and finite"):
        derive_restricted_potentials(np.array([[1.0, 1.0], [1.0, np.inf]]), space, graph, UTIL)
    table = np.array([[1e-300, 1.0], [1e300, 1.0]])
    with pytest.raises(NumericRangeError, match="window of 'H' holds an inf or 0 entry"):
        derive_restricted_potentials(table, space, graph, UTIL)


def test_any_ordering_reproduces_the_same_joint(hw2):
    # Read potentials off hw2's utility table under the reversed ordering and
    # rebuild; the reconstructed measure must be the original one transposed.
    u = hw2.ratio_tables(UTIL)
    specs = [hw2.space.spec("W"), hw2.space.spec("H")]
    space = Space(specs)
    graph = hw2.graph
    pots = derive_restricted_potentials(u.T, space, graph, UTIL)
    pots += derive_restricted_potentials(np.ones_like(u), space, graph, PROB)
    flipped = build_network(specs, ("W", "H"), graph, pots)
    assert np.allclose(flipped.ratio_tables(UTIL), u.T, rtol=1e-12, atol=0.0)


# -- full-mantle conditionals ---------------------------------------------------


def test_full_mantle_potential_coupled_utilities(hw2):
    pot = full_mantle_potential(hw2, UTIL, "H")
    assert pot.given == ("W",)
    # ratio of H=1 to H=0 with W fixed at 1: 4/2
    assert pot.table[1, 1] == pytest.approx(2.0, rel=1e-12)
    assert pot.table[1, 0] == pytest.approx(3.0, rel=1e-12)


def test_full_mantle_potential_independent_utilities(hw1):
    pot = full_mantle_potential(hw1, UTIL, "H")
    assert pot.given == ()
    assert pot.table[1] == pytest.approx(3.0, rel=1e-12)


def test_full_mantle_matches_stored_chain_table(chain_net):
    pot = full_mantle_potential(chain_net, PROB, "X2")
    assert pot.given == ("X1", "X3")
    # at X3 at its reference the stored entries reappear
    assert pot.table[1, 1, 0] == pytest.approx(3.0, rel=1e-12)
    assert pot.table[1, 0, 0] == pytest.approx(1.0, rel=1e-12)


def test_full_mantle_strict_raises_on_hidden_dependence():
    net = adversarial_net()
    with pytest.raises(ValidationError, match="non-mantle dependence"):
        full_mantle_potential(net, PROB, "X1")


def test_full_mantle_loose_mode_returns_reference_completion():
    net = adversarial_net()
    pot = full_mantle_potential(net, PROB, "X1", strict=False)
    assert pot.given == ("X2",)
    # completion at X3=0: ratio of X1=1 to X1=0 given X2=1 is 5/2
    assert pot.table[1, 1] == pytest.approx(2.5, rel=1e-12)


# -- independence-map validation ------------------------------------------------


def test_validate_imap_accepts_consistent_networks(chain_net, hw1, hw2):
    for net in (chain_net, hw1, hw2):
        report = validate_imap(net)
        assert report.ok
        assert report.violations == ()


def test_validate_imap_accepts_random_fillin_networks(rng):
    for _ in range(5):
        net = helpers.random_network(rng, n_vars=5, domain_sizes=(2, 3))
        assert validate_imap(net).ok


def test_validate_imap_flags_underdeclared_dependence():
    report = validate_imap(adversarial_net())
    assert not report.ok
    flagged = {v.variable for v in report.violations}
    assert "X1" in flagged
    worst = max(report.violations, key=lambda v: v.deviation)
    assert worst.layer == PROB
    # ratios 5/2 at X3=0 versus 11/3 at X3=1: spread (22/15 - 1)
    assert worst.deviation == pytest.approx(22.0 / 15.0 - 1.0, rel=1e-9)
    assert worst.witness.get("X2") == "1"


def test_imap_report_is_cached(chain_net):
    assert chain_net.imap_report() is chain_net.imap_report()


def test_cached_imap_report_checks_the_cap():
    # X1's window over (X1, X3, X2) has 8 states: cached or not, the report
    # answers only under a cap that admits the audit's largest window.
    net = adversarial_net()
    with pytest.raises(StateCapError, match="8 states exceeds the cap of 4"):
        net.imap_report(state_cap=4)
    report = net.imap_report()
    with pytest.raises(StateCapError, match="8 states exceeds the cap of 4"):
        net.imap_report(state_cap=4)
    assert net.imap_report(state_cap=8) is report


def _audit_nets(count, max_states=4096):
    """Random networks with 3-8 variables, domains 2-4, random references and
    arcs as drawn (no fill-in), so many fail the audit.  Networks above
    ``max_states`` are redrawn to keep the scalar oracle quick."""
    rng = np.random.default_rng(20261018)
    while count:
        net = helpers.random_network(
            rng, n_vars=int(rng.integers(3, 9)), domain_sizes=(2, 3, 4),
            arc_prob=float(rng.uniform(0.2, 0.6)), low=0.2, high=5.0,
            random_references=True, fill_in=False,
        )
        if net.state_count <= max_states:
            count -= 1
            yield net


def test_window_audit_matches_the_full_table_oracle():
    violations = 0
    for net in _audit_nets(200):
        got = validate_imap(net).violations
        want = helpers.oracle_imap_report(net)
        assert [(v.variable, v.layer, v.witness) for v in got] == [
            (var, layer, witness) for var, layer, _, witness in want
        ]
        for v, (_, _, deviation, _) in zip(got, want):
            assert v.deviation == pytest.approx(deviation, rel=1e-12, abs=0.0)
        violations += len(got)
        for layer in (PROB, UTIL):
            table = helpers.oracle_ratio_table(net, layer)
            for var in net.ordering:
                spread, ratio = helpers.oracle_mantle_spread(net, layer, var, table)
                pot = full_mantle_potential(net, layer, var, strict=False)
                assert pot.table.shape == ratio.shape
                assert np.allclose(pot.table, ratio, rtol=1e-12, atol=0.0)
                if spread is not None and spread.max() > 1e-9:
                    with pytest.raises(ValidationError, match="non-mantle dependence"):
                        full_mantle_potential(net, layer, var)
                else:
                    assert full_mantle_potential(net, layer, var).given == pot.given
    assert violations > 200


def test_audit_reads_no_joint_table(monkeypatch):
    def fail(self, layer, state_cap=None):
        raise AssertionError("the audit read a joint table")

    monkeypatch.setattr(Network, "ratio_tables", fail)
    net = adversarial_net()
    assert [v.variable for v in validate_imap(net).violations] == ["X1", "X3"]
    assert not net.imap_report().ok
    assert full_mantle_potential(net, PROB, "X1", strict=False).given == ("X2",)


def test_audit_answers_above_the_cap():
    # 24 binary variables in a chain in both layers: 16,777,216 states.
    names = [f"X{i:02d}" for i in range(24)]
    net = helpers.chain_net(5, dict.fromkeys(names, 2), names)
    assert net.state_count > resolve_state_cap()
    assert net.imap_report().ok and validate_imap(net).ok
    pot = full_mantle_potential(net, UTIL, "X10")
    assert pot.given == ("X09", "X11")
    x = dict.fromkeys(names, "0") | {"X09": "1", "X10": "1", "X11": "1"}
    want = joint_ratio(net, UTIL, x) / joint_ratio(net, UTIL, x | {"X10": "0"})
    assert pot.table[1, 1, 1] == pytest.approx(want, rel=1e-12)


def test_audit_above_the_cap_reports_its_core():
    core, wide = adversarial_net(), adversarial_net(free=21)
    assert wide.state_count > resolve_state_cap()
    assert not core.imap_report().ok
    assert wide.imap_report().violations == core.imap_report().violations


# -- events ---------------------------------------------------------------------


def test_cylinder_intersection_stays_lazy(chain_net):
    e = chain_net.cylinder({"X1": "1"}) & chain_net.cylinder({"X3": "1"})
    assert e.is_cylinder
    assert e.fixed_variables() == {"X1": "1", "X3": "1"}
    assert e.size == 2


def test_conflicting_cylinders_intersect_to_empty(chain_net):
    e = chain_net.cylinder({"X1": "1"}) & chain_net.cylinder({"X1": "0"})
    assert e.is_empty


def test_complement_and_union(chain_net):
    e = chain_net.cylinder({"X1": "1"})
    both = e | ~e
    assert both.size == 8
    assert (~e).size == 4


def test_event_equality_mixes_representations(chain_net):
    cyl = chain_net.cylinder({"X1": "1"})
    explicit = Event.from_assignments(
        chain_net.space,
        [
            {"X1": "1", "X2": a, "X3": b}
            for a in ("0", "1")
            for b in ("0", "1")
        ],
    )
    assert cyl == explicit
    assert hash(cyl) == hash(explicit)


def test_flat_indexes_are_sorted(chain_net):
    e = chain_net.cylinder({"X2": "1"})
    flat = e.flat_indexes()
    assert list(flat) == sorted(flat)
    assert len(flat) == 4


def test_events_from_different_spaces_do_not_mix(chain_net, hw1):
    with pytest.raises(ValidationError, match="different variable system"):
        chain_net.cylinder({"X1": "1"}) & hw1.cylinder({"H": "1"})


def test_cylinder_rejects_unknown_variable(chain_net):
    with pytest.raises(ValidationError, match="unknown variable"):
        chain_net.cylinder({"Z": "1"})


def test_explicit_states_are_checked_at_construction(chain_net):
    space = chain_net.space
    with pytest.raises(ValidationError, match="outside its domain"):
        Event(space, states=frozenset({(5, 0, 0)}))
    with pytest.raises(ValidationError, match="outside its domain"):
        Event(space, states=[(0, 0, 1), (0, -1, 0)])
    with pytest.raises(ValidationError, match="2 values for 3 variables"):
        Event(space, states=frozenset({(0, 0)}))
    with pytest.raises(ValidationError, match="integer value indexes"):
        Event(space, states=[(0.5, 0, 0)])
    assert Event(space, states=[(1, 0, 1), (1, 0, 1)]).size == 1


@pytest.mark.parametrize(
    "partial, message",
    [
        ({5: 0}, "axis 5 outside a space of 3 variables"),
        ({-1: 0}, "axis -1 outside a space of 3 variables"),
        ({0: 7}, "value index 7 outside the domain of 'X1' (2 values)"),
    ],
)
def test_cylinder_axes_are_checked_at_construction(chain_net, partial, message):
    with pytest.raises(ValidationError) as err:
        Event(chain_net.space, partial=partial)
    assert str(err.value) == message
    assert Event(chain_net.space, partial={2: 1}).size == 4


def test_space_past_flat_index_range_raises_typed_error():
    space = Space([binary(f"X{i}") for i in range(64)])
    with pytest.raises(EunError, match="flat-indexing"):
        Event(space, states=frozenset({(0,) * 64}))
    nearly_fixed = Event.cylinder(space, {f"X{i}": "0" for i in range(60)})
    with pytest.raises(EunError, match="flat-indexing"):
        nearly_fixed.flat_indexes()
    with pytest.raises(EunError, match="flat-indexing"):
        nearly_fixed | Event.cylinder(space, {f"X{i}": "1" for i in range(60)})


def _oracle_states(space, event_spec):
    """The plain-Python state set of a drawn event: a cylinder's completions
    or the drawn tuples themselves."""
    kind, data = event_spec
    every = itertools.product(*(range(n) for n in space.shape))
    if kind == "cylinder":
        return frozenset(s for s in every if all(s[ax] == v for ax, v in data.items()))
    return frozenset(data)


def _draw_event(rng, space):
    """A random cylinder (sometimes the sure event or a single state) or a
    random state set (sometimes empty or every state), with its oracle set."""
    if rng.random() < 0.5:
        fixed = {
            ax: int(rng.integers(n)) for ax, n in enumerate(space.shape) if rng.random() < 0.4
        }
        spec = ("cylinder", fixed)
        event = Event(space, partial=fixed)
    else:
        every = list(itertools.product(*(range(n) for n in space.shape)))
        keep = rng.random(len(every)) < rng.choice([0.0, 0.2, 0.6, 1.0])
        spec = ("states", [s for s, k in zip(every, keep) if k])
        event = Event(space, states=frozenset(spec[1]))
    return event, _oracle_states(space, spec)


def _oracle_fixed(space, states):
    first = min(states)
    return {
        space.names[ax]: space.specs[ax].domain[first[ax]]
        for ax in range(len(space))
        if all(s[ax] == first[ax] for s in states)
    }


def _check_against_oracle(space, event, want):
    assert event.size == len(want)
    assert event.is_empty == (not want)
    assert event.states() == want
    assert [a.values for a in event.assignments()] == sorted(want)
    flat = event.flat_indexes()
    assert flat.dtype == np.intp and list(flat) == sorted(set(flat.tolist()))
    assert len(flat) == len(want)
    if want:
        assert event.fixed_variables() == _oracle_fixed(space, want)
    else:
        with pytest.raises(EmptyEventError):
            event.fixed_variables()
    explicit = Event(space, states=want)
    assert event == explicit and explicit == event
    assert hash(event) == hash(explicit)


@pytest.mark.parametrize("seed", range(12))
def test_event_algebra_matches_a_frozenset_oracle(seed):
    rng = np.random.default_rng(seed)
    net = helpers.random_network(rng, n_vars=int(rng.integers(2, 5)), domain_sizes=(2, 3, 4))
    space = net.space
    everything = _oracle_states(space, ("cylinder", {}))
    for _ in range(25):
        (a, sa), (b, sb) = _draw_event(rng, space), _draw_event(rng, space)
        _check_against_oracle(space, a, sa)
        _check_against_oracle(space, a & b, sa & sb)
        _check_against_oracle(space, b & a, sa & sb)
        _check_against_oracle(space, a | b, sa | sb)
        _check_against_oracle(space, a.complement(), everything - sa)
        _check_against_oracle(space, ~b, everything - sb)
        assert (a == b) == (sa == sb) == (b == a)
        if sa == sb:
            assert hash(a) == hash(b)


def test_sure_event_hashes_and_compares_under_a_small_cap(chain_net, monkeypatch):
    monkeypatch.setenv(STATE_CAP_ENV, "4")
    sure = chain_net.true_event()
    every = Event.from_assignments(
        chain_net.space,
        [
            {"X1": a, "X2": b, "X3": c}
            for a, b, c in itertools.product("01", repeat=3)
        ],
    )
    assert hash(sure) == hash(every)
    assert sure == every and every == sure
    assert sure != chain_net.cylinder({"X1": "1"})
    with pytest.raises(StateCapError):
        sure.states(state_cap=4)
    with pytest.raises(StateCapError):
        sure.flat_indexes()
    with pytest.raises(StateCapError):
        sure | every
    with pytest.raises(StateCapError):
        chain_net.cylinder({"X1": "1"}).complement()


def test_hash_and_equality_allocate_nothing_that_grows_with_a_cylinder():
    space = Space([binary(f"X{i}") for i in range(24)])
    sure = Event.true(space)
    small = Event(space, states=frozenset({(0,) * 24, (1,) * 24}))
    tracemalloc.start()
    try:
        assert sure != small
        assert sure == Event.true(space)
        assert hash(sure) == hash(Event.true(space))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_stored_flat_indexes_are_read_only(chain_net):
    e = chain_net.cylinder({"X1": "1"}) | chain_net.cylinder({"X2": "1"})
    flat = e.flat_indexes()
    with pytest.raises(ValueError):
        flat[0] = 7
    assert e.size == 6


# -- state cap -------------------------------------------------------------------


def test_state_cap_explicit_beats_env(monkeypatch):
    monkeypatch.setenv("EUN_STATE_CAP", "7")
    assert resolve_state_cap(3) == 3
    assert resolve_state_cap() == 7


def test_state_cap_env_must_be_positive_integer(monkeypatch):
    monkeypatch.setenv("EUN_STATE_CAP", "zero")
    with pytest.raises(ValidationError, match="EUN_STATE_CAP"):
        resolve_state_cap()
    monkeypatch.setenv("EUN_STATE_CAP", "0")
    with pytest.raises(ValidationError, match="EUN_STATE_CAP"):
        resolve_state_cap()


@pytest.mark.parametrize("cap", [2.5, 7.0, np.float64(8.0), True, False, np.bool_(True), "7"])
def test_state_cap_rejects_non_integers(cap):
    with pytest.raises(ValidationError, match="state cap must be a positive integer"):
        resolve_state_cap(cap)


@pytest.mark.parametrize("cap", [3, np.int64(3), np.uint8(3), np.intp(3)])
def test_state_cap_takes_python_and_numpy_integers(cap):
    got = resolve_state_cap(cap)
    assert got == 3 and type(got) is int


@pytest.mark.parametrize("raw", ["7.9", "7.0", "True", "1e6"])
def test_state_cap_env_rejects_non_integers(monkeypatch, raw):
    monkeypatch.setenv(STATE_CAP_ENV, raw)
    with pytest.raises(ValidationError, match=STATE_CAP_ENV):
        resolve_state_cap()


def test_enumeration_respects_cap(chain_net):
    with pytest.raises(StateCapError, match="exceeds the cap"):
        chain_net.ratio_tables(PROB, state_cap=4)


def test_event_materialisation_respects_cap(chain_net):
    e = chain_net.true_event()
    with pytest.raises(StateCapError):
        e.states(state_cap=4)


def test_cap_error_reports_counts(chain_net):
    with pytest.raises(StateCapError, match="8"):
        reconstruct_joint(chain_net, state_cap=4)


# -- immutability and concurrency --------------------------------------------------


def test_ratio_tables_are_frozen(chain_net):
    table = chain_net.ratio_tables(PROB)
    with pytest.raises(ValueError):
        table[0, 0, 0] = 5.0


def test_concurrent_queries_agree(rng):
    net = helpers.random_network(rng, n_vars=6)
    results = []
    errors = []

    def worker():
        try:
            joint = reconstruct_joint(net)
            results.append((joint.p.tobytes(), joint.u.tobytes()))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(set(results)) == 1


def test_assignment_lookup(chain_net):
    a = chain_net.assignment({"X1": "1", "X2": "0", "X3": "1"})
    assert a["X1"] == "1"
    assert a.labels == {"X1": "1", "X2": "0", "X3": "1"}
    assert isinstance(a, Assignment)


def test_reference_assignment(chain_net):
    a = chain_net.reference_assignment()
    assert a.labels == {"X1": "0", "X2": "0", "X3": "0"}
