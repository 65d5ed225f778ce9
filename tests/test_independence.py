"""Independence: graph separation, table ratio tests, event-level EU tests."""

import math
import re

import numpy as np
import pytest

import helpers
from eunet import (
    PROB,
    STATE_CAP_ENV,
    UTIL,
    EmptyEventError,
    Event,
    NumericRangeError,
    StateCapError,
    ValidationError,
    declared_independent,
    derive_perfect_map,
    eu_independent_events,
    eu_independent_vars,
    max_ratio_spread,
    parse_network,
    separates,
    serialize_network,
    table_independent,
)
from eunet import independence

HW_FACTORED = np.array([[1.0, 2.0], [3.0, 6.0]])
HW_COUPLED = np.array([[1.0, 2.0], [3.0, 4.0]])


# -- table tests --------------------------------------------------------------


def test_factored_utilities_are_independent():
    assert table_independent(HW_FACTORED, m=[0], k=[])
    assert table_independent(HW_FACTORED, m=[1], k=[])


def test_coupled_utilities_are_dependent():
    assert not table_independent(HW_COUPLED, m=[0], k=[])
    assert not table_independent(HW_COUPLED, m=[1], k=[])


def test_ratio_spread_margins():
    # H-ratio is 3 in both columns of the factored table, spread zero.
    assert max_ratio_spread(HW_FACTORED, m=[0], k=[]) == 0.0
    # In the coupled table the H-ratio is 3 against 2, a half of the smaller.
    assert max_ratio_spread(HW_COUPLED, m=[0], k=[]) == pytest.approx(0.5, abs=0.0)


def test_spread_is_zero_when_everything_is_conditioned():
    assert max_ratio_spread(HW_COUPLED, m=[0], k=[1]) == 0.0


def test_planted_chain_factorisation(rng):
    # f(a,b) * g(b,c): A and C are independent given B, not marginally.
    table = helpers.planted_factor_table(rng, 3, [(0, 1), (1, 2)])
    assert table_independent(table, m=[0], k=[1])
    assert table_independent(table, m=[2], k=[1])
    assert not table_independent(table, m=[0], k=[])
    assert not table_independent(table, m=[2], k=[])


def test_conditioning_enlargement_preserves_independence(rng):
    # once the ratio of M depends only on M and K, any larger K still works
    table = helpers.planted_factor_table(rng, 4, [(0, 1), (1, 2), (2, 3)])
    assert table_independent(table, m=[0], k=[1])
    assert table_independent(table, m=[0], k=[1, 2])
    assert table_independent(table, m=[0], k=[1, 2, 3])


def test_table_validation():
    with pytest.raises(ValidationError, match="strictly positive"):
        table_independent(np.array([[1.0, 0.0], [1.0, 1.0]]), m=[0], k=[])
    with pytest.raises(ValidationError, match="axis"):
        table_independent(HW_FACTORED, m=[5], k=[])
    with pytest.raises(ValidationError, match="disjoint"):
        table_independent(HW_FACTORED, m=[0], k=[0])
    with pytest.raises(ValidationError, match="non-empty"):
        table_independent(HW_FACTORED, m=[], k=[0])


# -- graph separation -----------------------------------------------------------


def test_separates_on_a_chain(chain_net):
    g = chain_net.graph
    assert separates(g, PROB, ["X1"], ["X3"], ["X2"])
    assert not separates(g, PROB, ["X1"], ["X3"], [])
    assert not separates(g, PROB, ["X1"], ["X2"], ["X3"])


def test_separates_is_symmetric(rng):
    for _ in range(20):
        net = helpers.random_network(rng, n_vars=5)
        names = list(net.space.names)
        rng.shuffle(names)
        a, b, c = [names[0]], [names[1]], names[2:4]
        got_ab = separates(net.graph, PROB, a, b, c)
        got_ba = separates(net.graph, PROB, b, a, c)
        assert got_ab == got_ba


def test_separation_survives_conditioning_growth(rng):
    # adding variables to the separating set never reopens a path
    for _ in range(20):
        net = helpers.random_network(rng, n_vars=6)
        names = list(net.space.names)
        rng.shuffle(names)
        a, b = [names[0]], [names[1]]
        c_small = names[2:4]
        c_large = names[2:5]
        if separates(net.graph, PROB, a, b, c_small):
            assert separates(net.graph, PROB, a, b, c_large)


def test_separates_validates_inputs(chain_net):
    g = chain_net.graph
    with pytest.raises(ValidationError, match="disjoint"):
        separates(g, PROB, ["X1"], ["X1"], [])
    with pytest.raises(ValidationError, match="unknown"):
        separates(g, PROB, ["X1"], ["Z9"], [])
    with pytest.raises(ValidationError, match="non-empty"):
        separates(g, PROB, [], ["X3"], [])


def test_declared_independent_requires_partition(chain_net):
    assert declared_independent(chain_net, PROB, ["X1"], ["X3"], ["X2"])
    with pytest.raises(ValidationError, match="partition"):
        declared_independent(chain_net, PROB, ["X1"], ["X3"])


# -- perfect map recovery ---------------------------------------------------------


def test_perfect_map_recovers_planted_chain(rng):
    p = helpers.planted_factor_table(rng, 3, [(0, 1), (1, 2)])
    u = np.ones((2, 2, 2))
    g = derive_perfect_map(p, u, names=("A", "B", "C"))
    assert g.prob_arcs == frozenset({("A", "B"), ("B", "C")})
    assert g.util_arcs == frozenset()


def test_perfect_map_on_fully_generic_table(rng):
    p = helpers.random_positive_table(rng, (2, 2, 2))
    u = helpers.random_positive_table(rng, (2, 2, 2))
    g = derive_perfect_map(p, u)
    # generic tables admit no independencies at all
    assert len(g.prob_arcs) == 3
    assert len(g.util_arcs) == 3
    assert g.nodes == frozenset({"X1", "X2", "X3"})


def test_perfect_map_arcs_match_pairwise_spread(rng):
    p = helpers.planted_factor_table(rng, 4, [(0, 1), (1, 2), (2, 3)])
    u = np.ones((2,) * 4)
    g = derive_perfect_map(p, u, names=("A", "B", "C", "D"))
    assert g.prob_arcs == frozenset({("A", "B"), ("B", "C"), ("C", "D")})


def test_perfect_map_shape_validation(rng):
    p = helpers.random_positive_table(rng, (2, 2))
    u = helpers.random_positive_table(rng, (2, 2, 2))
    with pytest.raises(ValidationError):
        derive_perfect_map(p, u)


def test_perfect_map_rejects_duplicate_names(rng):
    # with no arcs, and with an arc between the two axes of one name
    free = np.ones((2, 2))
    linked = helpers.planted_factor_table(rng, 2, [(0, 1)])
    for p in (free, linked):
        with pytest.raises(ValidationError, match="names must be unique"):
            derive_perfect_map(p, free, names=("A", "A"))


# -- sound graphoid-style implications, tested non-vacuously ------------------------


def test_symmetry_on_a_factored_table(rng):
    t = helpers.planted_factor_table(rng, 3, [(0, 1), (1, 2)])
    # I(A,B|C) in partition form: ratio of m depends only on m and k axes
    assert table_independent(t, m=[0], k=[1]) == table_independent(t, m=[2], k=[1])


def test_decomposition_on_a_factored_table(rng):
    # A independent of {B, D} given C implies A independent of B given C, D
    t = helpers.planted_factor_table(rng, 4, [(0, 1), (1, 2, 3)])
    assert table_independent(t, m=[0], k=[1])          # premise: vs {2, 3}
    assert table_independent(t, m=[0], k=[1, 3])       # conclusion: vs {2}
    assert table_independent(t, m=[0], k=[1, 2])       # conclusion: vs {3}


def test_intersection_on_a_factored_table(rng):
    # both I(A,B|C+D) and I(A,D|C+B) hold, so I(A,{B,D}|C) must too
    t = helpers.planted_factor_table(rng, 4, [(0, 1), (1, 2), (1, 3)])
    assert table_independent(t, m=[0], k=[1, 3])
    assert table_independent(t, m=[0], k=[1, 2])
    assert table_independent(t, m=[0], k=[1])


def test_transitivity_style_inference_fails_on_tables(rng):
    # A chain factorisation satisfies I(A,B|V) while neither I(A,V|B-side)
    # nor I(V,B|A-side) holds, so separating chains cannot be inferred from
    # pairwise table tests the way they can for graphs.
    t = helpers.planted_factor_table(rng, 3, [(0, 1), (1, 2)])
    premise = table_independent(t, m=[0], k=[1])
    left = table_independent(t, m=[0], k=[2])   # A vs {V} given B
    right = table_independent(t, m=[1], k=[0])  # V vs {B} given A
    assert premise and not left and not right


# -- variable- and event-level EU independence ---------------------------------------


def test_eu_independent_vars_needs_both_layers():
    net = helpers.net_of(
        {"A": ("0", "1"), "B": ("0", "1"), "C": ("0", "1")},
        prob_arcs=[("A", "B"), ("B", "C")],
        util_arcs=[("A", "C")],  # utility connects A and C directly
    )
    assert not eu_independent_vars(net, ["A"], ["C"], ["B"])


def test_eu_independent_vars_on_double_chain():
    arcs = [("A", "B"), ("B", "C")]
    net = helpers.net_of(
        {"A": ("0", "1"), "B": ("0", "1"), "C": ("0", "1")},
        prob_arcs=arcs,
        util_arcs=arcs,
    )
    assert eu_independent_vars(net, ["A"], ["C"], ["B"])


def test_eu_independent_vars_requires_partition(chain_net):
    with pytest.raises(ValidationError, match="partition"):
        eu_independent_vars(chain_net, ["X1"], ["X2"], [])


@pytest.mark.parametrize(
    "a, b, c", [("A", ["B"], ["C"]), (["A"], "B", ["C"]), (["A"], ["B"], "C"), ("AB", ["C"], [])]
)
def test_a_bare_string_of_names_is_rejected(a, b, c):
    # a string would read as the set of its characters: "A" as {A}, "AB" as {A, B}
    net = helpers.net_of({n: ("0", "1") for n in "ABC"}, prob_arcs=[("A", "B")])
    asks = [
        lambda: separates(net.graph, PROB, a, b, c),
        lambda: declared_independent(net, PROB, a, b, c),
        lambda: eu_independent_vars(net, a, b, c),
    ]
    for ask in asks:
        with pytest.raises(ValidationError, match="must be a collection of names, not the string"):
            ask()
    assert not separates(net.graph, PROB, ["A"], ["B"], ["C"])
    assert declared_independent(net, UTIL, ["A", "B"], ["C"], [])


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-9, "1e-9", None, True])
def test_a_tolerance_must_be_a_finite_real_at_least_0(hw2, tolerance):
    # at NaN or inf every comparison with a spread or a gap gives one verdict
    e, f, g = hw2.cylinder({"H": "1"}), hw2.cylinder({"W": "1"}), hw2.true_event()
    asks = [
        lambda: eu_independent_events(hw2, e, f, g, tolerance),
        lambda: table_independent(HW_COUPLED, [0], [], tolerance),
        lambda: derive_perfect_map(HW_COUPLED, HW_COUPLED, tolerance),
    ]
    for ask in asks:
        with pytest.raises(ValidationError, match="tolerance must be a finite real number"):
            ask()


@pytest.mark.parametrize("tolerance", [0, 0.0, np.float64(1e-9), np.float32(0.5), 1e300])
def test_a_finite_real_tolerance_is_taken(hw2, tolerance):
    e, f, g = hw2.cylinder({"H": "1"}), hw2.cylinder({"W": "1"}), hw2.true_event()
    loose = tolerance >= 0.5
    assert eu_independent_events(hw2, e, f, g, tolerance) is loose
    assert table_independent(HW_COUPLED, [0], [], tolerance) is loose
    assert len(derive_perfect_map(HW_COUPLED, HW_COUPLED, tolerance).prob_arcs) == (0 if loose else 1)


def test_event_utilities_multiply_when_factored(hw1):
    e = hw1.cylinder({"H": "1"})
    f = hw1.cylinder({"W": "1"})
    g = hw1.true_event()
    assert eu_independent_events(hw1, e, f, g)


def test_event_utilities_do_not_multiply_when_coupled(hw2):
    e = hw2.cylinder({"H": "1"})
    f = hw2.cylinder({"W": "1"})
    g = hw2.true_event()
    # u(E and F | True) is 1.6 while the product of the parts is 1.68
    assert not eu_independent_events(hw2, e, f, g)


def test_event_independence_is_trivial_on_the_conditioning_event(hw2):
    e = hw2.cylinder({"H": "1"})
    g = hw2.cylinder({"H": "1"})
    # E inside G: u(E|G) = 1 and both sides collapse to u(F|G)
    f = hw2.cylinder({"W": "1"})
    assert eu_independent_events(hw2, e & f, e, g)


def test_event_independence_rejects_empty_intersections(hw2):
    e = hw2.cylinder({"H": "1"})
    f = hw2.cylinder({"H": "0"})
    g = hw2.true_event()
    with pytest.raises(EmptyEventError):
        eu_independent_events(hw2, e, f, g)


# -- the cylinder route of eu_independent_events -------------------------------


def _as_state_set(event):
    """The same event held as explicit states, which takes the state-set branch."""
    return Event(event.space, states=event.states())


def _cylinder_on(rng, net, axes):
    """The cylinder fixing each of ``axes`` at a random value."""
    space = net.space
    return net.cylinder({space.names[a]: space.specs[a].domain[rng.integers(space.shape[a])]
                         for a in axes})


def _random_triples(rng, net):
    """Three cylinder triples: E and F on two blocks with G fixing the rest
    (G is the true event when the rest is empty), a full assignment E with
    G the true event, and three random sub-assignments."""
    n = len(net.space)
    order = [int(a) for a in rng.permutation(n)]
    na = int(rng.integers(1, n - 1))
    nb = int(rng.integers(1, n - na))
    block_a, block_b, block_c = order[:na], order[na:na + nb], order[na + nb:]

    def some(axes):
        return [a for a in axes if rng.random() < 0.6]

    def subset():
        return [a for a in range(n) if rng.random() < 0.4]

    return [
        (_cylinder_on(rng, net, some(block_a)), _cylinder_on(rng, net, some(block_b)),
         _cylinder_on(rng, net, block_c)),
        (_cylinder_on(rng, net, range(n)), _cylinder_on(rng, net, subset()), net.true_event()),
        tuple(_cylinder_on(rng, net, subset()) for _ in range(3)),
    ]


def _meet(*maps):
    out = {}
    for fixed in maps:
        for ax, v in fixed.items():
            if out.setdefault(ax, v) != v:
                return None
    return out


def test_cylinder_route_matches_the_oracle(monkeypatch):
    rng = np.random.default_rng(2026_10)
    recorded = []
    real = independence._cylinder_sums

    def recording(table, regions):
        out = real(table, regions)
        recorded.extend((dict(fixed), sums) for fixed, sums in zip(regions, out))
        return out

    monkeypatch.setattr(independence, "_cylinder_sums", recording)
    counts = {True: 0, False: 0, "empty": 0, "near": 0}
    for _ in range(200):
        net = helpers.random_network(
            rng, n_vars=int(rng.integers(3, 7)), domain_sizes=(2, 3), random_references=True
        )
        tables = (helpers.oracle_ratio_table(net, PROB), helpers.oracle_ratio_table(net, UTIL))
        for e, f, g in _random_triples(rng, net):
            regions = [g.fixed, _meet(e.fixed, g.fixed), _meet(f.fixed, g.fixed),
                       _meet(e.fixed, f.fixed, g.fixed)]
            recorded.clear()
            if None in regions:
                counts["empty"] += 1
                with pytest.raises(EmptyEventError) as cylinder_error:
                    eu_independent_events(net, e, f, g)
                with pytest.raises(EmptyEventError) as set_error:
                    eu_independent_events(net, *map(_as_state_set, (e, f, g)))
                assert str(cylinder_error.value) == str(set_error.value)
                assert not recorded
                continue
            verdict = eu_independent_events(net, e, f, g)
            assert [fixed for fixed, _ in recorded] == regions
            oracle = [
                helpers.oracle_event_sums(
                    net, lambda v, fx=fixed: all(v[a] == x for a, x in fx.items()), tables
                )
                for fixed in regions
            ]
            for (_, got), want in zip(recorded, oracle):
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            (sp_g, su_g), *meets = oracle
            u_e, u_f, u_ef = ((su / sp) / (su_g / sp_g) for sp, su in meets)
            gap = abs(u_ef - u_e * u_f) / abs(u_e * u_f)
            if abs(gap - 1e-9) <= 1e-6 * 1e-9:
                counts["near"] += 1
                continue
            assert verdict == (gap <= 1e-9)
            assert eu_independent_events(net, *map(_as_state_set, (e, f, g))) == verdict
            counts[verdict] += 1
    assert counts[True] > 50 and counts[False] > 50 and counts["empty"] > 20, counts


@pytest.mark.parametrize("form", [lambda ev: ev, _as_state_set], ids=["cylinder", "state set"])
@pytest.mark.parametrize(
    "name, e, f, g",
    [
        ("E", {"X1": "1"}, {"X3": "1"}, {"X1": "0"}),
        ("F", {"X1": "1"}, {"X2": "0"}, {"X2": "1"}),
        ("E and F", {"X1": "1"}, {"X1": "0"}, {}),
    ],
)
def test_eu_events_names_the_empty_meet(chain_net, form, name, e, f, g):
    events = [form(chain_net.cylinder(partial)) for partial in (e, f, g)]
    with pytest.raises(EmptyEventError, match=rf"\({re.escape(name)} meets G nowhere\)"):
        eu_independent_events(chain_net, *events)


@pytest.mark.parametrize("foreign", [(0,), (1,), (2,), (0, 1, 2)])
def test_eu_events_rejects_another_networks_events(chain_net, hw1, foreign):
    events = [chain_net.cylinder({"X1": "1"}), chain_net.cylinder({"X3": "1"}),
              chain_net.true_event()]
    for k in foreign:
        events[k] = hw1.true_event()
    with pytest.raises(ValidationError):
        eu_independent_events(chain_net, *events)


def test_eu_events_holds_the_environment_cap(chain_net, monkeypatch):
    e, f, g = chain_net.cylinder({"X1": "1"}), chain_net.cylinder({"X3": "1"}), chain_net.true_event()
    monkeypatch.setenv(STATE_CAP_ENV, "4")
    with pytest.raises(StateCapError, match="exceeds the cap of 4"):
        eu_independent_events(chain_net, e, f, g)


def test_eu_events_reports_sums_out_of_range():
    net = helpers.extreme_ratio_net()
    with pytest.raises(NumericRangeError):
        eu_independent_events(net, net.cylinder({"A": "1"}), net.cylinder({"C": "1"}),
                              net.true_event())


def test_eu_events_answers_on_an_equal_space(hw2):
    doc = serialize_network(hw2)
    net, twin = parse_network(doc), parse_network(doc)
    assert twin.space == net.space and twin.space is not net.space
    e, f, g = twin.cylinder({"H": "1"}), twin.cylinder({"W": "1"}), twin.true_event()
    assert eu_independent_events(net, e, f, g) is eu_independent_events(twin, e, f, g) is False
