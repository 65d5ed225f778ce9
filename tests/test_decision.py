"""Decision optimisation, decomposition, relevance classification, and the
sealed-bid auction construction."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import helpers
from eunet import (
    PROB,
    UTIL,
    DecisionProblem,
    EmptyEventError,
    EunError,
    Event,
    NumericRangeError,
    StateCapError,
    ValidationError,
    auction_best_response,
    build_network,
    build_vickrey_auction,
    classify_relevance,
    conditional_event_utility,
    decompose_decisions,
    optimal_decision,
    reconstruct_joint,
)
from eunet.decision import TIE_TOLERANCE


# -- DecisionProblem validation ------------------------------------------------


def test_decision_vars_are_reordered_to_network_order(chain_net):
    prob = DecisionProblem(chain_net, ("X3", "X1"), chain_net.true_event())
    assert prob.decision_vars == ("X1", "X3")


def test_duplicate_decision_vars_rejected(chain_net):
    with pytest.raises(ValidationError, match="duplicate"):
        DecisionProblem(chain_net, ("X1", "X1"), chain_net.true_event())


def test_empty_decision_set_rejected(chain_net):
    with pytest.raises(ValidationError, match="at least one"):
        DecisionProblem(chain_net, (), chain_net.true_event())


def test_unknown_decision_var_rejected(chain_net):
    with pytest.raises(ValidationError, match="unknown"):
        DecisionProblem(chain_net, ("Y9",), chain_net.true_event())


def test_evidence_must_live_in_same_space(chain_net, hw1):
    with pytest.raises(ValidationError, match="different variable system"):
        DecisionProblem(chain_net, ("X1",), hw1.true_event())


def test_empty_evidence_rejected(chain_net):
    empty = chain_net.cylinder({"X1": "1"}) & chain_net.cylinder({"X1": "0"})
    with pytest.raises(EmptyEventError):
        DecisionProblem(chain_net, ("X2",), empty)


def test_evidence_may_not_fix_a_decision_variable(chain_net):
    with pytest.raises(ValidationError, match="fixes decision variable"):
        DecisionProblem(chain_net, ("X1",), chain_net.cylinder({"X1": "1"}))


def test_a_bare_string_of_names_is_rejected():
    # "AB" would otherwise read as the two names A and B, character by character
    net = helpers.net_of({n: ("0", "1") for n in "ABC"})
    for names in ("AB", "A"):
        with pytest.raises(ValidationError, match="not the string"):
            DecisionProblem(net, names, net.true_event())
    problem = DecisionProblem(net, ("A",), net.true_event())
    with pytest.raises(ValidationError, match="not the string"):
        decompose_decisions(problem, conditioning="BC")
    assert decompose_decisions(problem, conditioning=("B", "C")) == (("A",),)


# -- optimal_decision ---------------------------------------------------------


def test_single_variable_optimum(hw1):
    prob = DecisionProblem(hw1, ("H",), hw1.true_event())
    result = optimal_decision(prob)
    assert result.argmax == ({"H": "1"},)
    assert result.eu == pytest.approx(1.5, rel=1e-12)


def test_optimum_under_evidence(hw2):
    # coupled tables: fixing W changes the best H
    prob = DecisionProblem(hw2, ("H",), hw2.cylinder({"W": "1"}))
    result = optimal_decision(prob)
    want = max(
        conditional_event_utility(
            hw2, hw2.cylinder({"H": h}), hw2.cylinder({"W": "1"})
        )
        for h in ("0", "1")
    )
    assert result.eu == pytest.approx(want, rel=1e-12)


def test_all_constant_network_ties_everything(rng):
    net = helpers.net_of({"A": ("0", "1"), "B": ("0", "1")})
    prob = DecisionProblem(net, ("A", "B"), net.true_event())
    result = optimal_decision(prob)
    assert len(result.argmax) == 4
    assert result.eu == pytest.approx(1.0, rel=1e-12)


def test_argmax_order_is_lexicographic_in_domain_indexes():
    net = helpers.net_of({"A": ("0", "1", "2")})
    prob = DecisionProblem(net, ("A",), net.true_event())
    result = optimal_decision(prob)
    assert result.argmax == ({"A": "0"}, {"A": "1"}, {"A": "2"})


def test_infeasible_combinations_are_skipped():
    net = helpers.net_of(
        {"A": ("0", "1"), "B": ("0", "1")},
        w={"A": {("1",): 2.0}, "B": {("1",): 3.0}},
    )
    # the evidence rules out the jointly best combination (A=1, B=1)
    # without pinning either variable on its own
    keep = Event.from_assignments(
        net.space,
        [{"A": "0", "B": "0"}, {"A": "0", "B": "1"}, {"A": "1", "B": "0"}],
    )
    prob = DecisionProblem(net, ("A", "B"), keep)
    result = optimal_decision(prob)
    assert result.argmax == ({"A": "0", "B": "1"},)
    # u ratios over the evidence average to 2, so the winner's 3 conditions to 1.5
    assert result.eu == pytest.approx(1.5, rel=1e-12)


def test_no_feasible_decision_raises():
    net = helpers.net_of({"A": ("0", "1"), "B": ("0", "1")})
    evidence = Event(net.space, states=frozenset())
    with pytest.raises(EmptyEventError):
        DecisionProblem(net, ("A",), evidence)


def test_argmax_invariant_under_utility_rescaling(rng):
    # utilities enter the model only as ratios against the reference state,
    # so a global rescale of the raw utility table derives the very same
    # potentials, and with them the very same optimum
    from eunet import EUNGraph, Space, VariableSpec, derive_restricted_potentials

    names = ("X1", "X2", "X3")
    specs = [VariableSpec(n, ("0", "1")) for n in names]
    space = Space(specs)
    pairs = list(itertools.combinations(names, 2))
    complete = EUNGraph.of(prob_arcs=pairs, util_arcs=pairs, nodes=names)
    p = helpers.random_positive_table(rng, space.shape)
    u = helpers.random_positive_table(rng, space.shape)

    q_pots = derive_restricted_potentials(p, space, complete, PROB)
    w_base = derive_restricted_potentials(u, space, complete, UTIL)
    w_scaled = derive_restricted_potentials(8.0 * u, space, complete, UTIL)
    for a, b in zip(w_base, w_scaled):
        assert np.array_equal(a.table, b.table)

    net = build_network(specs, names, complete, [*q_pots, *w_base])
    rescaled = build_network(specs, names, complete, [*q_pots, *w_scaled])
    base = optimal_decision(DecisionProblem(net, ("X2",), net.true_event()))
    again = optimal_decision(
        DecisionProblem(rescaled, ("X2",), rescaled.true_event())
    )
    assert again.argmax == base.argmax
    assert again.eu == base.eu


# -- decomposition ------------------------------------------------------------


def test_independent_decisions_split_into_singletons(hw1):
    prob = DecisionProblem(hw1, ("H", "W"), hw1.true_event())
    assert decompose_decisions(prob) == (("H",), ("W",))


def test_coupled_decisions_stay_together(hw2):
    prob = DecisionProblem(hw2, ("H", "W"), hw2.true_event())
    assert decompose_decisions(prob) == (("H", "W"),)


def test_chain_coupling_is_transitive_through_components():
    net = helpers.net_of(
        {"A": ("0", "1"), "B": ("0", "1"), "C": ("0", "1")},
        prob_arcs=[("A", "B"), ("B", "C")],
        q={
            "B": {("1", "0"): 2.0, ("1", "1"): 3.0},
            "C": {("1", "0"): 2.0, ("1", "1"): 5.0},
        },
    )
    prob = DecisionProblem(net, ("A", "C"), net.true_event())
    # B is unobserved, so the A - B - C path couples the two decisions
    assert decompose_decisions(prob) == (("A", "C"),)
    # conditioning on B cuts the path
    assert decompose_decisions(prob, conditioning=("B",)) == (("A",), ("C",))


def test_blockwise_optimisation_agrees_with_joint(rng):
    for _ in range(5):
        net = helpers.random_network(rng, n_vars=5, arc_prob=0.3, same_graphs=True)
        prob = DecisionProblem(net, ("X1", "X4"), net.true_event())
        blocks = decompose_decisions(prob)
        joint = optimal_decision(prob)
        if len(blocks) == 1:
            continue
        combined: dict[str, str] = {}
        for block in blocks:
            sub = optimal_decision(DecisionProblem(net, block, net.true_event()))
            combined.update(sub.argmax[0])
        got = conditional_event_utility(
            net, net.cylinder(combined), net.true_event()
        )
        assert got == pytest.approx(joint.eu, rel=1e-9)


def test_decomposition_blocks_are_sorted_by_network_order():
    net = helpers.net_of(
        {"A": ("0", "1"), "B": ("0", "1"), "C": ("0", "1"), "D": ("0", "1")},
        prob_arcs=[("C", "D")],
        q={"D": {("1", "0"): 2.0, ("1", "1"): 3.0}},
    )
    prob = DecisionProblem(net, ("D", "C", "A"), net.true_event())
    assert decompose_decisions(prob) == (("A",), ("C", "D"))


# -- relevance classification ---------------------------------------------------


def relevance_net():
    """P matters for utility, S only reweights outcomes, N touches nothing."""
    return helpers.net_of(
        {"P": ("0", "1"), "S": ("0", "1"), "N": ("0", "1"), "T": ("0", "1")},
        prob_arcs=[("S", "T")],
        util_arcs=[("P", "T")],
        q={"T": {("1", "0"): 3.0, ("1", "1"): 0.25}},
        w={"T": {("1", "0"): 2.0, ("1", "1"): 4.0}},
    )


def test_relevant_variable():
    net = relevance_net()
    assert classify_relevance(net, ("P",)) == "relevant"


def test_payoff_irrelevant_variable():
    net = relevance_net()
    # S carries no utility weight anywhere but still shapes the distribution
    assert classify_relevance(net, ("S",)) == "payoff-irrelevant"


def test_strategically_irrelevant_variable():
    net = relevance_net()
    assert classify_relevance(net, ("N",)) == "strategically-irrelevant"


def test_strategic_irrelevance_beats_payoff_irrelevance():
    # a variable disconnected from everything is reported by the strongest label
    net = helpers.net_of({"A": ("0", "1"), "B": ("0", "1")})
    assert classify_relevance(net, ("A",)) == "strategically-irrelevant"


def test_conditioning_can_sever_strategic_influence():
    # A carries no utility weight but steers T's distribution through M;
    # once M is observed the remaining influence disappears
    net = helpers.net_of(
        {"A": ("0", "1"), "M": ("0", "1"), "T": ("0", "1")},
        prob_arcs=[("A", "M"), ("M", "T")],
        q={
            "M": {("1", "0"): 2.0, ("1", "1"): 3.0},
            "T": {("1", "0"): 2.0, ("1", "1"): 5.0},
        },
        w={"T": {("1",): 2.0}},
    )
    assert classify_relevance(net, ("A",)) == "payoff-irrelevant"
    assert classify_relevance(net, ("A",), conditioning=("M",)) == (
        "strategically-irrelevant"
    )


def test_classification_validates_inputs(hw1):
    with pytest.raises(ValidationError, match="unknown"):
        classify_relevance(hw1, ("Z",))
    with pytest.raises(ValidationError, match="disjoint|overlap"):
        classify_relevance(hw1, ("H",), conditioning=("H",))


# -- auction construction -------------------------------------------------------


@pytest.fixture(scope="module")
def auction_k2():
    return build_vickrey_auction(2, epsilon=1e-9)


def test_auction_rejects_bad_parameters():
    with pytest.raises(ValidationError, match="at least 2"):
        build_vickrey_auction(1)
    for resolution in (3.0, True, "3", None):
        with pytest.raises(ValidationError, match="must be an integer"):
            build_vickrey_auction(resolution)
    assert build_vickrey_auction(np.int64(2)).resolution == 2
    with pytest.raises(ValidationError, match="epsilon"):
        build_vickrey_auction(2, epsilon=0.0)
    with pytest.raises(ValidationError, match="epsilon"):
        build_vickrey_auction(2, epsilon=1e-3)


def test_auction_query_respects_state_cap(monkeypatch):
    # K = 4 has 5 * 5 * 5 * 5 * 10 = 6,250 states.  The build reads its
    # potentials off the factors and allocates nothing of that size, so it
    # answers; the query that enumerates the states checks the cap.
    monkeypatch.setenv("EUN_STATE_CAP", "1000")
    model = build_vickrey_auction(4)
    with pytest.raises(StateCapError, match="6250 states exceeds the cap of 1000"):
        auction_best_response(model, 0.5)


def test_auction_grid_and_ordering(auction_k2):
    assert auction_k2.grid == ("0", "0.5", "1")
    assert auction_k2.network.ordering == ("V", "B", "S", "C", "A")


def test_auction_grid_label_lookup(auction_k2):
    assert auction_k2.grid_label(0.5) == "0.5"
    assert auction_k2.grid_label("0.5") == "0.5"
    assert auction_k2.grid_label(1) == "1"
    with pytest.raises(ValidationError, match="off-grid"):
        auction_k2.grid_label(0.3)
    with pytest.raises(ValidationError, match="off-grid"):
        auction_k2.grid_label("0.3")


def test_auction_network_is_consistent(auction_k2):
    assert auction_k2.network.imap_report().ok


def test_auction_win_utility_entries(auction_k2):
    net = auction_k2.network
    pot = net.potential(UTIL, "A")
    a_spec = net.space.spec("A")
    v_spec = net.space.spec("V")
    # winning at price 0.5 with value 1: ratio (1+1)/(1+0.5) = 4/3
    row = a_spec.domain.index("1:0.5")
    col = v_spec.domain.index("1")
    assert pot.table[row, col] == (1.0 + 1.0) / (1.0 + 0.5)
    # winning at one's own value is exactly utility-neutral
    for k, label in enumerate(auction_k2.grid):
        assert pot.table[a_spec.domain.index(f"1:{label}"), k] == 1.0
    # losing rows carry no utility weight at all
    for m_label in auction_k2.grid:
        lose = a_spec.domain.index(f"2:{m_label}")
        assert np.all(pot.table[lose, :] == 1.0)


def test_auction_allocation_distribution(auction_k2):
    # p(a | b=0.5, c=0) puts 1-(rows-1)*eps on the win-at-price-0 outcome
    net = auction_k2.network
    joint = reconstruct_joint(net)
    axes = {name: i for i, name in enumerate(net.ordering)}
    b_idx = net.space.spec("B").domain.index("0.5")
    c_idx = net.space.spec("C").domain.index("0")
    p = joint.p.sum(axis=(axes["V"], axes["S"]))  # now indexed (B, C, A)
    row = p[b_idx, c_idx, :]
    row = row / row.sum()
    a_spec = net.space.spec("A")
    win = a_spec.domain.index("1:0")
    eps = auction_k2.epsilon
    rows = len(a_spec.domain)
    assert row[win] == pytest.approx(1.0 - (rows - 1) * eps, rel=1e-9)
    for j in range(rows):
        if j != win:
            assert row[j] == pytest.approx(eps, rel=1e-6)


def test_auction_bidder_wins_ties(auction_k2):
    # equal bid and opposing cost resolve in the bidder's favour
    net = auction_k2.network
    joint = reconstruct_joint(net)
    axes = {name: i for i, name in enumerate(net.ordering)}
    idx = net.space.spec("B").domain.index("0.5")
    c_idx = net.space.spec("C").domain.index("0.5")
    p = joint.p.sum(axis=(axes["V"], axes["S"]))
    row = p[idx, c_idx, :]
    win = net.space.spec("A").domain.index("1:0.5")
    assert row.argmax() == win


def test_auction_truthful_bid_value_half(auction_k2):
    argmax = auction_best_response(auction_k2, 0.5)
    assert argmax == ("0", "0.5")
    assert "0.5" in argmax


def test_auction_truthful_bid_extremes(auction_k2):
    assert auction_best_response(auction_k2, 0.0) == ("0",)
    assert auction_best_response(auction_k2, 1.0) == ("0.5", "1")


def test_auction_eu_ratio_at_value_half(auction_k2):
    # conditional EU of bids 0 and 1 at v=0.5, computed against the
    # tie-breaking structure of the smoothed allocation table
    prob = auction_k2.decision_problem(0.5)
    net = auction_k2.network
    eu = {
        b: conditional_event_utility(
            net, net.cylinder({"B": b}), prob.evidence
        )
        for b in auction_k2.grid
    }
    assert eu["0"] / eu["1"] == pytest.approx(3.5 / 3.25, rel=1e-6)
    assert eu["0"] == pytest.approx(eu["0.5"], rel=1e-6)


def test_auction_argmax_stable_across_epsilon():
    coarse = build_vickrey_auction(3, epsilon=1e-6)
    fine = build_vickrey_auction(3, epsilon=1e-9)
    for v in coarse.grid:
        assert auction_best_response(coarse, v) == auction_best_response(fine, v)


def test_auction_custom_opponent_table():
    g = 4
    rng = np.random.default_rng(7)
    table = rng.uniform(0.05, 1.0, size=(g, g))
    table /= table.sum(axis=1, keepdims=True)
    model = build_vickrey_auction(3, epsilon=1e-9, opponent_bid_table=table)
    for v in model.grid:
        assert v in auction_best_response(model, v)


def test_auction_opponent_table_validation():
    with pytest.raises(ValidationError, match="shape"):
        build_vickrey_auction(2, opponent_bid_table=np.full((2, 2), 0.5))
    bad_rows = np.full((3, 3), 0.5)
    with pytest.raises(ValidationError, match="sum"):
        build_vickrey_auction(2, opponent_bid_table=bad_rows)
    negative = np.full((3, 3), 1.0 / 3.0)
    negative[0, 0] = -1.0 / 3.0
    negative[0, 1] = 1.0
    with pytest.raises(ValidationError, match="positive"):
        build_vickrey_auction(2, opponent_bid_table=negative)


def auction_joint_factors(resolution, epsilon, opponent):
    """The auction's joint as (axes, table) factors over (V, B, S, C, A),
    written out from the model's definition: uniform V, B and S, the
    opponent's bid table on (S, C) and the smoothed allocation on (B, C, A)."""
    g = resolution + 1
    r = 2 * g
    alloc = np.full((g, g, r), epsilon)
    for b, c in itertools.product(range(g), repeat=2):
        alloc[b, c, g + c if b >= c else b] = 1.0 - (r - 1) * epsilon
    uniform = [((axis,), np.full(g, 1.0 / g)) for axis in (0, 1, 2)]
    return [*uniform, ((2, 3), opponent), ((1, 3, 4), alloc)]


@pytest.mark.parametrize("resolution", [2, 3, 4, 5])
def test_auction_potentials_match_the_factor_oracle(resolution):
    g = resolution + 1
    rng = np.random.default_rng(100 + resolution)
    opponent = rng.uniform(0.2, 1.0, (g, g))
    opponent /= opponent.sum(axis=1, keepdims=True)
    net = build_vickrey_auction(resolution, 1e-6, opponent).network
    want = helpers.oracle_factor_potentials(
        net.space,
        auction_joint_factors(resolution, 1e-6, opponent),
        lambda name: net.below_neighbors(PROB, name),
    )
    for name in net.ordering:
        got = net.potential(PROB, name).table
        assert np.allclose(got, want[name], rtol=1e-12, atol=0.0), name


def test_auction_build_above_the_cap_holds_no_joint(monkeypatch):
    # K = 20 has 21**4 * 42 = 8,168,202 states; its joint would take 62 MiB.
    monkeypatch.delenv("EUN_STATE_CAP", raising=False)
    tracemalloc.start()
    try:
        model = build_vickrey_auction(20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.network.state_count == 8_168_202
    assert peak < 4 * 2**20
    with pytest.raises(StateCapError, match="8168202 states exceeds the cap of 1000000"):
        auction_best_response(model, 0.5)


def test_auction_decision_problem_pins_the_value(auction_k2):
    prob = auction_k2.decision_problem(1.0)
    assert prob.decision_vars == ("B",)
    assert prob.evidence.fixed_variables() == {"V": "1"}


def test_tie_tolerance_is_strict_enough():
    assert TIE_TOLERANCE == 1e-9


# -- one-pass decision tables ---------------------------------------------------


def oracle_decision(net, dvars, member, tables=None):
    """Tie set and best EU from brute-force sums, one oracle query per candidate.

    ``tables`` is as for ``helpers.oracle_event_sums``.
    """
    space = net.space
    axes = [space.index(n) for n in dvars]
    tables = tables or (helpers.oracle_ratio_table(net, PROB), helpers.oracle_ratio_table(net, UTIL))
    sp_e, su_e = helpers.oracle_event_sums(net, member, tables)
    scored = []
    for combo in itertools.product(*(range(space.shape[a]) for a in axes)):
        def meets(values, combo=combo):
            return member(values) and all(values[a] == v for a, v in zip(axes, combo))

        sp, su = helpers.oracle_event_sums(net, meets, tables)
        if sp > 0.0:
            scored.append((combo, (su / sp) / (su_e / sp_e)))
    best = max(eu for _, eu in scored)
    ties = tuple(
        {n: space.specs[a].domain[v] for n, a, v in zip(dvars, axes, combo)}
        for combo, eu in scored
        if eu >= best * (1.0 - TIE_TOLERANCE)
    )
    return ties, best


def random_evidence(rng, net, kind, rest):
    if kind == "sure":
        return net.true_event()
    if kind == "cylinder":
        picked = [n for n in rest if rng.random() < 0.5] or rest[:1]
        return net.cylinder(
            {n: str(int(rng.integers(net.space.spec(n).size))) for n in picked}
        )
    if kind == "union":
        return net.cylinder({rest[0]: "1"}) | net.cylinder({rest[-1]: "0"})
    states = sorted(net.true_event().states())
    kept = [s for s in states if rng.random() < 0.35] or states[:2]
    return Event.from_assignments(
        net.space,
        [dict(zip(net.space.names, (str(v) for v in s))) for s in kept],
    )


@pytest.mark.parametrize("kind", ["cylinder", "assignments", "union", "sure"])
@pytest.mark.parametrize("seed", range(4))
def test_one_pass_decision_matches_oracle(kind, seed):
    rng = np.random.default_rng(1000 + seed)
    n_dec = 1 + seed % 3
    while True:
        net = helpers.random_network(rng, n_vars=5, domain_sizes=(2, 3))
        dvars = tuple(net.space.names[i] for i in sorted(rng.permutation(5)[:n_dec]))
        rest = [n for n in net.space.names if n not in dvars]
        evidence = random_evidence(rng, net, kind, rest)
        try:
            problem = DecisionProblem(net, dvars, evidence)
        except ValidationError:  # the sampled state set pinned a decision
            continue
        break
    states = evidence.states()
    want_ties, want_eu = oracle_decision(net, dvars, lambda v: tuple(v) in states)
    got = optimal_decision(problem)
    assert got.argmax == want_ties
    assert got.eu == pytest.approx(want_eu, rel=1e-12)


def test_exact_tie_reports_both_members():
    # A=1 and A=2 carry identical tables in both layers
    net = helpers.net_of(
        {"A": ("0", "1", "2"), "B": ("0", "1")},
        prob_arcs=[("A", "B")],
        util_arcs=[("A", "B")],
        q={
            "A": {("1",): 2.0, ("2",): 2.0},
            "B": {("1", "0"): 0.5, ("1", "1"): 3.0, ("1", "2"): 3.0},
        },
        w={
            "A": {("1",): 1.5, ("2",): 1.5},
            "B": {("1", "0"): 2.0, ("1", "1"): 1.25, ("1", "2"): 1.25},
        },
    )
    pr = helpers.oracle_ratio_table(net, PROB)
    ur = helpers.oracle_ratio_table(net, UTIL)

    def exact_sums(a_values):
        sp = sum(Fraction(pr[a, b]) for a in a_values for b in range(2))
        su = sum(Fraction(pr[a, b]) * Fraction(ur[a, b]) for a in a_values for b in range(2))
        return sp, su

    sp_t, su_t = exact_sums(range(3))
    exact = [(su / sp) / (su_t / sp_t) for sp, su in map(exact_sums, ([0], [1], [2]))]
    assert exact[1] == exact[2] > exact[0]

    result = optimal_decision(DecisionProblem(net, ("A",), net.true_event()))
    assert result.argmax == ({"A": "1"}, {"A": "2"})
    assert abs(Fraction(result.eu) - exact[1]) <= Fraction(1, 10**12) * exact[1]


def test_combinations_missing_the_evidence_are_never_reported():
    net = helpers.net_of(
        {"X1": ("0", "1"), "X2": ("0", "1", "2"), "X3": ("0", "1")},
        q={"X3": {("1",): 3.0}},
        w={"X1": {("1",): 3.0}, "X2": {("1",): 0.5, ("2",): 4.0}, "X3": {("1",): 2.0}},
    )
    # (X1=1, X2=2) would win outright and (X1=0, X2=0) is also left out;
    # neither decision variable is pinned by the remaining states
    kept = [
        s
        for s in itertools.product(range(2), range(3), range(2))
        if s[:2] not in ((1, 2), (0, 0)) and s != (0, 1, 1)
    ]
    evidence = Event.from_assignments(
        net.space, [dict(zip(("X1", "X2", "X3"), map(str, s))) for s in kept]
    )
    result = optimal_decision(DecisionProblem(net, ("X1", "X2"), evidence))
    want_ties, want_eu = oracle_decision(net, ("X1", "X2"), lambda v: tuple(v) in kept)
    assert result.argmax == want_ties == ({"X1": "0", "X2": "2"},)
    assert result.eu == pytest.approx(want_eu, rel=1e-12)


def test_underflowed_candidate_is_an_error_not_infeasible():
    # state (A=1, B=1) has probability ratio 1e-600, which underflows to 0
    net = helpers.net_of(
        {"A": ("0", "1"), "B": ("0", "1")},
        q={"A": {("1",): 1e-300}, "B": {("1",): 1e-300}},
    )
    evidence = Event.from_assignments(
        net.space, [{"A": "0", "B": "0"}, {"A": "1", "B": "1"}]
    )
    with pytest.raises(NumericRangeError, match="underflows"):
        optimal_decision(DecisionProblem(net, ("A",), evidence))


def test_overflowing_decision_raises_numeric_range_error():
    net = helpers.extreme_ratio_net()
    with pytest.raises(NumericRangeError):
        optimal_decision(DecisionProblem(net, ("A",), net.true_event()))


# The float-range document of the CI workflow: q_A(1) = 1e-200 and
# w_A(1) = w_B(1 | A=1) = 1e200, so the best EU of B given A=1 is exactly 2.
FLOAT_RANGE_DOC = (
    '{"format": "eun/1", "variables": [{"name": "A", "domain": ["0", "1"], "reference": "0"}, '
    '{"name": "B", "domain": ["0", "1"], "reference": "0"}, '
    '{"name": "C", "domain": ["0", "1"], "reference": "0"}], "ordering": ["A", "B", "C"], '
    '"prob_arcs": [["A", "B"]], "util_arcs": [["A", "B"]], '
    '"q": {"A": [{"value": "1", "given": {}, "ratio": 1e-200}]}, '
    '"w": {"A": [{"value": "1", "given": {}, "ratio": 1e+200}], '
    '"B": [{"value": "1", "given": {"A": "0"}, "ratio": 1.0}, '
    '{"value": "1", "given": {"A": "1"}, "ratio": 1e+200}]}}'
)


def float_range_decisions():
    """Decisions on the edge of float range, each as (argmax, EU) or as the
    type and message of the error it raises."""
    from eunet import parse_network

    problems = []
    net = helpers.quotient_range_net()
    problems += [
        DecisionProblem(net, ("B",), net.cylinder({"A": "1"})),
        DecisionProblem(net, ("A",), net.cylinder({"C": "0"})),
    ]
    # every score is taken apart: p(D1=1, D2=1 | A=1) is about 1e-400
    net = helpers.like_sums_range_net()
    problems += [
        DecisionProblem(net, ("D1", "D2"), net.cylinder(given))
        for given in ({"A": "1"}, {"A": "1", "C": "0"})
    ]
    doc = parse_network(FLOAT_RANGE_DOC)
    problems.append(DecisionProblem(doc, ("B",), doc.cylinder({"A": "1"})))
    # S_u(A=1) / S_u(True), about 2e-400, underflows where S_p(True) / S_p(A=1) is 2
    net = helpers.net_of(
        {"A": ("0", "1"), "C": ("0", "1")},
        util_arcs=[("A", "C")],
        w={"A": {("1",): 1e-200}, "C": {("1", "0"): 1e200, ("1", "1"): 1.0}},
    )
    problems.append(DecisionProblem(net, ("A",), net.true_event()))
    # S_p(True) / S_p(A=1), about 5e399, overflows where u(A=1) is about 1e200
    net = helpers.net_of(
        {"A": ("0", "1"), "B": ("0", "1")},
        prob_arcs=[("A", "B")],
        q={"A": {("1",): 1e-200}, "B": {("1", "0"): 1e200, ("1", "1"): 1.0}},
        w={"A": {("1",): 1e200}},
    )
    problems.append(DecisionProblem(net, ("A",), net.true_event()))
    model = build_vickrey_auction(12, 1e-9)
    problems += [model.decision_problem(v) for v in model.grid]
    net = helpers.extreme_ratio_net()
    problems.append(DecisionProblem(net, ("A",), net.true_event()))
    out = []
    for problem in problems:
        try:
            out.append(optimal_decision(problem))
        except EunError as exc:
            out.append((type(exc), str(exc)))
    return out


def test_decisions_do_not_depend_on_numpy_error_state():
    import warnings

    want = float_range_decisions()
    assert want[0] == (({"B": "1"},), 2.0)
    assert want[4] == (({"B": "1"},), 2.0)  # the CI document
    assert want[5] == (({"A": "0"},), 2.0)
    assert want[6].argmax == ({"A": "1"},)
    assert want[6].eu == pytest.approx(1e200, rel=1e-12)
    assert len(want[2].argmax) == len(want[3].argmax) == 4
    assert want[-1][0] is NumericRangeError
    for state in ("raise", "warn"):
        with np.errstate(all=state), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert float_range_decisions() == want


def test_decision_reduces_the_evidence_once(monkeypatch, rng):
    import eunet.decision

    net = helpers.random_network(rng, n_vars=4, domain_sizes=(3,))
    problem = DecisionProblem(net, ("X1", "X3"), net.cylinder({"X2": "1"}))
    calls = []
    real_sums = eunet.decision._event_sums
    real_and = Event.__and__

    def counting_sums(*args, **kwargs):
        calls.append("sums")
        return real_sums(*args, **kwargs)

    def counting_and(self, other):
        calls.append("and")
        return real_and(self, other)

    monkeypatch.setattr(eunet.decision, "_event_sums", counting_sums)
    monkeypatch.setattr(Event, "__and__", counting_and)
    optimal_decision(problem)
    assert calls == ["sums"]


# -- decision tables, layout by layout -------------------------------------------


def inert_tie_net():
    """A chain over A, C, D, E with B inert, so every value of B ties."""
    return helpers.chain_net(31, {"A": 2, "B": 3, "C": 2, "D": 13, "E": 2}, ["A", "C", "D", "E"])


# (decision variables, evidence); the ordering is A, B, C, D, E
DECISION_LAYOUTS = {
    "kept innermost": (("B", "E"), {"A": "1"}),
    "kept interleaved with summed out": (("B", "D"), {"A": "0"}),
    "kept interleaved, fixed innermost": (("B", "D"), {"E": "1"}),
    "kept outer only": (("A", "B"), {}),
    "kept 13-value axis before a short summed tail": (("B", "D"), {}),
}


@pytest.mark.parametrize("layout", DECISION_LAYOUTS)
def test_tie_sets_match_the_oracle_on_every_layout(layout):
    net = inert_tie_net()
    dvars, evidence = DECISION_LAYOUTS[layout]
    want_ties, want_eu = oracle_decision(net, dvars, helpers.cylinder_member(net, evidence))
    assert len(want_ties) == 3  # one per value of the inert B
    got = optimal_decision(DecisionProblem(net, dvars, net.cylinder(evidence)))
    assert got.argmax == want_ties
    assert got.eu == pytest.approx(want_eu, rel=1e-12)


# -- decisions on clique tables ----------------------------------------------------


def test_clique_routed_decisions_match_the_oracle_on_random_networks():
    rng = np.random.default_rng(41)
    routed = spanning = 0
    for _ in range(200):
        net = helpers.random_network(
            rng,
            n_vars=int(rng.integers(4, 7)),
            domain_sizes=(2, 3),
            arc_prob=float(rng.uniform(0.15, 0.5)),
            random_references=True,
        )
        family = net._cliques()
        # decisions and evidence inside a random clique, or on random axes
        if family != (helpers.whole_scope(net),) and rng.random() < 0.75:
            clique = family[int(rng.integers(len(family)))]
            axes = [int(a) for a in rng.permutation(helpers.axes_of(clique))]
        else:
            axes = [int(a) for a in rng.permutation(len(net.space))]
        n_dec = int(rng.integers(1, min(3, len(axes)) + 1))
        dvars = tuple(net.space.names[a] for a in sorted(axes[:n_dec]))
        fixed = {a: int(rng.integers(net.space.shape[a])) for a in axes[n_dec:n_dec + 2]}
        evidence = Event(net.space, partial=fixed)
        problem = DecisionProblem(net, dvars, evidence)
        d_axes = [net.space.index(n) for n in dvars]
        if not helpers.routed(net, evidence, d_axes):
            spanning += 1
        else:
            routed += 1
        member = helpers.cylinder_member(net, evidence.fixed_variables())
        want_ties, want_eu = oracle_decision(net, dvars, member)
        got = optimal_decision(problem)
        assert got.argmax == want_ties
        assert got.eu == pytest.approx(want_eu, rel=1e-12)
    assert routed >= 100 and spanning >= 30


def auction_enumerated_ties(resolution, epsilon, opponent):
    """Best bids for each value index by enumeration over the auction's
    factors (``auction_joint_factors``) and its win utilities."""
    g = resolution + 1
    factors = auction_joint_factors(resolution, epsilon, opponent)
    (_, opp), (_, alloc) = factors[3], factors[4]
    # u(v, a): winning at price m is worth (1 + v) / (1 + m); losing is worth 1
    util = np.ones((g, 2 * g))
    for v, m in itertools.product(range(g), repeat=2):
        util[v, g + m] = (1.0 + v / resolution) / (1.0 + m / resolution)
    # The uniform V, B and S factors cancel from every conditional, and S
    # and C enter only through the opponent's table: p(b, a) sums
    # opp[s, c] alloc[b, c, a] over s and c.
    opp_c = [sum(float(opp[s, c]) for s in range(g)) for c in range(g)]
    p_ba = [
        [sum(opp_c[c] * float(alloc[b, c, a]) for c in range(g)) for a in range(2 * g)]
        for b in range(g)
    ]
    out = []
    for v in range(g):
        sp = [sum(row) for row in p_ba]
        su = [sum(p * float(util[v, a]) for a, p in enumerate(row)) for row in p_ba]
        eu = [(su[b] / sp[b]) / (sum(su) / sum(sp)) for b in range(g)]
        best = max(eu)
        out.append(tuple(b for b in range(g) if eu[b] >= best * (1.0 - TIE_TOLERANCE)))
    return out


@pytest.mark.parametrize("resolution", range(4, 13))
def test_auction_tie_sets_match_enumeration(resolution):
    g = resolution + 1
    rng = np.random.default_rng(200 + resolution)
    opponent = rng.uniform(0.2, 1.0, (g, g))
    opponent /= opponent.sum(axis=1, keepdims=True)
    for epsilon in (1e-6, 1e-9):
        model = build_vickrey_auction(resolution, epsilon, opponent)
        problem = model.decision_problem(0.0)
        assert helpers.routed(model.network, problem.evidence, [1])
        want = auction_enumerated_ties(resolution, epsilon, opponent)
        for v, label in enumerate(model.grid):
            got = auction_best_response(model, label)
            assert got == tuple(model.grid[b] for b in want[v]), (epsilon, label)
