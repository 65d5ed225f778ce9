"""Each checker accepts the program's answer and flags a perturbed one.

    python3 -m pytest perfbench/test_checkers.py

The program is imported from ``src/`` only to produce real answers to judge.
"""

from __future__ import annotations

import io
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import eunet  # noqa: E402
import eunet.cli  # noqa: E402

import checkers as ck  # noqa: E402
from gen import bn_doc, extreme_nets, network_doc, random_bn, random_net  # noqa: E402
from workloads import Answers, Failed, SmallSweep, Workload, labels  # noqa: E402


def _bump(x: float, rel: float = 1e-7) -> float:
    return x * (1.0 + rel)


@pytest.fixture
def small():
    rng = np.random.default_rng(7)
    while True:
        g = random_net(rng, 5, max_parents=2, fill=0.5)
        parts = SmallSweep._partitions(rng, g)
        if parts:
            return g, eunet.parse_network(network_doc(g)), parts[0]


@pytest.fixture
def wide():
    rng = np.random.default_rng(11)
    g = random_net(rng, 9, max_parents=3, fill=1.0, window=1, sizes=(2, 3) * 4 + (2,))
    return g, eunet.parse_network(network_doc(g))


def test_exact_checker_flags_a_flipped_verdict(small):
    g, net, (a, b, c) = small
    e, f, cond = {a[0]: 1}, {b[0]: 1}, {x: 0 for x in c}
    answer = eunet.eu_independent_events(net, *(net.cylinder(labels(g, x)) for x in (e, f, cond)))
    exact = ck.ExactNet(g)
    assert ck.check_eu_events(exact, e, f, cond, answer) == []
    assert ck.check_eu_events(exact, e, f, cond, not answer)


def test_exact_checker_flags_a_perturbed_measure(small):
    g, net, _ = small
    e = {0: 1, 3: 0}
    m = eunet.event_utility(net, net.cylinder(labels(g, e)))
    answer = (m.p, m.u_rel, m.u_norm, m.v)
    exact = ck.ExactNet(g)
    assert ck.check_measure_exact(exact, e, answer) == []
    for k in range(4):
        bad = list(answer)
        bad[k] = _bump(bad[k])
        assert ck.check_measure_exact(exact, e, tuple(bad))


def test_exact_checker_judges_the_extreme_ratio_networks():
    """The exact answers are finite; a perturbed or non-finite one is flagged."""
    for g, events in extreme_nets():
        exact = ck.ExactNet(g)
        for e in events:
            answer = tuple(float(x) for x in exact.measure(e))
            assert ck.measure_is_finite(answer)
            assert ck.check_measure_exact(exact, e, answer) == []
            for k in range(4):
                for bad_value in (answer[k] * 0.999, math.nan, math.inf):
                    bad = list(answer)
                    bad[k] = bad_value
                    assert ck.check_measure_exact(exact, e, tuple(bad))


def test_only_the_extreme_ratio_queries_may_fail(tmp_path):
    sweep = SmallSweep(eunet, 0, tmp_path)
    nan = SimpleNamespace(p=math.nan, u_rel=math.nan, u_norm=math.nan, v=math.nan)
    assert sweep.failed(("extreme", 0), nan)
    assert sweep.failed(("extreme", 0), Failed("EunError: overflow"))
    assert not sweep.failed(0, Failed("StateCapError: too many states"))

    class Unjudged(Workload):
        def judge(self, key, out):
            return []

    wl = Unjudged(eunet, 0, tmp_path)
    answers = Answers(wl)
    for key, out in [(0, True), (1, Failed("StateCapError: x")), (0, True), (0, False)]:
        answers.add(key, out)
    problems, failed = wl.check(answers)
    assert (answers.attempted, failed) == (4, 0)
    assert problems == ["1: raised StateCapError: x", "0: answer changed from True to False"]


def test_einsum_checker_flags_perturbed_queries(wide):
    g, net = wide
    lin = ck.LinearNet(g)
    e, cond = {1: 1}, {2: 0, 5: 1}
    ev, gv = net.cylinder(labels(g, e)), net.cylinder(labels(g, cond))
    m = eunet.event_utility(net, ev)
    answer = (m.p, m.u_rel, m.u_norm, m.v)
    assert ck.check_measure(lin, e, answer) == []
    assert ck.check_measure(lin, e, (_bump(m.p), m.u_rel, m.u_norm, m.v))
    for fn, want in (
        (eunet.conditional_event_utility, lin.cond_eu(e, cond)),
        (eunet.conditional_probability, lin.cond_prob(e, cond)),
        (eunet.value, lin.value(e, cond)),
    ):
        got = fn(net, ev, gv)
        assert ck.check_close(fn.__name__, got, want) == []
        assert ck.check_close(fn.__name__, _bump(got), want)


def test_einsum_checker_flags_a_perturbed_tie_set(wide):
    g, net = wide
    lin = ck.LinearNet(g)
    dvars, ev = (0, 3), {4: 1}
    problem = eunet.DecisionProblem(net, tuple(g.names[a] for a in dvars), net.cylinder(labels(g, ev)))
    result = eunet.optimal_decision(problem)
    argmax = {tuple(g.domains[a].index(d[g.names[a]]) for a in dvars) for d in result.argmax}
    table = lin.decision_table(dvars, ev)
    assert ck.check_argmax(table, argmax, result.eu) == []
    worst = min(table, key=table.get)
    assert ck.check_argmax(table, argmax | {worst}, result.eu)
    assert ck.check_argmax(table, set(), result.eu)
    assert ck.check_argmax(table, argmax, _bump(result.eu))


def test_auction_properties_flag_perturbed_best_responses():
    answers = {}
    for eps in (1e-6, 1e-9):
        model = eunet.build_vickrey_auction(4, eps)
        answers[eps] = {k: eunet.auction_best_response(model, v) for k, v in enumerate(model.grid)}
    grid = model.grid
    assert ck.auction_problems(grid, answers) == []
    dropped = {eps: dict(by) for eps, by in answers.items()}
    dropped[1e-9][3] = (grid[2],)
    assert ck.auction_problems(grid, dropped)
    far = {eps: dict(by) for eps, by in answers.items()}
    far[1e-6][3] = (grid[1], grid[3])
    assert ck.auction_problems(grid, far)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    assert eunet.cli.run_command(argv, stdout=out, stderr=err) == 0, err.getvalue()
    return out.getvalue()


def test_cli_checkers_flag_perturbed_output(wide, tmp_path):
    g, _ = wide
    lin = ck.LinearNet(g)
    path = tmp_path / "net.json"
    path.write_text(network_doc(g))
    e = {2: 1}
    text = _cli(["query", str(path), "--eu", "-e", ",".join(f"{k}={v}" for k, v in labels(g, e).items())])
    want = lin.measure(e)[2]
    assert ck.check_printed(text, want) == []
    assert ck.check_printed(f"{float(text) + 3e-12:.12f}", want)

    dvars, ev = (0, 3), {4: 1}
    text = _cli(["decide", str(path), "-d", f"{g.names[0]},{g.names[3]}", "-e", f"{g.names[4]}=1"])
    table = lin.decision_table(dvars, ev)
    assert ck.check_decide_output(g, text, table, dvars) == []
    worst = min(table, key=table.get)
    extra = ",".join(f"{g.names[a]}={g.domains[a][v]}" for a, v in zip(dvars, worst))
    assert ck.check_decide_output(g, f"argmax: {extra}\n" + text, table, dvars)

    text = _cli(["validate", str(path), "--strict"])
    assert ck.check_validate_output(text) == []
    assert ck.check_validate_output(text.replace("consistent", "INCONSISTENT"))

    a, b, c = {0}, {8}, set(range(1, 8))
    names = [",".join(g.names[i] for i in sorted(s)) for s in (a, b, c)]
    text = _cli(["independence", str(path), "--layer", "eu", "-a", names[0], "-b", names[1], "-c", names[2]])
    assert ck.check_independence_output(g, a, b, c, text) == []
    other = ("not separated in both layers (no guarantee)\n" if text.startswith("eu-independent")
             else "eu-independent (separated in both layers)\n")
    assert ck.check_independence_output(g, a, b, c, other)


def test_bn_import_checker_flags_a_perturbed_document(tmp_path):
    bn = random_bn(np.random.default_rng(3), (2, 3, 2, 3, 2))
    src, out = tmp_path / "bn.json", tmp_path / "net.json"
    src.write_text(bn_doc(bn))
    _cli(["import-bn", str(src), "-o", str(out)])
    written = out.read_text()
    assert ck.check_bn_import(bn, written) == []
    net = ck.gennet_from_doc(written)
    i = next(k for k, t in enumerate(net.tables["prob"]) if t.shape[0] > 1)
    net.tables["prob"][i][1] *= 1.0 + 1e-6
    assert ck.check_bn_import(bn, network_doc(net))

    parse, serialize = eunet.parse_network, eunet.serialize_network
    assert ck.check_roundtrip(parse, serialize, written) == []
    assert ck.check_roundtrip(parse, serialize, written.replace("\n", "\n ", 1))
