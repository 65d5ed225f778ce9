"""The four workloads: set-up, the ops of one round, and the answer check.

A workload's ``setup`` makes every input from the seed and loads it into the
program; ``round(r)`` returns round ``r`` as ``(key, op)`` pairs, where
``op()`` makes exactly one call into the program and ``key`` names the
question asked; ``Answers`` folds the answers of a run as they come, and
``check`` judges them with the checkers.
Every round has the same number of ops of the same kinds, so a run's share
of failed ops does not depend on its length or seed.

Ops look the program's functions up on the ``eunet`` modules when they run,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checkers as ck
from gen import GenNet, bn_doc, extreme_nets, network_doc, random_bn, random_net


@dataclass(frozen=True)
class Failed:
    """An op that raised one of the program's typed errors."""

    error: str


class Answers:
    """The answers of one run, folded as they come: the first answer to
    each question, counts, and the problems seen, so that memory does not
    grow with the number of ops run."""

    def __init__(self, wl: "Workload") -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.first: dict = {}
        self.problems: list[str] = []

    def add(self, key, out) -> None:
        self.attempted += 1
        if self.wl.failed(key, out):
            self.failed += 1
        elif isinstance(out, Failed):
            self.problems.append(f"{self.wl.describe(key)}: raised {out.error}")
        elif key not in self.first:
            self.first[key] = out
        elif self.first[key] != out:
            self.problems.append(
                f"{self.wl.describe(key)}: answer changed from {self.first[key]!r} to {out!r}"
            )


def api_call(api, name: str):
    """Call ``api.<name>`` looked up at call time, so tracing can wrap it."""
    return lambda *args: getattr(api, name)(*args)


def labels(net: GenNet, cyl: dict[int, int]) -> dict[str, str]:
    return {net.names[a]: net.domains[a][v] for a, v in cyl.items()}


def random_cylinder(rng: np.random.Generator, net: GenNet, axes) -> dict[int, int]:
    return {int(a): int(rng.integers(net.shape[a])) for a in axes}


def pick(rng: np.random.Generator, pool, k: int) -> list[int]:
    return sorted(int(x) for x in rng.choice(list(pool), size=k, replace=False))


class Workload:
    name = ""
    setup_reps = 5

    def __init__(self, api, seed: int, workdir: Path) -> None:
        self.api = api
        self.seed = seed
        self.workdir = workdir
        self.pool: list = []
        self.per_round = 1

    def reset(self) -> None:
        """Drop everything a previous set-up loaded."""
        self.pool = []

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list:
        n = len(self.pool)
        start = r * self.per_round
        return [self.pool[(start + k) % n] for k in range(self.per_round)]

    def check(self, answers: Answers) -> tuple[list[str], int]:
        """Return (problems, failed ops): each question's first answer is
        judged by the checkers, and every later one had to equal it."""
        problems = list(answers.problems)
        for key, out in answers.first.items():
            problems += [f"{self.describe(key)}: {p}" for p in self.judge(key, out)]
        return problems, answers.failed

    def failed(self, key, out) -> bool:
        """Whether ``out`` is a failure this workload counts rather than
        reports; every other failure is a problem."""
        return False

    def describe(self, key) -> str:
        return repr(key)

    def judge(self, key, out) -> list[str]:
        raise NotImplementedError


# -- small-sweep --------------------------------------------------------------


class SmallSweep(Workload):
    """Criterion-4 traffic: EU factorisation on many 5-variable networks.

    Each round is 49 ``eu_independent_events`` calls from the pool and one
    ``event_utility`` call on a fixed extreme-ratio network.
    """

    name = "small-sweep"
    N_NETS = 300
    PER_ROUND = 49

    def setup(self) -> None:
        api = self.api
        rng = np.random.default_rng(self.seed)
        self.gens: list[GenNet] = []
        cases = []
        while len(self.gens) < self.N_NETS:
            g = random_net(rng, 5, max_parents=2, fill=0.5)
            parts = self._partitions(rng, g)
            if parts:
                self.gens.append(g)
                cases.append(parts)
        self.queries = []
        self.declared = []
        pool = []
        for ci, (g, parts) in enumerate(zip(self.gens, cases)):
            net = api.parse_network(network_doc(g))
            net.ratio_tables("prob")
            net.ratio_tables("util")
            for a, b, c in parts:
                verdict = api.eu_independent_vars(
                    net, [g.names[i] for i in a], [g.names[i] for i in b], [g.names[i] for i in c]
                )
                self.declared.append((ci, (a, b, c), verdict))
                if not verdict:
                    continue
                for _ in range(2):
                    e = random_cylinder(rng, g, pick(rng, a, int(rng.integers(1, len(a) + 1))))
                    f = random_cylinder(rng, g, pick(rng, b, int(rng.integers(1, len(b) + 1))))
                    cond = random_cylinder(rng, g, c)
                    key = len(self.queries)
                    self.queries.append((ci, e, f, cond))
                    events = [net.cylinder(labels(g, x)) for x in (e, f, cond)]
                    pool.append((key, lambda net=net, ev=events: api.eu_independent_events(net, *ev)))
        rng.shuffle(pool)
        self.pool = pool
        self.per_round = self.PER_ROUND

        extreme = extreme_nets()
        self.extreme_gens = [g for g, _ in extreme]
        self.extreme_queries = []
        self.extreme_ops = []
        for xi, (g, asked) in enumerate(extreme):
            net = api.parse_network(network_doc(g))
            net.ratio_tables("prob")
            net.ratio_tables("util")
            for e in asked:
                key = ("extreme", len(self.extreme_queries))
                self.extreme_queries.append((xi, e))
                ev = net.cylinder(labels(g, e))
                self.extreme_ops.append((key, lambda net=net, ev=ev: api.event_utility(net, ev)))
        self._exact: dict = {}

    @staticmethod
    def _partitions(rng, g: GenNet) -> list[tuple[tuple[int, ...], ...]]:
        """Up to three (A, B, C) partitions separated in both layers."""
        found = set()
        for _ in range(24):
            order = [int(x) for x in rng.permutation(5)]
            na = int(rng.integers(1, 3))
            nb = int(rng.integers(1, 3))
            a, b, c = (tuple(sorted(order[:na])), tuple(sorted(order[na:na + nb])),
                       tuple(sorted(order[na + nb:])))
            if ck.eu_separated(g, set(a), set(b), set(c)):
                found.add((a, b, c))
            if len(found) == 3:
                break
        return sorted(found)

    def reset(self) -> None:
        super().reset()
        self.extreme_ops = []

    def round(self, r: int) -> list:
        ops = super().round(r)
        ops.append(self.extreme_ops[r % len(self.extreme_ops)])
        return ops

    def _exact_net(self, ci):
        if ci not in self._exact:
            g = self.extreme_gens[ci[1]] if isinstance(ci, tuple) else self.gens[ci]
            self._exact[ci] = ck.ExactNet(g)
        return self._exact[ci]

    def failed(self, key, out) -> bool:
        """Only the extreme-ratio queries may fail, by raising or by a
        non-finite answer."""
        return isinstance(key, tuple) and (
            isinstance(out, Failed) or not ck.measure_is_finite(_triple(out))
        )

    def describe(self, key) -> str:
        if isinstance(key, tuple):
            return f"extreme query {self.extreme_queries[key[1]]}"
        return f"small-sweep query {self.queries[key]}"

    def judge(self, key, out) -> list[str]:
        if isinstance(key, tuple):
            xi, e = self.extreme_queries[key[1]]
            return ck.check_measure_exact(self._exact_net(("x", xi)), e, _triple(out))
        ci, e, f, cond = self.queries[key]
        return ck.check_eu_events(self._exact_net(ci), e, f, cond, out)

    def check(self, answers):
        problems, failed = super().check(answers)
        for ci, (a, b, c), verdict in self.declared:
            want = ck.eu_separated(self.gens[ci], set(a), set(b), set(c))
            if verdict != want:
                problems.append(f"eu_independent_vars on network {ci} {(a, b, c)}: {verdict}, expected {want}")
        return problems, failed


def _triple(m) -> tuple[float, float, float, float]:
    return (m.p, m.u_rel, m.u_norm, m.v)


# -- wide-query ---------------------------------------------------------------


class WideQuery(Workload):
    """Event queries and decisions on 16- and 19-variable binary networks.

    A round asks all 160 questions once, in seeded order.
    """

    name = "wide-query"
    setup_reps = 3
    # (variables, most below-neighbours per variable); 2 networks of each.
    SIZES = ((16, 8), (16, 8), (19, 10), (19, 10))
    QUERIES_PER_NET = 40
    KINDS = ("eu", "ceu", "cp", "value", "decide")

    def setup(self) -> None:
        api = self.api
        rng = np.random.default_rng(self.seed)
        self.gens = [random_net(rng, n, max_parents=p, fill=1.0, window=1) for n, p in self.SIZES]
        self.queries = []
        pool = []
        for ni, g in enumerate(self.gens):
            net = api.parse_network(network_doc(g))
            net.ratio_tables("prob")
            net.ratio_tables("util")
            n = len(g.names)
            # Which variables each question fixes is the same under every
            # seed (it sets the memory access pattern of the sums); the seed
            # picks their values.
            axes_rng = np.random.default_rng(ni)
            for k in range(self.QUERIES_PER_NET):
                kind = self.KINDS[k % len(self.KINDS)]
                variant = (k // len(self.KINDS)) % 2
                axes = [int(x) for x in axes_rng.permutation(n)]
                if kind == "decide":
                    nd, ne = 3 - variant, 1 + variant
                    dvars = tuple(sorted(axes[:nd]))
                    ev = random_cylinder(rng, g, axes[nd:nd + ne])
                    q = (ni, kind, dvars, ev)
                    problem = api.DecisionProblem(
                        net, tuple(g.names[a] for a in dvars), net.cylinder(labels(g, ev))
                    )
                    op = lambda p=problem: api.optimal_decision(p)
                else:
                    ne, ng = {
                        "eu": (1 + variant, 0),
                        "ceu": (1, 1 + variant),
                        "cp": (1, 1 + variant),
                        "value": (1, variant),
                    }[kind]
                    e = random_cylinder(rng, g, axes[:ne])
                    cond = random_cylinder(rng, g, axes[ne:ne + ng]) if ng else None
                    q = (ni, kind, e, cond)
                    ev = net.cylinder(labels(g, e))
                    gv = net.cylinder(labels(g, cond)) if ng else None
                    fn = {
                        "eu": lambda net, ev, gv: api.event_utility(net, ev),
                        "ceu": api_call(api, "conditional_event_utility"),
                        "cp": api_call(api, "conditional_probability"),
                        "value": api_call(api, "value"),
                    }[kind]
                    op = lambda fn=fn, net=net, ev=ev, gv=gv: fn(net, ev, gv)
                pool.append((len(self.queries), op))
                self.queries.append(q)
        rng.shuffle(pool)
        self.pool = pool
        self.per_round = len(pool)
        self._lin: dict = {}

    def describe(self, key) -> str:
        return f"wide-query {self.queries[key]}"

    def judge(self, key, out) -> list[str]:
        ni, kind, a, b = self.queries[key]
        if ni not in self._lin:
            self._lin[ni] = ck.LinearNet(self.gens[ni])
        lin = self._lin[ni]
        g = self.gens[ni]
        if kind == "eu":
            return ck.check_measure(lin, a, _triple(out))
        if kind == "ceu":
            return ck.check_close("conditional_event_utility", out, lin.cond_eu(a, b))
        if kind == "cp":
            return ck.check_close("conditional_probability", out, lin.cond_prob(a, b))
        if kind == "value":
            return ck.check_close("value", out, lin.value(a, b))
        argmax = {tuple(g.domains[x].index(d[g.names[x]]) for x in a) for d in out.argmax}
        return ck.check_argmax(lin.decision_table(a, b), argmax, out.eu)


# -- auction-sweep ------------------------------------------------------------


class AuctionSweep(Workload):
    """Second-price best responses on grids up to K = 12, two smoothing levels.

    The opponent's bidding table is drawn from the seed for each grid and
    shared by both smoothing levels.
    """

    name = "auction-sweep"
    setup_reps = 7
    GRIDS = tuple(range(4, 13))
    EPSILONS = (1e-6, 1e-9)

    def setup(self) -> None:
        api = self.api
        rng = np.random.default_rng(self.seed)
        self.queries = []
        self.grids = {}
        pool = []
        for k in self.GRIDS:
            g = k + 1
            raw = rng.uniform(0.2, 1.0, (g, g))
            opponent = raw / raw.sum(axis=1, keepdims=True)
            for eps in self.EPSILONS:
                model = api.build_vickrey_auction(k, eps, opponent)
                model.network.ratio_tables("prob")
                model.network.ratio_tables("util")
                self.grids[k] = model.grid
                for vi, v in enumerate(model.grid):
                    pool.append((len(self.queries), lambda m=model, v=v: api.auction_best_response(m, v)))
                    self.queries.append((k, eps, vi))
        rng.shuffle(pool)
        self.pool = pool
        self.per_round = len(pool)

    def describe(self, key) -> str:
        return f"auction {self.queries[key]}"

    def judge(self, key, out) -> list[str]:
        return []

    def check(self, answers):
        problems, failed = super().check(answers)
        by_grid: dict = {}
        for key, out in answers.first.items():
            k, eps, vi = self.queries[key]
            by_grid.setdefault(k, {}).setdefault(eps, {})[vi] = out
        for k, by_eps in sorted(by_grid.items()):
            problems += [f"K={k}: {p}" for p in ck.auction_problems(self.grids[k], by_eps)]
        if len(answers.first) < len(self.queries):
            problems.append("not every (grid, epsilon, value) was answered")
        return problems, failed


# -- cli-docs -----------------------------------------------------------------


class CliDocs(Workload):
    """In-process ``run_command`` calls on documents written in set-up.

    Document ``k`` has the same domains and graph under every seed, so the
    cost of a round does not depend on the seed; tables and questions do.
    """

    name = "cli-docs"
    setup_reps = 15
    N_NETS = 8
    N_BNS = 3
    NET_DOMAINS = (2,) * 8 + (3,) * 4
    BN_DOMAINS = (2,) * 5 + (3,) * 5

    def setup(self) -> None:
        api = self.api
        rng = np.random.default_rng(self.seed)
        d = self.workdir
        self.nets: list[GenNet] = []
        self.bns = []
        self.queries = []
        for k in range(self.N_NETS):
            g = random_net(
                rng, len(self.NET_DOMAINS), max_parents=3, fill=0.8,
                sizes=self.NET_DOMAINS, structure_rng=np.random.default_rng(k),
            )
            self.nets.append(g)
            path = d / f"net{k}.json"
            path.write_text(network_doc(g))
            net = api.parse_network(path.read_text())
            net.ratio_tables("prob")
            net.ratio_tables("util")
            self._net_queries(rng, k, g, str(path))
        for k in range(self.N_BNS):
            bn = random_bn(rng, self.BN_DOMAINS, structure_rng=np.random.default_rng(100 + k))
            self.bns.append(bn)
            src = d / f"bn{k}.json"
            src.write_text(bn_doc(bn))
            out = d / f"bn{k}.eun.json"
            self.queries.append(("import-bn", k, None, ["import-bn", str(src), "-o", str(out)]))
        order = [int(x) for x in rng.permutation(len(self.queries))]
        self.pool = [(key, self._op(self.queries[key][3])) for key in order]
        self.per_round = len(self.pool)
        self._lin: dict = {}

    def _net_queries(self, rng, k: int, g: GenNet, path: str) -> None:
        n = len(g.names)

        def term(cyl):
            return ",".join(f"{name}={val}" for name, val in labels(g, cyl).items())

        # Every seed asks the same mix: event sizes are fixed and the decision
        # variables are two binary ones and a ternary one (12 candidates).
        for flag in ("--prob", "--eu", "--value"):
            for given in (False, True):
                axes = [int(x) for x in rng.permutation(n)]
                e = random_cylinder(rng, g, axes[:1 + given])
                argv = ["query", path, flag, "-e", term(e)]
                cond = None
                if given:
                    cond = random_cylinder(rng, g, axes[2:3])
                    argv += ["-g", term(cond)]
                self.queries.append(("query", k, (flag, e, cond), argv))
        binary = [int(x) for x in rng.permutation([i for i in range(n) if g.shape[i] == 2])]
        ternary = [int(x) for x in rng.permutation([i for i in range(n) if g.shape[i] == 3])]
        dvars = tuple(sorted(binary[:2] + ternary[:1]))
        ev = random_cylinder(rng, g, binary[2:3])
        argv = ["decide", path, "-d", ",".join(g.names[a] for a in dvars), "-e", term(ev)]
        self.queries.append(("decide", k, (dvars, ev), argv))
        self.queries.append(("validate", k, None, ["validate", path, "--strict"]))
        axes = [int(x) for x in rng.permutation(n)]
        a, b, c = axes[:2], axes[2:4], axes[4:]
        argv = ["independence", path, "--layer", "eu"] + [
            x for flag, group in (("-a", a), ("-b", b), ("-c", c))
            for x in (flag, ",".join(g.names[i] for i in sorted(group)))
        ]
        self.queries.append(("independence", k, (set(a), set(b), set(c)), argv))

    def _op(self, argv: list[str]):
        api = self.api

        def op():
            out, err = io.StringIO(), io.StringIO()
            code = api.cli.run_command(argv, stdout=out, stderr=err)
            return code, out.getvalue(), err.getvalue()

        return op

    def describe(self, key) -> str:
        return "eun " + " ".join(self.queries[key][3])

    def judge(self, key, out) -> list[str]:
        kind, k, detail, argv = self.queries[key]
        code, text, err = out
        if code != 0 or err:
            return [f"exit {code}, stderr {err.strip()!r}"]
        if kind == "import-bn":
            return [] if text == f"wrote {argv[-1]}\n" else [f"unexpected output {text!r}"]
        g = self.nets[k]
        if k not in self._lin:
            self._lin[k] = ck.LinearNet(g)
        lin = self._lin[k]
        if kind == "query":
            flag, e, cond = detail
            if cond is None:
                p, _, u_norm, v = lin.measure(e)
                want = {"--prob": p, "--eu": u_norm, "--value": v}[flag]
            else:
                want = {
                    "--prob": lin.cond_prob, "--eu": lin.cond_eu, "--value": lin.value,
                }[flag](e, cond)
            return ck.check_printed(text, want)
        if kind == "decide":
            dvars, ev = detail
            return ck.check_decide_output(g, text, lin.decision_table(dvars, ev), dvars)
        if kind == "validate":
            return ck.check_validate_output(text)
        a, b, c = detail
        return ck.check_independence_output(g, a, b, c, text)

    def check(self, answers):
        problems, failed = super().check(answers)
        # The last write of each imported document is still on disk.
        for kind, k, _, argv in self.queries:
            if kind != "import-bn":
                continue
            written = Path(argv[-1]).read_text()
            problems += [f"import-bn {k}: {p}" for p in ck.check_bn_import(self.bns[k], written)]
            problems += [
                f"import-bn {k}: {p}"
                for p in ck.check_roundtrip(self.api.parse_network, self.api.serialize_network, written)
            ]
        return problems, failed


WORKLOADS = {w.name: w for w in (SmallSweep, WideQuery, AuctionSweep, CliDocs)}
