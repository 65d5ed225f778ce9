"""Answer checkers made apart from the program.

None of these call a numeric function of ``eunet``.  They read the
benchmark's own :class:`gen.GenNet` data and recompute every answer:

- :class:`ExactNet` multiplies the ratio tables state by state in exact
  ``fractions.Fraction`` arithmetic (small networks, and the extreme-ratio
  networks whose float products overflow);
- :class:`LinearNet` takes the joint as a linear-space ``np.einsum`` product
  of the same tables (wide networks and CLI documents);
- :func:`auction_problems` checks the properties a second-price best
  response must have;
- the ``check_*_output`` helpers, :func:`check_printed` and
  :func:`check_bn_import` read what the CLI prints and writes.

Events are cylinders written as ``{axis: value_index}``.  Each checker
returns a list of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import itertools
import json
import math
import string
from fractions import Fraction

import numpy as np

from gen import LAYERS, GenBN, GenNet

REL_TOL = 1e-9
TIE_TOLERANCE = 1e-9
# Half-width of the band around the tie threshold inside which rounding may
# legitimately put a candidate on either side.
TIE_BAND = 1e-11


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


def _close(got: float, want: float, tol: float = REL_TOL) -> bool:
    return math.isfinite(got) and _rel_err(got, want) <= tol


# -- exact rational checker -------------------------------------------------


class ExactNet:
    """State-by-state joint ratios in exact rational arithmetic."""

    def __init__(self, net: GenNet) -> None:
        self.net = net
        self.states = list(itertools.product(*(range(s) for s in net.shape)))
        self.ratio: dict[str, list[Fraction]] = {}
        for layer in LAYERS:
            tables = [
                {idx: Fraction(float(t[idx])) for idx in np.ndindex(t.shape)}
                for t in net.tables[layer]
            ]
            below = net.below[layer]
            col = []
            for x in self.states:
                r = Fraction(1)
                for i, parents in enumerate(below):
                    r *= tables[i][(x[i], *(x[j] for j in parents))]
                col.append(r)
            self.ratio[layer] = col

    def sums(self, cyl: dict[int, int]) -> tuple[Fraction, Fraction]:
        sp = su = Fraction(0)
        for x, p, u in zip(self.states, self.ratio["prob"], self.ratio["util"]):
            if all(x[a] == v for a, v in cyl.items()):
                sp += p
                su += p * u
        return sp, su

    def cond_eu(self, e: dict[int, int], g: dict[int, int]) -> Fraction:
        sp_eg, su_eg = self.sums({**g, **e})
        sp_g, su_g = self.sums(g)
        return (su_eg / sp_eg) / (su_g / sp_g)

    def measure(self, e: dict[int, int]) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """(p, u_rel, u_norm, v) of the cylinder ``e``."""
        sp, su = self.sums(e)
        sp_t, su_t = self.sums({})
        u_rel = su / sp
        return sp / sp_t, u_rel, u_rel / (su_t / sp_t), su / su_t


def check_eu_events(
    exact: ExactNet, e: dict[int, int], f: dict[int, int], g: dict[int, int], answer: bool
) -> list[str]:
    """The program's verdict on u(EF|G) = u(E|G) u(F|G) against the exact one."""
    lhs = exact.cond_eu({**e, **f}, g)
    rhs = exact.cond_eu(e, g) * exact.cond_eu(f, g)
    want = abs(lhs - rhs) <= Fraction(TIE_TOLERANCE) * abs(rhs)
    if answer is not want:
        return [f"eu_independent_events gave {answer}, exact verdict {want}"]
    return []


def measure_is_finite(answer: tuple[float, ...]) -> bool:
    return all(math.isfinite(x) for x in answer)


def check_measure_exact(exact: ExactNet, e: dict[int, int], answer: tuple[float, ...]) -> list[str]:
    """A finite (p, u_rel, u_norm, v) against exact rationals."""
    problems = []
    for name, got, want in zip(("p", "u_rel", "u_norm", "v"), answer, exact.measure(e)):
        if not math.isfinite(got) or abs(Fraction(got) - want) > Fraction(REL_TOL) * abs(want):
            problems.append(f"event_utility {name}={got!r}, exact {float(want)!r}")
    return problems


# -- linear-space einsum checker -------------------------------------------


def linear_joint(net: GenNet, layer: str) -> np.ndarray:
    """The joint ratio table as one einsum product of the generated factors."""
    if len(net.names) > len(string.ascii_letters):
        raise ValueError("einsum takes at most 52 axes")
    operands: list[object] = []
    for i, parents in enumerate(net.below[layer]):
        operands += [net.tables[layer][i], [i, *parents]]
    return np.einsum(*operands, list(range(len(net.names))), optimize="greedy")


class LinearNet:
    """Answers from linear-space joint tables, independent of the program."""

    def __init__(self, net: GenNet) -> None:
        self.net = net
        self.p = linear_joint(net, "prob")
        self.pu = self.p * linear_joint(net, "util")
        self.sp_true = float(self.p.sum())
        self.su_true = float(self.pu.sum())

    def sums(self, cyl: dict[int, int]) -> tuple[float, float]:
        idx = tuple(cyl.get(a, slice(None)) for a in range(len(self.net.names)))
        return float(self.p[idx].sum()), float(self.pu[idx].sum())

    def measure(self, e: dict[int, int]) -> tuple[float, float, float, float]:
        sp, su = self.sums(e)
        u_rel = su / sp
        return sp / self.sp_true, u_rel, u_rel / (self.su_true / self.sp_true), su / self.su_true

    def cond_eu(self, e: dict[int, int], g: dict[int, int]) -> float:
        sp_eg, su_eg = self.sums({**g, **e})
        sp_g, su_g = self.sums(g)
        return (su_eg / sp_eg) / (su_g / sp_g)

    def cond_prob(self, e: dict[int, int], g: dict[int, int]) -> float:
        return self.sums({**g, **e})[0] / self.sums(g)[0]

    def value(self, e: dict[int, int], g: dict[int, int] | None = None) -> float:
        if g is None:
            return self.sums(e)[1] / self.su_true
        return self.sums({**g, **e})[1] / self.sums(g)[1]

    def decision_table(
        self, dvars: tuple[int, ...], evidence: dict[int, int]
    ) -> dict[tuple[int, ...], float]:
        """Conditional EU of every assignment of the decision axes."""
        shape = self.net.shape
        return {
            combo: self.cond_eu(dict(zip(dvars, combo)), evidence)
            for combo in itertools.product(*(range(shape[a]) for a in dvars))
        }


def check_close(what: str, got: float, want: float) -> list[str]:
    if not _close(got, want):
        return [f"{what}={got!r}, checker {want!r}"]
    return []


def check_measure(lin: LinearNet, e: dict[int, int], answer: tuple[float, ...]) -> list[str]:
    problems = []
    for name, got, want in zip(("p", "u_rel", "u_norm", "v"), answer, lin.measure(e)):
        problems += check_close(f"event_utility {name}", got, want)
    return problems


def check_argmax(
    table: dict[tuple[int, ...], float], argmax: set[tuple[int, ...]], eu: float
) -> list[str]:
    """The program's tie set and best EU against the checker's table.

    A candidate clearly inside the tie tolerance must be reported and one
    clearly outside must not; candidates within rounding of the threshold
    may go either way.
    """
    best = max(table.values())
    cut = best * (1.0 - TIE_TOLERANCE)
    sure_in = {c for c, v in table.items() if v >= cut * (1.0 + TIE_BAND)}
    sure_out = {c for c, v in table.items() if v < cut * (1.0 - TIE_BAND)}
    problems = check_close("decision eu", eu, best)
    if not sure_in <= argmax:
        problems.append(f"argmax {sorted(argmax)} misses {sorted(sure_in - argmax)}")
    if argmax & sure_out:
        problems.append(f"argmax {sorted(argmax)} holds dominated {sorted(argmax & sure_out)}")
    return problems


# -- auction properties -----------------------------------------------------


def auction_problems(grid: tuple[str, ...], argmax_by_eps: dict[float, dict[int, tuple[str, ...]]]) -> list[str]:
    """Second-price best responses: truthful, at most one step below, eps-stable.

    ``argmax_by_eps[eps][k]`` is the program's argmax after observing the
    value ``grid[k]``.
    """
    problems = []
    for eps, by_value in argmax_by_eps.items():
        for k, bids in by_value.items():
            allowed = {grid[k]} | ({grid[k - 1]} if k else set())
            if grid[k] not in bids:
                problems.append(f"eps={eps} v={grid[k]}: truthful bid not in argmax {bids}")
            if not set(bids) <= allowed:
                problems.append(f"eps={eps} v={grid[k]}: argmax {bids} outside {sorted(allowed)}")
    levels = list(argmax_by_eps.values())
    for k in levels[0]:
        answers = {tuple(sorted(level[k])) for level in levels if k in level}
        if len(answers) > 1:
            problems.append(f"v={grid[k]}: argmax moves with epsilon: {sorted(answers)}")
    return problems


# -- CLI output -------------------------------------------------------------


def check_printed(text: str, want: float) -> list[str]:
    """A number printed with 12 decimals must agree to its last digit."""
    try:
        got = float(text.strip())
    except ValueError:
        return [f"unreadable number {text!r}"]
    if not abs(got - want) <= 1e-12 * max(1.0, abs(want)):
        return [f"printed {text.strip()}, checker {want:.15f}"]
    return []


def check_decide_output(
    net: GenNet, text: str, table: dict[tuple[int, ...], float], dvars: tuple[int, ...]
) -> list[str]:
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("eu: "):
        return [f"decide output lacks an eu line: {text!r}"]
    argmax = set()
    for line in lines[:-1]:
        if not line.startswith("argmax: "):
            return [f"unexpected decide line {line!r}"]
        terms = dict(t.split("=", 1) for t in line[len("argmax: "):].split(","))
        try:
            argmax.add(tuple(net.domains[a].index(terms[net.names[a]]) for a in dvars))
        except (KeyError, ValueError):
            return [f"decide line {line!r} does not name the decision variables"]
    best = max(table.values())
    return check_argmax(table, argmax, best) + check_printed(lines[-1][len("eu: "):], best)


def separated(net: GenNet, layer: str, a: set[int], b: set[int], c: set[int]) -> bool:
    """Breadth-first graph separation, the benchmark's own."""
    adj = net.neighbours(layer)
    seen, frontier = set(a), list(a)
    while frontier:
        for nxt in adj[frontier.pop()]:
            if nxt in c or nxt in seen:
                continue
            if nxt in b:
                return False
            seen.add(nxt)
            frontier.append(nxt)
    return True


def eu_separated(net: GenNet, a: set[int], b: set[int], c: set[int]) -> bool:
    return all(separated(net, layer, a, b, c) for layer in LAYERS)


VALIDATE_OK = "structure: ok\ntables: consistent with the graph\n"


def check_validate_output(text: str) -> list[str]:
    """``validate --strict`` on a mantle-safe network must call it consistent."""
    return [] if text == VALIDATE_OK else [f"validate --strict printed {text!r}"]


def check_independence_output(net: GenNet, a: set[int], b: set[int], c: set[int], text: str) -> list[str]:
    want = (
        "eu-independent (separated in both layers)\n"
        if eu_separated(net, a, b, c)
        else "not separated in both layers (no guarantee)\n"
    )
    return [] if text == want else [f"printed {text!r}, expected {want!r}"]


def check_roundtrip(parse, serialize, text: str) -> list[str]:
    """serialise -> parse -> serialise must reproduce ``text`` byte for byte.

    ``parse`` and ``serialize`` are the program's own functions; the check is
    a property of the pair, not a number.
    """
    if serialize(parse(text)) != text:
        return ["serialise -> parse -> serialise is not byte-identical"]
    return []


def gennet_from_doc(text: str) -> GenNet:
    """Read an ``eun/1`` document into plain data (JSON only, no eunet)."""
    doc = json.loads(text)
    names = list(doc["ordering"])
    by_name = {v["name"]: v for v in doc["variables"]}
    domains = [tuple(by_name[n]["domain"]) for n in names]
    for n, d in zip(names, domains):
        if by_name[n].get("reference", d[0]) != d[0]:
            raise ValueError(f"{n}: reference is not the first label")
    index = {n: i for i, n in enumerate(names)}
    below: dict[str, list[tuple[int, ...]]] = {}
    tables: dict[str, list[np.ndarray]] = {}
    for layer, key in (("prob", "q"), ("util", "w")):
        nbrs: list[set[int]] = [set() for _ in names]
        for x, y in doc.get(f"{layer}_arcs", []):
            nbrs[index[x]].add(index[y])
            nbrs[index[y]].add(index[x])
        below[layer] = [tuple(sorted(j for j in nbrs[i] if j < i)) for i in range(len(names))]
        tables[layer] = []
        rows_by_var = doc.get(key, {})
        for i, n in enumerate(names):
            parents = below[layer][i]
            t = np.ones((len(domains[i]), *(len(domains[j]) for j in parents)))
            for row in rows_by_var.get(n, []):
                idx = (domains[i].index(row["value"]),) + tuple(
                    domains[j].index(row["given"][names[j]]) for j in parents
                )
                t[idx] = row["ratio"]
            tables[layer].append(t)
    return GenNet(names, domains, below, tables)


def check_bn_import(bn: GenBN, written: str) -> list[str]:
    """The imported network's probability joint equals the CPT product."""
    net = gennet_from_doc(written)
    if net.names != bn.names:
        return [f"imported ordering {net.names} differs from the document's {bn.names}"]
    got = linear_joint(net, "prob")
    got = got / got.sum()
    want = bn.joint()
    err = float(np.max(np.abs(got - want) / want))
    if not err <= REL_TOL:
        return [f"imported joint differs from the CPT product by {err:.3e}"]
    if not np.all(linear_joint(net, "util") == 1.0):
        return ["imported utility layer is not flat"]
    return []
