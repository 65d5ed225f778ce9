"""Per-layer metrics from the spans of a traced run.

Per-call figures come from every span of the workload's traced run (set-up
and timed phase).  A function the workload never calls is measured on the
coverage pass instead, a short fixed sequence over the whole API that every
traced run makes after its workload, so that every metric carries a
measured value; README.md names the workload each metric should be read on.

Self times come from the traced timed phase and the coverage pass after it
(well under 1 % of that wall time, so a layer the workload never calls
shows a small measured share rather than a constant zero).  Every nanosecond of
that wall time goes to exactly one layer: a span's self time (its duration
less its children's) to the span's layer, and the time between top-level
spans to the harness, so the layer shares sum to one.
"""

from __future__ import annotations

import io

import numpy as np

from gen import bn_doc, network_doc, random_bn, random_net
from spans import BYTES, END, HARNESS, LAYER_OF, NAME, PARENT, PROGRAM_LAYERS, START, Tracer

MIB = float(1 << 20)

# name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "formats.parse_ms": "ms",
    "formats.parse_mb_per_s": "MB/s",
    "formats.serialize_ms": "ms",
    "formats.bn_import_ms": "ms",
    "model.build_ms": "ms",
    "model.tables_ms": "ms",
    "model.table_mb": "MiB",
    "model.alloc_peak_mb": "MiB",
    "model.imap_ms": "ms",
    "inference.query_ms": "ms",
    "inference.calls_per_op": "count",
    "independence.eu_events_ms": "ms",
    "independence.eu_vars_ms": "ms",
    "decision.optimal_ms": "ms",
    "decision.candidates_per_call": "count",
    "decision.auction_build_ms": "ms",
    "decision.best_response_ms": "ms",
    "cli.run_ms": "ms",
    **{f"{layer}.{kind}": unit
       for layer in (*PROGRAM_LAYERS, HARNESS)
       for kind, unit in (("self_ms", "ms"), ("self_share", "fraction"))},
    "trace.program_share": "fraction",
    "trace.overhead_share": "fraction",
}


def _dur(s) -> int:
    return s[END] - s[START]


class _Source:
    """Spans of one function: the workload's own, else the coverage pass's."""

    def __init__(self, tracer: Tracer, coverage_first: int) -> None:
        self.tracer = tracer
        self.workload = range(coverage_first)
        self.coverage = range(coverage_first, len(tracer.spans))
        self.called = {s[NAME] for s in tracer.spans[:coverage_first]}

    def indexes(self, name: str) -> range:
        return self.workload if name in self.called else self.coverage

    def spans(self, *names: str) -> list:
        """Spans of ``names``, from the range chosen by the first name."""
        spans = self.tracer.spans
        return [spans[k] for k in self.indexes(names[0]) if spans[k][NAME] in names]

    def mean_ms(self, name: str) -> float:
        spans = self.spans(name)
        return sum(_dur(s) for s in spans) / len(spans) / 1e6


def compute(
    tracer: Tracer,
    first: int,
    coverage_first: int,
    ops: int,
    wall_s: float,
    memory: Tracer,
    untraced_rate: float,
    traced_rate: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics.

    ``tracer`` holds the traced set-up, then from span ``first`` the timed
    phase of ``ops`` ops, then from ``coverage_first`` the coverage pass;
    ``wall_s`` is the wall time of the last two together.
    """
    src = _Source(tracer, coverage_first)
    spans = tracer.spans
    out: dict[str, float] = {}

    parses = src.spans("parse_network")
    out["formats.parse_ms"] = src.mean_ms("parse_network")
    out["formats.parse_mb_per_s"] = sum(s[BYTES] for s in parses) * 1e3 / sum(_dur(s) for s in parses)
    out["formats.serialize_ms"] = src.mean_ms("serialize_network")
    bn_spans = src.spans("bn_to_eun", "parse_bayes_net")
    out["formats.bn_import_ms"] = (
        sum(_dur(s) for s in bn_spans) / sum(s[NAME] == "bn_to_eun" for s in bn_spans) / 1e6
    )

    out["model.build_ms"] = src.mean_ms("build_network")
    # Only the first call per network and layer builds a table and counts its bytes.
    cold = [s for s in src.spans("ratio_tables") if s[BYTES] > 0]
    networks = len(cold) / 2.0
    out["model.tables_ms"] = sum(_dur(s) for s in cold) / networks / 1e6
    out["model.table_mb"] = sum(s[BYTES] for s in cold) / networks / MIB
    model_peaks = [
        memory.peaks[k] for k, s in enumerate(memory.spans)
        if LAYER_OF.get(s[NAME]) == "model" and k < len(memory.peaks)
    ]
    out["model.alloc_peak_mb"] = max(model_peaks) / MIB
    out["model.imap_ms"] = src.mean_ms("imap_report")

    def is_inference(s) -> bool:
        return LAYER_OF.get(s[NAME]) == "inference"

    outer = [
        spans[k] for k in src.indexes("conditional_event_utility")
        if is_inference(spans[k])
        and not (spans[k][PARENT] >= 0 and is_inference(spans[spans[k][PARENT]]))
    ]
    out["inference.query_ms"] = sum(_dur(s) for s in outer) / len(outer) / 1e6
    out["inference.calls_per_op"] = sum(is_inference(s) for s in spans[first:coverage_first]) / ops

    out["independence.eu_events_ms"] = src.mean_ms("eu_independent_events")
    out["independence.eu_vars_ms"] = src.mean_ms("eu_independent_vars")

    decisions = {k for k in src.indexes("optimal_decision") if spans[k][NAME] == "optimal_decision"}
    candidates = sum(
        spans[k][NAME] == "conditional_event_utility" and spans[k][PARENT] in decisions
        for k in src.indexes("optimal_decision")
    )
    out["decision.optimal_ms"] = src.mean_ms("optimal_decision")
    out["decision.candidates_per_call"] = candidates / len(decisions)
    out["decision.auction_build_ms"] = src.mean_ms("build_vickrey_auction")
    out["decision.best_response_ms"] = src.mean_ms("auction_best_response")
    out["cli.run_ms"] = src.mean_ms("run_command")

    wall_ns = wall_s * 1e9
    self_ns = tracer.self_ns(first)
    top = sum(_dur(s) for s in spans[first:] if s[PARENT] < 0)
    self_ns[HARNESS] = self_ns.get(HARNESS, 0) + (wall_ns - top)
    for layer in (*PROGRAM_LAYERS, HARNESS):
        ns = self_ns.get(layer, 0)
        out[f"{layer}.self_ms"] = ns / ops / 1e6
        out[f"{layer}.self_share"] = ns / wall_ns
    out["trace.program_share"] = sum(self_ns.get(layer, 0) for layer in PROGRAM_LAYERS) / wall_ns
    out["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
    return {name: (out[name], unit) for name, unit in UNITS.items()}


def coverage_pass(api, workdir) -> None:
    """One call of every traced function on small fixed inputs."""
    rng = np.random.default_rng(0)
    g = random_net(rng, 6, max_parents=2, fill=0.7, sizes=(2, 2, 2, 3, 3, 2))
    doc = network_doc(g)
    net = api.parse_network(doc)
    net.ratio_tables("prob")
    net.ratio_tables("util")
    api.serialize_network(net)
    net.imap_report()
    x = g.names
    e, f, cond = (net.cylinder({x[k]: "1"}) for k in range(3))
    api.event_utility(net, e)
    api.conditional_event_utility(net, e, cond)
    api.conditional_probability(net, e, cond)
    api.value(net, e, cond)
    api.eu_independent_vars(net, x[:2], x[2:4], x[4:])
    api.eu_independent_events(net, e, f, cond)
    api.optimal_decision(api.DecisionProblem(net, (x[3], x[4]), cond))
    api.bn_to_eun(api.parse_bayes_net(bn_doc(random_bn(rng, (2, 3, 2, 2)))))
    model = api.build_vickrey_auction(4)
    api.auction_best_response(model, model.grid[2])
    path = workdir / "coverage.json"
    path.write_text(doc)
    api.cli.run_command(["query", str(path), "--prob", "-e", f"{x[0]}=1"], stdout=io.StringIO(), stderr=io.StringIO())
