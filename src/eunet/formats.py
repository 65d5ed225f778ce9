"""Reading and writing network documents.

Two JSON document formats, each tagged by a top-level ``format`` key:

``eun/1`` stores a network verbatim — variable declarations, the ordering,
both arc lists, and the two potential layers ``q`` (probability) and ``w``
(utility) as sparse lists of ratio entries.  Rows where the variable sits at
its reference value are implied to be 1 and the serializer always omits
them, so round trips are bit-identical on the stored entries.

``eun-bn/1`` stores an ordinary Bayes network (directed edges, conditional
probability tables).  ``bn_to_eun`` converts it: the probability layer is
the moral graph with ratio potentials read off the CPTs that mention each
variable (no joint table is built), and the utility layer starts out
identically 1 for the caller to fill in.

Schema violations raise ``SchemaError`` with a dotted key path pointing at
the offending spot.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter, methodcaller

import numpy as np

from .model import (
    PROB,
    UTIL,
    EUNGraph,
    Network,
    RestrictedPotential,
    Space,
    ValidationError,
    VariableSpec,
    _factor_potentials,
    _structure,
    build_network,
)

__all__ = [
    "EUN_FORMAT",
    "BN_FORMAT",
    "SchemaError",
    "BayesNet",
    "parse_network",
    "serialize_network",
    "parse_bayes_net",
    "moral_arcs",
    "bn_to_eun",
]

EUN_FORMAT = "eun/1"
BN_FORMAT = "eun-bn/1"

_LAYER_KEYS = {PROB: "q", UTIL: "w"}


class SchemaError(ValidationError):
    """A document violates the schema; the message names the key path."""


def _fail(path: str, message: str) -> None:
    raise SchemaError(f"{path}: {message}")


def _as_object(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: object, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_number(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        _fail(path, "integer out of float range")


def _require(obj: dict, key: str, path: str) -> object:
    if key not in obj:
        _fail(path, f"missing required key {key!r}")
    return obj[key]


def _reject_unknown(obj: dict, path: str, allowed: frozenset[str]) -> None:
    extra = sorted(set(obj) - allowed)
    if extra:
        _fail(path, f"unknown key {extra[0]!r}")


def _load_document(text: str, expected_format: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    doc = _as_object(doc, "$")
    fmt = _as_str(_require(doc, "format", "$"), "$.format")
    if fmt != expected_format:
        _fail("$.format", f"expected {expected_format!r}, got {fmt!r}")
    return doc


def _parse_variables(raw: object, path: str) -> list[VariableSpec]:
    specs = []
    for k, item in enumerate(_as_list(raw, path)):
        at = f"{path}[{k}]"
        obj = _as_object(item, at)
        _reject_unknown(obj, at, frozenset({"name", "domain", "reference"}))
        name = _as_str(_require(obj, "name", at), f"{at}.name")
        domain = tuple(
            _as_str(v, f"{at}.domain[{j}]")
            for j, v in enumerate(_as_list(_require(obj, "domain", at), f"{at}.domain"))
        )
        reference = None
        if "reference" in obj:
            reference = _as_str(obj["reference"], f"{at}.reference")
        specs.append(VariableSpec(name, domain, reference))
    return specs


def _parse_arcs(raw: object, path: str) -> list[tuple[str, str]]:
    arcs = []
    for k, item in enumerate(_as_list(raw, path)):
        at = f"{path}[{k}]"
        pair = _as_list(item, at)
        if len(pair) != 2:
            _fail(at, f"an arc is a pair of variable names, got {len(pair)} entries")
        arcs.append((_as_str(pair[0], f"{at}[0]"), _as_str(pair[1], f"{at}[1]")))
    return arcs


def _parse_rows(
    rows: object, path: str, parents: Sequence[str], number_key: str, relation: str
) -> Iterator[tuple[str, tuple[str, ...], float]]:
    """Yield ``(row path, (value, *parent values), number)`` per table row.

    Every row names a ``value``, a ``given`` condition on exactly the
    ``parents`` and a number under ``number_key``; ``relation`` finishes the
    message rejecting a condition on anything else ("... is not {relation}").
    """
    seen = set()
    for k, row in enumerate(_as_list(rows, path)):
        rat = f"{path}[{k}]"
        row_obj = _as_object(row, rat)
        _reject_unknown(row_obj, rat, frozenset({"value", "given", number_key}))
        value = _as_str(_require(row_obj, "value", rat), f"{rat}.value")
        given = _as_object(row_obj.get("given", {}), f"{rat}.given")
        for parent in given:
            if parent not in parents:
                _fail(f"{rat}.given", f"{parent!r} is not {relation}")
        missing = [p for p in parents if p not in given]
        if missing:
            _fail(f"{rat}.given", f"missing condition on {missing[0]!r}")
        key = (value,) + tuple(_as_str(given[p], f"{rat}.given.{p}") for p in parents)
        if key in seen:
            _fail(rat, f"duplicate entry for {key!r}")
        seen.add(key)
        yield rat, key, _as_number(_require(row_obj, number_key, rat), f"{rat}.{number_key}")


_NO_CONDITION: dict = {}  # a row's ``given`` when it omits one


def _read_table(
    rows: object, specs: Sequence[VariableSpec], number_key: str
) -> tuple[np.ndarray, np.ndarray] | None:
    """Read a table's rows into ``(table, covered)``, or None.

    ``specs`` are the table's axes, the variable's own first.  One dict per
    axis maps a label to its index times the axis's stride, so a row's
    lookups add up to its flat code in the row-major table.  Each check and
    lookup is one pass over all the rows; codes and numbers are scattered
    into the table once.  ``covered`` marks the entries some row gave; the
    others hold 1.

    Only direct checks run: each row is an object with no unknown key, its
    ``value`` and its ``given`` labels (exactly one per other axis) are in
    their domains, its number is an int or a float, and no code repeats.
    None means a row failed one; the per-row checks of ``_parse_rows`` and
    ``VariableSpec.value_index`` then word the error.
    """
    if type(rows) is not list:
        return None
    offsets = []
    size = 1
    for spec in reversed(specs):
        offsets.append({label: i * size for i, label in enumerate(spec.domain)})
        size *= spec.size
    offsets.reverse()
    n = len(rows)
    try:
        if not set(map(type, rows)) <= {dict}:
            return None
        if set(map(len, rows)) <= {3}:
            # Three keys, each looked up below: exactly the allowed ones.
            givens = list(map(itemgetter("given"), rows))
        elif all(map(frozenset({"value", "given", number_key}).issuperset, rows)):
            givens = list(map(methodcaller("get", "given", _NO_CONDITION), rows))
        else:
            return None
        codes = np.fromiter(map(offsets[0].__getitem__, map(itemgetter("value"), rows)), np.intp, n)
        if not set(map(type, givens)) <= {dict} or not set(map(len, givens)) <= {len(specs) - 1}:
            return None
        for spec, offset in zip(specs[1:], offsets[1:]):
            codes += np.fromiter(
                map(offset.__getitem__, map(itemgetter(spec.name), givens)), np.intp, n
            )
        numbers = list(map(itemgetter(number_key), rows))
        if not set(map(type, numbers)) <= {int, float}:
            return None
        values = np.fromiter(map(float, numbers), float, n)
    except (KeyError, TypeError, OverflowError):
        return None
    counts = np.bincount(codes, minlength=size)
    if np.count_nonzero(counts) < n:  # some code repeats
        return None
    table = np.ones(size)
    table[codes] = values
    shape = tuple(spec.size for spec in specs)
    return table.reshape(shape), counts.astype(bool).reshape(shape)


def _parse_layer_tables(
    raw: object, path: str, layer: str, space: Space, graph: EUNGraph
) -> list[RestrictedPotential]:
    obj = _as_object(raw, path)
    names = set(space.names)
    potentials = []
    for name, rows in obj.items():
        at = f"{path}.{name}"
        if name not in names:
            _fail(at, f"table for undeclared variable {name!r}")
        parents = graph.below_neighbors(layer, name, space.names)
        spec = space.spec(name)
        parent_specs = [space.spec(p) for p in parents]
        read = _read_table(rows, [spec, *parent_specs], "ratio")
        if read is not None:
            potentials.append(RestrictedPotential._from_covered(spec, parent_specs, layer, *read))
            continue
        # A row failed a direct check: the per-row checks word the error.
        relation = (
            f"a below-index neighbour of {name!r} in the {layer} layer "
            f"(expected {sorted(parents)})"
        )
        entries = {
            key: ratio for _, key, ratio in _parse_rows(rows, at, parents, "ratio", relation)
        }
        potentials.append(RestrictedPotential.from_entries(spec, parent_specs, layer, entries))
    return potentials


def parse_network(text: str) -> Network:
    """Parse an ``eun/1`` document into a checked network."""
    doc = _load_document(text, EUN_FORMAT)
    _reject_unknown(
        doc,
        "$",
        frozenset({"format", "variables", "ordering", "prob_arcs", "util_arcs", "q", "w"}),
    )
    specs = _parse_variables(_require(doc, "variables", "$"), "$.variables")
    ordering = tuple(
        _as_str(v, f"$.ordering[{k}]")
        for k, v in enumerate(_as_list(_require(doc, "ordering", "$"), "$.ordering"))
    )
    graph = EUNGraph.of(
        prob_arcs=_parse_arcs(doc.get("prob_arcs", []), "$.prob_arcs"),
        util_arcs=_parse_arcs(doc.get("util_arcs", []), "$.util_arcs"),
        nodes=[s.name for s in specs],
    )
    # A potential's conditioning set comes from the graph and the ordering,
    # so the structure is checked before the tables are read.
    space, checked = _structure(specs, ordering, graph)
    potentials = [
        *_parse_layer_tables(doc.get("q", {}), "$.q", PROB, space, checked),
        *_parse_layer_tables(doc.get("w", {}), "$.w", UTIL, space, checked),
    ]
    return build_network(specs, ordering, graph, potentials)


def serialize_network(network: Network) -> str:
    """Render a network as an ``eun/1`` document.

    Entries are listed in domain index order, reference rows omitted; parsing
    the output reproduces the potential tables bit for bit.
    """
    space = network.space
    variables = [
        {"name": s.name, "domain": list(s.domain), "reference": s.reference}
        for s in space.specs
    ]
    doc: dict[str, object] = {
        "format": EUN_FORMAT,
        "variables": variables,
        "ordering": list(space.names),
        "prob_arcs": sorted(list(a) for a in network.graph.prob_arcs),
        "util_arcs": sorted(list(a) for a in network.graph.util_arcs),
    }
    for layer, key in _LAYER_KEYS.items():
        tables: dict[str, list[dict[str, object]]] = {}
        for name in space.names:
            pot = network.potential(layer, name)
            spec = space.spec(name)
            parent_specs = [space.spec(p) for p in pot.parents]
            if np.all(pot.table == 1.0):
                continue  # the identity table is the parse-side default
            rows = []
            value_range = [i for i in range(spec.size) if i != spec.reference_index]
            for vi in value_range:
                for combo in itertools.product(*(range(p.size) for p in parent_specs)):
                    ratio = float(pot.table[(vi,) + combo])
                    rows.append(
                        {
                            "value": spec.domain[vi],
                            "given": {
                                p.name: p.domain[c]
                                for p, c in zip(parent_specs, combo)
                            },
                            "ratio": ratio,
                        }
                    )
            if rows:
                tables[name] = rows
        doc[key] = tables
    return json.dumps(doc, indent=2) + "\n"


# -- Bayes networks --------------------------------------------------------


@dataclass(frozen=True)
class BayesNet:
    """A parsed Bayes network: variable specs, directed edges, CPTs.

    ``parents`` lists each variable's parents in declaration order, and the
    CPT of a variable has one axis for the variable itself followed by one
    axis per parent in that order.
    """

    specs: tuple[VariableSpec, ...]
    edges: frozenset[tuple[str, str]]
    parents: Mapping[str, tuple[str, ...]]
    cpts: Mapping[str, np.ndarray]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)


def _check_acyclic(names: Sequence[str], edges: frozenset[tuple[str, str]]) -> None:
    children: dict[str, set[str]] = {n: set() for n in names}
    indegree = {n: 0 for n in names}
    for a, b in edges:
        children[a].add(b)
        indegree[b] += 1
    ready = [n for n in names if indegree[n] == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for nxt in children[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    if seen != len(names):
        cyc = sorted(n for n in names if indegree[n] > 0)
        raise SchemaError(f"$.dag_edges: the edges contain a cycle through {cyc}")


def _cpt_rows(
    rows: object, path: str, spec: VariableSpec, parent_specs: Sequence[VariableSpec]
) -> tuple[np.ndarray, np.ndarray]:
    """The per-row checks of a CPT, row by row; they word the error of a
    table that ``_read_table`` refused or that holds a number not above 0."""
    shape = (spec.size,) + tuple(p.size for p in parent_specs)
    table = np.ones(shape)
    covered = np.zeros(shape, dtype=bool)
    parents = tuple(p.name for p in parent_specs)
    for rat, key, prob in _parse_rows(rows, path, parents, "p", f"a parent of {spec.name!r}"):
        idx = (spec.value_index(key[0]),) + tuple(
            p.value_index(label) for p, label in zip(parent_specs, key[1:])
        )
        if math.isnan(prob):
            _fail(f"{rat}.p", f"non-finite entry {prob!r}")
        if prob <= 0.0:
            _fail(f"{rat}.p", f"probabilities must be strictly positive, got {prob!r}")
        table[idx] = prob
        covered[idx] = True
    return table, covered


def parse_bayes_net(text: str) -> BayesNet:
    """Parse an ``eun-bn/1`` document.

    Each variable needs a complete CPT over its parents: strictly positive
    rows summing to 1 (within 1e-9) for every parent configuration.
    """
    doc = _load_document(text, BN_FORMAT)
    _reject_unknown(doc, "$", frozenset({"format", "variables", "dag_edges", "cpts"}))
    specs = _parse_variables(_require(doc, "variables", "$"), "$.variables")
    by_name = {}
    for spec in specs:
        if spec.name in by_name:
            raise ValidationError(f"duplicate variable {spec.name!r}")
        by_name[spec.name] = spec
    names = tuple(s.name for s in specs)

    edges = set()
    for k, item in enumerate(_as_list(_require(doc, "dag_edges", "$"), "$.dag_edges")):
        at = f"$.dag_edges[{k}]"
        pair = _as_list(item, at)
        if len(pair) != 2:
            _fail(at, f"an edge is a [parent, child] pair, got {len(pair)} entries")
        a = _as_str(pair[0], f"{at}[0]")
        b = _as_str(pair[1], f"{at}[1]")
        for n in (a, b):
            if n not in by_name:
                _fail(at, f"edge touches undeclared variable {n!r}")
        if a == b:
            _fail(at, f"self-loop edge on {a!r}")
        edges.add((a, b))
    _check_acyclic(names, frozenset(edges))

    parents = {
        name: tuple(p for p in names if (p, name) in edges) for name in names
    }

    cpts_raw = _as_object(_require(doc, "cpts", "$"), "$.cpts")
    cpts: dict[str, np.ndarray] = {}
    for name in names:
        at = f"$.cpts.{name}"
        if name not in cpts_raw:
            _fail("$.cpts", f"missing required key {name!r}")
        spec = by_name[name]
        parent_specs = [by_name[p] for p in parents[name]]
        read = _read_table(cpts_raw[name], [spec, *parent_specs], "p")
        if read is None or not np.all(read[0] > 0.0):
            read = _cpt_rows(cpts_raw[name], at, spec, parent_specs)
        table, covered = read
        if not covered.all():
            _fail(at, "incomplete table (missing rows for some value combination)")
        sums = table.sum(axis=0)
        if not np.all(np.abs(sums - 1.0) <= 1e-9):
            worst = float(np.max(np.abs(sums - 1.0)))
            _fail(at, f"rows must sum to 1 for every parent configuration (off by {worst:.3g})")
        table.flags.writeable = False
        cpts[name] = table

    unused = sorted(set(cpts_raw) - set(names))
    if unused:
        _fail("$.cpts", f"table for undeclared variable {unused[0]!r}")

    return BayesNet(
        specs=tuple(specs),
        edges=frozenset(edges),
        parents=parents,
        cpts=cpts,
    )


def moral_arcs(bn: BayesNet) -> frozenset[tuple[str, str]]:
    """Parent-child arcs plus marriages between co-parents of each child."""
    arcs = set()
    for a, b in bn.edges:
        arcs.add((a, b) if a < b else (b, a))
    for child in bn.names:
        for a, b in itertools.combinations(bn.parents[child], 2):
            arcs.add((a, b) if a < b else (b, a))
    return frozenset(arcs)


def bn_to_eun(bn: BayesNet) -> Network:
    """Convert a Bayes network to the undirected ratio representation.

    The probability layer is the moral graph.  Each variable's ratio
    potential is read off the CPTs that mention it, its own and its
    children's, so no joint table is built; reconstructing the network's
    joint gives back the Bayes network's distribution.  The utility layer
    is identically 1.
    """
    space = Space(bn.specs)
    factors = [
        ((space.index(name),) + tuple(space.index(p) for p in bn.parents[name]), bn.cpts[name])
        for name in bn.names
    ]
    graph = EUNGraph.of(prob_arcs=moral_arcs(bn), util_arcs=(), nodes=bn.names)
    q_pots = _factor_potentials(factors, space, graph, PROB)
    return build_network(bn.specs, bn.names, graph, q_pots)
