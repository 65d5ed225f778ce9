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
from array import array
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str  # quotes, as json.dumps does

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
    except RecursionError:
        raise SchemaError("invalid JSON: nested deeper than the recursion limit") from None
    doc = _as_object(doc, "$")
    fmt = _as_str(_require(doc, "format", "$"), "$.format")
    if fmt != expected_format:
        _fail("$.format", f"expected {expected_format!r}, got {fmt!r}")
    return doc


_VARIABLE_KEYS = frozenset({"name", "domain", "reference"})


def _parse_variables(raw: object, path: str) -> list[VariableSpec]:
    """The ``variables`` entries, checked in the order their messages name
    them; an entry's key path is built only when one of its checks fails."""
    specs = []
    for k, item in enumerate(_as_list(raw, path)):
        if type(item) is not dict or not item.keys() <= _VARIABLE_KEYS:
            at = f"{path}[{k}]"
            _reject_unknown(_as_object(item, at), at, _VARIABLE_KEYS)
        name = item.get("name")
        if type(name) is not str:
            at = f"{path}[{k}]"
            _as_str(_require(item, "name", at), f"{at}.name")
        domain = item.get("domain")
        if type(domain) is not list or not all(type(v) is str for v in domain):
            at = f"{path}[{k}]"
            for j, v in enumerate(_as_list(_require(item, "domain", at), f"{at}.domain")):
                _as_str(v, f"{at}.domain[{j}]")
        reference = item.get("reference")
        if "reference" in item and type(reference) is not str:
            _as_str(reference, f"{path}[{k}].reference")
        specs.append(VariableSpec(name, tuple(domain), reference))
    return specs


def _pair(item: object, path: str, k: int, what: str) -> tuple[str, str]:
    """Entry ``k`` of an arc or edge list, a pair of names; ``what`` says
    what a pair is, for the message on a wrong length.  The key path is
    built only for an entry that is no pair of strings."""
    if type(item) is list and len(item) == 2 and type(item[0]) is str and type(item[1]) is str:
        return item[0], item[1]
    at = f"{path}[{k}]"
    pair = _as_list(item, at)
    if len(pair) != 2:
        _fail(at, f"{what}, got {len(pair)} entries")
    return _as_str(pair[0], f"{at}[0]"), _as_str(pair[1], f"{at}[1]")


def _parse_arcs(raw: object, path: str) -> list[tuple[str, str]]:
    return [
        _pair(item, path, k, "an arc is a pair of variable names")
        for k, item in enumerate(_as_list(raw, path))
    ]


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
_NUMBERS = (int, float)  # the types a row's number may have


def _table_fault(rows: object, path: str, axes: Sequence[VariableSpec], layer: str | None) -> None:
    """Word the first fault of a table ``_read_layer`` refused, row by row.

    An ``eun/1`` table of ``layer`` goes through ``_parse_rows`` and
    ``RestrictedPotential.from_entries``; a CPT (``layer`` None) through
    ``_parse_rows``, the probability checks, its coverage and its sums.
    """
    spec, *parent_specs = axes
    parents = tuple(p.name for p in parent_specs)
    if layer is not None:
        relation = (
            f"a below-index neighbour of {spec.name!r} in the {layer} layer "
            f"(expected {sorted(parents)})"
        )
        entries = {key: r for _, key, r in _parse_rows(rows, path, parents, "ratio", relation)}
        RestrictedPotential.from_entries(spec, parent_specs, layer, entries)
        return
    shape = tuple(s.size for s in axes)
    table, covered = np.ones(shape), np.zeros(shape, dtype=bool)
    for rat, key, prob in _parse_rows(rows, path, parents, "p", f"a parent of {spec.name!r}"):
        idx = tuple(s.value_index(label) for s, label in zip(axes, key))
        if math.isnan(prob):
            _fail(f"{rat}.p", f"non-finite entry {prob!r}")
        if prob <= 0.0:
            _fail(f"{rat}.p", f"probabilities must be strictly positive, got {prob!r}")
        table[idx], covered[idx] = prob, True
    if not covered.all():
        _fail(path, "incomplete table (missing rows for some value combination)")
    _check_sums(path, table)


def _read_layer(
    layout: Sequence[Sequence[VariableSpec]], walk: Iterable[tuple[int, object]], number_key: str,
    fault: Callable[[int, list[np.ndarray]], None], *, implied: bool,
) -> list[np.ndarray]:
    """A layer's tables as read-only views of one flat buffer.

    ``layout`` gives each table's axes, the variable's own first; the buffer
    holds the tables one after another in that order, row-major, and the
    entries no row gives hold 1.  ``walk`` pairs a table's place in
    ``layout`` with its rows, in the order the tables are read.  ``implied``
    says that a table's reference rows may be left out (``eun/1``); a row
    that gives one must then hold exactly 1.

    One Python pass reads every row.  Per table, one dict per axis maps a
    label to its index times the axis's stride (plus the table's start, on
    the variable's own axis), so a row's lookups add up to its flat code in
    the buffer.  On the way each row is checked: it is an object with no
    unknown key, its ``given`` names exactly the other axes, every label is
    in its domain and the number is a finite, positive int or float.  A
    table needs a row for each entry that is not implied; as no code may
    repeat (one set over the table's codes), counting them says so.  Each
    table is checked whole before the next is read, so the first table
    refused holds the layer's first fault: ``fault(place, tables)`` words it
    and raises, given the views with only the tables read before it.  numpy
    runs once, for the scatter.
    """
    shapes = [[len(s.domain) for s in axes] for axes in layout]
    starts = list(itertools.accumulate(map(math.prod, shapes), initial=0))
    codes, numbers = array("q"), array("d")
    add_code, add_number = codes.append, numbers.append
    inf = math.inf

    def views(count: int) -> list[np.ndarray]:
        """The tables as views of one buffer that holds the first ``count`` rows read."""
        buffer = np.ones(starts[-1])
        buffer[np.frombuffer(codes, np.int64, count)] = np.frombuffer(numbers, count=count)
        buffer.flags.writeable = False
        return [buffer[a:b].reshape(shape) for a, b, shape in zip(starts, starts[1:], shapes)]

    for place, rows in walk:
        axes, start, first = layout[place], starts[place], len(codes)
        size = starts[place + 1] - start
        spec, stride = axes[0], size // len(axes[0].domain)
        own = {label: start + i * stride for i, label in enumerate(spec.domain)}
        # the rows still needed, and the code of the implied rows' first entry
        needed, reference = (size - stride, own[spec.reference]) if implied else (size, -1)
        lookups = []
        for condition in axes[1:]:
            stride //= len(condition.domain)
            offsets = {label: i * stride for i, label in enumerate(condition.domain)}
            lookups.append((condition.name, offsets))
        arity = len(lookups)
        try:
            for row in rows:  # rows that are no list fail below, or raise
                if type(row) is not dict:
                    break
                keys = len(row)
                given = row["given"] if keys == 3 else _NO_CONDITION if keys == 2 else None
                code, number = own[row["value"]], row[number_key]
                if (type(given) is not dict or len(given) != arity
                        or type(number) not in _NUMBERS or not 0.0 < number < inf):
                    break  # NaN fails too
                if code != reference:
                    needed -= 1
                elif number != 1:
                    break
                for name, lookup in lookups:
                    code += lookup[given[name]]
                add_code(code)
                add_number(number)
            else:
                if type(rows) is list and not needed and len(set(codes[first:])) == len(rows):
                    continue
        except (KeyError, TypeError, OverflowError):
            pass
        fault(place, views(first))
        raise AssertionError(f"table {place} was refused, yet its rows show no fault")
    return views(len(codes))


def _read_potentials(
    raw: object, path: str, layer: str, space: Space, graph: EUNGraph
) -> dict[str, RestrictedPotential]:
    """One layer's potentials, each table a read-only view of one buffer.

    The tables are read in the document's key order, and a table for an
    undeclared variable fails at its place in that order.  A variable with
    no table gets the identity table.
    """
    tables = _as_object(raw, path)
    # Each variable's conditioning set, from one pass over the ordering: its
    # neighbours in the layer that come before it, in that order.
    layout, parents, places = [], [], {}
    for place, spec in enumerate(space.specs):
        mantle = graph.neighbors(layer, spec.name)
        below = [s for s in space.specs[:place] if s.name in mantle]
        layout.append((spec, *below))
        parents.append(tuple(s.name for s in below))
        places[spec.name] = place

    walk, stray = [], None
    for name, rows in tables.items():
        if name not in places:
            stray = name  # it fails once the tables before it are read
            break
        walk.append((places[name], rows))

    def fault(place: int, _: list[np.ndarray]) -> None:
        name = space.names[place]
        _table_fault(tables[name], f"{path}.{name}", layout[place], layer)

    views = _read_layer(layout, walk, "ratio", fault, implied=True)
    if stray is not None:
        _fail(f"{path}.{stray}", f"table for undeclared variable {stray!r}")
    return {
        name: RestrictedPotential._checked(name, layer, p, table)
        for name, p, table in zip(space.names, parents, views)
    }


def parse_network(text: str) -> Network:
    """Parse an ``eun/1`` document into a checked network."""
    doc = _load_document(text, EUN_FORMAT)
    _reject_unknown(
        doc,
        "$",
        frozenset({"format", "variables", "ordering", "prob_arcs", "util_arcs", "q", "w"}),
    )
    specs = _parse_variables(_require(doc, "variables", "$"), "$.variables")
    ordering = _as_list(_require(doc, "ordering", "$"), "$.ordering")
    for k, v in enumerate(ordering):
        if type(v) is not str:
            _as_str(v, f"$.ordering[{k}]")
    ordering = tuple(ordering)
    graph = EUNGraph.of(
        prob_arcs=_parse_arcs(doc.get("prob_arcs", []), "$.prob_arcs"),
        util_arcs=_parse_arcs(doc.get("util_arcs", []), "$.util_arcs"),
        nodes=[s.name for s in specs],
    )
    # A potential's conditioning set comes from the graph and the ordering,
    # so the structure is checked before the tables are read.
    space, checked = _structure(specs, ordering, graph)
    layers = {
        layer: _read_potentials(doc.get(key, {}), f"$.{key}", layer, space, checked)
        for layer, key in _LAYER_KEYS.items()
    }
    return Network(space, checked, layers)


def _json_list(items: Sequence[str], indent: int) -> str:
    """A JSON array of already encoded ``items`` as ``json.dumps(indent=2)``
    writes it at ``indent`` spaces."""
    if not items:
        return "[]"
    pad = " " * (indent + 2)
    return "[\n" + ",\n".join([pad + item for item in items]) + "\n" + " " * indent + "]"


def _table_rows(network: Network, layer: str, name: str) -> str | None:
    """A table's rows as a JSON array at indent 4, or None for the identity table."""
    space = network.space
    pot = network.potential(layer, name)
    spec = space.spec(name)
    ratios = pot.table.ravel().tolist()
    row = len(ratios) // spec.size
    del ratios[spec.reference_index * row:(spec.reference_index + 1) * row]
    if ratios.count(1.0) == len(ratios):
        return None  # the identity table is the parse-side default
    conditions = [
        [f"          {_json_str(p)}: {_json_str(label)}" for label in space.spec(p).domain]
        for p in pot.parents
    ]
    givens = [
        "{\n" + ",\n".join(combo) + "\n        }" if combo else "{}"
        for combo in itertools.product(*conditions)
    ]
    heads = [
        f'{{\n        "value": {_json_str(value)},\n        "given": {given},\n        "ratio": '
        for i, value in enumerate(spec.domain) if i != spec.reference_index
        for given in givens
    ]
    return _json_list([h + repr(r) + "\n      }" for h, r in zip(heads, ratios)], 4)


def serialize_network(network: Network) -> str:
    """Render a network as an ``eun/1`` document.

    Entries are listed in domain index order, reference rows omitted; parsing
    the output reproduces the potential tables bit for bit.  The text is
    what ``json.dumps(document, indent=2)`` writes, filled into templates:
    labels through the JSON string encoder, ratios through ``float.__repr__``.
    """
    space = network.space
    variables = [
        f'{{\n      "name": {_json_str(s.name)},\n'
        f'      "domain": {_json_list([_json_str(v) for v in s.domain], 6)},\n'
        f'      "reference": {_json_str(s.reference)}\n    }}'
        for s in space.specs
    ]
    fields = {
        "format": _json_str(EUN_FORMAT),
        "variables": _json_list(variables, 2),
        "ordering": _json_list([_json_str(n) for n in space.names], 2),
    }
    graph = network.graph
    for key, arcs in (("prob_arcs", graph.prob_arcs), ("util_arcs", graph.util_arcs)):
        fields[key] = _json_list([_json_list(list(map(_json_str, a)), 4) for a in sorted(arcs)], 2)
    for layer, key in _LAYER_KEYS.items():
        tables = [(name, _table_rows(network, layer, name)) for name in space.names]
        entries = [f"    {_json_str(name)}: {rows}" for name, rows in tables if rows is not None]
        fields[key] = "{\n" + ",\n".join(entries) + "\n  }" if entries else "{}"
    return "{\n" + ",\n".join([f'  "{key}": {value}' for key, value in fields.items()]) + "\n}\n"


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


def _check_sums(path: str, table: np.ndarray) -> None:
    """A CPT's rows must sum to 1 (within 1e-9); a sum that overflows is no
    warning but a failed check."""
    with np.errstate(over="ignore"):
        worst = float(np.max(np.abs(table.sum(axis=0) - 1.0)))
    if not worst <= 1e-9:
        _fail(path, f"rows must sum to 1 for every parent configuration (off by {worst:.3g})")


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
        a, b = _pair(item, "$.dag_edges", k, "an edge is a [parent, child] pair")
        if a not in by_name or b not in by_name or a == b:
            at = f"$.dag_edges[{k}]"
            for n in (a, b):
                if n not in by_name:
                    _fail(at, f"edge touches undeclared variable {n!r}")
            _fail(at, f"self-loop edge on {a!r}")  # both ends declared: a == b
        edges.add((a, b))
    _check_acyclic(names, frozenset(edges))

    parents = {
        name: tuple(p for p in names if (p, name) in edges) for name in names
    }

    cpts_raw = _as_object(_require(doc, "cpts", "$"), "$.cpts")
    layout = [[by_name[n] for n in (name, *parents[name])] for name in names]

    def fault(place: int, read: list[np.ndarray]) -> None:
        for name, table in zip(names[:place], read):
            _check_sums(f"$.cpts.{name}", table)
        name = names[place]
        if name not in cpts_raw:
            _fail("$.cpts", f"missing required key {name!r}")
        _table_fault(cpts_raw[name], f"$.cpts.{name}", layout[place], None)

    # The CPTs are read in name order; a missing one is refused at its place.
    tables = _read_layer(layout, enumerate(map(cpts_raw.get, names)), "p", fault, implied=False)
    for name, table in zip(names, tables):
        _check_sums(f"$.cpts.{name}", table)
    unused = sorted(set(cpts_raw) - set(names))
    if unused:
        _fail("$.cpts", f"table for undeclared variable {unused[0]!r}")

    return BayesNet(
        specs=tuple(specs),
        edges=frozenset(edges),
        parents=parents,
        cpts=dict(zip(names, tables)),
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
