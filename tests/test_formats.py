"""JSON document handling: the native network format round trip, schema
diagnostics, and Bayes-net import."""

import json
import tracemalloc

import numpy as np
import pytest

import helpers
from eunet import (
    PROB,
    UTIL,
    BayesNet,
    EUNGraph,
    NumericRangeError,
    RestrictedPotential,
    SchemaError,
    ValidationError,
    VariableSpec,
    bn_to_eun,
    build_network,
    build_vickrey_auction,
    joint_ratio,
    moral_arcs,
    parse_bayes_net,
    parse_network,
    reconstruct_joint,
    serialize_network,
)
from eunet import formats
from eunet.formats import _parse_rows


MINIMAL_DOC = """
{
  "format": "eun/1",
  "variables": [
    {"name": "X", "domain": ["0", "1"]},
    {"name": "Y", "domain": ["a", "b", "c"], "reference": "b"}
  ],
  "ordering": ["X", "Y"]
}
"""


def roundtrip(network):
    return parse_network(serialize_network(network))


# -- parsing ----------------------------------------------------------------


def test_minimal_document_parses_to_identity_network():
    net = parse_network(MINIMAL_DOC)
    assert net.ordering == ("X", "Y")
    assert net.space.spec("Y").reference == "b"
    for layer in (PROB, UTIL):
        for name in net.ordering:
            assert np.all(net.potential(layer, name).table == 1.0)


def test_parse_reads_tables_and_arcs():
    doc = {
        "format": "eun/1",
        "variables": [
            {"name": "H", "domain": ["0", "1"]},
            {"name": "W", "domain": ["0", "1"]},
        ],
        "ordering": ["H", "W"],
        "util_arcs": [["H", "W"]],
        "w": {
            "H": [{"value": "1", "given": {}, "ratio": 3.0}],
            "W": [
                {"value": "1", "given": {"H": "0"}, "ratio": 2.0},
                {"value": "1", "given": {"H": "1"}, "ratio": 4.0},
            ],
        },
    }
    net = parse_network(json.dumps(doc))
    assert joint_ratio(net, UTIL, {"H": "1", "W": "1"}) == pytest.approx(
        12.0, rel=1e-12
    )


def test_listed_tables_must_be_complete():
    # omitting a variable's whole section means "identity", but a listed
    # section has to spell out every non-reference row
    doc = {
        "format": "eun/1",
        "variables": [{"name": "X", "domain": ["0", "1", "2"]}],
        "ordering": ["X"],
        "q": {"X": [{"value": "2", "given": {}, "ratio": 5.0}]},
    }
    with pytest.raises(ValidationError, match="incomplete"):
        parse_network(json.dumps(doc))
    doc["q"]["X"].append({"value": "1", "given": {}, "ratio": 3.0})
    table = parse_network(json.dumps(doc)).potential(PROB, "X").table
    assert list(table) == [1.0, 3.0, 5.0]


# -- round trips -------------------------------------------------------------


def test_round_trip_is_byte_stable(chain_net):
    text = serialize_network(chain_net)
    assert serialize_network(parse_network(text)) == text


def test_round_trip_preserves_tables(hw2):
    back = roundtrip(hw2)
    assert back.ordering == hw2.ordering
    for layer in (PROB, UTIL):
        for name in hw2.ordering:
            assert np.array_equal(
                back.potential(layer, name).table,
                hw2.potential(layer, name).table,
            )


def test_round_trip_preserves_graph(chain_net):
    back = roundtrip(chain_net)
    assert back.graph == chain_net.graph


def test_round_trip_on_wide_domains(rng):
    net = helpers.random_network(rng, n_vars=4, domain_sizes=(2, 3, 4))
    back = roundtrip(net)
    for layer in (PROB, UTIL):
        for name in net.ordering:
            assert np.array_equal(
                back.potential(layer, name).table,
                net.potential(layer, name).table,
            )


def test_round_trip_on_auction_network():
    net = build_vickrey_auction(2, epsilon=1e-6).network
    back = roundtrip(net)
    got = reconstruct_joint(back)
    want = reconstruct_joint(net)
    assert np.allclose(got.p, want.p, rtol=1e-12, atol=0.0)
    assert np.allclose(got.u, want.u, rtol=1e-12, atol=0.0)


def test_serializer_omits_reference_rows_and_identity_tables(hw1):
    doc = json.loads(serialize_network(hw1))
    # H and W carry flat probability layers, so the q section is empty
    assert doc["q"] == {}
    assert set(doc["w"]) == {"H", "W"}
    for rows in doc["w"].values():
        for row in rows:
            assert row["value"] != "0"


def test_serialized_reference_is_explicit(hw1):
    doc = json.loads(serialize_network(hw1))
    for var in doc["variables"]:
        assert var["reference"] == var["domain"][0]


# -- schema errors ------------------------------------------------------------


def schema_error(doc) -> str:
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(SchemaError) as err:
        parse_network(text)
    return str(err.value)


def test_invalid_json_is_reported():
    assert "invalid JSON" in schema_error("{not json")


def test_missing_format_key():
    assert "missing required key 'format'" in schema_error(
        {"variables": [], "ordering": []}
    )


def test_wrong_format_value():
    msg = schema_error({"format": "eun/2", "variables": [], "ordering": []})
    assert "eun/1" in msg


def test_unknown_top_level_key():
    doc = json.loads(MINIMAL_DOC)
    doc["extras"] = 1
    assert "extras" in schema_error(doc)


def test_variable_entry_must_be_object():
    doc = json.loads(MINIMAL_DOC)
    doc["variables"][0] = "X"
    assert "$.variables[0]" in schema_error(doc)


def test_variable_missing_domain():
    doc = json.loads(MINIMAL_DOC)
    del doc["variables"][1]["domain"]
    msg = schema_error(doc)
    assert "$.variables[1]" in msg and "'domain'" in msg


def test_domain_values_must_be_strings():
    doc = json.loads(MINIMAL_DOC)
    doc["variables"][0]["domain"] = ["0", 1]
    assert "$.variables[0].domain[1]" in schema_error(doc)


def test_table_for_undeclared_variable():
    doc = json.loads(MINIMAL_DOC)
    doc["q"] = {"Z": []}
    msg = schema_error(doc)
    assert "Z" in msg and "undeclared" in msg


def test_condition_on_non_neighbour():
    doc = json.loads(MINIMAL_DOC)
    doc["q"] = {"Y": [{"value": "a", "given": {"X": "0"}, "ratio": 2.0}]}
    assert "below-index neighbour" in schema_error(doc)


def test_missing_condition_for_neighbour():
    doc = json.loads(MINIMAL_DOC)
    doc["prob_arcs"] = [["X", "Y"]]
    doc["q"] = {"Y": [{"value": "a", "given": {}, "ratio": 2.0}]}
    assert "condition" in schema_error(doc)


def test_duplicate_table_entry():
    doc = json.loads(MINIMAL_DOC)
    doc["q"] = {
        "X": [
            {"value": "1", "given": {}, "ratio": 2.0},
            {"value": "1", "given": {}, "ratio": 3.0},
        ]
    }
    assert "duplicate" in schema_error(doc)


def test_ratio_must_be_a_number():
    doc = json.loads(MINIMAL_DOC)
    doc["q"] = {"X": [{"value": "1", "given": {}, "ratio": "2.0"}]}
    assert "number" in schema_error(doc)


def test_boolean_ratio_rejected():
    doc = json.loads(MINIMAL_DOC)
    doc["q"] = {"X": [{"value": "1", "given": {}, "ratio": True}]}
    assert "number" in schema_error(doc)


def test_model_level_errors_are_not_schema_errors():
    # a structurally valid document with a bad ratio fails model validation
    doc = json.loads(MINIMAL_DOC)
    doc["q"] = {"X": [{"value": "1", "given": {}, "ratio": -2.0}]}
    with pytest.raises(ValidationError) as err:
        parse_network(json.dumps(doc))
    assert not isinstance(err.value, SchemaError)


# -- Bayes net parsing ----------------------------------------------------------


def bn_doc(**overrides):
    doc = {
        "format": "eun-bn/1",
        "variables": [
            {"name": "X", "domain": ["0", "1"]},
            {"name": "Y", "domain": ["0", "1"]},
        ],
        "dag_edges": [["X", "Y"]],
        "cpts": {
            "X": [
                {"value": "0", "given": {}, "p": 0.4},
                {"value": "1", "given": {}, "p": 0.6},
            ],
            "Y": [
                {"value": "0", "given": {"X": "0"}, "p": 0.9},
                {"value": "1", "given": {"X": "0"}, "p": 0.1},
                {"value": "0", "given": {"X": "1"}, "p": 0.2},
                {"value": "1", "given": {"X": "1"}, "p": 0.8},
            ],
        },
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_bayes_net_parses():
    bn = parse_bayes_net(bn_doc())
    assert bn.names == ("X", "Y")
    assert bn.parents["Y"] == ("X",)


def test_bayes_net_rejects_cycles():
    text = bn_doc(dag_edges=[["X", "Y"], ["Y", "X"]])
    with pytest.raises(SchemaError, match="cycle"):
        parse_bayes_net(text)


def test_bayes_net_rejects_self_loop():
    with pytest.raises(SchemaError, match="self"):
        parse_bayes_net(bn_doc(dag_edges=[["X", "X"]]))


def test_bayes_net_rejects_zero_probability():
    bad = json.loads(bn_doc())
    bad["cpts"]["X"][0]["p"] = 0.0
    bad["cpts"]["X"][1]["p"] = 1.0
    with pytest.raises(SchemaError, match="positive"):
        parse_bayes_net(json.dumps(bad))


def test_bayes_net_rejects_bad_row_sum():
    bad = json.loads(bn_doc())
    bad["cpts"]["X"][0]["p"] = 0.5
    with pytest.raises(SchemaError, match="sum"):
        parse_bayes_net(json.dumps(bad))


def test_bayes_net_rejects_incomplete_cpt():
    bad = json.loads(bn_doc())
    del bad["cpts"]["Y"][3]
    with pytest.raises(SchemaError, match="missing|incomplete"):
        parse_bayes_net(json.dumps(bad))


def test_bayes_net_rejects_duplicate_cpt_row():
    bad = json.loads(bn_doc())
    bad["cpts"]["Y"][3] = dict(bad["cpts"]["Y"][2])
    with pytest.raises(SchemaError, match="duplicate"):
        parse_bayes_net(json.dumps(bad))


def test_bayes_net_requires_cpt_for_every_variable():
    bad = json.loads(bn_doc())
    del bad["cpts"]["Y"]
    with pytest.raises(SchemaError, match="Y"):
        parse_bayes_net(json.dumps(bad))


def test_bayes_net_rejects_stray_cpt():
    bad = json.loads(bn_doc())
    bad["cpts"]["Z"] = []
    with pytest.raises(SchemaError, match="Z"):
        parse_bayes_net(json.dumps(bad))


# -- moralisation and conversion ---------------------------------------------------


def test_moral_arcs_of_a_chain():
    bn = parse_bayes_net(bn_doc())
    assert moral_arcs(bn) == frozenset({("X", "Y")})


def test_moral_arcs_marry_coparents():
    doc = {
        "format": "eun-bn/1",
        "variables": [
            {"name": "X", "domain": ["0", "1"]},
            {"name": "Y", "domain": ["0", "1"]},
            {"name": "Z", "domain": ["0", "1"]},
        ],
        "dag_edges": [["X", "Z"], ["Y", "Z"]],
        "cpts": {
            "X": [
                {"value": "0", "given": {}, "p": 0.5},
                {"value": "1", "given": {}, "p": 0.5},
            ],
            "Y": [
                {"value": "0", "given": {}, "p": 0.3},
                {"value": "1", "given": {}, "p": 0.7},
            ],
            "Z": [
                {"value": v, "given": {"X": x, "Y": y}, "p": p}
                for (x, y), row in {
                    ("0", "0"): (0.9, 0.1),
                    ("0", "1"): (0.4, 0.6),
                    ("1", "0"): (0.25, 0.75),
                    ("1", "1"): (0.5, 0.5),
                }.items()
                for v, p in zip(("0", "1"), row)
            ],
        },
    }
    bn = parse_bayes_net(json.dumps(doc))
    arcs = moral_arcs(bn)
    assert arcs == frozenset({("X", "Z"), ("Y", "Z"), ("X", "Y")})
    net = bn_to_eun(bn)
    assert net.graph.prob_arcs == arcs


def test_bn_conversion_reproduces_the_joint():
    bn = parse_bayes_net(bn_doc())
    net = bn_to_eun(bn)
    joint = reconstruct_joint(net).p
    want = np.array(
        [[0.4 * 0.9, 0.4 * 0.1], [0.6 * 0.2, 0.6 * 0.8]]
    )
    assert np.allclose(joint, want, rtol=1e-12, atol=0.0)


def test_bn_conversion_ratio_tables():
    bn = parse_bayes_net(bn_doc())
    net = bn_to_eun(bn)
    table = net.potential(PROB, "Y").table
    # conditional ratio p(y|x) / p(y0|x)
    assert table[1, 0] == pytest.approx(0.1 / 0.9, rel=1e-12)
    assert table[1, 1] == pytest.approx(0.8 / 0.2, rel=1e-12)


def test_bn_conversion_is_graph_consistent():
    bn = parse_bayes_net(bn_doc())
    assert bn_to_eun(bn).imap_report().ok


def test_bn_conversion_has_flat_utility_layer():
    bn = parse_bayes_net(bn_doc())
    net = bn_to_eun(bn)
    for name in net.ordering:
        assert np.all(net.potential(UTIL, name).table == 1.0)
    assert net.graph.util_arcs == frozenset()


def test_auction_shaped_bayes_net_moralises_like_the_auction():
    doc = {
        "format": "eun-bn/1",
        "variables": [
            {"name": n, "domain": ["0", "1"]} for n in ("V", "B", "S", "C", "A")
        ],
        "dag_edges": [["V", "B"], ["S", "C"], ["B", "A"], ["C", "A"]],
        "cpts": {
            "V": [
                {"value": "0", "given": {}, "p": 0.5},
                {"value": "1", "given": {}, "p": 0.5},
            ],
            "S": [
                {"value": "0", "given": {}, "p": 0.5},
                {"value": "1", "given": {}, "p": 0.5},
            ],
            "B": [
                {"value": v, "given": {"V": pv}, "p": p}
                for pv, row in (("0", (0.8, 0.2)), ("1", (0.3, 0.7)))
                for v, p in zip(("0", "1"), row)
            ],
            "C": [
                {"value": v, "given": {"S": pv}, "p": p}
                for pv, row in (("0", (0.6, 0.4)), ("1", (0.1, 0.9)))
                for v, p in zip(("0", "1"), row)
            ],
            "A": [
                {"value": v, "given": {"B": b, "C": c}, "p": p}
                for (b, c), row in {
                    ("0", "0"): (0.5, 0.5),
                    ("0", "1"): (0.9, 0.1),
                    ("1", "0"): (0.2, 0.8),
                    ("1", "1"): (0.45, 0.55),
                }.items()
                for v, p in zip(("0", "1"), row)
            ],
        },
    }
    bn = parse_bayes_net(json.dumps(doc))
    assert moral_arcs(bn) == frozenset(
        {("B", "V"), ("A", "B"), ("A", "C"), ("B", "C"), ("C", "S")}
    )
    net = bn_to_eun(bn)
    joint = reconstruct_joint(net).p
    # spot-check one cell of the reconstructed joint
    want = 0.5 * 0.5 * 0.7 * 0.6 * 0.8  # V=1, S=0, B=1, C=0, A=1
    axes = {n: i for i, n in enumerate(net.ordering)}
    idx = [0] * 5
    for n, v in (("V", 1), ("S", 0), ("B", 1), ("C", 0), ("A", 1)):
        idx[axes[n]] = v
    assert joint[tuple(idx)] == pytest.approx(want, rel=1e-12)


def bn_factors(bn, space):
    return [
        ((space.index(name),) + tuple(space.index(p) for p in bn.parents[name]), bn.cpts[name])
        for name in bn.names
    ]


@pytest.mark.parametrize("seed", range(8))
def test_bn_conversion_matches_the_factor_oracle(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(2, 4, int(rng.integers(4, 7))))
    bn = helpers.random_bayes_net(rng, sizes)
    assert len(bn.parents[bn.names[3]]) == 3
    net = bn_to_eun(bn)
    want = helpers.oracle_factor_potentials(
        net.space, bn_factors(bn, net.space), lambda name: net.below_neighbors(PROB, name)
    )
    for name in net.ordering:
        got = net.potential(PROB, name).table
        assert np.allclose(got, want[name], rtol=1e-12, atol=0.0), name


def test_bn_conversion_above_the_cap_holds_no_joint():
    # A chain of 24 binary variables: 16.7M states, a 128 MiB joint.
    rng = np.random.default_rng(3)
    names = [f"X{i:02d}" for i in range(24)]
    parents = {n: tuple(names[i - 1 : i]) for i, n in enumerate(names)}
    cpts = {}
    for n in names:
        raw = rng.uniform(0.2, 1.0, (2,) * (1 + len(parents[n])))
        cpts[n] = raw / raw.sum(axis=0, keepdims=True)
    bn = BayesNet(
        specs=tuple(VariableSpec(n, ("0", "1")) for n in names),
        edges=frozenset((p, n) for n in names for p in parents[n]),
        parents=parents,
        cpts=cpts,
    )
    tracemalloc.start()
    try:
        net = bn_to_eun(bn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.state_count == 2**24
    assert peak < 2**20
    want = helpers.oracle_factor_potentials(
        net.space, bn_factors(bn, net.space), lambda name: net.below_neighbors(PROB, name)
    )
    for name in names:
        assert np.allclose(net.potential(PROB, name).table, want[name], rtol=1e-12, atol=0.0)


def test_bn_conversion_underflow_is_a_numeric_range_error():
    # The document is valid: X's ratio 4e-400 is a float-range fault, not a model one.
    bn = parse_bayes_net(helpers.underflow_bn_doc())
    with pytest.raises(NumericRangeError, match="ratio window of 'X' holds an inf or 0 entry"):
        bn_to_eun(bn)


def test_parse_builds_one_graph(monkeypatch):
    built = []
    post_init = EUNGraph.__post_init__
    monkeypatch.setattr(EUNGraph, "__post_init__", lambda self: built.append(post_init(self)))
    names = [f"X{i:02d}" for i in range(12)]
    text = serialize_network(helpers.chain_net(2, dict.fromkeys(names, 3), names))
    built.clear()
    net = parse_network(text)
    assert len(built) == 1
    assert net.graph.nodes == frozenset(names)


def test_document_order_is_the_conversion_ordering():
    bn = parse_bayes_net(bn_doc())
    assert bn_to_eun(bn).ordering == ("X", "Y")


# -- the one-pass table reader against the per-row oracle -------------------------


def oracle_potential(network, layer, name, rows, at):
    """The row-by-row route: ``_parse_rows`` then ``from_entries``."""
    spec = network.space.spec(name)
    parents = network.below_neighbors(layer, name)
    entries = {key: r for _, key, r in _parse_rows(rows, at, parents, "ratio", "a neighbour")}
    return RestrictedPotential.from_entries(
        spec, [network.space.spec(p) for p in parents], layer, entries
    )


def scrambled(doc, rng):
    """The same network in another valid spelling: rows shuffled, ``given``
    keys reordered, some reference rows written out, and some empty
    ``given`` objects left out."""
    doc = json.loads(json.dumps(doc))
    refs = {v["name"]: v["reference"] for v in doc["variables"]}
    for key in ("q", "w"):
        for name, rows in doc[key].items():
            for row in rows:
                items = list(row["given"].items())
                rng.shuffle(items)
                row["given"] = dict(items)
                if not items and rng.random() < 0.5:
                    del row["given"]
            extra = [
                {"value": refs[name], "given": dict(row.get("given", {})), "ratio": 1.0}
                for row in rows
                if row["value"] == rows[0]["value"] and rng.random() < 0.3
            ]
            rows.extend(extra)
            order = rng.permutation(len(rows))
            doc[key][name] = [rows[int(i)] for i in order]
    return doc


def per_row_checks_run(*args):
    raise AssertionError("the per-row checks ran on a valid document")


def test_reader_matches_row_by_row_oracle_on_random_networks(monkeypatch):
    # The per-row checks only word errors; valid documents never reach them.
    monkeypatch.setattr(formats, "_parse_rows", per_row_checks_run)
    rng = np.random.default_rng(2024)
    for trial in range(24):
        base = helpers.random_network(
            rng, n_vars=int(rng.integers(2, 6)), domain_sizes=(2, 3, 4),
            arc_prob=0.5, random_references=True,
        )
        # Leave some tables out: they parse back as identity tables.
        kept = [
            base.potential(layer, name)
            for layer in (PROB, UTIL)
            for name in base.ordering
            if rng.random() < 0.7
        ]
        net = build_network(base.space.specs, base.ordering, base.graph, kept)
        doc = json.loads(serialize_network(net))
        if trial % 2:
            doc = scrambled(doc, rng)
        parsed = parse_network(json.dumps(doc))
        for layer, key in ((PROB, "q"), (UTIL, "w")):
            for name in net.ordering:
                got = parsed.potential(layer, name).table
                assert got.tobytes() == net.potential(layer, name).table.tobytes()
                if name in doc[key]:
                    want = oracle_potential(net, layer, name, doc[key][name], f"$.{key}.{name}")
                    assert got.tobytes() == want.table.tobytes()


def test_cpt_reader_matches_row_by_row_oracle(monkeypatch):
    monkeypatch.setattr(formats, "_parse_rows", per_row_checks_run)
    rng = np.random.default_rng(7)
    for _ in range(10):
        doc = json.loads(bn_doc())
        for rows in doc["cpts"].values():
            for k in range(0, len(rows), 2):
                p = float(rng.uniform(0.05, 0.95))
                rows[k]["p"], rows[k + 1]["p"] = p, 1.0 - p
            rng.shuffle(rows)
        bn = parse_bayes_net(json.dumps(doc))
        for name in ("X", "Y"):
            parents = bn.parents[name]
            specs = [bn.specs[bn.names.index(v)] for v in (name, *parents)]
            want = np.zeros(bn.cpts[name].shape)
            for _, key, p in _parse_rows(doc["cpts"][name], "$", parents, "p", "a parent"):
                want[tuple(s.value_index(label) for s, label in zip(specs, key))] = p
            assert bn.cpts[name].tobytes() == want.tobytes()


def fault_doc():
    """X binary; Y over a, b, c with reference b and X as its one neighbour."""
    return {
        "format": "eun/1",
        "variables": [
            {"name": "X", "domain": ["0", "1"]},
            {"name": "Y", "domain": ["a", "b", "c"], "reference": "b"},
        ],
        "ordering": ["X", "Y"],
        "prob_arcs": [["X", "Y"]],
        "q": {
            "X": [{"value": "1", "given": {}, "ratio": 2.0}],
            "Y": [
                {"value": v, "given": {"X": x}, "ratio": r}
                for (v, x), r in zip(
                    [("a", "0"), ("a", "1"), ("c", "0"), ("c", "1")], (0.5, 1.5, 2.5, 3.5)
                )
            ],
        },
    }


def _set(path, value):
    def mutate(doc):
        *head, last = path
        target = doc
        for step in head:
            target = target[step]
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
    return mutate


_DELETE = object()
_NAN = float("nan")
NOT_NEIGHBOUR = "is not a below-index neighbour of 'X' in the prob layer (expected [])"
NON_UNIT = "non-unit reference row (entries at the reference value must equal 1 exactly)"
INCOMPLETE = "potential table incomplete (missing rows for some value combination)"

EUN_FAULTS = [
    (_set(["q", "Y"], {}), SchemaError, "$.q.Y: expected an array, got dict"),
    (_set(["q", "Y", 1], "row"), SchemaError, "$.q.Y[1]: expected an object, got str"),
    (_set(["q", "Y", 0, "weight"], 1), SchemaError, "$.q.Y[0]: unknown key 'weight'"),
    (_set(["q", "Y", 2, "value"], _DELETE), SchemaError,
     "$.q.Y[2]: missing required key 'value'"),
    (_set(["q", "Y", 3, "ratio"], _DELETE), SchemaError,
     "$.q.Y[3]: missing required key 'ratio'"),
    (_set(["q", "Y", 0, "value"], 1), SchemaError,
     "$.q.Y[0].value: expected a string, got int"),
    (_set(["q", "Y", 1, "given", "X"], 0), SchemaError,
     "$.q.Y[1].given.X: expected a string, got int"),
    (_set(["q", "Y", 1, "given"], ["X"]), SchemaError,
     "$.q.Y[1].given: expected an object, got list"),
    (_set(["q", "Y", 2, "value"], "z"), ValidationError,
     "variable 'Y': assignment value 'z' outside domain ('a', 'b', 'c')"),
    (_set(["q", "Y", 2, "given", "X"], "2"), ValidationError,
     "variable 'X': assignment value '2' outside domain ('0', '1')"),
    (_set(["q", "X", 0, "given"], {"Y": "a"}), SchemaError,
     f"$.q.X[0].given: 'Y' {NOT_NEIGHBOUR}"),
    (_set(["q", "Y", 0, "given"], {}), SchemaError,
     "$.q.Y[0].given: missing condition on 'X'"),
    (_set(["q", "Y", 0, "given"], _DELETE), SchemaError,
     "$.q.Y[0].given: missing condition on 'X'"),
    (_set(["q", "Y", 1, "ratio"], True), SchemaError,
     "$.q.Y[1].ratio: expected a number, got bool"),
    (_set(["q", "Y", 1, "ratio"], "1.5"), SchemaError,
     "$.q.Y[1].ratio: expected a number, got str"),
    (_set(["q", "Y", 3], {"value": "a", "given": {"X": "1"}, "ratio": 1.5}), SchemaError,
     "$.q.Y[3]: duplicate entry for ('a', '1')"),
    (_set(["q", "Y", 3], _DELETE), ValidationError, f"potential for 'Y'/prob: {INCOMPLETE}"),
    (lambda d: d["q"]["Y"].append({"value": "b", "given": {"X": "0"}, "ratio": 2.0}),
     ValidationError,
     f"potential for 'Y'/prob: {NON_UNIT}"),
    (_set(["q", "Y", 0, "ratio"], -1.5), ValidationError,
     "potential for 'Y'/prob: non-positive potential entry"),
    (_set(["q", "Y", 0, "ratio"], 0), ValidationError,
     "potential for 'Y'/prob: non-positive potential entry"),
    (_set(["q", "Y", 0, "ratio"], float("inf")), ValidationError,
     "potential for 'Y'/prob: non-finite entry"),
    (_set(["q", "Y", 0, "ratio"], _NAN), ValidationError,
     "potential for 'Y'/prob: non-finite entry"),
    (_set(["q", "Y", 2, "ratio"], 10**400), SchemaError,
     "$.q.Y[2].ratio: integer out of float range"),
    # Two faults: every row passes the row checks before any label is
    # looked up in its domain, as the per-row checks always did.
    (lambda d: (_set(["q", "Y", 0, "value"], "z")(d), _set(["q", "Y", 3, "weight"], 1)(d)),
     SchemaError, "$.q.Y[3]: unknown key 'weight'"),
    # A missing row is reported before a bad number elsewhere in the table.
    (lambda d: (_set(["q", "Y", 3], _DELETE)(d), _set(["q", "Y", 0, "ratio"], _NAN)(d)),
     ValidationError, f"potential for 'Y'/prob: {INCOMPLETE}"),
]


@pytest.mark.parametrize("mutate, kind, message", EUN_FAULTS)
def test_one_fault_eun_documents_keep_their_errors(mutate, kind, message):
    doc = fault_doc()
    mutate(doc)
    with pytest.raises(ValidationError) as err:
        parse_network(json.dumps(doc))
    assert type(err.value) is kind
    assert str(err.value) == message


BN_FAULTS = [
    (_set(["cpts", "Y", 1], 3), "$.cpts.Y[1]: expected an object, got int"),
    (_set(["cpts", "Y", 0, "q"], 0.1), "$.cpts.Y[0]: unknown key 'q'"),
    (_set(["cpts", "Y", 2, "value"], _DELETE), "$.cpts.Y[2]: missing required key 'value'"),
    (_set(["cpts", "X", 0, "p"], _DELETE), "$.cpts.X[0]: missing required key 'p'"),
    (_set(["cpts", "Y", 0, "value"], 0), "$.cpts.Y[0].value: expected a string, got int"),
    (_set(["cpts", "X", 0, "given"], {"Y": "0"}), "$.cpts.X[0].given: 'Y' is not a parent of 'X'"),
    (_set(["cpts", "Y", 1, "given"], {}), "$.cpts.Y[1].given: missing condition on 'X'"),
    (_set(["cpts", "Y", 1, "p"], False), "$.cpts.Y[1].p: expected a number, got bool"),
    (_set(["cpts", "Y", 1, "p"], "0.1"), "$.cpts.Y[1].p: expected a number, got str"),
    (_set(["cpts", "Y", 1], {"value": "0", "given": {"X": "0"}, "p": 0.9}),
     "$.cpts.Y[1]: duplicate entry for ('0', '0')"),
    (_set(["cpts", "Y", 3], _DELETE),
     "$.cpts.Y: incomplete table (missing rows for some value combination)"),
    (_set(["cpts", "X", 1, "p"], -0.6),
     "$.cpts.X[1].p: probabilities must be strictly positive, got -0.6"),
    (_set(["cpts", "X", 1, "p"], _NAN), "$.cpts.X[1].p: non-finite entry nan"),
    (_set(["cpts", "Y", 2, "p"], 10**400), "$.cpts.Y[2].p: integer out of float range"),
    (_set(["cpts", "X", 1, "p"], 0.7),
     "$.cpts.X: rows must sum to 1 for every parent configuration (off by 0.1)"),
    # A sum past float range fails the check with no overflow warning.
    (lambda d: (_set(["cpts", "X", 0, "p"], 1e308)(d), _set(["cpts", "X", 1, "p"], 1e308)(d)),
     "$.cpts.X: rows must sum to 1 for every parent configuration (off by inf)"),
    # Two faults: the CPT rows are checked one row at a time.
    (lambda d: (_set(["cpts", "Y", 0, "p"], 0)(d), _set(["cpts", "Y", 2, "q"], 1)(d)),
     "$.cpts.Y[0].p: probabilities must be strictly positive, got 0.0"),
]


@pytest.mark.parametrize("mutate, message", BN_FAULTS)
def test_one_fault_bn_documents_keep_their_errors(mutate, message):
    doc = json.loads(bn_doc())
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        parse_bayes_net(json.dumps(doc))
    assert str(err.value) == message


STRUCTURE_FAULTS = [
    (_set(["variables", 0], "X"), "$.variables[0]: expected an object, got str"),
    (_set(["variables", 0, "weight"], 1), "$.variables[0]: unknown key 'weight'"),
    (_set(["variables", 1, "name"], _DELETE), "$.variables[1]: missing required key 'name'"),
    (_set(["variables", 1, "name"], 0), "$.variables[1].name: expected a string, got int"),
    (_set(["variables", 1, "domain"], _DELETE), "$.variables[1]: missing required key 'domain'"),
    (_set(["variables", 0, "domain"], "01"), "$.variables[0].domain: expected an array, got str"),
    (_set(["variables", 0, "domain"], None),
     "$.variables[0].domain: expected an array, got NoneType"),
    (_set(["variables", 1, "domain", 2], ["c"]),
     "$.variables[1].domain[2]: expected a string, got list"),
    (_set(["variables", 1, "reference"], None),
     "$.variables[1].reference: expected a string, got NoneType"),
    (_set(["variables", 0, "reference"], 0), "$.variables[0].reference: expected a string, got int"),
    # Two faults in one entry: the first check in the per-entry order words it.
    (lambda d: (_set(["variables", 1, "name"], 0)(d), _set(["variables", 1, "domain"], _DELETE)(d)),
     "$.variables[1].name: expected a string, got int"),
    (lambda d: (_set(["variables", 1, "x"], 0)(d), _set(["variables", 1, "name"], 0)(d)),
     "$.variables[1]: unknown key 'x'"),
    (lambda d: (_set(["variables", 1, "domain", 0], 0)(d), _set(["variables", 1, "reference"], 0)(d)),
     "$.variables[1].domain[0]: expected a string, got int"),
    (_set(["ordering", 1], True), "$.ordering[1]: expected a string, got bool"),
    (_set(["prob_arcs"], [["X", "Y"], ["X"]]),
     "$.prob_arcs[1]: an arc is a pair of variable names, got 1 entries"),
    (_set(["prob_arcs", 0], ["X", "Y", "X"]),
     "$.prob_arcs[0]: an arc is a pair of variable names, got 3 entries"),
    (_set(["prob_arcs", 0], "X-Y"), "$.prob_arcs[0]: expected an array, got str"),
    (_set(["util_arcs"], [["X", 0]]), "$.util_arcs[0][1]: expected a string, got int"),
]


@pytest.mark.parametrize("mutate, message", STRUCTURE_FAULTS)
def test_structure_faults_keep_their_errors(mutate, message):
    doc = fault_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        parse_network(json.dumps(doc))
    assert str(err.value) == message


EDGE_FAULTS = [
    ([["X"]], "$.dag_edges[0]: an edge is a [parent, child] pair, got 1 entries"),
    ([["X", "Y"], [0, "Y"]], "$.dag_edges[1][0]: expected a string, got int"),
    ([["X", "Q"]], "$.dag_edges[0]: edge touches undeclared variable 'Q'"),
    ([["Y", "Y"]], "$.dag_edges[0]: self-loop edge on 'Y'"),
]


@pytest.mark.parametrize("edges, message", EDGE_FAULTS)
def test_edge_faults_keep_their_errors(edges, message):
    with pytest.raises(SchemaError) as err:
        parse_bayes_net(bn_doc(dag_edges=edges))
    assert str(err.value) == message


@pytest.mark.parametrize("label, where", [("2", "value"), ("2", "given")])
def test_cpt_label_outside_domain(label, where):
    doc = json.loads(bn_doc())
    row = doc["cpts"]["Y"][1]
    if where == "value":
        row["value"] = label
    else:
        row["given"]["X"] = label
    with pytest.raises(ValidationError) as err:
        parse_bayes_net(json.dumps(doc))
    assert type(err.value) is ValidationError
    assert str(err.value) == "variable {!r}: assignment value '2' outside domain ('0', '1')".format(
        "Y" if where == "value" else "X"
    )


# -- the first fault in document order, across tables and layers -------------------


def _w_layer(doc):
    """fault_doc with a utility layer too: X and Y have no utility neighbours."""
    doc["w"] = {
        "X": [{"value": "1", "given": {}, "ratio": 1.5}],
        "Y": [{"value": v, "given": {}, "ratio": r} for v, r in (("a", 0.25), ("c", 4.0))],
    }
    return doc


def _reorder(key, names):
    def mutate(doc):
        doc[key] = {name: doc[key][name] for name in names}
    return mutate


def _chain(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


UNDECLARED = [{"value": "1", "given": {}, "ratio": 2.0}]

EUN_FIRST_FAULTS = [
    # A late check on q.Y (read, then refused as non-positive) before a row fault in q.X.
    (_chain(_reorder("q", ["Y", "X"]), _set(["q", "Y", 0, "ratio"], -1.5),
            _set(["q", "X", 0, "weight"], 1)),
     ValidationError, "potential for 'Y'/prob: non-positive potential entry"),
    (_chain(_set(["q", "Y", 0, "ratio"], -1.5), _set(["q", "X", 0, "weight"], 1)),
     SchemaError, "$.q.X[0]: unknown key 'weight'"),
    (_chain(_reorder("q", ["Y", "X"]), _set(["q", "Y", 3], _DELETE),
            _set(["q", "X", 0, "value"], "7")),
     ValidationError, f"potential for 'Y'/prob: {INCOMPLETE}"),
    # A bad q table before a bad w table, and a clean q before a bad w.
    (_chain(_w_layer, _set(["q", "Y", 1, "ratio"], _NAN), _set(["w", "X", 0, "given"], [])),
     ValidationError, "potential for 'Y'/prob: non-finite entry"),
    (_chain(_w_layer, lambda d: d["q"]["X"].append({"value": "0", "given": {}, "ratio": 2.0}),
            _set(["w", "Y", 0, "ratio"], 0)),
     ValidationError, f"potential for 'X'/prob: {NON_UNIT}"),
    (_chain(_w_layer, _set(["w", "Y", 1, "ratio"], float("inf"))),
     ValidationError, "potential for 'Y'/util: non-finite entry"),
    (_chain(_w_layer, _set(["w", "X", 0, "given"], {"Y": "a"})),
     SchemaError,
     "$.w.X[0].given: 'Y' is not a below-index neighbour of 'X' in the util layer (expected [])"),
    # A bad table before a table for an undeclared variable, and after one.
    (_chain(_set(["q", "Y", 2, "ratio"], 0), _set(["q", "Z"], UNDECLARED)),
     ValidationError, "potential for 'Y'/prob: non-positive potential entry"),
    (_chain(_set(["q", "Z"], UNDECLARED), _reorder("q", ["Z", "X", "Y"]),
            _set(["q", "Y", 2, "ratio"], 0)),
     SchemaError, "$.q.Z: table for undeclared variable 'Z'"),
    (_chain(_w_layer, _set(["q", "Y", 2, "ratio"], 0), _set(["w", "Z"], UNDECLARED)),
     ValidationError, "potential for 'Y'/prob: non-positive potential entry"),
]


@pytest.mark.parametrize("mutate, kind, message", EUN_FIRST_FAULTS)
def test_first_fault_in_document_order_wins(mutate, kind, message):
    doc = fault_doc()
    mutate(doc)
    with pytest.raises(ValidationError) as err:
        parse_network(json.dumps(doc))
    assert type(err.value) is kind
    assert str(err.value) == message


BN_FIRST_FAULTS = [
    # A bad second CPT after a clean first one.
    (_set(["cpts", "Y", 2, "p"], 0),
     "$.cpts.Y[2].p: probabilities must be strictly positive, got 0.0"),
    (_set(["cpts", "Y", 3, "p"], 0.5),
     "$.cpts.Y: rows must sum to 1 for every parent configuration (off by 0.3)"),
    # Faults only the layer checks see come before a row fault in a later CPT.
    (_chain(_set(["cpts", "X", 1, "p"], 0.7), _set(["cpts", "Y", 0, "q"], 1)),
     "$.cpts.X: rows must sum to 1 for every parent configuration (off by 0.1)"),
    (_chain(_set(["cpts", "X", 1], _DELETE), _set(["cpts", "Y", 0, "value"], 0)),
     "$.cpts.X: incomplete table (missing rows for some value combination)"),
    (_chain(_set(["cpts", "X", 0, "p"], _NAN), _set(["cpts", "Z"], [])),
     "$.cpts.X[0].p: non-finite entry nan"),
    # The CPTs are checked in declaration order, not in document order.
    (_chain(_reorder("cpts", ["Y", "X"]), _set(["cpts", "Y", 1, "p"], -0.1),
            _set(["cpts", "X", 0, "p"], 0.0)),
     "$.cpts.X[0].p: probabilities must be strictly positive, got 0.0"),
]


@pytest.mark.parametrize("mutate, message", BN_FIRST_FAULTS)
def test_first_cpt_fault_wins(mutate, message):
    doc = json.loads(bn_doc())
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        parse_bayes_net(json.dumps(doc))
    assert str(err.value) == message


# -- the layer reader against the per-row route on a mutated corpus ------------------


_LABELS = ["z", "0", "1", "a", "b", "c", "", 0, None]
_NUMBERS = [0, 1, 2, -1.5, 0.0, -0.0, 0.5, 0.9, 2.0, 1e308, _NAN, float("inf"), 10**400, True, "1"]
_GIVENS = [{}, [], {"X": "0"}, {"X": "9"}, {"Q": "0"}, None]


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _mutate(doc, layer_keys, number_key, rng):
    """Break one spot of ``doc``: a layer, a table, a row or a row's field."""
    key = _pick(rng, layer_keys)
    tables = doc.setdefault(key, {})
    if type(tables) is not dict or not tables or rng.random() < 0.1:
        names = [v["name"] for v in doc["variables"]]
        doc[key] = _pick(rng, [
            [], "q",
            {"Z": []},
            dict(reversed(list(tables.items()))) if type(tables) is dict else {},
            {**tables, "Z": UNDECLARED} if type(tables) is dict else {},
            {name: [] for name in names},
        ])
        return
    name = _pick(rng, list(tables))
    rows = tables[name]
    if type(rows) is not list or not rows or rng.random() < 0.15:
        if type(rows) is not list or not rows:
            rows = [{"value": "1", "given": {}, number_key: 2.0}]
        refs = {v["name"]: v.get("reference", v["domain"][0]) for v in doc["variables"]}
        last = rows[-1] if type(rows[-1]) is dict else {}
        tables[name] = _pick(rng, [
            {}, 1, [], None, rows[:-1], rows + rows[:1], list(reversed(rows)),
            rows + [{**last, "value": refs.get(name, "0")}],
        ])
        return
    k = int(rng.integers(len(rows)))
    row = rows[k]
    if type(row) is not dict or rng.random() < 0.05:
        rows[k] = _pick(rng, ["row", 3, [], None])
        return
    field = _pick(rng, ["value", "given", number_key, number_key, number_key, "weight"])
    pool = {"value": _LABELS, "given": _GIVENS, number_key: _NUMBERS}.get(field, _LABELS)
    given = row.get("given")
    if field == "given" and type(given) is dict and given and rng.random() < 0.5:
        parent = _pick(rng, list(given))
        if rng.random() < 0.3:
            del given[parent]
        else:
            given[parent] = _pick(rng, _LABELS)
    elif field in row and rng.random() < 0.15:
        del row[field]
    else:
        row[field] = _pick(rng, pool)


_NOT_STRINGS = [0, None, ["X"], {}, True]


def _mutate_structure(doc, rng):
    """Break one entry of ``variables``, of ``ordering`` or of an arc list
    (``dag_edges`` in a Bayes network document)."""
    names = [v["name"] for v in doc["variables"] if type(v) is dict and "name" in v]
    arc_keys = ["dag_edges"] if "cpts" in doc else ["prob_arcs", "util_arcs"]
    part = _pick(rng, ["variables", "arcs", "arcs"] + (["ordering"] if "cpts" not in doc else []))
    if part == "variables":
        k = int(rng.integers(len(doc["variables"])))
        entry = doc["variables"][k]
        fault = _pick(rng, [
            "name", "label", "unknown", "domain", "null reference", "reference",
            "no name", "no domain", "entry", "one label", "empty name", "duplicate",
        ])
        if fault == "entry":
            doc["variables"][k] = _pick(rng, ["X", [], None, 1])
        elif fault == "duplicate":
            doc["variables"].append(dict(entry))
        elif fault == "name":
            entry["name"] = _pick(rng, _NOT_STRINGS)
        elif fault == "empty name":
            entry["name"] = ""
        elif fault == "label":
            entry["domain"][int(rng.integers(len(entry["domain"])))] = _pick(rng, _NOT_STRINGS)
        elif fault == "unknown":
            entry[_pick(rng, ["weight", "Name", ""])] = 1
        elif fault == "domain":
            entry["domain"] = _pick(rng, ["01", {"0": 1}, None, 2])
        elif fault == "null reference":
            entry["reference"] = None
        elif fault == "reference":
            entry["reference"] = _pick(rng, [0, "9", ["0"]])
        elif fault == "one label":
            entry["domain"] = entry["domain"][:1]
        else:
            del entry[fault.split()[1]]
    elif part == "ordering":
        ordering = doc["ordering"]
        k = int(rng.integers(len(ordering)))
        fault = _pick(rng, ["item", "item", "drop", "repeat", "array"])
        if fault == "item":
            ordering[k] = _pick(rng, _NOT_STRINGS)
        elif fault == "drop":
            del ordering[k]
        elif fault == "repeat":
            ordering.append(ordering[k])
        else:
            doc["ordering"] = _pick(rng, ["X", {}, None])
    else:
        key = _pick(rng, arc_keys)
        arcs = doc.setdefault(key, [])
        if type(arcs) is not list or rng.random() < 0.1:
            doc[key] = _pick(rng, [{}, "X", None, [[]]])
            return
        a, b = (_pick(rng, names) for _ in range(2)) if names else ("X", "Y")
        arc = _pick(rng, [
            [a], [a, b, a], [a, 0], [None, b], ["Q", b], [a, a], f"{a}-{b}", {a: b}, [], [a, ["Y"]],
        ])
        if arcs and rng.random() < 0.5:
            arcs[int(rng.integers(len(arcs)))] = arc
        else:
            arcs.insert(int(rng.integers(len(arcs) + 1)), arc)


def mutated_corpus(seed, count):
    """``(parse, text)`` pairs: documents with one to three faults each, built
    from fault_doc, a random mixed-domain network and bn_doc in turn.  A
    fault breaks a layer; about one document in four also has a fault in
    its variables, ordering or arcs, drawn from a second random stream."""
    rng = np.random.default_rng(seed)
    structure_rng = np.random.default_rng([seed, 1])
    for k in range(count):
        if k % 3 == 0:
            parse, doc, keys, number = parse_network, fault_doc(), ("q", "w"), "ratio"
            if rng.random() < 0.5:
                _w_layer(doc)
        elif k % 3 == 1:
            net = helpers.random_network(
                rng, n_vars=int(rng.integers(2, 5)), domain_sizes=(2, 3, 4),
                arc_prob=0.5, random_references=True,
            )
            doc = json.loads(serialize_network(net))
            parse, keys, number = parse_network, ("q", "w"), "ratio"
        else:
            parse, doc, keys, number = parse_bayes_net, json.loads(bn_doc()), ("cpts",), "p"
        for _ in range(int(rng.integers(1, 4))):
            _mutate(doc, keys, number, rng)
        if structure_rng.random() < 0.25:
            _mutate_structure(doc, structure_rng)
        yield parse, json.dumps(doc)


def parse_outcome(parse, text):
    """``(error class, message)``, or ``("ok", table bytes)`` for a valid document."""
    try:
        parsed = parse(text)
    except ValidationError as exc:
        return type(exc), str(exc)
    if isinstance(parsed, BayesNet):
        return "ok", [(name, t.shape, t.tobytes()) for name, t in parsed.cpts.items()]
    return "ok", [
        (layer, name, pot.parents, pot.table.tobytes())
        for layer in (PROB, UTIL)
        for name in parsed.ordering
        for pot in [parsed.potential(layer, name)]
    ]


PER_ROW_ROUTE = {
    parse_network: helpers.per_row_parse_network,
    parse_bayes_net: helpers.per_row_parse_bayes_net,
}


def test_layer_reader_matches_per_row_route_on_mutated_corpus():
    corpus = [*mutated_corpus(11, 600), *mutated_corpus(12, 600)]
    outcomes = [parse_outcome(parse, text) for parse, text in corpus]
    for (parse, text), outcome in zip(corpus, outcomes):
        assert outcome == parse_outcome(PER_ROW_ROUTE[parse], text), text
    kinds = {outcome[0] for outcome in outcomes}
    assert {"ok", SchemaError, ValidationError} <= kinds
    # The structure faults reach every per-entry check.
    messages = "\n".join(str(outcome[1]) for outcome in outcomes if outcome[0] != "ok")
    for part in (
        "$.variables[", ".domain[", ".reference: expected a string", "unknown key",
        "$.ordering[", "_arcs[", "an arc is a pair", "$.dag_edges[", "an edge is a",
    ):
        assert part in messages, part


def _x_reference_twice(doc):
    doc["q"]["X"] += [{"value": "0", "given": {}, "ratio": 1}] * 2


_X_REPEATED = _set(["cpts", "X", 1], {"value": "0", "given": {}, "p": 0.6})

REPEAT_FAULTS = [
    # A repeated code that leaves the count whole is found by its table's
    # repeat test, before any fault in a later table.
    (parse_network, _chain(_x_reference_twice, _set(["q", "Z"], UNDECLARED)),
     "$.q.X[2]: duplicate entry for ('0',)"),
    (parse_network, _chain(_x_reference_twice, _set(["q", "Y", 0, "weight"], 1)),
     "$.q.X[2]: duplicate entry for ('0',)"),
    (parse_network, _chain(_w_layer, _x_reference_twice, _set(["w", "X", 0, "ratio"], 0)),
     "$.q.X[2]: duplicate entry for ('0',)"),
    (parse_network, _set(["q", "Y", 3], {"value": "c", "given": {"X": "0"}, "ratio": 2.5}),
     "$.q.Y[3]: duplicate entry for ('c', '0')"),
    (parse_bayes_net, _chain(_X_REPEATED, _set(["cpts", "Y", 0, "q"], 1)),
     "$.cpts.X[1]: duplicate entry for ('0',)"),
    (parse_bayes_net, _chain(_X_REPEATED, _set(["cpts", "Y"], _DELETE)),
     "$.cpts.X[1]: duplicate entry for ('0',)"),
    (parse_bayes_net, _set(["cpts", "Y", 3], {"value": "0", "given": {"X": "1"}, "p": 0.8}),
     "$.cpts.Y[3]: duplicate entry for ('0', '1')"),
    # A bad sum in an earlier CPT still comes first.
    (parse_bayes_net, _chain(_set(["cpts", "X", 1, "p"], 0.7),
                             _set(["cpts", "Y", 3], {"value": "0", "given": {"X": "1"}, "p": 0.8})),
     "$.cpts.X: rows must sum to 1 for every parent configuration (off by 0.1)"),
]


@pytest.mark.parametrize("parse, mutate, message", REPEAT_FAULTS)
def test_a_repeat_before_a_later_fault_wins(parse, mutate, message):
    doc = fault_doc() if parse is parse_network else json.loads(bn_doc())
    mutate(doc)
    text = json.dumps(doc)
    assert parse_outcome(parse, text) == (SchemaError, message)
    assert parse_outcome(PER_ROW_ROUTE[parse], text) == (SchemaError, message)


def test_a_refused_document_is_read_once(monkeypatch):
    read = []

    def spy(rows, path, *args):
        read.append(path)
        return _parse_rows(rows, path, *args)

    monkeypatch.setattr(formats, "_parse_rows", spy)
    doc = _w_layer(fault_doc())
    doc["w"]["Y"][-1]["ratio"] = 0
    with pytest.raises(ValidationError, match="'Y'/util: non-positive potential entry"):
        parse_network(json.dumps(doc))
    assert read == ["$.w.Y"]
    read.clear()
    doc = json.loads(bn_doc())
    doc["cpts"]["Y"][-1]["p"] = 0
    with pytest.raises(SchemaError, match=r"Y\[3\]\.p: probabilities must be strictly positive"):
        parse_bayes_net(json.dumps(doc))
    assert read == ["$.cpts.Y"]


def test_parse_peak_stays_at_one_layer_buffer():
    # X0..X17 form a complete probability graph, so their tables fill 2**19 - 2
    # entries; the one given row, for X18, has code 2**19 - 1.
    names = [f"X{i}" for i in range(19)]
    text = json.dumps({
        "format": "eun/1",
        "variables": [{"name": n, "domain": ["0", "1"]} for n in names],
        "ordering": names,
        "prob_arcs": [[a, b] for k, a in enumerate(names[:18]) for b in names[k + 1:18]],
        "q": {"X18": [{"value": "1", "given": {}, "ratio": 2.0}]},
    })
    tracemalloc.start()
    try:
        net = parse_network(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffer = net.potential(PROB, "X18").table.base
    assert buffer.nbytes == 8 * 2**19
    assert buffer[-1] == 2.0
    assert peak < 1.5 * buffer.nbytes


def test_explicit_reference_rows_parse_as_omitted_ones():
    doc = fault_doc()
    want = parse_outcome(parse_network, json.dumps(doc))
    assert want[0] == "ok"
    for one in (1, 1.0):
        for name, ref, given in (("X", "0", {}), ("Y", "b", {"X": "0"}), ("Y", "b", {"X": "1"})):
            written = json.loads(json.dumps(doc))
            written["q"][name].insert(0, {"value": ref, "given": given, "ratio": one})
            assert parse_outcome(parse_network, json.dumps(written)) == want
    # Anything else at a reference row is refused, in the per-row route's words.
    for other in (2, 1.0000000000000002, 0.0, True, "1"):
        written = json.loads(json.dumps(doc))
        written["q"]["X"].append({"value": "0", "given": {}, "ratio": other})
        outcome = parse_outcome(parse_network, json.dumps(written))
        assert outcome[0] in (SchemaError, ValidationError), other


# -- the templated writer against the plain json.dumps writer ------------------------


WRITER_LABELS = ['"q"', "back\\slash", "café", "日本", "tab\there", "nl\nx", "\x01", "</", "a"]
WRITER_RATIOS = [5e-324, 1e-300, 1.7e308, 0.1 + 0.2]


def writer_network(rng, identity_layer=None):
    """Mixed domains, random references and awkward labels and names; each
    table mixes uniform ratios with extreme ones.  ``identity_layer`` is
    left as identity tables."""
    n = int(rng.integers(1, 5))
    specs = []
    for i in range(n):
        size = int(rng.integers(2, 5))
        labels = [f"{_pick(rng, WRITER_LABELS)}{j}" for j in range(size)]
        specs.append(VariableSpec(f'V"{i}\\é', tuple(labels), _pick(rng, labels)))
    names = [s.name for s in specs]
    graph = EUNGraph.of(
        prob_arcs=helpers.random_layer_arcs(rng, names, 0.5),
        util_arcs=helpers.random_layer_arcs(rng, names, 0.5),
        nodes=names,
    )
    skeleton = build_network(specs, names, graph)
    potentials = []
    for layer in (PROB, UTIL):
        if layer == identity_layer:
            continue
        for spec in specs:
            parents = skeleton.below_neighbors(layer, spec.name)
            shape = (spec.size,) + tuple(skeleton.space.spec(p).size for p in parents)
            table = rng.uniform(0.5, 2.0, shape)
            extreme = rng.random(shape) < 0.3
            table[extreme] = [_pick(rng, WRITER_RATIOS) for _ in range(int(extreme.sum()))]
            table[spec.reference_index] = 1.0
            potentials.append(RestrictedPotential(
                spec.name, layer, parents, table, reference_index=spec.reference_index
            ))
    return build_network(specs, names, graph, potentials)


def test_writer_matches_the_json_dumps_oracle():
    rng = np.random.default_rng(31)
    for trial in range(40):
        net = writer_network(rng, identity_layer=(None, PROB, UTIL)[trial % 3])
        text = serialize_network(net)
        assert text == helpers.serialize_oracle(net)
        back = parse_network(text)
        for layer in (PROB, UTIL):
            for name in net.ordering:
                assert back.potential(layer, name).table.tobytes() == (
                    net.potential(layer, name).table.tobytes()
                )
    skeleton = build_network(net.space.specs, net.ordering, EUNGraph.of(nodes=net.ordering))
    assert serialize_network(skeleton) == helpers.serialize_oracle(skeleton)


def test_parsed_tables_are_read_only_views():
    doc = _w_layer(fault_doc())
    net = parse_network(json.dumps(doc))
    for layer in (PROB, UTIL):
        for name in net.ordering:
            table = net.potential(layer, name).table
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 2.0
    assert net.potential(PROB, "Y").table.base is net.potential(PROB, "X").table.base
    bn = parse_bayes_net(bn_doc())
    for table in bn.cpts.values():
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0.5
