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
