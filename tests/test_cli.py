"""End-to-end command-line behaviour: byte-exact outputs, exit codes, and
stream separation."""

import io
import json

import pytest

import helpers
from eunet import cli, serialize_network
from eunet.cli import run_command
from test_model import adversarial_net


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def chain_path(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(serialize_network(helpers.binary_chain_net()))
    return str(path)


@pytest.fixture()
def hw1_path(tmp_path):
    path = tmp_path / "hw1.json"
    path.write_text(serialize_network(helpers.hw_factored_net()))
    return str(path)


@pytest.fixture()
def hw2_path(tmp_path):
    path = tmp_path / "hw2.json"
    path.write_text(serialize_network(helpers.hw_coupled_net()))
    return str(path)


BN_DOC = json.dumps(
    {
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
)


# -- validate -----------------------------------------------------------------


def test_validate_ok(chain_path):
    code, out, err = run("validate", chain_path)
    assert (code, out, err) == (0, "structure: ok\n", "")


def test_validate_strict_ok(chain_path):
    code, out, err = run("validate", chain_path, "--strict")
    assert code == 0
    assert out == "structure: ok\ntables: consistent with the graph\n"


def test_validate_strict_flags_inconsistent_tables(tmp_path):
    path = tmp_path / "adversarial.json"
    path.write_text(serialize_network(adversarial_net()))
    code, out, err = run("validate", str(path), "--strict")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "structure: ok"
    assert lines[1] == "tables: INCONSISTENT with the graph"
    assert any("X1/prob" in line and "non-neighbour" in line for line in lines[2:])


# -- query --------------------------------------------------------------------


def test_query_probability(chain_path):
    code, out, err = run("query", chain_path, "--prob", "-e", "X3=1")
    assert (code, out) == (0, "0.791666666667\n")


def test_query_conditional_probability(chain_path):
    code, out, err = run("query", chain_path, "--prob", "-e", "X1=1", "-g", "X3=1")
    assert (code, out) == (0, "0.842105263158\n")


def test_query_expected_utility(hw1_path):
    code, out, err = run("query", hw1_path, "--eu", "-e", "H=1")
    assert (code, out) == (0, "1.500000000000\n")


def test_query_conditional_eu(hw1_path):
    code, out, err = run("query", hw1_path, "--eu", "-e", "W=1", "-g", "H=1")
    assert (code, out) == (0, "1.333333333333\n")


def test_query_value(hw1_path):
    code, out, err = run("query", hw1_path, "--value", "-e", "H=1")
    assert (code, out) == (0, "0.750000000000\n")


def test_query_multi_term_event(chain_path):
    code, out, err = run("query", chain_path, "--prob", "-e", "X1=1, X3=1")
    assert code == 0
    assert out == "0.666666666667\n"  # 32 of the 48 ratio units


def test_query_output_is_byte_stable(chain_path):
    first = run("query", chain_path, "--prob", "-e", "X3=1")
    second = run("query", chain_path, "--prob", "-e", "X3=1")
    assert first == second


# -- independence ----------------------------------------------------------------


def test_independence_graph_separated(chain_path):
    code, out, err = run(
        "independence", chain_path, "--layer", "prob", "-a", "X1", "-b", "X3", "-c", "X2"
    )
    assert (code, out) == (0, "independent (graph separation)\n")


def test_independence_not_separated(chain_path):
    code, out, err = run(
        "independence", chain_path, "--layer", "prob", "-a", "X1", "-b", "X3"
    )
    assert (code, out) == (0, "not separated (independence not guaranteed by the graph)\n")


def test_independence_eu_layer_positive(hw1_path):
    code, out, err = run(
        "independence", hw1_path, "--layer", "eu", "-a", "H", "-b", "W"
    )
    assert (code, out) == (0, "eu-independent (separated in both layers)\n")


def test_independence_eu_layer_negative(hw2_path):
    code, out, err = run(
        "independence", hw2_path, "--layer", "eu", "-a", "H", "-b", "W"
    )
    assert (code, out) == (0, "not separated in both layers (no guarantee)\n")


def test_independence_unknown_variable(chain_path):
    code, out, err = run(
        "independence", chain_path, "--layer", "prob", "-a", "Z", "-b", "X3"
    )
    assert code == 2
    assert err.startswith("error:")


# -- decide ------------------------------------------------------------------------


def test_decide_single_winner(hw1_path):
    code, out, err = run("decide", hw1_path, "-d", "H")
    assert (code, out) == (0, "argmax: H=1\neu: 1.500000000000\n")


def test_decide_with_evidence(hw2_path):
    code, out, err = run("decide", hw2_path, "-d", "H", "-e", "W=1")
    assert (code, out) == (0, "argmax: H=1\neu: 1.333333333333\n")


def test_decide_reports_all_ties(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(
        serialize_network(helpers.net_of({"A": ("0", "1"), "B": ("0", "1")}))
    )
    code, out, err = run("decide", str(path), "-d", "A")
    assert code == 0
    assert out == "argmax: A=0\nargmax: A=1\neu: 1.000000000000\n"


def test_quotients_of_unlike_sums_do_not_reach_the_commands(tmp_path):
    # u_rel(A=1) is about 5e399 on this network, while every answer asked is
    # in float range.
    path = tmp_path / "range.json"
    path.write_text(serialize_network(helpers.quotient_range_net()))
    for argv, argmax, want in (
        (("decide", "-d", "B", "-e", "A=1"), ["argmax: B=1"], 2.0),
        (("query", "--eu", "-e", "B=1", "-g", "A=1"), [], 2.0),
        (("query", "--eu", "-e", "A=1"), [], 1e200),
        (("decide", "-d", "A", "-e", "C=0"), ["argmax: A=1"], 1e200),
    ):
        code, out, err = run(argv[0], str(path), *argv[1:])
        assert (code, err) == (0, "")
        *lines, last = out.splitlines()
        assert lines == argmax
        number = last.removeprefix("eu: ") if argmax else last
        assert float(number) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_decide_rejects_evidence_on_decision_variable(hw1_path):
    code, out, err = run("decide", hw1_path, "-d", "H", "-e", "H=1")
    assert code == 2
    assert "fixes decision variable" in err


# -- import-bn -----------------------------------------------------------------------


def test_import_bn_round_trip(tmp_path):
    src = tmp_path / "bn.json"
    src.write_text(BN_DOC)
    dst = tmp_path / "net.json"
    code, out, err = run("import-bn", str(src), "-o", str(dst))
    assert code == 0
    assert out == f"wrote {dst}\n"

    # the written document answers queries about the original joint
    code, out, err = run("query", str(dst), "--prob", "-e", "X=1")
    assert (code, out) == (0, "0.600000000000\n")
    code, out, err = run("query", str(dst), "--prob", "-e", "Y=1", "-g", "X=1")
    assert (code, out) == (0, "0.800000000000\n")

    # and re-serialises to the same bytes
    from eunet import parse_network

    text = dst.read_text()
    assert serialize_network(parse_network(text)) == text


def test_import_bn_schema_failure(tmp_path):
    src = tmp_path / "bad.json"
    bad = json.loads(BN_DOC)
    bad["cpts"]["X"][0]["p"] = 0.7
    src.write_text(json.dumps(bad))
    code, out, err = run("import-bn", str(src), "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "sum" in err


def test_import_bn_underflow_exits_numeric(tmp_path):
    src = tmp_path / "underflow-bn.json"
    src.write_text(helpers.underflow_bn_doc())
    dst = tmp_path / "x.json"
    code, out, err = run("import-bn", str(src), "-o", str(dst))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "inf or 0 entry" in err
    assert not dst.exists()


def test_strict_validate_answers_above_the_cap(tmp_path):
    # 24 binary variables in a chain: 16,777,216 states, above the default cap.
    names = [f"X{i:02d}" for i in range(24)]
    path = tmp_path / "chain24.json"
    path.write_text(serialize_network(helpers.chain_net(5, dict.fromkeys(names, 2), names)))
    code, out, err = run("validate", str(path), "--strict")
    assert (code, out, err) == (0, "structure: ok\ntables: consistent with the graph\n", "")


def test_integer_past_float_range_is_a_schema_failure(tmp_path):
    doc = json.loads(serialize_network(helpers.binary_chain_net()))
    doc["q"]["X1"][0]["ratio"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run("validate", str(path))
    assert (code, out) == (2, "")
    assert err == "error: $.q.X1[0].ratio: integer out of float range\n"

    bad = json.loads(BN_DOC)
    bad["cpts"]["Y"][1]["p"] = 10**400
    src = tmp_path / "huge-bn.json"
    src.write_text(json.dumps(bad))
    code, out, err = run("import-bn", str(src), "-o", str(tmp_path / "x.json"))
    assert (code, out) == (2, "")
    assert err == "error: $.cpts.Y[1].p: integer out of float range\n"


# -- auction ------------------------------------------------------------------------


def test_auction_midpoint_value():
    code, out, err = run("auction", "--grid", "2", "--value", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "argmax: {0, 0.5}"
    assert lines[1] == "truthful bid 0.5 is in the argmax"
    # winner's 3.5 units against the value-slice average of 10.25/3
    assert lines[2].startswith("eu: 1.02439")


def test_auction_top_value():
    code, out, err = run("auction", "--grid", "2", "--value", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "argmax: {0.5, 1}"
    assert lines[1] == "truthful bid 1 is in the argmax"


def test_auction_fine_grid():
    code, out, err = run("auction", "--grid", "5", "--eps", "1e-9", "--value", "0.4")
    assert code == 0
    assert "truthful bid 0.4 is in the argmax" in out


def test_auction_rejects_small_grid():
    code, out, err = run("auction", "--grid", "1", "--value", "0")
    assert code == 2
    assert "at least 2" in err


def test_auction_rejects_off_grid_value():
    code, out, err = run("auction", "--grid", "2", "--value", "0.3")
    assert code == 2
    assert "off-grid" in err


def test_auction_rejects_bad_epsilon():
    code, out, err = run("auction", "--grid", "2", "--eps", "0.5", "--value", "0")
    assert code == 2
    assert "epsilon" in err


def test_auction_above_the_cap_fails_at_the_query(monkeypatch):
    # K = 20 has 8,168,202 states: the build answers, the best response
    # meets the cap.
    monkeypatch.delenv("EUN_STATE_CAP", raising=False)
    code, out, err = run("auction", "--grid", "20", "--value", "0.5")
    assert code == 3
    assert out == ""
    assert err == "error: enumeration over 8168202 states exceeds the cap of 1000000\n"


def test_auction_non_numeric_grid_is_usage_error():
    code, out, err = run("auction", "--grid", "abc", "--value", "0")
    assert code == 1


# -- exit codes and streams ------------------------------------------------------------


def test_missing_file_is_usage_error():
    code, out, err = run("validate", "/no/such/file.json")
    assert code == 1
    assert err.startswith("error: cannot read")
    assert out == ""


def test_invalid_json_document(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run("validate", str(path))
    assert code == 2
    assert "invalid JSON" in err


UNREADABLE = {
    # Bytes that are not UTF-8 (a UTF-16 byte order mark), and arrays nested
    # past the recursion limit of the JSON decoder.
    "undecodable": (b"\xff\xfe{\x00}\x00", "not UTF-8 text (invalid start byte at byte 0)"),
    "deep": (b"[" * 200_000, "invalid JSON: nested deeper than the recursion limit"),
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
@pytest.mark.parametrize("argv", [
    ["validate", "{}"],
    ["query", "{}", "--prob", "-e", "X=1"],
    ["decide", "{}", "-d", "X"],
    ["independence", "{}", "--layer", "prob", "-a", "X", "-b", "Y"],
    ["import-bn", "{}", "-o", "{}.out"],
])
def test_unreadable_document_is_a_schema_failure(tmp_path, kind, argv):
    data, message = UNREADABLE[kind]
    path = tmp_path / f"{kind}.json"
    path.write_bytes(data)
    code, out, err = run(*(a.format(path) for a in argv))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_unknown_event_variable(chain_path):
    code, out, err = run("query", chain_path, "--prob", "-e", "Z=1")
    assert code == 2
    assert err.startswith("error:")


def test_unknown_event_value(chain_path):
    code, out, err = run("query", chain_path, "--prob", "-e", "X1=9")
    assert code == 2


def test_malformed_event_term(chain_path):
    code, out, err = run("query", chain_path, "--prob", "-e", "X1")
    assert code == 1
    assert "bad event term" in err


def test_duplicate_event_variable(chain_path):
    code, out, err = run("query", chain_path, "--prob", "-e", "X1=1,X1=0")
    assert code == 1
    assert "appears twice" in err


def test_empty_event_specification(chain_path):
    for event in (["-e", ","], ["-e", "X1=1", "-g", ""]):
        code, out, err = run("query", chain_path, "--prob", *event)
        assert code == 1, event
        assert "empty event specification" in err


def test_contradictory_conditioning_is_a_numeric_error(hw1_path):
    code, out, err = run("query", hw1_path, "--prob", "-e", "H=1", "-g", "H=0")
    assert code == 3
    assert err.startswith("error:")


def test_state_cap_exhaustion(chain_path, monkeypatch):
    monkeypatch.setenv("EUN_STATE_CAP", "4")
    code, out, err = run("query", chain_path, "--prob", "-e", "X3=1")
    assert code == 3
    assert "state" in err


def test_unknown_command():
    code, out, err = run("frobnicate")
    assert code == 1


def test_no_arguments_prints_help():
    code, out, err = run()
    assert code == 1
    assert "usage:" in out


def test_help_exits_zero():
    code, out, err = run("--help")
    assert code == 0
    assert "usage:" in out


def test_subcommand_help_exits_zero():
    code, out, err = run("query", "--help")
    assert code == 0
    assert "--prob" in out


def test_errors_go_to_stderr_only(chain_path):
    code, out, err = run("query", chain_path, "--prob", "-e", "Z=1")
    assert out == ""
    assert err != ""


def test_one_parser_serves_successive_calls(chain_path, hw1_path):
    assert run("validate", chain_path) == (0, "structure: ok\n", "")
    assert run("query", hw1_path, "--eu", "-e", "H=1")[0] == 0
    code, out, err = run("query", chain_path, "--prob")
    assert (code, out) == (1, "")
    assert "required" in err
    assert run("independence", chain_path, "--layer", "prob", "-a", "X1", "-b", "X3",
               "-c", "X2") == (0, "independent (graph separation)\n", "")
    out = io.StringIO()
    assert run_command(["decide", "--help"], stdout=out, stderr=io.StringIO()) == 0
    assert "--decisions" in out.getvalue()
    assert run("validate", chain_path) == (0, "structure: ok\n", "")
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 12.6 GiB"),
         "error: out of memory (Unable to allocate 12.6 GiB)\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
)
def test_memory_error_exits_numeric(chain_path, monkeypatch, exc, message):
    def exhausted(args, out):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "query", exhausted)
    assert run("query", chain_path, "--prob", "-e", "X3=1") == (3, "", message)


@pytest.mark.parametrize("launcher", ["eun", "python-m-eunet"])
def test_console_script_is_installed(launcher):
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import eunet

    env = None
    if launcher == "eun":
        exe = shutil.which("eun")
        if exe is None:
            pytest.skip("console script not on PATH")
        command = [exe]
    else:
        command = [sys.executable, "-m", "eunet"]
        env = {**os.environ, "PYTHONPATH": str(Path(eunet.__file__).parent.parent)}
    proc = subprocess.run([*command, "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "usage:" in proc.stdout


def test_query_on_overflowing_network_exits_numeric(tmp_path):
    path = tmp_path / "extreme.json"
    path.write_text(serialize_network(helpers.extreme_ratio_net()))
    code, out, err = run("query", str(path), "--prob", "-e", "A=1")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "float range" in err


def test_strict_validate_on_overflowing_network_exits_numeric(tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(serialize_network(helpers.overflow_window_net()))
    code, out, err = run("validate", str(path), "--strict")
    assert (code, out) == (3, "structure: ok\n")
    assert err.startswith("error: ") and "inf or 0 entry" in err
