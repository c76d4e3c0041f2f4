import json
from fractions import Fraction

import pytest

from sidlab.cli import EXIT_IO, EXIT_USAGE, _parse_rational, build_parser, main
from sidlab.graphs import (
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    flower,
    generalized_theta,
    path_graph,
    replace_edges,
    subdivide,
)
from sidlab.homdensity import hom_density
from sidlab.stepgraphon import StepGraphon


def write_json(path, payload):
    path.write_text(json.dumps(payload))


@pytest.fixture
def c4_path(tmp_path):
    p = tmp_path / "c4.json"
    write_json(p, cycle_graph(4).to_json_dict())
    return p


@pytest.fixture
def bipartite2_path(tmp_path):
    p = tmp_path / "bipartite2.json"
    write_json(p, {"n": 2, "values": [["0", "1"], ["1", "0"]]})
    return p


def test_construct_flower_bowtie(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = main(["construct", "--family", "flower", "--lengths", "3,3",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 5
    assert len(data["edges"]) == 6
    assert data["header"]["tool"] == "sidlab"
    assert data["header"]["version"]
    # artifact round-trips through the graph reader despite the header
    data.pop("header")
    Graph.from_json_dict(data)


def test_construct_theta_to_stdout(capsys):
    assert main(["construct", "--family", "theta", "--lengths", "2,2",
                 "--parity", "even"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 4 and data["roots"] == [0, 1]


# "G" and "O" stand for the C4 and K3 graph files
CONSTRUCT_CASES = {
    "theta": (["--lengths", "2,4", "--parity", "even"],
              lambda: generalized_theta([2, 4], "even")),
    "flower": (["--lengths", "3,4"], lambda: flower([3, 4])),
    "complete": (["--lengths", "4"], lambda: complete_graph(4)),
    "multipartite": (["--lengths", "2,3"],
                     lambda: complete_multipartite([2, 3])),
    "path": (["--lengths", "3"], lambda: path_graph(3)),
    "cycle": (["--lengths", "5"], lambda: cycle_graph(5)),
    "subdivision": (["--lengths", "2", "--graph", "G"],
                    lambda: subdivide(cycle_graph(4), 2)),
    "replace": (["--lengths", "2,2", "--parity", "even", "--graph", "G"],
                lambda: replace_edges(cycle_graph(4),
                                      generalized_theta([2, 2], "even"))),
    "union": (["--graph", "G", "--other", "O"],
              lambda: disjoint_union(cycle_graph(4), complete_graph(3))),
}


@pytest.mark.parametrize("family", sorted(CONSTRUCT_CASES))
def test_construct_matches_the_library(family, c4_path, tmp_path, capsys):
    k3_path = tmp_path / "k3.json"
    write_json(k3_path, complete_graph(3).to_json_dict())
    args, build = CONSTRUCT_CASES[family]
    files = {"G": str(c4_path), "O": str(k3_path)}
    assert main(["construct", "--family", family]
                + [files.get(a, a) for a in args]) == 0
    data = json.loads(capsys.readouterr().out)
    data.pop("header")
    assert data == build().to_json_dict()


@pytest.mark.parametrize("args,message", [
    (["--family", "subdivision", "--lengths", "1"], "requires --graph"),
    (["--family", "replace", "--lengths", "2,2"], "requires --graph"),
    (["--family", "union", "--graph", "G"], "--other"),
    (["--family", "complete", "--lengths", "2,3"], "expected one length"),
    (["--family", "path", "--lengths", "x"], "bad length list"),
    (["--family", "cycle", "--lengths", ""], "expected one length"),
    (["--family", "subdivision", "--lengths", "1,2", "--graph", "G"],
     "expected one length"),
    (["--family", "cycle"], "cycle requires --lengths"),
])
def test_construct_format_errors(args, message, c4_path, capsys):
    args = [str(c4_path) if a == "G" else a for a in args]
    assert main(["construct"] + args) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_density_exact_c4_bipartite(c4_path, bipartite2_path, capsys):
    code = main(["density", "--graph", str(c4_path),
                 "--graphon", str(bipartite2_path), "--mode", "exact"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == "1/8"
    assert data["mode"] == "exact"
    assert data["vH"] == 4


def test_density_reads_a_decimal_graphon_value_as_written(tmp_path, capsys):
    # 0.1 once became its binary double, 3602879701896397/36028797018963968
    edge, graphon = tmp_path / "k2.json", tmp_path / "w.json"
    write_json(edge, Graph(2, ((0, 1),)).to_json_dict())
    write_json(graphon, {"n": 1, "values": [[0.1]]})
    assert main(["density", "--graph", str(edge),
                 "--graphon", str(graphon)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "1/10"


def test_density_pinned(bipartite2_path, tmp_path, capsys):
    edge = tmp_path / "k2.json"
    write_json(edge, Graph(2, ((0, 1),)).to_json_dict())
    code = main(["density", "--graph", str(edge),
                 "--graphon", str(bipartite2_path), "--pins", "0:0,1:1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] == "1/1"


def test_density_rejects_a_repeated_pin(bipartite2_path, tmp_path, capsys):
    # a vertex pinned twice is a usage error, not a silent overwrite
    edge = tmp_path / "k2.json"
    write_json(edge, Graph(2, ((0, 1),)).to_json_dict())
    code = main(["density", "--graph", str(edge),
                 "--graphon", str(bipartite2_path), "--pins", "0:0,0:1"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pin collision" in captured.err


def test_reused_parser_carries_nothing_between_calls(bipartite2_path,
                                                     tmp_path, capsys):
    # one parser serves every call of the process; a pinned call must not
    # leave its pins to the next one
    assert build_parser() is build_parser()
    edge = tmp_path / "k2.json"
    write_json(edge, Graph(2, ((0, 1),)).to_json_dict())
    args = ["density", "--graph", str(edge), "--graphon", str(bipartite2_path)]
    assert main(args + ["--pins", "0:0,1:1"]) == 0
    pinned = json.loads(capsys.readouterr().out)
    assert pinned["header"]["config"]["pins"] == "0:0,1:1"
    assert main(args) == 0
    unpinned = json.loads(capsys.readouterr().out)
    assert "pins" not in unpinned["header"]["config"]
    expected = hom_density(Graph(2, ((0, 1),)),
                           StepGraphon([[0, 1], [1, 0]])).value
    assert unpinned["value"] == f"{expected.numerator}/{expected.denominator}"
    assert unpinned["value"] != pinned["value"]


def test_verify_suite_exit_zero_and_artifact(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--suite", "lemma31", "--trials", "10",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["suite"] == "lemma31"
    assert data["failures"] == []
    assert data["header"]["seed"] == 7
    assert "runtime_ms" in data


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_a_suite_without_trials(trials, capsys):
    code = main(["verify", "--suite", "lemma31", "--trials", trials])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least one trial" in captured.err


def test_verify_unknown_suite(tmp_path, capsys):
    assert main(["verify", "--suite", "nope"]) == 3


def test_verify_artifacts_identical_modulo_runtime(tmp_path):
    out = tmp_path / "r.json"
    outs = []
    for _ in range(2):
        main(["verify", "--suite", "flower_knrs", "--trials", "6",
              "--seed", "3", "--out", str(out)])
        data = json.loads(out.read_text())
        data.pop("runtime_ms")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_search_negative_control_and_trace(tmp_path, c4_path):
    out = tmp_path / "s.json"
    trace = tmp_path / "t.csv"
    code = main(["search", "--graph", str(c4_path), "--n", "3", "--d", "1/2",
                 "--seed", "3", "--starts", "2", "--iters", "40",
                 "--out", str(out), "--trace-csv", str(trace)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["best_deficit"] >= 0
    assert data["certificate"] is None
    assert trace.read_text().startswith("iteration,deficit")


def test_search_artifacts_byte_identical(tmp_path, c4_path):
    out = tmp_path / "s.json"
    texts = []
    for _ in range(2):
        main(["search", "--graph", str(c4_path), "--n", "2", "--d", "1/2",
              "--seed", "5", "--starts", "2", "--iters", "20",
              "--out", str(out)])
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_search_rejects_bad_step(c4_path, capsys):
    code = main(["search", "--graph", str(c4_path), "--n", "2", "--d", "1/2",
                 "--starts", "1", "--iters", "5", "--step", "inf"])
    assert code == EXIT_USAGE
    assert "step" in capsys.readouterr().err


def test_search_huge_step_completes(tmp_path, c4_path, capsys):
    # a finite but huge step sends the trial grids so far out of the box
    # that their projections do not settle; those steps are rejected
    out = tmp_path / "s.json"
    code = main(["search", "--graph", str(c4_path), "--n", "3", "--d", "1/2",
                 "--starts", "2", "--iters", "5", "--step", "1e300",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    data = json.loads(out.read_text())
    assert data["certificate"] is None
    assert len(data["trace"]) > 1


def test_search_rejects_decimal_without_float_flag(c4_path, capsys):
    base = ["search", "--graph", str(c4_path), "--n", "2"]
    run = ["--starts", "1", "--iters", "5"]
    # a decimal point or an exponent needs --float
    for d in ("0.5", "1e-1", "5E-1"):
        assert main(base + ["--d", d]) == EXIT_IO
        assert "pass --float" in capsys.readouterr().err
    assert main(base + ["--d", "0.5", "--float"] + run) == 0
    assert main(base + ["--d", "1e-1", "--float"] + run) == 0
    # a malformed value is a format error with or without --float
    assert main(base + ["--d", "1.x", "--float"]) == EXIT_IO
    assert "bad rational" in capsys.readouterr().err
    # a decimal reads exactly, not through a binary float
    assert _parse_rational("0.1", True) == Fraction(1, 10)
    assert _parse_rational("1e-1", True) == Fraction(1, 10)
    assert _parse_rational("1/2", False) == Fraction(1, 2)


def test_report_csv_sorted_rows(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    main(["verify", "--suite", "holder", "--trials", "4", "--seed", "1",
          "--out", str(r1)])
    main(["verify", "--suite", "flower_knrs", "--trials", "4", "--seed", "1",
          "--out", str(r2)])
    code = main(["report", "--inputs", str(r1), str(r2), "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "suite,trials,failures,max_gap,runtime_ms"
    assert lines[1].startswith("flower_knrs,")
    assert lines[2].startswith("holder,")


def test_report_empty_inputs_header_only(capsys):
    assert main(["report", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["suite,trials,failures,max_gap,runtime_ms"]


def test_verify_exit_one_on_suite_failure(monkeypatch, tmp_path):
    import sidlab.cli as cli_mod
    from sidlab.verify import SuiteReport

    def failing_suite(trials, seed):
        return SuiteReport("fake", trials, [{"gap": -1.0}], seed, 1.0, 0.0)

    monkeypatch.setitem(cli_mod.SUITES, "fake", failing_suite)
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "fake", "--trials", "1",
                 "--out", str(out)]) == 1
    assert json.loads(out.read_text())["failures"]


def test_search_exit_one_on_certified_violation(monkeypatch, c4_path, capsys):
    import sidlab.cli as cli_mod
    from fractions import Fraction as F
    from sidlab.search import SearchResult
    from sidlab.stepgraphon import constant_graphon

    fake = SearchResult(constant_graphon(F(1, 2), 2), -1.0, (0.0,), 1, 0,
                        certificate={"gap": -1.0})
    monkeypatch.setattr(cli_mod, "search_counterexample",
                        lambda *a, **k: fake)
    assert main(["search", "--graph", str(c4_path), "--n", "2",
                 "--d", "1/2"]) == 1
    capsys.readouterr()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["density", "--graph"])  # missing value
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["density", "--graph", "x.json", "--graphon", "y.json",
              "--unknown-flag"])
    assert exc.value.code == 2


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["density", "--graph", str(tmp_path / "absent.json"),
                 "--graphon", str(tmp_path / "absent2.json")]) == 3


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["density", "--graph", str(bad), "--graphon", str(bad)]) == 3


VALID = {"graph": {"n": 2, "edges": [[0, 1]]},
         "graphon": {"n": 2, "values": [["0", "1"], ["1", "0"]]}}
REPORT = {"suite": "holder", "trials": 2, "failures": [], "seed": 0,
          "max_gap": 0.0, "runtime_ms": 1.5}


@pytest.mark.parametrize("role, payload", [
    pytest.param("graph", {"n": 3, "edges": 5}, id="edges-not-a-list"),
    pytest.param("graph", [1, 2], id="graph-a-list"),
    pytest.param("graph", {"n": 2.5, "edges": [[0, 1]]}, id="fractional-n"),
    pytest.param("graph", {"n": "x", "edges": [[0, 1]]}, id="string-n"),
    pytest.param("graph", {"n": 2, "edges": [[0, 1.5]]},
                 id="fractional-endpoint"),
    pytest.param("graph", {"n": 2, "edges": [[0]]}, id="one-endpoint"),
    pytest.param("graphon", {"n": 2, "values": 7}, id="values-not-a-grid"),
    pytest.param("graphon", {"n": 2, "values": [["0", "1/0"], ["1/0", "0"]]},
                 id="zero-denominator"),
    pytest.param("graphon", {"n": 2.5, "values": [["0", "1"], ["1", "0"]]},
                 id="graphon-fractional-n"),
    pytest.param("graphon", {"n": 2, "values": [[True, False], [False, True]]},
                 id="boolean-values"),
    pytest.param("report", [1, 2], id="report-a-list"),
    pytest.param("report", {**REPORT, "trials": 2.7}, id="fractional-trials"),
    pytest.param("report", {**REPORT, "max_gap": "0.5"}, id="string-max-gap"),
    pytest.param("report", {**REPORT, "failures": "ab"},
                 id="failures-a-string"),
    pytest.param("report", {**REPORT, "suite": 5}, id="suite-a-number"),
])
def test_malformed_input_file_exit_code(role, payload, tmp_path, capsys):
    # a file that does not describe its object is a format error: exit 3,
    # never a traceback, a truncated read or a usage error
    paths = {name: tmp_path / f"{name}.json" for name in VALID}
    for name, path in paths.items():
        write_json(path, payload if name == role else VALID[name])
    if role == "report":
        write_json(tmp_path / "report.json", payload)
        argv = ["report", "--inputs", str(tmp_path / "report.json")]
    else:
        argv = ["density", "--graph", str(paths["graph"]),
                "--graphon", str(paths["graphon"])]
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().out == ""


def test_report_reads_a_well_formed_report(tmp_path, capsys):
    # the control for the malformed reports above
    write_json(tmp_path / "report.json", {**REPORT, "max_gap": 0})
    assert main(["report", "--inputs", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "holder,2,0,0.0,1.5"


@pytest.mark.parametrize("pins", ["0", "a:b", "0:0:1"])
def test_density_malformed_pins_exit_code(pins, tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.json" for name in VALID}
    for name, path in paths.items():
        write_json(path, VALID[name])
    assert main(["density", "--graph", str(paths["graph"]),
                 "--graphon", str(paths["graphon"]), "--pins", pins]) == EXIT_IO
    assert "bad pin" in capsys.readouterr().err


def test_density_refuses_an_oversized_contraction(tmp_path, capsys):
    # K10 on 8 steps: the engine's largest step would enumerate 8^10 index
    # tuples, in float mode as in exact
    graph, graphon = tmp_path / "k10.json", tmp_path / "w8.json"
    write_json(graph, complete_graph(10).to_json_dict())
    write_json(graphon, {"n": 8, "values": [["1/2"] * 8] * 8})
    assert main(["density", "--graph", str(graph), "--graphon", str(graphon),
                 "--mode", "float"]) == EXIT_USAGE
    assert "refused" in capsys.readouterr().err
