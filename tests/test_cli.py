import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opra.cli import build_parser, main
from opra.corpus import query_text
from opra.graph import graph_to_dict
from opra.oracle import OracleConfig
from opra.solver import SolveConfig
from opra.validate import MAX_EVAL_DEPTH

from gensupport import (
    BAD_DATA_GRAPHS, CHAIN_SHAPES, INVALID_QUERIES, chain_query,
)

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC / "opra" / "corpus"


@pytest.fixture
def fig2_path():
    return str(FIXTURES / "fig2.json")


@pytest.fixture
def qfile(tmp_path):
    def write(name_or_text, fname="query.opra"):
        text = query_text(name_or_text) if "\n" not in name_or_text \
            and not name_or_text.startswith("MATCH") else name_or_text
        p = tmp_path / fname
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]) if out.strip() else None


def test_eval_route_non_empty(capsys, fig2_path, qfile):
    code, payload = run_cli(
        capsys, "eval", "--graph", fig2_path, "--query", qfile("q_route_sp"),
        "--bound-b1", "8", "--bound-b2", "16",
    )
    assert code == 0
    assert payload["outcome"] == "non-empty"
    assert payload["witness"] == [["S", "T", "P"]]
    assert payload["expanded"] > 0


def test_eval_pinned_b2_alone(capsys, fig2_path, qfile):
    # the derived b1 (2 628 here) is capped at b2 // 2
    code, payload = run_cli(
        capsys, "eval", "--graph", fig2_path, "--query", qfile("q_route_sp"),
        "--bound-b2", "40",
    )
    assert code == 0
    assert payload["witness"] == [["S", "T", "P"]]


def test_eval_trace_logs_each_expanded_state(capsys, caplog, fig2_path,
                                             qfile):
    solver_log = logging.getLogger("opra.solver")
    level = solver_log.level
    code = main(["eval", "--graph", fig2_path, "--query", qfile("q_route_sp"),
                 "--bound-b1", "8", "--bound-b2", "16", "--trace"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    records = [r.getMessage() for r in caplog.records
               if r.name == "opra.solver"
               and r.getMessage().startswith("expand depth=")]
    lines = captured.err.splitlines()
    assert code == 0
    assert len(records) == payload["expanded"] > 0
    assert lines == records
    assert lines[0] == "expand depth=0 pos=-1 nodes=(1,) nfa=(0,)"
    assert solver_log.level == level


def test_eval_free_endpoints_names_both(capsys, fig2_path, qfile):
    code, payload = run_cli(
        capsys, "eval", "--graph", fig2_path, "--query", qfile(
            "def route(p) = <E(@1, @1') = 1>* <T>\n"
            "MATCH NODES (s, t) SUCH THAT s -pi-> t WHERE route(pi)"),
        "--bound-b1", "8", "--bound-b2", "16",
    )
    assert code == 0
    names = json.loads(Path(fig2_path).read_text(encoding="utf-8"))["nodes"]
    assert set(payload["nodes"]) == {"s", "t"}
    assert all(v in names for v in payload["nodes"].values())


def test_eval_empty_exit_code(capsys, fig2_path, qfile):
    code, payload = run_cli(
        capsys, "eval", "--graph", fig2_path,
        "--query", qfile("t_walk_via_walk"),
        "--bound-b1", "8", "--bound-b2", "16",
    )
    assert code == 1
    assert payload["empty"] is True


def test_eval_budget_exceeded_exit_3(capsys, fig2_path, qfile):
    code, payload = run_cli(
        capsys, "eval", "--graph", fig2_path, "--query", qfile("q_route_sp"),
        "--bound-b1", "8", "--bound-b2", "16", "--visited-budget", "1",
    )
    assert code == 3
    assert payload["outcome"] == "error"
    assert payload["kind"] == "ResourceExceededError"


def test_check_malformed_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.opra"
    bad.write_text("MATCH NODES (s,", encoding="utf-8")
    code, payload = run_cli(capsys, "check", "--query", str(bad))
    assert code == 2
    assert payload["kind"] == "QuerySyntaxError"


@pytest.mark.parametrize("text, error", INVALID_QUERIES)
def test_check_invalid_query_exit_2(capsys, fig2_path, tmp_path, text,
                                   error):
    q = tmp_path / "q.opra"
    q.write_text(text, encoding="utf-8")
    code, payload = run_cli(capsys, "check", "--query", str(q),
                            "--graph", fig2_path)
    assert code == 2
    assert payload["kind"] == error.__name__


def test_check_validates_against_graph(capsys, fig2_path, tmp_path):
    q = tmp_path / "q.opra"
    q.write_text("MATCH PATHS (p) HAVING speed[p] <= 1", encoding="utf-8")
    code, payload = run_cli(capsys, "check", "--query", str(q),
                            "--graph", fig2_path)
    assert code == 2
    assert payload["kind"] == "UnknownLabellingError"


def test_extremum_min_time(capsys, fig2_path, qfile):
    code, payload = run_cli(
        capsys, "extremum", "--min", "--target", "time",
        "--graph", fig2_path, "--query", qfile("q_route_sp"),
        "--bound-b1", "8", "--bound-b2", "16",
    )
    assert code == 0
    assert payload["value"] == 80
    assert payload["witness"] == [["S", "T", "P"]]


def test_extremum_unbounded_max(capsys, fig2_path, qfile):
    code, payload = run_cli(
        capsys, "extremum", "--max", "--target", "attr",
        "--graph", fig2_path, "--query", qfile("q_route_sp"),
        "--bound-b1", "8", "--bound-b2", "16",
    )
    assert code == 0
    assert payload["value"] == "+inf"
    assert payload["witness"] is None


def test_extremum_unbounded_max_derived_bounds(capsys, fig2_path, qfile):
    # with no bounds given, the improving cycle S T P B S is pumped at once
    code, payload = run_cli(
        capsys, "extremum", "--max", "--target", "attr",
        "--graph", fig2_path, "--query", qfile("q_route_sp"),
        "--visited-budget", "20000",
    )
    assert code == 0
    assert payload["value"] == "+inf"
    assert payload["witness"] is None
    assert payload["expanded"] <= 50


def test_oracle_subcommand(capsys, fig2_path, qfile):
    code, payload = run_cli(
        capsys, "oracle", "--graph", fig2_path, "--query", qfile("q_route_sp"),
        "--max-path-len", "6",
    )
    assert code == 0
    assert payload["count"] == 2
    assert {"nodes": {}, "paths": {"pi": ["S", "T", "P"]}} in payload["answers"]


def test_embed_round_trip(capsys, tmp_path):
    data = {
        "nodes": ["u", "v"], "alphabet": ["a"],
        "edges": [["u", "a", "v"]], "labels": {"u": [7]},
    }
    src = tmp_path / "dg.json"
    src.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "embedded.json"
    code, _ = run_cli(capsys, "embed", "--data", str(src),
                      "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert "sigma:a" in payload["nodes"]
    assert ["u", "sigma:a", "v", 1] in payload["labellings"]["E3"]["entries"]


@pytest.mark.parametrize("case", sorted(BAD_DATA_GRAPHS))
def test_embed_bad_data_exit_2(capsys, tmp_path, case):
    src = tmp_path / "dg.json"
    src.write_text(json.dumps(BAD_DATA_GRAPHS[case]), encoding="utf-8")
    out = tmp_path / "embedded.json"
    code, payload = run_cli(capsys, "embed", "--data", str(src),
                            "--output", str(out))
    assert code == 2
    assert payload["kind"] == "GraphLoadError"
    assert not out.exists()


def test_reserved_sink_node_name_exit_2(capsys, tmp_path, qfile):
    message = "node name '<sink>' is reserved for the sink"
    data = tmp_path / "dg.json"
    data.write_text(json.dumps({"nodes": ["<sink>"], "alphabet": [],
                                "edges": []}), encoding="utf-8")
    code, payload = run_cli(capsys, "embed", "--data", str(data),
                            "--output", str(tmp_path / "embedded.json"))
    assert (code, payload["kind"], payload["error"]) == \
        (2, "NameCollisionError", message)
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"nodes": ["S", "<sink>"]}), encoding="utf-8")
    code, payload = run_cli(capsys, "eval", "--graph", str(graph),
                            "--query", qfile("MATCH NODES (s)"))
    assert (code, payload["kind"], payload["error"]) == \
        (2, "NameCollisionError", message)


def test_missing_file_exit_2(capsys, fig2_path):
    code, payload = run_cli(capsys, "eval", "--graph", fig2_path,
                            "--query", "/nonexistent.opra")
    assert code == 2


def test_corpus_subcommand(capsys):
    code = main(["corpus"])
    out = capsys.readouterr().out
    assert code == 0
    assert "corpus matches goldens" in out
    assert "FAIL" not in out


def run_python(*argv):
    """`python argv` in a child process that imports opra from `SRC`."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), path] if path else [str(SRC)]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env)


def test_console_entry_point_installed():
    proc = run_python("-m", "opra.cli", "--help")
    assert proc.returncode == 0
    assert "eval" in proc.stdout


def test_query_file_is_closed(fig2_path, qfile):
    proc = run_python("-W", "error::ResourceWarning", "-m", "opra.cli",
                      "eval", "--graph", fig2_path, "--query",
                      qfile("q_route_sp"), "--bound-b1", "8",
                      "--bound-b2", "16")
    assert proc.returncode == 0
    assert "unclosed file" not in proc.stderr


def test_check_non_decimal_digit_exit_2(capsys, qfile):
    code, payload = run_cli(capsys, "check", "--query", qfile(
        "MATCH PATHS (p) WHERE <T>(p) HAVING time[p] <= ²"))
    assert code == 2
    assert payload["kind"] == "QuerySyntaxError"
    assert payload["error"] == "1:48: unexpected character '²'"


@pytest.mark.parametrize("argv, error", [
    (["extremum", "--min", "--target", "time", "--query", "q_route_sp",
      "--target-paths", "nope"], "unknown target path variable 'nope'"),
    (["eval", "--query", "q_route_sp", "--bound-b1", "16", "--bound-b2", "8"],
     "bounds must satisfy 0 < b1 < b2"),
    (["extremum", "--min", "--target", "time", "--query",
      "MATCH NODES (s) SUCH THAT s -pi-> s WHERE <T>(pi)"],
     "the query has no free path variable to aggregate over; "
     "pass target_paths explicitly"),
])
def test_invalid_arguments_exit_2(capsys, fig2_path, qfile, argv, error):
    argv[argv.index("--query") + 1] = qfile(argv[argv.index("--query") + 1])
    code, payload = run_cli(capsys, *argv, "--graph", fig2_path)
    assert code == 2
    assert payload == {"outcome": "error", "error": error,
                       "kind": "ValueError"}


@pytest.mark.parametrize("flag", [
    ["--trace"], ["--bound-b1", "8"], ["--bound-b2", "16"],
    ["--visited-budget", "10"], ["--json"],
])
def test_oracle_rejects_solver_flags(capsys, fig2_path, qfile, flag):
    with pytest.raises(SystemExit) as exit_:
        main(["oracle", "--graph", fig2_path, "--query", qfile("q_route_sp"),
              *flag])
    assert exit_.value.code == 2


def test_parsed_defaults_are_the_config_defaults():
    io = ["--graph", "g.json", "--query", "q.opra"]
    for command in (["eval"], ["extremum", "--target", "time", "--min"]):
        args = build_parser().parse_args(command + io)
        assert SolveConfig(b1=args.bound_b1, b2=args.bound_b2,
                           visited_budget=args.visited_budget) == SolveConfig()
    args = build_parser().parse_args(["oracle"] + io)
    assert OracleConfig(max_path_len=args.max_path_len,
                        max_paths=args.max_paths) == OracleConfig()


def test_check_dumps_nfas(capsys, fig2_path, qfile):
    code, payload = run_cli(capsys, "check", "--graph", fig2_path,
                            "--query", qfile("q_route_sp"), "--dump-nfa")
    assert code == 0
    assert payload["outcome"] == "ok"
    assert payload["ontology_entries"] == 0
    [dump] = payload["nfa_dumps"]
    lines = dump.splitlines()
    for flag in ("INITIAL ", "FINAL "):
        assert any(line.startswith(flag) for line in lines)
    assert any(line.split()[1] == "BOT" for line in lines
               if line.split()[0].isdigit())


def test_eval_malformed_labelling_exit_2(capsys, tmp_path, qfile):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"nodes": ["S"], "labellings": {"w": 5}}),
                     encoding="utf-8")
    code, payload = run_cli(capsys, "eval", "--graph", str(graph),
                            "--query", qfile("MATCH NODES (s)"))
    assert code == 2
    assert payload["kind"] == "GraphLoadError"


def test_check_deep_nesting_exit_2(capsys, qfile):
    text = "LET f(x) := " + "Max(" * 120 + "1" + ")" * 120 \
        + "\nIN MATCH NODES (s)"
    code, payload = run_cli(capsys, "check", "--query", qfile(text))
    assert code == 2
    assert payload["kind"] == "QuerySyntaxError"
    assert payload["error"].endswith("query nested too deeply")


@pytest.mark.parametrize("shape", CHAIN_SHAPES)
@pytest.mark.parametrize("command", ["check", "eval"])
def test_long_chain_exit_2(capsys, fig2_path, qfile, shape, command):
    code, payload = run_cli(capsys, command, "--graph", fig2_path,
                            "--query", qfile(chain_query(shape, 2000)))
    assert code == 2
    assert payload["kind"] == "QuerySyntaxError"
    assert payload["error"].endswith("query nested too deeply")


@pytest.mark.parametrize("command", ["check", "eval"])
def test_definition_above_depth_limit_exit_2(capsys, fig2_path, qfile,
                                             command):
    # c0 has height 1 and each link adds 1, so c64 is one above the limit
    links = "".join(f",\n    c{k}(x) := c{k - 1}(x)"
                    for k in range(1, MAX_EVAL_DEPTH + 1))
    text = f"LET c0(x) := time(x){links}\nIN MATCH NODES (s)"
    code, payload = run_cli(capsys, command, "--graph", fig2_path,
                            "--query", qfile(text))
    assert code == 2
    assert payload["kind"] == "RecursionDepthExceededError"
    assert payload["error"] == \
        f"labelling 'c{MAX_EVAL_DEPTH}' nests deeper than {MAX_EVAL_DEPTH}"
