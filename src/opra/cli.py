"""Command-line interface.

Subcommands: eval (emptiness + witness), extremum (min/max of a target
labelling), embed (data graph -> labelled graph JSON), oracle
(brute-force reference run), corpus (bundled suite vs goldens), check
(parse and validate only).

Exit codes: 0 answered, 1 empty result where a boolean was asked,
2 usage/syntax/validation error or invalid argument, 3 resource or
evaluation error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
import time
from typing import Optional

from . import corpus as corpus_mod
from .automata import compile_regex
from .embedding import embed, load_data_graph
from .engine import decode_answers, evaluate, evaluate_extremum
from .errors import EvalError, OpraError
from .extint import to_json
from .graph import graph_to_dict, load_graph
from .oracle import OracleConfig, enumerate_answers
from .parser import parse
from .solver import DEFAULT_BUDGET, SolveConfig
from .validate import validate


def _add_io(p: argparse.ArgumentParser):
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--query", required=True, help="query file")
    p.add_argument("--pretty", action="store_true")


def _add_solver(p: argparse.ArgumentParser):
    _add_io(p)
    p.add_argument("--bound-b1", type=int, default=None,
                   help="short-path bound (phase 1)")
    p.add_argument("--bound-b2", type=int, default=None,
                   help="witness bound (phase 2)")
    p.add_argument("--visited-budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--trace", action="store_true",
                   help="log each expanded product state to stderr")


def _config(args) -> SolveConfig:
    return SolveConfig(
        b1=args.bound_b1, b2=args.bound_b2,
        visited_budget=args.visited_budget,
    )


def _emit(payload: dict, pretty: bool) -> None:
    print(json.dumps(payload, indent=2 if pretty else None, sort_keys=False))


def _read_query(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@contextlib.contextmanager
def _tracing(enabled: bool):
    """While the block runs, print the solver's DEBUG records, one line
    per expanded state, to stderr."""
    log = logging.getLogger("opra.solver")
    level = log.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    if enabled:
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="opra",
        description="Graph query engine: routes, aggregates, extrema, "
                    "on-demand labellings.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="decide emptiness, print a witness")
    _add_solver(p)

    p = sub.add_parser("extremum", help="min/max of a labelling over answers")
    _add_solver(p)
    p.add_argument("--target", required=True, help="labelling to aggregate")
    p.add_argument("--target-paths", default=None,
                   help="comma-separated path variables (default: the "
                        "query's free path variables)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--min", dest="mode", action="store_const", const="min")
    mode.add_argument("--max", dest="mode", action="store_const", const="max")

    p = sub.add_parser("embed", help="standard embedding of a data graph")
    p.add_argument("--data", required=True, help="data-graph JSON file")
    p.add_argument("--output", default=None, help="output file (default stdout)")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("oracle", help="brute-force reference evaluation")
    _add_io(p)
    p.add_argument("--max-path-len", type=int,
                   default=OracleConfig.max_path_len)
    p.add_argument("--max-paths", type=int, default=OracleConfig.max_paths)

    p = sub.add_parser("corpus", help="run the bundled suite against goldens")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("check", help="parse and validate a query")
    p.add_argument("--query", required=True)
    p.add_argument("--graph", default=None,
                   help="graph JSON for name/arity resolution")
    p.add_argument("--dump-nfa", action="store_true",
                   help="print compiled NFAs of the regular constraints")
    p.add_argument("--pretty", action="store_true")

    return ap


def _cmd_eval(args) -> int:
    g = load_graph(args.graph)
    started = time.perf_counter()
    with _tracing(args.trace):
        res = evaluate(g, _read_query(args.query), cfg=_config(args))
    elapsed = int(1000 * (time.perf_counter() - started))
    payload = {
        "outcome": "empty" if res.empty else "non-empty",
        "empty": res.empty,
        "witness": None if res.empty else list(res.paths.values()),
        "nodes": None if res.empty else res.env,
        "paths": None if res.empty else res.paths,
        "elapsed_ms": elapsed,
        "expanded": res.stats.expanded,
    }
    _emit(payload, args.pretty)
    return 1 if res.empty else 0


def _cmd_extremum(args) -> int:
    g = load_graph(args.graph)
    target_paths = (
        args.target_paths.split(",") if args.target_paths else None
    )
    started = time.perf_counter()
    with _tracing(args.trace):
        res = evaluate_extremum(
            g, _read_query(args.query), target=args.target, mode=args.mode,
            cfg=_config(args), target_paths=target_paths,
        )
    elapsed = int(1000 * (time.perf_counter() - started))
    payload = {
        "outcome": "value",
        "value": to_json(res.value),
        "witness": None if res.witness is None else list(res.witness.values()),
        "nodes": res.env if res.witness is not None else None,
        "elapsed_ms": elapsed,
        "expanded": res.stats.expanded,
    }
    _emit(payload, args.pretty)
    return 0


def _cmd_embed(args) -> int:
    dg = load_data_graph(args.data)
    payload = graph_to_dict(embed(dg))
    text = json.dumps(payload, indent=2 if args.pretty else None)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    q = validate(parse(_read_query(args.query)), g)
    cfg = OracleConfig(max_path_len=args.max_path_len,
                       max_paths=args.max_paths)
    started = time.perf_counter()
    answers = enumerate_answers(g, q, cfg)
    elapsed = int(1000 * (time.perf_counter() - started))
    decoded = decode_answers(g, q.query.query, sorted(answers))
    payload = {
        "outcome": "empty" if not decoded else "non-empty",
        "count": len(decoded),
        "answers": decoded,
        "elapsed_ms": elapsed,
    }
    _emit(payload, args.pretty)
    return 1 if not decoded else 0


def _cmd_corpus(args) -> int:
    report, failures = corpus_mod.run()
    for section in ("answers", "extrema", "terms"):
        for key in sorted(report.get(section, {})):
            status = "FAIL" if f"{section}.{key}" in failures else "PASS"
            print(f"{status} {section}.{key}")
    if failures:
        print(f"{len(failures)} corpus item(s) diverged from the goldens")
        return 1
    print("corpus matches goldens")
    return 0


def _cmd_check(args) -> int:
    q = parse(_read_query(args.query))
    if args.graph:
        q = validate(q, load_graph(args.graph)).query
    payload = {"outcome": "ok", "ontology_entries": len(q.ontology)}
    if args.dump_nfa:
        payload["nfa_dumps"] = [compile_regex(rc.regex).dump()
                                for rc in q.query.regular_constraints]
    _emit(payload, args.pretty)
    return 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "extremum": _cmd_extremum,
        "embed": _cmd_embed,
        "oracle": _cmd_oracle,
        "corpus": _cmd_corpus,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (OpraError, OSError, ValueError) as e:
        # a ValueError is input the API rejects untyped, such as bad JSON
        if isinstance(e, OpraError):
            kind = type(e).__name__
        else:
            kind = "OSError" if isinstance(e, OSError) else "ValueError"
        print(json.dumps({"outcome": "error", "error": str(e),
                          "kind": kind}))
        return 3 if isinstance(e, EvalError) else 2


if __name__ == "__main__":
    sys.exit(main())
