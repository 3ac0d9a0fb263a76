"""Command-line interface: one binary, eight subcommands.

    regcount validate AUTOMATON.json
    regcount catalog NAME
    regcount propagate INSTANCE.json [--mode ...]
    regcount oracle INSTANCE.json [--cap ...]
    regcount dump-sweep (--catalog NAME | --automaton PATH) ...
    regcount fuzz --seed S --count K [--mode ...]
    regcount solve INSTANCE.json [--propagator ...]
    regcount bench CORPUS_DIR [--format table|tsv]

Exit codes: 0 success, 1 constraint failure or fuzz violation, 2 usage or
parse error.  Outputs have stable field ordering so they can be golden-file
tested; timing information goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .automaton import (
    CATALOG_NAMES,
    CounterDfa,
    MalformedAutomaton,
    UnknownAutomaton,
    automaton_from_json,
    automaton_to_json,
    catalog,
    load_automaton,
    validate,
)
from .domains import COUNTER_VAR, Instance, MalformedInstance, instance_from_json, load_instance
from .generator import GenConfig, run_fuzz
from .oracle import CapExceeded, cap_from_env, enumerate_support, enumerate_support_native
from .propagators import Mode, propagate_instance
from .search import bench, format_bench, solve
from .sweep import backward, format_rows, forward


#: Most counter values, or ``dump-sweep`` positions, one command line may ask
#: for; checked before anything that size is allocated.
MAX_SPEC_SIZE = 100_000


class CliError(Exception):
    """Bad input reported to the user; maps to exit code 2."""


def _load_dfa_arg(spec: str) -> CounterDfa:
    if spec == "-":
        try:
            return automaton_from_json(json.load(sys.stdin))
        except json.JSONDecodeError as exc:
            raise CliError(f"stdin: not valid JSON ({exc})") from None
    if spec.startswith("catalog:"):
        return catalog(spec.split(":", 1)[1])
    return load_automaton(spec)


def _parse_domains(spec: str) -> list[list[str]]:
    positions = [chunk for chunk in spec.split(";")]
    if not positions or any(not chunk for chunk in positions):
        raise CliError("domain spec must be ';'-separated nonempty groups, e.g. '2;1,2;1'")
    return [[name for name in chunk.split(",") if name] for chunk in positions]


def _parse_counter(spec: str) -> list[int]:
    ranges: list[tuple[int, int]] = []
    try:
        for chunk in spec.split(","):
            lo, hi = chunk.split("..") if ".." in chunk else (chunk, chunk)
            ranges.append((int(lo), int(hi)))
    except ValueError:
        raise CliError(f"bad counter spec {spec!r}; use e.g. '1' or '0,2' or '0..5'") from None
    if sum(max(hi - lo + 1, 0) for lo, hi in ranges) > MAX_SPEC_SIZE:
        raise CliError(f"counter spec asks for more than {MAX_SPEC_SIZE} values")
    values = {v for lo, hi in ranges for v in range(lo, hi + 1)}
    if not values or min(values) < 0:
        raise CliError("counter domain must be nonempty and nonnegative")
    return sorted(values)


def _instance_from_args(args) -> Instance:
    if args.instance is not None:
        if args.instance == "-":
            try:
                doc = json.load(sys.stdin)
            except json.JSONDecodeError as exc:
                raise CliError(f"stdin: not valid JSON ({exc})") from None
            inst = instance_from_json(doc)
        else:
            inst = load_instance(args.instance)
        if getattr(args, "mode", None):
            inst.mode = Mode(args.mode).semantics.value
        return inst
    if not (args.automaton and args.vars and args.counter):
        raise CliError("give an instance file, or --automaton with --vars and --counter")
    if not getattr(args, "mode", None):
        raise CliError("--mode is required with inline --vars/--counter")
    dfa = _load_dfa_arg(args.automaton)
    try:
        var_domains = [sorted({dfa.symbol_id(name) for name in group}) for group in _parse_domains(args.vars)]
    except KeyError as exc:
        raise CliError(str(exc)) from None
    mode = Mode(args.mode).semantics.value
    return Instance(dfa=dfa, mode=mode, var_domains=var_domains, counter_values=_parse_counter(args.counter))


def _format_removal(inst: Instance, var, value) -> str:
    if var == COUNTER_VAR:
        return f"N != {value}"
    shown = value if inst.is_composite else inst.dfa.alphabet[value]
    return f"x{var + 1} != {shown}"


def _cmd_validate(args) -> int:
    dfa = load_automaton(args.automaton)
    validate(dfa)
    print(f"ok: {dfa.num_states} states, {dfa.num_symbols} symbols")
    return 0


def _cmd_catalog(args) -> int:
    print(json.dumps(automaton_to_json(catalog(args.name)), indent=2, sort_keys=True))
    return 0


def _cmd_propagate(args) -> int:
    inst = _instance_from_args(args)
    mode = args.mode or inst.mode
    result = propagate_instance(inst, Mode(mode))
    print(f"status: {result.status}")
    for var, value in result.removals:
        print(_format_removal(inst, var, value))
    print(f"passes: {result.passes}")
    return 1 if result.failed else 0


def _cmd_oracle(args) -> int:
    inst = _instance_from_args(args)
    cap = args.cap or cap_from_env()
    if inst.is_composite:
        assert inst.signature is not None and inst.native_domains is not None
        report = enumerate_support_native(inst.dfa, inst.signature, inst.native_domains,
                                          inst.counter_values, inst.mode, cap)
        shown = [sorted(s) for s in report.supported]
    else:
        report = enumerate_support(inst.dfa, inst.make_store(), inst.mode, cap)
        shown = [[inst.dfa.alphabet[s] for s in sorted(sup)] for sup in report.supported]
    print(f"status: {'satisfiable' if report.satisfiable else 'unsatisfiable'}")
    print(f"solutions: {report.solution_count}")
    for i, values in enumerate(shown):
        print(f"supported: x{i + 1} = {','.join(map(str, values))}")
    print(f"supported: N = {','.join(map(str, sorted(report.supported_counter)))}")
    return 0 if report.satisfiable else 1


def _cmd_dump_sweep(args) -> int:
    if bool(args.catalog) == bool(args.automaton):
        raise CliError("give exactly one of --catalog or --automaton")
    dfa = catalog(args.catalog) if args.catalog else _load_dfa_arg(args.automaton)
    if args.uniform:
        if not 1 <= args.n <= MAX_SPEC_SIZE:
            raise CliError(f"--uniform needs --n in 1..{MAX_SPEC_SIZE}")
        groups = [args.uniform.split(",")] * args.n
    elif args.domains:
        groups = _parse_domains(args.domains)
    else:
        raise CliError("give --domains or --uniform with --n")
    try:
        var_domains = [sorted({dfa.symbol_id(name) for name in group}) for group in groups]
    except KeyError as exc:
        raise CliError(str(exc)) from None
    inst = Instance(dfa=dfa, mode="exact", var_domains=var_domains, counter_values=[0])
    store = inst.make_store()
    pre = forward(dfa, store, args.mode)
    if args.table == "pre":
        lines = format_rows(pre, dfa.state_names, 0)
    else:
        suf = backward(dfa, store, pre[-1], args.mode)
        lines = format_rows(suf[1:], dfa.state_names, 1)
    for line in lines:
        print(line)
    return 0


def _cmd_fuzz(args) -> int:
    cfg = GenConfig(max_states=args.max_states, max_n=args.max_n, seed=args.seed)
    modes = Instance.MODES if args.mode == "all" else (args.mode,)
    report = run_fuzz(cfg, args.count, modes, cap=args.cap or cap_from_env(), threads=args.threads)
    print(f"checked: {report.checked}")
    print(f"violations: {len(report.violations)}")
    print(f"elapsed: {report.elapsed:.1f}s", file=sys.stderr)
    if not report.violations:
        return 0
    os.makedirs(args.out, exist_ok=True)
    for v in report.violations:
        print(f"violation[{v.index}]: {v.mode} {v.kind}: {v.detail}")
        path = os.path.join(args.out, f"violation-{v.index:06d}-{v.mode}-{v.kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(v.instance_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote {len(report.violations)} failing instances to {args.out}", file=sys.stderr)
    return 1


def _cmd_solve(args) -> int:
    inst = _instance_from_args(args)
    if inst.is_composite:
        raise CliError("solve does not support signature instances; propagate/oracle do")
    propagator = args.propagator or args.mode or inst.mode
    if Mode(propagator).semantics is not Mode(inst.mode):
        raise CliError(f"propagator {propagator!r} does not decide {inst.mode!r} instances")
    stats = solve(inst.dfa, inst.make_store(), inst.mode, propagator)
    print(f"solutions: {stats.solutions}")
    print(f"failures: {stats.failures}")
    print(f"prunings: {stats.prunings}")
    print(f"nodes: {stats.nodes}")
    print(f"time: {stats.wall_time:.3f}s", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    corpus: list[tuple[str, Instance]] = []
    for dirpath, _dirnames, filenames in sorted(os.walk(args.corpus)):
        for filename in sorted(filenames):
            if not filename.endswith(".json"):
                continue
            path = os.path.join(dirpath, filename)
            inst = load_instance(path)
            family = inst.name or os.path.relpath(dirpath, args.corpus)
            if family == ".":
                family = "corpus"
            corpus.append((family, inst))
    rows = bench(corpus)
    print(format_bench(rows, fmt=args.format))
    return 0


def _add_instance_args(parser: argparse.ArgumentParser, with_mode: bool = True) -> None:
    parser.add_argument("instance", nargs="?", help="instance JSON file, or '-' for stdin")
    parser.add_argument("--automaton", help="automaton JSON path, '-' for stdin, or 'catalog:NAME'")
    parser.add_argument("--vars", help="inline domains, e.g. '2;1,2;1;1,2;1,2'")
    parser.add_argument("--counter", help="inline counter domain, e.g. '1' or '0,2' or '0..5'")
    if with_mode:
        parser.add_argument("--mode", choices=[mode.value for mode in Mode],
                            help="constraint semantics (overrides the instance file)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="regcount",
                                     description="Counting constraints over counter automata")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an automaton file")
    p.add_argument("automaton")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("catalog", help="print a built-in automaton as JSON")
    p.add_argument("name", choices=list(CATALOG_NAMES))
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("propagate", help="run one propagator to its fixpoint")
    _add_instance_args(p)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("oracle", help="brute-force supported values")
    _add_instance_args(p)
    p.add_argument("--cap", type=int, default=0, help="max ground sequences (default: REGCOUNT_CAP or 10^7)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("dump-sweep", help="print prefix/suffix counter tables")
    p.add_argument("--catalog", choices=list(CATALOG_NAMES))
    p.add_argument("--automaton", help="automaton JSON path or '-' for stdin")
    p.add_argument("--domains", help="per-position domains, e.g. 'r,t;r,t;r'")
    p.add_argument("--uniform", help="same domain for every position, e.g. 'r,t'")
    p.add_argument("--n", type=int, default=0, help="sequence length for --uniform")
    p.add_argument("--mode", choices=["min", "max"], required=True)
    p.add_argument("--table", choices=["pre", "suf"], default="pre")
    p.set_defaults(func=_cmd_dump_sweep)

    p = sub.add_parser("fuzz", help="differential-test the propagators on random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--mode", choices=[*Instance.MODES, "all"], default="all")
    p.add_argument("--cap", type=int, default=0, help="oracle cap (default: REGCOUNT_CAP or 10^7)")
    p.add_argument("--max-states", type=int, default=5)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default="fuzz-failures", help="directory for failing instances")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("solve", help="count solutions/failures/prunings by DFS")
    _add_instance_args(p)
    p.add_argument("--propagator", choices=["exact", "decomposed"],
                   help="filtering used at each node of an exact instance (default: the instance's own)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="aggregate search stats over a corpus directory")
    p.add_argument("corpus")
    p.add_argument("--format", choices=["table", "tsv"], default="table")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, MalformedAutomaton, MalformedInstance, UnknownAutomaton, CapExceeded, OSError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
