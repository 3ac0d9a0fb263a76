"""Command-line interface: one binary, eight subcommands.

    regcount validate AUTOMATON.json
    regcount catalog NAME
    regcount propagate INSTANCE.json [--mode ...]
    regcount oracle INSTANCE.json [--cap ...]
    regcount dump-sweep (--catalog NAME | --automaton PATH) ...
    regcount fuzz --seed S --count K [--mode ...]
    regcount solve INSTANCE.json [--mode ...]
    regcount bench CORPUS_DIR [--format table|tsv]

Exit codes: 0 success, 1 constraint failure or fuzz violation, 2 usage or
parse error, or a fuzz run whose cap left no index checked.  Outputs have
stable field ordering so they can be golden-file tested; timing information
goes to stderr.
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
    automaton_to_json,
    catalog,
    load_automaton,
    read_json,
)
from .domains import (COUNTER_VAR, DomainStore, Instance, MalformedInstance, instance_from_json, load_instance,
                      save_instance, symbol_ids)
from .generator import GenConfig, run_fuzz
from .oracle import DEFAULT_CAP, CapExceeded, enumerate_support, enumerate_support_native
from .propagators import Mode, propagate_instance
from .search import bench, format_bench, solve
from .sweep import backward, format_rows, forward


#: Most counter values, ``dump-sweep`` positions, or ``fuzz`` states or
#: positions, one command line may ask for; checked before anything that size
#: is allocated.
MAX_SPEC_SIZE = 100_000


class CliError(Exception):
    """Bad input reported to the user; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose every error is one ``error:`` line and exit code 2, without the usage block."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _load_dfa_arg(spec: str) -> CounterDfa:
    if spec.startswith("catalog:"):
        return catalog(spec.split(":", 1)[1])
    return load_automaton(spec)


def _parse_domains(dfa: CounterDfa, spec: str) -> list[list[int]]:
    """Per-position symbol ids of a ``';'``-separated list of ``','``-separated name groups."""
    groups = [[name for name in chunk.split(",") if name] for chunk in spec.split(";")]
    if not all(groups):  # a group of bare commas names no symbol, as an empty one
        raise CliError("domain spec must be ';'-separated nonempty groups, e.g. '2;1,2;1'")
    return [sorted(set(symbol_ids(dfa, group))) for group in groups]


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
        if (args.automaton, args.vars, args.counter) != (None, None, None):
            raise CliError("give an instance file or --automaton/--vars/--counter, not both")
        inst = instance_from_json(read_json("-")) if args.instance == "-" else load_instance(args.instance)
        if args.mode:
            inst.mode = Mode(args.mode).semantics.value
        return inst
    if not (args.automaton and args.vars and args.counter):
        raise CliError("give an instance file, or --automaton with --vars and --counter")
    if not args.mode:
        raise CliError("--mode is required with inline --vars/--counter")
    dfa = _load_dfa_arg(args.automaton)
    var_domains = _parse_domains(dfa, args.vars)
    mode = Mode(args.mode).semantics.value
    return Instance(dfa=dfa, mode=mode, var_domains=var_domains, counter_values=_parse_counter(args.counter))


def _format_removal(inst: Instance, var, value) -> str:
    if var == COUNTER_VAR:
        return f"N != {value}"
    shown = value if inst.is_composite else inst.dfa.alphabet[value]
    return f"x{var + 1} != {shown}"


def _cmd_validate(args) -> int:
    dfa = load_automaton(args.automaton)
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


def _cap_arg(text: str) -> int:
    """The enumeration cap of ``--cap``: an integer, as ``int`` reads it, of at least 1."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be a positive number of ground sequences; got {text!r}")
    return cap


def _cmd_oracle(args) -> int:
    inst = _instance_from_args(args)
    if inst.is_composite:
        assert inst.signature is not None and inst.native_domains is not None
        report = enumerate_support_native(inst.dfa, inst.signature, inst.native_domains,
                                          inst.counter_values, inst.mode, args.cap)
        shown = [sorted(s) for s in report.supported]
    else:
        report = enumerate_support(inst.dfa, inst.make_store(), inst.mode, args.cap)
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
    if bool(args.uniform) == bool(args.domains):
        raise CliError("give exactly one of --domains or --uniform with --n")
    if args.uniform:
        if args.n is None or not 1 <= args.n <= MAX_SPEC_SIZE:
            raise CliError(f"--uniform needs --n in 1..{MAX_SPEC_SIZE}")
        groups = _parse_domains(dfa, args.uniform)
        if len(groups) != 1:
            raise CliError("--uniform takes one group, e.g. 'r,t'; give per-position groups with --domains")
        groups *= args.n
    else:
        if args.n is not None:
            raise CliError("give --n only with --uniform; --domains gives one group per position")
        groups = _parse_domains(dfa, args.domains)
    store = DomainStore(dfa.num_symbols, groups, [0])
    if args.table == "pre":
        pre_min, pre_max = forward(dfa, store)
        lines = format_rows(pre_min if args.mode == "min" else pre_max, dfa.state_names, 0)
    else:
        # Suffix rows cover every state, reachable or not.
        lines = format_rows(backward(dfa, store, args.mode)[1:], dfa.state_names, 1)
    for line in lines:
        print(line)
    return 0


def _cmd_fuzz(args) -> int:
    if args.count < 1:
        raise CliError(f"--count must be at least 1; got {args.count}")
    if args.seed < 0:
        raise CliError(f"--seed must be nonnegative; got {args.seed}")
    if args.threads < 1:
        raise CliError(f"--threads must be at least 1; got {args.threads}")
    for option, value in (("--max-states", args.max_states), ("--max-n", args.max_n)):
        if not 1 <= value <= MAX_SPEC_SIZE:
            raise CliError(f"{option} must be in 1..{MAX_SPEC_SIZE}; got {value}")
    cfg = GenConfig(max_states=args.max_states, max_n=args.max_n, seed=args.seed)
    modes = Instance.MODES if args.mode == "all" else (args.mode,)
    report = run_fuzz(cfg, args.count, modes, cap=args.cap, threads=args.threads)
    print(f"checked: {report.checked}")
    if report.capped:
        print(f"capped: {len(report.capped)} (indices {', '.join(map(str, report.capped))})")
    print(f"violations: {len(report.violations)}")
    print(f"elapsed: {report.elapsed:.1f}s", file=sys.stderr)
    if not report.violations:
        if not report.checked:
            # A run that checked nothing must not read as a pass.
            print(f"error: the cap of {args.cap} ground sequences stopped every index; raise --cap or lower --max-n",
                  file=sys.stderr)
            return 2
        return 0
    os.makedirs(args.out, exist_ok=True)
    for v in report.violations:
        # An index's among instance gets its own names, so it never
        # overwrites the plain instance's file.
        mode = f"among-{v.mode}" if v.instance.is_composite else v.mode
        print(f"violation[{v.index}]: {mode} {v.kind}: {v.detail}")
        save_instance(v.instance, os.path.join(args.out, f"violation-{v.index:06d}-{mode}-{v.kind}.json"))
    print(f"wrote {len(report.violations)} failing instances to {args.out}", file=sys.stderr)
    return 1


def _cmd_solve(args) -> int:
    inst = _instance_from_args(args)
    if inst.is_composite:
        raise CliError("solve does not support signature instances; propagate/oracle do")
    stats = solve(inst.dfa, inst.make_store(), inst.mode, args.mode or inst.mode)
    print(f"solutions: {stats.solutions}")
    print(f"failures: {stats.failures}")
    print(f"prunings: {stats.prunings}")
    print(f"nodes: {stats.nodes}")
    print(f"time: {stats.wall_time:.3f}s", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    if not os.path.isdir(args.corpus):  # os.walk would read it as an empty corpus
        raise CliError(f"{args.corpus}: not a directory")
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


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("instance", nargs="?", help="instance JSON file, or '-' for stdin")
    parser.add_argument("--automaton", help="automaton JSON path, '-' for stdin, or 'catalog:NAME'")
    parser.add_argument("--vars", help="inline domains, e.g. '2;1,2;1;1,2;1,2'")
    parser.add_argument("--counter", help="inline counter domain, e.g. '1' or '0,2' or '0..5'")
    parser.add_argument("--mode", choices=[mode.value for mode in Mode],
                        help="constraint semantics, or 'decomposed' for exact by atmost+atleast "
                             "(overrides the instance file)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regcount", description="Counting constraints over counter automata")
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
    p.add_argument("--cap", type=_cap_arg, default=DEFAULT_CAP, help="max ground sequences (default: 10^7)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("dump-sweep", help="print prefix/suffix counter tables")
    p.add_argument("--catalog", choices=list(CATALOG_NAMES))
    p.add_argument("--automaton", help="automaton JSON path or '-' for stdin")
    p.add_argument("--domains", help="per-position domains, e.g. 'r,t;r,t;r'")
    p.add_argument("--uniform", help="same domain for every position, e.g. 'r,t'")
    p.add_argument("--n", type=int, help="sequence length for --uniform")
    p.add_argument("--mode", choices=["min", "max"], required=True)
    p.add_argument("--table", choices=["pre", "suf"], default="pre")
    p.set_defaults(func=_cmd_dump_sweep)

    p = sub.add_parser("fuzz", help="differential-test the propagators on random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--mode", choices=[*Instance.MODES, "all"], default="all")
    p.add_argument("--cap", type=_cap_arg, default=DEFAULT_CAP, help="oracle cap in ground sequences (default: 10^7)")
    p.add_argument("--max-states", type=int, default=5)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default="fuzz-failures", help="directory for failing instances")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("solve", help="count solutions/failures/prunings by DFS")
    _add_instance_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="propagate each corpus instance once at the root; time, failures, prunings")
    p.add_argument("corpus")
    p.add_argument("--format", choices=["table", "tsv"], default="table")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 2
    except (CliError, MalformedAutomaton, MalformedInstance, UnknownAutomaton, CapExceeded) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
