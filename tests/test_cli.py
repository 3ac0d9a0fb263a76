import argparse
import contextlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel
from regcount import (DomainStore, Instance, catalog, cli, format_rows, generator, instance_from_json,
                      instance_to_json, load_instance, save_instance)
from regcount.automaton import automaton_to_json
from regcount.generator import FuzzReport, FuzzViolation, GenConfig, random_among_instance, rng_for

DATA = os.path.join(os.path.dirname(__file__), "data")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_main(*args, stdin=""):
    """``cli.main`` in this process: (exit code, stdout, stderr).

    A usage error that argparse turns into ``SystemExit`` returns its code.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_cli(*args, stdin=None):
    """``regcount ARGS`` through :func:`run_main`, shaped like a finished subprocess."""
    code, out, err = run_main(*args, stdin=stdin or "")
    return subprocess.CompletedProcess(["regcount", *args], code, out, err)


def run_process(*args, stdin=None, env=None):
    """``python -m regcount ARGS`` in a subprocess: the entry point, real pipes and exit codes.

    The child imports regcount from this checkout's ``src``, installed or not.
    ``stdin`` is text or bytes; ``env`` adds variables to the child's
    environment.
    """
    env = dict(os.environ, **(env or {}),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "regcount", *args],
        capture_output=True,
        input=stdin.encode() if isinstance(stdin, str) else stdin,
        env=env,
    )
    return subprocess.CompletedProcess(result.args, result.returncode, result.stdout.decode(), result.stderr.decode())


@pytest.fixture()
def aab_path(tmp_path):
    path = tmp_path / "aab.json"
    path.write_text(json.dumps(automaton_to_json(catalog("AAB"))))
    return str(path)


def witness_instance_doc():
    return {
        "automaton": automaton_to_json(catalog("B")),
        "vars": [["2"], ["1", "2"], ["1"], ["1", "2"], ["1", "2"]],
        "counter": [1],
        "mode": "exact",
    }


#: Inline options that complete a command naming only an automaton over B's symbols.
INLINE = ("--vars", "1,2;1,2", "--counter", "0", "--mode", "exact")


# -- validate / catalog -------------------------------------------------------


def test_validate_ok(aab_path):
    result = run_cli("validate", aab_path)
    assert result.returncode == 0
    assert result.stdout.startswith("ok: 3 states")


def test_validate_broken_file_exits_2():
    result = run_process("validate", os.path.join(DATA, "broken_automaton.json"))
    assert result.returncode == 2
    assert "missing transition" in result.stderr


def test_validate_missing_file_exits_2():
    result = run_cli("validate", "no-such-file.json")
    assert result.returncode == 2
    # The path and the reason, not the bare errno.
    assert result.stderr == "error: no-such-file.json: No such file or directory\n"


def test_catalog_emits_loadable_json():
    result = run_cli("catalog", "B")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["states"] == 2


def test_catalog_unknown_is_usage_error():
    result = run_process("catalog", "NOPE")
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr


@pytest.mark.parametrize("args", [
    (),
    ("catalog", "NOPE"),
    ("fuzz", "--count", "abc"),
    ("propagate", "--mode", "bogus", "x.json"),
], ids=["no-subcommand", "unknown-choice", "not-an-int", "unknown-mode"])
def test_a_parse_error_exits_2_with_one_line(args):
    # argparse's own errors drop the usage block, as every other error does.
    code, out, err = run_main(*args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    ("args", "stdin"),
    [
        (("propagate", "--automaton", "catalog:B", "--vars", "1;z", "--counter", "0", "--mode", "exact"), ""),
        (("dump-sweep", "--automaton", "catalog:B", "--domains", "1;z", "--mode", "min"), ""),
        (("propagate", "-"), json.dumps({**witness_instance_doc(), "vars": [["1"], ["z"]]})),
    ],
    ids=["inline-vars", "dump-sweep", "instance-file"],
)
def test_unknown_symbol_message_is_not_a_repr(args, stdin):
    code, out, err = run_main(*args, stdin=stdin)
    assert code == 2 and out == ""
    # The KeyError's message itself, not its quoted repr.
    assert err == "error: unknown symbol 'z'; alphabet is ['1', '2']\n", err


# -- propagate ------------------------------------------------------------------


def test_catalog_pipes_into_propagate():
    piped = run_process("catalog", "B").stdout
    result = run_process(
        "propagate",
        "--automaton", "-",
        "--vars", "2;1,2;1;1,2;1,2",
        "--counter", "1",
        "--mode", "exact",
        stdin=piped,
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "status: fixpoint"
    assert "x5 != 2" in lines
    assert lines[-1].startswith("passes: ")


def test_propagate_instance_file(tmp_path):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness_instance_doc()))
    result = run_cli("propagate", str(path))
    assert result.returncode == 0
    assert "x5 != 2" in result.stdout.splitlines()


def test_propagate_decomposed_misses_the_inference(tmp_path):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness_instance_doc()))
    result = run_cli("propagate", str(path), "--mode", "decomposed")
    assert result.returncode == 0
    assert "x5 != 2" not in result.stdout.splitlines()


@pytest.mark.parametrize("mode", ["exact", "decomposed"])
def test_propagate_certifies_the_fixpoint_in_one_pass(mode):
    # "rr" counts 1: the first pass's N rule removes N = 0, after which
    # dom(N) binds neither end, so the pass removes no symbol and ends.
    code, out, err = run_main("propagate", "--automaton", "catalog:RST", "--vars", "r;r", "--counter", "0..1",
                              "--mode", mode)
    assert (code, out, err) == (0, "status: fixpoint\nN != 0\npasses: 1\n", "")


def test_propagate_lists_the_n_rule_removals_of_a_pass_first():
    # "r" counts 1 and "s" 0: the N rule removes N = 2 before the symbol
    # loop, which then checks the low end alone, removes r and certifies.
    code, out, err = run_main("propagate", "--automaton", "catalog:RST", "--vars", "r,s", "--counter", "0,2",
                              "--mode", "exact")
    assert (code, out, err) == (0, "status: fixpoint\nN != 2\nx1 != r\npasses: 1\n", "")


def test_propagate_failure_exits_1():
    piped = run_process("catalog", "B").stdout
    result = run_process(
        "propagate",
        "--automaton", "-", "--vars", "2;2", "--counter", "5", "--mode", "exact",
        stdin=piped,
    )
    assert result.returncode == 1
    assert result.stdout.splitlines()[0] == "status: failed"


def test_propagate_malformed_instance_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"vars\": []}")
    result = run_cli("propagate", str(path))
    assert result.returncode == 2
    assert "error:" in result.stderr


def among_instance_doc(vars, signature):
    return {
        "automaton": automaton_to_json(catalog("AMONG")),
        "vars": vars,
        "counter": [1],
        "mode": "atleast",
        "signature": signature,
    }


def with_automaton_field(key, value):
    doc = witness_instance_doc()
    doc["automaton"][key] = value
    return doc


def with_true_increment():
    doc = witness_instance_doc()
    doc["automaton"]["transitions"][0]["inc"] = True
    return doc


def with_counter(values):
    doc = witness_instance_doc()
    doc["counter"] = values
    return doc


@pytest.mark.parametrize(
    "make_doc",
    [
        lambda: with_automaton_field("start", "0"),
        lambda: with_automaton_field("transitions", 5),
        lambda: with_automaton_field("states", True),
        with_true_increment,
        lambda: with_counter([True]),
        lambda: among_instance_doc([[1, 2], ["x"]], {"set": [2]}),
        lambda: among_instance_doc([[1.5], [2]], {"set": [2]}),
        lambda: among_instance_doc([[1], [2]], [{"x": "in", "1": "in"}, {"2": "notin"}]),
        lambda: dict(witness_instance_doc(), name=5),
        lambda: dict(witness_instance_doc(), automaton="a\0b.json"),
        lambda: with_automaton_field("names", [1, {"x": [2]}]),
    ],
    ids=["string-start", "scalar-transitions", "true-states", "true-inc", "true-counter",
         "string-native-value", "float-native-value", "string-signature-key", "number-name",
         "nul-in-automaton-path", "non-string-state-names"],
)
def test_malformed_instance_exits_2_with_one_line(tmp_path, make_doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(make_doc()))
    for command in ("propagate", "oracle", "solve"):
        result = run_cli(command, str(path))
        assert result.returncode == 2, (command, result.stderr)
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr


def field_paths(doc, prefix=()):
    """Key paths of every field in a JSON document, nested ones included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


VALID_DOCS = (
    witness_instance_doc(),
    among_instance_doc([[1, 2], [2], [2, 3]], [{"1": "notin", "2": "in"}, {"2": "in"}, {"2": "in", "3": "notin"}]),
    among_instance_doc([[1, 2], [2], [2, 3]], {"set": [2]}),
)
MUTATIONS = [(doc, path) for doc in VALID_DOCS for path in field_paths(doc)]
POOL = (True, "0", -1, 1.5, None, [], {}, 2**70)


@given(st.sampled_from(MUTATIONS), st.sampled_from(POOL))
@settings(max_examples=150, deadline=None)
def test_one_replaced_field_keeps_the_exit_code_contract(mutation, value):
    doc, path = mutation
    text = json.dumps(replaced(doc, path, value))
    for command in ("propagate", "oracle", "solve"):
        code, out, err = run_main(command, "-", stdin=text)
        assert code in (0, 1, 2), (command, path, value, code)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (command, path, value, err)


def test_validate_rejects_true_state_count(tmp_path):
    doc = automaton_to_json(catalog("B"))
    doc["states"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = run_cli("validate", str(path))
    assert result.returncode == 2
    assert result.stderr == "error: 'states' must be a positive integer\n"


@pytest.mark.parametrize("command", [
    ("validate", "{file}"),
    ("validate", "-"),
    ("propagate", "{instance}"),
    ("propagate", "--automaton", "-", *INLINE),
    ("oracle", "{instance}"),
    ("oracle", "--automaton", "{file}", *INLINE),
    ("solve", "{instance}"),
    ("solve", "--automaton", "-", *INLINE),
    ("dump-sweep", "--automaton", "{file}", "--domains", "1;2", "--mode", "min"),
    ("dump-sweep", "--automaton", "-", "--domains", "1;2", "--mode", "min"),
], ids=lambda args: " ".join(args[:3]))
def test_an_accepting_list_that_leaves_a_state_out_exits_2_with_one_line(tmp_path, command):
    # Every state of a counter automaton accepts; a rejecting state belongs
    # in lift_accepting, so no command may run the automaton as if it accepted.
    doc = {**automaton_to_json(catalog("B")), "accepting": [0]}
    file = tmp_path / "b.json"
    file.write_text(json.dumps(doc))
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({**witness_instance_doc(), "automaton": doc}))
    args = [word.format(file=file, instance=instance) for word in command]
    code, out, err = run_main(*args, stdin=json.dumps(doc))
    assert (code, out) == (2, ""), err
    # An instance file's error names the file first.
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err.endswith("'accepting' leaves out states [1], but every state of a counter automaton accepts; "
                        "fold rejecting states into the counter with lift_accepting\n"), err


def test_propagate_signature_instance(tmp_path):
    doc = {
        "automaton": automaton_to_json(catalog("AMONG")),
        "vars": [[1, 2], [2], [2, 3]],
        "counter": [3],
        "mode": "atleast",
        "signature": {"set": [2]},
    }
    path = tmp_path / "among.json"
    path.write_text(json.dumps(doc))
    result = run_cli("propagate", str(path))
    assert result.returncode == 0
    assert "x1 != 1" in result.stdout.splitlines()
    assert "x3 != 3" in result.stdout.splitlines()


# -- oracle ----------------------------------------------------------------------


def test_oracle_reports_supported_counter_hole():
    piped = run_cli("catalog", "B").stdout
    result = run_cli(
        "oracle",
        "--automaton", "-", "--vars", "2;1,2;2", "--counter", "0..2", "--mode", "exact",
        stdin=piped,
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "status: satisfiable"
    assert lines[1] == "solutions: 2"
    assert "supported: N = 0,2" in lines


def test_oracle_on_a_long_ground_instance():
    # One recursion level per position would overflow the stack here.
    result = run_cli("oracle", "--automaton", "catalog:B", "--vars", ";".join(["2"] * 1500),
                     "--counter", "0..2000", "--mode", "atmost")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "status: satisfiable"
    assert lines[2:-1] == [f"supported: x{i} = 2" for i in range(1, 1501)]


def test_oracle_unsatisfiable_exits_1():
    piped = run_cli("catalog", "B").stdout
    result = run_cli(
        "oracle",
        "--automaton", "-", "--vars", "2;2", "--counter", "5", "--mode", "exact",
        stdin=piped,
    )
    assert result.returncode == 1
    assert result.stdout.splitlines()[0] == "status: unsatisfiable"


# -- dump-sweep -------------------------------------------------------------------


def test_dump_sweep_reference_golden():
    result = run_cli("dump-sweep", "--automaton", "catalog:RST", "--uniform", "r,t", "--n", "6",
                     "--mode", "max", "--table", "pre")
    assert result.returncode == 0
    with open(os.path.join(DATA, "rst_premax_n6.golden"), "rb") as fh:
        assert result.stdout.encode() == fh.read()


def test_dump_sweep_prints_the_prefix_side_of_its_mode():
    # Over {r, t}^6 the min and max prefix rows of RST differ, so each mode
    # must print its own side of the two-sided sweep.
    rst = catalog("RST")
    store = DomainStore(rst.num_symbols, [(rst.symbol_id("r"), rst.symbol_id("t"))] * 6, (0,))
    printed = {}
    for mode in ("min", "max"):
        code, out, err = run_main("dump-sweep", "--automaton", "catalog:RST", "--uniform", "r,t", "--n", "6",
                                  "--mode", mode, "--table", "pre")
        assert (code, err) == (0, "")
        expected = format_rows(reference_kernel.forward(rst, store, mode), rst.state_names, 0)
        assert out.splitlines() == expected, mode
        printed[mode] = out
    assert printed["min"] != printed["max"]


def test_dump_sweep_suffix_table():
    result = run_cli("dump-sweep", "--automaton", "catalog:B", "--domains", "2;1,2;2",
                     "--mode", "min", "--table", "suf")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "1: eps=0,q=1"
    # Suffixes may end anywhere, so the base row lists every state.
    assert lines[-1] == "4: eps=0,q=0"


@pytest.mark.parametrize("group", ["r,t", "r,", ",t"])
def test_uniform_reads_its_group_as_domains_does(group):
    uniform = run_main("dump-sweep", "--automaton", "catalog:RST", "--uniform", group, "--n", "3", "--mode", "min")
    domains = run_main("dump-sweep", "--automaton", "catalog:RST", "--domains", ";".join([group] * 3), "--mode", "min")
    assert uniform == domains
    assert uniform[0] == 0 and uniform[1].count("\n") == 4


@pytest.mark.parametrize(("group", "named"), [(",", "nonempty groups"), ("r;t", "one group")])
def test_uniform_takes_one_group_naming_a_symbol(group, named):
    code, out, err = run_main("dump-sweep", "--automaton", "catalog:RST", "--uniform", group, "--n", "3",
                              "--mode", "min")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err, err


def test_dump_sweep_requires_exactly_one_source():
    result = run_cli("dump-sweep", "--mode", "max")
    assert result.returncode == 2


@pytest.mark.parametrize("spec", ["a;,;b", "a;;b", ",", "a,b;,,"])
@pytest.mark.parametrize("command", [
    ("propagate", "--automaton", "catalog:AAB", "--counter", "0", "--mode", "atmost", "--vars"),
    ("dump-sweep", "--automaton", "catalog:AAB", "--mode", "min", "--domains"),
], ids=["propagate", "dump-sweep"])
def test_a_domain_group_naming_no_symbol_exits_2(command, spec):
    # An instance file with an empty domain exits 2 too: no command reads
    # a group of bare commas as an empty domain.
    code, out, err = run_main(*command, spec)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "nonempty groups" in err, err


PAST_THE_BOUND = cli.MAX_SPEC_SIZE + 1


@pytest.mark.parametrize(
    ("args", "named"),
    [
        (("propagate", "--automaton", "catalog:B", "--vars", "1,2;1,2", "--counter", f"0..{PAST_THE_BOUND - 1}",
          "--mode", "atmost"), "counter spec"),
        (("propagate", "--automaton", "catalog:B", "--vars", "1,2", "--counter", f"0,2..{PAST_THE_BOUND}",
          "--mode", "exact"), "counter spec"),
        (("dump-sweep", "--automaton", "catalog:B", "--uniform", "1,2", "--n", str(PAST_THE_BOUND), "--mode", "min"),
         "--n"),
        (("dump-sweep", "--automaton", "catalog:B", "--uniform", "1,2", "--n", "-3", "--mode", "min"), "--n"),
        (("fuzz", "--max-n", "0"), "--max-n"),
        (("fuzz", "--max-n", "-1"), "--max-n"),
        (("fuzz", "--max-states", "0"), "--max-states"),
        (("fuzz", "--cap", "-3"), "--cap"),
        (("fuzz", "--cap", "0"), "--cap"),
        (("fuzz", "--count", "-5"), "--count"),
        (("fuzz", "--seed", "-1"), "--seed"),
        (("fuzz", "--threads", "0"), "--threads"),
        (("fuzz", "--threads", "-3"), "--threads"),
        (("oracle", "--automaton", "catalog:B", "--vars", "1,2;2", "--counter", "0..2", "--mode", "exact",
          "--cap", "-3"), "--cap"),
        (("oracle", "--automaton", "catalog:B", "--vars", "1,2;2", "--counter", "0..2", "--mode", "exact",
          "--cap", "0"), "--cap"),
        (("oracle", "--automaton", "catalog:B", "--vars", "1,2;1,2", "--counter", "0", "--mode", "atmost",
          "--cap", "1"), "cap of 1 "),
        (("propagate", "--automaton", "catalog:B", "--vars", "1,2", "--counter", "0..x", "--mode", "atmost"),
         "counter spec"),
        (("propagate", "--automaton", "catalog:B", "--vars", "1,2", "--counter", "-1", "--mode", "atmost"),
         "nonnegative"),
        (("propagate", "--automaton", "catalog:B", "--vars", "1,2", "--counter", "0"), "--mode"),
        (("propagate", "--automaton", "catalog:B", "--vars", "1,2", "--mode", "atmost"), "--counter"),
        (("dump-sweep", "--automaton", "catalog:RST", "--uniform", "r", "--n", "2", "--domains", "t;t;t",
          "--mode", "min"), "--domains: not allowed with argument --uniform"),
        (("dump-sweep", "--automaton", "catalog:B", "--domains", "1;2", "--mode", "min", "--n", "5"),
         "--n only with --uniform"),
        (("dump-sweep", "--automaton", "catalog:B", "--uniform", "1,2", "--mode", "min"), "--uniform only with --n"),
    ],
    ids=["counter-range", "counter-ranges", "uniform-n", "negative-n", "fuzz-max-n-0", "fuzz-negative-max-n",
         "fuzz-max-states-0", "fuzz-negative-cap", "fuzz-cap-0", "fuzz-negative-count", "fuzz-negative-seed",
         "fuzz-threads-0", "fuzz-negative-threads", "oracle-negative-cap", "oracle-cap-0", "oracle-cap-exceeded",
         "malformed-counter", "negative-counter", "inline-without-mode", "inline-without-counter",
         "uniform-with-domains", "n-without-uniform", "uniform-without-n"],
)
def test_oversized_or_negative_specs_exit_2_before_allocating(args, named):
    code, out, err = run_main(*args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err, err


def refuse_to_generate(monkeypatch):
    """Make any start of fuzz generation fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("generation started")

    for name in ("GenConfig", "run_fuzz"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(generator, "rng_for", refuse)


@pytest.mark.parametrize("value", [10**20, PAST_THE_BOUND], ids=["1e20", "past-the-bound"])
@pytest.mark.parametrize("option", ["--max-states", "--max-n"])
def test_fuzz_generator_options_past_the_bound_exit_2_before_generating(monkeypatch, option, value):
    # Such a value would reach numpy's bounds check, or ask for a transition
    # table that size, if generation started.
    refuse_to_generate(monkeypatch)
    code, out, err = run_main("fuzz", option, str(value))
    assert (code, out) == (2, "")
    assert err == f"error: argument {option}: must be an integer in 1..{cli.MAX_SPEC_SIZE}; got '{value}'\n"


#: A valid rest of the command line for each subcommand with an integer option.
REST_OF = {
    "oracle": ("--automaton", "catalog:B", "--vars", "1,2;2", "--counter", "0..2", "--mode", "exact"),
    "dump-sweep": ("--automaton", "catalog:B", "--uniform", "1,2", "--n", "3", "--mode", "min"),
    "fuzz": ("--count", "1"),
}


def subcommand_parsers():
    """The parser of each subcommand, by name."""
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def integer_options():
    """(subcommand, option, reader) for every option the parser reads with its bounded-integer reader."""
    return [(name, action.option_strings[-1], action.type) for name, parser in subcommand_parsers().items()
            for action in parser._actions if isinstance(action.type, cli._IntArg)]


def test_the_seven_integer_options_share_one_reader():
    found = {(name, option) for name, option, _ in integer_options()}
    assert found == {("oracle", "--cap"), ("dump-sweep", "--n"), *(("fuzz", option) for option in (
        "--seed", "--count", "--cap", "--max-states", "--max-n", "--threads"))}


#: One below each integer option's low end, one above its high end where it
#: has one, and a value that is no integer.
REFUSED = [(name, option, str(value)) for name, option, reader in integer_options()
           for value in (reader.low - 1, *([] if reader.high is None else [reader.high + 1]), "1.5")]


@pytest.mark.parametrize(("command", "option", "value"), REFUSED, ids=[" ".join(case) for case in REFUSED])
def test_every_integer_option_out_of_range_exits_2_before_generating(monkeypatch, command, option, value):
    refuse_to_generate(monkeypatch)
    code, out, err = run_main(command, *REST_OF[command], option, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: argument {option}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("inline", [
    ("--automaton", "catalog:RST"),
    ("--vars", "r;r"),
    ("--counter", "0"),
    ("--automaton", "catalog:RST", "--vars", "r;r", "--counter", "0"),
], ids=["automaton", "vars", "counter", "all-three"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_an_instance_with_inline_options_exits_2(tmp_path, inline, source):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness_instance_doc()))
    instance = str(path) if source == "file" else "-"
    code, out, err = run_main("propagate", instance, *inline, stdin=json.dumps(witness_instance_doc()))
    assert code == 2 and out == ""
    assert err.startswith("error: give an instance file or --automaton") and err.count("\n") == 1, err
    assert inline[0] in err, err


def test_a_cap_at_the_ground_sequence_count_runs(tmp_path):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness_instance_doc()))  # 1 * 2 * 1 * 2 * 2 = 8 ground sequences
    uncapped = run_main("oracle", str(path))
    assert uncapped[0] == 0 and uncapped[1].startswith("status: satisfiable\n")
    assert run_main("oracle", str(path), "--cap", "8") == uncapped
    assert run_main("oracle", str(path), "--cap", "9") == uncapped
    for cap in ("1", "7"):
        code, out, err = run_main("oracle", str(path), "--cap", cap)
        assert code == 2 and out == ""
        assert err == f"error: instance exceeds the enumeration cap of {cap} ground sequences\n"


def test_counter_spec_at_the_bound_is_accepted():
    code, out, err = run_main("propagate", "--automaton", "catalog:B", "--vars", "2;2", "--counter",
                              f"0..{cli.MAX_SPEC_SIZE - 1}", "--mode", "atmost")
    assert code == 0, err
    assert out.splitlines()[:2] == ["status: fixpoint", "N != 0"]


def test_dump_sweep_from_automaton_file(tmp_path, aab_path):
    result = run_cli("dump-sweep", "--automaton", aab_path, "--domains", "a;a;b",
                     "--mode", "min", "--table", "pre")
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "3: eps=1"


def test_instance_on_stdin():
    result = run_cli("propagate", "-", stdin=json.dumps(witness_instance_doc()))
    assert result.returncode == 0
    assert "x5 != 2" in result.stdout.splitlines()


@pytest.mark.parametrize("args", [
    ("propagate", "-"),
    ("oracle", "-"),
    ("solve", "-"),
    ("propagate", "--automaton", "-", *INLINE),
    ("oracle", "--automaton", "-", *INLINE),
    ("solve", "--automaton", "-", *INLINE),
    ("dump-sweep", "--automaton", "-", "--domains", "1;2", "--mode", "min"),
], ids=lambda args: " ".join(args[:3]))
def test_invalid_json_on_stdin_exits_2_with_one_line(args):
    code, out, err = run_main(*args, stdin='{"states": 2,')
    assert code == 2 and out == ""
    assert err.startswith("error: stdin: not valid JSON (") and err.endswith(")\n"), err
    assert err.count("\n") == 1, err


#: Sources that are not JSON for a reason other than syntax: bytes that are
#: not UTF-8, and arrays nested past the recursion limit.
NOT_JSON = {"undecodable": b'\xff\xfe{"states": 1}', "too-deep": b"[" * 200_000}


@pytest.mark.parametrize("kind", NOT_JSON)
@pytest.mark.parametrize("command", [
    ("validate", "{file}"),
    ("propagate", "{file}"),
    ("propagate", "-"),
    ("propagate", "--automaton", "{file}", *INLINE),
    ("dump-sweep", "--automaton", "{file}", "--domains", "1;2", "--mode", "min"),
    ("bench", "{corpus}"),
    ("propagate", "{instance}"),
], ids=["validate", "propagate-file", "propagate-stdin", "automaton-file", "dump-sweep", "bench",
        "instance-naming-the-file"])
def test_a_source_that_is_not_json_exits_2_naming_it(tmp_path, command, kind):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    bad = corpus / "bad.json"
    bad.write_bytes(NOT_JSON[kind])
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({**witness_instance_doc(), "automaton": "corpus/bad.json"}))
    args = [word.format(file=bad, corpus=corpus, instance=instance) for word in command]
    # A strict stdin decoder, as under a UTF-8 locale, so bytes that are not
    # UTF-8 fail to decode on stdin as they do in a file.
    result = run_process(*args, stdin=NOT_JSON[kind], env={"PYTHONIOENCODING": "utf-8:strict"})
    assert (result.returncode, result.stdout) == (2, ""), result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    assert f"{'stdin' if '-' in args else bad}: not valid JSON (" in result.stderr, result.stderr


def test_undecodable_stdin_names_the_decode_error_in_any_locale(monkeypatch, tmp_path):
    # Under the C locale Python reads stdin with a lenient decoder; stdin is
    # still read as strict UTF-8, so it fails as the same bytes in a file do.
    monkeypatch.delenv("PYTHONIOENCODING", raising=False)
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_JSON["undecodable"])
    piped = run_process("propagate", "-", stdin=NOT_JSON["undecodable"], env={"LC_ALL": "C"})
    named = run_process("propagate", str(bad), env={"LC_ALL": "C"})
    assert (piped.returncode, piped.stdout) == (2, ""), piped.stderr
    assert "'utf-8' codec can't decode byte 0xff" in piped.stderr, piped.stderr
    assert piped.stderr == named.stderr.replace(str(bad), "stdin")


def test_solve_with_decomposed_propagator():
    piped = run_cli("catalog", "B").stdout
    result = run_cli(
        "solve", "--automaton", "-", "--vars", "2;1,2;2", "--counter", "0..2",
        "--mode", "decomposed",
        stdin=piped,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "solutions: 2"


# -- counters past U64_MAX ---------------------------------------------------------


def u64_max_instance_args():
    # One state; a adds 2^64 - 1 and b adds nothing.
    doc = {
        "states": 1,
        "alphabet": ["a", "b"],
        "start": 0,
        "transitions": [
            {"from": 0, "symbol": "a", "to": 0, "inc": 2**64 - 1},
            {"from": 0, "symbol": "b", "to": 0, "inc": 0},
        ],
    }
    return ["--automaton", "-", "--vars", "a,b;a,b;b", "--counter", "0,1"], json.dumps(doc)


@pytest.mark.parametrize("mode", ["atmost", "atleast", "exact", "decomposed"])
def test_counters_past_u64_max_match_the_oracle(mode):
    args, automaton = u64_max_instance_args()
    oracle = run_cli("oracle", *args, "--mode", mode, stdin=automaton)
    assert oracle.returncode == 0, oracle.stderr
    # "supported: x1 = a,b" -> {"x1": {"a", "b"}}
    pairs = (line.removeprefix("supported: ").split(" = ") for line in oracle.stdout.splitlines()
             if line.startswith("supported: "))
    supported = {var: set(values.split(",")) for var, values in pairs}
    result = run_cli("propagate", *args, "--mode", mode, stdin=automaton)
    assert result.returncode == 0, result.stderr
    removed = {line for line in result.stdout.splitlines() if " != " in line}
    domains = {"x1": {"a", "b"}, "x2": {"a", "b"}, "x3": {"b"}, "N": {"0", "1"}}
    kept = {var: {v for v in values if f"{var} != {v}" not in removed} for var, values in domains.items()}
    assert kept == supported
    solved = run_cli("solve", *args, "--mode", mode, stdin=automaton)
    assert solved.returncode == 0, solved.stderr
    assert solved.stdout.splitlines()[0] == oracle.stdout.splitlines()[1]
    if mode == "exact":
        assert removed == {"x1 != a", "x2 != a", "N != 1"}
        assert oracle.stdout.splitlines()[1] == "solutions: 1"


# -- fuzz / solve / bench ----------------------------------------------------------


def test_fuzz_documented_invocation():
    result = run_cli("fuzz", "--seed", "42", "--count", "1000", "--mode", "atmost")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["checked: 1000", "violations: 0"]


def test_fuzz_small_run_is_clean(tmp_path):
    result = run_cli("fuzz", "--seed", "42", "--count", "60", "--max-n", "5",
                     "--out", str(tmp_path / "failures"))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "checked: 60"
    assert lines[1] == "violations: 0"
    assert not (tmp_path / "failures").exists()


def test_fuzz_counts_and_lists_the_indices_past_the_cap():
    code, out, err = run_main("fuzz", "--max-n", "30", "--count", "8", "--seed", "3", "--cap", "2000")
    assert code == 0, err
    assert out.splitlines() == ["checked: 6", "capped: 2 (indices 1, 7)", "violations: 0"]


def test_fuzz_exits_2_when_the_cap_stops_every_index():
    code, out, err = run_main("fuzz", "--count", "5", "--cap", "1")
    assert code == 2
    assert out.splitlines() == ["checked: 0", "capped: 5 (indices 0, 1, 2, 3, 4)", "violations: 0"]
    assert err.splitlines()[-1] == ("error: the cap of 1 ground sequences stopped every index; "
                                    "raise --cap or lower --max-n")


def test_fuzz_exits_0_when_one_index_is_checked_and_the_others_are_capped(monkeypatch):
    monkeypatch.setattr(cli, "run_fuzz", lambda *args, **kwargs: FuzzReport(checked=1, capped=[0, 2]))
    code, out, err = run_main("fuzz", "--count", "3")
    assert code == 0, err
    assert out.splitlines() == ["checked: 1", "capped: 2 (indices 0, 2)", "violations: 0"]


def test_fuzz_writes_each_violation_as_a_loadable_instance(tmp_path, monkeypatch):
    doc = witness_instance_doc()
    violation = FuzzViolation(index=7, mode="exact", kind="unsound", detail="removed supported x1=2",
                              instance=instance_from_json(doc))
    monkeypatch.setattr(cli, "run_fuzz", lambda *args, **kwargs: FuzzReport(checked=9, violations=[violation]))
    out_dir = tmp_path / "failures"
    code, out, err = run_main("fuzz", "--count", "9", "--out", str(out_dir))
    assert code == 1, err
    assert out.splitlines() == ["checked: 9", "violations: 1", "violation[7]: exact unsound: removed supported x1=2"]
    assert os.listdir(out_dir) == ["violation-000007-exact-unsound.json"]
    written = load_instance(str(out_dir / "violation-000007-exact-unsound.json"))
    assert instance_to_json(written) == doc


def test_fuzz_writes_a_plain_and_an_among_violation_of_one_index_to_two_files(tmp_path, monkeypatch):
    plain = instance_from_json(witness_instance_doc())
    among = random_among_instance(GenConfig(max_n=3), rng_for(1))
    violations = [FuzzViolation(index=3, mode="atmost", kind="unsound", detail="d", instance=inst)
                  for inst in (plain, among)]
    monkeypatch.setattr(cli, "run_fuzz", lambda *args, **kwargs: FuzzReport(checked=4, violations=violations))
    out_dir = tmp_path / "failures"
    code, out, err = run_main("fuzz", "--count", "4", "--out", str(out_dir))
    assert code == 1, err
    assert out.splitlines()[2:] == ["violation[3]: atmost unsound: d", "violation[3]: among-atmost unsound: d"]
    assert sorted(os.listdir(out_dir)) == ["violation-000003-among-atmost-unsound.json",
                                           "violation-000003-atmost-unsound.json"]
    written = load_instance(str(out_dir / "violation-000003-among-atmost-unsound.json"))
    assert instance_to_json(written) == instance_to_json(among)


def test_solve_counts_solutions():
    piped = run_cli("catalog", "B").stdout
    result = run_cli(
        "solve",
        "--automaton", "-", "--vars", "2;1,2;2", "--counter", "0..2", "--mode", "exact",
        stdin=piped,
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "solutions: 2"
    assert lines[3].startswith("nodes: ")


def test_bench_over_corpus_directory(tmp_path):
    corpus = tmp_path / "corpus" / "witness"
    corpus.mkdir(parents=True)
    b = catalog("B")
    one, two = b.symbol_id("1"), b.symbol_id("2")
    inst = Instance(dfa=b, mode="exact",
                    var_domains=[[two], [one, two], [two]], counter_values=[0, 1, 2])
    save_instance(inst, str(corpus / "a.json"))
    save_instance(inst, str(corpus / "b.json"))
    result = run_cli("bench", str(tmp_path / "corpus"), "--format", "tsv")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0].split("\t")[0] == "family"
    row = lines[1].split("\t")
    assert row[0] == "witness" and row[1] == "2"
    # counts are deterministic across runs
    again = run_cli("bench", str(tmp_path / "corpus"), "--format", "tsv")
    strip = lambda text: [line.split("\t")[3:5] for line in text.splitlines()[1:]]
    assert strip(result.stdout) == strip(again.stdout)


@pytest.mark.parametrize("kind", ["missing", "plain file"])
def test_bench_rejects_a_corpus_that_is_no_directory(tmp_path, kind):
    path = tmp_path / "corpus"
    if kind == "plain file":
        path.write_text("{}")
    code, out, err = run_main("bench", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


# -- README --------------------------------------------------------------------


SUBCOMMANDS = {"validate", "catalog", "propagate", "oracle", "dump-sweep", "fuzz", "solve", "bench"}


def readme_cli_section():
    """README's ``## CLI`` section, its subsections included."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read().split("## CLI", 1)[1].split("\n## ", 1)[0]


def readme_cli_commands():
    """The argument lists of every ``regcount`` command in README's CLI block."""
    block = readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        for is_pipe, stage in itertools.groupby(shlex.split(line, comments=True), key="|".__eq__):
            stage = list(stage)
            if not is_pipe and stage[0] == "regcount":
                commands.append(stage[1:])
    return commands


def test_every_readme_cli_command_parses():
    commands = readme_cli_commands()
    parser = cli.build_parser()
    unparsed = []
    for words in commands:
        try:
            parser.parse_args(words)
        except SystemExit:
            unparsed.append(" ".join(words))
    assert unparsed == []
    assert {words[0] for words in commands} == SUBCOMMANDS


def test_readme_cli_section_names_exactly_the_declared_long_options():
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme_cli_section()))
    declared = {option for parser in subcommand_parsers().values() for action in parser._actions
                for option in action.option_strings if option.startswith("--")} - {"--help"}
    assert documented == declared
