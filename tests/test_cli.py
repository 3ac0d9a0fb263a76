import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcount import Instance, catalog, cli, save_instance
from regcount.automaton import automaton_to_json

DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "regcount", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )


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


# -- validate / catalog -------------------------------------------------------


def test_validate_ok(aab_path):
    result = run_cli("validate", aab_path)
    assert result.returncode == 0
    assert result.stdout.startswith("ok: 3 states")


def test_validate_broken_file_exits_2():
    result = run_cli("validate", os.path.join(DATA, "broken_automaton.json"))
    assert result.returncode == 2
    assert "missing transition" in result.stderr


def test_validate_missing_file_exits_2():
    result = run_cli("validate", "no-such-file.json")
    assert result.returncode == 2


def test_catalog_emits_loadable_json():
    result = run_cli("catalog", "B")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["states"] == 2


def test_catalog_unknown_is_usage_error():
    assert run_cli("catalog", "NOPE").returncode == 2


# -- propagate ------------------------------------------------------------------


def test_catalog_pipes_into_propagate():
    piped = run_cli("catalog", "B").stdout
    result = run_cli(
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


def test_propagate_failure_exits_1():
    piped = run_cli("catalog", "B").stdout
    result = run_cli(
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
    ],
    ids=["string-start", "scalar-transitions", "true-states", "true-inc", "true-counter",
         "string-native-value", "float-native-value", "string-signature-key", "number-name"],
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


def run_main(*args, stdin=""):
    """``cli.main`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(args))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


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
    result = run_cli("dump-sweep", "--catalog", "RST", "--uniform", "r,t", "--n", "6",
                     "--mode", "max", "--table", "pre")
    assert result.returncode == 0
    with open(os.path.join(DATA, "rst_premax_n6.golden"), "rb") as fh:
        assert result.stdout.encode() == fh.read()


def test_dump_sweep_suffix_table():
    result = run_cli("dump-sweep", "--catalog", "B", "--domains", "2;1,2;2",
                     "--mode", "min", "--table", "suf")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "1: eps=0,q=1"
    assert lines[-1] == "4: q=0"


def test_dump_sweep_requires_exactly_one_source():
    result = run_cli("dump-sweep", "--mode", "max")
    assert result.returncode == 2


PAST_THE_BOUND = cli.MAX_SPEC_SIZE + 1


@pytest.mark.parametrize(
    "args",
    [
        ("propagate", "--automaton", "catalog:B", "--vars", "1,2;1,2", "--counter", f"0..{PAST_THE_BOUND - 1}",
         "--mode", "atmost"),
        ("propagate", "--automaton", "catalog:B", "--vars", "1,2", "--counter", f"0,2..{PAST_THE_BOUND}",
         "--mode", "exact"),
        ("dump-sweep", "--catalog", "B", "--uniform", "1,2", "--n", str(PAST_THE_BOUND), "--mode", "min"),
        ("dump-sweep", "--catalog", "B", "--uniform", "1,2", "--n", "-3", "--mode", "min"),
    ],
    ids=["counter-range", "counter-ranges", "uniform-n", "negative-n"],
)
def test_oversized_or_negative_specs_exit_2_before_allocating(args):
    code, out, err = run_main(*args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


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


def test_solve_with_decomposed_propagator():
    piped = run_cli("catalog", "B").stdout
    result = run_cli(
        "solve", "--automaton", "-", "--vars", "2;1,2;2", "--counter", "0..2",
        "--mode", "exact", "--propagator", "decomposed",
        stdin=piped,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "solutions: 2"


def test_solve_rejects_a_propagator_of_another_semantics():
    piped = run_cli("catalog", "B").stdout
    result = run_cli(
        "solve", "--automaton", "-", "--vars", "2;1,2;2", "--counter", "0..2",
        "--mode", "atmost", "--propagator", "decomposed",
        stdin=piped,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: propagator 'decomposed' does not decide 'atmost' instances\n"


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


def test_oracle_honors_cap_env_var():
    piped = run_cli("catalog", "B").stdout
    env = dict(os.environ, REGCOUNT_CAP="1")
    result = subprocess.run(
        [sys.executable, "-m", "regcount", "oracle",
         "--automaton", "-", "--vars", "1,2;1,2", "--counter", "0", "--mode", "atmost"],
        capture_output=True, text=True, input=piped, env=env,
    )
    assert result.returncode == 2
    assert "cap" in result.stderr


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
