"""Regular counting constraints over counter automata.

A counter automaton is a complete DFA whose transitions add nonnegative
amounts to a single counter.  This package relates that counter to a finite-
domain variable N under atmost / atleast / exact semantics and provides:

* domain-consistent propagators for the two bound semantics and a sound,
  incomplete one for exact counting (:mod:`regcount.propagators`);
* the prefix/suffix dynamic-programming tables they are built on
  (:mod:`regcount.sweep`), and a compiled pass kernel that runs them and the
  symbol checks in C for large stores (:mod:`regcount.kernel`);
* a brute-force enumeration oracle and differential checks
  (:mod:`regcount.oracle`);
* random generators and a fuzz harness (:mod:`regcount.generator`);
* a small DFS engine for pruning/failure comparisons (:mod:`regcount.search`);
* unary signature channeling for constraints over native integer values
  (:mod:`regcount.signature`);
* a CLI covering all of the above (``regcount --help``).
"""

from .automaton import (
    CATALOG_NAMES,
    U64_MAX,
    CounterDfa,
    MalformedAutomaton,
    RunResult,
    UnknownAutomaton,
    automaton_from_json,
    automaton_to_json,
    build_subset_sum_dfa,
    catalog,
    lift_accepting,
    load_automaton,
    run,
    validate,
)
from .domains import (
    COUNTER_VAR,
    DomainStore,
    Instance,
    MalformedInstance,
    RemoveResult,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from .generator import (
    FuzzReport,
    FuzzViolation,
    GenConfig,
    check_among_instance,
    check_instance,
    generate_corpus,
    random_among_instance,
    random_cdfa,
    random_instance,
    rng_for,
    run_fuzz,
)
from .oracle import (
    DEFAULT_CAP,
    CapExceeded,
    DcVerdict,
    SupportReport,
    check_dc,
    enumerate_all_modes,
    enumerate_all_modes_native,
    enumerate_support,
    enumerate_support_native,
)
from .propagators import (
    FAILED,
    FIXPOINT,
    Mode,
    PropagationOutcome,
    propagate,
    propagate_atleast,
    propagate_atmost,
    propagate_composite,
    propagate_decomposed,
    propagate_exact,
    propagate_instance,
)
from .search import BenchRow, SearchStats, bench, format_bench, solve, solve_collect
from .signature import SignatureMap, among_signature
from .sweep import (
    UNREACHABLE_MAX,
    UNREACHABLE_MIN,
    SweepTable,
    backward,
    forward,
    format_row,
    format_rows,
)

__version__ = "0.1.0"
