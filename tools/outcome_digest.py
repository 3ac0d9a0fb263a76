"""One sha256 per input family over every propagator outcome, to show that a change leaves outcomes unchanged.

    python3 tools/outcome_digest.py [--seed S] [--count K] [--root-long K]

For indices ``0 .. count-1`` of ``regcount fuzz``'s stream for ``seed`` (the
automaton, plain instance and among instance that ``regcount fuzz --seed S``
checks, with its default ``--max-states`` and ``--max-n``), it runs the four
modes on the plain instance's store and on the among instance through
``propagate_composite``.  With ``--root-long K``, it also runs them on the
first K inputs of perfbench's root-long workload for that seed, each on a
copy of the input's store.  Each store takes the default kernel route.

It prints one line per family, ``NAME SHA256``, the digest over each run's
index, mode, status, removals in order, passes, and final domains and
dom(N).  Run it on two checkouts: equal lines mean equal outcomes.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import types

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "src"))

from regcount.generator import AMONG_CFG, GenConfig, random_among_instance, random_cdfa, random_instance, rng_for  # noqa: E402
from regcount.propagators import Mode, propagate, propagate_composite  # noqa: E402

MODES = [mode.value for mode in Mode]


def _root_long_inputs(seed: int, count: int) -> list:
    """The first ``count`` root-long inputs of ``seed``; ``perfbench/workloads.py`` is executed, never imported."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = path
    sys.modules[module.__name__] = module  # dataclasses look their module up there
    exec(compile(source, path, "exec"), module.__dict__)
    return module.RootLong().make_inputs(seed, count)


def _plain(digest, index: int, dfa, store) -> None:
    for mode in MODES:
        work = store.copy()
        out = propagate(dfa, work, mode)
        digest.update(repr((index, mode, out.status, out.removals, out.passes, work.domains, work.counter)).encode())


def digests(seed: int, count: int, root_long: int) -> dict[str, str]:
    """Family name -> hex digest."""
    plain, among = hashlib.sha256(), hashlib.sha256()
    cfg = GenConfig(seed=seed)
    for index in range(count):
        # The draws of regcount fuzz's _fuzz_range, in its order.
        rng = rng_for(seed, index)
        dfa = random_cdfa(cfg, rng)
        inst = random_instance(cfg, dfa, rng)
        composite = random_among_instance(AMONG_CFG, rng)
        _plain(plain, index, dfa, inst.make_store())
        for mode in MODES:
            out = propagate_composite(composite.dfa, composite.signature, composite.native_domains,
                                      composite.counter_values, mode)
            among.update(repr((index, mode, out.status, out.removals, out.passes, out.native_domains,
                               out.counter_values)).encode())
    found = {"fuzz-plain": plain.hexdigest(), "fuzz-among": among.hexdigest()}
    if root_long:
        long = hashlib.sha256()
        for inp in _root_long_inputs(seed, root_long):
            _plain(long, inp.index, inp.dfa, inp.store)
        found["root-long"] = long.hexdigest()
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--root-long", type=int, default=0, metavar="K")
    args = parser.parse_args(argv)
    for name, hexdigest in digests(args.seed, args.count, args.root_long).items():
        print(f"{name} {hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
