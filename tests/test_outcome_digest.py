"""``tools/outcome_digest.py`` prints one sha256 per family, the same on every run of one checkout."""

import os
import re
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "outcome_digest.py")


def test_two_runs_print_the_same_digests():
    runs = [subprocess.run([sys.executable, TOOL, "--count", "20", "--root-long", "2"], capture_output=True,
                           text=True, check=True, timeout=120).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert [line.split()[0] for line in lines] == ["fuzz-plain", "fuzz-among", "root-long"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines), lines
