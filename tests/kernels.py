"""Run the propagators on one pass kernel: the compiled one ("c") or the Python kernels ("python")."""

import contextlib
import math
from unittest import mock

from regcount import kernel

KERNELS = ("python", "c")


@contextlib.contextmanager
def forced(name):
    """Send every store in the block that ``name`` can run to it.

    Forcing "c" drops the size test only: a store whose counters could
    leave int64 still runs the Python kernels.
    """
    if name == "c":
        assert kernel._library() is not None, "the C kernel did not build"
    with mock.patch.object(kernel, "_MIN_CELLS", 0 if name == "c" else math.inf):
        yield
