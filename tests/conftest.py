import sys

import numpy as np

from uncreach import IntervalMatrix
from uncreach.intervals import _add_outward


def centred(c, r) -> IntervalMatrix:
    """The family c (+) [-r, r], whose bounds contain c -+ r exactly: the
    package's one interval sum (intervals._add_outward)."""
    r = np.asarray(r, dtype=np.float64)
    return _add_outward(c, IntervalMatrix(-r, r))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdicts collected during the run."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "VERDICTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
