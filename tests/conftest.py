import sys

import numpy as np

from uncreach import IntervalMatrix
from uncreach.engine import _flow_chunks
from uncreach.intervals import _add_outward


def centred(c, r) -> IntervalMatrix:
    """The family c (+) [-r, r], whose bounds contain c -+ r exactly: the
    package's one interval sum (intervals._add_outward)."""
    r = np.asarray(r, dtype=np.float64)
    return _add_outward(c, IntervalMatrix(-r, r))


def replayed_flows(res):
    """The flows F_k and error columns of a symbolic result as its
    supports replay them (engine._flow_chunks), stacked: (K', n, n) and
    (K', n, m), the pads in column 0, for the K' steps the chunks reach,
    those before the first whose phi is not finite or past a base that
    is not finite."""
    flows, errs = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for _, chunk, err in _flow_chunks(*res._flows):
            flows.append(chunk.copy())
            errs.append(err.copy())
    n, m = res.lo.shape[1], res._flows[2].shape[1]
    return (np.concatenate(flows) if flows else np.empty((0, n, n)),
            np.concatenate(errs) if errs else np.empty((0, n, m)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdicts collected during the run."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "VERDICTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
