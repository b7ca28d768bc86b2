#!/usr/bin/env python3
"""Write one SHA-256 line per in-package fit of a pytest run.

    python3 scripts/fit_digest.py OUT [pytest arguments ...]

Runs pytest in this process with ``sivcav.fitting.least_squares`` wrapped.
Each fit started by code of the ``sivcav`` package (fit_g2, fit_lorentzians,
fit_cos2, fit_saturation, extrapolate_zero_power, the CLI) writes one line
to OUT:

    <test node id> <index of the fit in that test> <sha256>

The hash covers the fit's values, covariance, cost_trace, iterations,
converged, nfev and njev; a fit that raises hashes its exception's type and
message. A test's own ``least_squares`` calls are left out, since their
models belong to the test. Run it in two trees with the same arguments, and
``diff`` of the two files is empty where every fit is equal (``==``).
Hypothesis draws its examples at random unless seeded, so pass
``--hypothesis-seed`` when its tests are among those run. The exit status
is pytest's.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pytest

from sivcav import fitting


def _in_package(frame):
    while frame is not None:
        if frame.f_globals.get("__name__", "").startswith("sivcav."):
            return True
        frame = frame.f_back
    return False


def _digest(fit):
    h = hashlib.sha256()
    for array in (fit.values, fit.covariance, np.asarray(fit.cost_trace, dtype=float)):
        h.update(np.ascontiguousarray(array, dtype=float).tobytes())
    h.update(repr((fit.iterations, bool(fit.converged), fit.nfev, fit.njev)).encode())
    return h.hexdigest()


class FitDigest:
    """pytest plugin: records a digest line for each in-package fit."""

    def __init__(self, out):
        self.out = out
        self.test = "<collection>"
        self.index = 0

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        self.test, self.index = item.nodeid, 0
        yield

    def wrap(self, least_squares):
        def recorded(*args, **kwargs):
            if not _in_package(sys._getframe(1)):
                return least_squares(*args, **kwargs)
            index = self.index
            self.index += 1
            try:
                fit = least_squares(*args, **kwargs)
            except Exception as exc:
                digest = hashlib.sha256(f"{type(exc).__name__}: {exc}".encode()).hexdigest()
                self.out.write(f"{self.test} {index} {digest}\n")
                raise
            self.out.write(f"{self.test} {index} {_digest(fit)}\n")
            return fit

        return recorded


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0].startswith("-"):
        sys.exit(__doc__.split("\n\n")[1])
    original = fitting.least_squares
    with open(argv[0], "w") as out:
        plugin = FitDigest(out)
        fitting.least_squares = plugin.wrap(original)
        try:
            return pytest.main(argv[1:], plugins=[plugin])
        finally:
            fitting.least_squares = original


if __name__ == "__main__":
    sys.exit(main())
