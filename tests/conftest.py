"""Test-session settings, applied before any test module imports numpy.

BLAS gets one thread, the setting ``fxbench/run.py`` gives its workers: the
small least-squares solves of the ARIMA fits run slower on a multithreaded
BLAS that competes for the cores with another process, and the wall-clock
budgets of the acceptance tests assume one thread. A value already set in
the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

# the opt-in --linecov collector (tests/linecov.py); without the option it
# traces nothing
from linecov import pytest_addoption, pytest_configure  # noqa: E402,F401
