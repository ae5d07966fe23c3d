"""Opt-in line coverage for pytest, standard library only.

    PYTHONPATH=src python -m pytest --linecov=src/fxstack/recurrent.py

``--linecov=PATH`` (a ``.py`` file or a directory of them; repeatable)
traces those files with :func:`sys.settrace` and, at the end of the
session, reports each one's function-body lines that no test ran. Module
and class bodies run at import, before the trace starts, so only function
bodies count. Without the option nothing is traced. ``conftest.py`` imports
the two hooks. Join PATH with ``=``: pytest reads the arguments before it
loads ``conftest.py``, and unless test paths are given it would take a
separate PATH for one and never load this plugin.
"""

import inspect
import os
import sys
import threading
import types


def pytest_addoption(parser):
    parser.addoption("--linecov", action="append", default=[], metavar="PATH",
                     help="report the function-body lines of PATH that no "
                          "test runs")


def pytest_configure(config):
    if config.getoption("linecov"):
        config.pluginmanager.register(_Collector(config.getoption("linecov")))


def _body_lines(path):
    """The lines of every function body in ``path``, without the ``def``
    lines (unless the body is on that line, as a lambda's is)."""
    with open(path) as fh:
        todo, lines = [compile(fh.read(), path, "exec")], set()
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            own = {n for _, _, n in code.co_lines() if n is not None}
            lines |= own - {code.co_firstlineno} or own
    return lines


class _Collector:
    def __init__(self, paths):
        files = set()
        for path in map(os.path.abspath, paths):
            files |= ({os.path.join(d, f) for d, _, names in os.walk(path)
                       for f in names if f.endswith(".py")}
                      if os.path.isdir(path) else {path})
        self.hits = {f: set() for f in files}
        self._by_name = {}  # co_filename -> its hit set, or None
        sys.settrace(self._call)
        threading.settrace(self._call)

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._by_name:
            self._by_name[name] = self.hits.get(os.path.abspath(name))
        hits = self._by_name[name]
        if hits is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line
        return line

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        threading.settrace(None)
        for path, hits in sorted(self.hits.items()):
            lines = _body_lines(path)
            missed = sorted(lines - hits)
            terminalreporter.write_line(
                f"linecov {os.path.relpath(path)}: {len(lines) - len(missed)}"
                f" of {len(lines)} lines run; not run: {missed or 'none'}")
