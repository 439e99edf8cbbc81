"""A stdlib line-coverage gate for ``src/repro``, as a pytest plugin.

Run it over the suite with::

    PYTHONPATH=src:tests python -m pytest -q -p linecov --hypothesis-seed=0

It traces every call into ``src/repro`` with :func:`sys.settrace` and
counts **function-body statements**: every statement whose nearest
enclosing definition is a function, docstrings excluded (module and
class bodies run at import and are not counted).  A statement counts as
executed when any line of its header — the whole of a simple statement,
the part of a compound one before its body — produces a line event.
Forked pool workers are followed through :func:`os.register_at_fork`:
each installs the tracer and writes what it saw to a file that the
parent merges at the end of the session.

The session fails when

* a function in ``src/repro`` is never entered, other than ``__repr__``
  and the reasoned entries of :data:`ALLOWED_UNENTERED`, or
* the executed share of statements falls below :data:`FLOOR`; the
  report then lists every file's missed line numbers.
"""

from __future__ import annotations

import ast
import json
import multiprocessing.util
import os
import shutil
import sys
import tempfile
import threading
from typing import Dict, Iterator, List, Set, Tuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")

#: the executed share measured when the gate was added, rounded down to
#: 0.1 points; raise it when coverage rises
FLOOR = 0.973

#: ``(path under src/repro, qualified name)`` of functions no test enters,
#: each with the reason it stays; at most five.  An entry naming a class
#: allows that class's abstract methods and nothing else.
ALLOWED_UNENTERED: Dict[Tuple[str, str], str] = {
    ("engine/protocols/base.py", "ConcurrencyControl"): (
        "on_read/on_write declare the protocol interface; every registered "
        "protocol overrides both"
    ),
    ("engine/protocols/multiversion.py", "MultiVersionConcurrencyControl"): (
        "_readonly_timestamp/_active_floor declare the snapshot clock; MVTO "
        "and SI override both"
    ),
    ("core/schedulers.py", "Scheduler"): (
        "accepts declares the scheduler interface; every scheduler overrides it"
    ),
    ("core/information.py", "InformationLevel"): (
        "projection/optimal_fixpoint_set declare the level interface; the "
        "four paper levels override both"
    ),
}

_lines: Set[Tuple[str, int]] = set()
_calls: Set[Tuple[str, int]] = set()
_dump_dir = ""


def _local(frame, event, arg):
    if event == "line":
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(SRC):
        _calls.add((code.co_filename, code.co_firstlineno))
        return _local
    return None


def _install() -> None:
    sys.settrace(_global)
    threading.settrace(_global)


def _dump_child() -> None:
    path = os.path.join(_dump_dir, f"{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump({"lines": sorted(_lines), "calls": sorted(_calls)}, handle)


class _ForkHook:
    """A live object for :func:`multiprocessing.util.register_after_fork`."""

    def __call__(self, _self: "_ForkHook") -> None:
        # the child's finalizer registry is cleared before the after-fork
        # callbacks run, so the dump is registered here, not at fork time
        multiprocessing.util.Finalize(None, _dump_child, exitpriority=100)


_FORK_HOOK = _ForkHook()


def _after_fork_in_child() -> None:
    _lines.clear()
    _calls.clear()
    _install()


# --------------------------------------------------------------------------
# what there is to execute
# --------------------------------------------------------------------------
def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _header(stmt: ast.stmt) -> range:
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(first, body[0].lineno - 1) + 1)
    return range(first, stmt.end_lineno + 1)


def _is_abstract(stmt: ast.stmt) -> bool:
    return any(
        (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        or (isinstance(d, ast.Name) and d.id == "abstractmethod")
        for d in stmt.decorator_list
    )


class _Function:
    __slots__ = ("path", "qualname", "first_line", "abstract")

    def __init__(self, path: str, qualname: str, first_line: int, abstract: bool) -> None:
        self.path, self.qualname, self.first_line = path, qualname, first_line
        self.abstract = abstract

    def allowed(self) -> bool:
        path = os.path.relpath(self.path, SRC)
        owner = self.qualname.rpartition(".")[0]
        return (
            self.qualname.endswith("__repr__")
            or (path, self.qualname) in ALLOWED_UNENTERED
            or (self.abstract and (path, owner) in ALLOWED_UNENTERED)
        )


def _definitions(tree: ast.Module, path: str) -> Tuple[List[range], List[_Function]]:
    """The header lines of every function-body statement, and the functions."""
    statements: List[range] = []
    functions: List[_Function] = []

    def walk(body: List[ast.stmt], in_function: bool, prefix: str, docstring: bool) -> None:
        for index, stmt in enumerate(body):
            if docstring and index == 0 and _is_docstring(stmt):
                continue
            if in_function:
                statements.append(_header(stmt))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + stmt.name
                functions.append(
                    _Function(path, qualname, _header(stmt).start, _is_abstract(stmt))
                )
                walk(stmt.body, True, qualname + ".", True)
                continue
            if isinstance(stmt, ast.ClassDef):
                walk(stmt.body, in_function, prefix + stmt.name + ".", True)
                continue
            # an elif is an If alone in its parent's orelse: its header is
            # counted when the recursion reaches it
            for field in ("body", "orelse", "finalbody"):
                walk(getattr(stmt, field, None) or [], in_function, prefix, False)
            for handler in getattr(stmt, "handlers", ()):
                if in_function:
                    statements.append(_header(handler))
                walk(handler.body, in_function, prefix, False)

    walk(tree.body, False, "", True)
    return statements, functions


def _source_files() -> Iterator[str]:
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def _measure() -> Tuple[int, int, List[_Function], Dict[str, List[int]]]:
    total = executed = 0
    unentered: List[_Function] = []
    missed_lines: Dict[str, List[int]] = {}
    for path in sorted(_source_files()):
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        statements, functions = _definitions(tree, path)
        missed = [s for s in statements if not any((path, n) in _lines for n in s)]
        total += len(statements)
        executed += len(statements) - len(missed)
        unentered.extend(f for f in functions if (path, f.first_line) not in _calls)
        if missed:
            missed_lines[os.path.relpath(path, SRC)] = [s.start for s in missed]
    return total, executed, unentered, missed_lines


# --------------------------------------------------------------------------
# pytest hooks
# --------------------------------------------------------------------------
def pytest_configure(config) -> None:
    global _dump_dir
    _dump_dir = tempfile.mkdtemp(prefix="linecov-")
    os.register_at_fork(after_in_child=_after_fork_in_child)
    multiprocessing.util.register_after_fork(_FORK_HOOK, _FORK_HOOK)
    _install()


def pytest_runtest_setup(item) -> None:
    # a test that sets or clears its own trace function must not end ours
    if sys.gettrace() is not _global:
        _install()


def pytest_sessionfinish(session, exitstatus) -> None:
    sys.settrace(None)
    threading.settrace(None)
    for name in os.listdir(_dump_dir):
        with open(os.path.join(_dump_dir, name)) as handle:
            child = json.load(handle)
        _lines.update(tuple(line) for line in child["lines"])
        _calls.update(tuple(call) for call in child["calls"])
    shutil.rmtree(_dump_dir, ignore_errors=True)
    total, executed, unentered, missed_lines = _measure()
    share = executed / total if total else 1.0
    failures = [f for f in unentered if not f.allowed()]
    lines = [
        f"linecov: {executed:,} of {total:,} function-body statements executed "
        f"({share:.2%}); floor {FLOOR:.1%}",
        f"linecov: {len(unentered)} functions never entered, "
        f"{len(unentered) - len(failures)} of them allowed",
    ]
    lines += [
        f"  never entered: {os.path.relpath(f.path, SRC)}:{f.first_line} {f.qualname}"
        for f in failures
    ]
    if share < FLOOR:
        lines += [
            f"  missed: {path} {', '.join(map(str, numbers))}"
            for path, numbers in sorted(missed_lines.items())
        ]
        lines.append(f"linecov: FAIL: executed share {share:.2%} is below the floor")
    if failures:
        lines.append("linecov: FAIL: functions above are never entered")
    session.config._linecov_report = lines
    if (failures or share < FLOOR) and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter) -> None:
    for line in getattr(terminalreporter.config, "_linecov_report", ()):
        terminalreporter.write_line(line)
