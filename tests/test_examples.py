"""Every script under ``examples/`` runs to completion.

The examples are the drivers that print the paper's tables (the
optimality hierarchy, the locking geometry, the Section 6 protocol
comparison), so a refactor that breaks one should fail here, not in a
reader's terminal.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
