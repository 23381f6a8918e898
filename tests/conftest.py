"""Fixtures shared by the test modules."""
import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def src_env():
    """The environment with this checkout's `src` first on PYTHONPATH.

    pyproject.toml puts `src` on the test process's own import path; a
    Python child process started by a test needs it in its environment.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
