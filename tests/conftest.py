import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from gridletters.gridding import from_display_rows, grid_matrix  # noqa: E402
from gridletters.pipeline import class_experiment  # noqa: E402


@pytest.fixture(scope="session")
def x_matrix():
    """The X shape: increasing bottom-left and top-right cells."""
    return from_display_rows([(-1, 1), (1, -1)])


@pytest.fixture(scope="session")
def v_matrix():
    """One column: decreasing over increasing."""
    return from_display_rows([(-1,), (1,)])


@pytest.fixture(scope="session")
def fan_matrix():
    """The 3x2 matrix whose standard figure carries the 6437251 drawing."""
    return from_display_rows([(-1, 1, 1), (0, -1, -1)])


@pytest.fixture(scope="session")
def non_pmm_matrix():
    """The smallest matrix admitting no column and row signs."""
    return from_display_rows([(1, -1), (1, 1)])


@pytest.fixture(scope="session")
def one_cell():
    return grid_matrix([[1]])


@pytest.fixture(scope="session")
def x_sweep_7(x_matrix):
    """The acceptance sweep `class_experiment(7, X, 3, True)` and its
    wall-clock seconds, run once per session for every test that reads it."""
    start = time.time()
    report = class_experiment(7, x_matrix, 3, verify_with_oracle=True)
    return report, time.time() - start
