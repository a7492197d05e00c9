import importlib.util
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def load_script():
    """A loader of ``scripts/<name>.py``: each call runs the file as a new
    module and returns it."""
    def load(name):
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        return script
    return load


@pytest.fixture
def column_named_as_row() -> str:
    """MPS text of min x1 - x2 s.t. x1 + x2 <= 4 on a row named X1, x >= 0,
    whose optimum is -4: its column X1 shares the row's name."""
    return """\
NAME          COLROW
ROWS
 N  COST
 L  X1
COLUMNS
    X1        COST      1.0        X1        1.0
    X2        COST      -1.0       X1        1.0
RHS
    RHS       X1        4.0
ENDATA
"""
