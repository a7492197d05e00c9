from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


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
