from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "tests" / "fixtures" / "outcome_digest_quick.jsonl"


def test_quick_digest_is_the_recorded_one(load_script):
    """Every solve of the quick digest gives the outcome recorded, bit for
    bit; a moved line fails naming it. A digest is only comparable on the
    build it was recorded on, and the OpenBLAS build string names the CPU
    kernels picked at run time, so on another numpy, scipy, OpenBLAS or CPU
    the test is skipped naming both builds."""
    script = load_script("outcome_digest")
    recorded_build, recorded = script.read(RECORDED)
    build = script.build()
    if recorded_build != build:
        pytest.skip(f"{RECORDED.name} was recorded on {recorded_build}, this build is "
                    f"{build}; regenerate it as scripts/outcome_digest.py says")
    lines = list(script.sweep(quick=True))
    assert lines == recorded, "\n".join(script.compare(recorded, lines))
