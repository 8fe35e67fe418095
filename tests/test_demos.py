"""Every script in demos/ runs to completion and prints its pinned tables."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout: a refactor must leave every table unchanged
STDOUT_SHA256 = {
    "constants_tour.py": "bf41ceb0335804fc08dd87dfd83d4bab04fd75d19e19f6a6e4bb24aecd2defdf",
    "deuring_census.py": "39e8685e94ac9a9c6e92af37891cbacfba2d9c125821abc8afd7979ac18680e2",
    "prime_order_counts.py": "816ed208e46020ea368800cd80e7871753c652f7f5734e9db5bedcce11dd794c",
    "singular_series.py": "0720ab79076fb66c0c9bc830648026fddb64f4056f94b17d0ee5f2017355dd10",
    "variance_window.py": "449ef563b06355f3044684676728842218d80c52a941406d8262d3fc84294b87",
}


def test_demos_found():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
