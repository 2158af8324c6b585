"""Run the six demos and compare each one's standard output with its pin.

    python3 tools/check_demos.py

Each demo prints the same bytes on every run and on every supported
Python, so its standard output is pinned by sha256 (demo 03 prints the
floating ``asc_orth_n`` certified sums).  The script runs every demo with
``src`` on ``PYTHONPATH`` and prints one line per demo, its digest.  It
exits 1 if a demo fails, prints other bytes, or is not pinned here (or a
pinned one is missing); 0 otherwise.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_scalars_and_series": "db03c34062684cae307a47a4cfcb4bf7187a1c656acfe36c4765f010783bfe4e",
    "02_summation_identity": "69995698ee35a184325317aef40deca7aa7ff39a48d0d9b58b7f8e573085ce2d",
    "03_orthogonal_families": "de175562f3158d15ca16e68592dea72cd9d167eb2b8b3a7380b00d25c6081591",
    "04_operator_algebra": "4a2fe19bea746b5d4299d8edd3da3e04cce0f64f73abd205632ee83911cd916b",
    "05_rational_overlap": "580a95b065601c3e23400ebc46521db5d099289b6c7bdbfb241dfab1928d8fcf",
    "06_multivariate": "84bcf5d5fd15ec7575d22bba2c24e41bae3c743a55e39a0cbd64b3b267be5bfe",
}


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    demos = sorted(path.stem for path in (ROOT / "demos").glob("*.py"))
    status = 0
    if demos != sorted(DIGESTS):
        print(f"demos {demos} are not the pinned {sorted(DIGESTS)}")
        status = 1
    for name, want in DIGESTS.items():
        run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                             env=env, stdout=subprocess.PIPE)
        digest = hashlib.sha256(run.stdout).hexdigest()
        print(f"{name}: {digest}")
        if run.returncode or digest != want:
            print(f"{name}: exit {run.returncode}, expected digest {want}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
