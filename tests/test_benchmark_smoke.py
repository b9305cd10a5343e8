import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    # runs every benchmark workload at minimal size: fails when the library
    # drops or renames a name the benchmark calls
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: all passed", proc.stdout
