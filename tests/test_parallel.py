import os
import subprocess
import sys
from pathlib import Path

import pytest

from mcmimo.parallel import pool_size


class TestPoolSize:
    def test_huge_request_is_capped_by_cpus(self):
        assert pool_size(10 ** 6, 10 ** 6) == (os.cpu_count() or 1)

    def test_never_more_workers_than_tasks(self):
        assert pool_size(10 ** 6, 1) == 1
        assert pool_size(10 ** 6, 2) == min(2, os.cpu_count() or 1)

    def test_serial_request_stays_serial(self):
        assert pool_size(1, 10 ** 6) == 1

    def test_no_cap_means_tasks_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert pool_size(None, 10 ** 6) == 4
        assert pool_size(None, 3) == 3

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool_size(10 ** 6, 10 ** 6) == 1


class TestLazyPool:
    @pytest.mark.parametrize("argv", [
        ["-c", "import mcmimo"],
        ["-m", "mcmimo.cli", "symrate", "--preset", "two-cell-scenario-a", "--scheme", "tin"],
        ["-m", "mcmimo.cli", "montecarlo", "--cells", "2", "--users", "1", "--m", "8",
         "--trials", "1000", "--workers", "1"],
    ])
    def test_runs_without_a_pool_import_no_pool_machinery(self, argv):
        # -X importtime lists every module the interpreter imports on stderr
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "mcmimo.parallel" in imported
        assert "concurrent.futures" not in imported
        assert "multiprocessing" not in imported
