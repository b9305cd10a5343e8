import os

from mcmimo.parallel import pool_size


class TestPoolSize:
    def test_huge_request_is_capped_by_cpus(self):
        assert pool_size(10 ** 6, 10 ** 6) == (os.cpu_count() or 1)

    def test_never_more_workers_than_tasks(self):
        assert pool_size(10 ** 6, 1) == 1
        assert pool_size(10 ** 6, 2) == min(2, os.cpu_count() or 1)

    def test_serial_request_stays_serial(self):
        assert pool_size(1, 10 ** 6) == 1

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool_size(10 ** 6, 10 ** 6) == 1
