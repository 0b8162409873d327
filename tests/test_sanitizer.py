"""Eraser-style lockset sanitizer: it must catch a seeded race, stay
silent on the correctly-locked twin, and report nothing when the real
serve components run under heavy thread contention."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis.sanitizer import (
    LocksetSanitizer,
    TrackedLock,
    install,
    track,
)
from repro.query.query import Query
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import QueryCache


class RacyCounter:
    """Deliberately broken: writes shared state with the lock ignored."""

    def __init__(self):
        self.lock = threading.Lock()
        self.total = 0

    def bump(self):
        self.total += 1


class LockedCounter:
    """The correct twin: every access holds the lock."""

    def __init__(self):
        self.lock = threading.Lock()
        self.total = 0

    def bump(self):
        with self.lock:
            self.total += 1

    def read(self) -> int:
        with self.lock:
            return self.total


def hammer(fn, threads: int = 4, iterations: int = 300):
    # The barrier keeps all workers alive simultaneously: a short-lived
    # thread that exits before the next starts can get its OS thread id
    # recycled, which would make two workers look like one to the
    # per-thread-ident lockset state machine.
    barrier = threading.Barrier(threads)

    def worker():
        barrier.wait()
        for _ in range(iterations):
            fn()

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()


class TestLocksetAlgorithm:
    def test_seeded_race_is_detected(self):
        sanitizer = LocksetSanitizer()
        counter = track(RacyCounter(), sanitizer)
        hammer(counter.bump)
        assert sanitizer.races, "the seeded race went undetected"
        race = sanitizer.races[0]
        assert race.cls == "RacyCounter"
        assert race.attr == "total"
        assert any(site.is_write for site in race.sites)
        with pytest.raises(AssertionError, match="data race on RacyCounter.total"):
            sanitizer.assert_clean()

    def test_locked_twin_is_silent(self):
        sanitizer = LocksetSanitizer()
        counter = track(LockedCounter(), sanitizer)
        hammer(counter.bump)
        hammer(counter.read)
        sanitizer.assert_clean()
        assert counter.read() == 4 * 300

    def test_single_thread_never_races(self):
        # Exclusive state: one thread may do anything without locks.
        sanitizer = LocksetSanitizer()
        counter = track(RacyCounter(), sanitizer)
        for _ in range(100):
            counter.bump()
        sanitizer.assert_clean()

    def test_read_only_sharing_is_benign(self):
        # Shared (never shared-modified): lock-free reads are fine.
        sanitizer = LocksetSanitizer()
        counter = track(RacyCounter(), sanitizer)
        counter.bump()  # exclusive write by the main thread
        hammer(lambda: counter.total)
        sanitizer.assert_clean()

    def test_tracked_lock_counts_reentrancy(self):
        lock = TrackedLock(threading.RLock(), name="t")
        with lock:
            with lock:
                pass
            # Inner release must not drop the outer hold.
            assert lock._inner._is_owned()

    def test_install_tracks_new_instances_and_uninstalls(self):
        sanitizer = LocksetSanitizer()
        uninstall = install([RacyCounter], sanitizer)
        try:
            counter = RacyCounter()
            hammer(counter.bump, threads=2, iterations=100)
            assert sanitizer.races
        finally:
            uninstall()
        plain = RacyCounter()
        assert type(plain) is RacyCounter


class TestServeComponentsUnderSanitizer:
    def test_query_cache_and_batcher_are_clean(self):
        sanitizer = LocksetSanitizer()
        cache = track(QueryCache(max_entries=64), sanitizer)
        batcher = track(
            MicroBatcher(
                lambda queries, rngs: np.full(len(queries), 0.25),
                max_batch_size=4,
                max_wait_ms=1.0,
                name="sanitized",
            ),
            sanitizer,
        )
        query = Query.from_pairs([("x", "<=", 1.0)])

        def worker(i: int):
            for j in range(50):
                key = ("m", 0, i * 50 + j)
                cache.put(key, float(j))
                cache.get(key)
                batcher.submit(query, np.random.default_rng(j))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batcher.close()
        assert cache.stats().entries > 0
        assert batcher.stats().requests == 8 * 50
        sanitizer.assert_clean()
