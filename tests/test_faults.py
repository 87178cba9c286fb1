"""Unit tests for the fault-injection harness (repro.storage.faults)."""

import pytest

from repro.storage import (
    BufferPool,
    FaultInjector,
    PageCorruptionError,
    PageFile,
    SimulatedCrash,
    TransientIOError,
    retry_io,
)


def _filled_pagefile(pages=4, page_size=64, checksums=True):
    pf = PageFile(page_size=page_size, checksums=checksums)
    for i in range(pages):
        pid = pf.allocate()
        pf.write_page(pid, bytes([i + 1]) * page_size)
    return pf


class TestChecksummedPageFile:
    def test_round_trip(self):
        pf = _filled_pagefile()
        assert pf.read_page(2) == b"\x03" * 64

    def test_torn_write_detected(self):
        # Acceptance (a): a torn write raises PageCorruptionError on read.
        pf = _filled_pagefile()
        inj = FaultInjector(pf, seed=1)
        inj.tear_page(2, keep=10)
        with pytest.raises(PageCorruptionError) as exc_info:
            pf.read_page(2)
        assert exc_info.value.page_id == 2
        pf.read_page(1)  # neighbours unaffected

    def test_bit_flip_detected(self):
        pf = _filled_pagefile()
        FaultInjector(pf, seed=1).flip_bit(0, bit=13)
        with pytest.raises(PageCorruptionError):
            pf.read_page(0)

    def test_verify_all_lists_bad_pages(self):
        pf = _filled_pagefile()
        inj = FaultInjector(pf, seed=1)
        inj.tear_page(1, keep=0)
        inj.flip_bit(3, bit=0)
        assert pf.verify_all() == [1, 3]

    def test_without_checksums_corruption_is_silent(self):
        pf = _filled_pagefile(checksums=False)
        FaultInjector(pf, seed=1).tear_page(2, keep=10)
        data = pf.read_page(2)  # no detection possible
        assert data[:10] == b"\x03" * 10 and data[10:] == bytes(54)

    def test_buffer_pool_surfaces_and_never_caches_corruption(self):
        pf = _filled_pagefile()
        pool = BufferPool(pf, capacity=4)
        FaultInjector(pf, seed=1).tear_page(1, keep=5)
        for _ in range(2):  # repeated reads keep failing (nothing cached)
            with pytest.raises(PageCorruptionError):
                pool.read_page(1)
        assert pool.read_page(0)[:1] == b"\x01"


class TestFaultInjectorAsPageFile:
    def test_delegates_like_a_pagefile(self):
        pf = _filled_pagefile()
        inj = FaultInjector(pf, seed=0)
        assert inj.num_pages == 4
        assert inj.page_size == 64
        assert inj.read_page(0) == pf._pages[0]
        pid = inj.allocate()
        inj.write_page(pid, b"via injector")
        assert pf.read_page(pid)[:12] == b"via injector"

    def test_determinism(self):
        def run(seed):
            pf = _filled_pagefile(pages=1)
            inj = FaultInjector(pf, seed=seed, torn_write_rate=0.5)
            outcomes = []
            for i in range(20):
                inj.write_page(0, bytes([i]) * 64)
                outcomes.append(pf.verify_page(0))
            return outcomes, inj.injected["torn"]

        a = run(seed=7)
        b = run(seed=7)
        c = run(seed=8)
        assert a == b
        assert a != c
        assert a[1] > 0  # faults actually fired

    def test_transient_io_errors_and_retry(self):
        pf = _filled_pagefile(pages=1)
        inj = FaultInjector(pf, seed=3, io_error_rate=0.5)
        sleeps: list[float] = []
        value = retry_io(
            lambda: inj.read_page(0), attempts=20, sleep=sleeps.append
        )
        assert value[:1] == b"\x01"
        assert inj.injected["io_error"] > 0
        # backoff doubles but stays bounded
        assert all(s <= 0.5 for s in sleeps)
        assert sleeps == sorted(sleeps)

    def test_retry_gives_up_after_attempts(self):
        calls = []

        def always_fails():
            calls.append(1)
            raise TransientIOError("nope")

        with pytest.raises(TransientIOError):
            retry_io(always_fails, attempts=3, sleep=lambda _: None)
        assert len(calls) == 3

    def test_retry_does_not_swallow_corruption(self):
        pf = _filled_pagefile()
        FaultInjector(pf, seed=1).tear_page(0, keep=1)
        calls = []

        def read():
            calls.append(1)
            return pf.read_page(0)

        with pytest.raises(PageCorruptionError):
            retry_io(read, attempts=5, sleep=lambda _: None)
        assert len(calls) == 1  # not retryable

    def test_crash_after_n_writes(self):
        pf = _filled_pagefile(pages=1, checksums=False)
        inj = FaultInjector(pf, seed=0, crash_after=3)
        for _ in range(3):
            inj.write_page(0, b"ok")
        with pytest.raises(SimulatedCrash):
            inj.write_page(0, b"boom")
        # the crashed write never reached the store
        assert pf.read_page(0)[:2] == b"ok"

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(torn_write_rate=1.5)
        with pytest.raises(ValueError):
            retry_io(lambda: 1, attempts=0)


class TestRetryBackoffSchedule:
    """Satellite: pin the exact retry_io backoff contract so the engine's
    retry loop (repro.service.engine) stays predictable."""

    def test_exponential_schedule_with_cap(self):
        sleeps = []
        calls = []

        def always_fails():
            calls.append(1)
            raise TransientIOError("nope")

        with pytest.raises(TransientIOError):
            retry_io(
                always_fails,
                attempts=8,
                base_delay=0.01,
                max_delay=0.05,
                sleep=sleeps.append,
            )
        # attempts bounds the total number of calls …
        assert len(calls) == 8
        # … with one sleep between consecutive attempts, doubling from
        # base_delay and capped at max_delay.  jitter defaults to 0, so
        # the schedule is exact.
        assert sleeps == [0.01, 0.02, 0.04, 0.05, 0.05, 0.05, 0.05]

    def test_seeded_jitter_is_deterministic_and_bounded(self):
        def run(seed):
            sleeps = []
            with pytest.raises(TransientIOError):
                retry_io(
                    lambda: (_ for _ in ()).throw(TransientIOError("x")),
                    attempts=8,
                    base_delay=0.01,
                    max_delay=0.05,
                    sleep=sleeps.append,
                    jitter=0.5,
                    seed=seed,
                )
            return sleeps

        base = [0.01, 0.02, 0.04, 0.05, 0.05, 0.05, 0.05]
        jittered = run(42)
        # Deterministic: the same seed reproduces the same schedule.
        assert jittered == run(42)
        # A different seed gives a different schedule.
        assert jittered != run(43)
        # Bounded: each pause lands in [(1 - jitter) * nominal, nominal],
        # so jitter only ever shortens a pause (thundering herds spread
        # out; total retry time never grows).
        for pause, nominal in zip(jittered, base):
            assert nominal * 0.5 <= pause <= nominal
        # And jitter actually moved at least one pause off its nominal.
        assert jittered != base

    def test_zero_jitter_keeps_exact_schedule_regardless_of_seed(self):
        sleeps = []
        with pytest.raises(TransientIOError):
            retry_io(
                lambda: (_ for _ in ()).throw(TransientIOError("x")),
                attempts=4,
                base_delay=0.01,
                max_delay=0.05,
                sleep=sleeps.append,
                jitter=0.0,
                seed=123,
            )
        assert sleeps == [0.01, 0.02, 0.04]

    def test_jitter_out_of_range_rejected(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match="jitter"):
                retry_io(lambda: None, jitter=bad)

    def test_no_sleep_after_final_failure(self):
        sleeps = []
        with pytest.raises(TransientIOError):
            retry_io(
                lambda: (_ for _ in ()).throw(TransientIOError("x")),
                attempts=3,
                base_delay=0.5,
                sleep=sleeps.append,
            )
        assert len(sleeps) == 2  # never sleeps when it will not retry again

    def test_success_stops_retrying(self):
        sleeps = []
        state = {"left": 2}

        def flaky():
            if state["left"]:
                state["left"] -= 1
                raise TransientIOError("transient")
            return "done"

        assert retry_io(flaky, attempts=5, base_delay=0.01,
                        sleep=sleeps.append) == "done"
        assert sleeps == [0.01, 0.02]

    def test_last_exception_is_reraised(self):
        errors = [TransientIOError("first"), TransientIOError("second")]

        def fails_twice():
            raise errors.pop(0)

        with pytest.raises(TransientIOError, match="second"):
            retry_io(fails_twice, attempts=2, sleep=lambda _: None)

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def crashes():
            calls.append(1)
            raise SimulatedCrash("died")

        with pytest.raises(SimulatedCrash):
            retry_io(crashes, attempts=5, sleep=lambda _: None)
        assert len(calls) == 1
