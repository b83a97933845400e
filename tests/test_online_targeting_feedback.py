"""Online targeting wrapper and marketer feedback recorder."""

import sys
import threading

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.online import FeedbackRecorder, UserTargeting
from repro.preference import PreferenceStore
from repro.text.sequence_extractor import UserEntitySequence


@pytest.fixture()
def targeting(rng):
    vectors = rng.normal(size=(8, 4))
    sequences = {
        0: UserEntitySequence(0, [0, 1]),
        1: UserEntitySequence(1, [2, 3]),
        2: UserEntitySequence(2, [4]),
    }
    store = PreferenceStore(vectors).build(sequences, num_users=4)
    return UserTargeting(store)


class TestTargeting:
    def test_result_fields(self, targeting):
        result = targeting.target([0, 1], k=2)
        assert len(result.users) == 2
        assert result.entity_ids == [0, 1]
        assert result.elapsed_seconds >= 0
        assert result.user_ids == [u.user_id for u in result.users]

    def test_k_validation(self, targeting):
        with pytest.raises(ConfigError):
            targeting.target([0], k=0)

    def test_weights_forwarded(self, targeting):
        weighted = targeting.target([0, 4], k=3, weights=[1000.0, 0.001])
        pure = targeting.target([0], k=3)
        assert weighted.user_ids == pure.user_ids


class TestFeedbackRecorder:
    def test_record_and_pairs(self):
        recorder = FeedbackRecorder()
        recorder.record_relation(3, 1)
        recorder.record_relation(1, 3)  # duplicate, canonicalised
        recorder.record_relation(2, 2)  # self relation ignored
        assert len(recorder) == 1
        np.testing.assert_array_equal(recorder.pairs(), [[1, 3]])

    def test_expansion_choice(self):
        recorder = FeedbackRecorder()
        recorder.record_expansion_choice(0, [5, 7])
        assert len(recorder) == 2
        keys = {tuple(p) for p in recorder.pairs()}
        assert keys == {(0, 5), (0, 7)}

    def test_retire_forgets_only_the_given_pairs(self):
        recorder = FeedbackRecorder()
        recorder.record_relation(0, 1)
        read = recorder.pairs()
        recorder.record_relation(2, 3)  # recorded while a refresh trains
        recorder.retire(read)
        np.testing.assert_array_equal(recorder.pairs(), [[2, 3]])
        recorder.retire(recorder.pairs())
        assert len(recorder) == 0
        assert recorder.pairs().shape == (0, 2)

    def test_concurrent_record_and_retire_lose_nothing(self):
        """Request threads record while a refresh reads and retires: every
        pair ends up either retired (it was read) or still recorded."""
        recorder = FeedbackRecorder()
        writers, per_writer = 4, 300
        retired: set[tuple[int, int]] = set()
        shapes: set[tuple[int, ...]] = set()
        done, finished = threading.Event(), threading.Event()

        def write(w):
            for i in range(per_writer):
                recorder.record_relation(w, 10 + w * per_writer + i)

        def refresh():
            while not done.is_set():
                read = recorder.pairs()
                shapes.add(read.shape[1:])
                recorder.retire(read)
                retired.update(map(tuple, read.tolist()))
            finished.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=refresh)
            threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
            reader.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            done.set()
            reader.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive() and not any(t.is_alive() for t in threads)
        assert finished.is_set()  # the reader did not die on a raise
        assert shapes == {(2,)}
        remaining = set(map(tuple, recorder.pairs().tolist()))
        assert not remaining & retired
        assert len(remaining | retired) == writers * per_writer
