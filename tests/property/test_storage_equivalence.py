"""Property: a filter attached to shared memory answers like a resident one.

The process executor (DESIGN.md §13/§16) ships the engine filter's
coordinates to its workers in one shared-memory segment; each worker
rebuilds the filter with ``BatchMbrFilter.from_store`` over read-only
zero-copy views and replays the parent's mutation log against it,
copying the coordinates before its first in-place write.  This suite
drives such an attached filter and a resident ``BatchMbrFilter`` through
the same ``append`` / ``remove_at`` / ``replace_at`` stream and demands
identical ``__call__``, ``kth_filter``, ``range_filter`` and
``matrices()`` after every step, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.filtering import BatchMbrFilter
from tests.property.test_dynamic_equivalence import fresh_object

POINTS = [0.0, 7.5, 21.3, 33.0, 48.2, 59.9]


def assert_filters_identical(subject, reference):
    n = len(reference)
    assert subject.objects == reference.objects
    for got, want in zip(subject(POINTS), reference(POINTS)):
        assert got.candidates == want.candidates
        assert got.fmin == want.fmin
    # One point takes the scalar descent, not the batched one.
    assert subject(POINTS[2:3]) == reference(POINTS[2:3])
    ks = [1 + i % n for i in range(len(POINTS))]
    for got, want in zip(
        subject.kth_filter(POINTS, ks), reference.kth_filter(POINTS, ks)
    ):
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
    radii = [0.5, 3.0, 8.0, 0.0, 12.5, 2.0]
    for got, want in zip(
        subject.range_filter(POINTS, radii),
        reference.range_filter(POINTS, radii),
    ):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    for a, b in zip(subject.matrices(POINTS), reference.matrices(POINTS)):
        assert a.tobytes() == b.tobytes()


@st.composite
def operation_streams(draw):
    n_initial = draw(st.integers(min_value=2, max_value=12))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["append", "remove", "replace"]),
                st.integers(min_value=0, max_value=31),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return n_initial, ops


@given(stream=operation_streams())
@settings(max_examples=40, deadline=None)
def test_interleaved_stream_is_backend_invariant(stream):
    n_initial, ops = stream
    counter = n_initial
    objects = [fresh_object(i, i) for i in range(n_initial)]
    reference = BatchMbrFilter(objects)
    store = BatchMbrFilter(objects).to_store("shm")
    try:
        subject = BatchMbrFilter.from_store(store, objects)
        assert_filters_identical(subject, reference)
        for op, arg in ops:
            n = len(reference)
            if op == "append":
                obj = fresh_object(counter, counter)
                counter += 1
                subject.append(obj)
                reference.append(obj)
            elif op == "remove":
                if n == 1:  # the engine drops an emptied filter
                    continue
                subject.remove_at(arg % n)
                reference.remove_at(arg % n)
            else:
                obj = fresh_object(counter, counter)
                counter += 1
                subject.replace_at(arg % n, obj)
                reference.replace_at(arg % n, obj)
            assert_filters_identical(subject, reference)
        # The segment itself was never written: copy-on-write held.
        lows, highs = BatchMbrFilter(objects).coordinates()
        assert store.get("lows").tobytes() == lows.tobytes()
        assert store.get("highs").tobytes() == highs.tobytes()
    finally:
        store.close()
