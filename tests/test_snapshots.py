import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinkin.snapshots import read_snapshot, write_snapshot

# the float64 edge cases a snapshot must carry bit for bit
SPECIAL = [-0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072e-308]
AXIS = st.fixed_dictionaries({
    "spacing": st.floats(allow_nan=False, allow_infinity=False),
    "origin": st.floats(allow_nan=False, allow_infinity=False)})


class TestRoundTrip:
    def test_array_and_metadata_recovered(self, tmp_path):
        arr = np.arange(24, dtype=float).reshape(2, 3, 4) / 7
        base = str(tmp_path / "state")
        axes = {"channel": {"names": ["a", "b"]},
                "x": {"n": 3, "spacing": 0.5, "origin": 0.0},
                "v": {"n": 4, "spacing": 0.25, "origin": -0.5}}
        write_snapshot(base, arr, axes, units="density", extra={"time": 1.5})
        got, meta = read_snapshot(base)
        assert np.array_equal(got, arr)
        assert meta["shape"] == [2, 3, 4]
        assert meta["axes"]["v"]["origin"] == -0.5
        assert meta["units"] == "density"
        assert meta["extra"]["time"] == 1.5

    @settings(max_examples=60, deadline=None)
    @given(arr=hnp.arrays(np.float64,
                          hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                           max_side=5),
                          elements=st.one_of(st.sampled_from(SPECIAL),
                                             st.floats(width=64))),
           axis=AXIS, names=st.lists(st.text(min_size=1), min_size=3,
                                     max_size=3, unique=True))
    def test_round_trip_is_bit_exact(self, arr, axis, names):
        axes = {name: dict(axis, n=n) for name, n in zip(names, arr.shape)}
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "state")
            write_snapshot(base, arr, axes)
            got, meta = read_snapshot(base)
        assert got.tobytes() == arr.tobytes()
        assert got.shape == arr.shape
        assert meta["axes"] == axes
        assert list(meta["axes"]) == list(axes)

    @pytest.mark.parametrize("dtype", ["<f8", ">f8", "<f4"])
    def test_payload_is_little_endian_f64(self, tmp_path, dtype):
        arr = np.array([1.0, -2.5], dtype=dtype)
        base = str(tmp_path / "raw")
        write_snapshot(base, arr, {"x": {"n": 2}})
        raw = open(base + ".f64", "rb").read()
        assert raw == arr.astype("<f8").tobytes()

    def test_payload_written_without_a_copy(self, tmp_path):
        # a contiguous <f8 array goes to the file from its own buffer
        import tracemalloc

        arr = np.random.default_rng(0).standard_normal((512, 512))
        base = str(tmp_path / "big")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_snapshot(base, arr, {"x": {"n": 512}, "v": {"n": 512}})
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * arr.nbytes
        assert open(base + ".f64", "rb").read() == arr.tobytes()


class TestGuards:
    def test_axes_count_must_match_rank(self, tmp_path):
        with pytest.raises(ValueError, match="axes"):
            write_snapshot(str(tmp_path / "s"), np.zeros((2, 2)),
                           {"x": {"n": 2}})

    def test_truncated_payload_detected(self, tmp_path):
        base = str(tmp_path / "t")
        write_snapshot(base, np.zeros(10), {"x": {"n": 10}})
        with open(base + ".f64", "r+b") as fh:
            fh.truncate(8 * 4)
        with pytest.raises(ValueError, match="payload"):
            read_snapshot(base)

    def test_unknown_format_version_rejected(self, tmp_path):
        base = str(tmp_path / "v")
        write_snapshot(base, np.zeros(3), {"x": {"n": 3}})
        meta = open(base + ".json").read().replace(
            '"format_version": 1', '"format_version": 99')
        open(base + ".json", "w").write(meta)
        with pytest.raises(ValueError, match="version"):
            read_snapshot(base)

    def test_no_temporaries_left_behind(self, tmp_path):
        base = str(tmp_path / "clean")
        write_snapshot(base, np.zeros(5), {"x": {"n": 5}})
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp")]
        assert leftovers == []
