"""Checkpoint round-trip edge cases: dtypes, metadata, overwrite, and
key/shape mismatch errors, plus tracer markers on save/load."""

import numpy as np
import pytest

from repro.nn import Linear, Sequential
from repro.obs import Tracer
from repro.train import load_checkpoint, save_checkpoint


def make_model(rng=0, dtype=np.float32):
    return Sequential([Linear(4, 6, rng=rng, dtype=dtype),
                       Linear(6, 2, rng=rng, dtype=dtype)])


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.float16])
    def test_dtype_preserved(self, tmp_path, dtype):
        a = make_model(rng=1, dtype=dtype)
        b = make_model(rng=2, dtype=dtype)
        save_checkpoint(a, tmp_path / "ckpt.npz")
        load_checkpoint(b, tmp_path / "ckpt.npz")
        for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert pb.data.dtype == dtype, name
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_empty_metadata_default(self, tmp_path):
        model = make_model()
        save_checkpoint(model, tmp_path / "c.npz")
        assert load_checkpoint(model, tmp_path / "c.npz") == {}

    def test_non_ascii_metadata(self, tmp_path):
        model = make_model()
        metadata = {"run": "Ørbit-试验", "β": 0.9, "nested": {"π": [1, 2]}}
        save_checkpoint(model, tmp_path / "c.npz", metadata=metadata)
        assert load_checkpoint(model, tmp_path / "c.npz") == metadata

    def test_overwrite_existing_file(self, tmp_path):
        path = tmp_path / "c.npz"
        first = make_model(rng=1)
        second = make_model(rng=2)
        save_checkpoint(first, path, metadata={"step": 1})
        save_checkpoint(second, path, metadata={"step": 2})
        probe = make_model(rng=3)
        assert load_checkpoint(probe, path) == {"step": 2}
        np.testing.assert_array_equal(
            probe.state_dict()["0.weight"], second.state_dict()["0.weight"]
        )


class TestErrors:
    def test_missing_key_rejected(self, tmp_path):
        save_checkpoint(Linear(4, 6, rng=0), tmp_path / "c.npz")
        with pytest.raises(KeyError, match="missing"):
            load_checkpoint(make_model(), tmp_path / "c.npz")

    def test_extra_key_rejected(self, tmp_path):
        save_checkpoint(make_model(), tmp_path / "c.npz")
        with pytest.raises(KeyError, match="unexpected"):
            load_checkpoint(Linear(4, 6, rng=0), tmp_path / "c.npz")

    def test_shape_mismatch_rejected(self, tmp_path):
        save_checkpoint(Linear(4, 6, rng=0), tmp_path / "c.npz")
        with pytest.raises(ValueError, match="shape mismatch"):
            load_checkpoint(Linear(4, 7, rng=0), tmp_path / "c.npz")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(make_model(), tmp_path / "nope.npz")


class TestTracing:
    def test_save_and_load_emit_markers(self, tmp_path):
        tracer = Tracer()
        model = make_model()
        save_checkpoint(model, tmp_path / "c.npz", tracer=tracer)
        load_checkpoint(model, tmp_path / "c.npz", tracer=tracer)

        kinds = [(s.kind, s.name) for s in tracer.spans]
        assert ("checkpoint", "save") in kinds
        assert ("checkpoint", "load") in kinds
        assert ("io", "npz.write") in kinds
        assert ("io", "npz.read") in kinds
        save_span = next(s for s in tracer.spans if s.name == "save")
        assert save_span.dur == 0.0  # markers are instants off the busy clock
        assert save_span.nbytes > 0.0
        assert save_span.attrs["arrays"] == len(model.state_dict())
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["checkpoint.saves"] == 1.0
        assert counters["checkpoint.loads"] == 1.0

    def test_default_tracer_is_silent(self, tmp_path):
        model = make_model()
        save_checkpoint(model, tmp_path / "c.npz")
        load_checkpoint(model, tmp_path / "c.npz")  # must not raise
