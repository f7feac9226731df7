"""Tests for repro.llama.checkpoint."""

from __future__ import annotations

import numpy as np
import pytest

from repro.llama.checkpoint import (
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
    synthesize_weights,
)
from repro.llama.config import preset


class TestSynthesizeWeights:
    def test_shapes_match_config(self, micro_config):
        ckpt = synthesize_weights(micro_config, seed=0)
        for name, shape in micro_config.parameter_shapes():
            assert ckpt.weights[name].shape == shape
            assert ckpt.weights[name].dtype == np.float32

    def test_deterministic_for_seed(self, micro_config):
        a = synthesize_weights(micro_config, seed=3)
        b = synthesize_weights(micro_config, seed=3)
        for name in a.weights:
            assert np.array_equal(a.weights[name], b.weights[name])

    def test_different_seeds_differ(self, micro_config):
        a = synthesize_weights(micro_config, seed=1)
        b = synthesize_weights(micro_config, seed=2)
        assert not np.array_equal(
            a.weights["layers.0.attention.wq.weight"],
            b.weights["layers.0.attention.wq.weight"],
        )

    def test_norm_weights_are_ones(self, micro_checkpoint):
        assert np.all(micro_checkpoint.weights["norm.weight"] == 1.0)
        assert np.all(micro_checkpoint.weights["layers.0.attention_norm.weight"] == 1.0)

    def test_projection_scale_follows_dim(self, micro_config):
        ckpt = synthesize_weights(micro_config, seed=0)
        std = ckpt.weights["layers.0.attention.wq.weight"].std()
        assert 0.4 / np.sqrt(micro_config.dim) < std < 2.5 / np.sqrt(micro_config.dim)

    def test_n_params_and_nbytes(self, micro_config, micro_checkpoint):
        assert micro_checkpoint.n_params == micro_config.n_params()
        assert micro_checkpoint.nbytes == 4 * micro_config.n_params()

class TestCheckpointValidation:
    def test_missing_tensor_rejected(self, micro_config, micro_checkpoint):
        weights = dict(micro_checkpoint.weights)
        weights.pop("norm.weight")
        with pytest.raises(ValueError, match="missing"):
            Checkpoint(config=micro_config, weights=weights)

    def test_wrong_shape_rejected(self, micro_config, micro_checkpoint):
        weights = dict(micro_checkpoint.weights)
        weights["norm.weight"] = np.ones(micro_config.dim + 1, dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            Checkpoint(config=micro_config, weights=weights)

    def test_tensors_iterates_in_canonical_order(self, micro_config, micro_checkpoint):
        names = [n for n, _ in micro_checkpoint.tensors()]
        assert names == [n for n, _ in micro_config.parameter_shapes()]


class TestBinaryRoundtrip:
    def test_save_load_roundtrip(self, micro_checkpoint, tmp_path):
        path = save_checkpoint(micro_checkpoint, tmp_path / "model.bin")
        loaded = load_checkpoint(path)
        assert loaded.config.dim == micro_checkpoint.config.dim
        assert loaded.config.n_layers == micro_checkpoint.config.n_layers
        assert loaded.config.vocab_size == micro_checkpoint.config.vocab_size
        for name in micro_checkpoint.weights:
            assert np.array_equal(loaded.weights[name], micro_checkpoint.weights[name])

    def test_file_size_matches_prediction(self, micro_checkpoint, tmp_path):
        path = save_checkpoint(micro_checkpoint, tmp_path / "model.bin")
        # a 7 x int32 header, then every parameter as float32
        assert path.stat().st_size == 28 + 4 * micro_checkpoint.config.n_params()

    def test_unshared_classifier_roundtrip(self, tmp_path):
        cfg = preset("test-micro").replace(shared_classifier=False)
        ckpt = synthesize_weights(cfg, seed=0)
        loaded = load_checkpoint(save_checkpoint(ckpt, tmp_path / "m.bin"))
        assert loaded.config.shared_classifier is False
        assert np.array_equal(loaded.weights["output.weight"], ckpt.weights["output.weight"])

    def test_truncated_file_rejected(self, micro_checkpoint, tmp_path):
        path = save_checkpoint(micro_checkpoint, tmp_path / "model.bin")
        data = path.read_bytes()
        (tmp_path / "short.bin").write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="header describes"):
            load_checkpoint(tmp_path / "short.bin")

    def test_tiny_file_rejected(self, tmp_path):
        (tmp_path / "empty.bin").write_bytes(b"abc")
        with pytest.raises(ValueError, match="too small"):
            load_checkpoint(tmp_path / "empty.bin")


class TestCorruptedCheckpoints:
    """A malformed file is refused naming itself and the byte offset read."""

    def test_every_corrupted_copy_loads_finite_or_names_the_file(
            self, micro_checkpoint, tmp_path):
        """Seeded corruptor: truncations, header bit flips and weights
        whose exponent bits are all set (inf or NaN).  Each copy either
        loads with finite weights of the shapes its header declares, or
        raises ``ValueError`` naming the file and a byte offset."""
        raw = save_checkpoint(micro_checkpoint, tmp_path / "model.bin").read_bytes()
        rng = np.random.default_rng(7)
        refused = 0
        for i in range(60):
            data = bytearray(raw)
            if i % 3 == 0:
                data = data[: int(rng.integers(0, len(data)))]
            elif i % 3 == 1:
                data[int(rng.integers(0, 28))] ^= 1 << int(rng.integers(0, 8))
            else:
                at = 28 + 4 * int(rng.integers(0, (len(data) - 28) // 4))
                data[at + 3] |= 0x7F
                data[at + 2] |= 0x80
            path = tmp_path / f"corrupt{i}.bin"
            path.write_bytes(bytes(data))
            try:
                loaded = load_checkpoint(path)
            except ValueError as exc:
                assert str(path) in str(exc)
                assert "byte" in str(exc)
                refused += 1
                continue
            for name, shape in loaded.config.parameter_shapes():
                assert loaded.weights[name].shape == shape
                assert np.isfinite(loaded.weights[name]).all(), name
        assert refused >= 40

    def test_huge_layer_count_is_refused_without_walking_it(
            self, micro_checkpoint, tmp_path):
        """A flipped high bit in ``n_layers`` claims 2**28 layers: the size
        check must refuse the file without walking them."""
        data = bytearray(
            save_checkpoint(micro_checkpoint, tmp_path / "model.bin").read_bytes())
        data[8:12] = (micro_checkpoint.config.n_layers | 1 << 28).to_bytes(4, "little")
        (tmp_path / "layers.bin").write_bytes(bytes(data))
        with pytest.raises(ValueError, match="layers.bin.*header describes"):
            load_checkpoint(tmp_path / "layers.bin")

    def test_non_finite_weight_is_refused_at_its_offset(
            self, micro_checkpoint, tmp_path):
        path = save_checkpoint(micro_checkpoint, tmp_path / "model.bin")
        weights = np.frombuffer(path.read_bytes()[28:], dtype=np.float32).copy()
        weights[5] = np.nan
        path.write_bytes(path.read_bytes()[:28] + weights.tobytes())
        with pytest.raises(ValueError, match="tok_embeddings.weight at byte 48"):
            load_checkpoint(path)


class TestParameterCount:
    @pytest.mark.parametrize("name", ["test-micro", "test-small", "stories15M",
                                      "tinyllama1.1B"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_closed_form_count_sums_the_shapes(self, name, shared):
        config = preset(name).replace(shared_classifier=shared)
        assert config.n_params() == sum(
            int(np.prod(shape)) for _, shape in config.parameter_shapes())
