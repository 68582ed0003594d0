"""Equivalence of the fast transform paths against the code they replaced.

* The cache-blocked area kernel against the former one-line formula
  ``reshape(n, r, fh, r, fw, c).mean(axis=(2, 4))``, kept here as the
  oracle: bitwise for 2+ channels, within a stated ulp bound for one.
* :func:`apply_specs` against per-spec ``apply_batch`` over the SMOKE,
  DEFAULT and PAPER transform grids: bitwise.
"""

import numpy as np
import pytest

from repro.experiments.presets import DEFAULT_SCALE, PAPER_SCALE, SMOKE_SCALE
from repro.transforms.resize import resize_area
from repro.transforms.spec import (TransformSpec, apply_specs,
                                   standard_transform_grid)

SCALES = (SMOKE_SCALE, DEFAULT_SCALE, PAPER_SCALE)

#: (input size, output size) pairs the area kernel serves: every integer
#: ratio of the SMOKE and DEFAULT grids, plus integer ratios at the paper's
#: 224 px and 60 px.  (The PAPER grid's 224 -> 30/60/120 are not integer
#: ratios and take the bilinear fallback.)
RATIOS = ((16, 8), (32, 8), (32, 16), (224, 56), (224, 28), (60, 30),
          (60, 15), (60, 10))


def oracle_area(batch: np.ndarray, size: int) -> np.ndarray:
    n, height, width, channels = batch.shape
    return batch.reshape(n, size, height // size, size, width // size,
                         channels).mean(axis=(2, 4))


def frames(n: int, size: int, channels: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).random((n, size, size, channels))


class TestAreaKernel:
    @pytest.mark.parametrize("channels", [2, 3, 4])
    @pytest.mark.parametrize("source,size", RATIOS)
    def test_bitwise_equal_to_mean_formula(self, source, size, channels):
        batch = frames(3, source, channels, seed=source + size + channels)
        np.testing.assert_array_equal(resize_area(batch, size),
                                      oracle_area(batch, size))

    # Blocks hold 1.5 MiB of input: 64 frames at 32 px, 18 at 60 px and one
    # at 224 px.
    @pytest.mark.parametrize("source,rows", [
        (32, 1), (32, 63), (32, 64), (32, 65), (32, 130),
        (60, 17), (60, 18), (60, 19), (224, 2)])
    def test_bitwise_across_block_boundaries(self, source, rows):
        batch = frames(rows, source, 3, seed=rows)
        for size in {32: (8, 16), 60: (30, 15), 224: (56, 28)}[source]:
            np.testing.assert_array_equal(resize_area(batch, size),
                                          oracle_area(batch, size))

    def test_single_hwc_image(self):
        image = frames(1, 32, 3, seed=5)[0]
        out = resize_area(image, 8)
        assert out.shape == (8, 8, 3)
        np.testing.assert_array_equal(out, oracle_area(image[None], 8)[0])

    @pytest.mark.parametrize("source,size", RATIOS)
    def test_one_channel_within_ulp_bound(self, source, size):
        # numpy's reduce sums a contiguous 1-channel row pairwise, the
        # kernel in row-major order; each is within ~fh*fw ulp of the exact
        # mean of non-negative pixels, so they differ by at most twice that.
        batch = frames(65, source, 1, seed=source * size)
        got, want = resize_area(batch, size), oracle_area(batch, size)
        block = (source // size) ** 2
        ulps = np.abs(got - want) / np.spacing(np.abs(want))
        assert ulps.max() <= 2 * block

    def test_dtypes_follow_mean(self):
        ints = (frames(4, 16, 3) * 255).astype(np.uint8)
        out = resize_area(ints, 8)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, oracle_area(ints, 8))
        singles = frames(4, 16, 3).astype(np.float32)
        assert resize_area(singles, 8).dtype == np.float32


class TestApplySpecs:
    @pytest.mark.parametrize("scale", SCALES, ids=lambda s: s.name)
    def test_bitwise_equal_to_per_spec_apply_batch(self, scale):
        images = frames(3, scale.image_size, 3, seed=len(scale.name))
        grid = standard_transform_grid(scale.resolutions, scale.color_modes)
        for spec, array in zip(grid, apply_specs(grid, images)):
            expected = spec.apply_batch(images)
            assert array.dtype == expected.dtype
            np.testing.assert_array_equal(array, expected, err_msg=spec.name)

    def test_mixed_resize_modes_and_order(self):
        images = frames(5, 16, 3, seed=9)
        specs = [TransformSpec(8, "gray", "bilinear"), TransformSpec(8, "red"),
                 TransformSpec(8, "rgb", "bilinear"), TransformSpec(16, "rgb"),
                 TransformSpec(4, "blue", "nearest"), TransformSpec(8, "rgb")]
        for spec, array in zip(specs, apply_specs(specs, images)):
            np.testing.assert_array_equal(array, spec.apply_batch(images),
                                          err_msg=spec.name)

    def test_resizes_once_per_resolution(self, monkeypatch):
        calls = []
        original = TransformSpec.apply_batch

        def counting(self, images):
            calls.append(self)
            return original(self, images)
        monkeypatch.setattr(TransformSpec, "apply_batch", counting)
        grid = standard_transform_grid((8, 16), ("rgb", "red", "gray"))
        apply_specs(grid, frames(2, 16, 3))
        assert calls == [TransformSpec(8, "rgb"), TransformSpec(16, "rgb")]

    def test_outputs_never_alias_the_input(self):
        images = frames(2, 16, 3, seed=3)
        grid = standard_transform_grid((8, 16), ("rgb", "green", "gray"))
        for array in apply_specs(grid, images):
            assert not np.shares_memory(array, images)


class TestSingleCopy:
    @pytest.mark.parametrize("mode", ["rgb", "red", "gray"])
    @pytest.mark.parametrize("resize_mode", ["area", "bilinear", "nearest"])
    def test_apply_never_aliases_its_input(self, mode, resize_mode):
        images = frames(2, 16, 3, seed=4)
        for resolution in (16, 8):  # full resolution is the no-op resize
            spec = TransformSpec(resolution, mode, resize_mode)
            assert not np.shares_memory(spec.apply_batch(images), images)
            assert not np.shares_memory(spec.apply(images[0]), images)

    def test_rgb_apply_keeps_the_channel_check(self):
        with pytest.raises(ValueError):
            TransformSpec(16, "rgb").apply_batch(frames(2, 16, 1))
