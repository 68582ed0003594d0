"""Resolution-scaling transformations.

All functions accept a single HWC image (float array in [0, 1]) or a batch of
NHWC images and return the same rank.  Three interpolation modes are provided;
``area`` (block averaging) is the default because it is the natural choice
when downscaling camera frames for small classifiers.

The integer-ratio ``area`` path is the cold-scan hot spot, so it runs a
cache-blocked kernel (:func:`_block_average`): the batch is walked in blocks
of about ``_BLOCK_BYTES`` of input, and each block's ``fh x fw`` strided
sub-grids are summed into one output buffer in row-major ``(i, j)`` order,
then divided once by ``fh * fw``.  That is the order numpy's
``reshape(...).mean(axis=(2, 4))`` adds in when the channel axis is the
contiguous inner axis (2+ channels), so the result is bitwise identical to
it there.  With a single channel the width axis becomes numpy's contiguous
inner loop, so its reduce adds each block in a different order (pairwise
for long rows) and the two differ by a few ulp; no production path resizes
1-channel input (colour variants are derived after resizing RGB).
"""

from __future__ import annotations

import numpy as np

__all__ = ["resize", "resize_nearest", "resize_bilinear", "resize_area"]

#: Input bytes per block of the area kernel (at least one frame): 64 frames
#: of 32x32 RGB float64, or one 224x224 frame.  Each of the ``fh * fw``
#: strided passes then re-reads a block that is still in cache.
_BLOCK_BYTES = 1536 * 1024


def _as_batch(image: np.ndarray) -> tuple[np.ndarray, bool]:
    if image.ndim == 3:
        return image[None, ...], True
    if image.ndim == 4:
        return image, False
    raise ValueError(f"expected HWC or NHWC array, got shape {image.shape}")


def _validate_size(size: int) -> None:
    if size <= 0:
        raise ValueError("target size must be positive")


def resize_nearest(image: np.ndarray, size: int) -> np.ndarray:
    # shape: (..., H, W, C) -> (..., R, R, C)
    """Nearest-neighbour resize to ``size`` x ``size``."""
    _validate_size(size)
    batch, squeeze = _as_batch(image)
    _, height, width, _ = batch.shape
    rows = np.clip((np.arange(size) + 0.5) * height / size, 0, height - 1).astype(int)
    cols = np.clip((np.arange(size) + 0.5) * width / size, 0, width - 1).astype(int)
    out = batch[:, rows][:, :, cols]
    return out[0] if squeeze else out


def resize_bilinear(image: np.ndarray, size: int) -> np.ndarray:
    # shape: (..., H, W, C) -> (..., R, R, C)
    """Bilinear resize to ``size`` x ``size``."""
    _validate_size(size)
    batch, squeeze = _as_batch(image)
    _, height, width, _ = batch.shape

    def grid(n_out: int, n_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        coords = (np.arange(n_out) + 0.5) * n_in / n_out - 0.5
        coords = np.clip(coords, 0, n_in - 1)
        low = np.floor(coords).astype(int)
        high = np.minimum(low + 1, n_in - 1)
        frac = coords - low
        return low, high, frac

    row_lo, row_hi, row_frac = grid(size, height)
    col_lo, col_hi, col_frac = grid(size, width)

    top = (batch[:, row_lo][:, :, col_lo] * (1 - col_frac)[None, None, :, None]
           + batch[:, row_lo][:, :, col_hi] * col_frac[None, None, :, None])
    bottom = (batch[:, row_hi][:, :, col_lo] * (1 - col_frac)[None, None, :, None]
              + batch[:, row_hi][:, :, col_hi] * col_frac[None, None, :, None])
    out = top * (1 - row_frac)[None, :, None, None] + bottom * row_frac[None, :, None, None]
    return out[0] if squeeze else out


def resize_area(image: np.ndarray, size: int) -> np.ndarray:
    # shape: (..., H, W, C) -> (..., R, R, C)
    """Area (block-average) resize to ``size`` x ``size``.

    Exact block averaging when the input size is an integer multiple of the
    output size; otherwise falls back to bilinear interpolation, which is a
    good approximation for arbitrary ratios.

    Each output pixel is ``((x[0, 0] + x[0, 1]) + ... + x[fh-1, fw-1]) /
    (fh * fw)`` over its ``fh x fw`` input block, added in row-major order.
    For inputs with two or more channels that equals
    ``reshape(n, size, fh, size, fw, c).mean(axis=(2, 4))`` bit for bit; for
    one channel numpy adds in another order and rounds differently by a few
    ulp (see the module docstring).
    """
    _validate_size(size)
    batch, squeeze = _as_batch(image)
    _, height, width, _ = batch.shape
    if height % size == 0 and width % size == 0:
        out = _block_average(batch, height // size, width // size)
        return out[0] if squeeze else out
    return resize_bilinear(image, size)


def _block_average(batch: np.ndarray, fh: int, fw: int) -> np.ndarray:
    # shape: (N, H, W, C) -> (N, H', W', C)
    """Mean over non-overlapping ``fh x fw`` blocks, walking the batch in
    blocks of about ``_BLOCK_BYTES`` (at least one frame each).

    Floating inputs keep their dtype, anything else averages in float64
    (the dtypes ``np.mean`` would return).
    """
    n, height, width, channels = batch.shape
    dtype = batch.dtype if batch.dtype.kind == "f" else np.dtype(np.float64)
    out = np.empty((n, height // fh, width // fw, channels), dtype=dtype)
    frame_bytes = height * width * channels * batch.itemsize
    rows = max(1, _BLOCK_BYTES // max(1, frame_bytes))
    for start in range(0, n, rows):
        block = batch[start:start + rows]
        acc = out[start:start + rows]
        acc[...] = block[:, ::fh, ::fw]
        for i in range(fh):
            for j in range(fw):
                if i or j:
                    np.add(acc, block[:, i::fh, j::fw], out=acc)
        np.divide(acc, fh * fw, out=acc)
    return out


_MODES = {
    "nearest": resize_nearest,
    "bilinear": resize_bilinear,
    "area": resize_area,
}


def resize(image: np.ndarray, size: int, mode: str = "area") -> np.ndarray:
    # shape: (..., H, W, C) -> (..., R, R, C)
    """Resize ``image`` to ``size`` x ``size`` using the given interpolation mode."""
    try:
        fn = _MODES[mode]
    except KeyError:
        raise ValueError(f"unknown resize mode {mode!r}; "
                         f"choose from {sorted(_MODES)}") from None
    # No-op shortcut when the image is already the requested size.
    spatial = image.shape[:2] if image.ndim == 3 else image.shape[1:3]
    if spatial == (size, size):
        return image.copy()
    return fn(image, size)
