"""Vertical resampling of a normalized iris to another number of rows.

``eval`` and ``match`` feed a model images of its own height: a store or an
image with another row count is resampled column by column with linear
interpolation, the first and last rows kept in place.  Columns (the angle)
are never resampled, so a width mismatch is an error, not a resize.
"""

from __future__ import annotations

import numpy as np


def resize_vertical(img, target_height):
    """Per-column linear resampling to ``target_height`` rows (endpoints aligned)."""
    img = np.asarray(img, dtype=np.float64)
    if target_height < 2:
        raise ValueError(f"target height must be at least 2, got {target_height}")
    h = img.shape[0]
    if target_height == h:
        return img.copy()
    pos = np.arange(target_height) * (h - 1) / (target_height - 1)
    i0 = np.floor(pos).astype(int)
    i1 = np.minimum(i0 + 1, h - 1)
    frac = (pos - i0)[:, None]
    return img[i0] * (1 - frac) + img[i1] * frac
