"""The BLAS kernel and thread count numpy's GEMMs run on in this process.

A GEMM's rounding depends on the OpenBLAS kernel (SkylakeX, Haswell,
Katmai, ...) and, on some kernels, on the number of threads it runs on, so
a training log is a pure function of (seed, store, config) only per
(kernel, threads) pair.  ``training.train`` records the pair in
``train_state.json`` and refuses to resume a run under another one.  Both
are read through ``ctypes`` from numpy's bundled OpenBLAS.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np


def _openblas():
    """numpy's bundled OpenBLAS, or None where it is not found."""
    libs = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            for name, restype in (("scipy_openblas_get_corename64_", ctypes.c_char_p),
                                  ("scipy_openblas_get_num_threads64_", ctypes.c_int)):
                getattr(lib, name).argtypes = []
                getattr(lib, name).restype = restype
        except (OSError, AttributeError):
            continue
        return lib
    return None


def blas_core():
    """The OpenBLAS kernel numpy's GEMMs run on in this process (SkylakeX on
    an AVX-512 host; OPENBLAS_CORETYPE picks another), or "unknown" where
    numpy's bundled OpenBLAS is not found."""
    lib = _openblas()
    return "unknown" if lib is None else lib.scipy_openblas_get_corename64_().decode("ascii")


def blas_threads():
    """The number of threads numpy's OpenBLAS runs a GEMM on in this process
    (OPENBLAS_NUM_THREADS, capped at the usable CPUs), or 0 where numpy's
    bundled OpenBLAS is not found.  Some kernels' bits depend on it."""
    lib = _openblas()
    return 0 if lib is None else lib.scipy_openblas_get_num_threads64_()
