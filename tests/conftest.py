import os

# The goldens and the bit tests pin the rounding of numpy 2.4.6 under one SIMD dispatch (AVX2,
# no AVX-512) and one OpenBLAS kernel set (Haswell): numpy's array power and the BLAS kernels
# round differently under AVX-512.  numpy reads both settings when it loads, so they are set
# before anything imports it, and subprocess tests inherit them.  On a host without AVX-512,
# numpy reports the features it cannot disable with an ImportWarning, not an error.  The golden
# scripts import this module first, so a golden regenerated by running one is pinned too.
DISPATCH_PIN = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR", "OPENBLAS_CORETYPE": "Haswell"}
os.environ.update(DISPATCH_PIN)

import numpy as np
import pytest

from btensor import Tensor, load_example


@pytest.fixture(scope="session")
def ex41():
    return load_example("ex41")


@pytest.fixture(scope="session")
def ex42():
    return load_example("ex42")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def make_diagonal(order, dim, values=1.0):
    return Tensor.diagonal_tensor(order, dim, values)
