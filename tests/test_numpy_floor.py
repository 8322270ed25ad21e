"""The NumPy features the kernels call by name, which set the ``numpy>=2.0`` floor."""

import numpy as np
from numpy.linalg import _umath_linalg


def test_rank_warning_lives_in_numpy_exceptions():
    # the grouped slope fit warns as polyfit does (numpy.exceptions: NumPy >= 1.25)
    assert issubclass(np.exceptions.RankWarning, Warning)


def test_linalg_gufuncs_take_the_signatures_the_kernels_pass():
    # NumPy 1.x names these lstsq_m/lstsq_n and qr_r_raw_m/qr_r_raw_n
    expected = {
        "lstsq": ("(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)", "ddd->ddid"),
        "qr_r_raw": ("(m,n)->(p)", "d->d"),
        "qr_reduced": ("(m,n),(k)->(m,k)", "dd->d"),
    }
    for name, (core, types) in expected.items():
        gufunc = getattr(_umath_linalg, name)
        assert gufunc.signature == core, name
        assert types in gufunc.types, name
