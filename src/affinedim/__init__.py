"""Computable dimension theory for self-affine measures.

Estimate Lyapunov spectra of matrix cocycles, detect dominated splitting,
sample stationary flag distributions and self-affine measures, and evaluate
the entropy/exponent dimension formulas against empirical and closed-form
values.

Modules
-------
``linalg``      singular values, compound matrices, subspace geometry
``cocycle``     random words, spectra, stationary flag sampling
``domination``  gap-ratio scans, STP/cone checks, invariant bundles
``measure``     IFS sampling, separation certificates, dimension estimators
``dimension``   dimension formulas, the diagonal closed form, the full pipeline
``errors``      the exception types
``cli``         the ``affine-dim`` command-line front end

The package exports the public names (each module's ``__all__``) of every
module but ``cli`` and ``config``.
"""

__version__ = "0.1.0"

from . import cocycle, dimension, domination, errors, linalg, measure
from .cocycle import *  # noqa: F403
from .dimension import *  # noqa: F403
from .domination import *  # noqa: F403
from .errors import *  # noqa: F403
from .linalg import *  # noqa: F403
from .measure import *  # noqa: F403

__all__ = [
    name
    for module in (cocycle, dimension, domination, errors, linalg, measure)
    for name in module.__all__
]
