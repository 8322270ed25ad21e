"""Small dense-matrix primitives.

Singular values, exterior powers (compound matrices), and subspace
geometry on orthonormal frames.  Everything here is a pure function of its
inputs and works on plain ``numpy`` arrays; dimensions up to ``MAX_DIM`` are
supported, and the matrix functions take a stack ``(..., d, d)`` wherever
they take one matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_DIM",
    "DET_EPS",
    "FRAME_ORTHO_TOL",
    "SubspaceFrame",
    "as_matrix",
    "check_contractive_invertible",
    "singular_values",
    "index_tuples",
    "exterior_power",
    "principal_angle_distance",
    "smallest_principal_angle",
    "qr_positive",
]

MAX_DIM = 8          # compound sizes stay small; larger d is rejected outright
DET_EPS = 1e-12      # invertibility floor for the smallest singular value of A
FRAME_ORTHO_TOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself when it is read-only and owns its data, else a read-only copy."""
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.flags.writeable = False
    return a


def _freeze(obj, **arrays: np.ndarray) -> None:
    """Store :func:`_frozen` of each array as that field of the frozen dataclass ``obj``."""
    for name, a in arrays.items():
        object.__setattr__(obj, name, _frozen(a))


def as_matrix(a) -> np.ndarray:
    """Validate ``a`` as a finite square matrix of supported size, or a stack ``(..., d, d)``."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[-1]
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside supported range 1..{MAX_DIM}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return arr


def check_contractive_invertible(a) -> np.ndarray:
    """Validate that ``a`` is a contraction (operator norm < 1) and invertible.

    Invertibility is judged by the smallest singular value, the 2-norm
    distance from ``a`` to the singular matrices, so a well-conditioned
    contraction with a tiny determinant passes.  On a stack the error names
    the first bad map, as ``maps[i]``.
    """
    arr = as_matrix(a)
    sv = singular_values(arr)
    bad = (sv[..., -1] >= 1.0) | (sv[..., 0] <= DET_EPS)
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        name = f"maps[{', '.join(map(str, at))}]" if at else "matrix"
        top, low = sv[at][-1], sv[at][0]
        if top >= 1.0:
            raise ValueError(f"{name} is not contractive: operator norm {top:.6g} >= 1")
        raise ValueError(f"{name} is numerically singular: smallest singular value "
                         f"{low:.6g} <= {DET_EPS:g}")
    return arr


def singular_values(a) -> np.ndarray:
    """Singular values of a square matrix, or of each in a stack, sorted ascending."""
    arr = as_matrix(a)
    return np.linalg.svd(arr, compute_uv=False)[..., ::-1].copy()


def qr_positive(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR factorisation with a nonnegative diagonal of R.

    ``m`` may be a stack of matrices; each is factored on its last two axes.
    """
    q, r = np.linalg.qr(m)
    sign = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    sign[sign == 0] = 1.0
    return q * sign[..., None, :], r * sign[..., :, None]


@dataclass(frozen=True)
class SubspaceFrame:
    """A ``k``-dimensional subspace of R^d held as an orthonormal ``d x k`` frame.

    Equality of subspaces is span equality, tested with principal angles,
    never entry-wise frame equality.
    """

    frame: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frame, dtype=float)
        if f.ndim != 2:
            raise ValueError(f"frame must be a 2-d array, got ndim {f.ndim}")
        d, k = f.shape
        if not (0 < k <= d):
            raise ValueError(f"need 0 < k <= d, got frame shape {f.shape}")
        if d > MAX_DIM:
            raise ValueError(f"ambient dimension {d} exceeds {MAX_DIM}")
        if not np.all(np.isfinite(f)):
            raise ValueError("frame has non-finite entries")
        if np.max(np.abs(f.T @ f - np.eye(k))) > FRAME_ORTHO_TOL:
            raise ValueError("frame columns are not orthonormal")
        _freeze(self, frame=f)

    @property
    def d(self) -> int:
        return self.frame.shape[0]

    @property
    def k(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def from_span(cls, vectors) -> "SubspaceFrame":
        """Orthonormalise the columns of ``vectors`` (must have full column rank)."""
        m = np.asarray(vectors, dtype=float)
        if m.ndim == 1:
            m = m[:, None]
        q, r = qr_positive(m)
        diag = np.abs(np.diag(r))
        if diag.min() <= 1e-12 * max(diag.max(), 1.0):
            raise ValueError("spanning vectors are numerically rank deficient")
        return cls(q)

    def complement(self) -> "SubspaceFrame":
        """Orthonormal frame of the orthogonal complement."""
        if self.k == self.d:
            raise ValueError("the full space has no nonempty orthogonal complement")
        u, _, _ = np.linalg.svd(self.frame, full_matrices=True)
        return SubspaceFrame(u[:, self.k:])


def index_tuples(d: int, p: int) -> list[tuple[int, ...]]:
    """Strictly increasing p-tuples from ``range(d)`` in lexicographic order."""
    return list(itertools.combinations(range(d), p))


def exterior_power(a, p: int) -> np.ndarray:
    """p-th compound matrix of ``a``: entry (I, J) is the (I, J) minor.

    Rows and columns are indexed by ``index_tuples(d, p)`` in lexicographic
    order, so the result is ``C(d, p) x C(d, p)`` and multiplicative over
    matrix products.  A stack ``(..., d, d)`` gives the stack of compounds.
    """
    arr = as_matrix(a)
    d = arr.shape[-1]
    if not 1 <= p <= d:
        raise ValueError(f"need 1 <= p <= {d}, got p={p}")
    if p == 1:
        return arr.copy()
    idx = np.asarray(index_tuples(d, p))
    sub = arr[..., idx[:, None, :, None], idx[None, :, None, :]]
    with np.errstate(divide="ignore", invalid="ignore"):
        # zero minors are legitimate entries; LAPACK warns on exact singularity
        return np.linalg.det(sub)


def principal_angle_distance(u: SubspaceFrame, w: SubspaceFrame) -> float:
    """Sine of the largest principal angle between equal-dimension subspaces.

    Zero exactly when the spans coincide; invariant under right-multiplication
    of either frame by an orthogonal matrix.  Computed as the spectral norm of
    the projection residual, which keeps full accuracy for tiny angles.
    """
    if u.d != w.d:
        raise ValueError(f"ambient dimension mismatch: {u.d} vs {w.d}")
    if u.k != w.k:
        raise ValueError(f"subspace dimension mismatch: {u.k} vs {w.k}")
    resid = w.frame - u.frame @ (u.frame.T @ w.frame)
    return float(min(1.0, np.linalg.norm(resid, 2)))


def smallest_principal_angle(u: SubspaceFrame, w: SubspaceFrame) -> float:
    """Smallest principal angle (radians) between two subspaces of any dims.

    The angle's cosine is the largest singular value of ``u^T w``, and its
    sine the smallest singular value of the residual of ``w`` after
    projection onto ``u`` (the residual's other singular values are the
    sines of larger angles, or 1).  The angle is read from both, so a tiny
    angle keeps full accuracy, where ``arccos`` of a cosine near 1 reads 0.
    """
    if u.d != w.d:
        raise ValueError(f"ambient dimension mismatch: {u.d} vs {w.d}")
    c = np.linalg.svd(u.frame.T @ w.frame, compute_uv=False).max()
    s = np.linalg.svd(w.frame - u.frame @ (u.frame.T @ w.frame), compute_uv=False).min()
    return float(np.arctan2(s, c))
