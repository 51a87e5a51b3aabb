"""Helpers shared by the test modules."""

import numpy as np

from varbound.bounds import OrthonormalBasis


def haar_basis(dim, seed) -> OrthonormalBasis:
    """Haar-distributed orthonormal basis, deterministic per seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r))).conj()
    return OrthonormalBasis(q)
