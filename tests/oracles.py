"""Reference constructions that only the tests call."""

from __future__ import annotations

import numpy as np

from verlie import sparse
from verlie.superalgebra import Constants


def tensor_coo(constants: Constants, dim: int, p: int | None) -> sparse.Coo:
    """The tensor of a constants dict, as a (dim, dim*dim) sparse matrix
    L[i, k*dim+j] = C(i,j,k), reduced mod p (exact over Z if p is None)."""
    entries = [(i, k * dim + j, c) for (i, j), comps in constants.items() for k, c in comps.items()]
    return sparse.from_entries(*np.array(entries, dtype=np.int64).reshape(-1, 3).T, (dim, dim * dim), p)
