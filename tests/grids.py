"""Lower-triangular grids and dense stacks, shared by the kernel and
sampler tests."""

import numpy as np


def random_lower(rng, n, p):
    """n lower-triangular p x p matrices with positive real diagonals."""
    t = np.tril(rng.normal(size=(n, p, p)) + 1j * rng.normal(size=(n, p, p)), -1)
    t[:, range(p), range(p)] = rng.uniform(0.5, 2.0, size=(n, p))
    return t


def grid(a):
    """The grid of an (n, p, p) stack: its lower triangle, with real diagonal
    entries."""
    p = a.shape[-1]
    return [[a[:, i, j].real if i == j else a[:, i, j] for j in range(i + 1)] for i in range(p)]


def dense(rows):
    """The (n, p, p) stack of a lower-triangular grid, zero above it."""
    p = len(rows)
    out = np.zeros(np.shape(rows[0][0]) + (p, p), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, z in enumerate(row):
            out[..., i, j] = z
    return out


def max_rel(x, ref):
    return np.max(np.linalg.norm(x - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2)))


def herm(a):
    return a.conj().transpose(0, 2, 1)


def bits(a):
    """The raw bytes of an array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).tobytes()
