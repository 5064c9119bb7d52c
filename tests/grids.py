"""Lower-triangular grids and dense stacks, shared by the kernel and
sampler tests, and the reference determinants of sampled draws that the
layered determinants are checked against."""

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


def pivot_log_sum(t):
    """sum_i log T_ii of a triangular grid, summed in row order."""
    return sum(np.log(row[-1]) for row in t)


def reference_logs(draws, type1):
    """(log det X_j, log complement) of the Draws of sample_batch, as (k, n)
    and (n,) arrays: the log complement is log det(I - sum X_j) at type-1 and
    -log det(I + sum X_j) at type-2.

    At p >= 2, log det X_j = 2 (sum_i log T_j,ii - sum_i log L_ii) from the
    pivots, and the type-1 log complement is slogdet of the packed
    I - sum X_j. At p = 1 both read the values. The type-2 log complement is
    -Draws.logdet_eye_plus over every j at every p.
    """
    x = draws.values
    k = len(x if x is not None else draws.t)
    if x is not None:
        logdet = np.log(x)
    else:
        log_l = pivot_log_sum(draws.l)
        logdet = np.stack([2 * (pivot_log_sum(t) - log_l) for t in draws.t])
    if not type1:
        return logdet, -draws.logdet_eye_plus(range(k))
    if x is not None:
        return logdet, np.log1p(-x.sum(axis=0))
    x = draws.stack()
    return logdet, np.linalg.slogdet(np.eye(x.shape[-1]) - x.sum(axis=0))[1]


def layer_logs(rng, layer, reads, n):
    """The logs sample_layers sums for one p = 1 layer, from the layer's
    gammas drawn in order from rng: log x_j for reads "each"; for reads
    "sum", whose layers have k = 1, the log complement, log(w_2 / sum w) at
    type-1 and -log1p(w_1 / w_2) at type-2."""
    w = np.stack([rng.gammas(a, n) for a in layer.alphas])
    if layer.type1:
        ratio = w / w.sum(axis=0)
        return np.log(ratio[:-1]) if reads == "each" else np.log(ratio[-1])
    ratio = w[:-1] / w[-1]
    return np.log(ratio) if reads == "each" else -np.log1p(ratio[0])
