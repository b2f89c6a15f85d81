"""The gather-first Euler knot builder, kept as a test reference.

Rows that share their noise take the increments of their drawn path, which
are gathered to the rows first; every row then takes its own cumulative sum.
``fkexit.levy.euler_block`` sums each drawn path once under a
state-independent drift and gathers the sums instead; this module is the
route that the tests compare it with, bit for bit.
"""

import numpy as np

from fkexit.levy import _draw_noise, _velocity


def euler_block(spec, pos, h, gen, nb, path_of=None):
    """(na, nb + 1, d) knots of nb Euler steps from the rows of pos, and (na, nb) jump marks."""
    if path_of is None:
        dw, jump = _draw_noise(spec, len(pos), h, gen, nb)
    else:
        dw, jump = _draw_noise(spec, int(path_of[-1]) + 1, h, gen, nb)
        dw, jump = dw[path_of], jump[path_of]
    return build_knots(spec, pos, h, dw), jump


def build_knots(spec, pos, h, dw):
    """(na, nb + 1, d) knots from the rows of pos and their own (na, nb, d - offset) increments."""
    na, d = pos.shape
    nb = dw.shape[1]
    off = spec.noise_offset
    X = np.empty((na, nb + 1, d))
    X[:, 0] = pos
    v = _velocity(spec.drift)
    if v is not None:
        vh = v * h
        for i in range(d):
            if i < off:
                X[:, 1:, i] = np.cumsum(np.full(nb, 0.0 + vh[i])) + pos[:, i, None]
            else:
                c = dw[:, :, i - off] + vh[i]
                np.cumsum(c, axis=1, out=c)
                c += pos[:, i, None]
                X[:, 1:, i] = c
    else:
        for j in range(nb):
            step = spec.drift(X[:, j]) * h
            step[:, off:] += dw[:, j]
            np.add(X[:, j], step, out=X[:, j + 1])
    return X
