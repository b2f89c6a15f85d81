"""The per-segment polynomial root scan of the path exit operators, kept as a test reference.

Each segment of a skeleton is written as polynomials in global time, every
face's crossing polynomial is root-found, candidate roots are tested with the
coordinate snapped onto the face, and the stretches between roots are probed
at their midpoints.  ``fkexit.paths`` resolves step and linear skeletons over
all their knots at once instead; this module is the slower route that the
tests compare it with.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from fkexit.errors import HorizonExceeded
from fkexit.paths import _segment_end_value, evaluate

_TIME_TOL = 1e-12


def _real_roots(coefs, lo, hi):
    """Real roots of a polynomial inside [lo, hi]; hi=None means unbounded."""
    c = np.atleast_1d(np.asarray(coefs, dtype=float))
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return []
    keep = len(c)
    while keep > 1 and abs(c[keep - 1]) <= 1e-14 * scale:
        keep -= 1
    c = c[:keep]
    deg = len(c) - 1
    if deg == 0:
        return []
    if deg == 1:
        roots = [-c[0] / c[1]]
    elif deg == 2:
        c0, b, a = c
        disc = b * b - 4 * a * c0
        if disc < 0:
            return []
        sq = math.sqrt(disc)
        q = -(b + math.copysign(sq, b)) / 2.0
        roots = []
        if a != 0:
            roots.append(q / a)
        if q != 0:
            roots.append(c0 / q)
        elif a != 0:  # b == 0 and disc == 0
            roots = [0.0] if c0 == 0 else roots
    else:
        rts = npoly.polyroots(c)
        roots = [float(r.real) for r in rts if abs(r.imag) <= 1e-9 * (1 + abs(r))]
    out = []
    for r in roots:
        if r < lo - _TIME_TOL:
            continue
        if hi is not None and r > hi + _TIME_TOL:
            continue
        out.append(min(max(r, lo), hi) if hi is not None else max(r, lo))
    return out


def _segments(path, left_mode):
    """Yield (t_lo, t_hi_or_None, coord_polys, incl_lo, incl_hi) in time order.

    Right-continuous scans use [t_k, t_{k+1}) segments; left-limit scans use
    (t_k, t_{k+1}].  The final segment is the absorbing constant tail (or the
    whole half line for flows).
    """
    if path.kind == "flow":
        yield 0.0, None, path.flow.coord_polys(), not left_mode, False
        return
    times = path.times
    n = len(times)
    for k in range(n - 1):
        t0, t1 = float(times[k]), float(times[k + 1])
        if path.kind == "step":
            polys = [np.array([v]) for v in path.points[k]]
        else:
            end = _segment_end_value(path, k)
            slope = (end - path.points[k]) / (t1 - t0)
            polys = [np.array([path.points[k][i] - slope[i] * t0, slope[i]]) for i in range(path.d)]
        yield t0, t1, polys, not left_mode, left_mode
    t0 = float(times[-1])
    polys = [np.array([v]) for v in path.points[-1]]
    yield t0, None, polys, not left_mode, False


def _outside(domain, point, mode, faces=()):
    p = np.array(point, dtype=float)
    for f in faces:
        # place the coordinate exactly on the face that generated this root,
        # so single-instant touches are classified exactly
        p = f.snap(p)
    return not domain.contains(p, mode)


def _scan_segment(domain, mode, t0, t1, polys, incl_lo, incl_hi):
    """Earliest time in this segment at which the path is outside, or None."""
    faces = domain.faces()
    if faces is None:
        faces = []
    root_faces = {}
    for f in faces:
        for r in _real_roots(f.crossing_poly(polys), t0, t1):
            for known in root_faces:
                if abs(r - known) <= _TIME_TOL * (1.0 + abs(known)):
                    root_faces[known].append(f)
                    break
            else:
                root_faces[r] = [f]
    breaks = sorted(root_faces)
    if not breaks or abs(breaks[0] - t0) > _TIME_TOL * (1 + abs(t0)):
        breaks.insert(0, t0)
    else:
        breaks[0] = t0
    if t1 is not None and (not breaks or abs(breaks[-1] - t1) > _TIME_TOL * (1 + abs(t1))):
        breaks.append(t1)

    def value_at(t):
        return np.array([npoly.polyval(t, c) for c in polys])

    def face_list(t):
        for r, fs in root_faces.items():
            if abs(r - t) <= _TIME_TOL * (1.0 + abs(t)):
                return fs
        return ()

    for i, b in enumerate(breaks):
        is_lo = i == 0
        is_hi = t1 is not None and i == len(breaks) - 1
        candidate = b > 0 and not (is_lo and not incl_lo) and not (is_hi and not incl_hi)
        if candidate and _outside(domain, value_at(b), mode, face_list(b)):
            return b
        nxt = breaks[i + 1] if i + 1 < len(breaks) else (None if t1 is None else t1)
        if nxt is None:
            mid = b + 1.0  # membership is constant beyond the last crossing
        elif nxt - b <= _TIME_TOL:
            continue
        else:
            mid = 0.5 * (b + nxt)
        if _outside(domain, value_at(mid), mode):
            return max(b, 0.0)
        if nxt is None:
            return None
    return None


_MODE_MEMBERSHIP = {"open-hit": "open", "closure-hit": "closure", "entrance": "open"}


def exit_time(path, domain, mode="closure-hit", strict=False):
    """First time strictly after 0 at which the path is outside the set.

    ``open-hit`` uses the open set, ``closure-hit`` its closure, and
    ``entrance`` is the inf over t >= 0 (so a start outside the open set
    exits at time 0).  Returns ``math.inf`` when the path never leaves within
    its skeleton (exact under the absorbing-tail convention); with
    ``strict=True`` that case raises :class:`HorizonExceeded` instead.
    """
    membership = _MODE_MEMBERSHIP[mode]
    if mode == "entrance" and not domain.contains(evaluate(path, 0.0), "open"):
        return 0.0
    for t0, t1, polys, incl_lo, incl_hi in _segments(path, left_mode=False):
        hit = _scan_segment(domain, membership, t0, t1, polys, incl_lo, incl_hi)
        if hit is not None:
            return float(hit)
    if strict:
        raise HorizonExceeded(path.horizon)
    return math.inf


def exit_time_left(path, domain, mode="open-hit", strict=False):
    """Exit time of the left-limit version of the path, inf{t>0 : w-(t) not in B}."""
    membership = _MODE_MEMBERSHIP[mode]
    for t0, t1, polys, incl_lo, incl_hi in _segments(path, left_mode=True):
        hit = _scan_segment(domain, membership, t0, t1, polys, incl_lo, incl_hi)
        if hit is not None:
            return float(hit)
    if strict:
        raise HorizonExceeded(path.horizon)
    return math.inf


