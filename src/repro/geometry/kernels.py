"""NumPy kernels of the batched engine's memo seeding.

:class:`repro.sim.batch.BatchedSimulation` steps many same-shaped
simulations in lockstep.  Before its sims classify, and before they elect
in an asymmetric configuration, it warms the configurations' memos with
one sims-axis call per analysis instead of one scalar computation per
sim: :func:`distance_sums` and :func:`batched_weiszfeld` for the Weber
solve of quasi-regularity detection, :func:`batched_max_ray_loads` for
the ray loads of an election.  Views have no kernel: an election reads
them only to break a tie, which the sweeps this engine runs never have.

Every scalar computation has one implementation, the pure-Python code in
:mod:`repro.core` and :mod:`repro.geometry.weber`; these kernels only
have to match it.  Ray loads match it exactly; Weber solves agree within
``Tolerance.eps_solver`` and are re-certified per sim, and a solve
resumed from a returned iterate ends on the bits of an uninterrupted
one, so the engine can pause its solves to screen them.
``tests/property/test_prop_batched_kernels.py`` checks each of these.

NumPy is optional.  It is imported by the first kernel call or batched
engine, never by a scalar-engine process.
"""

from __future__ import annotations

import functools
import math
import time
from typing import List, Sequence, Tuple

from .. import obs as _obs

__all__ = [
    "numpy_module",
    "distance_sums",
    "batched_max_ray_loads",
    "batched_weiszfeld",
]

#: The ``numpy`` module once :func:`numpy_module` has imported it.  NumPy
#: is optional, and a scalar-engine process never loads it.
_np = None


def numpy_module():
    """Import NumPy on first use; ``None`` when it is not installed.

    Building a batched engine and calling a kernel both come through
    here.  Only a *missing* NumPy is tolerated — a present-but-broken
    install raising e.g. SystemError must surface, not masquerade as
    "not installed".
    """
    global _np
    if _np is None:
        try:
            import numpy
        except ImportError:
            return None
        _np = numpy
    return _np


#: Problem size from which the batched engine seeds memos with these
#: kernels; below it the NumPy call overhead outweighs the win and each
#: sim computes its own tower.
KERNEL_MIN_N = 8

_TWO_PI = 2.0 * math.pi


def set_backend(name: str) -> str:
    """No-op kept for ``perfbench/run.py::write_digests``.

    That benchmark script pins a backend before it records digests.
    Scalar computations have one implementation, the pure-Python one,
    so there is nothing to switch; the name is returned unchanged.
    """
    return name


def _timed(fn):
    """Per-kernel observability: each call's wall time.

    The first kernel call imports NumPy.  With observability disabled
    (the default) the wrapper is then two reads and a tail call — no
    timer, no allocation.  Enabled, each call is timed with
    ``perf_counter`` and recorded by :func:`repro.obs.record_kernel`:
    the stat ``geometry.kernels.<name>``, the ``kernel_seconds`` latency
    histogram and — when span tracing is active — a leaf ``kernel`` span
    attributed to whatever phase span was open when the call ran (see
    :mod:`repro.obs.spans`).
    """
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _np is None:
            numpy_module()
        if not _obs.state.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _obs.record_kernel(name, time.perf_counter() - start)

    return wrapper


# -- array plumbing ----------------------------------------------------------


def _as_xy(coords: Sequence[Tuple[float, float]]) -> "Tuple[_np.ndarray, _np.ndarray]":
    arr = _np.asarray(coords, dtype=_np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("coords must be a sequence of (x, y) pairs")
    return arr[:, 0], arr[:, 1]


def _normalize_angles(theta: "_np.ndarray") -> "_np.ndarray":
    """Vector twin of :func:`repro.geometry.angles.normalize_angle`."""
    theta = _np.fmod(theta, _TWO_PI)
    theta = _np.where(theta < 0.0, theta + _TWO_PI, theta)
    # fmod of a value infinitesimally below 0 can round to 2*pi exactly.
    return _np.where(theta >= _TWO_PI, theta - _TWO_PI, theta)


# -- distance sums (Weber objective screening) -------------------------------


@_timed
def distance_sums(
    targets: Sequence[Tuple[float, float]],
    points: Sequence[Tuple[float, float]],
) -> List[float]:
    """Sum of distances from each target to the whole multiset.

    The batch twin of ``repro.geometry.weber._distance_sums``.
    """
    tx, ty = _as_xy(targets)
    px, py = _as_xy(points)
    d = _np.hypot(px[None, :] - tx[:, None], py[None, :] - ty[:, None])
    return d.sum(axis=1).tolist()


# -- sims-axis batched kernels (batched SoA engine) --------------------------
#
# Each kernel below analyses S independent simulations in one call, with a
# leading sims axis, so ``repro.sim.batch.BatchedSimulation`` pays the
# numpy dispatch overhead once per seed batch.  They accept ragged per-sim
# inputs (padded internally with inert entries).  Per-sim outputs
# replicate the pure-Python reference named in each docstring.


def _pad_ragged(groups, dtype):
    """Stack ragged per-sim sequences into a zero-padded array + counts."""
    counts = [len(g) for g in groups]
    width = max(counts) if counts else 0
    out = _np.zeros((len(groups), width), dtype=dtype)
    for i, g in enumerate(groups):
        if counts[i]:
            out[i, : counts[i]] = g
    return out, counts


#: Soft cap on S*M*M elements per batched ray-loads slab, keeping the
#: intermediate (sims, centers, points) tensors around a few hundred MB
#: in the worst case instead of unbounded.
_BATCH_RAY_BUDGET = 4_000_000


@_timed
def batched_max_ray_loads(
    supports: Sequence[Sequence[Tuple[float, float]]],
    mults: Sequence[Sequence[int]],
    eps_dist: float,
    eps_angle: float,
    max_angular_resolution: float,
) -> List[List[int]]:
    """Largest robot count on any half-line from each support point.

    ``supports[s]`` / ``mults[s]`` are sim *s*'s support points and
    multiplicities (ragged — padded internally).  For every support
    point taken as a center this replicates
    ``repro.core.safe_points._max_ray_loads_python``: distance-aware
    angular tolerance, chained clustering of sorted direction angles,
    wrap-around merge at the 0/2*pi seam.  Points with every robot at
    the center load 0.  Padded entries behave exactly like at-center
    entries: ``off`` is False, their angle is +inf and their
    multiplicity 0, so they sort last, create no cluster boundaries
    (inf - inf = nan compares False) and add nothing to any cluster
    sum.  Returns one load list per sim.
    """
    arrs = [_np.asarray(g, dtype=_np.float64).reshape(-1, 2) for g in supports]
    counts = [len(a) for a in arrs]
    m_max = max(counts)
    out: List[List[int]] = []
    chunk = max(1, _BATCH_RAY_BUDGET // max(1, m_max * m_max))
    for start in range(0, len(arrs), chunk):
        out.extend(
            _max_ray_loads_slab(
                arrs[start : start + chunk],
                mults[start : start + chunk],
                counts[start : start + chunk],
                eps_dist,
                eps_angle,
                max_angular_resolution,
            )
        )
    return out


def _max_ray_loads_slab(
    arrs, mults, counts, eps_dist, eps_angle, max_angular_resolution
):
    s_count = len(arrs)
    m = max(counts)
    sx = _np.zeros((s_count, m), dtype=_np.float64)
    sy = _np.zeros((s_count, m), dtype=_np.float64)
    valid = _np.zeros((s_count, m), dtype=bool)
    for i, a in enumerate(arrs):
        k = counts[i]
        sx[i, :k] = a[:, 0]
        sy[i, :k] = a[:, 1]
        valid[i, :k] = True
    mult_arr, _ = _pad_ragged(mults, _np.int64)

    # [sim, center row, support column]: vector from each center to each
    # point, and the row's distance-aware angular resolution.
    dx = sx[:, None, :] - sx[:, :, None]
    dy = sy[:, None, :] - sy[:, :, None]
    d = _np.hypot(dx, dy)
    off = (d > eps_dist) & valid[:, None, :]

    d_off = _np.where(off, d, _np.inf)
    d_min = d_off.min(axis=2)
    has_off = _np.isfinite(d_min)
    safe_d_min = _np.where(has_off, d_min, 1.0)
    eps_row = _np.where(
        has_off,
        _np.minimum(max_angular_resolution, eps_angle + eps_dist / safe_d_min),
        eps_angle,
    )

    phi = _np.where(off, _normalize_angles(_np.arctan2(dy, dx)), _np.inf)
    order = _np.argsort(phi, axis=2, kind="stable")
    phi_s = _np.take_along_axis(phi, order, axis=2)
    mult_b = _np.broadcast_to(mult_arr[:, None, :], (s_count, m, m))
    mult_s = _np.where(
        _np.take_along_axis(off, order, axis=2),
        _np.take_along_axis(mult_b, order, axis=2),
        0,
    )

    # Chained clustering: a boundary wherever consecutive sorted angles
    # are farther apart than the row's angular tolerance.  The +inf
    # padding separates itself from real clusters (inf - finite = inf)
    # and carries multiplicity 0, so it never affects any maximum.
    with _np.errstate(invalid="ignore"):
        boundary = (phi_s[:, :, 1:] - phi_s[:, :, :-1]) > eps_row[:, :, None]
    cid = _np.zeros((s_count, m, m), dtype=_np.int64)
    _np.cumsum(boundary, axis=2, out=cid[:, :, 1:])
    sums = _np.zeros((s_count, m, m), dtype=_np.int64)
    sims_idx = _np.broadcast_to(
        _np.arange(s_count)[:, None, None], (s_count, m, m)
    )
    rows = _np.broadcast_to(_np.arange(m)[None, :, None], (s_count, m, m))
    _np.add.at(sums, (sims_idx, rows, cid), mult_s)
    loads = sums.max(axis=2)

    # Wrap-around at the 0 / 2*pi seam: the first and last clusters are
    # one ray when their angles meet across the seam.
    k = off.sum(axis=2)
    last_idx = _np.maximum(k - 1, 0)
    last_cid = _np.take_along_axis(cid, last_idx[:, :, None], axis=2)[:, :, 0]
    phi_last = _np.take_along_axis(phi_s, last_idx[:, :, None], axis=2)[:, :, 0]
    with _np.errstate(invalid="ignore"):
        seam = (
            (k > 0)
            & (last_cid > 0)
            & ((phi_s[:, :, 0] + _TWO_PI) - phi_last <= eps_row)
        )
    merged = (
        sums[:, :, 0]
        + _np.take_along_axis(sums, last_cid[:, :, None], axis=2)[:, :, 0]
    )
    loads = _np.where(seam, _np.maximum(loads, merged), loads)
    loads = _np.where(k > 0, loads, 0)
    return [row[:c] for row, c in zip(loads.tolist(), counts)]


@_timed
def batched_weiszfeld(
    points: Sequence[Sequence[Tuple[float, float]]],
    starts: Sequence[Tuple[float, float]],
    eps_solver: float,
    max_iterations: int,
) -> List[Tuple[float, float, int, bool]]:
    """Weiszfeld iteration with the Vardi-Zhang correction, S sims at once.

    Each sim's slice runs the iteration of
    ``repro.geometry.weber._weiszfeld`` with its stopping rule: stop
    when an iterate moves at most ``eps_solver`` or after
    ``max_iterations`` steps.  The still-running sims are kept in
    compacted arrays, their points stacked as one ``(2, k, n)`` array
    (x plane, y plane) and their iterates as one ``(2, k)`` array, so
    each step's elementwise work and weighted sums cover both
    coordinates in one NumPy call; a sim's row is written out and
    dropped the step it stops, so late steps only touch the few slow
    sims.  Every elementwise operation, and every per-row sum (an
    ``add.reduce`` over the contiguous last axis), is the same on any
    set of rows, so a sim's result does not depend on the batch it is
    solved in, and a sim resumed from a returned iterate with the
    remaining budget ends on the bits of an uninterrupted solve.  NumPy
    sums round differently from the reference's left-to-right
    additions, so iterates agree within ``eps_solver``, not to the bit;
    callers re-certify the result per sim (`is_weber_point`).  Returns
    one ``(x, y, iterations, stopped)`` per sim, ``stopped`` False when
    the budget ran out before the stopping rule held.
    """
    np = _np
    add = np.add
    hypot = np.hypot
    pts = np.asarray(points, dtype=np.float64)
    st = np.asarray(starts, dtype=np.float64)
    s_count = pts.shape[0]
    out = st.T.copy()
    iters = np.full(s_count, max_iterations, dtype=np.int64)
    stopped = np.zeros(s_count, dtype=bool)
    # The running sims: their original rows, points and iterates.
    rows = np.arange(s_count)
    p = np.ascontiguousarray(pts.transpose(2, 0, 1))
    x = out.copy()
    for step in range(1, max_iterations + 1):
        delta = p - x[:, :, None]
        d = hypot(delta[0], delta[1])
        mask = d > eps_solver
        if np.logical_and.reduce(mask, axis=None):
            # No running sim has an input point at its iterate: the
            # plain Weiszfeld step, with no Vardi-Zhang residual.  Most
            # steps of a sweep take it.  `_vardi_zhang_step` gives the
            # same bits on these rows, but running it on every step
            # more than doubles the kernel's time on sweep inputs.
            w = 1.0 / d
            nxt = add.reduce(p * w, axis=2) / add.reduce(w, axis=1)
            move = nxt - x
            stop = hypot(move[0], move[1]) <= eps_solver
        else:
            nxt, stop = _vardi_zhang_step(p, x, delta, d, mask, eps_solver)
        x = nxt
        if np.logical_or.reduce(stop):
            done = rows[stop]
            out[:, done] = x[:, stop]
            iters[done] = step
            stopped[done] = True
            keep = ~stop
            rows = rows[keep]
            p = p[:, keep]
            x = x[:, keep]
            if rows.size == 0:
                break
    out[:, rows] = x
    return list(
        zip(out[0].tolist(), out[1].tolist(), iters.tolist(), stopped.tolist())
    )


def _vardi_zhang_step(p, x, delta, d, mask, eps_solver):
    """One Weiszfeld step of :func:`batched_weiszfeld` when some running
    sim has input points at its iterate (``mask`` is False there).

    Those sims take the Vardi-Zhang pull-back; a sim whose points all
    sit at its iterate, or whose residual pull is zero, is at a
    fixpoint and holds.  ``p``, ``x`` and ``delta`` are the stacked
    ``(2, k, n)`` points, ``(2, k)`` iterates and ``p - x`` offsets.
    Returns the next iterates and the stop mask.
    """
    np = _np
    add = np.add
    w = np.divide(1.0, d, out=np.zeros_like(d), where=mask)
    far = add.reduce(mask, axis=1)
    hold = far == 0  # every point at the iterate: optimal
    safe_wsum = np.where(hold, 1.0, add.reduce(w, axis=1))
    target = add.reduce(p * w, axis=2) / safe_wsum
    at_x = p.shape[2] - far
    pulled = at_x > 0
    residual = add.reduce(delta * w, axis=2)
    r_norm = np.hypot(residual[0], residual[1])
    hold |= pulled & (r_norm == 0.0)
    beta = np.minimum(1.0, at_x / np.where(r_norm > 0.0, r_norm, 1.0))
    nxt = np.where(pulled, x + (1.0 - beta) * (target - x), target)
    nxt = np.where(hold, x, nxt)
    move = nxt - x
    return nxt, hold | (np.hypot(move[0], move[1]) <= eps_solver)
