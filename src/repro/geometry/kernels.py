"""Vectorized geometry kernels behind a runtime backend switch.

The simulation rebuilds the full analysis tower every ATOM round — the
tolerant cluster merge of :class:`~repro.core.configuration.Configuration`,
the O(n^2) polar view table, the per-support-point ray structure behind
safe-point detection, and the Weiszfeld iteration for numerical Weber
points.  All of those are per-tick geometry loops over small dense float
data: exactly the shape NumPy batch kernels excel at.

This module provides NumPy implementations of those hot primitives behind
a process-wide backend switch:

* ``REPRO_BACKEND=python`` (the default) — every call site uses the
  original pure-Python code.  That code is the **reference backend**: it
  is the semantics, the NumPy kernels merely have to match it.
* ``REPRO_BACKEND=numpy`` — call sites route their inner loops through
  the kernels below.  NumPy remains an optional dependency, imported
  only when the numpy backend is selected (or a kernel or the batched
  engine is first used): a python-backend process never loads it.  When
  the import fails the switch falls back to ``python`` with a one-time
  ``RuntimeWarning``.

Equivalence contract
--------------------
Kernels replicate the reference computations operation for operation
(same ``fmod`` normalization, same banker's-rounding quantization, same
cluster-chaining rules), so results agree with the pure-Python backend
within the :class:`~repro.geometry.tolerance.Tolerance` quantum and all
*combinatorial* outputs — cluster merges, quantized views, ray loads,
Weber certificates — are identical.  ``tests/property/test_prop_kernels.py``
asserts this over random, biangular and linear workloads up to n = 256.

Kernels accept plain Python data (lists of ``(x, y)`` tuples) and return
plain Python data, so call sites never leak ``numpy`` scalars into the
tolerance-quantized pipeline.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import time
import warnings
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from .. import obs as _obs

__all__ = [
    "BACKENDS",
    "available_backends",
    "get_backend",
    "set_backend",
    "backend",
    "numpy_enabled",
    "numpy_module",
    "enabled_for",
    "near_pairs",
    "batch_polar_views",
    "max_ray_loads",
    "distance_sums",
    "unit_vector_sum",
    "weiszfeld",
    "pairwise_diameter",
    "batched_polar_views",
    "batched_max_ray_loads",
    "batched_weiszfeld",
]

#: The ``numpy`` module once :func:`numpy_module` has imported it.  NumPy
#: is optional, and a python-backend process never loads it.
_np = None


def numpy_module():
    """Import NumPy on first use; ``None`` when it is not installed.

    Selecting the numpy backend, building a batched engine and calling a
    kernel all come through here.  Only a *missing* NumPy is tolerated —
    a present-but-broken install raising e.g. SystemError must surface,
    not masquerade as "not installed".
    """
    global _np
    if _np is None:
        try:
            import numpy
        except ImportError:
            return None
        _np = numpy
    return _np


#: Recognized backend names.
BACKENDS = ("python", "numpy")

#: Below this problem size the NumPy call overhead outweighs the win and
#: call sites stay on the pure-Python path even under the numpy backend.
KERNEL_MIN_N = 8

_TWO_PI = 2.0 * math.pi

#: Dense pairwise-distance matrices are used up to this many points; the
#: grid-bucketed path takes over beyond it.
_DENSE_PAIRS_MAX = 1024


#: Set once the numpy->python degradation has been reported, so a sweep
#: that resolves the backend thousands of times warns exactly once.
_fallback_warned = False


def _resolve(name: str) -> str:
    """Validate a backend name, degrading ``numpy`` -> ``python`` when
    the import failed (NumPy is optional by design).

    The degradation is announced with a one-time :class:`RuntimeWarning`:
    silently computing a whole sweep on the wrong backend is exactly the
    kind of divergence ``repro check --diff`` exists to catch, so the
    fallback must at least be visible.
    """
    global _fallback_warned
    name = name.strip().lower() or "python"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown REPRO_BACKEND {name!r}; expected one of {BACKENDS}"
        )
    if name == "numpy" and numpy_module() is None:
        if not _fallback_warned:
            _fallback_warned = True
            warnings.warn(
                "REPRO_BACKEND=numpy requested but NumPy is not "
                "importable; falling back to the pure-Python backend",
                RuntimeWarning,
                stacklevel=3,
            )
        return "python"
    return name


_backend: str = _resolve(os.environ.get("REPRO_BACKEND", "python"))


def available_backends() -> Tuple[str, ...]:
    """Backends usable in this process (``numpy`` only when installed).

    Answers without importing NumPy.
    """
    return BACKENDS if importlib.util.find_spec("numpy") else ("python",)


def get_backend() -> str:
    """The currently active backend name."""
    return _backend


def set_backend(name: str) -> str:
    """Switch the process-wide backend; returns the previous one.

    Requesting ``numpy`` without NumPy installed silently keeps the
    pure-Python backend (mirroring the ``REPRO_BACKEND`` env behaviour).
    """
    global _backend
    previous = _backend
    _backend = _resolve(name)
    return previous


@contextmanager
def backend(name: str) -> Iterator[str]:
    """Context manager pinning the backend for a block (tests, benches)."""
    previous = set_backend(name)
    try:
        yield _backend
    finally:
        set_backend(previous)


def numpy_enabled() -> bool:
    """True when the numpy backend is active (and NumPy importable)."""
    return _backend == "numpy"


def enabled_for(n: int) -> bool:
    """Should a call site with problem size ``n`` use the kernels?"""
    return _backend == "numpy" and n >= KERNEL_MIN_N


def _timed(fn):
    """Per-kernel observability: call count + wall time + backend label.

    The first kernel call imports NumPy, so a kernel called directly
    (tests, benches) needs no backend switch first.  With observability
    disabled (the default) the wrapper is then two reads and a tail
    call — no timer, no allocation.  Enabled,
    each call is timed with ``perf_counter`` and recorded under the
    kernel's name and the active backend, feeding ``repro profile``,
    the ``kernel_seconds`` latency histogram, any registered
    ``on_kernel`` hooks, and — when span tracing is active — a leaf
    ``kernel`` span attributed to whatever phase span was open when
    the call ran (see :mod:`repro.obs.spans`).
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
            _obs.record_kernel(name, time.perf_counter() - start, _backend)

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


# -- tolerant cluster merge --------------------------------------------------


@_timed
def near_pairs(
    coords: Sequence[Tuple[float, float]], eps: float
) -> List[Tuple[int, int]]:
    """All index pairs ``(i, j)``, ``i < j``, with distance at most ``eps``.

    This feeds the union-find cluster merge of ``Configuration``.  Small
    multisets use one dense pairwise-distance matrix; larger ones are
    grid-bucketed first: with cell size ``eps`` two points within ``eps``
    are always in the same or an adjacent cell, so only points sharing a
    crowded 3x3 neighbourhood need exact distance checks.
    """
    n = len(coords)
    if n < 2:
        return []
    xs, ys = _as_xy(coords)

    if n > _DENSE_PAIRS_MAX:
        candidates = _grid_candidates(xs, ys, eps)
        if len(candidates) < 2:
            return []
        sub = sorted(candidates)
        idx = _np.asarray(sub, dtype=_np.intp)
        xs, ys = xs[idx], ys[idx]
    else:
        sub = None

    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    d = _np.hypot(dx, dy)
    iu, ju = _np.triu_indices(len(xs), k=1)
    mask = d[iu, ju] <= eps
    ii = iu[mask].tolist()
    jj = ju[mask].tolist()
    if sub is not None:
        ii = [sub[i] for i in ii]
        jj = [sub[j] for j in jj]
    return list(zip(ii, jj))


def _grid_candidates(xs: "_np.ndarray", ys: "_np.ndarray", eps: float) -> List[int]:
    """Indices of points whose 3x3 cell neighbourhood holds another point."""
    cx = _np.floor(xs / eps).astype(_np.int64)
    cy = _np.floor(ys / eps).astype(_np.int64)
    buckets: dict = {}
    for i, key in enumerate(zip(cx.tolist(), cy.tolist())):
        buckets.setdefault(key, []).append(i)
    out: List[int] = []
    for (bx, by), members in buckets.items():
        if len(members) > 1:
            out.extend(members)
            continue
        for ox in (-1, 0, 1):
            for oy in (-1, 0, 1):
                if (ox or oy) and (bx + ox, by + oy) in buckets:
                    out.extend(members)
                    break
            else:
                continue
            break
    return out


# -- batch polar views -------------------------------------------------------


@_timed
def batch_polar_views(
    origins: Sequence[Tuple[float, float]],
    points: Sequence[Tuple[float, float]],
    center: Tuple[float, float],
    eps_dist: float,
    eps_angle: float,
) -> List[Tuple[Tuple[float, float], ...]]:
    """Canonical views of all ``origins`` at once (Definition 2).

    For each origin the whole multiset ``points`` is serialized as sorted
    quantized ``(r, theta)`` pairs with the reference direction towards
    ``center`` — the vector twin of ``repro.core.views._polar_view``.
    Every origin must be farther than ``eps_dist`` from ``center``
    (callers filter central positions, exactly like the reference).
    """
    ox, oy = _as_xy(origins)
    px, py = _as_xy(points)
    cx, cy = center

    dx = px[None, :] - ox[:, None]
    dy = py[None, :] - oy[:, None]
    d = _np.hypot(dx, dy)

    vx = cx - ox
    vy = cy - oy
    unit = _np.hypot(vx, vy)

    theta = _normalize_angles(_np.arctan2(dy, dx) - _np.arctan2(vy, vx)[:, None])
    # Directions indistinguishable from the reference direction are
    # exactly zero so quantization cannot wrap them to ~2*pi.
    zero_dir = (theta <= eps_angle) | ((_TWO_PI - theta) <= eps_angle)
    t_q = _np.where(zero_dir, 0.0, _np.round(theta / eps_angle) * eps_angle)
    r_q = _np.round((d / unit[:, None]) / eps_dist) * eps_dist

    co_located = d <= eps_dist
    r_q = _np.where(co_located, 0.0, r_q)
    t_q = _np.where(co_located, 0.0, t_q)

    order = _np.lexsort((t_q, r_q), axis=-1)
    r_q = _np.take_along_axis(r_q, order, axis=1)
    t_q = _np.take_along_axis(t_q, order, axis=1)
    return [
        tuple(zip(r_row, t_row))
        for r_row, t_row in zip(r_q.tolist(), t_q.tolist())
    ]


# -- batch ray loads (safe points) -------------------------------------------


@_timed
def max_ray_loads(
    support: Sequence[Tuple[float, float]],
    mults: Sequence[int],
    eps_dist: float,
    eps_angle: float,
    max_angular_resolution: float,
) -> List[int]:
    """Largest robot count on any half-line from each support point.

    For every support point taken as a center this replicates
    ``repro.core.successor.ray_structure`` (distance-aware angular
    tolerance, chained clustering of sorted direction angles, wrap-around
    merge at the 0/2*pi seam) but only tracks per-ray robot counts — all
    that Definition 8 needs.  Returns one load per support point; points
    with every robot at the center load 0.
    """
    m = len(support)
    sx, sy = _as_xy(support)
    mult_arr = _np.asarray(mults, dtype=_np.int64)

    # [center row, support column]: vector from each center to each point.
    dx = sx[None, :] - sx[:, None]
    dy = sy[None, :] - sy[:, None]
    d = _np.hypot(dx, dy)
    off = d > eps_dist  # points not merged into the center

    # Distance-aware angular resolution per center (angular_resolution()).
    d_off = _np.where(off, d, _np.inf)
    d_min = d_off.min(axis=1)
    has_off = _np.isfinite(d_min)
    safe_d_min = _np.where(has_off, d_min, 1.0)
    eps_row = _np.where(
        has_off,
        _np.minimum(max_angular_resolution, eps_angle + eps_dist / safe_d_min),
        eps_angle,
    )

    phi = _np.where(off, _normalize_angles(_np.arctan2(dy, dx)), _np.inf)
    order = _np.argsort(phi, axis=1, kind="stable")
    phi_s = _np.take_along_axis(phi, order, axis=1)
    mult_s = _np.where(
        _np.take_along_axis(off, order, axis=1),
        _np.take_along_axis(_np.broadcast_to(mult_arr, (m, m)), order, axis=1),
        0,
    )

    # Chained clustering: a boundary wherever consecutive sorted angles
    # are farther apart than the row's angular tolerance.  The +inf
    # padding separates itself from real clusters (inf - finite = inf)
    # and carries multiplicity 0, so it never affects any maximum.
    with _np.errstate(invalid="ignore"):
        boundary = (phi_s[:, 1:] - phi_s[:, :-1]) > eps_row[:, None]
    cid = _np.zeros((m, m), dtype=_np.int64)
    _np.cumsum(boundary, axis=1, out=cid[:, 1:])
    sums = _np.zeros((m, m), dtype=_np.int64)
    rows = _np.broadcast_to(_np.arange(m)[:, None], (m, m))
    _np.add.at(sums, (rows, cid), mult_s)
    loads = sums.max(axis=1)

    # Wrap-around at the 0 / 2*pi seam: the first and last clusters are
    # one ray when their angles meet across the seam.
    k = off.sum(axis=1)
    row_idx = _np.arange(m)
    last_idx = _np.maximum(k - 1, 0)
    last_cid = cid[row_idx, last_idx]
    seam = (
        (k > 0)
        & (last_cid > 0)
        & ((phi_s[:, 0] + _TWO_PI) - phi_s[row_idx, last_idx] <= eps_row)
    )
    merged = sums[row_idx, 0] + sums[row_idx, last_cid]
    loads = _np.where(seam, _np.maximum(loads, merged), loads)
    return _np.where(k > 0, loads, 0).tolist()


# -- pairwise diameter (spread / convergence measure) ------------------------


@_timed
def pairwise_diameter(coords: Sequence[Tuple[float, float]]) -> float:
    """Largest pairwise distance of the point set (its diameter).

    Backs :func:`repro.sim.metrics.spread`, the per-round convergence
    measure the observability layer logs — the reason it must not cost
    an O(n^2) pure-Python loop per round.  Small sets use one dense
    distance matrix; larger ones compute the same matrix in row blocks
    so memory stays bounded while the arithmetic remains vectorized.
    """
    n = len(coords)
    if n < 2:
        return 0.0
    xs, ys = _as_xy(coords)
    if n <= _DENSE_PAIRS_MAX:
        dx = xs[:, None] - xs[None, :]
        dy = ys[:, None] - ys[None, :]
        return float(_np.hypot(dx, dy).max())
    best = 0.0
    block = 512
    for start in range(0, n, block):
        dx = xs[start : start + block, None] - xs[None, :]
        dy = ys[start : start + block, None] - ys[None, :]
        best = max(best, float(_np.hypot(dx, dy).max()))
    return best


# -- distance sums (election key / Weber objective screening) ----------------


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


# -- Weber point machinery ---------------------------------------------------


@_timed
def unit_vector_sum(
    x: float,
    y: float,
    points: Sequence[Tuple[float, float]],
    eps: float,
) -> Tuple[float, float, int]:
    """Summed unit vectors towards ``points`` plus the co-located count.

    The subgradient data of the Weber objective at ``(x, y)`` — the batch
    twin of :func:`repro.geometry.weber.unit_vector_sum`.
    """
    px, py = _as_xy(points)
    dx = px - x
    dy = py - y
    d = _np.hypot(dx, dy)
    mask = d > eps
    dm = d[mask]
    return (
        float((dx[mask] / dm).sum()),
        float((dy[mask] / dm).sum()),
        int(len(d) - mask.sum()),
    )


@_timed
def weiszfeld(
    points: Sequence[Tuple[float, float]],
    start: Tuple[float, float],
    eps_solver: float,
    max_iterations: int,
) -> Tuple[float, float, int]:
    """Vectorized Weiszfeld iteration with the Vardi-Zhang correction.

    The batch twin of ``repro.geometry.weber._weiszfeld``, with the same
    signature and the same stopping rule: stop when an iterate moves at
    most ``eps_solver`` or after ``max_iterations`` steps.  Returns the
    final iterate and the number of iterations taken.
    """
    px, py = _as_xy(points)
    x, y = start
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        dx = px - x
        dy = py - y
        d = _np.hypot(dx, dy)
        mask = d > eps_solver
        dm = d[mask]
        if dm.size == 0:
            # Every point sits at the iterate: trivially optimal.
            break
        w = 1.0 / dm
        wsum = float(w.sum())
        tx = float((px[mask] * w).sum()) / wsum
        ty = float((py[mask] * w).sum()) / wsum
        at_x = int(len(d) - dm.size)
        if at_x == 0:
            nx, ny = tx, ty
        else:
            # Vardi-Zhang: pull the plain Weiszfeld target back towards
            # the iterate by the co-located mass / residual-pull ratio.
            rx = float((dx[mask] * w).sum())
            ry = float((dy[mask] * w).sum())
            r_norm = math.hypot(rx, ry)
            if r_norm == 0.0:
                break
            beta = min(1.0, at_x / r_norm)
            nx = x + (1.0 - beta) * (tx - x)
            ny = y + (1.0 - beta) * (ty - y)
        moved = math.hypot(nx - x, ny - y)
        x, y = nx, ny
        if moved <= eps_solver:
            break
    return x, y, iterations


# -- sims-axis batched kernels (batched SoA engine) --------------------------
#
# The kernels below generalize their 2-D twins above with a leading sims
# axis: one call analyses S independent simulations at once.  They exist
# for ``repro.sim.batch.BatchedSimulation``, which amortizes the numpy
# dispatch overhead of per-sim kernel calls across a whole seed batch.
# Unlike the per-configuration kernels they accept ragged per-sim inputs
# (padded internally with inert entries) and may take ndarray state
# directly — the batched engine keeps a float64 mirror of all positions.
# Per-sim outputs replicate the corresponding 2-D kernel elementwise.


def _pad_ragged(groups, dtype):
    """Stack ragged per-sim sequences into a zero-padded array + counts."""
    counts = [len(g) for g in groups]
    width = max(counts) if counts else 0
    out = _np.zeros((len(groups), width), dtype=dtype)
    for i, g in enumerate(groups):
        if counts[i]:
            out[i, : counts[i]] = g
    return out, counts


@_timed
def batched_polar_views(
    origins: Sequence[Sequence[Tuple[float, float]]],
    points: Sequence[Sequence[Tuple[float, float]]],
    centers: Sequence[Tuple[float, float]],
    eps_dist: float,
    eps_angle: float,
) -> List[List[Tuple[Tuple[float, float], ...]]]:
    """:func:`batch_polar_views` for S sims in one numpy pass.

    ``origins[s]`` are sim *s*'s non-central support points (ragged —
    padded internally), ``points[s]`` its full multiset (uniform length
    across sims), ``centers[s]`` its SEC center.  Returns one view list
    per sim, elementwise identical to calling the 2-D kernel per sim:
    padded origin rows compute garbage under suppressed fp warnings and
    are sliced away before anything is returned.
    """
    arrs = [_np.asarray(g, dtype=_np.float64).reshape(-1, 2) for g in origins]
    counts = [len(a) for a in arrs]
    k_max = max(counts)
    s_count = len(arrs)
    o = _np.zeros((s_count, k_max, 2), dtype=_np.float64)
    for i, a in enumerate(arrs):
        o[i, : counts[i]] = a
    p = _np.asarray(points, dtype=_np.float64)
    c = _np.asarray(centers, dtype=_np.float64)

    dx = p[:, None, :, 0] - o[:, :, 0, None]
    dy = p[:, None, :, 1] - o[:, :, 1, None]
    d = _np.hypot(dx, dy)

    vx = c[:, None, 0] - o[:, :, 0]
    vy = c[:, None, 1] - o[:, :, 1]
    unit = _np.hypot(vx, vy)

    with _np.errstate(divide="ignore", invalid="ignore"):
        theta = _normalize_angles(
            _np.arctan2(dy, dx) - _np.arctan2(vy, vx)[:, :, None]
        )
        zero_dir = (theta <= eps_angle) | ((_TWO_PI - theta) <= eps_angle)
        t_q = _np.where(zero_dir, 0.0, _np.round(theta / eps_angle) * eps_angle)
        r_q = _np.round((d / unit[:, :, None]) / eps_dist) * eps_dist

        co_located = d <= eps_dist
        r_q = _np.where(co_located, 0.0, r_q)
        t_q = _np.where(co_located, 0.0, t_q)

        order = _np.lexsort((t_q, r_q), axis=-1)
    r_q = _np.take_along_axis(r_q, order, axis=-1)
    t_q = _np.take_along_axis(t_q, order, axis=-1)
    return [
        [
            tuple(zip(r_row, t_row))
            for r_row, t_row in zip(r_sim[:k], t_sim[:k])
        ]
        for r_sim, t_sim, k in zip(r_q.tolist(), t_q.tolist(), counts)
    ]


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
    """:func:`max_ray_loads` for S sims in one numpy pass.

    ``supports[s]`` / ``mults[s]`` are sim *s*'s support points and
    multiplicities (ragged — padded internally).  Padded entries behave
    exactly like the 2-D kernel's at-center entries: ``off`` is False,
    their angle is +inf and their multiplicity 0, so they sort last,
    create no cluster boundaries (inf - inf = nan compares False) and
    add nothing to any cluster sum.  Returns one load list per sim,
    elementwise identical to per-sim 2-D calls.
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

    # [sim, center row, support column], mirroring the 2-D kernel.
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
) -> List[Tuple[float, float, int]]:
    """:func:`weiszfeld` for S same-sized point sets in one loop.

    Each sim's slice runs the identical Vardi-Zhang iteration; converged
    sims freeze (their iterate and iteration count stop changing) while
    the rest continue.  One deliberate divergence from the 2-D kernel:
    sums here are masked-to-zero instead of compressed, which can round
    differently only when a point sits within ``eps_solver`` of the
    iterate — a perturbation inside the solver tolerance that callers
    absorb by re-certifying the result per sim (`is_weber_point`).
    """
    pts = _np.asarray(points, dtype=_np.float64)
    px = pts[:, :, 0]
    py = pts[:, :, 1]
    st = _np.asarray(starts, dtype=_np.float64)
    x = st[:, 0].copy()
    y = st[:, 1].copy()
    s_count, n = px.shape
    iters = _np.zeros(s_count, dtype=_np.int64)
    active = _np.ones(s_count, dtype=bool)
    for _ in range(max_iterations):
        ia = _np.flatnonzero(active)
        if ia.size == 0:
            break
        iters[ia] += 1
        dx = px[ia] - x[ia, None]
        dy = py[ia] - y[ia, None]
        d = _np.hypot(dx, dy)
        mask = d > eps_solver
        with _np.errstate(divide="ignore"):
            w = _np.where(mask, 1.0 / d, 0.0)
        wsum = w.sum(axis=1)
        far = mask.sum(axis=1)
        degenerate = far == 0  # every point at the iterate: optimal
        safe_wsum = _np.where(degenerate, 1.0, wsum)
        tx = (px[ia] * w).sum(axis=1) / safe_wsum
        ty = (py[ia] * w).sum(axis=1) / safe_wsum
        at_x = n - far
        rx = (dx * w).sum(axis=1)
        ry = (dy * w).sum(axis=1)
        r_norm = _np.hypot(rx, ry)
        # Vardi-Zhang pull-back for sims with co-located mass; a zero
        # residual there means the iterate is a fixpoint (stop as-is).
        stuck = (at_x > 0) & (r_norm == 0.0)
        beta = _np.minimum(1.0, at_x / _np.where(r_norm > 0.0, r_norm, 1.0))
        nx = _np.where(at_x == 0, tx, x[ia] + (1.0 - beta) * (tx - x[ia]))
        ny = _np.where(at_x == 0, ty, y[ia] + (1.0 - beta) * (ty - y[ia]))
        hold = degenerate | stuck
        nx = _np.where(hold, x[ia], nx)
        ny = _np.where(hold, y[ia], ny)
        moved = _np.hypot(nx - x[ia], ny - y[ia])
        x[ia] = nx
        y[ia] = ny
        active[ia[hold | (moved <= eps_solver)]] = False
    return list(zip(x.tolist(), y.tolist(), iters.tolist()))
