"""Half-lattice sampling, and the package's one stepping layer: every
RK4 recurrence, solved as array operations or by one scalar loop.

The classical RK4 stages need the driving terms at t, t + dt/2 and
t + dt.  Drivers known only on the grid (a designed drive, the
anticipated input, the mixing angle) are therefore interpolated once
onto the half lattice -- grid points interleaved with cubic midpoints --
and the forward routes in ``dynamics`` and ``dark_state`` read them by
half-lattice *index* instead of by time, which keeps each route free of
interpolation and bitwise reproducible.  The routes take them one block
of steps at a time (:func:`half_lattice_block`), so no route holds a
whole half lattice.

The two bath terms of the drive design (the anticipated input N and the
memory Z) each obey one scalar equation y' = lam y + f, because a
Lorentzian bath acts as one damped pseudomode.  RK4 applied to it is
exactly an affine recurrence, which :func:`_rk4_linear` solves as a
blocked running sum instead of stepping it in Python: O(n) work and no
BLAS call.  Only a path the blocks cannot settle (not finite, or near
enough to overflow for an RK4 stage to) is stepped by the scalar loop
below, whose first non-finite y raises.

The forward routes are small linear systems s' = A(t) s + f(t), and an
RK4 step of one is likewise an affine map s -> M_k s + c_k.
:func:`_rk4_affine_maps` builds a block of those maps elementwise from
the system's right-hand side, :func:`_affine_scan` solves their
recurrence by a recursive sub-block scan, neither calling BLAS, and
:func:`_affine_run` chains the blocks.  Where they cannot settle,
:func:`_rk4_loop` steps the same right-hand side on Python numbers; on
y' = lam y + f it is the fallback of :func:`_rk4_linear` as well.
"""

from __future__ import annotations

import math
from itertools import islice, repeat
from operator import mul

import numpy as np

from .errors import NonFiniteState

# cap on width * |log r|: r^(+-width) <= exp(700) ~ 1e304 stays finite
_EXP_ROOM = 700.0
_FLOAT_MAX = float(np.finfo(float).max)
# at most this many affine maps are carried by a scalar loop in
# _affine_scan; longer runs of maps split into sub-blocks
_SCAN_BASE = 16
# steps per block of the forward routes: a block of affine maps, or of
# the scalar loops' half-lattice feed
_BLOCK = 2048


def cubic_midpoints(y: np.ndarray) -> np.ndarray:
    """Midpoints of uniformly sampled data, 4th-order accurate.

    Interior midpoints use the centered 4-point stencil
    (-1, 9, 9, -1)/16; the two boundary midpoints use the one-sided
    cubic through the first (last) four samples.
    """
    y = np.asarray(y)
    n = y.shape[0] - 1
    if n < 1:
        raise ValueError("need at least two samples")
    if n == 1:
        return (y[:-1] + y[1:]) / 2.0
    if n == 2:
        return np.stack(
            [
                (3.0 * y[0] + 6.0 * y[1] - y[2]) / 8.0,
                (-y[0] + 6.0 * y[1] + 3.0 * y[2]) / 8.0,
            ]
        )
    m = np.empty((n,) + y.shape[1:], dtype=y.dtype)
    m[1:-1] = (-y[:-3] + 9.0 * y[1:-2] + 9.0 * y[2:-1] - y[3:]) / 16.0
    m[0] = (5.0 * y[0] + 15.0 * y[1] - 5.0 * y[2] + y[3]) / 16.0
    m[-1] = (y[-4] - 5.0 * y[-3] + 15.0 * y[-2] + 5.0 * y[-1]) / 16.0
    return m


def half_lattice(y: np.ndarray) -> np.ndarray:
    """Interleave samples with their cubic midpoints (length 2n + 1)."""
    y = np.asarray(y)
    n = y.shape[0] - 1
    out = np.empty((2 * n + 1,) + y.shape[1:], dtype=y.dtype)
    out[0::2] = y
    out[1::2] = cubic_midpoints(y)
    return out


def half_lattice_block(y: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """``half_lattice(y)[2 k0 : 2 k1 + 1]``, bit for bit, from the
    samples around steps ``k0 .. k1`` only.

    The window reaches one sample past each end of the block, and at
    least four samples, so its one-sided midpoints fall outside the
    block or on the ends of ``y``, where ``half_lattice`` has them too.
    """
    n = y.shape[0] - 1
    lo = max(0, min(k0 - 1, n - 3))
    hi = min(n, max(k1 + 1, 3))
    return half_lattice(y[lo : hi + 1])[2 * (k0 - lo) : 2 * (k1 - lo) + 1]


def cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoid integral of uniform samples from 0: scipy's
    ``cumulative_trapezoid(y, dx=dx, initial=0)``, bit for bit."""
    return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))


def _rk4_linear(
    z: float, dt: float, f_half: np.ndarray, backward: bool = False, *, amplitude: str
) -> np.ndarray:
    """RK4 path of y' = lam y + f from y = 0, with no per-step loop.

    ``z = lam * dt`` and ``f_half`` holds f on the half lattice
    (2n + 1 samples).  One RK4 step of this equation is exactly

        y_{k+1} = r y_k + b_k,   r = R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
        b_k = dt/6 [f_k (1 + z + z^2/2 + z^3/4)
                    + f_{k+1/2} (4 + 2z + z^2/2) + f_{k+1}],

    the r of the forward solvers' RK4 steps (not exp(z)).  A first-order
    linear recurrence is a scan, solved here in blocks of at most
    L = isqrt(n) steps with no matrix product: each block's path from
    rest is y_j = r^j sum_{i <= j} r^(-i) b_i (one scale, one running
    sum, one scale), and a scalar carry over the ~sqrt(n) blocks adds
    the start of each block.  The work is O(n) and calls no BLAS, so
    the bytes do not depend on a thread count.  Every power is
    ``exp(+-k log1p(r - 1))``, with r - 1 formed without the leading 1:
    ``r**k`` loses the digits of r near 1 and puts N(0) ~1e-13 off G'(0)
    at small W.  L is capped so that r^(+-L) and, on a path below the
    stage bound, every scaled sample and running sum stay finite.

    With ``backward=True`` the recurrence runs from the last sample to
    t = 0 and ``lam``, ``f_half`` describe the equation in reversed
    time span - t; the path is still returned in grid order.

    A path the blocks cannot settle -- one that is not finite, or that
    comes near enough to overflow for an RK4 stage to -- is stepped by
    the scalar RK4 loop the recurrence stands for, :func:`_rk4_loop` on
    the stage ``lam y + f``, into a scratch path.  That loop's raise is
    the contract: :class:`NonFiniteState`, naming ``amplitude``, at the
    grid time of the first step whose y is not finite.  If the loop gets
    through, the block path is returned, or the loop's own where the
    blocks overflowed and the loop did not; no call returns a non-finite
    path.
    """
    n = (f_half.shape[0] - 1) // 2
    if backward:
        f_half = f_half[::-1]
    q = z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    log_r = math.log1p(q)
    zz = z * z
    b = (dt / 6.0) * (
        (1.0 + z + 0.5 * zz + 0.25 * zz * z) * f_half[0:-1:2]
        + (4.0 + 2.0 * z + 0.5 * zz) * f_half[1::2]
        + f_half[2::2]
    )

    # below this size no RK4 stage of the next step can overflow
    size = abs(z)
    grow = 1.0 + size
    limit = _FLOAT_MAX / (6.0 * (grow + size / dt) * grow * grow * grow)
    width = max(1, math.isqrt(n))
    # while |y| < limit, |b_i| < (1 + r) limit and a block's path from
    # rest stays below (1 + r^width) limit, so no scaled sample, running
    # sum or block path passes 2 limit r^(+-width) <= _FLOAT_MAX / 2;
    # room is log(_FLOAT_MAX / (4 limit))
    room = min(_EXP_ROOM, math.log(1.5 * (grow + size / dt) * grow**3))
    if room < width * abs(log_r):
        width = max(1, int(room / abs(log_r)))
    blocks = -(-n // width)
    with np.errstate(over="ignore", invalid="ignore"):
        # each block's path from rest, y_j = r^j sum_{i <= j} r^(-i) b_i
        steps = np.arange(width + 1) * log_r
        powers = np.exp(steps)
        local = np.zeros((blocks, width))
        local.reshape(-1)[:n] = b
        local *= np.exp(-steps[:width])
        np.cumsum(local, axis=1, out=local)
        local *= powers[:width]
        carry = np.full((blocks, 1), np.nan)
        c = 0.0
        r_width = float(powers[width])
        for i, last in enumerate(local[:, -1].tolist()):
            carry[i, 0] = c
            c = r_width * c + last
            if c - c != 0.0:
                # no later block is finite either: they stay NaN
                break
        local += carry * powers[1:]

    path = np.empty(n + 1)
    stepped = path[::-1] if backward else path
    stepped[0] = 0.0
    stepped[1:] = local.reshape(-1)[:n]
    if not np.max(np.abs(path)) < limit:
        # step the loop the blocks stand for, which stops where it blows up
        lam = z / dt
        ys = np.empty(n + 1)
        try:
            _rk4_loop(
                lambda f, y: (lam * y + f,),
                lambda k0, k1: ((), (f_half[2 * k0 : 2 * k1 + 1],)),
                [0.0], [ys], dt, (amplitude,),
            )
        except NonFiniteState as err:
            if not backward:
                raise
            # the loop stamps its step k at (k + 1) dt; run backward, that
            # step ends at grid time (n - k - 1) dt
            raise NonFiniteState((n - round(err.t / dt)) * dt, amplitude) from None
        if not np.isfinite(path).all():
            # the blocks overflowed where the loop did not: its path stands
            stepped[1:] = ys[1:]
    return path


def _rk4_affine_maps(stage, couplings, sources, n_state: int, dt: float) -> np.ndarray:
    """The RK4 steps of one block of the linear system s' = A(t) s + f(t)
    as affine maps ``s_{k+1} = M_k s_k + c_k``.

    ``sources`` hold the block's B steps of half-lattice series (2B + 1
    samples each), and so do ``couplings``, or a number where one is
    constant over the block; ``stage(*couplings, *sources, *s)``
    is the system's right-hand side at one lattice position, the one
    that :func:`_rk4_loop` steps on numbers; on arrays it returns
    new arrays.  The four stages
    are applied at once to the identity and to the source: component i
    of the state is row i of [I | 0], and each source is lifted into the
    last column, the affine part, so every stage is elementwise over the
    steps.  Returns [M_k | c_k] as an array of shape (n, n + 1, B), of
    floats where the inputs are.
    """
    b = (sources[0].shape[0] - 1) // 2
    at = [(a, a, a) if np.ndim(a) == 0 else (a[0:-1:2], a[1::2], a[2::2]) for a in couplings]

    def slopes(pos, state):
        lifted = []
        for f in sources:
            lift = np.zeros((n_state + 1, b), dtype=f.dtype)
            lift[n_state] = f[pos : pos + 2 * b : 2]
            lifted.append(lift)
        return stage(*[a[pos] for a in at], *lifted, *state)

    # maps accumulates k1 + 2 k2 + 2 k3 + k4; each stage takes the
    # slopes at its lattice position of the stage state I + scale k,
    # formed in place of the slopes before
    maps = np.empty((n_state, n_state + 1, b), dtype=np.result_type(*couplings, *sources))
    k = slopes(0, np.eye(n_state + 1)[:n_state, :, None])
    for mi, ki in zip(maps, k):
        mi[...] = ki
    for pos, scale, weight in ((1, dt / 2.0, 2), (1, dt / 2.0, 2), (2, dt, 1)):
        for i, ki in enumerate(k):
            ki *= scale
            ki[i] += 1.0
        k = slopes(pos, k)
        for mi, ki in zip(maps, k):
            for _ in range(weight):
                mi += ki
    maps *= dt / 6.0
    for i in range(n_state):
        maps[i, i] += 1.0
    return maps


def _affine_scan(maps: np.ndarray, start) -> np.ndarray:
    """States s_1 .. s_B of ``s_{k+1} = M_k s_k + c_k`` from ``start``.

    ``maps`` holds [M_k | c_k] as :func:`_rk4_affine_maps` gives them.
    The B steps split into sub-blocks of L ~ B^(1/3) steps: L - 1
    products, each over all sub-blocks at once, give every step's map
    from the start of its sub-block.  The sub-blocks' whole maps form
    the same recurrence over ~B^(2/3) steps, whose states are the
    sub-blocks' starts; it is solved the same way, down to at most
    :data:`_SCAN_BASE` maps that a scalar loop carries.  One product
    then applies each map to its start.  The maps compose as
    (n + 1) x (n + 1) matrices with the last row (0, ..., 0, 1).  Returns
    the states as an (n, B) array; a map that is not finite leaves a
    path that is not finite either.
    """
    n, m, b = maps.shape
    if b <= _SCAN_BASE:
        path = []
        s = list(start)
        for whole in maps.transpose(2, 0, 1).tolist():
            affine = (*s, 1.0)
            s = [sum(map(mul, row, affine)) for row in whole]
            path.append(s)
        return np.array(path).T
    width = max(2, round(b ** (1.0 / 3.0)))
    rows = -(-b // width)
    full = b // width
    # step j of sub-block i at [j, :, :, i]: one step of every sub-block
    # is contiguous; steps past the block are zero maps, which no state
    # reads
    lay = np.zeros((width, m, m, rows), dtype=maps.dtype)
    lay[:, n, n] = 1.0
    lay[:, :n, :, :full] = maps[:, :, : full * width].reshape(n, m, full, width).transpose(3, 0, 1, 2)
    lay[: b - full * width, :n, :, full:] = maps[:, :, full * width :, None].transpose(2, 0, 1, 3)
    del maps
    step = np.empty_like(lay[0, :n])
    for j in range(1, width):
        np.einsum("ims,mks->iks", lay[j, :n], lay[j - 1], out=step)
        lay[j, :n] = step
    ends = _affine_scan(lay[-1, :n], start)
    starts = np.empty((m, rows), dtype=np.result_type(ends, lay))
    starts[:n, 0] = start
    starts[:n, 1:] = ends[:, :-1]
    starts[n] = 1.0
    path = np.einsum("jiks,ks->jis", lay[:, :n], starts)
    return path.transpose(1, 2, 0).reshape(n, rows * width)[:, :b]


def _feed(n: int, series):
    """The half-lattice inputs of an ``n``-step scalar RK4 loop, by block.

    ``series(k0, k1)`` gives the inputs of steps ``k0 .. k1 - 1`` as
    arrays on the half lattice ``2 k0 .. 2 k1``, or a number where one
    is constant over the block; at least one is an array.  Yields
    ``k0``, ``k1`` and an iterator over those steps: for step k, each
    input's samples at 2k, 2k + 1 and 2k + 2 in turn, as Python numbers.
    The loops of :func:`_rk4_loop` and
    ``dynamics.simulate_discrete_bath`` step a few amplitudes, too small
    a state vector to pay per-step array overhead for, and a block
    bounds what the lists hold.
    """
    for k0 in range(0, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        cols = []
        for arr in series(k0, k1):
            if np.ndim(arr) == 0:
                cols += (repeat(arr),) * 3
                continue
            even = arr[0::2].tolist()
            # step k's 2k + 2 is step k + 1's 2k: one list serves both
            cols += (even, arr[1::2].tolist(), islice(even, 1, None))
        yield k0, k1, zip(*cols)


def _affine_run(stage, series, rates, start, dest, dt: float) -> bool:
    """Step an RK4 route of s' = A(t) s + f(t) block by block as affine
    recurrences (:func:`_rk4_affine_maps`, :func:`_affine_scan`), each
    block from the end state of the one before.

    ``series(k0, k1)`` gives the couplings and the sources of steps
    ``k0 .. k1 - 1`` on the half lattice and ``stage`` the right-hand
    side, as for :func:`_rk4_affine_maps`; ``rates`` maps the block's
    largest input moduli to bounds (a, f) on the summed coefficient
    moduli of any one component's slope and on its source.  Writes the
    states after each step into ``dest[i][1:]``, one array per
    component.  Returns False at the first block it cannot settle: one
    whose path is not finite, or comes near enough to overflow for a
    stage of the scalar loop it stands for to.  With |s| <= sigma (the
    sum of the moduli), every stage state of a step stays below
    grow^3 (sigma + dt f) and every slope term below
    a grow^3 (sigma + dt f) + f, with grow = 1 + dt a.
    """
    n = dest[0].shape[0] - 1
    state = list(start)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, _BLOCK):
            k1 = min(k0 + _BLOCK, n)
            couplings, sources = series(k0, k1)
            path = _affine_scan(_rk4_affine_maps(stage, couplings, sources, len(state), dt), state)
            inputs = (*couplings, *sources)
            a, f = rates(*(float(np.max(np.abs(v))) for v in inputs))
            sigma = max(sum(map(abs, state)), float(np.max(np.sum(np.abs(path), axis=0))))
            grow = 1.0 + dt * a
            # the stage states and the weighted sum of the four slopes
            # stay below this; a quarter of the float maximum leaves a
            # factor 2 for a complex product's two terms and 2 for the
            # loop's rounding apart from the blocks
            if not (6.0 * a + 1.0) * grow * grow * grow * (sigma + dt * f) + 6.0 * f < _FLOAT_MAX / 4.0:
                return False
            for out, p in zip(dest, path):
                out[k0 + 1 : k1 + 1] = p
            state = path[:, -1].tolist()
    return True


def _rk4_loop(stage, series, start, dest, dt: float, names) -> None:
    """Step the RK4 route that :func:`_affine_run` solves in blocks one
    step at a time, on Python numbers: the bit-for-bit RK4 reference of
    the route, and the path of a run whose blocks cannot settle.

    ``stage``, ``series``, ``start`` and ``dest`` are those of
    :func:`_affine_run`, each input an array or a number that is
    constant over the block; :func:`_feed` hands the loop each step's
    inputs at 2k, 2k + 1 and 2k + 2, so the four stages evaluate
    ``stage`` as the affine maps do.  Writes the
    states after each step into ``dest[i][1:]``.  Raises
    :class:`NonFiniteState` at the first step whose state is not finite
    or whose sum of moduli overflows, naming the components by
    ``names``.
    """
    n = dest[0].shape[0] - 1
    h = dt / 2.0
    sixth = dt / 6.0
    s = list(start)

    def inputs(k0, k1):
        couplings, sources = series(k0, k1)
        return (*couplings, *sources)

    for k0, k1, steps in _feed(n, inputs):
        path = []
        for at in steps:
            mid = at[1::3]
            a1 = stage(*at[0::3], *s)
            a2 = stage(*mid, *[v + h * a for v, a in zip(s, a1)])
            a3 = stage(*mid, *[v + h * a for v, a in zip(s, a2)])
            a4 = stage(*at[2::3], *[v + dt * a for v, a in zip(s, a3)])
            s = [
                v + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                for v, b1, b2, b3, b4 in zip(s, a1, a2, a3, a4)
            ]
            tot = 0.0
            try:
                for v in s:
                    tot += abs(v)
            except OverflowError:  # a modulus past the float maximum
                tot = math.inf
            if tot != tot or tot == math.inf:
                t = (k0 + len(path) + 1) * dt
                raise NonFiniteState.among(t, **dict(zip(names, s)))
            path.append(s)
        for out, p in zip(dest, zip(*path)):
            out[k0 + 1 : k1 + 1] = p
