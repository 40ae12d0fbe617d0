"""Damped Newton over a block of independent solves, one per lane.

A lane is one row of a (P, n) block of unknowns.  Every lane runs its own
damped-Newton iteration with its own step search, budget and failure, but
each round evaluates the residuals of all open lanes in one call, so a
block of small systems costs about as many calls as a single one.  The
floats of every lane are those of a solve run alone: the block forms used
(stacked matmul, stacked dot products for norms) agree bit for bit with
their single-vector counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import NonConvergenceError

DAMPING_MAX_HALVINGS = 20
#: damping scales after a rejected full step: 2^-1 .. 2^-DAMPING_MAX_HALVINGS
_HALVINGS = np.ldexp(1.0, -np.arange(1, DAMPING_MAX_HALVINGS + 1))
#: the contraction test of end_slow_lanes: a round is slow when it leaves
#: the residual norm above SLOW_RATIO times the norm before it, and a lane
#: ends after SLOW_ROUNDS slow rounds in a row
SLOW_RATIO = 0.5
SLOW_ROUNDS = 2


def lane_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a 2-d block, equal bit for bit to
    np.linalg.norm of that row."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class NewtonLanes:
    """A block of solves: the last iterates, which lanes converged, the
    exception that ended each failed lane (None elsewhere), the steps each
    lane took, and after every round the block of iterates and of residual
    norms."""

    z: np.ndarray
    converged: np.ndarray
    errors: List[Optional[Exception]]
    steps: np.ndarray
    trail: List[np.ndarray]
    norms: List[np.ndarray]

    def history(self, lane: int) -> Tuple[float, ...]:
        return tuple(float(n[lane])
                     for n in self.norms[:self.steps[lane] + 1])

    def iterates(self, lane: int) -> Tuple[np.ndarray, ...]:
        return tuple(z[lane].copy() for z in self.trail[:self.steps[lane] + 1])


def damped_newton(residual: Callable, linear_step: Callable,
                  start: np.ndarray, tol: float, max_iter: int, name: str,
                  end_slow_lanes: bool = False) -> NewtonLanes:
    """Damped Newton from a (P, n) block of start points, one solve a lane.

    residual(lanes, Z) returns the residuals of the rows of Z, row i on
    lane lanes[i] (lanes None: all P lanes in order).  linear_step(lanes,
    Z, R) returns the Newton steps and either None or, when some lane cannot
    step, one entry per row: None or the exception that stops that lane.

    Each round every open lane moves to z - s * step for the first s in
    1, 1/2, ..., 2^-20 whose residual norm is below its last one or reaches
    tol.  All lanes try s = 1 in one residual call; the lanes that reject it
    try the other 20 scales in one more and take the first accepted, the
    scale a search trying one at a time would pick.

    A lane converges at norm <= tol.  It fails with NonConvergenceError,
    carrying its norms in .history and why in .cause: "budget" when its
    budget of max_iter steps is spent, "non-finite" when its norm is not
    finite before a step, "stalled" when no scale is accepted (damping
    stalled); and with the linear step's exception when it cannot step.

    With end_slow_lanes a lane that has neither converged nor spent its
    budget also fails, cause "slow", once SLOW_ROUNDS rounds in a row left
    its norm above SLOW_RATIO times the norm before: it contracts too
    slowly to be inside Newton's region of fast convergence (the
    monotonicity test of Deuflhard, Newton Methods for Nonlinear Problems,
    ch. 3).  The test reads only the lane's own norms, so a lane still ends
    as it would solved alone under it.  Only the lane blocks of
    implicit.build_chart's radius check pass it: the bisection screen and
    the rest of every round trip.  That is sound: a lane ended early can
    only fail a trial radius, and a failed trial only makes the radius
    smaller or ends the doubling sooner, so no radius that fails is ever
    certified.  That it makes none smaller (every lane it ends on the
    registry constraints fails without it too) is empirical; tests guard
    it.
    """
    z = np.array(start)
    P = len(z)
    r = residual(None, z)
    norm = lane_norms(r)
    trail, norms = [z], [norm]
    converged = np.zeros(P, dtype=bool)
    steps = np.zeros(P, dtype=np.intp)
    errors: List[Optional[Exception]] = [None] * P
    # per lane, the slow rounds in a row that end_slow_lanes counts
    slow = np.zeros(P, dtype=np.intp) if end_slow_lanes else None

    def fail(ids, cause: str, message: Callable[[float], str]):
        histories = np.array([n[ids] for n in norms]).T.tolist()
        for lane, history in zip(ids, histories):
            errors[lane] = NonConvergenceError(message(history[-1]),
                                               history=history, cause=cause)

    lanes = np.arange(P)
    # full: the open lanes are all P lanes, so no row needs selecting
    full = True
    while lanes.size:
        steps[lanes] = len(norms) - 1
        last = norm if full else norm[lanes]
        done = last <= tol  # a NaN norm has not converged
        if np.count_nonzero(done):
            converged[lanes[done]] = True
            lanes, last, full = lanes[~done], last[~done], False
            if not lanes.size:
                break
        if len(norms) > max_iter:
            fail(lanes, "budget",
                 lambda v: f"{name}: residual {v:.3g} > {tol:.3g} "
                           f"after {max_iter} iterations")
            break
        if slow is not None and len(norms) > 1:
            # every open lane stepped in the last round
            slow[lanes] = np.where(last > SLOW_RATIO * norms[-2][lanes],
                                   slow[lanes] + 1, 0)
            going = slow[lanes] < SLOW_ROUNDS
            if np.count_nonzero(going) < lanes.size:
                fail(lanes[~going], "slow",
                     lambda v: f"{name}: residual {v:.3g} after "
                               f"{SLOW_ROUNDS} rounds of ratio above "
                               f"{SLOW_RATIO:g}")
                lanes, last, full = lanes[going], last[going], False
                if not lanes.size:
                    break
        finite = np.isfinite(last)
        if np.count_nonzero(finite) < lanes.size:
            fail(lanes[~finite], "non-finite",
                 lambda v: f"{name}: non-finite residual {v}")
            lanes, last, full = lanes[finite], last[finite], False
            if not lanes.size:
                break
        Z = z if full else z[lanes]
        step, step_errors = linear_step(None if full else lanes, Z,
                                        r if full else r[lanes])
        if step_errors is not None:
            stepped = np.array([e is None for e in step_errors])
            for lane, err in zip(lanes, step_errors):
                if err is not None:
                    errors[lane] = err
            lanes, last, Z, step = (lanes[stepped], last[stepped],
                                    Z[stepped], step[stepped])
            full = False
            if not lanes.size:
                break
        # an open lane's norm is finite and above tol, so a candidate that
        # reaches tol is also below it: acceptance is one comparison
        cand = Z - step
        cand_r = residual(None if full else lanes, cand)
        cand_norm = lane_norms(cand_r)
        accepted = cand_norm < last
        if np.count_nonzero(accepted) < accepted.size:
            back = np.flatnonzero(~accepted)
            width = _HALVINGS.size
            ladder = Z[back, None, :] - _HALVINGS[:, None] * step[back, None, :]
            ladder_r = residual(np.repeat(lanes[back], width),
                                ladder.reshape(back.size * width, -1))
            ladder_norm = lane_norms(ladder_r).reshape(back.size, width)
            ok = ladder_norm < last[back, None]
            first = np.argmax(ok, axis=1)
            found = ok[np.arange(back.size), first]
            rows, k = back[found], first[found]
            cand[rows] = ladder[found, k]
            cand_r[rows] = ladder_r.reshape(back.size, width, -1)[found, k]
            cand_norm[rows] = ladder_norm[found, k]
            if not found.all():
                fail(lanes[back[~found]], "stalled",
                     lambda v: f"{name}: damping stalled at residual {v:.3g}")
                keep = np.ones(lanes.size, dtype=bool)
                keep[back[~found]] = False
                lanes, cand, cand_r, cand_norm = (
                    lanes[keep], cand[keep], cand_r[keep], cand_norm[keep])
                full = False
        if full:
            z, r, norm = cand, cand_r, cand_norm
        else:
            z, r, norm = z.copy(), r.copy(), norm.copy()
            z[lanes], r[lanes], norm[lanes] = cand, cand_r, cand_norm
        trail.append(z)
        norms.append(norm)
    return NewtonLanes(z, converged, errors, steps, trail, norms)
