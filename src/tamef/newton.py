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
from typing import Callable, List, Tuple

import numpy as np

from .errors import NonConvergenceError, SingularBlockError

DAMPING_MAX_HALVINGS = 20
#: damping scales after a rejected full step: 2^-1 .. 2^-DAMPING_MAX_HALVINGS
_HALVINGS = np.ldexp(1.0, -np.arange(1, DAMPING_MAX_HALVINGS + 1))
#: the contraction test of end_slow_lanes: a round is slow when it leaves
#: the residual norm above SLOW_RATIO times the norm before it, and a lane
#: ends after SLOW_ROUNDS slow rounds in a row
SLOW_RATIO = 0.5
SLOW_ROUNDS = 2

#: how a lane ended, one int8 code a lane; a failed lane raises
#: NonConvergenceError, or SingularBlockError from SINGULAR on
CONVERGED, BUDGET, NON_FINITE, STALLED, SLOW, SINGULAR, BLOCK_NOT_FINITE = \
    range(7)
#: the name of each code, the .cause of its NonConvergenceError
CAUSES = ("converged", "budget", "non-finite", "stalled", "slow",
          "singular", "non-finite block")
#: the message of each failure code, after the solve's name
MESSAGES = (None, "residual {v:.3g} > {tol:.3g} after {max_iter} iterations",
            "non-finite residual {v}", "damping stalled at residual {v:.3g}",
            "residual {v:.3g} after {rounds} rounds of ratio above {ratio:g}",
            "phi-block singular (sigma_min={0:.3g}, sigma_max={1:.3g})",
            "phi-block not finite")


def lane_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a 2-d block, equal bit for bit to
    np.linalg.norm of that row."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def block_error(name: str, code: int, sigma) -> SingularBlockError:
    """The SingularBlockError of a SINGULAR or BLOCK_NOT_FINITE phi-block."""
    return SingularBlockError(f"{name}: " + MESSAGES[code].format(*sigma))


@dataclass(frozen=True)
class NewtonLanes:
    """A block of solves: the last iterates, which lanes converged, the
    code that ended each lane and the (sigma_min, sigma_max) of a blocked
    lane, the steps each lane took, after every round the block of iterates
    and of residual norms, and the solve's name, tol and max_iter."""

    z: np.ndarray
    converged: np.ndarray
    cause: np.ndarray
    sigma: np.ndarray
    steps: np.ndarray
    trail: List[np.ndarray]
    norms: List[np.ndarray]
    name: str
    tol: float
    max_iter: int

    def history(self, lane: int) -> Tuple[float, ...]:
        return tuple(float(n[lane])
                     for n in self.norms[:self.steps[lane] + 1])

    def iterates(self, lane: int) -> Tuple[np.ndarray, ...]:
        return tuple(z[lane].copy() for z in self.trail[:self.steps[lane] + 1])

    def error(self, lane: int) -> Exception:
        """The exception that ends a failed lane solved alone, built now;
        a NonConvergenceError carries .history and its code's name .cause."""
        code = self.cause[lane]
        if code >= SINGULAR:
            return block_error(self.name, code, self.sigma[lane])
        history = list(self.history(lane))
        message = MESSAGES[code].format(
            v=history[-1], tol=self.tol, max_iter=self.max_iter,
            rounds=SLOW_ROUNDS, ratio=SLOW_RATIO)
        return NonConvergenceError(f"{self.name}: {message}",
                                   history=history, cause=CAUSES[code])


def damped_newton(residual: Callable, linear_step: Callable,
                  start: np.ndarray, tol: float, max_iter: int, name: str,
                  end_slow_lanes: bool = False) -> NewtonLanes:
    """Damped Newton from a (P, n) block of start points, one solve a lane.

    A set of lanes is named by one lane index: ... for all P lanes in
    order, else an array of lane numbers, so that X[lanes] holds their
    rows.  residual(lanes, Z) returns the residuals of the rows of Z, row i
    on the i-th lane of lanes, as a new array: the kernel owns the residual
    blocks its callbacks return and writes into them.  linear_step(lanes,
    Z, R) returns the Newton steps and None or, when some row cannot step,
    per row its code (CONVERGED if it steps, SINGULAR or BLOCK_NOT_FINITE)
    and its (sigma_min, sigma_max) as a (rows, 2) block.

    Each round every open lane moves to z - s * step for the first s in
    1, 1/2, ..., 2^-20 whose residual norm is below its last one or reaches
    tol.  All lanes try s = 1 in one residual call; the lanes that reject it
    try the other 20 scales in one more and take the first accepted, the
    scale a search trying one at a time would pick.

    A lane converges at norm <= tol.  It fails with code BUDGET when its
    budget of max_iter steps is spent, NON_FINITE when its norm is not
    finite before a step, STALLED when no scale is accepted (damping
    stalled), and with the linear step's code when it cannot step.  No
    exception is built: NewtonLanes.error(lane) builds one for a caller.

    With end_slow_lanes a lane that has neither converged nor spent its
    budget also fails, code SLOW, once SLOW_ROUNDS rounds in a row left
    its norm above SLOW_RATIO times the norm before: it contracts too
    slowly to be inside Newton's region of fast convergence (the
    monotonicity test of Deuflhard, Newton Methods for Nonlinear Problems,
    ch. 3).  The test reads only the lane's own norms, so a lane still ends
    as it would solved alone under it.  Only the lane blocks of
    implicit.build_chart's radius check pass it: the screens of one
    direction, the lead, and the blocks of the other directions.  That is
    sound: a lane ended early can only fail a trial radius, and a failed
    trial only makes the radius smaller or ends the doubling sooner, so no
    radius that fails is ever certified.  That it makes none smaller
    (every lane it ends on the registry constraints fails without it too)
    is empirical; tests guard it.
    """
    z = np.array(start)
    P = len(z)
    r = residual(..., z)
    norm = lane_norms(r)
    trail, norms = [z], [norm]
    # a lane's code stays CONVERGED unless it fails
    cause = np.zeros(P, dtype=np.int8)
    sigma = np.zeros((P, 2))
    steps = np.zeros(P, dtype=np.intp)
    # per lane, the slow rounds in a row that end_slow_lanes counts
    slow = np.zeros(P, dtype=np.intp)
    # the open lanes, a lane index: ... while all P are open, so that
    # z[lanes] is a view, from the first filter on an array of lane numbers
    ids, lanes = np.arange(P), ...
    # the open lanes' norms: the loop runs while a lane is open
    last = norm
    while last.size:
        steps[lanes] = len(norms) - 1
        done = last <= tol  # a NaN norm has not converged
        if np.count_nonzero(done):
            lanes, last = ids[lanes][~done], last[~done]
            if not lanes.size:
                break
        if len(norms) > max_iter:
            cause[lanes] = BUDGET
            break
        if end_slow_lanes and len(norms) > 1:
            # every open lane stepped in the last round
            slow[lanes] = np.where(last > SLOW_RATIO * norms[-2][lanes],
                                   slow[lanes] + 1, 0)
            going = slow[lanes] < SLOW_ROUNDS
            if np.count_nonzero(going) < going.size:
                cause[ids[lanes][~going]] = SLOW
                lanes, last = ids[lanes][going], last[going]
                if not lanes.size:
                    break
        finite = np.isfinite(last)
        if np.count_nonzero(finite) < finite.size:
            cause[ids[lanes][~finite]] = NON_FINITE
            lanes, last = ids[lanes][finite], last[finite]
            if not lanes.size:
                break
        Z = z[lanes]
        step, blocked = linear_step(lanes, Z, r[lanes])
        if blocked is not None:
            # a row that steps keeps CONVERGED, the code of an open lane
            cause[lanes], sigma[lanes] = blocked
            stepped = cause[lanes] == CONVERGED
            lanes, last, Z, step = (ids[lanes][stepped], last[stepped],
                                    Z[stepped], step[stepped])
            if not lanes.size:
                break
        # an open lane's norm is finite and above tol, so a candidate that
        # reaches tol is also below it: acceptance is one comparison
        cand = Z - step
        cand_r = residual(lanes, cand)
        cand_norm = lane_norms(cand_r)
        accepted = cand_norm < last
        if np.count_nonzero(accepted) < accepted.size:
            back = np.flatnonzero(~accepted)
            width = _HALVINGS.size
            ladder = Z[back, None, :] - _HALVINGS[:, None] * step[back, None, :]
            ladder_r = residual(np.repeat(ids[lanes][back], width),
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
                cause[ids[lanes][back[~found]]] = STALLED
                keep = np.ones(accepted.size, dtype=bool)
                keep[back[~found]] = False
                lanes, cand, cand_r, cand_norm = (
                    ids[lanes][keep], cand[keep], cand_r[keep],
                    cand_norm[keep])
        # z and norm go into the trail; r is the kernel's own, and is
        # written in place
        z, norm = z.copy(), norm.copy()
        z[lanes], r[lanes], norm[lanes] = cand, cand_r, cand_norm
        trail.append(z)
        norms.append(norm)
        last = cand_norm
    return NewtonLanes(z, cause == CONVERGED, cause, sigma, steps, trail,
                       norms, name, tol, max_iter)
