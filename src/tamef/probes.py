"""Deterministic probe sequences for certification and validation runs.

Probe sets mix monomial sequences (one nonzero coefficient) with random
decay-profile sequences whose coefficient norms fall off like e^{-alpha k}.
Support degrees are cycled through the full truncation, half, and a quarter
so that ratio statistics can be compared across coefficient degrees; an
equivalence or tameness constant that secretly grows with the truncation
shows up as a ratio jump between those buckets.

All randomness flows through one counter-based generator so runs with equal
seeds are bitwise reproducible.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .graded import ProductBatch, SequenceBatch, SequenceSpace, \
    rows_per_slice

GENERATOR_NAME = "philox4x32"

DEFAULT_ALPHAS = (0.5, 1.0, 2.0)


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def spawn_seeds(seed: int, count: int) -> List[int]:
    """Independent child seeds derived from one root seed."""
    children = np.random.SeedSequence(int(seed)).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def monomial_degrees(truncation_degree: int) -> List[int]:
    """A short ladder of degrees covering both halves of the truncation."""
    K = truncation_degree
    ladder = {0, 1, 2, 3, K // 4, K // 2, K // 2 + 1, (3 * K) // 4, K - 1, K}
    return sorted(d for d in ladder if 0 <= d <= K)


def _uniform(low: float, high: float, u: np.ndarray, out=None) -> np.ndarray:
    """low + (high - low) * u, the exact arithmetic of Generator.uniform."""
    out = np.multiply(u, high - low, out=out)
    out += low
    return out


def _fill_decay_probes(space: SequenceSpace, out: np.ndarray,
                       rng: np.random.Generator, region_radius: float):
    """Random sequences with |f_k| ~ e^{-alpha k}, written into out.

    Decay probe i has support degree supports[i % 3] and rate
    DEFAULT_ALPHAS[(i // 3) % len(DEFAULT_ALPHAS)], and is rescaled so its
    level-0 seminorm is region_radius * t.  Per probe the stream yields
    t ~ U(0.2, 1), then the (support+1, d) coefficients ~ U(-1, 1), real
    parts before imaginary parts; the batch draws exactly that stream,
    chunk by chunk, so it holds the same bytes as drawing one probe at a
    time.  A chunk is rows_per_slice(period) triples of probes, period the
    uniforms of one triple, drawn into one buffer of at most BLOCK_ENTRIES
    floats (one triple's when a triple needs more) that every chunk reuses.
    The buffer is shaped in place: U(-1, 1) over all of it, then one
    multiply by the factor row of each triple's rate.  Each support's rows
    then take one copy of their columns, and the chunk is rescaled while it
    is in cache.  Every row's profile, anchor and rescale depend on that
    row alone, so the chunks do not change the bytes.
    """
    K = space.truncation_degree
    fiber = space.fiber
    d = fiber.dimension
    parts = 2 if fiber.scalar_field == "complex" else 1
    supports = (K, K // 2, max(K // 4, 0))
    alphas = DEFAULT_ALPHAS
    # uniforms per probe and their offsets inside one triple of probes
    widths = [1 + parts * (s + 1) * d for s in supports]
    offsets = np.cumsum([0] + widths)
    period = int(offsets[-1])
    # factors[a] scales a triple of rate alphas[a]: e^{-alpha k} on each
    # part of coefficient k of every support, 1.0 on the t columns
    factors = np.ones((len(alphas), period))
    for j, s in enumerate(supports):
        for a, alpha in enumerate(alphas):
            profile = np.repeat(np.exp(-alpha * np.arange(s + 1.0)), d)
            factors[a, offsets[j] + 1:offsets[j + 1]] = np.tile(profile, parts)
    # the top coefficient anchors the support degree; a row whose top
    # coefficient is nearly zero gets this one, (alpha index, d) per support
    anchors = {s: np.array([fiber.unit(0) * np.exp(-alpha * s)
                            for alpha in alphas])
               for s in supports}
    chunk_size = 3 * rows_per_slice(period)
    # zeros, so the undrawn tail of a last partial triple is a number
    buffer = np.zeros((-(-min(chunk_size, len(out)) // 3), period))
    # row i of cycle is factors[i % 3]; a chunk whose first triple is
    # first_triple reads it from row first_triple % 3
    cycle = factors[np.arange(len(buffer) + len(alphas) - 1) % len(alphas)]
    for first in range(0, len(out), chunk_size):
        chunk = out[first:first + chunk_size]
        n = len(chunk)
        first_triple = first // 3
        draws = (n // 3) * period + int(offsets[n % 3])
        rng.random(draws, out=buffer.reshape(-1)[:draws])
        # row i of u is triple first_triple + i, one probe per support
        u = buffer[:-(-n // 3)]
        t = _uniform(0.2, 1.0, u[:, offsets[:-1]]).reshape(-1)[:n]
        _uniform(-1.0, 1.0, u, out=u)
        u *= cycle[first_triple % len(alphas):][:len(u)]
        for j, s in enumerate(supports):
            rows = chunk[j::3]
            coefficients = u[:len(rows), offsets[j] + 1:offsets[j + 1]] \
                .reshape(len(rows), parts, s + 1, d)
            if parts == 2:
                rows.real[:, :s + 1] = coefficients[:, 0]
                rows.imag[:, :s + 1] = coefficients[:, 1]
            else:
                rows[:, :s + 1] = coefficients[:, 0]
            # row i of rows is in triple first_triple + i
            low = np.flatnonzero(np.all(np.abs(rows[:, s]) < 1e-3, axis=1))
            rows[low, s] = anchors[s][(low + first_triple) % len(alphas)]
        target = region_radius * t
        base = space.seminorm(SequenceBatch(fiber, chunk), 0)
        # a row that is not rescaled is multiplied by 1.0, which keeps it
        chunk *= np.divide(target, base, out=np.ones(n),
                           where=(base > 0.0) & (target > 0.0))[:, None, None]


def make_probes(space: SequenceSpace, count: int, seed: int, *,
                region_radius: float = 1.0,
                center: Optional[SequenceBatch] = None) -> SequenceBatch:
    """Exactly `count` probes: a monomial ladder followed by decay profiles.

    With a center, a one-row batch, every probe is center + delta with
    |delta|_0 <= radius, suitable for probing a map on a metric ball;
    without one the monomials keep unit scale so certification ratios hit
    exact weight quotients.
    The probes come as one (count, K+1, d) SequenceBatch.
    """
    if count < 1:
        raise ValueError("probe count must be >= 1")
    if center is not None:
        space.check_member(center)
    fiber = space.fiber
    block = np.zeros((count, space.truncation_degree + 1, fiber.dimension),
                     dtype=fiber.dtype)
    scale = 1.0 if center is None else 0.5 * region_radius
    degrees = monomial_degrees(space.truncation_degree)[:count]
    for j, deg in enumerate(degrees):
        block[j, deg] = scale * fiber.unit(j % fiber.dimension)
    _fill_decay_probes(space, block[len(degrees):], rng_from_seed(seed),
                       region_radius)
    if center is not None:
        block += center.coefficients
    return SequenceBatch(fiber, block)


def make_product_probes(factors, count: int, seed: int, *,
                        region_radius: float = 1.0) -> ProductBatch:
    """Probes for a product space, one child seed per factor."""
    seeds = spawn_seeds(seed, len(factors))
    return ProductBatch(make_probes(space, count, s,
                                    region_radius=region_radius)
                        for space, s in zip(factors, seeds))
