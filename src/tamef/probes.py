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

from typing import List, Optional, Sequence

import numpy as np

from .graded import ProductBatch, SequenceBatch, SequenceSpace

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


#: decay probes are drawn in chunks of this many (alpha-cycle) triples; a
#: chunk's uniforms are one buffer, so memory stays bounded at any count
_CHUNK_TRIPLES = 128


def _uniform(low: float, high: float, u: np.ndarray, out=None) -> np.ndarray:
    """low + (high - low) * u, the exact arithmetic of Generator.uniform."""
    out = np.multiply(u, high - low, out=out)
    out += low
    return out


def _fill_decay_probes(space: SequenceSpace, out: np.ndarray,
                       rng: np.random.Generator, region_radius: float,
                       alphas: Sequence[float]):
    """Random sequences with |f_k| ~ e^{-alpha k}, written into out.

    Decay probe i has support degree supports[i % 3] and rate
    alphas[(i // 3) % len(alphas)], and is rescaled so its level-0 seminorm
    is region_radius * t.  Per probe the stream yields t ~ U(0.2, 1), then
    the (support+1, d) coefficients ~ U(-1, 1), real parts before imaginary
    parts; the batch draws exactly that stream, chunk by chunk, so it holds
    the same bytes as drawing one probe at a time.
    """
    K = space.truncation_degree
    fiber = space.fiber
    d = fiber.dimension
    complex_field = fiber.scalar_field == "complex"
    supports = (K, K // 2, max(K // 4, 0))
    # uniforms per probe and their offsets inside one triple of probes
    widths = [1 + (2 if complex_field else 1) * (s + 1) * d for s in supports]
    offsets = np.cumsum([0] + widths)
    period = int(offsets[-1])
    profiles = {(a, s): np.exp(-a * np.arange(s + 1.0))
                for a in alphas for s in supports}
    chunk_size = 3 * _CHUNK_TRIPLES
    for first in range(0, len(out), chunk_size):
        chunk = out[first:first + chunk_size]
        n = len(chunk)
        triples = -(-n // 3)
        draws = (n // 3) * period + int(offsets[n % 3])
        u = np.empty(triples * period)
        rng.random(draws, out=u[:draws])
        u = u.reshape(triples, period)
        first_triple = first // 3
        t = np.empty(n)
        for j, s in enumerate(supports):
            rows = chunk[j::3]
            cols = u[:len(rows), offsets[j]:offsets[j + 1]]
            _uniform(0.2, 1.0, cols[:, 0], out=t[j::3])
            size = (s + 1) * d
            raw = cols[:, 1:1 + size].reshape(len(rows), s + 1, d)
            if complex_field:
                _uniform(-1.0, 1.0, raw, out=rows.real[:, :s + 1])
                imag = cols[:, 1 + size:].reshape(len(rows), s + 1, d)
                _uniform(-1.0, 1.0, imag, out=rows.imag[:, :s + 1])
            else:
                _uniform(-1.0, 1.0, raw, out=rows[:, :s + 1])
            for a_index, alpha in enumerate(alphas):
                start = (a_index - first_triple) % len(alphas)
                group = rows[start::len(alphas)]
                group[:, :s + 1] *= profiles[alpha, s][:, None]
                # the top coefficient anchors the support degree, keep it
                # off zero
                low = np.all(np.abs(group[:, s]) < 1e-3, axis=1)
                group[low, s] = fiber.unit(0) * np.exp(-alpha * s)
        target = region_radius * t
        base = space.seminorm(SequenceBatch(fiber, chunk), 0)
        rescale = (base > 0.0) & (target > 0.0)
        factor = np.divide(target, base, out=np.ones(n), where=rescale)
        np.multiply(chunk, factor[:, None, None], out=chunk,
                    where=rescale[:, None, None])


def make_probes(space: SequenceSpace, count: int, seed: int, *,
                region_radius: float = 1.0,
                center: Optional[SequenceBatch] = None,
                include_monomials: bool = True,
                alphas: Sequence[float] = DEFAULT_ALPHAS) -> SequenceBatch:
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
    monomials = 0
    if include_monomials:
        scale = 1.0 if center is None else 0.5 * region_radius
        degrees = monomial_degrees(space.truncation_degree)[:count]
        for j, deg in enumerate(degrees):
            block[j, deg] = scale * fiber.unit(j % fiber.dimension)
        monomials = len(degrees)
    _fill_decay_probes(space, block[monomials:], rng_from_seed(seed),
                       region_radius, alphas)
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
