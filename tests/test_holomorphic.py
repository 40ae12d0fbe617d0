"""The `disk` grading: a truncated sequence f_0 .. f_K read as the entire
function f(z) = sum f_k z^k, graded by its sup on the circles |z| = e^n.

Cauchy's bound max_k |f_k| e^{nk} <= sup_{|z|=e^n} |f(z)| compares it with
the linf grading, and the triangle inequality bounds it by the l1 grading.

Frozen oracles:
  e            = 2.718281828459045    (series sum, remainder < 1/33! ~ 1e-37)
  e - 1        = 1.718281828459045
"""

import math
import warnings

import numpy as np
import pytest

from tamef.graded import (BanachFiber, SequenceBatch, SequenceSpace,
                          seminorm_l1, seminorm_linf, within_upper)
from tamef.probes import make_probes

R1 = BanachFiber(1)
E = 2.718281828459045


def seq(fiber, rows):
    """The one sequence with the given (K+1, d) coefficient rows."""
    return SequenceBatch(fiber, np.asarray(rows)[None])


def exp_series(K=32):
    block = np.array([1.0 / math.factorial(k) for k in range(K + 1)]).reshape(-1, 1)
    return seq(R1, block)


def disk(f, levels, n_max=8):
    """The disk seminorm of f's rows, in the space of f's fiber and length."""
    space = SequenceSpace(f.fiber, f.truncation_degree, n_max, "disk")
    return space.seminorm(f, levels)


# ---------------------------------------------------------------------------
# the boundary values the grid reads
# ---------------------------------------------------------------------------

def test_eval_constant_series():
    f = seq(BanachFiber(2), np.array([[3.0, -4.0]] + [[0.0, 0.0]] * 5))
    assert disk(f, 0)[0] == pytest.approx(5.0, rel=1e-15)
    assert disk(f, 3)[0] == pytest.approx(5.0, rel=1e-15)


def test_eval_truncated_exponential_at_one():
    # every term is positive at z = 1, a grid point, so the sup is the
    # partial sum of e there
    for K in (4, 8, 32):
        partial = math.fsum(1.0 / math.factorial(k) for k in range(K + 1))
        assert disk(exp_series(K), 0)[0] == pytest.approx(partial,
                                                          rel=1e-15)


def test_eval_identity_series():
    f = seq(R1, np.array([[0.0], [1.0], [0.0], [0.0]]))
    for n in range(4):
        assert disk(f, n)[0] == pytest.approx(math.exp(n), rel=1e-15)


def test_eval_overflow_guard():
    # the guard of _checked_levels: level * K past 256 raises
    space = SequenceSpace(R1, truncation_degree=32, n_max=8,
                          grading_kind="disk")
    space.seminorm(seq(R1, np.ones((33, 1))), 8)  # 32 * 8 = 256 still allowed
    with pytest.raises(ValueError, match="exceeds the overflow guard 256"):
        space.seminorm(seq(R1, np.ones((34, 1))), 8)  # 33 * 8 > 256


def test_eval_vectorized_matches_scalar():
    f = exp_series(8)
    block = f.coefficients
    batch = SequenceBatch(R1, np.concatenate(
        [block, -2.0 * block, np.zeros_like(block)]))
    table = disk(batch, [0, 2, 1])
    for i, row in enumerate(batch):
        assert table[:, i].tobytes() == disk(row, [0, 2, 1]).tobytes()
    assert table[:, 2].tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# boundary sup
# ---------------------------------------------------------------------------

def test_sup_norm_constant():
    f = seq(R1, np.array([[5.0], [0.0], [0.0]]))
    assert disk(f, 0)[0] == pytest.approx(5.0, rel=1e-14)


def test_sup_norm_exponential_unit_circle():
    # max of |e^z| on |z| = 1 sits at z = 1, a grid point for any S
    assert disk(exp_series(), 0)[0] == pytest.approx(E, abs=1e-12)


def test_sup_norm_identity_radius_e():
    f = seq(R1, np.array([[0.0], [1.0], [0.0]]))
    assert disk(f, 1)[0] == pytest.approx(math.e, rel=1e-13)


def test_sup_norm_monotone_in_level():
    space = SequenceSpace(R1, truncation_degree=24, n_max=6,
                          grading_kind="disk")
    table = space.seminorm(make_probes(space, 15, seed=4), range(7))
    assert np.all(table[:-1] <= table[1:] * (1 + 1e-12))


def test_disk_spec_guards():
    # a level is checked as every grading checks it
    space = SequenceSpace(R1, truncation_degree=8, n_max=4,
                          grading_kind="disk")
    f = space.basis(2)
    for bad in (-1, 5, [0, 5], [1, -1]):
        with pytest.raises(IndexError):
            space.seminorm(f, bad)
    assert space.seminorm(f, 2)[0] == pytest.approx(math.exp(4.0),
                                                    rel=1e-15)


# ---------------------------------------------------------------------------
# weighted-coefficient bound
# ---------------------------------------------------------------------------

def test_cauchy_bound_constant_equality():
    f = seq(R1, np.array([[2.5], [0.0]]))
    assert seminorm_linf(f, 0)[0] == 2.5
    assert abs(disk(f, 0)[0] - 2.5) <= 1e-12


def test_cauchy_bound_exponential_slack():
    f = exp_series()
    assert seminorm_linf(f, 0)[0] == 1.0
    assert disk(f, 0)[0] - 1.0 == pytest.approx(E - 1.0, abs=1e-12)
    assert disk(f, 0)[0] - 1.0 == pytest.approx(1.718281828459045, abs=1e-12)


def test_cauchy_bound_top_monomial_tight():
    K = 32
    f = seq(R1, np.eye(K + 1)[:, K:])
    sup = disk(f, 1)[0]
    assert seminorm_linf(f, 1)[0] == pytest.approx(math.exp(K), rel=1e-15)
    # |z^K| is constant e^K on the circle: the slack is pure roundoff
    assert abs(sup - seminorm_linf(f, 1)[0]) <= 1e-12 * math.exp(K)


def test_cauchy_bound_holds_for_probes_all_levels():
    space = SequenceSpace(R1, truncation_degree=32, n_max=6,
                          grading_kind="disk")
    probes = make_probes(space, 40, seed=77)
    sup = space.seminorm(probes, range(6))
    weighted = seminorm_linf(probes, range(6))
    assert np.all(within_upper(weighted, sup))
    assert np.all(sup - weighted >= -1e-9 * np.maximum(1.0, sup))
    assert np.all(within_upper(sup, seminorm_l1(probes, range(6))))


def test_weighted_sup_is_linf_seminorm():
    # a monomial's modulus is constant on the circle, so on the monomials
    # the sup is the weighted coefficient sup
    space = SequenceSpace(BanachFiber(2), truncation_degree=8, n_max=4,
                          grading_kind="disk")
    for k in range(9):
        f = space.basis(k, axis=1, scale=-3.0)
        assert space.seminorm(f, range(5)) == pytest.approx(
            seminorm_linf(f, range(5)), rel=1e-14, abs=0.0)


def test_non_finite_coefficients_give_non_finite_entries():
    block = np.zeros((4, 9, 2))
    block[:, 0, 0] = 1.0
    block[0, 3, 1] = math.nan
    block[1, 8, 0] = math.inf
    block[2, 2] = -math.inf
    batch = SequenceBatch(BanachFiber(2), block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = disk(batch, range(3), n_max=2)
    assert not np.isfinite(table[:, :3]).any()
    assert table[:, 3] == pytest.approx([1.0, 1.0, 1.0], rel=1e-15)
