"""Seeded random curves: valid by construction, and refused arguments."""

from random import Random

import pytest

from curvekit.bootstrap import bootstrap
from curvekit.curves import validate
from curvekit.sampling import (
    random_discount_curve,
    random_nondecreasing_swap_curve,
    random_swap_curve,
)

SAMPLERS = [random_discount_curve, random_swap_curve, random_nondecreasing_swap_curve]

BAD_ARGUMENTS = [
    ((0,), "curve length must be at least 1"),
    ((-1,), "curve length must be at least 1"),
    ((5, -0.2, 0.1), "forward bounds must satisfy 0 < f_lo < f_hi"),
    ((5, 0.0, 0.1), "forward bounds must satisfy 0 < f_lo < f_hi"),
    ((5, 0.1, 0.05), "forward bounds must satisfy 0 < f_lo < f_hi"),
    ((5, 0.05, 0.05), "forward bounds must satisfy 0 < f_lo < f_hi"),
    ((5, float("nan"), 0.1), "forward bounds must satisfy 0 < f_lo < f_hi"),
]


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("args, message", BAD_ARGUMENTS)
def test_arguments_that_break_validity_are_refused(sampler, args, message):
    # random_nondecreasing_swap_curve used to accept them: with f_lo = -0.2 its
    # curve bootstrapped to factors that fail validation.
    with pytest.raises(ValueError) as exc:
        sampler(Random(1), *args)
    assert str(exc.value) == message


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("n, f_lo, f_hi", [(1, 0.001, 0.12), (30, 0.03, 0.06), (200, 0.001, 0.05)])
def test_curves_are_valid_and_draw_n_uniforms(sampler, n, f_lo, f_hi):
    rng, twin = Random(n), Random(n)
    curve = sampler(rng, n, f_lo, f_hi)
    assert validate(curve if hasattr(curve, "factors") else bootstrap(curve)).ok
    for _ in range(n):
        twin.uniform(f_lo, f_hi)
    assert rng.getstate() == twin.getstate()
