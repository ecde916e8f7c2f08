"""Exact polynomial arithmetic in the Lefschetz variable."""

from __future__ import annotations

import random

import pytest

from covermotive.motives import (
    ONE,
    ZERO,
    MotivePoly,
    class_m0n,
    format_poly,
    monomial,
    to_poincare,
)
from oracles import brute_force_m0n_count, eval_at

Q = MotivePoly((0, 1))


def test_of_trims_trailing_zeros():
    assert MotivePoly.of([1, 2, 0, 0]) == MotivePoly((1, 2))
    assert MotivePoly.of([0, 0]) == ZERO
    assert MotivePoly.of([]) == ZERO


def test_raw_constructor_rejects_trailing_zero():
    with pytest.raises(ValueError):
        MotivePoly((1, 0))


def test_constants():
    assert ZERO.is_zero
    assert ONE.is_one
    assert Q == MotivePoly.of([0, 1])
    # Polynomials compare and hash by value, and are not their coefficient tuples.
    assert hash(Q) == hash(MotivePoly.of([0, 1])) and len({Q, MotivePoly((0, 1))}) == 1
    assert Q != (0, 1) and (0, 1) != Q
    assert repr(Q) == "MotivePoly(coeffs=(0, 1))"


def test_add_sub_neg():
    a = MotivePoly.of([1, 2, 3])
    b = MotivePoly.of([4, 5])
    assert a + b == MotivePoly.of([5, 7, 3])
    assert a - a == ZERO
    assert -(a - b) == b - a
    assert a + ZERO == a


def test_mul_against_random_evaluation():
    rng = random.Random(7)
    for _ in range(100):
        a = MotivePoly.of(rng.randrange(-9, 10) for _ in range(rng.randrange(0, 5)))
        b = MotivePoly.of(rng.randrange(-9, 10) for _ in range(rng.randrange(0, 5)))
        x = rng.randrange(-20, 21)
        assert eval_at(a * b, x) == eval_at(a, x) * eval_at(b, x)
        assert eval_at(a + b, x) == eval_at(a, x) + eval_at(b, x)


def test_mul_unit_and_zero_fast_paths():
    a = MotivePoly.of([3, 0, 2])
    assert a * ONE == a
    assert ONE * a == a
    assert a * ZERO == ZERO
    assert ZERO * a == ZERO


def test_scale():
    a = MotivePoly.of([1, -2, 3])
    assert a.scale(6) == MotivePoly.of([6, -12, 18])
    assert a.scale(-1) == -a
    assert a.scale(0) == ZERO


def test_eval_at_matches_horner_free_sum():
    a = MotivePoly.of([2, -1, 0, 4])
    for x in (-3, 0, 1, 5):
        assert eval_at(a, x) == 2 - x + 4 * x**3


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q + ONE) == "q + 1"
    assert str(MotivePoly.of([8, 8])) == "8*q + 8"
    assert str(MotivePoly.of([-2, 1])) == "q - 2"
    assert str(MotivePoly.of([1, 16, 16, 1])) == "q^3 + 16*q^2 + 16*q + 1"
    assert format_poly((1, 0, 1), monomial("t")) == "t^2 + 1"


def test_class_m0n_small_values():
    assert class_m0n(3) == ONE
    assert class_m0n(4) == MotivePoly.of([-2, 1])
    assert class_m0n(5) == MotivePoly.of([6, -5, 1])
    assert class_m0n(6) == class_m0n(5) * MotivePoly.of([-4, 1])
    with pytest.raises(ValueError):
        class_m0n(2)


def test_class_m0n_matches_prime_field_point_counts():
    # The class evaluated at q = p counts n distinct points on the line over F_p.
    for n in (3, 4, 5, 6):
        for p in (5, 7, 11, 13):
            assert eval_at(class_m0n(n), p) == brute_force_m0n_count(n, p), (n, p)


def test_hodge_euler_specialisation():
    assert format_poly(MotivePoly.of([8, 8]).coeffs, monomial("u", "v")) == "8*u*v + 8"


def test_hodge_euler_format_orders_by_weight():
    uv = monomial("u", "v")
    assert format_poly(MotivePoly.of([1, -5, 1]).coeffs, uv) == "u^2*v^2 - 5*u*v + 1"
    assert format_poly(ZERO.coeffs, uv) == "0"


def test_poincare_reading():
    assert to_poincare(Q + ONE) == (1, 0, 1)
    assert to_poincare(MotivePoly.of([1, 5, 1])) == (1, 0, 5, 0, 1)
    assert to_poincare(ZERO) == ()
    assert to_poincare(MotivePoly.of([-2, 1])) is None
