import pytest

from pooltest.util import (
    LN2,
    ceil_tol,
    floor_tol,
    mix_seed,
    round_half_up,
    splitmix64,
)


def test_round_half_up():
    assert round_half_up(2.0) == 2
    assert round_half_up(2.4) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(2.6) == 3
    assert round_half_up(0.5) == 1


def test_floor_tol_snaps_near_integers():
    # 0.57 * 100 is 56.99999999999999 in floats; a raw floor loses one
    assert 0.57 * 100 < 57
    assert floor_tol(0.57 * 100) == 57
    assert floor_tol(70.5) == 70
    # 1.1 * 200 sits one ulp above 220; a raw ceil overshoots
    assert 1.1 * 200 > 220
    assert ceil_tol(1.1 * 200) == 220
    assert ceil_tol(87.5) == 88
    assert floor_tol(-0.5) == -1  # no snapping away from true halves


def test_ceil_tol_plain_values():
    assert ceil_tol(3.0) == 3
    assert ceil_tol(3.0000001) == 4
    assert ceil_tol(3.0 + 1e-12) == 3


def test_splitmix64_is_stable():
    # fixed points of the published mixing function
    assert splitmix64(0) == 16294208416658607535
    assert splitmix64(1) != splitmix64(0)
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_mix_seed_depends_on_every_part_and_order():
    assert mix_seed(1, 2, 3) != mix_seed(1, 2, 4)
    assert mix_seed(1, 2, 3) != mix_seed(3, 2, 1)
    assert mix_seed(7) == mix_seed(7)
    assert 0 <= mix_seed(123, 456) < 2**64


def test_ln2_constant():
    assert LN2 == pytest.approx(0.6931471805599453, abs=0)
