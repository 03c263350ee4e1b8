import pytest

from starbench.core import Transformation


def test_cycle_wraps():
    assert Transformation.cycle(4).image == (1, 2, 3, 0)


def test_identity():
    assert Transformation.identity(5).image == (0, 1, 2, 3, 4)


def test_subcycle_fixes_outside_range():
    # cycles 1 -> 2 -> 3 -> 1, fixes 0
    assert Transformation.subcycle(4, 1, 3).image == (0, 2, 3, 1)


def test_subcycle_single_state_is_identity():
    assert Transformation.subcycle(4, 2, 2) == Transformation.identity(4)


def test_transposition():
    t = Transformation.transposition(4, 0, 1)
    assert t.image == (1, 0, 2, 3)
    with pytest.raises(ValueError):
        Transformation.transposition(4, 2, 2)


def test_singular_moves_only_source():
    assert Transformation.singular(4, 3, 0).image == (0, 1, 2, 0)


@pytest.mark.parametrize("bad", [
    lambda: Transformation.cycle(0),
    lambda: Transformation.transposition(3, 0, 3),
    lambda: Transformation.singular(3, -1, 0),
    lambda: Transformation.singular(3, 0, 3),
    lambda: Transformation.subcycle(4, 0, 4),
    lambda: Transformation.subcycle(4, 3, 1),
    lambda: Transformation((0, 3)),
])
def test_out_of_range_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def test_validation_names_the_first_bad_index():
    with pytest.raises(ValueError, match=r"image\[1\] = 5 out of range \[0, 3\)"):
        Transformation((0, 5, 1))
    with pytest.raises(ValueError, match=r"image\[2\] = -1 out of range \[0, 4\)"):
        Transformation((0, 1, -1, 9))
