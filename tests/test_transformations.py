import pytest

from starbench.core import Transformation, compose


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
    t = Transformation.singular(4, 3, 0)
    assert t.apply(3) == 0
    assert t.apply(1) == 1
    assert t.image == (0, 1, 2, 0)


def test_constant():
    assert Transformation.constant(3, 2).image == (2, 2, 2)


@pytest.mark.parametrize("bad", [
    lambda: Transformation.cycle(0),
    lambda: Transformation.transposition(3, 0, 3),
    lambda: Transformation.singular(3, -1, 0),
    lambda: Transformation.singular(3, 0, 3),
    lambda: Transformation.constant(3, 5),
    lambda: Transformation.subcycle(4, 3, 1),
    lambda: Transformation((0, 3)),
])
def test_out_of_range_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def test_apply_checks_range():
    t = Transformation.cycle(4)
    assert t.apply(3) == 0
    with pytest.raises(ValueError):
        t.apply(4)


def test_compose_is_word_order():
    a = Transformation.cycle(3)
    assert compose(a, a).image == (2, 0, 1)  # a twice on 3 states
    b = Transformation.transposition(3, 0, 1)
    assert compose(b, b) == Transformation.identity(3)
    # s -> t2(t1(s)): cycle then transposition sends 0 to 0
    assert compose(a, b).apply(0) == 0


def test_identity_laws():
    e = Transformation.identity(4)
    for t in (Transformation.cycle(4), Transformation.singular(4, 3, 0),
              Transformation.constant(4, 2)):
        assert compose(e, t) == t
        assert compose(t, e) == t


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(Transformation.cycle(3), Transformation.cycle(4))


def test_validation_names_the_first_bad_index():
    with pytest.raises(ValueError, match=r"image\[1\] = 5 out of range \[0, 3\)"):
        Transformation((0, 5, 1))
    with pytest.raises(ValueError, match=r"image\[2\] = -1 out of range \[0, 4\)"):
        Transformation((0, 1, -1, 9))
