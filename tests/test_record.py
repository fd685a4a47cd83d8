"""The record classes: read-only specs, value equality, strict binding."""

import pytest

from nlhet import Grid, KernelSpec, ObstacleConfig, Profile


@pytest.mark.parametrize("spec, field", [
    (KernelSpec(s=0.5), "s"),
    (Grid(R=10.0, n=21), "n"),
    (ObstacleConfig(b1=-4.0, b2=4.0), "tau"),
])
def test_frozen_specs_are_read_only(spec, field):
    before = vars(spec).copy()
    with pytest.raises(AttributeError):
        setattr(spec, field, 1)
    with pytest.raises(AttributeError):
        delattr(spec, field)
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert vars(spec) == before


def test_value_equality_and_strict_binding():
    a, b = Grid(10.0, 21), Grid(n=21, R=10.0)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != Grid(10.0, 41) and a != (10.0, 21)
    assert repr(a) == "Grid(R=10.0, n=21)"
    assert ObstacleConfig(-4.0, 4.0) == ObstacleConfig(-4.0, 4.0, 0.05, None)
    with pytest.raises(TypeError):
        hash(Profile(a, [0.0] * 21, 0.0, 0.0))  # mutable records: no hash
    for call in (lambda: Grid(10.0),                # missing
                 lambda: Grid(10.0, 21, 3),         # too many
                 lambda: Grid(10.0, 21, h=1.0),     # unknown
                 lambda: Grid(10.0, R=10.0, n=21),  # repeated
                 lambda: ObstacleConfig(b2=4.0)):   # missing, with defaults
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ValueError):
        Grid(10.0, 20)  # __post_init__ still validates
