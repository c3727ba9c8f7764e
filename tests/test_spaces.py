import math
from dataclasses import FrozenInstanceError

import pytest

from anncap.errors import InputError
from anncap.spaces import (
    AnnulusSpec,
    BowTie,
    HalfLine,
    RadialRn,
    Snake,
    SpaceSpec,
    TraitSet,
    surface_area,
)
from anncap.weights import PowerAlpha


def test_surface_area_values():
    assert surface_area(1) == pytest.approx(2.0)
    assert surface_area(2) == pytest.approx(2.0 * math.pi)
    assert surface_area(3) == pytest.approx(4.0 * math.pi)


def test_geometry_validation():
    with pytest.raises(InputError):
        RadialRn(0)
    with pytest.raises(InputError):
        Snake(k_max=0)
    with pytest.raises(InputError):
        BowTie(1, 0.5)
    with pytest.raises(InputError):
        BowTie(2, -2.0)
    with pytest.raises(InputError, match="overflows"):
        BowTie(400, 0.5)  # the sphere area of R^399 is past the float range


@pytest.mark.parametrize("n", [2.5, 2.0, math.nan, "3"])
@pytest.mark.parametrize("make", [RadialRn, lambda n: BowTie(n, 0.5)], ids=["rn", "bowtie"])
def test_dimension_must_be_an_integer(make, n):
    # a float dimension would give a sphere area of "R^2.5"; 2.0 is refused as well
    with pytest.raises(InputError, match="integer"):
        make(n)


def test_integer_dimensions_of_numpy_are_accepted():
    import numpy as np

    assert RadialRn(np.int64(3)).n == 3 and BowTie(np.int64(3), 0.5).n == 3


def test_bowtie_center_and_weight_forced():
    # the tip (-1, 0) is the center; the diameter is measured from it
    space = SpaceSpec(BowTie(2, 0.5))
    assert isinstance(space.weight, PowerAlpha)
    assert space.weight.alpha == 0.5
    assert space.diameter == pytest.approx(math.sqrt(10.0))


def test_origin_center_forced_elsewhere():
    assert math.isinf(SpaceSpec(RadialRn(2)).diameter)


def test_power_weight_integrability_guard():
    with pytest.raises(InputError):
        SpaceSpec(RadialRn(2), PowerAlpha(-2.5))
    SpaceSpec(RadialRn(3), PowerAlpha(-2.5))  # alpha > -n is fine
    # the half-line, as R^1: mu(B_R) = inf for alpha <= -1
    for alpha in (-1.0, -1.5):
        with pytest.raises(InputError, match=f"^PowerAlpha weight needs alpha > -n = -1, got {alpha}$"):
            SpaceSpec(HalfLine(), PowerAlpha(alpha))
    SpaceSpec(HalfLine(), PowerAlpha(-0.5))


def test_traitset_validation():
    with pytest.raises(InputError):
        TraitSet(pi_exponents={0.5})
    with pytest.raises(InputError):
        TraitSet(ad_eta=1.5)


def test_supports_pi_monotone():
    t = TraitSet(pi_exponents={2.0})
    assert t.supports_pi(2.0) and t.supports_pi(3.0)
    assert not t.supports_pi(1.5)
    # open infimum: strictly above only
    t2 = TraitSet(pi_open_infimum=1.5)
    assert t2.supports_pi(1.6)
    assert not t2.supports_pi(1.5)


def test_annulus_spec():
    ann = AnnulusSpec(1.0, 2.0)
    assert ann.delta == pytest.approx(1.0)
    assert ann.is_thin
    assert not AnnulusSpec(0.9, 2.0).is_thin
    with pytest.raises(InputError):
        AnnulusSpec(2.0, 1.0)
    with pytest.raises(InputError):
        AnnulusSpec(0.0, 1.0)


def test_snake_max_radius():
    assert Snake(k_max=5).max_radius == 32.0
    assert Snake(k_max=1023).max_radius == 2.0**1023  # the largest power of two a float holds


def test_halfline_is_frozen_dataclass():
    with pytest.raises(FrozenInstanceError):
        HalfLine().n = 1
