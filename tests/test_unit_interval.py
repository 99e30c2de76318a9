from fractions import Fraction
from itertools import product

import unit_interval as ui

F = Fraction

SAMPLES = ui.sample_points(40, seed=5) + [F(0), F(1), F(1, 2), F(1, 3), F(2, 3)]


def test_product_unit_and_commutativity():
    for x, y in product(SAMPLES, repeat=2):
        assert ui.prod(x, F(1)) == x  # 1 is the unit
        assert ui.prod(x, y) == ui.prod(y, x)


def test_sampled_adjunction():
    for x, y, z in product(SAMPLES[:20], repeat=3):
        assert ui.adjunction_holds(x, y, z), (x, y, z)


def test_sampled_prelinearity():
    for x, y in product(SAMPLES, repeat=2):
        assert ui.prelinearity_holds(x, y)


def test_sampled_associativity():
    for x, y, z in product(SAMPLES[:20], repeat=3):
        assert ui.prod(ui.prod(x, y), z) == ui.prod(x, ui.prod(y, z))


def test_soft_fixture_values_by_region():
    assert ui.soft_value(F(3, 10)) == "carrier"
    assert ui.soft_value(F(1, 2)) == "carrier"
    assert ui.soft_value(F(7, 10)) == "top-only"   # inside the gap-filled region
    assert ui.soft_value(F(9, 10)) == "empty"


def test_soft_fixture_values_are_filters_pointwise():
    # each named value is product-closed and upward-closed on the samples
    for name in ("carrier", "top-only", "empty"):
        members = [x for x in SAMPLES if ui.value_contains(name, x)]
        for x in members:
            for y in members:
                assert ui.value_contains(name, ui.prod(x, y))
            for y in SAMPLES:
                if x <= y:
                    assert ui.value_contains(name, y)
