"""The output checks: repairs digest and repair F1."""

from types import SimpleNamespace

import pytest

from workloads import repair_f1, repairs_digest


def test_digest_ignores_order_and_sees_every_field():
    a = {(1, "City"): "Dothan", (0, "Zip"): "36301"}
    b = {(0, "Zip"): "36301", (1, "City"): "Dothan"}
    assert repairs_digest(a) == repairs_digest(b)
    assert repairs_digest(a) != repairs_digest({**a, (1, "City"): "Dothn"})
    assert repairs_digest(a) != repairs_digest({(1, "State"): "Dothan",
                                                (0, "Zip"): "36301"})


def test_f1_against_clean_values():
    clean = {(0, "A"): "x", (1, "A"): "y", (2, "A"): "z"}
    generated = SimpleNamespace(
        clean=SimpleNamespace(value=lambda tid, attr: clean[(tid, attr)]),
        error_cells={(0, "A"), (1, "A"), (2, "A"), (3, "A")},
    )
    # Two correct repairs, one wrong: P = 2/3, R = 2/4.
    repairs = {(0, "A"): "x", (1, "A"): "y", (2, "A"): "q"}
    assert repair_f1(repairs, generated) == pytest.approx(
        2 * (2 / 3) * 0.5 / (2 / 3 + 0.5))
    assert repair_f1({}, generated) == 0.0
