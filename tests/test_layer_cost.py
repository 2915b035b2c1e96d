"""The layer-cost script keeps running: the first row of each section."""

import math

import pytest

import layer_cost


@pytest.mark.parametrize("section", layer_cost.SECTIONS,
                         ids=lambda section: section.__name__)
def test_first_row(section, monkeypatch):
    # one repeat and a few scalar calls keep each row cheap; a count or a
    # share may be 0 (no J point outside the fiber, no exponent form), a
    # time or an argument may not
    monkeypatch.setattr(layer_cost, "REPEATS", 1)
    monkeypatch.setattr(layer_cost, "SCALAR_CALLS", 10)
    rows = section()
    row = next(rows)
    rows.close()
    assert row
    for key, value in row.items():
        if isinstance(value, str):
            assert value, key
        elif isinstance(value, int) or key.endswith("share"):
            assert 0 <= value < math.inf, key
        else:
            assert 0.0 < value < math.inf, key
