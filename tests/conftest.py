"""Fixtures shared by the test modules."""

import pytest

import wallcross.arrangement as arrangement_module


@pytest.fixture
def restrict_products(monkeypatch):
    """A one-element list counting the integer products of the flat walk:
    `arrangement._restrict` is wrapped to add two per entry of each row it
    restricts.  Reset it with restrict_products[0] = 0."""
    counted = [0]
    real = arrangement_module._restrict

    def counting(w, rows):
        counted[0] += 2 * len(w) * len(rows)
        return real(w, rows)

    monkeypatch.setattr(arrangement_module, "_restrict", counting)
    return counted
