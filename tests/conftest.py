import pytest

from chiral import freefield


@pytest.fixture
def empty_memo(monkeypatch):
    """Run the test on an empty product memo: empty tables of the same
    kind stand in for freefield's three tables, the product rows, the
    insertion rows and the contraction rows, and for the pair table and
    the coefficient and length bounds of the stored products, until the
    test ends.  A planted product then leaves no pair or bound behind.
    The fixture's value, called, empties them again."""

    def empty():
        for name in ("_prod_rows", "_insert_rows", "_contractions"):
            table = getattr(freefield, name)
            monkeypatch.setattr(freefield, name, freefield.Memo(table.fill))
        monkeypatch.setattr(freefield, "_pairs", {})
        monkeypatch.setattr(freefield, "_largest", [0, 0])

    empty()
    return empty
