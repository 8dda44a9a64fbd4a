"""Suite-wide pytest hooks."""


def pytest_collection_modifyitems(items):
    """Run the acceptance criteria after every other test.

    They train whole cells and two full command-line grids, which take most
    of the suite's wall time; run last, they no longer hold back the unit
    tests' results.  The sort is stable, so the order within each group is
    the collection order.
    """
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")
