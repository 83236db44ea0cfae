import sys

import pytest

from planarbox import expressions


@pytest.fixture
def disc_makes(monkeypatch):
    """The tree nodes whose discs are made while a test runs, in order.

    A node's ``discs`` property is the only tree code that calls the glue
    and renumber rules to make discs (``realize`` also moves its leaf
    origins through the renumber rule, which is not noted), so each call it
    makes notes the node.  The list holds the nodes, so no two live entries
    share an ``id``."""
    made = []
    for name in ("glued_discs", "renumbered_discs"):
        rule = getattr(expressions, name)

        def noted(*args, rule=rule):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "discs":
                made.append(caller.f_locals["self"])
            return rule(*args)

        monkeypatch.setattr(expressions, name, noted)
    return made
