import itertools
import json
import re
from pathlib import Path

import pytest

from planarbox.groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    GroupAction,
    GroupError,
    SemidirectGroup,
    cyclic_group,
    group_from_permutations,
    inversion_action,
    load_action,
    load_group,
    orbit_count_burnside,
    orbit_of,
    orbit_representatives,
    trivial_action,
    trivial_group,
)

ACTIONS = Path(__file__).resolve().parent.parent / "actions"


def is_abelian(g):
    return all(g.op(a, b) == g.op(b, a) for a in g.elements() for b in g.elements())


def element_order(g, a):
    x, k = a, 1
    while x != 0:
        x = g.op(x, a)
        k += 1
    return k


class TestFiniteGroup:
    def test_cyclic_three(self):
        g = cyclic_group(3)
        assert g.order == 3
        assert g.op(1, 2) == 0
        assert g.inv(1) == 2
        assert is_abelian(g)
        assert element_order(g, 1) == 3

    def test_broken_associativity_rejected(self):
        table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(GroupError, match="associativity|inverse"):
            FiniteGroup(table)

    @pytest.mark.parametrize(
        "table,triple",
        [
            # the order-5 loop with identity and inverses that is no group
            ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
              [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]], (1, 1, 2)),
            # cyclic tables with two entries of one row swapped
            ([[(a + b + (a == 5) * ((b == 6) - (b == 7))) % 8 for b in range(8)]
              for a in range(8)], (1, 4, 6)),
            ([[(a + b + (a == 3) * ((b == 5) - (b == 6))) % 7 for b in range(7)]
              for a in range(7)], (1, 2, 5)),
        ],
    )
    def test_associativity_reports_the_least_failing_triple(self, table, triple):
        n = len(table)
        least = next(
            (a, b, c)
            for a, b, c in itertools.product(range(n), repeat=3)
            if table[table[a][b]][c] != table[a][table[b][c]]
        )
        assert least == triple
        with pytest.raises(GroupError, match=re.escape(f"associativity fails at {triple}")):
            FiniteGroup(table)

    def test_identity_must_sit_at_zero(self):
        table = [[1, 0], [0, 1]]
        with pytest.raises(GroupError, match="identity"):
            FiniteGroup(table)

    def test_ragged_table_rejected(self):
        with pytest.raises(GroupError):
            FiniteGroup([[0, 1], [1]])

    def test_symmetric_group_from_generators(self):
        g = group_from_permutations([[1, 0, 2], [1, 2, 0]], degree=3)
        assert g.order == 6
        assert not is_abelian(g)
        assert sorted(element_order(g, a) for a in g.elements()) == [1, 2, 2, 2, 3, 3]

    def test_generator_order_does_not_change_numbering(self):
        a = group_from_permutations([[1, 0, 2], [1, 2, 0]], degree=3)
        b = group_from_permutations([[1, 2, 0], [1, 0, 2]], degree=3)
        assert a.table == b.table

    def test_bad_permutation_rejected(self):
        with pytest.raises(GroupError, match="permutation"):
            group_from_permutations([[0, 0, 1]], degree=3)

    @pytest.mark.parametrize("degree", [0, -1])
    def test_non_positive_degree_rejected(self, degree):
        with pytest.raises(GroupError, match="degree must be positive"):
            group_from_permutations([], degree)

    def test_no_generators_give_the_trivial_group(self):
        assert group_from_permutations([], 5).table == ((0,),)

    def test_generator_of_the_wrong_length_rejected(self):
        with pytest.raises(GroupError, match="permutation"):
            group_from_permutations([[1, 0]], degree=3)

    def test_order_cap(self):
        with pytest.raises(GroupError, match="maximum"):
            FiniteGroup([[0]] * (MAX_GROUP_ORDER + 1))
        # S_5 has order 120; S_6 (720) stops at the cap while it is generated
        assert group_from_permutations([[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]], 5).order == 120
        with pytest.raises(GroupError, match="maximum"):
            group_from_permutations([[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]], 6)

    def test_semidirect_order_cap(self):
        n = MAX_GROUP_ORDER // 2 + 1
        spec = {
            "group": {"table": cyclic_group(n).table},
            "theta": {"table": cyclic_group(2).table},
            "action": {"1": [(-a) % n for a in range(n)]},
        }
        with pytest.raises(GroupError, match="semidirect product"):
            load_action(spec)

    def test_load_group_both_forms(self):
        assert load_group({"table": [[0, 1], [1, 0]]}) == cyclic_group(2)
        g = load_group({"permutations": [[1, 2, 0]], "degree": 3})
        assert g.order == 3
        with pytest.raises(GroupError):
            load_group({"degree": 3})


class TestGroupAction:
    def test_inversion_on_z3(self):
        act = inversion_action(3)
        assert act.apply(1, 1) == 2
        assert act.apply_tuple(1, (1, 2, 0)) == (2, 1, 0)

    def test_inversion_on_z2_is_not_faithful(self):
        g = cyclic_group(2)
        theta = cyclic_group(2)
        with pytest.raises(GroupError, match="faithful"):
            GroupAction(g, theta, [[0, 1], [0, 1]])

    def test_non_automorphism_rejected(self):
        g = cyclic_group(3)
        theta = cyclic_group(2)
        with pytest.raises(GroupError, match="automorphism"):
            GroupAction(g, theta, [[0, 1, 2], [1, 0, 2]])

    def test_homomorphism_property_enforced(self):
        g = cyclic_group(5)
        theta = cyclic_group(2)
        doubling = [(2 * a) % 5 for a in range(5)]
        with pytest.raises(GroupError, match="theta multiplication"):
            GroupAction(g, theta, [list(range(5)), doubling])

    def test_trivial_action_always_valid(self):
        act = trivial_action(cyclic_group(4))
        assert act.theta.order == 1
        assert act.apply(0, 3) == 3

    def test_load_action_roundtrip(self):
        spec = {
            "group": {"table": cyclic_group(3).table},
            "theta": {"table": cyclic_group(2).table},
            "action": {"1": [0, 2, 1]},
        }
        act = load_action(spec)
        assert act.maps == inversion_action(3).maps
        del spec["action"]["1"]
        with pytest.raises(GroupError, match="missing"):
            load_action(spec)

    @pytest.mark.parametrize("key", ["7", "x", "01", "-1", "2", " 1", 1])
    def test_stray_action_key_rejected(self, key):
        """Keys are ``str(t)`` for a theta index ``t`` and nothing else."""
        spec = {
            "group": {"table": cyclic_group(3).table},
            "theta": {"table": cyclic_group(2).table},
            "action": {"1": [0, 2, 1], key: [0, 1, 2]},
        }
        with pytest.raises(GroupError, match=re.escape(repr(key))):
            load_action(spec)

    @pytest.mark.parametrize("key", ["extra", "Group", "actions", "names"])
    def test_stray_top_level_key_rejected(self, key):
        """An action spec holds ``group``, ``theta`` and ``action`` only."""
        spec = {
            "group": {"table": cyclic_group(3).table},
            "theta": {"table": cyclic_group(2).table},
            "action": {"1": [0, 2, 1]},
            key: 5,
        }
        with pytest.raises(GroupError, match=re.escape(f"action spec key {key!r}")):
            load_action(spec)

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"table": [[0, 1], [1, 0]], "nmaes": ["e", "a"]}, "nmaes"),
            ({"table": [[0, 1], [1, 0]], "degree": 2}, "degree"),
            ({"table": [[0, 1], [1, 0]], "permutations": [[1, 0]]}, "permutations"),
            ({"permutations": [[1, 2, 0]], "degree": 3, "names": ["e", "a", "b"]}, "names"),
            ({"permutations": [[1, 2, 0]], "degree": 3, "table": None}, "permutations"),
            ({"permutations": [[1, 2, 0]], "degree": 3, "extra": 1}, "extra"),
        ],
        ids=[
            "table-nmaes", "table-degree", "table-permutations",
            "permutations-names", "permutations-table", "permutations-extra",
        ],
    )
    def test_stray_group_key_rejected(self, spec, key):
        """A group spec is ``{table, names}`` or ``{permutations, degree}``;
        a spec with both a table and permutations is refused, not read as a
        table.  The refusal names the key."""
        with pytest.raises(GroupError, match=re.escape(repr(key))):
            load_group(spec)
        action = {"group": spec, "theta": {"table": [[0]]}}
        with pytest.raises(GroupError, match=re.escape(repr(key))):
            load_action(action)

    def test_shipped_action_files_load(self):
        paths = sorted(ACTIONS.glob("*.json"))
        assert len(paths) == 5
        for path in paths:
            load_action(json.loads(path.read_text()))


class TestSemidirect:
    def test_z3_by_inversion_is_symmetric_group(self):
        h = SemidirectGroup(inversion_action(3))
        assert h.order == 6
        assert not is_abelian(h)
        assert any(element_order(h, a) == 3 for a in h.elements())
        e = h.index(0, 0)
        assert e == 0
        g, t = h.pair(h.op(h.index(1, 1), h.index(1, 0)))
        # (1, inv)(1, id) = (1 + inv(1), inv) = (0, inv)
        assert (g, t) == (0, 1)

    def test_trivial_theta_recovers_the_group(self):
        g = cyclic_group(4)
        h = SemidirectGroup(trivial_action(g))
        assert h.order == 4
        assert h.table == g.table

    def test_collapsing_action_cannot_be_built(self):
        g = cyclic_group(3)
        theta = cyclic_group(2)
        with pytest.raises(GroupError, match="faithful"):
            GroupAction(g, theta, [list(range(3)), list(range(3))])

    def test_z4_by_inversion_has_order_eight(self):
        h = SemidirectGroup(inversion_action(4))
        assert h.order == 8
        assert not is_abelian(h)

    def test_pair_names(self):
        h = SemidirectGroup(inversion_action(3))
        assert h.name(h.index(2, 1)) == "(2,1)"


class TestOrbits:
    def test_orbit_of_tuple(self):
        act = inversion_action(3)
        assert orbit_of(act, (1, 2)) == {(1, 2), (2, 1)}
        assert orbit_of(act, (0, 0)) == {(0, 0)}

    @pytest.mark.parametrize("length,count", [(1, 2), (2, 5), (3, 14), (4, 41)])
    def test_z3_orbit_counts(self, length, count):
        act = inversion_action(3)
        reps = orbit_representatives(act, length)
        assert len(reps) == count
        assert orbit_count_burnside(act, length) == count
        # reps are lex-least and pairwise in distinct orbits
        seen = set()
        for rep in reps:
            orb = orbit_of(act, rep)
            assert rep == min(orb)
            assert not (orb & seen)
            seen.update(orb)
        assert len(seen) == act.group.order**length

    @pytest.mark.parametrize("length,count", [(1, 3), (2, 10), (3, 36)])
    def test_z4_orbit_counts(self, length, count):
        act = inversion_action(4)
        assert len(orbit_representatives(act, length)) == count
        assert orbit_count_burnside(act, length) == count

    def test_trivial_action_orbits_are_singletons(self):
        act = trivial_action(cyclic_group(3))
        assert len(orbit_representatives(act, 2)) == 9
        assert orbit_count_burnside(act, 2) == 9


def test_trivial_group_is_single_element():
    g = trivial_group()
    assert g.order == 1
    assert g.op(0, 0) == 0


def test_all_small_cyclic_groups_validate():
    for n in range(1, 8):
        g = cyclic_group(n)
        for a, b in itertools.product(g.elements(), repeat=2):
            assert g.op(g.inv(a), g.op(a, b)) == b
