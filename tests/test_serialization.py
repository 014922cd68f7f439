"""Round trips for the remaining wire formats."""

import pytest

from finvariant import (
    Automorphism,
    FiniteAction,
    FreeGroupCtx,
    InputError,
)

from paper_objects import action_to_json, bijection, bijection_from_json, bijection_to_json

CTX = FreeGroupCtx(2)


class TestActionJson:
    def test_round_trip(self):
        action = FiniteAction(4, ((1, 2, 3, 0), (0, 2, 1, 3)))
        assert FiniteAction.from_json(action_to_json(action)) == action

    def test_rejects_non_permutation(self):
        with pytest.raises(InputError):
            FiniteAction.from_json({"n": 3, "rank": 1, "perms": [[0, 0, 1]]})


class TestLocalBijectionJson:
    def test_round_trip(self):
        auto = Automorphism.from_names(CTX, {"a": "ab", "b": "b"})
        phi = bijection(auto, 3)
        back = bijection_from_json(CTX, bijection_to_json(CTX, phi))
        assert back.table == phi.table
        assert back.window == 3 and back.rho == 2

    def test_rejects_non_injective(self):
        table = {"": "", "a": "a", "A": "a", "b": "b", "B": "B"}
        with pytest.raises(InputError):
            bijection_from_json(CTX, {"window": 1, "rho": 1, "map": table})

    def test_rejects_moved_identity(self):
        table = {"": "a", "a": "", "A": "A", "b": "b", "B": "B"}
        with pytest.raises(InputError):
            bijection_from_json(CTX, {"window": 1, "rho": 1, "map": table})
