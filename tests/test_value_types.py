"""The value types that every sweep builds per sequence or per block.

``Witness`` and ``Sequence`` are frozen, slotted dataclasses, and
``BlockResult`` is a slotted one.  Pool workers return block results by
pickle at the default protocol.  Protocols 0 and 1 cannot pickle a slotted
class without its own ``__getstate__``, which the frozen ones get from
``dataclasses`` and ``BlockResult`` does not have, so those two are not
checked.
"""

import dataclasses
import pickle

import pytest

from zsindex import Sequence, Witness
from zsindex.harness import BlockResult


def witness():
    return Witness(m=24, achieved_sum=35, rule="INTERVAL", k=2, case=None, trail=("orbit:18",))


def sequence():
    return Sequence.over(35, (31, 2, 34, 3))


def block():
    return BlockResult(
        n1=2, sequences=5, orbit_reps=5, histogram={"SUM_N": 4}, high_index=[((2, 5, 6, 7), 2)]
    )


@pytest.mark.parametrize("make", [witness, sequence, block])
@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(make, protocol):
    value = make()
    assert pickle.loads(pickle.dumps(value, protocol)) == value


@pytest.mark.parametrize("make", [witness, sequence, block])
def test_slotted(make):
    assert not hasattr(make(), "__dict__")


@pytest.mark.parametrize("make, field", [(witness, "m"), (sequence, "terms")])
def test_frozen(make, field):
    value = make()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))
    with pytest.raises((AttributeError, TypeError)):  # no slot; which error varies by Python
        value.extra = 1


@pytest.mark.parametrize("make", [witness, sequence])
def test_equal_and_hashed_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_replace():
    w = dataclasses.replace(witness(), m=26, trail=())
    assert (w.m, w.rule, w.k, w.trail) == (26, "INTERVAL", 2, ())
    s = dataclasses.replace(sequence(), terms=(34, 1, 33, 2))
    assert s.terms == (1, 2, 33, 34) and s.n == 35  # sorted again on construction
    with pytest.raises(ValueError):
        dataclasses.replace(sequence(), terms=(36,))
