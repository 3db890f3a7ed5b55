"""`dp6._record` against the standard `@dataclass` on the same declarations."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

from dp6 import _record
from dp6._ratfunc import MPQ


def _repr_note(self):
    return f"<note {self.text}>"


def _eq_text(self, other):
    return isinstance(other, type(self)) and self.text == other.text


def _hash_first(self):
    return hash(self.x) + 1


def _post_init_total(self):
    self.total = self.a + len(self.items)


def _samples(field):
    """name -> (frozen, class namespace) of each sample class, with `field`
    from the implementation under test."""
    return {
        "Pair": (True, {"__annotations__": {"x": "int", "y": "object"},
                        "y": None}),
        "Single": (True, {"__annotations__": {"v": "object"}}),
        "Fact": (True, {"__annotations__": {"key": "tuple", "witness": "object"},
                        "witness": field(default=None, compare=False,
                                         repr=False)}),
        "Note": (True, {"__annotations__": {"text": "str", "n": "int"},
                        "n": 0, "__repr__": _repr_note, "__eq__": _eq_text}),
        "Hashed": (True, {"__annotations__": {"x": "int"},
                          "__hash__": _hash_first}),
        "Bag": (False, {"__annotations__": {
            "a": "int", "items": "list", "label": "str", "total": "int",
            "seen": "dict"},
            "items": field(default_factory=list),
            "label": field(default="", compare=False),
            "total": field(init=False, repr=False),
            "seen": field(default_factory=dict, init=False, compare=False,
                          repr=False),
            "__post_init__": _post_init_total}),
        "Cell": (False, {"__annotations__": {"v": "object"}, "v": 0}),
    }


def _declare(kind):
    if kind == "dataclass":
        return {name: dataclasses.dataclass(frozen=frozen)(type(name, (), dict(ns)))
                for name, (frozen, ns) in _samples(dataclasses.field).items()}
    return {name: type(name, (_record.Record,), dict(ns), frozen=frozen)
            for name, (frozen, ns) in _samples(_record.field).items()}


DC, REC = _declare("dataclass"), _declare("record")

#: (class name, positional args, keyword args)
_INSTANCES = [
    ("Pair", (1,), {}), ("Pair", (1, "a"), {}), ("Pair", (), {"x": 1, "y": "a"}),
    ("Pair", (2,), {"y": (1, 2)}), ("Single", (1,), {}), ("Single", ("a",), {}),
    ("Single", (), {"v": (1,)}), ("Fact", ((1, 2),), {}),
    ("Fact", ((1, 2),), {"witness": "proof"}), ("Fact", ((1, 3), "other"), {}),
    ("Note", ("a",), {}), ("Note", ("a", 5), {}), ("Note", ("b",), {}),
    ("Hashed", (3,), {}), ("Hashed", (4,), {}),
    ("Bag", (1,), {}), ("Bag", (1, [1, 2]), {}), ("Bag", (1, [1, 2], "x"), {}),
    ("Bag", (), {"a": 3, "label": "y"}), ("Cell", (), {}), ("Cell", ([1],), {}),
    ("Cell", (1,), {}),
]


def _both(name, args, kwargs):
    return (DC[name](*args, **kwargs), REC[name](*args, **kwargs))


def _outcome(fn):
    """The value of fn(), or the type name and message of what it raised."""
    try:
        return "value", fn()
    except Exception as e:  # noqa: BLE001 - the outcome is compared
        return type(e).__name__, str(e)


def test_equality_matches():
    pairs = [_both(*inst) for inst in _INSTANCES]
    for i, (dc_a, rec_a) in enumerate(pairs):
        for j, (dc_b, rec_b) in enumerate(pairs):
            assert (rec_a == rec_b) == (dc_a == dc_b), (_INSTANCES[i], _INSTANCES[j])
            assert (rec_a != rec_b) == (dc_a != dc_b), (_INSTANCES[i], _INSTANCES[j])
        # a record never equals the dataclass with the same fields
        assert rec_a != dc_a and dc_a != rec_a


def test_hash_matches():
    for inst in _INSTANCES:
        dc, rec = _both(*inst)
        assert _outcome(lambda: hash(rec)) == _outcome(lambda: hash(dc)), inst
    # the frozen one-field case hashes the 1-tuple, as the dataclass does
    assert hash(REC["Single"](7)) == hash((7,))
    with pytest.raises(TypeError, match="unhashable type: 'Bag'"):
        hash(REC["Bag"](1))


def test_repr_matches():
    for inst in _INSTANCES:
        dc, rec = _both(*inst)
        assert repr(rec) == repr(dc), inst
    assert repr(REC["Note"]("z")) == "<note z>"
    assert repr(REC["Bag"](1, [2])) == "Bag(a=1, items=[2], label='')"


@pytest.mark.parametrize("inst", _INSTANCES, ids=repr)
def test_replace_matches(inst):
    dc, rec = _both(*inst)
    name = inst[0]
    frozen = _samples(dataclasses.field)[name][0]
    first = dataclasses.fields(dc)[0].name
    new_dc = dataclasses.replace(dc, **{first: 9})
    new_rec = _record.replace(rec, **{first: 9})
    assert type(new_rec) is type(rec) and new_rec is not rec
    assert repr(new_rec) == repr(new_dc) and vars(new_rec) == vars(new_dc)
    assert vars(_record.replace(rec)) == vars(dataclasses.replace(dc))
    if name == "Bag":
        # __post_init__ runs again, and an init=False field is refused
        assert new_rec.total == 9 + len(rec.items)
        assert (_outcome(lambda: _record.replace(rec, total=1))
                == _outcome(lambda: dataclasses.replace(dc, total=1)))
    assert (_outcome(lambda: _record.replace(rec, nope=1))[0]
            == _outcome(lambda: dataclasses.replace(dc, nope=1))[0] == "TypeError")
    if frozen:
        assert vars(rec) == vars(dc)  # replace left the original alone


@pytest.mark.parametrize("inst", _INSTANCES, ids=repr)
def test_assignment_matches(inst):
    dc, rec = _both(*inst)
    for obj in (dc, rec):
        frozen = _samples(dataclasses.field)[inst[0]][0]
        field = next(iter(vars(obj)))
        if frozen:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(obj, field, 0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(obj, field)
            with pytest.raises(AttributeError):
                obj.extra = 1
        else:
            setattr(obj, field, 0)
            assert getattr(obj, field) == 0
    assert vars(rec) == vars(dc)


def test_factory_default_is_not_shared():
    for classes in (DC, REC):
        a, b = classes["Bag"](1), classes["Bag"](2)
        assert a.items == [] and a.items is not b.items
        assert a.seen == {} and a.seen is not b.seen
        a.items.append(1)
        a.seen[1] = 1
        assert b.items == [] and classes["Bag"](3).items == []
        assert b.seen == {}


def test_init_errors_match():
    calls = [("Pair", (), {}), ("Pair", (1, 2, 3), {}), ("Pair", (1,), {"x": 2}),
             ("Pair", (1,), {"z": 2}), ("Bag", (1,), {"total": 2}),
             ("Single", (), {"v": 1, "w": 2})]
    for name, args, kwargs in calls:
        dc = _outcome(lambda: DC[name](*args, **kwargs))
        rec = _outcome(lambda: REC[name](*args, **kwargs))
        assert dc[0] == rec[0] == "TypeError", (name, args, kwargs)


def test_defaults_are_class_attributes():
    for name in DC:
        for attr in ("x", "y", "n", "items", "label", "total", "seen", "witness",
                     "v"):
            assert (hasattr(REC[name], attr) == hasattr(DC[name], attr)), (name, attr)
            if hasattr(DC[name], attr):
                assert getattr(REC[name], attr) == getattr(DC[name], attr)


def test_memo_keeps_values_and_no_raise():
    """memo builds once per key; a build that raises stores nothing, so it
    is built, and raises, again on the next call."""
    table, calls = {}, []

    def build(value):
        calls.append(value)
        if value is None:
            raise ValueError("no value")
        return value

    assert _record.memo(table, "a", lambda: build(1)) == 1
    assert _record.memo(table, "a", lambda: build(2)) == 1
    assert _record.memo(table, "b", lambda: build(False)) is False
    assert _record.memo(table, "b", lambda: build(3)) is False
    for _ in range(2):
        with pytest.raises(ValueError, match="no value"):
            _record.memo(table, "c", lambda: build(None))
    assert table == {"a": 1, "b": False} and calls == [1, False, None, None]
    assert _record.memo(table, "c", lambda: build(4)) == 4


_KEY_ITEMS = (1, ("a", MPQ(1, 3)), frozenset({2, "b"}), None, ())


def test_key_is_the_tuple_with_its_hash_kept():
    t = _KEY_ITEMS
    k = _record.Key(t)
    assert hash(k) == hash(t) and hash(k) == hash(t)  # computed, then kept
    assert k == t and t == k and not (k != t)
    assert {k: 1}[t] == 1 and {t: 1}[k] == 1
    assert repr(k) == repr(t) and str(k) == str(t)
    for again in (copy.copy(k), copy.deepcopy(k), pickle.loads(pickle.dumps(k))):
        assert type(again) is _record.Key
        assert again == t and repr(again) == repr(t) and hash(again) == hash(t)


def test_pickled_key_hashes_anew():
    """A string hashes differently under another hash seed, so a kept hash
    must not travel: the unpickled key hashes as the plain tuple there."""
    k = _record.Key(("a", ("b", 1)))
    hash(k)
    code = ("import pickle, sys; k = pickle.loads(sys.stdin.buffer.read()); "
            "assert hash(k) == hash(tuple(k)), 'stale hash'")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for seed in ("12345", "54321"):
        env["PYTHONHASHSEED"] = seed
        subprocess.run([sys.executable, "-c", code], input=pickle.dumps(k),
                       env=env, check=True)
