"""The contract every immutable value record in ntdice keeps.

A record is built from its fields in order, positionally or by keyword;
compares and hashes by value, only with records of its own class; prints as
``Name(field=value, ...)``; refuses assignment and deletion; and survives
``copy`` and ``pickle``.
"""

import copy
import pickle

import pytest


def check_value_record(cls, names, values, text):
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert tuple(getattr(record, name) for name in names) == tuple(values)

    with pytest.raises(TypeError):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, unknown=1)

    twin = cls(*values)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert record != tuple(values)
    assert tuple(values) != record
    assert record != object()

    assert repr(record) == text

    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert record == twin

    for clone in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(clone) is cls
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == text
        with pytest.raises(AttributeError):
            setattr(clone, names[0], values[0])
