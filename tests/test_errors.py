import pickle

from concordant import errors

# constructor arguments of the errors that carry fields; the others take a
# message
_FIELDS = {
    errors.FactorizationIncomplete: (10**40 + 1, [(3, 2)], 10**40 + 1),
    errors.StageMismatch: ("kernel", (1, 2, 3), (1, 2, 4)),
}


def test_every_error_survives_a_pickle_round_trip():
    # errors cross process boundaries when a pool worker raises them
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.ConcordantError)
    ]
    assert len(classes) > len(_FIELDS)
    for cls in classes:
        exc = cls(*_FIELDS.get(cls, ("a message",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)
