"""Field-by-field reads of curvekit's value records, which keep no instance dict."""


def slot_dict(record) -> dict:
    """Every slot of ``record`` and its value, in declaration order.

    This is what ``vars()`` returned before the records had ``__slots__``:
    the fields in ``__init__`` order plus derived slots such as
    ``DiscountCurve.annuities``.
    """
    return {
        name: getattr(record, name)
        for cls in reversed(type(record).__mro__)
        for name in cls.__dict__.get("__slots__", ())
    }
