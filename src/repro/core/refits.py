"""The process-wide refit counter.

Every change to a fitted model bumps it: a chain's ``fit``/``update``,
a classifier's or discretizer's fit or restore, and a model object or
the trained flag set on an ``AnomalyPredictor``.  ``FleetScorer.sync``
keeps the count it last checked against, so a tick with no refit costs
one integer compare.
"""

_count = 0


def bump() -> None:
    global _count
    _count += 1


def count() -> int:
    return _count
