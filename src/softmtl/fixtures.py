"""Built-in algebra fixtures.

``a1`` and ``a2`` are 4-element chains, ``a3`` is a 6-element algebra
whose order has one incomparable pair, ``b2`` is the 2-element Boolean
algebra.  Documents use the same shape accepted by
:func:`softmtl.algebra.load_algebra` for user files: labels (index 0 =
bottom, last = top unless overridden), prod/res tables of labels, and
optional meet/join tables that are cross-checked against the derived
order.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from .algebra import AlgebraError, FiniteMtlAlgebra, load_algebra

FIXTURE_DOCS: dict[str, dict] = {
    "a1": {
        "labels": ["0", "a", "b", "1"],
        "prod": [
            ["0", "0", "0", "0"],
            ["0", "a", "a", "a"],
            ["0", "a", "a", "b"],
            ["0", "a", "b", "1"],
        ],
        "res": [
            ["1", "1", "1", "1"],
            ["0", "1", "1", "1"],
            ["0", "b", "1", "1"],
            ["0", "a", "b", "1"],
        ],
        "meet": [
            ["0", "0", "0", "0"],
            ["0", "a", "a", "a"],
            ["0", "a", "b", "b"],
            ["0", "a", "b", "1"],
        ],
        "join": [
            ["0", "a", "b", "1"],
            ["a", "a", "b", "1"],
            ["b", "b", "b", "1"],
            ["1", "1", "1", "1"],
        ],
    },
    "a2": {
        "labels": ["0", "a", "b", "1"],
        "prod": [
            ["0", "0", "0", "0"],
            ["0", "0", "0", "a"],
            ["0", "0", "a", "b"],
            ["0", "a", "b", "1"],
        ],
        "res": [
            ["1", "1", "1", "1"],
            ["b", "1", "1", "1"],
            ["a", "b", "1", "1"],
            ["0", "a", "b", "1"],
        ],
        "meet": [
            ["0", "0", "0", "0"],
            ["0", "a", "a", "a"],
            ["0", "a", "b", "b"],
            ["0", "a", "b", "1"],
        ],
        "join": [
            ["0", "a", "b", "1"],
            ["a", "a", "b", "1"],
            ["b", "b", "b", "1"],
            ["1", "1", "1", "1"],
        ],
    },
    # Printed over {0,a,b,c,d,1}; the accompanying prose says L=[0,1],
    # which is an apparent typo -- we take the 6-element carrier.
    "a3": {
        "labels": ["0", "a", "b", "c", "d", "1"],
        "prod": [
            ["0", "0", "0", "0", "0", "0"],
            ["0", "a", "c", "c", "0", "a"],
            ["0", "c", "b", "c", "d", "b"],
            ["0", "c", "c", "c", "0", "c"],
            ["0", "0", "d", "0", "0", "d"],
            ["0", "a", "b", "c", "d", "1"],
        ],
        "res": [
            ["1", "1", "1", "1", "1", "1"],
            ["d", "1", "b", "b", "d", "1"],
            ["0", "a", "1", "a", "d", "1"],
            ["d", "1", "1", "1", "d", "1"],
            ["a", "1", "1", "1", "1", "1"],
            ["0", "a", "b", "c", "d", "1"],
        ],
    },
    "b2": {
        "labels": ["0", "1"],
        "prod": [["0", "0"], ["0", "1"]],
        "res": [["1", "1"], ["0", "1"]],
    },
}

FIXTURE_NAMES = tuple(FIXTURE_DOCS)


@lru_cache(maxsize=None)
def load_fixture(name: str) -> FiniteMtlAlgebra:
    if name not in FIXTURE_DOCS:
        raise KeyError(f"unknown fixture {name!r}; have {', '.join(FIXTURE_DOCS)}")
    return load_algebra(FIXTURE_DOCS[name])


def resolve_algebra(target: str) -> FiniteMtlAlgebra:
    """Fixture name or path to a JSON algebra document."""
    if target in FIXTURE_DOCS:
        return load_fixture(target)
    path = Path(target)
    if not path.is_file():
        raise FileNotFoundError(f"{target!r} is neither a fixture name nor a readable file")
    try:
        doc = json.loads(path.read_bytes())
    except RecursionError:
        raise AlgebraError(f"{target!r} nests too deeply to read as JSON") from None
    return load_algebra(doc)
