"""Direct products of the fixture algebras, for tests that need larger carriers."""

import itertools

from softmtl.algebra import load_algebra
from softmtl.fixtures import FIXTURE_DOCS, load_fixture


def product_doc(left, right):
    """The direct product of two fixture algebras, operations componentwise."""
    dl, dr = FIXTURE_DOCS[left], FIXTURE_DOCS[right]
    pairs = list(itertools.product(range(len(dl["labels"])), range(len(dr["labels"]))))
    name = lambda x, y: f"({x},{y})"

    def table(key):
        return [[name(dl[key][i][k], dr[key][j][l]) for k, l in pairs] for i, j in pairs]

    return {"labels": [name(dl["labels"][i], dr["labels"][j]) for i, j in pairs],
            "prod": table("prod"), "res": table("res")}


def load_named(name):
    """A fixture, or the product "axb" of two fixtures."""
    if "x" in name:
        return load_algebra(product_doc(*name.split("x")))
    return load_fixture(name)
