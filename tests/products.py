"""Direct products of the fixture algebras, for tests that need larger carriers, and
single-cell mutations of the fixtures, for tests that need broken tables."""

import copy
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


def single_cell_mutations(name, key):
    """Every copy of a fixture document with one cell of the table ``key`` changed."""
    base = FIXTURE_DOCS[name]
    for x, row in enumerate(base[key]):
        for y, cell in enumerate(row):
            for label in base["labels"]:
                if label != cell:
                    doc = copy.deepcopy(base)
                    doc[key][x][y] = label
                    yield doc
