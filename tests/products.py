"""Direct products of the fixture algebras, for tests that need larger carriers, and
single-cell mutations of the fixtures, for tests that need broken tables.

``python tests/products.py a3 a1`` prints the product a3 x a1 as an algebra document.
"""

import copy
import itertools
import json
import sys

from softmtl.algebra import load_algebra
from softmtl.fixtures import FIXTURE_DOCS, load_fixture


def product_doc(*names):
    """The direct product of fixture algebras, operations componentwise."""
    docs = [FIXTURE_DOCS[name] for name in names]
    tuples = list(itertools.product(*(range(len(doc["labels"])) for doc in docs)))
    name = lambda cells: "(" + ",".join(cells) + ")"

    def table(key):
        return [[name([doc[key][i][j] for doc, i, j in zip(docs, s, t)]) for t in tuples]
                for s in tuples]

    return {"labels": [name([doc["labels"][i] for doc, i in zip(docs, s)]) for s in tuples],
            "prod": table("prod"), "res": table("res")}


def load_named(name):
    """A fixture, or the product "axb" (or "axbxc" ...) of fixtures."""
    if "x" in name:
        return load_algebra(product_doc(*name.split("x")))
    return load_fixture(name)


def single_cell_mutations(name, key, rows=None):
    """Every copy of a fixture document, or of a product "axb", with one cell of the
    table ``key`` changed, in every row or in the given rows."""
    base = product_doc(*name.split("x")) if "x" in name else FIXTURE_DOCS[name]
    for x, row in enumerate(base[key]):
        if rows is not None and x not in rows:
            continue
        for y, cell in enumerate(row):
            for label in base["labels"]:
                if label != cell:
                    doc = copy.deepcopy(base)
                    doc[key][x][y] = label
                    yield doc


if __name__ == "__main__":
    print(json.dumps(product_doc(*sys.argv[1:])))
