"""Direct products of the fixture algebras, for tests that need larger carriers, the
finite chains L_n, G_n and NM_n, and single-cell mutations of the fixtures, for tests
that need broken tables.

``python tests/products.py a3 a1`` prints the product a3 x a1 as an algebra document.
"""

import copy
import itertools
import json
import sys

from softmtl.algebra import load_algebra
from softmtl.fixtures import FIXTURE_DOCS, load_fixture


# each chain's product on 0..t, t = n - 1 its top
CHAIN_PRODUCTS = {
    "L": lambda x, y, t: max(0, x + y - t),  # Lukasiewicz
    "G": lambda x, y, t: min(x, y),  # Goedel
    "NM": lambda x, y, t: min(x, y) if x + y > t else 0,  # nilpotent minimum
}
CHAINS = [f"{family}{n}" for family in CHAIN_PRODUCTS for n in range(2, 9)]


def chain_doc(name):
    """The chain "L5", "G5" or "NM5" on 0 < 1 < ... < n - 1, its residuum derived from
    the product and the order by its definition: x -> y is the greatest z with x . z <= y."""
    family, n = name.rstrip("0123456789"), int(name.lstrip("LGNM"))
    prod = [[CHAIN_PRODUCTS[family](x, y, n - 1) for y in range(n)] for x in range(n)]
    res = [[max(z for z in range(n) if prod[x][z] <= y) for y in range(n)] for x in range(n)]
    return {"labels": [str(x) for x in range(n)],
            "prod": [[str(z) for z in row] for row in prod],
            "res": [[str(z) for z in row] for row in res]}


def _doc(name):
    return FIXTURE_DOCS[name] if name in FIXTURE_DOCS else chain_doc(name)


def product_doc(*names):
    """The direct product of fixtures or chains, operations componentwise."""
    docs = [_doc(name) for name in names]
    tuples = list(itertools.product(*(range(len(doc["labels"])) for doc in docs)))
    name = lambda cells: "(" + ",".join(cells) + ")"

    def table(key):
        return [[name([doc[key][i][j] for doc, i, j in zip(docs, s, t)]) for t in tuples]
                for s in tuples]

    return {"labels": [name([doc["labels"][i] for doc, i in zip(docs, s)]) for s in tuples],
            "prod": table("prod"), "res": table("res")}


def load_named(name):
    """A fixture, a chain, or the product "axb" (or "axbxc" ...) of those."""
    if "x" in name:
        return load_algebra(product_doc(*name.split("x")))
    return load_fixture(name) if name in FIXTURE_DOCS else load_algebra(chain_doc(name))


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
