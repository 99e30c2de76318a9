"""Byte-row kernels: the laws over triples of a finite algebra, decided in C.

A carrier of at most 256 elements indexes its elements with bytes, so a
row of an operation table is a bytes object and, padded to 256 bytes, a
translation table: ``row.translate(table)`` applies the table's
operation to every entry of the row in one C call.  Each kernel lays
both sides of a law out as one bytes object over every (x, y, z),
joined from such rows, and compares the two sides in C.  An inequality
a <= b is compared one block of 8 elements at a time: b becomes a
one-hot byte, a the byte of the elements of the block that are not
above it, and the two, read as integers, meet nowhere iff a <= b
everywhere.  A kernel only answers whether its law fails somewhere;
:mod:`softmtl.algebra` then runs its literal loops to name the
violations.  The rows are built for each call and not kept.
"""

from __future__ import annotations


def _rows(table) -> tuple[list[bytes], list[bytes]]:
    """The rows of a table as bytes, and each row padded to a translation table."""
    rows = [bytes(row) for row in table]
    pad = bytes(256 - len(rows))
    return rows, [row + pad for row in rows]


def _associativity_fails(alg) -> bool:
    """(x . y) . z = x . (y . z)"""
    prod, tprod = _rows(alg.prod)
    flat = b"".join(prod)
    return b"".join(map(prod.__getitem__, flat)) != b"".join(map(flat.translate, tprod))


def _adjunction_fails(alg) -> bool:
    """x . y <= z iff x <= y -> z"""
    leq, tleq = _rows(alg.leq)
    return (b"".join(map(leq.__getitem__, b"".join(map(bytes, alg.prod))))
            != b"".join(map(b"".join(map(bytes, alg.res)).translate, tleq)))


def _exchange_fails(alg) -> bool:
    """x -> (y -> z) = x . y -> z = y -> (x -> z)"""
    res, tres = _rows(alg.res)
    x_yz = b"".join(map(b"".join(res).translate, tres))
    each = [row for row in res for _ in res]  # res[x] at (x, y)
    return (x_yz != b"".join(map(res.__getitem__, b"".join(map(bytes, alg.prod))))
            or x_yz != b"".join(map(bytes.translate, each, tres * len(res))))


def _join_distribution_fails(alg) -> bool:
    """x -> (y v z) = (x -> y) v (x -> z)"""
    res, tres = _rows(alg.res)
    join, tjoin = _rows(alg.join)
    each = [row for row in res for _ in res]  # res[x] at (x, y)
    return (b"".join(map(b"".join(join).translate, tres))
            != b"".join(map(bytes.translate, each, map(tjoin.__getitem__, b"".join(res)))))


def _monotonicity_fails(alg) -> bool:
    """x -> y <= (z -> x) -> (z -> y) and x -> y <= (y -> z) -> (x -> z)"""
    n = len(alg.res)
    res, tres = _rows(alg.res)
    cols = [bytes(col) for col in zip(*res)]  # cols[y][x] = x -> y
    # Per block of 8 elements from p, two tables: v in the block to its one-hot
    # byte, and a to the byte of the v in the block that are not above a.
    pad = bytes(256 - n)
    planes = [(bytes(p) + b"\x01\x02\x04\x08\x10\x20\x40\x80" + bytes(248 - p),
               bytes(~up >> p & 255 for up in alg.tables.ups) + pad) for p in range(0, n, 8)]
    return (_below(b"".join(row * n for row in res),  # x -> y, over (x, z, y)
                   b"".join(map(bytes.translate, res * n, map(tres.__getitem__, b"".join(cols)))),
                   planes)  # (z -> x) -> (z -> y)
            or _below(b"".join(col * n for col in cols),  # x -> y, over (y, z, x)
                      b"".join(map(bytes.translate, cols * n, map(tres.__getitem__, b"".join(res)))),
                      planes))  # (y -> z) -> (x -> z)


def _below(low: bytes, high: bytes, planes) -> bool:
    """Whether low[i] <= high[i] fails at some i: in some block, the one-hot
    byte of high[i] meets the byte of the elements not above low[i]."""
    return any(int.from_bytes(high.translate(onehot), "big")
               & int.from_bytes(low.translate(not_above), "big")
               for onehot, not_above in planes)


# the kernel of each law by the axiom id its violations are recorded under
AXIOM_KERNELS = {"prod-associative": _associativity_fails, "adjunction": _adjunction_fails}
LAW_KERNELS = {"exchange": _exchange_fails, "residuum-monotonicity": _monotonicity_fails,
               "residuum-join-distribution": _join_distribution_fails}
