"""Process-lifetime tables of the pure value layer."""

from fractions import Fraction as F

import sys
import threading
from typing import NamedTuple

import pytest

from qracah import (
    ASCParams,
    KrawParams,
    PrParams,
    QBase,
    RrParams,
    TailBound,
    asc,
    asc_W,
    asc_diff_coeffs,
    asc_dyn_coeffs,
    kraw,
    kraw_W,
    kraw_diff_coeffs,
    kraw_dyn_coeffs,
    pr_inner,
    rr_inner,
)
from qracah import multivar, orthopoly, qseries, ratfun, uqsl2
from qracah.errors import DenominatorPole, OutOfRange
from qracah.scalar import as_exponent
from qracah.uqsl2 import OpMatrix
import reference
from test_orthopoly import _is_weight
from qracah import tables
from qracah.tables import _Points, _Row, packed, table_sizes, tabled

TB = TailBound(1e-12)

# every backend, with q < 1 and q > 1
BASES = [
    QBase(F(1, 2)),
    QBase(F(3, 2)),
    QBase(0.5, "float"),
    QBase(1.5, "float"),
    QBase(F(2, 3), "complex"),
    QBase(F(3, 2), "complex"),
]


def _exponent(qb, x):
    # exact bases need Fraction exponents; the floating ones also get floats
    return F(x) if qb.is_exact else float(x)


def _outcome(fn, *args, **kwargs):
    # a TypeError or AttributeError is a call that does not fit the code
    # (a stale signature, say), not an outcome to compare: it propagates
    try:
        return fn(*args, **kwargs)
    except (TypeError, AttributeError):
        raise
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


# the entries of a row compared, each an outcome
ROW_ENTRIES = 6
# the points of a pack table compared: the (xs, ys) of the two-site chains
# of _calls (the last out of the finite chain's range), their xs for the
# weight pack, and x or y 0..ROW_ENTRIES-1 for the closed forms' quotients
CHAIN_POINTS = (((0, 0), (0, 1)), ((1, 0), (1, 1)), ((2, 1), (0, 1)), ((1, 1), (3, 0)))
PACK_POINTS = {"_R_pack": CHAIN_POINTS,
               "_W_pack": ((0, 0), (1, 0), (2, 1), (3, 0))}


def _same(a, b):
    # equal values of equal types, entry by entry (dict keys in order, the
    # first ROW_ENTRIES entries of a row, the PACK_POINTS of a pack table,
    # each a value or an exception type)
    if isinstance(a, _Row):
        return type(b) is _Row and all(
            _same(_outcome(a.__getitem__, m), _outcome(b.__getitem__, m))
            for m in range(ROW_ENTRIES))
    if isinstance(a, _Points):
        points = PACK_POINTS.get(a.entry.__name__, range(ROW_ENTRIES))
        return type(b) is _Points and all(
            _same(_outcome(a.__getitem__, point), _outcome(b.__getitem__, point))
            for point in points)
    if isinstance(a, type):
        return a is b
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return (type(b) is dict and list(a) == list(b)
                and all(map(_same, a.values(), b.values())))
    if isinstance(a, OpMatrix):
        return type(b) is OpMatrix and _same(tuple(a.rows), tuple(b.rows))
    return type(a) is type(b) and a == b


def _calls(qb):
    """(tabled function, args, kwargs) over small grids of one base."""
    h = _exponent(qb, F(1, 2))
    one = _exponent(qb, 1)
    calls = []
    # the weight rows of both families, the ratio rows they read and the
    # ratio rows of asc_W
    for N in range(4):
        calls.append((orthopoly._w_column, (qb, False, N), {}))
        calls.append((orthopoly._ratio_row, (qb, -2 * N, N + 1), {}))
    for k in (h, one):
        calls.append((orthopoly._w_column, (qb, True, -k), {}))
        calls.append((orthopoly._ratio_row, (qb, 2 * k, 1 - k), {}))
        calls.append((orthopoly._ratio_row, (qb, 2 * k, 0), {}))
    for y in range(4):
        calls.append((kraw_W, (qb, h, 3, y), {}))
        calls.append((kraw_W, (qb, 1, 3), {"x": y}))
        calls.append((asc_W, (qb, h, one, y, TB), {}))
        calls.append((kraw_diff_coeffs, (qb, 3, y, h), {}))
        calls.append((asc_diff_coeffs, (qb, one, y, h), {}))
        for direction in (2, -2):
            calls.append((kraw_dyn_coeffs, (qb, 3, y, one, direction), {}))
            calls.append((asc_dyn_coeffs, (qb, one, y, h, direction), {}))
    rp = RrParams(1, F(1, 2), -1, 2, qb)
    pp = PrParams(1, 1, 0, 1, qb, TB)
    for x in range(3):
        for y in range(3):
            calls.append((rr_inner, (rp, x, y), {}))
            calls.append((ratfun.rr_closed, (rp, x, y), {}))
    for x, y in ((0, 0), (1, 1), (2, 0)):
        calls.append((pr_inner, (pp, x, y), {}))
    # the power-times-weight rows of the exact inner products
    if qb.is_exact:
        for su11, size, e in ((False, 2, h - 1), (True, -one, 2 + one)):
            calls.append((ratfun._coefficient_row, (qb, su11, size, e), {}))
    # the chain tables of multivar on a finite and a truncated infinite chain
    for sizes, su11, trunc, elements in (((2, 1), False, None, ("k2", "x", "xtilde")),
                                         ((one, one), True, 2, ("k2", "y", "ytilde"))):
        for j in (1, 2):
            for side in ("L", "R"):
                for element in elements:
                    calls.append((multivar._chain_op,
                                  (qb, sizes, su11, trunc, element, side, j, h, one), {}))
            for ys in ((0, 0), (1, 1), (2, 0)):
                calls.append((multivar._shift_terms, (qb, j, ys, h, one, sizes, su11), {}))
                calls.append((multivar._nested_vec,
                              (qb, one, h, sizes, ys, su11, trunc), {}))
    # the generator and twisted-element matrices of a compact and a
    # truncated non-compact representation
    for rs in (uqsl2.RepSpec.su2(2, qb), uqsl2.RepSpec.su11(one, 3, qb)):
        calls.append((uqsl2.gens, (rs,), {}))
        for tilde in (False, True):
            for compact in (False, True):
                calls.append((uqsl2._twisted, (rs, h, one, tilde, compact), {}))
    # the pack tables of the multivariate rational functions and the x-side
    # weights of both chains
    calls.append((multivar._R_pack, (qb, one, h, 0, (2, 1), False, None), {}))
    calls.append((multivar._R_pack, (qb, one, 0, 0, (one, one), True, TB), {}))
    calls.append((multivar._W_pack, (qb, h, (2, 1), False, None), {}))
    calls.append((multivar._W_pack, (qb, h, (one, one), True, TB), {}))
    # the series columns of both families, and in an exact base the rows of
    # 1 - Q**m their exact columns read
    for x in range(3):
        calls.append((orthopoly._series, (qb, False, 3, h, x), {}))
        calls.append((orthopoly._series, (qb, True, -one, h, x), {}))
    if qb.is_exact:
        for Q in (qb.q, qb.qpow(2)):
            calls.append((qseries._one_minus_row, (Q,), {}))
    # the closed forms' factors of one point
    for N, (s, t, v) in ((2, (1, 0, 0)), (3, (h, one, 0))):
        calls.append((ratfun._rr_prefactors, (qb, s, t, v, N), {}))
        calls.append((ratfun._pr_prefactors, (qb, s, t, v, one, TB), {}))
    return calls


@pytest.mark.parametrize("qb", BASES, ids=repr)
def test_tabled_values_are_the_undecorated_values(qb):
    # a cold call, then a table hit: both give the undecorated function's
    # value with its type, or its exception type; at q > 1 the infinite
    # sums of asc_W and pr_inner raise, and raise again
    for fn, args, kwargs in _calls(qb):
        direct = _outcome(fn.__wrapped__, *args, **kwargs)
        for _ in range(2):
            got = _outcome(fn, *args, **kwargs)
            if isinstance(direct, type):
                assert got is direct, (fn.__name__, args)
            else:
                assert _same(got, direct), (fn.__name__, args)


def _size(fn):
    return table_sizes()[f"{fn.__module__}.{fn.__qualname__}"]


def test_raising_calls_are_not_tabled():
    qb = QBase(F(2, 3))
    before = _size(asc_diff_coeffs)
    for _ in range(2):
        # 1 - q**(-4y-2t-2k) vanishes at k=1, y=0, t=-1
        with pytest.raises(DenominatorPole):
            asc_diff_coeffs(qb, 1, 0, -1)
    assert _size(asc_diff_coeffs) == before
    before = _size(kraw_diff_coeffs)
    for _ in range(2):
        with pytest.raises(OutOfRange):
            kraw_diff_coeffs(qb, 4, 5, 0)
    assert _size(kraw_diff_coeffs) == before
    # a pole of the finite closed form: bd/c = q**(s-t-v+1) = 1 at y < x
    before = _size(ratfun.rr_closed)
    for _ in range(2):
        with pytest.raises(DenominatorPole):
            ratfun.rr_closed(RrParams(F(1, 2), F(3, 2), 0, 2, qb), 1, 0)
    assert _size(ratfun.rr_closed) == before
    # the chain tables: j outside 1..M, and more indices than sites
    for fn, args in ((multivar._shift_terms, (qb, 3, (0, 0), 0, 0, (1, 1), False)),
                     (multivar._chain_op, (qb, (1, 1), False, None, "k2", "R", 0, 0, 0)),
                     (multivar._nested_vec, (qb, 0, 0, (1,), (0, 0), False, None))):
        before = _size(fn)
        for _ in range(2):
            with pytest.raises(OutOfRange):
                fn(*args)
        assert _size(fn) == before, fn.__name__


def test_size_grows_by_one_per_new_key():
    qb = QBase(F(7, 11))  # a base no other test uses
    before = _size(kraw_diff_coeffs)
    steps = [
        ((qb, 4, 1, F(1)), {}, 1),
        ((qb, 4, 1, F(1)), {}, 0),
        ((QBase(F(7, 11)), 4, 1, F(1)), {}, 0),  # an equal base
        ((qb, 4, 1, 1), {}, 1),  # int t: a new type, a new key
        ((qb, 4, 2, F(1)), {}, 1),
        ((qb, 4, 2), {"t": F(1)}, 1),  # keyword arguments are keyed by name
        ((qb, 4, 2), {"t": F(1)}, 0),
    ]
    for args, kwargs, grows in steps:
        kraw_diff_coeffs(*args, **kwargs)
        after = _size(kraw_diff_coeffs)
        assert after == before + grows, (args, kwargs)
        before = after


def test_an_integral_exponent_keys_one_entry_whatever_its_type():
    # as_exponent turns u = 1, F(1) and F(2, 2) into the int 1, so the three
    # spellings share one polynomial column and return one object
    qb = QBase(F(5, 13))  # a base no other test uses
    for family, pack in ((kraw, lambda u: KrawParams(u, 1, 3, qb)),
                         (asc, lambda u: ASCParams(u, 1, 2, qb))):
        before = _size(orthopoly._column)
        values = [family(pack(u), 2, 1) for u in (1, F(1), F(2, 2))]
        assert _size(orthopoly._column) == before + 1, family.__name__
        assert values[0] is values[1] is values[2]
        assert type(values[0]) is F


def test_every_twist_reads_one_series_column():
    # u enters only the prefactor: four twists at one (s, x) add four
    # polynomial columns but a single series column
    qb = QBase(F(6, 13))  # a base no other test uses
    for family, pack in ((kraw, lambda u: KrawParams(u, 1, 3, qb)),
                         (asc, lambda u: ASCParams(u, 1, 2, qb))):
        columns, series = _size(orthopoly._column), _size(orthopoly._series)
        for u in (0, F(1, 2), 1, 2):
            family(pack(u), 3, 2)
        assert _size(orthopoly._column) == columns + 4, family.__name__
        assert _size(orthopoly._series) == series + 1, family.__name__


def _value_direct(qb, su11, size, u, s, n, x):
    """One polynomial value from its own series, no row read: the prefactor
    exponent in the general expression, the 3phi2 by a fresh rphis."""
    pref = qb.qpow(n * (s - u - size * F(1, 2) + F(1, 2)))
    if not su11:
        pref = (-1) ** n * pref
    sq = qb.qpow if su11 else (lambda e: -qb.qpow(e))
    ser = qseries.rphis(qseries.PhiSpec(
        numerators=(qb.qpow(2 * n), qb.qpow(2 * x), sq(-2 * x - 2 * s + 2 * size)),
        denominators=(qb.qpow(2 * size),),
        base=qb.qpow(-2),
        argument=qb.qpow(-2),
        terminate_after=min(n, x) + 1,
    ))
    return pref * ser


def _twists(qb):
    # integral and half-integral u and s as int/Fraction (the int exponent
    # path for the integral ones), and as the floating scalar types
    values = [0, F(1, 2), 1, F(3, 2)]
    if not qb.is_exact:
        values += [float(v) for v in values]
    if qb.mode == "complex":
        values += [complex(v) for v in values[:4]]
    return [(u, s) for u in values for s in values]


@pytest.mark.parametrize("qb", BASES, ids=repr)
def test_column_entries_are_fresh_series_values(qb):
    # every entry of a polynomial column, read last entry first, is the
    # value and type one fresh series evaluation gives, or its exception
    for su11, sizes in ((False, (3,)), (True, (-1, -2))):
        for size in sizes:
            for u, s in _twists(qb):
                for x in range(4):
                    rows = 4 if not su11 else 6
                    column = orthopoly._column(qb, su11, size, as_exponent(u), as_exponent(s), x)
                    for n in reversed(range(rows)):
                        got = _outcome(column.__getitem__, n)
                        want = _outcome(_value_direct, qb, su11, size, u, s, n, x)
                        if isinstance(want, type):
                            assert got is want, (su11, size, u, s, n, x)
                        else:
                            assert _same(got, want), (su11, size, u, s, n, x)
    # the weight rows the sums over n read alongside
    for k in (F(1, 2), 1, F(3, 2)):
        for n in reversed(range(6)):
            assert _is_weight(qb, orthopoly.asc_w_column(qb, k)[n], reference.asc_w, k, n), (k, n)
    for N in range(5):
        row = orthopoly.kraw_w_column(qb, N)
        for n in reversed(range(N + 1)):
            assert _is_weight(qb, row[n], reference.kraw_w, N, n), (N, n)
        with pytest.raises(OutOfRange):
            row[N + 1]


def test_one_polynomial_column_grows_thread_safely():
    # threads reading one fresh column at once, each in its own order, must
    # not append an entry twice: every thread sees the fresh series values
    qb = QBase(F(7, 12))  # a base no other test uses
    ap = ASCParams(F(1, 2), 1, 1, qb)
    # the column exists before the threads start, so they all grow this one;
    # at x = 20 each entry sums 21 series terms, long enough for a switch
    column = orthopoly.asc_column(ap, 20)
    orders = [list(range(0, 41, step)) + [40 - step] for step in (1, 1, 2, 3, 5, 7)]
    results = {}

    def request(i):
        results[i] = [asc(ap, n, 20) for n in orders[i]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=request, args=(i,)) for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert orthopoly.asc_column(ap, 20) is column and len(column.row) == 41
    for i, order in enumerate(orders):
        assert results[i] == [_value_direct(qb, True, -1, F(1, 2), 1, n, 20) for n in order]


def test_a_row_grows_each_entry_once_in_order_across_threads():
    # threads reading one fresh row at once, each in its own order: every
    # entry is computed once, in index order, and each thread reads it
    computed = []

    def entry(scale, m):
        computed.append(m)
        return sum(scale * m for _ in range(200))

    row = _Row(entry, 3)
    orders = [list(range(0, 41, step)) + [40 - step] for step in (1, 1, 2, 3, 5, 7)]
    results = {}

    def request(i):
        results[i] = [row[m] for m in orders[i]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=request, args=(i,)) for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert computed == list(range(41))
    for i, order in enumerate(orders):
        assert results[i] == [600 * m for m in order]


def test_a_row_entry_that_raises_is_not_stored():
    # the entry raises again on the next request, and so does every
    # request past it; once it computes, the row grows on from there
    failing = {2}

    def entry(m):
        if m in failing:
            raise OutOfRange(f"entry {m}")
        return m * m

    row = _Row(entry)
    assert row[1] == 1
    for _ in range(2):
        for m in (2, 4):
            with pytest.raises(OutOfRange, match="entry 2"):
                row[m]
    assert row.row == [0, 1]
    failing.clear()
    assert row[4] == 16 and row.row == [0, 1, 4, 9, 16]


def test_a_row_refuses_a_negative_index():
    # a row has no end to count back from: entry -1 is refused by name, also
    # once the last entry is stored, and the row is left as it was
    row = orthopoly.kraw_w_column(QBase(F(1, 2)), 4)
    assert row[4] == 1
    stored = list(row.row)
    for m in (-1, -5, -6):
        with pytest.raises(OutOfRange, match=f"^row index {m} is negative$"):
            row[m]
    assert row.row == stored
    fresh = _Row(lambda m: m * m)
    with pytest.raises(OutOfRange, match="-1"):
        fresh[-1]
    assert fresh.row == [] and fresh[2] == 4


def test_multivariate_sequences_key_one_entry_as_list_or_tuple():
    # rr_multi and pr_multi take sequences; a list and a tuple of the same
    # entries key one pack and one entry of it, and return one object
    qb = QBase(F(3, 11))  # a base no other test uses
    tb = TailBound(1e-9)
    pack = multivar._R_pack
    # each public function's arguments after ys, and the pack's after sizes
    for public, sizes, extra, chain in ((multivar.rr_multi, (2, 1), (), (False, None)),
                                        (multivar.pr_multi, (1, 1), (tb,), (True, tb))):
        before = _size(pack)
        first = public(qb, 1, 0, 0, list(sizes), [1, 0], [0, 1], *extra)
        again = public(qb, 1, 0, 0, tuple(sizes), (1, 0), (0, 1), *extra)
        assert first is again and _size(pack) == before + 1, public.__name__
        assert len(pack(qb, 1, 0, 0, sizes, *chain).values) == 1, public.__name__
        assert type(first) is F


def test_pack_points_key_apart_by_their_entries_types():
    # an index point keys with the types of its entries, and of a tuple
    # entry's entries: equal points of different types never share an entry
    table = packed(lambda *args: args)("pack")
    for point in ((1,), (1.0,), (True,), ((1,), (0,)), ((1.0,), (0,)), ((True,), (0,)),
                  1, 1.0, True):
        assert table[point][-1] is point
    assert table[1,] is table[(1,)] and table[(1,), (0,)] is table[((1,), (0,))]
    assert len(table.values) == 9


def test_a_pack_point_that_raises_is_not_stored():
    # the point raises again on the next request; other points, before and
    # after it, are computed and kept
    def entry(scale, point):
        if point == 2:
            raise OutOfRange(f"point {point}")
        return scale * point

    table = _Points(entry, 3)
    assert table[1] == 3
    for _ in range(2):
        with pytest.raises(OutOfRange, match="point 2"):
            table[2]
    assert table[4] == 12 and len(table.values) == 2


def test_a_complex_pack_point_is_never_stored():
    # complex(-1, 0.0) == complex(-1, -0.0), yet an entry can tell them
    # apart: neither may read the other's, so neither is kept
    table = _Points(repr)
    for point in (complex(-1, -0.0), complex(-1, 0.0), complex(-1, -0.0)):
        assert table[point] == repr(point)
    assert table.values == {}
    assert table[-1] == "-1" and len(table.values) == 1


def test_pack_points_hand_every_thread_the_first_object():
    # threads reading the points of one fresh pack table at once, each in
    # its own order: a point two threads miss together is computed twice,
    # but every reader gets the object stored first
    def entry(scale, point):
        return [sum(scale * point for _ in range(200))]

    table = _Points(entry, 3)
    orders = [list(range(0, 41, step)) + [40 - step] for step in (1, 1, 2, 3, 5, 7)]
    results = {}

    def request(i):
        results[i] = [table[m] for m in orders[i]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=request, args=(i,)) for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    for i, order in enumerate(orders):
        assert all(got is table[m] for got, m in zip(results[i], order))
        assert [got[0] for got in results[i]] == [600 * m for m in order]


def test_public_multivariate_values_are_the_residuals_entries():
    # a residual fills the pack; rr_multi and pr_multi then read the very
    # objects it stored, and add no entry
    qb = QBase(F(4, 13))  # a base no other test uses
    tb = TailBound(1e-9)
    sizes = (1, 1)
    for public, residual, extra, chain in (
            (multivar.rr_multi, multivar.multi_gevp_residual, (), (False, None)),
            (multivar.pr_multi, multivar.multi_gevp_residual_asc, (tb,), (True, tb))):
        residual(qb, 1, (1, 0), (0, 1), 1, 0, 0, sizes, *extra)
        table = multivar._R_pack(qb, 1, 0, 0, sizes, *chain)
        stored = dict(table.values)
        assert stored, public.__name__
        for (point, _), value in stored.items():
            assert public(qb, 1, 0, 0, list(sizes), *map(list, point), *extra) is value
        assert table.values == stored, public.__name__


def _keys_built(monkeypatch, call):
    # the tabled lookups of one call, counted through tables._key
    built = []
    key = tables._key

    def counting(args, kwargs):
        built.append(args)
        return key(args, kwargs)

    monkeypatch.setattr(tables, "_key", counting)
    call()
    monkeypatch.setattr(tables, "_key", key)
    return len(built)


def test_chain_residuals_key_each_pack_once_per_call(monkeypatch):
    # once its packs are filled, a biorthogonality residual keys its two
    # rational families and its weight once each (and the diagonal's weight),
    # whatever the grid size; a generalized-eigenvalue residual keys its
    # shift terms and its family once
    qb = QBase(F(5, 17))  # a base no other test uses
    for Ns in ((1,), (3,), (3, 2)):
        idx, idx2 = tuple(Ns), tuple(0 for _ in Ns)
        for i, j, keys in ((idx, idx2, 3), (idx, idx, 4)):
            def call():
                multivar.multi_biorth_residual(qb, 1, 0, 0, Ns, "x", i, j)
            call()
            assert _keys_built(monkeypatch, call) == keys, (Ns, i, j)
        def gevp():
            multivar.multi_gevp_residual(qb, 1, idx, idx2, 1, 0, 1, Ns)
        gevp()
        assert _keys_built(monkeypatch, gevp) == 2, Ns


class _Pack(NamedTuple):
    a: object
    b: object


@tabled
def _echo(*args, **kwargs):
    return args, kwargs


def test_keys_are_typed_and_flatten_record_fields():
    before = _size(_echo)
    # equal values of different types never share an entry
    for value in (1, 1.0, F(1), True, 1 + 0j):
        assert _echo(value)[0][0] is value
    # equal packs whose fields differ in type never share one either
    for pack in (_Pack(1, 2), _Pack(1.0, 2), _Pack(1, F(2))):
        assert _echo(pack)[0][0] is pack
    assert _echo(_Pack(1, 2)) is _echo(_Pack(1, 2))
    # nor equal tuples whose entries differ in type
    for chain in ((1, 2), (1.0, 2), (1, F(2))):
        assert _echo(chain)[0][0] is chain
    assert _echo((1, 2)) is _echo((1, 2))
    assert _size(_echo) == before + 11
