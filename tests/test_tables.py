"""Process-lifetime tables of the pure value layer."""

from dataclasses import dataclass
from fractions import Fraction as F

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
from qracah import multivar, orthopoly, qseries
from qracah.errors import DenominatorPole, OutOfRange
from qracah.uqsl2 import OpMatrix
from qracah.tables import table_sizes, tabled

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
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def _same(a, b):
    # equal values of equal types, entry by entry (dict keys in order)
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
    for n in range(4):
        for x in range(4):
            calls.append((orthopoly._kraw_cached, (qb, 0, h, 3, n, x), {}))
            calls.append((orthopoly._asc_cached, (qb, one, h, one, n, x), {}))
    for n in range(4):
        calls.append((orthopoly.kraw_w, (qb, 3, n), {}))
        calls.append((orthopoly.asc_w, (qb, h, n), {}))
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
    for x, y in ((0, 0), (1, 1), (2, 0)):
        calls.append((pr_inner, (pp, x, y), {}))
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
                              (qb, one, h, sizes, ys, su11, trunc, TB), {}))
    # the multivariate rational functions, and the summation identity's
    # 3phi2 factors in base 1/q
    for xs in ((0, 0), (1, 0), (2, 1)):
        for ys in ((0, 1), (1, 1)):
            calls.append((multivar._rr_multi, (qb, one, h, 0, (2, 1), xs, ys), {}))
            calls.append((multivar._pr_multi, (qb, one, 0, 0, (one, one), xs, ys, TB), {}))
    a, sq = qb.qpow(-4), -qb.qpow(one)
    for n in range(3):
        for z in range(3):
            calls.append((qseries._rhs_factor, (qb.q, a, TB, n, z, sq), {}))
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
    # the chain tables: j outside 1..M, and more indices than sites
    for fn, args in ((multivar._shift_terms, (qb, 3, (0, 0), 0, 0, (1, 1), False)),
                     (multivar._chain_op, (qb, (1, 1), False, None, "k2", "R", 0, 0, 0)),
                     (multivar._nested_vec, (qb, 0, 0, (1,), (0, 0), False, None, TB))):
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
    # spellings share one polynomial-value entry and return one object
    qb = QBase(F(5, 13))  # a base no other test uses
    for family, cell, pack in ((kraw, orthopoly._kraw_cached, lambda u: KrawParams(u, 1, 3, qb)),
                               (asc, orthopoly._asc_cached, lambda u: ASCParams(u, 1, 2, qb))):
        before = _size(cell)
        values = [family(pack(u), 2, 1) for u in (1, F(1), F(2, 2))]
        assert _size(cell) == before + 1, family.__name__
        assert values[0] is values[1] is values[2]
        assert type(values[0]) is F


def test_multivariate_sequences_key_one_entry_as_list_or_tuple():
    # rr_multi and pr_multi take sequences; a list and a tuple of the same
    # entries key one entry and return one object
    qb = QBase(F(3, 11))  # a base no other test uses
    tb = TailBound(1e-9)
    for public, cell, sizes, extra in ((multivar.rr_multi, multivar._rr_multi, (2, 1), ()),
                                       (multivar.pr_multi, multivar._pr_multi, (1, 1), (tb,))):
        before = _size(cell)
        first = public(qb, 1, 0, 0, list(sizes), [1, 0], [0, 1], *extra)
        again = public(qb, 1, 0, 0, tuple(sizes), (1, 0), (0, 1), *extra)
        assert first is again and _size(cell) == before + 1, public.__name__
        assert type(first) is F


@dataclass(frozen=True)
class _Pack:
    a: object
    b: object


@tabled
def _echo(*args, **kwargs):
    return args, kwargs


def test_keys_are_typed_and_flatten_dataclass_fields():
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
