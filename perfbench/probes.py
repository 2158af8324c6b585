"""Fixed-input probes of single layers, run in a fresh process.

Each probe times calls into one module's public functions. Inputs are grid
points of the verify suites; the cold-table probes use keys no earlier call
in the process used, so they miss the module's caches.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from qracah import multivar, orthopoly, qseries, ratfun, uqsl2, verify
from qracah.scalar import QBase

HALF = QBase(Fraction(1, 2))
TWO_THIRDS = QBase(Fraction(2, 3))
TB = qseries.TailBound(tolerance=1e-12)
EXPONENTS = [Fraction(e, 2) for e in range(-24, 25)]
GRID6 = [(x, y) for x in range(7) for y in range(7)]
# a cor4.3 grid point (k, s, t, v) = (1, 1, 1, 0)
PR_POINT = dict(s=1, t=1, v=0, k=1)
# s = 7/2 appears in no other probe, so the cold tables miss the caches
COLD_S = Fraction(7, 2)


def per_call(fn, calls_per_batch=None, batches=5, min_batch_s=0.02):
    """Median seconds per call of ``fn`` over ``batches`` timed batches."""
    n = calls_per_batch or 1
    while calls_per_batch is None:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        n *= 2
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def _kraw_table(u):
    kp = orthopoly.KrawParams(u, COLD_S, 8, HALF)
    return [orthopoly.kraw(kp, n, x) for n in range(9) for x in range(9)]


def _asc_table(u):
    ap = orthopoly.ASCParams(u, COLD_S, 1, HALF)
    return [orthopoly.asc(ap, n, x) for n in range(9) for x in range(9)]


def _cold(table):
    # one fresh u per sample, so every sample misses the cache
    samples = []
    for u in range(5):
        t0 = time.perf_counter()
        table(u)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _rphis_n6():
    # the terminating 4phi3 of rr_closed at N=6, x=6, y=3, (s, t, v) = (1, 2, 1)
    qb, N, x, y, s, t, v = HALF, 6, 6, 3, 1, 2, 1
    spec = qseries.PhiSpec(
        numerators=(qb.qpow(-2 * x), -qb.qpow(2 * x + 2 * s - 2 * N),
                    -qb.qpow(s + t - v + 1), qb.qpow(s - t - v + 1)),
        denominators=(-qb.qpow(2 * s + 2), qb.qpow(-2 * y + s - t - v + 1),
                      -qb.qpow(2 * y + s + t - 2 * N - v + 1)),
        base=qb.qpow(2), argument=qb.qpow(2), terminate_after=x + 1)
    return per_call(lambda: qseries.rphis(spec))


def _rr_grid(fn):
    rp = ratfun.RrParams(1, 2, 1, 6, HALF)
    cells = [c for c in GRID6 if ratfun.rr_valid(rp, *c)]
    return per_call(lambda: [fn(rp, x, y) for x, y in cells]) / len(cells)


def _pr_inner_terms(qb, x, y):
    left = orthopoly.ASCParams(1, PR_POINT["s"], PR_POINT["k"], qb, TB)
    right = orthopoly.ASCParams(PR_POINT["v"], PR_POINT["t"], PR_POINT["k"], qb, TB)
    n = 0
    while True:
        yield (orthopoly.asc(left, n, x) * orthopoly.asc(right, n, y)
               * orthopoly.asc_w(qb, PR_POINT["k"], n))
        n += 1


def _certified_sum_terms():
    # the terms of pr_inner at p=2/3, (x, y) = (1, 1), counted as
    # certified_sum consumes them
    consumed = 0

    def counted():
        nonlocal consumed
        for term in _pr_inner_terms(TWO_THIRDS, 1, 1):
            consumed += 1
            yield term

    qseries.certified_sum(counted(), TB)
    return consumed


def _pr(qb):
    return ratfun.PrParams(PR_POINT["s"], PR_POINT["t"], PR_POINT["v"], PR_POINT["k"], qb, TB)


def _pr_bits():
    value = ratfun.pr_inner(_pr(TWO_THIRDS), 1, 1)
    return value.numerator.bit_length() + value.denominator.bit_length()


def _su11_sites():
    return [uqsl2.RepSpec.su11(1, 8, HALF)] * 2


def _su11_build(built):
    # one call: it takes seconds
    t0 = time.perf_counter()
    built["op"] = uqsl2.coproduct_op(_su11_sites(), "ytilde", "L", 2, u=0, s=1)
    return time.perf_counter() - t0


def _su11_apply(built):
    op = built["op"]
    vec = [Fraction(1, n + 2) for n in range(op.dim)]
    return per_call(lambda: op.apply(vec))


def _su2_build():
    sites = [uqsl2.RepSpec.su2(N, HALF) for N in (2, 1, 2)]
    return per_call(lambda: uqsl2.coproduct_op(sites, "xtilde", "L", 3, u=0, s=1))


US, MS = 1e6, 1e3


def run_probes(tracer, speed):
    """Every probe once, in a fixed order; name -> (value, unit). Times are
    taken to reference speed with ``speed`` samples around each probe."""
    out = {}

    def probe(name, unit, fn, scale=1.0):
        speed.sample()
        with tracer.span(f"probe.{name}") as sp:
            value = fn() * scale
        speed.sample()
        if unit != "count":
            raw, scaled = speed.measure(sp["start"], sp["end"])
            value *= scaled / raw
        out[name] = (value, unit)

    probe("scalar.qpow_us", "us",
          lambda: per_call(lambda: [TWO_THIRDS.qpow(e) for e in EXPONENTS]) / len(EXPONENTS), US)
    probe("scalar.bracket_us", "us",
          lambda: per_call(lambda: [TWO_THIRDS.bracket(e) for e in EXPONENTS]) / len(EXPONENTS),
          US)
    probe("qseries.rphis_4phi3_us", "us", _rphis_n6, US)
    q2 = HALF.qpow(2)
    probe("qseries.qbinom_row_us", "us",
          lambda: per_call(lambda: [qseries.qbinom(12, j, q2) for j in range(13)]), US)
    a_top, a_bot = TWO_THIRDS.qpow(6), TWO_THIRDS.qpow(8)
    probe("qseries.qpoch_inf_ratio_us", "us",
          lambda: per_call(lambda: qseries.qpoch_inf_ratio(a_top, a_bot, TWO_THIRDS.qpow(2), TB)),
          US)
    probe("qseries.certified_sum_terms", "count", _certified_sum_terms)
    probe("orthopoly.kraw_table_cold_ms", "ms", lambda: _cold(_kraw_table), MS)
    probe("orthopoly.kraw_table_warm_ms", "ms", lambda: per_call(lambda: _kraw_table(0)), MS)
    probe("orthopoly.kraw_W_row_us", "us",
          lambda: per_call(lambda: [orthopoly.kraw_W(HALF, 1, 8, x) for x in range(9)]), US)
    probe("orthopoly.asc_table_cold_ms", "ms", lambda: _cold(_asc_table), MS)
    probe("orthopoly.asc_W_row_ms", "ms",
          lambda: per_call(lambda: [orthopoly.asc_W(TWO_THIRDS, 1, 1, x, TB) for x in range(5)]),
          MS)
    probe("ratfun.rr_inner_us", "us", lambda: _rr_grid(ratfun.rr_inner), US)
    probe("ratfun.rr_closed_us", "us", lambda: _rr_grid(ratfun.rr_closed), US)
    probe("ratfun.pr_inner_ms.p1_2", "ms",
          lambda: per_call(lambda: ratfun.pr_inner(_pr(HALF), 1, 1)), MS)
    probe("ratfun.pr_inner_ms.p2_3", "ms",
          lambda: per_call(lambda: ratfun.pr_inner(_pr(TWO_THIRDS), 1, 1)), MS)
    probe("ratfun.pr_inner_bits.p2_3", "count", _pr_bits)
    probe("ratfun.pr_closed_ms", "ms",
          lambda: per_call(lambda: ratfun.pr_closed(_pr(TWO_THIRDS), 1, 1)), MS)
    probe("multivar.multi_gevp_residual_ms", "ms",
          lambda: per_call(lambda: multivar.multi_gevp_residual(
              HALF, 1, (1, 1), (1, 1), 1, 0, 1, (2, 2))), MS)
    probe("multivar.transfer_check_y_ms", "ms",
          lambda: per_call(lambda: multivar.transfer_check_y(
              HALF, 2, (1, 1), 0, 0, 1, (1, 1), 6), calls_per_batch=1, batches=3), MS)
    built = {}
    probe("uqsl2.coproduct_su11_build_ms", "ms", lambda: _su11_build(built), MS)
    probe("uqsl2.coproduct_su11_apply_ms", "ms", lambda: _su11_apply(built), MS)
    probe("uqsl2.coproduct_su2_build_ms", "ms", _su2_build, MS)
    probe("uqsl2.relations_su11_ms", "ms",
          lambda: per_call(lambda: uqsl2.relation_residuals(uqsl2.RepSpec.su11(1, 10, HALF))),
          MS)
    probe("verify.build_tasks_s", "s",
          lambda: per_call(lambda: verify.build_tasks("all", verify.RunConfig()),
                           calls_per_batch=1))
    return out
