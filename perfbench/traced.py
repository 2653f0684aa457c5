"""Traced job and kernel timings, each in a fresh interpreter started by
run.py.

    python3 perfbench/traced.py trace   OUT ARGS...  traced CLI job
    python3 perfbench/traced.py kernels OUT SEED     kernel timings

``trace`` runs the CLI with every traced callable (see job.targets) wrapped
in a span recorder and writes layer entries and span self times to OUT.
``kernels`` times the layer kernels on seeded inputs, checks each result
against a reference, and writes both to OUT.
"""

from __future__ import annotations

import functools
import inspect
import json
import random
import statistics
import sys
import time
import types

from job import MODULES, import_package, install, write_peak_rss


# per-layer span groups: metric prefix -> the traced spans it covers
SPAN_GROUPS = {
    "points.validate": ("points.validate",),
    "points.invariants": ("points.invariants",),
    "points.sample": ("points.sample_eps_chart_point",
                      "points.sample_general_chart_point",
                      "points.chart_point_eps", "points.chart_point_general",
                      "points.chart_point_local"),
    "linalg.matmul": ("linalg.Matrix.__mul__",),
    "linalg.rref": ("linalg.rref",),
    "linalg.inverse": ("linalg.inverse",),
    "linalg.smith_form_local": ("linalg.smith_form_local",),
    "linalg.enumerate": ("linalg.subspaces_iter",
                         "linalg.intermediate_subspaces_iter"),
    "frame.orthogonal": ("frame.orthogonal",),
    # symplectic_basis runs only inside congruence_transform
    "frame.congruence_transform": ("frame.congruence_transform",
                                   "frame.symplectic_basis"),
    "rings.poly_gcd": ("rings.poly_gcd",),
    "rings.rational_mul": ("rings.RationalFunction.__mul__",),
    "lattices.phi_map": ("lattices.phi_map",),
    "lattices.lattice_from_point": ("lattices.lattice_from_point",),
    "lattices.tau_fiber_check": ("lattices.tau_fiber_check",),
    "lattices.lattice_type": ("lattices.lattice_type",),
    "lattices.canonical": ("lattices.LaurentLattice.__init__",),
    "degenerations.generization_lift": ("degenerations.generization_lift",),
    "degenerations.nonsmooth_witness": ("degenerations.nonsmooth_witness",),
    "charts.groebner": ("charts.groebner",),
    "charts.substitution_check": ("charts.substitution_check",),
    "charts.flat_lift": ("charts.flat_lift",),
}


class Tracer:
    """Span recorder.

    ``stack`` holds, per open span, the time covered by its finished
    children; entry 0 collects the root spans.  A span's self time is its
    duration minus its children's, so the self times of all spans add up
    to ``stack[0]``.  Each span belongs to layers: its module and every
    SPAN_GROUPS entry that names it.  A layer counts an entry whenever a
    call enters it from outside, that is while none of its spans is open.
    """

    def __init__(self):
        self.stack = [0.0]
        self.self_s = {}  # span -> [seconds]
        self.layers = {}  # layer -> [open spans, entries]
        self.groups_of = {}
        for group, spans in SPAN_GROUPS.items():
            for span in spans:
                self.groups_of.setdefault(span, []).append(group)
        self.validated = {"examined": 0, "accepted": 0, "rejected": {}}

    def wrap(self, span, fn):
        clock, stack = time.perf_counter, self.stack
        push, pop = stack.append, stack.pop
        own = self.self_s.setdefault(span, [0.0])
        layers = [span.split(".")[0]] + self.groups_of.get(span, [])
        cells = tuple(self.layers.setdefault(k, [0, 0]) for k in layers)

        def enter():
            for cell in cells:
                if not cell[0]:
                    cell[1] += 1
                cell[0] += 1
            push(0.0)
            return clock()

        def close(t0):
            dt = clock() - t0
            child = pop()
            stack[-1] += dt
            own[0] += dt - child
            for cell in cells:
                cell[0] -= 1

        if inspect.isgeneratorfunction(fn):
            # one span per step: the time spent advancing the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    t0 = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(t0)
                    yield item
            return gen_wrapper

        count = self._count_validation if span == "points.validate" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(t0)
            if count is not None:
                count(result)
            return result
        return wrapper

    def _count_validation(self, report):
        v = self.validated
        v["examined"] += 1
        if report.verdict:
            v["accepted"] += 1
        else:
            reason = report.first_failure()
            v["rejected"][reason] = v["rejected"].get(reason, 0) + 1

    def to_json_dict(self):
        return {"entries": {layer: cell[1] for layer, cell in self.layers.items()},
                "self_s": {span: own[0] for span, own in self.self_s.items()},
                "root_s": self.stack[0], "validated": self.validated}


def trace(out, argv):
    modules = import_package()
    tracer = Tracer()
    install(modules, MODULES, tracer.wrap)
    try:
        code = modules["cli"].main(argv)
    finally:
        write_peak_rss()
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json_dict(), fh)
    return code


# ---------------------------------------------------------------------------
# kernels: each returns (seconds per operation, result is correct)
# ---------------------------------------------------------------------------

def _per_op(fn, ops, batches):
    """Median over batches of the time per operation of fn()."""
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / ops)
    return statistics.median(times)


def _ff_mul(sm, rng):
    F = sm.rings.PrimeField(3)
    ints = [(rng.randrange(3), rng.randrange(3)) for _ in range(2000)]
    pairs = [(F.from_int(a), F.from_int(b)) for a, b in ints]
    out = [a * b for a, b in pairs]
    ok = all(c == F.from_int(a * b) for c, (a, b) in zip(out, ints))
    return _per_op(lambda: [a * b for a, b in pairs], len(pairs), 7), ok


def _laurent_mul_reference(x, y, p):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = (out.get(e1 + e2, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def _rf_mul(sm, rng):
    K = sm.rings.FunctionField(sm.rings.PrimeField(3), "u")
    dicts = [{e: rng.randrange(1, 3) for e in range(rng.randrange(-3, 1),
                                                     rng.randrange(1, 5))}
             for _ in range(400)]
    pairs = [(dicts[2 * i], dicts[2 * i + 1]) for i in range(200)]
    elems = [(K.laurent(a), K.laurent(b)) for a, b in pairs]
    out = [a * b for a, b in elems]
    ok = all(c == K.laurent(_laurent_mul_reference(a, b, 3))
             for c, (a, b) in zip(out, pairs))
    return _per_op(lambda: [a * b for a, b in elems], len(elems), 7), ok


def _int_matrix(rng, nrows, ncols, p):
    return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]


def _matmul8(sm, rng):
    F, Matrix = sm.rings.PrimeField(3), sm.linalg.Matrix
    a, b = _int_matrix(rng, 8, 8, 3), _int_matrix(rng, 8, 8, 3)
    ref = [[sum(a[i][k] * b[k][j] for k in range(8)) % 3 for j in range(8)]
           for i in range(8)]
    A, B = Matrix(F, a), Matrix(F, b)
    ok = A * B == Matrix(F, ref)
    return _per_op(lambda: [A * B for _ in range(50)], 50, 7), ok


def _rref4x8(sm, rng):
    F, linalg = sm.rings.PrimeField(3), sm.linalg
    mats = [linalg.Matrix(F, _int_matrix(rng, 4, 8, 3)) for _ in range(50)]
    ok = True
    for M in mats:
        R, pivots = linalg.rref(M)
        R2, pivots2 = linalg.rref(R)
        ok = ok and R2 == R and pivots2 == pivots
    return _per_op(lambda: [linalg.rref(M) for M in mats], len(mats), 7), ok


def _smith_local(sm, rng):
    K = sm.rings.FunctionField(sm.rings.PrimeField(3), "u")
    Matrix, linalg = sm.linalg.Matrix, sm.linalg
    mats = []
    while len(mats) < 5:
        M = Matrix(K, [[K.random_poly(rng, 2) for _ in range(4)]
                       for _ in range(4)])
        if not linalg.det(M).is_zero():
            mats.append(M)
    ok = True
    for M in mats:
        U, D, V, _ = linalg.smith_form_local(M)
        off_diagonal = [D.data[i][j] for i in range(4) for j in range(4)
                        if i != j]
        ok = ok and U * M * V == D and all(x.is_zero() for x in off_diagonal)
    return _per_op(lambda: [linalg.smith_form_local(M) for M in mats],
                   len(mats), 5), ok


def _hermite(sm, rng):
    K = sm.rings.FunctionField(sm.rings.PrimeField(3), "u")
    Matrix, lat = sm.linalg.Matrix, sm.lattices
    base = lat.base_lattice(K, 4, "pimodular")
    gens = []
    for _ in range(5):
        rand = Matrix(K, [[K.random_poly(rng, 2) for _ in range(4)]
                          for _ in range(4)])
        upper = base.matrix * rand * K.monomial(-1)
        lower = base.matrix * K.monomial(1)
        gens.append(Matrix.from_cols(K, upper.cols() + lower.cols()))
    ok = True
    for G in gens:
        L = lat.LaurentLattice(K, G)
        ok = (ok and lat.LaurentLattice(K, L.matrix) == L
              and all(L.contains_vector(c) for c in G.cols()))
    return _per_op(lambda: [lat.LaurentLattice(K, G) for G in gens],
                   len(gens), 5), ok


def _buchberger(sm, rng):
    charts = sm.charts
    pres = charts.reduced_presentation(4, 6, base=sm.rings.PrimeField(3),
                                       set_pi_zero=True)
    gb = charts.groebner(pres.generators, variable_limit=32)
    ok = all(gb.contains(g) for g in pres.generators)
    return _per_op(lambda: charts.groebner(pres.generators, variable_limit=32),
                   1, 3), ok


# metric name -> (kernel, factor from seconds to the metric's unit)
KERNELS = {
    "rings.ff_mul_ns": (_ff_mul, 1e9),
    "rings.rf_mul_us": (_rf_mul, 1e6),
    "linalg.matmul8_fp_us": (_matmul8, 1e6),
    "linalg.rref4x8_fp_us": (_rref4x8, 1e6),
    "linalg.smith_local_ms": (_smith_local, 1e3),
    "lattices.hermite_ms": (_hermite, 1e3),
    "charts.buchberger_ms": (_buchberger, 1e3),
}


def kernels(out, seed):
    sm = types.SimpleNamespace(**import_package())
    values, wrong = {}, []
    for name, (kernel, scale) in KERNELS.items():
        per_op, ok = kernel(sm, random.Random(f"{seed}:{name}"))
        values[name] = per_op * scale
        if not ok:
            wrong.append(name)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"values": values, "wrong": wrong}, fh)


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "trace":
        return trace(rest[0], rest[1:])
    elif mode == "kernels":
        kernels(rest[0], int(rest[1]))
    else:
        sys.exit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
