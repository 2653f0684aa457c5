"""Command-line front end over the verification suites.

Each subcommand runs one family of checks and writes a single
machine-readable report: ``census`` counts validated points per stratum,
``closure`` verifies the closure order with explicit one-parameter lifts
and obstruction witnesses, ``charts`` samples seeded chart points and
compares invariants against chart predictions, ``flatlift`` checks the
skew-lift identities, ``groebner`` computes reduced bases with membership
certificates, and ``schubert`` runs the lattice-side comparison.

Exit status 0 means every enabled check passed, 1 means the report contains
at least one failing certificate or the ``fault`` that stopped the run, and
2 means the configuration was rejected before any checking started or the
job exceeded its budget.  Reports carry no timestamps and all
randomness is seeded, so a rerun with identical configuration reproduces
the output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import NamedTuple

from .charts import (
    PAIR_BUDGET,
    flat_lift,
    groebner,
    is_squarefree,
    macaulay_member,
    reduce_poly,
    reduced_presentation,
    substitution_check,
)
from .degenerations import (
    ClosurePoset,
    admissible_generization_pairs,
    generization_lift,
    nonsmooth_witness,
)
from .errors import BudgetExceeded, SplitModelError
from .lattices import _fiber_report, _phi_image, _shifted_cell
from .linalg import Matrix, det
from .points import (
    census,
    invariants,
    iter_validated_points,
    sample_eps_chart_point,
    sample_general_chart_point,
)
from .rings import FunctionField, PrimeField

SCHEMA_VERSION = 1

# prime fields small enough for exhaustive work; the default bound
ALLOWED_Q = (3, 5, 7)

OUTPUT_DIR_VAR = "SPLITMODEL_OUTPUT_DIR"

FLATLIFT_PROFILES = ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1))

# how many failing certificates a report serializes in full
CERTIFICATE_CAP = 5

LONG_JOB_VARIABLE_LIMIT = 32


class ConfigError(Exception):
    """Rejected configuration; the message is printed and the run exits 2."""


class ReportConfig(NamedTuple):
    """Normalized parameters of one run, embedded verbatim in its report.
    Options a subcommand does not take keep these defaults."""

    command: str
    n: int | None = None
    s: int | None = None
    q: int = 3
    truncation: int = 3
    seed: int = 0
    budget: int | None = None
    strategy: str | None = None
    output: str | None = None
    fmt: str = "json"
    allow_long: bool = False
    workers: int = 1

    def to_json_dict(self):
        out = self._asdict()
        out["format"] = out.pop("fmt")
        return out


def _config_from_args(args) -> ReportConfig:
    defaults = ReportConfig._field_defaults
    values = {name: getattr(args, name, defaults.get(name))
              for name in ReportConfig._fields}
    values["output"] = _resolve_output(values["output"])
    return _validate(ReportConfig(**values))


def _validate(cfg: ReportConfig) -> ReportConfig:
    """Reject a bad configuration; return it with the budget resolved."""
    if cfg.fmt == "csv" and cfg.command != "census":
        raise ConfigError("csv output is limited to the census strata table")
    if cfg.n is not None:
        if cfg.n % 2 != 0:
            raise ConfigError("n must be even")
        if cfg.n < 4:
            raise ConfigError("n must be at least 4")
    if cfg.s is not None:
        if cfg.s < 1:
            raise ConfigError("s must be at least 1")
        if cfg.n is not None and cfg.s > cfg.n // 2:
            raise ConfigError("s must be at most n/2")
    if cfg.q not in ALLOWED_Q:
        raise ConfigError("q must be an odd prime: 3, 5 or 7")
    if cfg.truncation < 3:
        raise ConfigError("truncation must be at least 3")
    if cfg.budget is not None and cfg.budget < 1:
        raise ConfigError("budget must be positive")
    if cfg.workers < 1:
        raise ConfigError("workers must be positive")
    if cfg.command == "groebner":
        if cfg.s not in (2, 3, 4):
            raise ConfigError("s must be 2, 3, or 4 for basis jobs")
        if cfg.s == 4 and not cfg.allow_long:
            raise ConfigError(
                "the s=4 basis job is long; pass --allow-long to run it")
    if cfg.budget is not None:
        return cfg
    # sampling strategies read the budget as a draw count, enumeration as
    # a candidate cap; resolve the default per meaning
    if cfg.command == "flatlift":
        budget = 100
    elif cfg.command == "groebner":
        budget = PAIR_BUDGET
    elif cfg.command == "charts" or cfg.strategy == "chart-sampled":
        budget = 1000
    else:
        budget = 10 ** 8
    return cfg._replace(budget=budget)


def _resolve_output(path):
    """A bare filename lands in the directory the environment names."""
    if path is None:
        return None
    if not os.path.dirname(path):
        base = os.environ.get(OUTPUT_DIR_VAR, "")
        if base:
            return os.path.join(base, path)
    return path


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (report body, failure count)
# ---------------------------------------------------------------------------

def _run_census(cfg):
    result = census(cfg.n, cfg.s, cfg.q, strategy=cfg.strategy,
                    budget=cfg.budget, seed=cfg.seed, workers=cfg.workers)
    failures = 0
    if cfg.strategy == "chart-sampled":
        # sampled points are built inside the charts and must all validate
        failures += sum(result.rejected.values())
        failures += result.params.get("prediction_mismatches", 0)
    return {"census": result.to_json_dict()}, failures


def _run_closure(cfg):
    poset = ClosurePoset(cfg.s)
    failures = 0
    lifts = []
    for source, target in admissible_generization_pairs(cfg.s):
        rec = generization_lift(cfg.n, cfg.s, source, target, seed=cfg.seed)
        entry = rec.to_json_dict()
        lifts.append(entry)
        if not entry["ok"]:
            failures += 1
    witnesses = []
    for lab in poset.labels:
        if lab.h < lab.l:
            w = nonsmooth_witness(cfg.n, cfg.s, lab, order=cfg.truncation)
            entry = w.to_json_dict()
            witnesses.append(entry)
            if not (entry["validates"] and entry["matches_expected"]):
                failures += 1
    body = {
        "poset": poset.to_json_dict(),
        "closures": {f"{a.h},{a.l}": sorted([b.h, b.l] for b in
                                            poset.closure(a))
                     for a in poset.labels},
        "lifts": lifts,
        "witnesses": witnesses,
    }
    return body, failures


def _sampled_points(cfg, field, rng):
    """Alternate the two seeded chart samplers for cfg.budget draws."""
    labels = ClosurePoset(cfg.s).labels
    for k in range(cfg.budget):
        if k % 2 == 0:
            yield "eps-chart", sample_eps_chart_point(cfg.n, cfg.s, field,
                                                      rng)
        else:
            h, l = labels[rng.randrange(len(labels))]
            yield "general-chart", sample_general_chart_point(
                cfg.n, cfg.s, h, l, field, rng)


def _run_charts(cfg):
    field = PrimeField(cfg.q)
    rng = random.Random(cfg.seed)
    checked = agreed = 0
    tallies = {}
    certificates = []
    for kind, point in _sampled_points(cfg, field, rng):
        checked += 1
        if not point.report.verdict:
            if len(certificates) < CERTIFICATE_CAP:
                certificates.append({"kind": kind, "failure": "invalid",
                                     "flags": point.report.as_dict()})
            continue
        lab = invariants(point)
        tallies[lab] = tallies.get(lab, 0) + 1
        if lab == point.predicted_label:
            agreed += 1
        elif len(certificates) < CERTIFICATE_CAP:
            certificates.append({
                "kind": kind, "failure": "prediction mismatch",
                "predicted": list(point.predicted_label),
                "observed": list(lab)})
    failures = checked - agreed
    body = {
        "checked": checked,
        "agreed": agreed,
        "strata": [{"h": lab[0], "l": lab[1], "count": tallies[lab]}
                   for lab in sorted(tallies)],
        "certificates": certificates,
    }
    return body, failures


def _run_flatlift(cfg):
    ff = FunctionField(PrimeField(cfg.q), "pi")
    pi = ff.gen
    two_pi = pi + pi
    rng = random.Random(cfg.seed)

    def random_invertible(size):
        while True:
            M = Matrix(ff, [[ff.random_poly(rng, 1) for _ in range(size)]
                            for _ in range(size)])
            if not det(M).is_zero():
                return M

    profiles = []
    failures = 0
    certificates = []
    for a, b in FLATLIFT_PROFILES:
        ok = 0
        for _ in range(cfg.budget):
            T0 = random_invertible(a) if a else None
            W0 = random_invertible(b) if b else None
            T, W = flat_lift(T0=T0, W0=W0, pi=pi)
            size = T.nrows
            good = ((T + T.transpose()).is_zero()
                    and (W + W.transpose()).is_zero()
                    and T * W == Matrix.diagonal(ff, [two_pi] * size))
            if good:
                ok += 1
            elif len(certificates) < CERTIFICATE_CAP:
                certificates.append({
                    "profile": [a, b],
                    "T0": None if T0 is None else
                    [[repr(c) for c in row] for row in T0.rows()],
                    "W0": None if W0 is None else
                    [[repr(c) for c in row] for row in W0.rows()],
                })
        failures += cfg.budget - ok
        profiles.append({"profile": [a, b], "checked": cfg.budget,
                         "ok": ok})
    body = {"profiles": profiles, "certificates": certificates}
    return body, failures


def _run_groebner(cfg):
    base = PrimeField(cfg.q)
    r = cfg.s + 2
    variable_limit = LONG_JOB_VARIABLE_LIMIT if cfg.allow_long else None
    kwargs = {"pair_budget": cfg.budget}
    if variable_limit is not None:
        kwargs["variable_limit"] = variable_limit

    pres0 = reduced_presentation(cfg.s, r, base=base, set_pi_zero=True)
    gb0 = groebner(pres0.generators, **kwargs)
    pres1 = reduced_presentation(cfg.s, r, base=base)
    gb1 = groebner(pres1.generators, **kwargs)

    failures = 0
    body = {
        "presentation": pres0.to_json_dict(),
        "basis_special": gb0.to_json_dict(),
        "basis_generic": gb1.to_json_dict(),
    }

    if cfg.s == 2:
        # reducedness base case: principal, squarefree, and the two
        # membership certificates, the second checked by both routes
        ring0 = gb0.ring
        tw = ring0.monomial({"t_1_2": 1, "w_1_2": 1})
        tw_sq = tw * tw
        principal = len(gb0.basis) == 1
        squarefree = principal and is_squarefree(gb0.basis[0])
        member_gb = gb0.contains(tw_sq)
        member_brute = macaulay_member(tw_sq, pres0.generators)
        ring1 = gb1.ring
        tw1 = ring1.monomial({"t_1_2": 1, "w_1_2": 1})
        leftover = reduce_poly(tw1, gb1)
        checks = {
            "principal": principal,
            "generator_squarefree": squarefree,
            "product_square_in_special_ideal": member_gb,
            "product_square_in_special_ideal_brute": member_brute,
            "routes_agree": member_gb == member_brute,
            "product_outside_generic_ideal": not leftover.is_zero(),
        }
        body["certificates"] = dict(checks, generic_leftover=leftover.text())
        failures += sum(1 for ok in checks.values() if not ok)

    if cfg.s in (2, 3):
        sub = substitution_check(cfg.s, r, base=base, pair_budget=cfg.budget)
        body["substitution"] = sub.to_json_dict()
        if not sub.ok:
            failures += 1
    return body, failures


def _run_schubert(cfg):
    """tau_fiber_check over the points and phi_map on those with l = s, in
    one pass that transfers each point to the lattice side once."""
    if cfg.strategy == "chart-sampled":
        field = PrimeField(cfg.q)
        rng = random.Random(cfg.seed)
        labeled = ((p, invariants(p))
                   for _, p in _sampled_points(cfg, field, rng)
                   if p.report.verdict)
        exhaustive = False
    else:
        labeled = iter_validated_points(cfg.n, cfg.s, cfg.q,
                                        budget=cfg.budget)
        exhaustive = True
    fiber = []
    z_points = passed = 0
    phi_failures = []
    for point, label in labeled:
        first, cell = _shifted_cell(point)
        fiber.append((point.s, label, cell))
        if label.l != cfg.s:
            continue
        z_points += 1
        image = _phi_image(point, label, first, cell)
        if image.ok:
            passed += 1
        elif len(phi_failures) < CERTIFICATE_CAP:
            phi_failures.append(image.to_json_dict())
    tau = _fiber_report(fiber, exhaustive, cfg.s)
    failures = len(tau.problems) + z_points - passed
    body = {
        "tau": tau.to_json_dict(),
        "phi": {"z_points": z_points, "passed": passed,
                "failures": phi_failures},
    }
    return body, failures


_HANDLERS = {
    "census": _run_census,
    "closure": _run_closure,
    "charts": _run_charts,
    "flatlift": _run_flatlift,
    "groebner": _run_groebner,
    "schubert": _run_schubert,
}


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _report_text(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    # csv is the flat strata projection of one census
    rows = report["census"]["strata"] if "census" in report else []
    lines = ["h,l,count"]
    lines += [f"{row['h']},{row['l']},{row['count']}" for row in rows]
    return "\n".join(lines) + "\n"


def _emit(report, cfg):
    text = _report_text(report, cfg.fmt)
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------

def _common(command) -> argparse.ArgumentParser:
    """Fresh parent parser per subcommand; sharing one would alias the
    action objects and let a set_defaults on one subparser leak into all.
    A subcommand is offered no option that it would ignore."""
    common = argparse.ArgumentParser(add_help=False)
    if command != "closure":  # the closure families live over F_3 and F_9
        default_q = 5 if command == "flatlift" else 3
        common.add_argument("--q", type=int, default=default_q,
                            help="prime field size (3, 5, or 7; default "
                                 f"{default_q})")
    if command != "groebner":  # the basis jobs draw nothing at random
        common.add_argument("--seed", type=int, default=0,
                            help="seed for every random draw (default 0)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="report file; bare names land in "
                             f"${OUTPUT_DIR_VAR} when set; default stdout")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default="json",
                        help="report format; csv only for census strata")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitmodel",
        description="Exact desk-scale checks of the stratified moduli of "
                    "isotropic subspace pairs and their lattice-side "
                    "counterparts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", parents=[_common("census")],
                       help="count validated points per stratum label")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--strategy", choices=("exhaustive", "chart-sampled"),
                   default="exhaustive")
    p.add_argument("--budget", type=int, default=None,
                   help="candidate cap (exhaustive) or draw count "
                        "(chart-sampled)")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("closure", parents=[_common("closure")],
                       help="closure order, generization lifts, and "
                            "obstruction witnesses")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--n", type=int, default=None,
                   help="ambient rank (default 2s + 2)")
    p.add_argument("--truncation", type=int, default=3,
                   help="series truncation order for obstruction witnesses "
                        "(default 3)")

    p = sub.add_parser("charts", parents=[_common("charts")],
                       help="seeded chart points against their predicted "
                            "invariants")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--budget", type=int, default=None,
                   help="number of sampled points (default 1000)")

    p = sub.add_parser("flatlift", parents=[_common("flatlift")],
                       help="skew-lift identities on seeded invertible "
                            "blocks")
    p.add_argument("--budget", type=int, default=None,
                   help="draws per size profile (default 100)")

    p = sub.add_parser("groebner", parents=[_common("groebner")],
                       help="reduced bases and membership certificates for "
                            "the chart ideals")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--budget", type=int, default=None,
                   help="pair budget for basis computation")
    p.add_argument("--allow-long", action="store_true",
                   help="permit the s=4 job, which needs the larger "
                        "variable bound")

    p = sub.add_parser("schubert", parents=[_common("schubert")],
                       help="lattice cells, pair-test conditions, and fiber "
                            "decomposition")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--strategy", choices=("exhaustive", "chart-sampled"),
                   default="exhaustive")
    p.add_argument("--budget", type=int, default=None,
                   help="candidate cap (exhaustive) or draw count "
                        "(chart-sampled)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "command", None) == "closure" and args.n is None:
        args.n = 2 * args.s + 2
    try:
        cfg = _config_from_args(args)
    except ConfigError as err:
        print(err, file=sys.stderr)
        return 2
    try:
        body, failures = _HANDLERS[cfg.command](cfg)
    except SplitModelError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        if isinstance(err, BudgetExceeded):
            return 2
        # a fault inside a check fails the run; it is not a rejected config
        body = {"fault": {"exception": type(err).__name__,
                          "message": str(err)}}
        failures = 1
    report = {"schema": SCHEMA_VERSION, "config": cfg.to_json_dict(),
              "failures": failures}
    report.update(body)
    _emit(report, cfg)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
