"""Command-line surface: parse input files, run the linkage and germ
pipelines, and emit deterministic text or JSON reports.

Exit codes: 0 success, 1 for I/O and syntax problems, 2 when a
mathematical precondition fails (and for `verify` when a check fails).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import hilbert as _hilbert
from .discrepancy import cid_routes, genus_report
from .errors import InputError, MathPrecondition
from .files import (
    load_text,
    parse_field_flag,
    parse_germ_text,
    parse_ring_text,
    sniff_format,
)
from .germs import (
    cid_local_direct,
    cid_local_multiplicities,
    general_ci_germ,
    germ_invariants,
)
from .groebner import groebner_basis
from .ideals import (
    INFINITE,
    Ideal,
    eliminate,
    ideal_product,
    ideal_sum,
    intersect,
    is_saturated,
    quotient,
    radical_zero_dim,
    saturate,
    saturate_irrelevant,
    vdim,
)
from .linkage import CurveInput, construct_ci, construct_ci_transversal, witness_to_dict
from .orders import Block, order_from_name

VERSION = "0.1.0"

IDEAL_OPS = (
    "sum", "product", "intersect", "quotient", "saturate",
    "saturate-irrelevant", "eliminate", "radical",
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later `main` in the process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="cidcurve",
        description="exact linkage invariants for projective curves "
                    "and curve germs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="ring or germ file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--field", default=None,
                       help="QQ or Fp:<p>; overrides the file header")
        p.add_argument("--route", default="auto",
                       choices=("auto", "direct", "smooth", "lci", "aci"))
        p.add_argument("--output", default="text", choices=("text", "json"))
        p.add_argument("--precision-cap", dest="precision_cap", type=int,
                       default=256)
        p.add_argument("--max-attempts", dest="max_attempts", type=int,
                       default=24)
        p.add_argument("--transversal", action="store_true")
        return p

    gb = command("gb", "reduced Groebner basis of a named ideal")
    gb.add_argument("--ideal", default=None)
    gb.add_argument("--order", default="grevlex")

    op = command("ideal-op", "binary and unary ideal operations")
    op.add_argument("--op", required=True, choices=IDEAL_OPS)
    op.add_argument("--left", default=None)
    op.add_argument("--right", default=None)
    op.add_argument("--vars", default=None,
                    help="comma-separated variables to eliminate")

    inv = command("invariants", "dimension, degree and genus of an ideal")
    inv.add_argument("--ideal", default=None)

    cc = command("construct-ci", "draw and certify a linking complete "
                                 "intersection through the curve")
    cc.add_argument("--ideal", default=None)

    cid = command("cid", "complete-intersection discrepancy by the "
                         "selected routes")
    cid.add_argument("--ideal", default=None)

    gen = command("genus", "degrees, discrepancy and genus identities")
    gen.add_argument("--ideal", default=None)

    command("local", "invariants of a curve germ from its branches")

    ver = command("verify", "run every check the input supports")
    ver.add_argument("--ideal", default=None)
    return parser


# --- command bodies ----------------------------------------------------


def _pick(ring_file, name):
    if name is None:
        return ring_file.first_ideal()
    return name, ring_file.named(name)


def _curve(ring_file, name, seed, transversal, max_attempts):
    picked, gens = _pick(ring_file, name)
    curve = CurveInput(ring_file.ring, list(gens))
    build = construct_ci_transversal if transversal else construct_ci
    witness = build(curve, seed=seed, max_attempts=max_attempts)
    return picked, curve, witness


def _order(name, arity):
    try:
        order = order_from_name(name)
    except ValueError:
        raise InputError(f"unknown monomial order {name!r}") from None
    if isinstance(order, Block) and not 0 < order.split < arity:
        raise InputError(f"{name} needs 0 < k < {arity}")
    return order


def _cmd_gb(args, ring_file):
    name, gens = _pick(ring_file, args.ideal)
    basis = groebner_basis(list(gens),
                           order=_order(args.order, ring_file.ring.arity),
                           ring=ring_file.ring)
    result = {
        "ideal": name,
        "order": args.order,
        "basis": [str(g) for g in basis.elements],
        "is_unit": basis.is_unit(),
    }
    return result, {}


def _cmd_ideal_op(args, ring_file):
    ring = ring_file.ring
    left_name, left_gens = _pick(ring_file, args.left)
    left = Ideal(ring, list(left_gens))
    right = None
    right_name = args.right
    if args.op in ("sum", "product", "intersect", "quotient", "saturate"):
        if right_name is None:
            raise InputError(f"--right is required for --op {args.op}")
        right = Ideal(ring, list(ring_file.named(right_name)))
    if args.op == "sum":
        out = ideal_sum(left, right)
    elif args.op == "product":
        out = ideal_product(left, right)
    elif args.op == "intersect":
        out = intersect(left, right)
    elif args.op == "quotient":
        out = quotient(left, right)
    elif args.op == "saturate":
        out = saturate(left, right)
    elif args.op == "saturate-irrelevant":
        out = saturate_irrelevant(left)
    elif args.op == "radical":
        out = radical_zero_dim(left)
    else:
        if not args.vars:
            raise InputError("--vars is required for --op eliminate")
        index = {n: i for i, n in enumerate(ring.names)}
        try:
            drop = tuple(index[v.strip()] for v in args.vars.split(","))
        except KeyError as err:
            raise InputError(f"unknown variable {err.args[0]!r}")
        if len(set(drop)) == ring.arity:
            raise InputError("cannot eliminate every variable")
        out = eliminate(left, drop)
    result = {
        "op": args.op,
        "left": left_name,
        "right": right_name,
        "ring": " ".join(out.ring.names),
        "generators": [str(g) for g in out.generators],
    }
    return result, {}


def _cmd_invariants(args, ring_file):
    name, gens = _pick(ring_file, args.ideal)
    a = Ideal(ring_file.ring, list(gens))
    length = vdim(a)
    result = {
        "ideal": name,
        "krull_dimension": _hilbert.krull_dimension(a),
        "proj_dimension": _hilbert.proj_dimension(a),
        "degree": _hilbert.proj_degree(a),
        "vdim": "infinite" if length == INFINITE else length,
        "saturated": is_saturated(a),
    }
    if result["proj_dimension"] == 1:
        result["arithmetic_genus"] = _hilbert.arithmetic_genus(a)
    return result, {}


def _cmd_construct_ci(args, ring_file):
    name, _, witness = _curve(ring_file, args.ideal, args.seed,
                              args.transversal, args.max_attempts)
    result = {"ideal": name, "witness": witness_to_dict(witness)}
    return result, dict(witness.tests)


def _cmd_cid(args, ring_file):
    name, curve, witness = _curve(ring_file, args.ideal, args.seed,
                                  args.transversal, args.max_attempts)
    routes = cid_routes(curve, witness, route=args.route)
    result = {
        "ideal": name,
        "cid": next(iter(routes.values())),
        "routes": dict(routes),
        "witness": witness_to_dict(witness),
    }
    checks = {"route_agreement": len(set(routes.values())) == 1}
    return result, checks


def _cmd_genus(args, ring_file):
    """The genus report; `verify` adds the witness certification tests."""
    name, curve, witness = _curve(ring_file, args.ideal, args.seed,
                                  args.transversal, args.max_attempts)
    report = genus_report(curve, witness)
    result = report.to_dict()
    checks = dict(result.pop("checks"))
    if args.command == "verify":
        for test, verdict in witness.tests.items():
            checks[f"witness_{test}"] = verdict
    result["ideal"] = name
    result["witness"] = witness_to_dict(witness)
    return result, checks


def _cmd_local(args, germ_file):
    branches = list(germ_file.branches)
    if germ_file.ideal_gens is None:
        base = germ_invariants(branches, precision_cap=args.precision_cap)
        return base.to_dict(), {}
    x_gens = list(germ_file.ideal_gens)
    z_gens = list(germ_file.ci_gens) if germ_file.ci_gens is not None \
        else list(general_ci_germ(x_gens, seed=args.seed))
    inv = cid_local_multiplicities(x_gens, branches, z_gens,
                                   precision_cap=args.precision_cap)
    direct = cid_local_direct(x_gens, z_gens)
    result = inv.to_dict()
    result["cid_direct"] = direct
    result["ci"] = [str(g) for g in z_gens]
    return result, {"multiplicities_match_direct": inv.cid == direct}


# --- report plumbing ---------------------------------------------------


def _envelope(command, seed, field_name, result, checks, errors):
    return {
        "version": VERSION,
        "command": command,
        "seed": seed,
        "field": field_name,
        "result": result,
        "checks": checks,
        "errors": errors,
    }


def _render_text(payload, stream):
    def walk(prefix, value):
        if isinstance(value, dict):
            if not value:
                print(f"{prefix}: (none)", file=stream)
                return
            for key, item in value.items():
                walk(f"{prefix}.{key}" if prefix else str(key), item)
        elif isinstance(value, (list, tuple)):
            rendered = ", ".join(str(v) for v in value)
            print(f"{prefix}: [{rendered}]", file=stream)
        else:
            print(f"{prefix}: {value}", file=stream)

    for key in ("command", "seed", "field"):
        print(f"{key}: {payload[key]}", file=stream)
    walk("result", payload["result"])
    walk("checks", payload["checks"])
    for err in payload["errors"]:
        print(f"error ({err['type']}): {err['message']}", file=stream)


def _emit(payload, mode, stream):
    if mode == "json":
        print(json.dumps(payload, indent=2, sort_keys=True), file=stream)
    else:
        _render_text(payload, stream)


def run(args) -> int:
    """Execute one parsed job; returns the process exit code."""
    errors = []
    field_name = args.field or "from file"
    result, checks = {}, {}
    code = 0
    try:
        override = parse_field_flag(args.field) if args.field else None
        text = load_text(args.input)
        kind = sniff_format(text)
        if kind == "germ":
            parsed = parse_germ_text(text, field_override=override)
        else:
            parsed = parse_ring_text(text, field_override=override)
        field_name = parsed.ring.field.name()
        if args.command == "local":
            if kind != "germ":
                raise InputError("`local` needs a germ input file")
            result, checks = _cmd_local(args, parsed)
        elif args.command == "verify":
            verify = _cmd_local if kind == "germ" else _cmd_genus
            result, checks = verify(args, parsed)
        else:
            if kind != "ring":
                raise InputError(f"`{args.command}` needs a ring input file")
            handler = {
                "gb": _cmd_gb,
                "ideal-op": _cmd_ideal_op,
                "invariants": _cmd_invariants,
                "construct-ci": _cmd_construct_ci,
                "cid": _cmd_cid,
                "genus": _cmd_genus,
            }[args.command]
            result, checks = handler(args, parsed)
        if args.command == "verify" and not all(checks.values()):
            failed = sorted(k for k, v in checks.items() if not v)
            errors.append({
                "type": "CheckFailed",
                "message": "failed checks: " + ", ".join(failed),
            })
            code = 2
    except (OSError, InputError) as err:
        errors.append({"type": type(err).__name__, "message": str(err)})
        code = 1
    except MathPrecondition as err:
        record = {"type": type(err).__name__, "message": str(err)}
        for key in ("failures", "cap"):
            value = getattr(err, key, None)
            if value is not None:
                record[key] = value
        errors.append(record)
        code = 2
    payload = _envelope(args.command, args.seed, field_name, result, checks,
                        errors)
    _emit(payload, args.output, sys.stderr if code == 1 else sys.stdout)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
