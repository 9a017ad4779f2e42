"""Command-line surface: parse input files, run the linkage and germ
pipelines, and emit deterministic text or JSON reports.

`COMMANDS` is the one table of subcommands: the parser takes from it
each command's options, and `run` its body for the input file's kind.
For `verify`, which takes either kind, `KIND_OPTIONS` names the options
each kind reads; another one given is an input error.

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

# `--op` name -> (function, the option that names its second operand)
IDEAL_OPS = {
    "sum": (ideal_sum, "right"),
    "product": (ideal_product, "right"),
    "intersect": (intersect, "right"),
    "quotient": (quotient, "right"),
    "saturate": (saturate, "right"),
    "saturate-irrelevant": (saturate_irrelevant, None),
    "eliminate": (eliminate, "vars"),
    "radical": (radical_zero_dim, None),
}


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
    function, operand = IDEAL_OPS[args.op]
    for option in ("right", "vars"):
        if option != operand and getattr(args, option) is not None:
            raise InputError(f"--op {args.op} does not read --{option}")
    ring = ring_file.ring
    left_name, left_gens = _pick(ring_file, args.left)
    left = Ideal(ring, list(left_gens))
    if operand == "right":
        if args.right is None:
            raise InputError(f"--right is required for --op {args.op}")
        out = function(left, Ideal(ring, list(ring_file.named(args.right))))
    elif operand == "vars":
        if not args.vars:
            raise InputError("--vars is required for --op eliminate")
        index = {n: i for i, n in enumerate(ring.names)}
        try:
            drop = tuple(index[v.strip()] for v in args.vars.split(","))
        except KeyError as err:
            raise InputError(f"unknown variable {err.args[0]!r}")
        if len(set(drop)) == ring.arity:
            raise InputError("cannot eliminate every variable")
        out = function(left, drop)
    else:
        out = function(left)
    result = {
        "op": args.op,
        "left": left_name,
        "right": args.right,
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


# --- command table -----------------------------------------------------


# option -> its `add_argument` keywords
OPTIONS = {
    "--ideal": {"default": None},
    "--order": {"default": "grevlex"},
    "--op": {"required": True, "choices": IDEAL_OPS},
    "--left": {"default": None},
    "--right": {"default": None},
    "--vars": {"default": None,
               "help": "comma-separated variables to eliminate"},
    "--route": {"default": "auto",
                "choices": ("auto", "direct", "smooth", "lci", "aci")},
    "--precision-cap": {"dest": "precision_cap", "type": int, "default": 256},
    "--max-attempts": {"dest": "max_attempts", "type": int, "default": 24},
    "--transversal": {"action": "store_true", "default": False},
}

# the options of the commands that draw a linking complete intersection
WITNESS = ("--ideal", "--max-attempts", "--transversal")

# input kind -> the options its bodies read, for a command that takes
# either kind
KIND_OPTIONS = {"ring": WITNESS, "germ": ("--precision-cap",)}

# command -> (help text, its body for each input kind it takes, the
# options it reads besides --input, --seed, --field and --output)
COMMANDS = {
    "gb": ("reduced Groebner basis of a named ideal",
           {"ring": _cmd_gb}, ("--ideal", "--order")),
    "ideal-op": ("binary and unary ideal operations",
                 {"ring": _cmd_ideal_op},
                 ("--op", "--left", "--right", "--vars")),
    "invariants": ("dimension, degree and genus of an ideal",
                   {"ring": _cmd_invariants}, ("--ideal",)),
    "construct-ci": ("draw and certify a linking complete intersection "
                     "through the curve", {"ring": _cmd_construct_ci},
                     WITNESS),
    "cid": ("complete-intersection discrepancy by the selected routes",
            {"ring": _cmd_cid}, WITNESS + ("--route",)),
    "genus": ("degrees, discrepancy and genus identities",
              {"ring": _cmd_genus}, WITNESS),
    "local": ("invariants of a curve germ from its branches",
              {"germ": _cmd_local}, ("--precision-cap",)),
    "verify": ("run every check the input supports",
               {"ring": _cmd_genus, "germ": _cmd_local},
               WITNESS + ("--precision-cap",)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built from `COMMANDS` on the first call
    and shared by every later `main` in the process; parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="cidcurve",
        description="exact linkage invariants for projective curves "
                    "and curve germs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, bodies, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="ring or germ file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--field", default=None,
                       help="QQ or Fp:<p>; overrides the file header")
        p.add_argument("--output", default="text", choices=("text", "json"))
        for option in options:
            keywords = OPTIONS[option]
            if len(bodies) > 1:
                # whether the option is read depends on the input's kind,
                # so the parser sets only the options given, and
                # `_kind_options` checks them and fills in the defaults
                keywords = {**keywords, "default": argparse.SUPPRESS}
            p.add_argument(option, **keywords)
    return parser


def _kind_options(args, kind, options):
    """For a command that takes either kind of input: an option given
    that the input's kind does not read is an InputError, and an option
    it reads that was not given takes its default."""
    for option in options:
        dest = OPTIONS[option].get("dest", option[2:])
        if option not in KIND_OPTIONS[kind]:
            if hasattr(args, dest):
                raise InputError(f"`{args.command}` on a {kind} input file "
                                 f"does not read {option}")
        elif not hasattr(args, dest):
            setattr(args, dest, OPTIONS[option]["default"])


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
        parse = parse_germ_text if kind == "germ" else parse_ring_text
        parsed = parse(text, field_override=override)
        field_name = parsed.ring.field.name()
        _, bodies, options = COMMANDS[args.command]
        if kind not in bodies:
            raise InputError(
                f"`{args.command}` needs a {' or '.join(bodies)} input file")
        if len(bodies) > 1:
            _kind_options(args, kind, options)
        result, checks = bodies[kind](args, parsed)
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
