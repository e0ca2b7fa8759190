"""Command-line front end: parse ideal files, dispatch operations, emit JSON.

Exit codes: 0 success, 1 malformed input, malformed argv or an unwritable
--output (the document then goes to stdout), 2 honest certification failures
(uncertified genericity, lex-segment cap, truncated enumeration, exhausted
memory).
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

from .circuits import alpha_vector, circuits_truncated
from .fan import (
    FanConsistencyError,
    cone_of,
    enumerate_fan,
    generic_fan_compare,
    newton_fan_oracle,
    universal_basis,
)
from .generic import (
    RandomSpec,
    UncertifiedError,
    gcs_truncated,
    normalize_weight,
    stab_check,
)
from .groebner import (
    CapTooSmallError,
    IdealHandle,
    MacaulayError,
    basis_json,
    hilbert_function,
    homogenize_ideal_w,
    initial_ideal_w,
    lex_bound,
    parse_ideal_file,
    specialize_t,
)
from .linalg import graded_basis
from .order import parse_order
from .ring import field_from_spec, parse_weight, poly_str, Polynomial, PolyRing

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_UNCERTIFIED = 2


def _load_ideal(path: str, field_override: str = None):
    with open(path) as fh:
        text = fh.read()
    return parse_ideal_file(text, field_from_spec(field_override) if field_override else None)


class ArgumentError(ValueError):
    """Malformed command line."""


class _Parser(argparse.ArgumentParser):
    # argparse's own error exits 2, the code of a failed certification
    def error(self, message):
        raise ArgumentError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones
    (parse_args keeps no state between calls).  Subcommand parsers share its
    class, so every argv error raises ArgumentError."""
    p = _Parser(
        prog="circuitfan",
        description="Exact circuits sets, weight initial ideals and Groebner-fan "
        "cells for homogeneous ideals.",
    )
    p.add_argument("--output", help="write the JSON document to a file")
    p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp")
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, **kw):
        c = sub.add_parser(name, **kw)
        c.add_argument("input", help="ideal file")
        c.add_argument("--field", help="field override, e.g. gf:32003")
        c.add_argument("--seed", type=int, default=0)
        return c

    c = cmd("gb", help="reduced Groebner basis")
    c.add_argument("--order", default="drl")

    c = cmd("inw", help="weight initial ideal")
    c.add_argument("--weight", required=True)
    c.add_argument("--tie", default="drl")

    c = cmd("circuits", help="truncated circuits set")
    c.add_argument("--trunc", type=int, required=True)
    c.add_argument("--size-cap", type=int, default=None)

    c = cmd("gcs", help="certified truncated generic circuits set")
    c.add_argument("--trunc", type=int, required=True)
    c.add_argument("--retries", type=int, default=3)

    c = cmd("alpha", help="filtration rank vector of a graded piece")
    c.add_argument("--weight", required=True)
    c.add_argument("--degree", type=int, required=True)

    c = cmd("fan-cell", help="cone of the fan cell of a weight")
    c.add_argument("--weight", required=True)
    c.add_argument("--tie", default="drl")

    c = cmd("fan-enum", help="certified fan sampling on an integer box")
    c.add_argument("--box", type=int, default=4)
    c.add_argument("--step", type=int, default=1)
    c.add_argument("--tie", default="drl")
    c.add_argument("--oracle", action="store_true",
                   help="principal ideals only: use the Newton-polytope oracle")

    c = cmd("fan-compare", help="one-directional fan equality certificate")
    c.add_argument("--other", required=True, help="second ideal file")
    c.add_argument("--mode", choices=["generic", "deterministic"], default="generic")

    c = cmd("stab", help="Borel-subgroup invariance report")
    c.add_argument("--weight", required=True)
    c.add_argument("--gtrials", type=int, default=2)
    c.add_argument("--btrials", type=int, default=5)
    c.add_argument("--identity-g", action="store_true",
                   help="negative control: use the identity change")

    c = cmd("hf", help="Hilbert function")
    c.add_argument("--dmax", type=int, default=6)

    c = cmd("lexseg", help="lex-segment ideal and generator bound")
    c.add_argument("--cap", type=int, default=None)

    c = cmd("ugb", help="canonical universal basis on a sampled box")
    c.add_argument("--box", type=int, default=4)
    c.add_argument("--step", type=int, default=1)

    c = cmd("flatfam", help="weight homogenization and its specializations")
    c.add_argument("--weight", required=True)
    c.add_argument("--at", default=None, help="extra specialization value")

    return p


def _weight(args, ring) -> tuple:
    """``--weight``, which must have one entry per variable of the ring."""
    w = parse_weight(args.weight)
    if len(w) != ring.n:
        raise ValueError(f"weight {w} has {len(w)} entries for {ring.n} variables")
    return w


def _renamed(ideal: IdealHandle, perm) -> IdealHandle:
    """The ideal in the ring whose variable i is variable perm[i] of the
    ideal's ring: exponents move with their names."""
    ring = ideal.ring
    new = PolyRing(tuple(ring.names[i] for i in perm), ring.field)
    gens = [
        Polynomial(new, {tuple(m[i] for i in perm): c for m, c in g.terms.items()})
        for g in ideal.generators
    ]
    return IdealHandle(new, gens)


def _dispatch(args, ring, ideal, seed):
    spec = RandomSpec(seed)
    cmd = args.command
    if cmd == "gb":
        gb = ideal.groebner(parse_order(args.order))
        return EXIT_OK, {"basis": basis_json(gb)}
    if cmd == "inw":
        w = _weight(args, ring)
        J = initial_ideal_w(ideal, w, tie=parse_order(args.tie))
        return EXIT_OK, {
            "weight": list(w),
            "initial_ideal": [poly_str(g) for g in J.groebner().elements],
        }
    if cmd == "circuits":
        cs = circuits_truncated(ideal, args.trunc, size_cap=args.size_cap)
        doc = {"trunc": args.trunc, "circuits": cs.to_json(ring)}
        if cs.truncated:
            doc["truncated_at_size_cap"] = args.size_cap
            return EXIT_UNCERTIFIED, doc
        return EXIT_OK, doc
    if cmd == "gcs":
        cs = gcs_truncated(ideal, args.trunc, spec, retries=args.retries)
        doc = {"trunc": args.trunc, "circuits": cs.to_json(ring)}
        if ring.field.characteristic:
            doc["genericity"] = "heuristic (finite field)"
        return EXIT_OK, doc
    if cmd == "alpha":
        w, perm, shift = normalize_weight(_weight(args, ring))
        W = graded_basis(_renamed(ideal, perm), args.degree)
        av = alpha_vector(W, w)
        return EXIT_OK, {
            "degree": args.degree,
            "weight": list(w),
            "permutation": list(perm),
            "shift": shift,
            "alpha": list(av.values),
        }
    if cmd == "fan-cell":
        w = _weight(args, ring)
        cone = cone_of(ideal, w, tie=parse_order(args.tie))
        return EXIT_OK, {"weight": list(w), **cone.to_json()}
    if cmd == "fan-enum":
        tie = parse_order(args.tie)
        if args.oracle:
            if len(ideal.generators) != 1:
                raise ValueError("--oracle needs a principal ideal")
            sketch = newton_fan_oracle(ideal.generators[0], args.box, args.step)
        else:
            sketch = enumerate_fan(ideal, args.box, args.step, tie=tie)
        return EXIT_OK, {"fan": sketch.to_json()}
    if cmd == "fan-compare":
        _, other = _load_ideal(args.other, args.field)
        verdict = generic_fan_compare(ideal, other, spec, mode=args.mode)
        return EXIT_OK, verdict
    if cmd == "stab":
        w, perm, shift = normalize_weight(_weight(args, ring))
        report = stab_check(
            _renamed(ideal, perm),
            w,
            spec,
            g_trials=args.gtrials,
            b_trials=args.btrials,
            force_identity_g=args.identity_g,
        )
        report["permutation"] = list(perm)
        report["shift"] = shift
        return EXIT_OK, report
    if cmd == "hf":
        H = hilbert_function(ideal, args.dmax)
        return EXIT_OK, {
            "dmax": args.dmax,
            "ideal_dims": list(H.ideal_dims),
            "quotient_dims": list(H.quotient_dims()),
        }
    if cmd == "lexseg":
        L, D = lex_bound(ideal, args.cap)
        return EXIT_OK, {
            # lex_bound reads up to D + 1 whatever the cap, reported without one
            "cap": D + 1 if args.cap is None else args.cap,
            "lex_segment": [poly_str(g) for g in L.generators],
            "generator_bound": D,
        }
    if cmd == "ugb":
        sketch = enumerate_fan(ideal, args.box, args.step)
        basis = universal_basis(ideal, sketch)
        return EXIT_OK, {
            "box": args.box,
            "cells": len(sketch.cells),
            "universal_basis": [poly_str(g) for g in basis],
        }
    if cmd == "flatfam":
        w = _weight(args, ring)
        H = homogenize_ideal_w(ideal, w)
        doc = {
            "weight": list(w),
            "homogenized": [poly_str(g) for g in H.generators],
            "at_1": [poly_str(g) for g in specialize_t(H, ring.field.one).generators],
            "at_0": [
                poly_str(g) for g in specialize_t(H, ring.field.zero).generators
            ],
        }
        if args.at is not None:
            a = ring.field.parse(args.at)
            doc["at_value"] = args.at
            doc["at"] = [poly_str(g) for g in specialize_t(H, a).generators]
        return EXIT_OK, doc
    raise ValueError(f"unknown command {cmd!r}")


_escape = json.encoder.encode_basestring_ascii
_int_text = int.__repr__


def dumps(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2)``.  That call always runs the
    pure-Python encoder, since the C one cannot indent before Python 3.12;
    here strings go through the C escaper and plain ints through
    ``int.__repr__``, and anything else (bool, None, float, an empty
    container, a dict with a key that is not a str) goes to ``json.dumps``
    itself."""
    out = []
    _emit(doc, "\n", out)
    return "".join(out)


def _emit(x, nl, out):
    t = type(x)
    if t is str:
        out.append(_escape(x))
    elif t is int:
        out.append(_int_text(x))
    elif (t is list or t is tuple) and x:
        inner = nl + "  "
        first = type(x[0])
        if first is str:
            # the escaper raises TypeError on the first item that is no str
            try:
                out.append(f"[{inner}{(',' + inner).join(map(_escape, x))}{nl}]")
                return
            except TypeError:
                pass
        # type(True) is bool, so bools stay off the int path
        elif first is int and all(type(v) is int for v in x):
            out.append(f"[{inner}{(',' + inner).join(map(_int_text, x))}{nl}]")
            return
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _emit(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict and x and all(type(k) is str for k in x):
        inner = nl + "  "
        sep = "{" + inner
        for k, v in x.items():
            out.append(f"{sep}{_escape(k)}: ")
            _emit(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        # escaped strings hold no raw newline, so indenting every line break
        # places json's own text at this depth
        out.append(json.dumps(x, indent=2).replace("\n", nl))


def _glued(argv) -> list:
    """argv with each value that starts with a minus and a digit joined to the
    option before it, as ``--weight=-1,0,5``: argparse alone takes
    ``-1,0,5`` for an option."""
    out = []
    for arg in argv:
        if out and re.fullmatch(r"--\w[\w-]*", out[-1]) and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_glued(sys.argv[1:] if argv is None else argv))
    except ArgumentError as e:
        # nothing was parsed: no config, and no --output to write to
        print(dumps({"error": {"kind": type(e).__name__, "reason": str(e)}}))
        return EXIT_BAD_INPUT
    config = {k: v for k, v in sorted(vars(args).items()) if k != "output"}
    document = {"config": config}
    if not args.no_timestamp:
        document["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    try:
        ring, ideal = _load_ideal(args.input, args.field)
        code, payload = _dispatch(args, ring, ideal, args.seed)
        document.update(payload)
    except (UncertifiedError, CapTooSmallError, MacaulayError, FanConsistencyError) as e:
        code = EXIT_UNCERTIFIED
        document["error"] = {"kind": type(e).__name__, "reason": str(e)}
    except MemoryError as e:
        # exhausted memory is an exhausted budget; unwinding freed the work's
        # memory for the document
        code = EXIT_UNCERTIFIED
        document["error"] = {"kind": type(e).__name__, "reason": str(e) or "out of memory"}
    except (ValueError, OSError, ArithmeticError, RecursionError) as e:
        # an arithmetic error that gets past the parsers, or input nested
        # past the interpreter's recursion limit, still ends in a document
        code = EXIT_BAD_INPUT
        document["error"] = {"kind": type(e).__name__, "reason": str(e)}
    text = dumps(document)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
            return code
        except OSError as e:
            # the document goes to stdout instead; this error replaces any other
            code = EXIT_BAD_INPUT
            document["error"] = {"kind": type(e).__name__, "reason": str(e)}
            text = dumps(document)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
