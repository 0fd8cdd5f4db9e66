"""Batch front end: check projectivity, classify, reduce, emit diagrams.

All rationals in interchange JSON are exact "p/q" strings, never floats, so
certificates re-verify bit-for-bit.  Output ordering is canonical and stable
across runs and worker counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from .exactmath import InvariantViolation
from .planefan import (
    FanError,
    cp2_fan,
    fan_from_dict,
    fan_to_dict,
    hirzebruch_fan,
    is_equivalent,
    reduce_to_base,
    rotation_numbers,
)
from .shephard import (
    NotComplete,
    SingularInput,
    _facet_table,
    _validated,
    certify,
    coface_indices,
    s_sigma,
    shephard_diagram,
)
from .wedgepuzzle import (
    InvalidPuzzle,
    build_complex,
    enumerate_puzzles,
    matrix_from_dict,
    matrix_from_fan,
    matrix_to_dict,
    puzzle_to_dict,
    signature,
)

EXIT_PROJECTIVE = 0
EXIT_NOT_POLYTOPAL = 1
EXIT_INVALID = 2
EXIT_DISAGREEMENT = 3


def frac_str(x) -> str:
    """An int or a Fraction as "p" or "p/q"; both are already in lowest terms."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _label_str(lab) -> str:
    return f"{lab[0]}_{lab[1]}" if isinstance(lab, tuple) else str(lab)


def _facet_str(facet) -> str:
    return ",".join(_label_str(lab) for lab in sorted(facet))


def certificate_to_dict(verdict: str, interior=None, heights=None) -> dict:
    out = {"verdict": verdict}
    if interior is not None and interior.point is not None:
        out["witness"] = [frac_str(v) for v in interior.point]
        out["barycentric"] = {
            _facet_str(k): [frac_str(l) for l in lam]
            for k, lam in sorted(interior.barycentric.items())
        }
    if heights is not None and heights.heights is not None:
        out["heights"] = {
            _label_str(lab): frac_str(v) for lab, v in sorted(heights.heights.items())
        }
    return out


class InvalidInput(ValueError):
    """The input JSON has neither the shape of a fan nor of a labeled matrix."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(v, length=None) -> bool:
    return (isinstance(v, list) and all(_is_int(x) for x in v)
            and (length is None or len(v) == length))


def load_input(path: str):
    """A fan {"rays": ...} or a labeled matrix {"n": ..., "cols": ...}."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidInput("input must be a JSON object with 'rays' or 'cols'")
    if "rays" in data:
        rays = data["rays"]
        if not (isinstance(rays, list) and all(_is_int_list(v, 2) for v in rays)):
            raise InvalidInput("'rays' must be a list of integer pairs")
        return fan_from_dict(data)
    if "cols" in data:
        cols = data["cols"]
        if not (isinstance(cols, list) and cols and all(
                isinstance(c, dict) and isinstance(c.get("label"), str)
                and _is_int_list(c.get("v")) for c in cols)):
            raise InvalidInput(
                "'cols' must be a non-empty list of {\"label\": \"i_k\", \"v\": [integers]}")
        if not _is_int(data.get("n")):
            raise InvalidInput("'n' must be an integer")
        return matrix_from_dict(data)
    raise InvalidInput("input must contain 'rays' or 'cols'")


class CannotWrite(OSError):
    """The output file could not be written."""


def _open_out(path):
    """The output stream: path opened for writing, or stdout when path is
    empty.  An unwritable path raises CannotWrite here, before any work."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as e:
        raise CannotWrite(e) from e


def _dump(data: dict, fh) -> None:
    try:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    except OSError as e:
        raise CannotWrite(e) from e


def _write(data: dict, path) -> None:
    with _open_out(path) as fh:
        _dump(data, fh)


def cmd_check(args) -> int:
    try:
        obj = load_input(args.infile)
        verdict, cert1, cert2 = certify(obj)
    except (FanError, InvalidPuzzle, SingularInput, NotComplete, ValueError,
            KeyError, json.JSONDecodeError, OSError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID
    if verdict == "oracle-disagreement":
        ok1 = cert1.kind == "interior-point"
        _write({"verdict": verdict, "shephard": ok1, "support": not ok1}, args.out)
        return EXIT_DISAGREEMENT
    if verdict == "not-strongly-polytopal":
        _write({"verdict": verdict}, args.out)
        return EXIT_NOT_POLYTOPAL
    _write(certificate_to_dict(verdict, cert1, cert2), args.out)
    return EXIT_PROJECTIVE


def _identify_base(base) -> dict:
    if base.m == 3:
        return {"type": "CP2"}
    bound = max(abs(a) for a in rotation_numbers(base)) + 1
    for d in range(bound + 1):
        if is_equivalent(base, hirzebruch_fan(d)):
            return {"type": "hirzebruch", "d": d}
    raise InvariantViolation("terminal 4-ray fan matches no Hirzebruch model")


def cmd_reduce(args) -> int:
    try:
        fan = load_input(args.infile)
        if not hasattr(fan, "rays"):
            raise ValueError("reduce expects a plane fan")
        base, trace = reduce_to_base(fan)
    except (FanError, ValueError, KeyError, json.JSONDecodeError, OSError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID
    _write({
        "trace": trace,
        "base": fan_to_dict(base),
        "base_id": _identify_base(base),
    }, args.out)
    return 0


def cmd_shephard(args) -> int:
    try:
        obj = load_input(args.infile)
        cx = _validated(obj, None)
        facets = _facet_table(obj, cx)
        diagram = shephard_diagram(obj, cx)
        cert = s_sigma(diagram, facets)
    except (FanError, InvalidPuzzle, SingularInput, NotComplete, ValueError,
            KeyError, json.JSONDecodeError, OSError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID
    out = {
        "ambient_dim": diagram.ambient_dim,
        "weights": {_label_str(l): frac_str(w) for l, w in sorted(diagram.weights.items())},
        "points": {_label_str(l): [frac_str(v) for v in p]
                   for l, p in sorted(diagram.points.items())},
        "cofaces": {_facet_str(f): [_label_str(l) for l in sorted(coface_indices(diagram, f))]
                    for f in facets},
        "witness": [frac_str(v) for v in cert.point] if cert.kind == "interior-point" else None,
    }
    _write(out, args.out)
    return 0


def _certify(puzzle):
    mat = puzzle.matrix
    verdict, cert1, cert2 = certify(mat, build_complex(puzzle.sig))
    return {
        "puzzle": puzzle_to_dict(puzzle),
        "matrix": matrix_to_dict(mat),
        "verdict": verdict,
        "certificate": certificate_to_dict(verdict, cert1, cert2),
    }


def cmd_classify(args) -> int:
    try:
        J = tuple(int(x) for x in args.j.split(","))
        sig = signature(args.m, J)
        for flag, value in (("--base-depth", args.base_depth), ("--e-bound", args.e_bound)):
            if value < 0:
                raise ValueError(f"{flag} must be non-negative, got {value}")
    except (ValueError, TypeError) as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return EXIT_INVALID
    # open --out before the run, so that an unwritable path costs no work
    with _open_out(args.out) as fh:
        puzzles = enumerate_puzzles(sig, args.base_depth, args.e_bound)
        workers = args.workers
        if workers > 1 and len(puzzles) > 1:
            import multiprocessing
            with multiprocessing.Pool(workers) as pool:
                records = pool.map(_certify, puzzles)
        else:
            records = [_certify(p) for p in puzzles]
        n = len(records)
        n_proj = sum(1 for r in records if r["verdict"] == "projective")
        n_disagree = sum(1 for r in records if r["verdict"] == "oracle-disagreement")
        _dump({
            "m": sig.m,
            "J": list(sig.J),
            "classes": n,
            "projective": n_proj,
            "oracle_disagreements": n_disagree,
            "fraction_projective": frac_str(Fraction(n_proj, n)) if n else "0",
            "records": records,
        }, fh)
    if n_disagree:
        return EXIT_DISAGREEMENT
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricwedge",
        description="classify toric manifolds over wedged polygons and "
                    "certify them projective with exact rational certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    default_workers = int(os.environ.get("TORICWEDGE_WORKERS", "1"))

    p = sub.add_parser("check", help="certify one fan or characteristic matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="enumerate and certify all puzzles over P_m(J)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", required=True, help="comma-separated multiplicities j_1,...,j_m")
    p.add_argument("--base-depth", type=int, default=3)
    p.add_argument("--e-bound", type=int, default=3)
    p.add_argument("--workers", type=int, default=default_workers)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reduce", help="blow down a plane fan to its base")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("shephard", help="emit the diagram and S-witness of a fan")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_shephard)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CannotWrite as e:
        print(f"cannot write output: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
