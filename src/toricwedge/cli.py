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
from math import gcd

from .exactmath import InvariantViolation
from .planefan import (
    fan_from_dict,
    fan_to_dict,
    hirzebruch_fan,
    is_equivalent,
    reduce_to_base,
    rotation_numbers,
)
from .shephard import (
    certify,
    coface_indices,
    prepare,
    s_sigma,
    shephard_diagram,
)
from .wedgepuzzle import (
    enumerate_puzzles,
    matrix_from_dict,
    matrix_to_dict,
    puzzle_to_dict,
    signature,
)

EXIT_PROJECTIVE = 0
EXIT_NOT_POLYTOPAL = 1
EXIT_INVALID = 2
EXIT_DISAGREEMENT = 3
EXIT_INTERNAL = 4

# input errors of check, reduce and shephard: every error the library raises
# on a bad input, and json's on a malformed file, is a ValueError
INPUT_ERRORS = (ValueError, KeyError, OSError)


def frac_str(p: int, q: int = 1) -> str:
    """The rational p / q, integers with q > 0, in lowest terms as "p" or
    "p/q"."""
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def _label_str(lab) -> str:
    return f"{lab[0]}_{lab[1]}" if isinstance(lab, tuple) else str(lab)


def _facet_str(facet) -> str:
    return ",".join(_label_str(lab) for lab in sorted(facet))


def certificate_to_dict(verdict: str, interior=None, heights=None) -> dict:
    out = {"verdict": verdict}
    if interior is not None and interior.point is not None:
        xs, den = interior.point
        out["witness"] = [frac_str(v, den) for v in xs]
        out["barycentric"] = {
            _facet_str(k): [frac_str(l, d) for l in lam]
            for k, (lam, d) in sorted(interior.barycentric.items())
        }
    if heights is not None and heights.heights is not None:
        hs, den = heights.heights
        out["heights"] = {_label_str(lab): frac_str(v, den) for lab, v in sorted(hs.items())}
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
        try:
            data = json.load(fh)
        except RecursionError:
            # json's decoder recurses once per nested array or object
            raise InvalidInput("input JSON nests too deeply") from None
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
        fh.write(json.dumps(data, indent=2, sort_keys=True))
        fh.write("\n")
    except OSError as e:
        raise CannotWrite(e) from e


def _write(data: dict, path) -> None:
    with _open_out(path) as fh:
        _dump(data, fh)


def cmd_check(args) -> int:
    try:
        obj = load_input(args.infile)
        verdict, cert1, cert2 = certify(obj)
    except INPUT_ERRORS as e:
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
    except INPUT_ERRORS as e:
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
        prep = prepare(load_input(args.infile))
        diagram = shephard_diagram(prep)
        cert = s_sigma(diagram, prep.table)
    except INPUT_ERRORS as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID
    out = {
        "ambient_dim": diagram.ambient_dim,
        "weights": {_label_str(l): frac_str(w) for l, w in sorted(diagram.weights.items())},
        "points": {_label_str(l): [frac_str(v) for v in p]
                   for l, p in sorted(diagram.points.items())},
        "cofaces": {_facet_str(f): [_label_str(l) for l in sorted(coface_indices(diagram, f))]
                    for f in prep.table},
        "witness": ([frac_str(v, cert.point[1]) for v in cert.point[0]]
                    if cert.kind == "interior-point" else None),
    }
    _write(out, args.out)
    return 0


def _certify(puzzle):
    """The verdict of one class and its record as text, encoded once and
    indented to its depth in the classify document, so that the record's
    dicts die here and a worker sends back one str."""
    mat = puzzle.matrix
    verdict, cert1, cert2 = certify(mat)
    record = {
        "puzzle": puzzle_to_dict(puzzle),
        "matrix": matrix_to_dict(mat),
        "verdict": verdict,
        "certificate": certificate_to_dict(verdict, cert1, cert2),
    }
    # json escapes newlines inside strings, so each one here starts a line
    return verdict, json.dumps(record, indent=2, sort_keys=True).replace("\n", "\n    ")


def _certify_in_worker(puzzle):
    """_certify, with an error returned instead of raised, so that the pool
    is left only once every worker has sent all its results: terminating a
    worker while it sends one can leave the result queue locked, and the
    pool's shutdown then waits forever."""
    try:
        return _certify(puzzle)
    except Exception as e:  # noqa: BLE001 - raised again by cmd_classify
        return e


def _dump_classify(header: dict, certified: list, fh) -> None:
    """The bytes _dump would give for header plus the "records" of the
    (verdict, text) pairs, written piece by piece, never as one string.
    Every header key sorts before "records"."""
    try:
        fh.write(json.dumps(header, indent=2, sort_keys=True)[:-2])  # drop "\n}"
        fh.write(',\n  "records": [')
        sep = "\n    "
        for _, text in certified:
            fh.write(sep)
            fh.write(text)
            sep = ",\n    "
        fh.write("\n  ]\n}\n" if certified else "]\n}\n")
    except OSError as e:
        raise CannotWrite(e) from e


def _workers(args) -> int:
    """--workers, or TORICWEDGE_WORKERS when the flag is not given, or 1."""
    source, value = (("--workers", args.workers) if args.workers is not None else
                     ("TORICWEDGE_WORKERS", os.environ.get("TORICWEDGE_WORKERS", "1")))
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    return workers


def cmd_classify(args) -> int:
    try:
        J = tuple(int(x) for x in args.j.split(","))
        sig = signature(args.m, J)
        for flag, value in (("--base-depth", args.base_depth), ("--e-bound", args.e_bound)):
            if value < 0:
                raise ValueError(f"{flag} must be non-negative, got {value}")
        workers = _workers(args)
    except (ValueError, TypeError) as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return EXIT_INVALID
    # open --out before the run, so that an unwritable path costs no work
    with _open_out(args.out) as fh:
        puzzles = enumerate_puzzles(sig, args.base_depth, args.e_bound)
        n = len(puzzles)
        # hand the puzzles over one at a time, so that none, with its cached
        # matrix and assignment, outlives its record
        puzzles.reverse()
        handed = (puzzles.pop() for _ in range(n))
        if workers > 1 and n > 1:
            import multiprocessing
            procs = min(workers, n)
            with multiprocessing.Pool(procs) as pool:
                # the chunk size pool.map would choose
                chunks = -(-n // (4 * procs))
                certified = list(pool.imap(_certify_in_worker, handed, chunks))
            for result in certified:
                if isinstance(result, Exception):
                    raise result
        else:
            certified = [_certify(p) for p in handed]
        n_proj = sum(verdict == "projective" for verdict, _ in certified)
        n_disagree = sum(verdict == "oracle-disagreement" for verdict, _ in certified)
        # nothing is written before every class is certified, so a run that
        # fails leaves --out empty
        _dump_classify({
            "m": sig.m,
            "J": list(sig.J),
            "classes": n,
            "projective": n_proj,
            "oracle_disagreements": n_disagree,
            "fraction_projective": frac_str(n_proj, n) if n else "0",
        }, certified, fh)
    if n_disagree:
        return EXIT_DISAGREEMENT
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricwedge",
        description="classify toric manifolds over wedged polygons and "
                    "certify them projective with exact rational certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify one fan or characteristic matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="enumerate and certify all puzzles over P_m(J)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", required=True, help="comma-separated multiplicities j_1,...,j_m")
    p.add_argument("--base-depth", type=int, default=3)
    p.add_argument("--e-bound", type=int, default=3)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: TORICWEDGE_WORKERS, else 1)")
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


_parser = None  # built by the first main call, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except CannotWrite as e:
        print(f"cannot write output: {e}", file=sys.stderr)
        return EXIT_INVALID
    # a broken invariant or an unbounded simplex is a fault of the program,
    # never a verdict; cmd_classify raises a worker's error here too
    except (InvariantViolation, ArithmeticError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
