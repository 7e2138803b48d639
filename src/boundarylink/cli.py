"""Command-line interface.

Exit codes: 0 success/certified, 1 inconclusive (budget or missing data),
2 negative mathematical verdict or invalid mathematical input, 64 usage or
parse error, 70 internal error (an unexpected exception), 141 stdout closed
by its reader (128 + SIGPIPE, as a shell reports a process killed by it).

Each subcommand imports the modules it runs once it has read its input, so
a call loads only those, and a call refused for its input loads fewer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import seifert

if TYPE_CHECKING:
    from . import diagrams as dg, milnor, smoves

EX_OK = 0
EX_INCONCLUSIVE = 1
EX_FAILED = 2
EX_USAGE = 64
EX_SOFTWARE = 70
EX_PIPE = 141


class UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _load(path: str, parse):
    """parse(text of path); a malformed document is a usage error."""
    try:
        return parse(_read_text(path))
    except seifert.StructureError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_matrix(path: str) -> seifert.SeifertMatrix:
    return _load(path, seifert.SeifertMatrix.from_json)


def _load_diagram(path: str) -> dg.LinkDiagram:
    from . import diagrams as dg

    return _load(path, dg.LinkDiagram.from_json)


def _load_moves(path: str) -> tuple[smoves.SMove, ...]:
    from . import smoves

    return _load(path, smoves.moves_from_json)


def cmd_validate(args) -> int:
    matrix = _load_matrix(args.matrix)
    report = seifert.validate(matrix)
    if report.valid:
        print(f"valid boundary-link Seifert matrix: m={matrix.m}, "
              f"block sizes {list(matrix.block_sizes)}")
        return EX_OK
    for v in report.violations:
        print(f"violation [{v.rule}] at blocks {v.blocks}: {v.detail}")
    return EX_FAILED


def cmd_reduce(args) -> int:
    from . import smoves

    if args.budget < 0:
        raise UsageError(f"--budget must be at least 0, got {args.budget}")
    matrix = _load_matrix(args.matrix)
    if not seifert.is_valid(matrix):
        print("input matrix is not a valid boundary-link Seifert matrix")
        return EX_FAILED
    result = smoves.reduce_to_null(matrix, budget=args.budget)
    if result.found:
        text = smoves.moves_to_json(result.sequence.moves)
        if args.out:
            _write_text(args.out, text + "\n")
        print(f"reduced to the null matrix in {len(result.sequence.moves)} "
              f"reductions ({result.nodes} nodes)")
        if not args.out:
            print(text)
        return EX_OK
    if result.status == "budget":
        print(f"inconclusive: node budget {args.budget} exhausted")
        return EX_INCONCLUSIVE
    print("not reducible to the null matrix by elementary reductions")
    return EX_FAILED


def cmd_goodbasis(args) -> int:
    from . import smoves

    matrix = _load_matrix(args.matrix)
    if not seifert.is_valid(matrix):
        print("input matrix is not a valid boundary-link Seifert matrix")
        return EX_FAILED
    try:
        form = smoves.good_basis_form_check(matrix)
    except seifert.StructureError as exc:
        print(str(exc))
        return EX_FAILED
    if form is None:
        print("no pair ordering puts the matrix in good-basis form")
        return EX_FAILED
    print(json.dumps({"ordering": list(form.ordering),
                      "signs": list(form.signs),
                      "swaps": list(form.swaps)}, separators=(", ", ": ")))
    return EX_OK


def cmd_replay(args) -> int:
    from . import smoves

    matrix = _load_matrix(args.matrix)
    moves = _load_moves(args.moves)
    try:
        mats = smoves.MoveSequence(matrix, moves).replay()
    except smoves.ReplayError as exc:
        print(f"replay failed: {exc}")
        return EX_FAILED
    sizes = [m.side for m in mats]
    print(f"replayed {len(moves)} moves; sizes {sizes}")
    print(mats[-1].to_json())
    return EX_OK


def cmd_normalize(args) -> int:
    from . import smoves

    matrix = _load_matrix(args.matrix)
    moves = _load_moves(args.moves)
    try:
        seq = smoves.normalize_sequence(smoves.MoveSequence(matrix, moves))
    except smoves.ReplayError as exc:
        print(f"replay failed: {exc}")
        return EX_FAILED
    text = smoves.moves_to_json(seq.moves)
    if args.out:
        _write_text(args.out, text + "\n")
        print(f"wrote {len(seq.moves)} moves to {args.out}")
    else:
        print(text)
    return EX_OK


def _parse_index(text: str) -> tuple[int, ...]:
    try:
        if "," in text:
            return tuple(int(t) for t in text.split(","))
        return tuple(int(ch) for ch in text)
    except ValueError as exc:
        raise UsageError(f"bad index {text!r}") from exc


def cmd_mu(args) -> int:
    diagram = _load_diagram(args.diagram)
    index = _parse_index(args.index)
    from . import milnor

    value, indet = milnor.mu_bar(diagram, index)
    print(json.dumps({"index": list(index), "value": value,
                      "indeterminacy": indet}, separators=(", ", ": ")))
    return EX_OK


def cmd_ht(args) -> int:
    diagram = _load_diagram(args.diagram)
    from . import milnor

    verdict, table = milnor.is_homotopically_trivial(diagram)
    print(table.to_json())
    print("homotopically trivial" if verdict else "not homotopically trivial")
    return EX_OK if verdict else EX_FAILED


def cmd_htplus(args) -> int:
    diagram = _load_diagram(args.diagram)
    sublink = tuple(s for s in args.sublink.split(",") if s)
    from . import milnor

    pair = milnor.PairedLink(diagram, sublink)
    verdict, results = milnor.is_ht_plus_pair(pair)
    for label in sorted(results):
        ok, _ = results[label]
        print(f"component {label}: {'trivial' if ok else 'NOT trivial'}")
    print("homotopically trivial+" if verdict else "not homotopically trivial+")
    return EX_OK if verdict else EX_FAILED


def _parse_derived(pairs: list[str]) -> dict[str, dg.LinkDiagram]:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise UsageError(f"--derived wants name=path, got {item!r}")
        name, path = item.split("=", 1)
        out[name] = _load_diagram(path)
    return out


def _finish_certificate(cert: milnor.Certificate, out: str | None) -> int:
    text = cert.to_json()
    if out:
        _write_text(out, text + "\n")
    print(text)
    if cert.verdict == "certified-freely-slice":
        return EX_OK
    if cert.verdict == "inconclusive":
        return EX_INCONCLUSIVE
    return EX_FAILED


def cmd_certify(args) -> int:
    matrix = _load_matrix(args.matrix)
    if not seifert.is_valid(matrix):
        print("input matrix is not a valid boundary-link Seifert matrix")
        return EX_FAILED
    derived = _parse_derived(args.derived)
    from . import milnor

    cert = milnor.certify_theorem_A(matrix, derived)
    return _finish_certificate(cert, args.out)


def cmd_lbeta(args) -> int:
    beta = _load_diagram(args.beta)
    if beta.kind != "string" or beta.n != 2:
        raise UsageError(f"{args.beta}: beta must be a 2-strand string link")
    from . import milnor

    try:
        matrix, derived = milnor.build_l_beta_bundle(beta)
    except seifert.StructureError as exc:
        print(str(exc))
        return EX_FAILED
    outdir = Path(args.outdir) if args.outdir else None
    if outdir:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create {outdir}: {exc}") from exc
        _write_text(outdir / "matrix.json", matrix.to_json() + "\n")
        for name, d in sorted(derived.items()):
            _write_text(outdir / f"{name}.json", d.to_json() + "\n")
    cert = milnor.certify_theorem_A(matrix, derived)
    out = str(outdir / "certificate.json") if outdir else None
    return _finish_certificate(cert, out)


def cmd_catalog(args) -> int:
    from . import catalog as cat

    if args.action == "list":
        for e in cat.entries():
            print(f"{e.name:20s} {e.kind:8s} {e.description}")
        return EX_OK
    if not args.name:
        raise UsageError("catalog export needs an entry name")
    payload = cat.raw_payload(args.name)
    if args.out:
        _write_text(args.out, payload)
        print(f"wrote {args.name} to {args.out}")
    else:
        print(payload, end="")
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="blcert",
        description="Boundary-link Seifert matrix calculus, Milnor "
                    "invariants, and the freely-slice hypothesis certifier.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="validate a Seifert matrix file")
    q.add_argument("matrix")
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("reduce", help="search for a reduction path to null")
    q.add_argument("matrix")
    q.add_argument("--budget", type=int, default=10 ** 6)
    q.add_argument("--out")
    q.set_defaults(func=cmd_reduce)

    q = sub.add_parser("goodbasis", help="check the good-basis staircase form")
    q.add_argument("matrix")
    q.set_defaults(func=cmd_goodbasis)

    q = sub.add_parser("replay", help="replay and verify a move sequence")
    q.add_argument("matrix")
    q.add_argument("moves")
    q.set_defaults(func=cmd_replay)

    q = sub.add_parser("normalize", help="push all enlargements before reductions")
    q.add_argument("matrix")
    q.add_argument("moves")
    q.add_argument("--out")
    q.set_defaults(func=cmd_normalize)

    q = sub.add_parser("mu", help="a single Milnor mu-bar invariant")
    q.add_argument("diagram")
    q.add_argument("--index", required=True,
                   help="component indices, e.g. 123 or 1,2,3")
    q.set_defaults(func=cmd_mu)

    q = sub.add_parser("ht", help="link-homotopy triviality test")
    q.add_argument("diagram")
    q.set_defaults(func=cmd_ht)

    q = sub.add_parser("htplus", help="homotopically trivial+ pair test")
    q.add_argument("diagram")
    q.add_argument("--sublink", required=True,
                   help="comma-separated component labels forming K")
    q.set_defaults(func=cmd_htplus)

    q = sub.add_parser("certify", help="verify the freely-slice hypotheses")
    q.add_argument("matrix")
    q.add_argument("--derived", nargs="+", default=[],
                   help="name=diagram-file pairs (a1=..., b1=..., ...)")
    q.add_argument("--out")
    q.set_defaults(func=cmd_certify)

    q = sub.add_parser("lbeta", help="build and certify the doubled link of a "
                                     "2-strand string link")
    q.add_argument("beta")
    q.add_argument("--outdir")
    q.set_defaults(func=cmd_lbeta)

    q = sub.add_parser("catalog", help="list or export bundled examples")
    q.add_argument("action", choices=["list", "export"])
    q.add_argument("name", nargs="?")
    q.add_argument("--out")
    q.set_defaults(func=cmd_catalog)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help text may still sit in the buffer
            code = EX_OK if exc.code in (0, None) else EX_USAGE
        else:
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: end quietly, and point stdout at devnull so
        # the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_PIPE
    except (UsageError, seifert.StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
