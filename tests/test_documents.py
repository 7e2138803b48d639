"""Mutation tests of the three input document kinds.

A catalog matrix or diagram document, or a three-move file, has one key or
element dropped, duplicated, retyped, perturbed or added somewhere inside
it.  Whatever comes out, `blcert` must end with a mathematical verdict or a
usage error, never a traceback or an internal error, and the decoders must
raise nothing but StructureError.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from boundarylink import catalog, cli, diagrams as dg, seifert, smoves


def _three_moves() -> list:
    # reduce a pair, change basis, enlarge it back: a local minimum, so
    # `normalize` rewrites it and `replay` returns to the start
    a = catalog.load("wh-double-matrix")
    wit = smoves.find_reductions(a)[0]
    c = smoves.apply_reduction(a, wit)
    moves = (smoves.Reduce(wit.k, wit.offset, wit.swapped),
             smoves.Congruence.identity(c), wit)
    return json.loads(smoves.moves_to_json(moves))


DOCS = {name: ("matrix", json.loads(catalog.raw_payload(name)))
        for name in ("wh-double-matrix", "trefoil-matrix")}
DOCS.update({name: ("diagram", json.loads(catalog.raw_payload(name)))
             for name in ("hopf", "whitehead", "borromean", "beta")})
DOCS["moves"] = ("moves", _three_moves())

COMMANDS = {
    "matrix": (["validate"], ["goodbasis"], ["reduce", "--budget", "200"]),
    "diagram": (["ht"], ["mu", "--index", "12"]),
    "moves": (["replay"], ["normalize"]),
}

PARSERS = (seifert.SeifertMatrix.from_json, dg.LinkDiagram.from_json,
           smoves.moves_from_json)

ODD = (None, True, False, 0, 1, -1, 2.5, "", "1", "o", "closed", "reduce",
       [], [0], [[0, "u"]], {}, {"move": "reduce"})
KEYS = ("colour", "m", "rows", "kind", "components", "move", "k", "offset",
        "swapped", "blocks", "eps")


def _slots(node, out: list) -> list:
    """Every (container, key) pair inside node, depth first."""
    if isinstance(node, (dict, list)):
        for key in list(node) if isinstance(node, dict) else range(len(node)):
            out.append((node, key))
            _slots(node[key], out)
    return out


@st.composite
def mutated(draw):
    """(kind, text) of a catalog document or move file with one mutation."""
    name = draw(st.sampled_from(sorted(DOCS)))
    kind, doc = DOCS[name]
    box = [copy.deepcopy(doc)]    # so the whole document is a slot too
    parent, key = draw(st.sampled_from(_slots(box, [])))
    value = parent[key]
    op = draw(st.sampled_from(("drop", "duplicate", "retype", "perturb",
                               "add")))
    if op == "drop":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))
    elif op == "duplicate":
        parent[draw(st.sampled_from(sorted(parent)))] = copy.deepcopy(value)
    elif op == "retype":
        parent[key] = draw(st.sampled_from(ODD))
    elif op == "perturb" and type(value) is int:
        parent[key] = value + draw(st.sampled_from((-2, -1, 1, 2)))
    elif op == "perturb":
        parent[key] = (not value if type(value) is bool
                       else draw(st.sampled_from(ODD)))
    elif isinstance(parent, dict):
        parent[draw(st.sampled_from(KEYS))] = draw(st.sampled_from(ODD))
    else:
        parent.insert(key, draw(st.sampled_from(ODD)))
    return kind, json.dumps(box[0]) if box else ""


@settings(max_examples=300, deadline=None)
@given(mutated())
def test_mutated_documents_end_with_a_verdict_or_usage_error(
        tmp_path_factory, case):
    kind, text = case
    work = tmp_path_factory.mktemp("doc")
    doc = work / "doc.json"
    doc.write_text(text)
    matrix = work / "matrix.json"
    matrix.write_text(catalog.raw_payload("wh-double-matrix"))
    for command in COMMANDS[kind]:
        files = [str(matrix), str(doc)] if kind == "moves" else [str(doc)]
        argv = [command[0], *files, *command[1:]]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2, 64), (argv, text, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue(), (text, err.getvalue())


@settings(max_examples=300, deadline=None)
@given(mutated())
def test_mutated_documents_raise_only_structure_error(case):
    _, text = case
    for parse in PARSERS:
        try:
            parse(text)
        except seifert.StructureError:
            pass
