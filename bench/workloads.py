"""Seeded inputs, jobs and correctness checks for the benchmark workloads.

Every workload is a closed loop with one caller: a pass is a list of jobs
generated from ``(seed, workload, pass number)``, and the next job starts only
after the previous one returns.  A job's ``run`` is the timed call chain into
the package; its ``check`` runs afterwards, outside the timed interval, and
returns a list of ``(defect, message)`` problems, where ``defect`` names a
documented known defect (see ``KNOWN_DEFECTS``) or is ``""`` for an
unexpected failure.  ``expect`` holds the value each check compares against,
so a self-test can plant a wrong one.

Jobs reach the package only through module attributes looked up at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from boundarylink import catalog, cli, milnor, seifert, smoves
from boundarylink import diagrams as dg

KNOWN_DEFECTS = {
    "components-list": "a diagram whose 'components' is a list exits 1 with "
                       "a traceback instead of 64 (ROADMAP item 4)",
    "moves-not-objects": "a moves file [1, 2] exits 1 with a traceback "
                         "instead of 64 (ROADMAP item 4)",
    "ragged-congruence": "a ragged congruence block exits 1 with a traceback "
                         "instead of 64 (ROADMAP item 4)",
    "coerced-entries": "matrix entries 1.9, true and \"1\" are coerced by "
                       "int() instead of exiting 64 (ROADMAP item 4)",
    "mu-indeterminacy": "mu_bar reports indeterminacy 0 where Milnor's "
                        "indeterminacy is nonzero (a nonzero invariant two "
                        "or more deletions down), so cyclic shifts of the "
                        "index disagree, though only by a multiple of it",
}


@dataclass
class Job:
    family: str                      # scaling-row family, e.g. "ht-cable"
    key: str                         # identity of the inputs
    sizes: dict[str, int]            # size counters of the inputs
    run: Callable[[], Any]           # the timed call chain
    check: Callable[["Job", Any], list[tuple[str, str]]]
    expect: dict[str, Any] = field(default_factory=dict)
    known_defect: str = ""           # defect this input is known to hit
    inproc: Callable[[], Any] | None = None   # cli: same argv in-process


def result_digest(value: Any) -> str:
    """Digest of a job's output; for a process, its exit code and output."""
    if isinstance(value, Proc):
        value = (value.code, value.stdout, value.stderr)
    return hashlib.sha256(repr(value).encode()).hexdigest()


def pass_rng(seed: int, workload: str, k: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{k}")


# ---------------------------------------------------------------------------
# generators shared by several workloads


def artin_generator(i: int, j: int) -> list[int]:
    """Braid letters of the pure-braid generator A_ij, 1 <= i < j."""
    up = list(range(j - 1, i, -1))
    return up + [i, i] + [-x for x in reversed(up)]


def _inverse(word: list[int]) -> list[int]:
    return [-x for x in reversed(word)]


def _commutator(g: tuple[int, int], h: tuple[int, int]) -> list[int]:
    u, v = artin_generator(*g), artin_generator(*h)
    return u + v + _inverse(u) + _inverse(v)


def pure_braid(n: int, gens: tuple[tuple[int, int], tuple[int, int]],
               extra: tuple[tuple[int, int], int] | None
               ) -> tuple[list[int], dict[tuple[int, int], int]]:
    """Pure braid on n strands with its linking numbers, read from the A_ij
    exponent sums.  The word is the commutator [A_g, A_h] of the two
    generators `gens` on three strands, whose closure has a nonzero triple
    invariant (Borromean rings plus unlinked strands); `extra` = (pair, e)
    puts A_pair^e first, which adds one nonzero linking number.  Longer
    commutator products make the homotopy test heavy-tailed in cost, so they
    are left out."""
    word = _commutator(*gens)
    lk = {(a, b): 0 for a in range(1, n + 1) for b in range(a + 1, n + 1)}
    if extra is not None:
        pair, e = extra
        gen = artin_generator(*pair)
        word = (gen if e > 0 else _inverse(gen)) + word
        lk[pair] += e
    return word, lk


def random_pure_braid(rng: random.Random, n: int):
    """pure_braid of two generators on three random strands."""
    i, j, k = sorted(rng.sample(range(1, n + 1), 3))
    return pure_braid(n, tuple(rng.sample([(i, j), (j, k), (i, k)], 2)), None)


def rand_unimodular(rng: random.Random, n: int, ops: int = 4):
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
    if n and rng.random() < 0.5:
        p[0] = [-a for a in p[0]]
    return tuple(tuple(r) for r in p)


def rand_valid_matrix(rng: random.Random, sizes: tuple[int, ...],
                      mag: int = 3) -> seifert.SeifertMatrix:
    """Valid matrix with the given even block sizes: each diagonal block is
    symmetric noise plus the strict upper part of U^T J U (U unimodular), so
    A_ii - A_ii^T = U^T J U is unimodular; off-diagonal blocks are free up
    to the transpose rule."""
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    off = [sum(sizes[:k]) for k in range(len(sizes))]
    for k, s in enumerate(sizes):
        u = rand_unimodular(rng, s)
        j = [[0] * s for _ in range(s)]
        for t in range(s // 2):
            j[2 * t][2 * t + 1], j[2 * t + 1][2 * t] = 1, -1
        d = [[sum(u[a][r] * j[a][b] * u[b][c] for a in range(s) for b in range(s))
              for c in range(s)] for r in range(s)]
        for r in range(s):
            for c in range(r, s):
                v = rng.randint(-mag, mag)
                rows[off[k] + r][off[k] + c] = v + (d[r][c] if r < c else 0)
                rows[off[k] + c][off[k] + r] = v
    for a in range(len(sizes)):
        for b in range(a + 1, len(sizes)):
            for r in range(sizes[a]):
                for c in range(sizes[b]):
                    v = rng.randint(-mag, mag)
                    rows[off[a] + r][off[b] + c] = rows[off[b] + c][off[a] + r] = v
    return seifert.SeifertMatrix(len(sizes), sizes, tuple(map(tuple, rows)))


def rand_enlargement(rng: random.Random, a: seifert.SeifertMatrix,
                     mag: int = 2) -> smoves.Enlargement:
    k = rng.randrange(a.m)
    return smoves.Enlargement(
        k=k, eps=rng.choice(((1, 0), (0, 1))),
        rows=tuple(tuple(rng.randint(-mag, mag) for _ in range(s))
                   for s in a.block_sizes),
        offset=rng.randint(0, a.block_sizes[k]), swapped=rng.random() < 0.5)


def move_sequence(rng: random.Random, pattern: str
                  ) -> tuple[smoves.MoveSequence, seifert.SeifertMatrix, int]:
    """Sequence following `pattern` (E enlarge, R reduce, C congruence) from a
    random side-4 two-component matrix; R picks one of the reductions the
    current matrix offers and falls back to E when there is none.  Returns
    the sequence, its end matrix and the largest side reached."""
    start = rand_valid_matrix(rng, (2, 2), mag=2)
    cur, moves, top = start, [], start.side
    for sym in pattern:
        reds = smoves.find_reductions(cur) if sym == "R" else []
        if reds:
            w = rng.choice(reds)
            mv = smoves.Reduce(w.k, w.offset, w.swapped)
        elif sym == "C":
            mv = smoves.Congruence(tuple(rand_unimodular(rng, s)
                                         for s in cur.block_sizes))
        else:
            mv = rand_enlargement(rng, cur)
        cur = smoves.apply_move(cur, mv)
        moves.append(mv)
        top = max(top, cur.side)
    return smoves.MoveSequence(start, tuple(moves)), cur, top


def reject_matrix(rng: random.Random, g: int) -> seifert.SeifertMatrix:
    """g pairs on one component: two pairs block each other (their first
    coordinates, and their second coordinates, meet), the other g - 2 are
    free, so no pair ordering gives the staircase form and the backtracking
    check explores every order of the free pairs first."""
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for p in range(g):
        e = rng.randint(0, 1)
        rows[2 * p][2 * p + 1], rows[2 * p + 1][2 * p] = e, 1 - e
    p, q = sorted(rng.sample(range(g), 2))
    for u, v in ((2 * p, 2 * q), (2 * p + 1, 2 * q + 1)):
        rows[u][v] = rows[v][u] = rng.choice((1, -1))
    return seifert.SeifertMatrix(1, (n,), tuple(map(tuple, rows)))


def tower(rng: random.Random, base: seifert.SeifertMatrix, height: int
          ) -> seifert.SeifertMatrix:
    a = base
    for _ in range(height):
        a = smoves.apply_enlargement(a, rand_enlargement(rng, a))
    return a


# ---------------------------------------------------------------------------
# checks shared by the Milnor workloads


def _linking_problems(d: dg.LinkDiagram, values: dict) -> list[tuple[str, str]]:
    """values[(i, j)] must equal diagrams.linking_number for every pair."""
    out = []
    for (i, j), v in sorted(values.items()):
        lk = dg.linking_number(d, i - 1, j - 1)
        if v != lk:
            out.append(("", f"mu-bar({i}{j}) = {v} but linking number {lk}"))
    return out


def _pair_mu(d: dg.LinkDiagram) -> dict[tuple[int, int], int]:
    return {(i, j): milnor.mu_bar(d, (i, j))[0]
            for i in range(1, d.n + 1) for j in range(i + 1, d.n + 1)}


def _table_problems(d: dg.LinkDiagram, verdict: bool, table,
                    lk: dict | None) -> list[tuple[str, str]]:
    """Homotopy table: complete lengths, pairs equal linking numbers (and the
    braid-word oracle `lk`), verdict equal to 'every entry vanishes'."""
    entries = table.as_dict()
    out = _linking_problems(d, {i: v for i, (v, _) in entries.items()
                                if len(i) == 2})
    if lk is not None:
        for (i, j), want in lk.items():
            got = entries.get((i, j), (None,))[0]
            if got != want:
                out.append(("", f"mu-bar({i}{j}) = {got}, braid word gives {want}"))
    lengths = sorted({len(i) for i in entries})
    for length in lengths:
        want = len(list(itertools.permutations(range(d.n), length)))
        got = sum(1 for i in entries if len(i) == length)
        if got != want:
            out.append(("", f"{got} of {want} length-{length} indices in table"))
    if lengths != list(range(2, (lengths or [1])[-1] + 1)):
        out.append(("", f"table lengths {lengths} are not contiguous from 2"))
    if verdict != all(v == 0 for v, _ in entries.values()):
        out.append(("", "verdict disagrees with the table"))
    return out


# ---------------------------------------------------------------------------
# milnor-tables


def _check_ht(job, result):
    d, (verdict, table) = result
    out = _table_problems(d, verdict, table, job.expect.get("lk"))
    if "verdict" in job.expect and verdict != job.expect["verdict"]:
        out.append(("", f"verdict {verdict}, expected {job.expect['verdict']}"))
    if "mu" in job.expect:
        for index, absval in job.expect["mu"].items():
            v, _ = table.as_dict().get(index, (None, None))
            if v is None or abs(v) != absval:
                out.append(("", f"|mu-bar{index}| = {v}, expected {absval}"))
    return out


def _check_htplus(job, result):
    d, (ok, results) = result
    out = []
    want = dg.linking_number(d, 0, 1) == 0
    if ok != want or ok != job.expect["ok"]:
        out.append(("", f"ht+ verdict {ok}, expected {job.expect['ok']}"))
    if sorted(results) != sorted(l for l, _ in d.components):
        out.append(("", "ht+ results do not cover every component"))
    return out + _linking_problems(d, _pair_mu(d))


def _check_certificate(job, result):
    derived, cert = result
    out = []
    if cert.verdict != job.expect["verdict"]:
        out.append(("", f"verdict {cert.verdict}, expected {job.expect['verdict']}"))
    failing = [(n, det) for n, passed, det in cert.checks if not passed]
    if job.expect["verdict"] == "certified-freely-slice" and failing:
        out.append(("", f"certified with failing checks {failing}"))
    if job.expect.get("witness_labels"):
        if not failing:
            out.append(("", "hypothesis-failed without a failing check"))
        for name, detail in failing:
            try:
                index = tuple(int(t) for t in detail.split("(")[1]
                              .split(")")[0].split(","))
                value = int(detail.split("=")[1])
            except (IndexError, ValueError):
                out.append(("", f"{name}: witness {detail!r} is not a mu-bar"))
                continue
            d = derived[name.split(":")[1]]
            labels = {d.components[i - 1][0] for i in index}
            if len(index) != 3 or abs(value) != 1 or \
                    labels != set(job.expect["witness_labels"]):
                out.append(("", f"{name}: witness {detail!r} is not a triple "
                                f"mu-bar of the original circles"))
    for d in derived.values():
        out += _linking_problems(d, _pair_mu(d))
    return out


def _doubled_borromean(bor: dg.LinkDiagram):
    labels = [lab for lab, _ in bor.components]
    derived = {}
    for j, lab in enumerate(labels, start=1):
        d = dg.pushoff(bor, lab)
        derived[f"a{j}"] = derived[f"b{j}"] = d
    matrix = seifert.whitehead_double_matrix(3, (1, 1, 1))
    return derived, milnor.certify_theorem_A(matrix, derived)


def _l_beta(beta: dg.LinkDiagram):
    matrix, derived = milnor.build_l_beta_bundle(beta)
    return derived, milnor.certify_theorem_A(matrix, derived)


CABLE_VERDICTS = {(1, 2): True, (2, 2): False, (2, 3): False, (3, 2): False,
                  (3, 3): False}
# Every pass has the same twelve braids, so a run's median falls in the bulk
# of these cheap jobs.  With 26 jobs a pass, the 90th percentile falls among
# the (3, 2) cable jobs, which cost several times more than any cheaper job
# and less than the (2, 3) and (3, 3) cables, so it does not jump between job
# kinds as the machine's speed drifts.  A braid is the commutator of two
# generators on strands 1-3 of n, and for a linked one an extra generator on
# the last two strands, whose sign the seed draws.  A braid's cost depends
# on its strands, generators and their order (0.5-3.7 ms), and the costs
# near the median come in steps, so drawing those from the seed moved a
# run's median by 10-30% from seed to seed; the sign does not move it.
BRAID_SHAPES = tuple((n, gens, linked) for n in (3, 4, 5)
                     for gens in (((1, 2), (2, 3)), ((1, 2), (1, 3)))
                     for linked in (True, False))


def milnor_tables_pass(ctx: dict, seed: int, k: int) -> list[Job]:
    rng = pass_rng(seed, "milnor-tables", k)
    beta, bor = ctx["beta"], ctx["borromean"]
    jobs = [
        Job("certify-lbeta", "certify-lbeta", {"components": 3, "genus": 2},
            lambda: _l_beta(beta), _check_certificate,
            {"verdict": "certified-freely-slice"}),
        Job("certify-doubled-borromean", "certify-doubled-borromean",
            {"components": 4, "genus": 3}, lambda: _doubled_borromean(bor),
            _check_certificate,
            {"verdict": "hypothesis-failed",
             "witness_labels": [lab for lab, _ in bor.components]}),
    ]
    for mult, verdict in CABLE_VERDICTS.items():
        n = ctx["cable_sizes"][mult]
        jobs.append(Job(
            "ht-cable", f"ht-cable{mult}", n,
            lambda mult=mult: _ht(dg.closure(dg.cable(beta, mult))),
            _check_ht, {"verdict": verdict}))
    for name, expect in (("whitehead", {"verdict": True}),
                         ("borromean", {"verdict": False, "mu": {(1, 2, 3): 1}})):
        d = ctx[name]
        jobs.append(Job("ht-catalog", f"ht-{name}",
                        {"components": d.n, "crossings": len(d.crossings)},
                        lambda d=d: _ht(d), _check_ht, expect))
    for name, d in ctx["two_component"].items():
        labels = tuple(lab for lab, _ in d.components)
        jobs.append(Job(
            "htplus", f"htplus-{name}",
            {"components": 2, "crossings": len(d.crossings)},
            lambda d=d, labels=labels: (d, milnor.is_ht_plus_pair(
                milnor.PairedLink(d, labels))),
            _check_htplus, {"ok": dg.linking_number(d, 0, 1) == 0}))
    for n, gens, linked in BRAID_SHAPES:
        extra = ((n - 1, n), rng.choice((1, -1))) if linked else None
        word, lk = pure_braid(n, gens, extra)
        jobs.append(Job(
            "ht-braid", f"ht-braid{n}:{word}",
            {"components": n, "crossings": len(word)},
            lambda n=n, word=word: _ht(dg.closure(dg.braid(n, word))),
            _check_ht, {"lk": lk, "verdict": False}))
    rng.shuffle(jobs)
    return jobs


def _ht(d: dg.LinkDiagram):
    return d, milnor.is_homotopically_trivial(d)


def milnor_tables_setup(ctx: dict) -> None:
    beta = ctx["beta"]
    ctx["two_component"] = {
        "hopf": ctx["hopf"], "whitehead": ctx["whitehead"],
        "unlink2": ctx["unlink2"], "beta-closure": dg.closure(beta),
        "beta-squared-closure": dg.closure(dg.product(beta, beta)),
    }
    ctx["cable_sizes"] = {}
    for mult in CABLE_VERDICTS:
        d = dg.closure(dg.cable(beta, mult))
        ctx["cable_sizes"][mult] = {"components": d.n,
                                    "crossings": len(d.crossings)}


# ---------------------------------------------------------------------------
# mu-long


def _random_index(rng: random.Random, n: int, length: int,
                  last: int) -> tuple[int, ...]:
    """Index of the given length over n components that repeats one and
    ends in `last`.  Counts are balanced (each component appears length // n
    or one more times, at least two components); only which components get
    the extra entries and the order are drawn."""
    comps = rng.sample(range(1, n + 1), min(n, length - 1))
    if last not in comps:
        comps[-1] = last
    counts = {c: (length // len(comps)) for c in comps}
    for c in rng.sample(comps, length % len(comps)):
        counts[c] += 1
    counts[last] -= 1
    body = [c for c, m in counts.items() for _ in range(m)]
    rng.shuffle(body)
    return tuple(body) + (last,)


def _true_indeterminacy(d, index, memo: dict) -> int:
    """Milnor's indeterminacy of mu-bar(index): the gcd, over every index J
    obtained by deleting one entry and permuting cyclically, of mu-bar(J) and
    of J's own indeterminacy.  Computed here from the package's values of the
    shorter indices, not from the indeterminacy it reports; shorter indices
    are tried first and the search stops once the gcd is 1."""
    if len(index) <= 2:
        return 0
    if index not in memo:
        subs = dict.fromkeys(rest[r:] + rest[:r]
                             for rest in (index[:i] + index[i + 1:]
                                          for i in range(len(index)))
                             for r in range(len(rest)))
        delta = 0
        for sub in subs:
            delta = math.gcd(delta, _true_indeterminacy(d, sub, memo))
            if delta != 1:
                delta = math.gcd(delta, milnor.mu_bar(d, sub)[0])
            if delta == 1:
                break
        memo[index] = delta
    return memo[index]


def _check_mu(job, result):
    d, value = result
    out = []
    rot = job.expect["rotation"]
    if "abs" in job.expect and (abs(value[0]) != job.expect["abs"] or value[1]):
        out.append(("", f"mu-bar = {value}, expected |value| {job.expect['abs']}"))
    if job.expect.get("exact") and value[1]:
        out.append(("", f"mu-bar = {value}: every shorter invariant vanishes, "
                        "so the value is exact"))
    other = milnor.mu_bar(d, rot)
    if other != value:
        # the known defect: a nonzero true indeterminacy reported as 0, with
        # values that still agree modulo the true indeterminacy
        delta = _true_indeterminacy(d, job.expect["index"], {})
        defect = "mu-indeterminacy" if (
            delta and 0 in (value[1], other[1])
            and (value[0] - other[0]) % delta == 0) else ""
        out.append((defect, f"mu-bar{job.expect['index']} = {value} but "
                            f"mu-bar{rot} = {other}; true indeterminacy "
                            f"{delta}"))
    return out + _linking_problems(d, _pair_mu(d))


# (link, index lengths) per pass; the derived links of L(beta) carry the
# depth cliff, the braid closures vary with the seed
MU_SLOTS = (("whitehead", (4, 5, 6)), ("borromean", (4, 5, 6)),
            ("b2", (4, 5, 6)), ("a1", (4, 5)))


def commutator_braid(rng: random.Random) -> list[int]:
    """Pure 3-braid [[g, h], g] or [[g, h], h] for two distinct generators
    A_ij.  It lies in the third term of the lower central series, so every
    mu-bar invariant of its closure of length 2 or 3 vanishes and those of
    length 4 are exact (indeterminacy 0)."""
    g, h = rng.sample([(1, 2), (1, 3), (2, 3)], 2)
    u, v = artin_generator(*g), artin_generator(*h)
    inner = u + v + _inverse(u) + _inverse(v)
    e = artin_generator(*rng.choice((g, h)))
    return inner + e + _inverse(inner) + _inverse(e)


def mu_long_pass(ctx: dict, seed: int, k: int) -> list[Job]:
    rng = pass_rng(seed, "mu-long", k)
    jobs = []

    def add(name, d, index, expect, r=None):
        if r is None:
            r = rng.randint(1, len(index) - 1)
        expect = dict(expect, index=index, rotation=index[r:] + index[:r])
        jobs.append(Job(
            "mu-" + name.split(":")[0], f"mu-{name}:{index}",
            {"components": d.n, "crossings": len(d.crossings),
             "index_length": len(index)},
            lambda d=d, index=index: (d, milnor.mu_bar(d, index)),
            _check_mu, expect))

    r = rng.randrange(4)
    add("whitehead", ctx["whitehead"], (1, 1, 2, 2)[r:] + (1, 1, 2, 2)[:r],
        {"abs": 1})
    # The links' indices and the commutator closures come from a fixed pool,
    # one index per last component, and passes cycle through it; each braid
    # closure is one fixed query.  A query's cost depends on its index by up
    # to 2x (a1: 0.4-0.9 s at length 5) and a braid query's by 10x, so
    # queries drawn from the seed made a run's cost depend on the seed, and
    # braid queries that changed from pass to pass moved the median between
    # job kinds.  The seed draws the order of the jobs, the Whitehead rotation
    # and the rotations the braid closures' checks compare against.  A
    # repeated query needs no new check, which would otherwise cost as much
    # as the query.
    pool_rng = random.Random("mu-long:pool")
    for slot, (name, lengths) in enumerate(MU_SLOTS):
        d = ctx[name]
        for length in lengths:
            pool = [(_random_index(pool_rng, d.n, length, last),
                     pool_rng.randint(1, length - 1))
                    for last in range(1, d.n + 1)]
            index, rot = pool[(k + slot + length) % d.n]
            add(name, d, index, {}, rot)
    pool = [(commutator_braid(pool_rng), _random_index(pool_rng, 3, 4, last),
             pool_rng.randint(1, 3)) for last in (1, 2, 3)]
    word, index, rot = pool[k % 3]
    add(f"commutator3:{word}", dg.closure(dg.braid(3, word)), index,
        {"exact": True}, rot)
    for n, length in ((3, 5), (4, 5)):
        word, _ = random_pure_braid(pool_rng, n)
        index = _random_index(pool_rng, n, length, 1)
        add(f"braid{n}:{word}", dg.closure(dg.braid(n, word)), index, {})
    rng.shuffle(jobs)
    return jobs


def mu_long_setup(ctx: dict) -> None:
    _, derived = milnor.build_l_beta_bundle(ctx["beta"])
    ctx["a1"], ctx["b2"] = derived["a1"], derived["b2"]


# ---------------------------------------------------------------------------
# smoves


def _check_normalize(job, result):
    seq, norm = result
    out = []
    mats = norm.replay()
    if norm.start != seq.start or mats[-1] != job.expect["end"]:
        out.append(("", "normalized sequence changed an endpoint"))
    if not smoves.is_monotone(norm):
        out.append(("", "normalized sequence is not monotone"))
    return out


def _check_reduce(job, result):
    a, res = result
    if res.status != job.expect["status"]:
        return [("", f"reduce_to_null {res.status}, expected {job.expect['status']}")]
    if res.found and res.sequence.replay()[-1] != seifert.null_matrix(a.m):
        return [("", "reduction path does not replay to the null matrix")]
    return []


def _check_goodbasis(job, result):
    form = result
    if job.expect["form"] is None:
        return [] if form is None else [("", f"reject family accepted: {form}")]
    if form is None:
        return [("", "staircase matrix rejected")]
    got = (form.ordering, form.signs, form.swaps)
    return [] if got == job.expect["form"] else [
        ("", f"good-basis form {got}, expected {job.expect['form']}")]


def _check_congruence(job, result):
    a, b, back = result
    out = []
    if back != a:
        out.append(("", "P^-1 did not undo P"))
    if not seifert.is_valid(b):
        out.append(("", "congruence broke validity"))
    return out


NORMALIZE_PATTERNS = ("EERCE", "EERCEER", "EEERCERCE", "EERCERCEERCE",
                      "EEERCERRCEERCE")


def smoves_pass(ctx: dict, seed: int, k: int) -> list[Job]:
    rng = pass_rng(seed, "smoves", k)
    jobs = []
    for g in (5, 6, 7, 8):
        a = reject_matrix(rng, g)
        jobs.append(Job("goodbasis-reject", f"reject:{a.entries}",
                        {"genus": g, "side": a.side},
                        lambda a=a: smoves.good_basis_form_check(a),
                        _check_goodbasis, {"form": None}))
    for g in (2, 4, 8, 12, 16):
        m = rng.randint(1, 3)
        eps = tuple(rng.randint(0, 1) for _ in range(g))
        assignment = tuple(sorted(rng.randrange(m) for _ in range(g)))
        a = seifert.whitehead_double_matrix(m, eps, assignment)
        jobs.append(Job("goodbasis-accept", f"accept:{a}",
                        {"genus": g, "side": a.side},
                        lambda a=a: smoves.good_basis_form_check(a),
                        _check_goodbasis,
                        {"form": (tuple(range(g)), eps, (False,) * g)}))
    a = ctx["wh-double-matrix"]
    g = a.side // 2
    jobs.append(Job("goodbasis-accept", "accept:catalog", {"genus": g, "side": a.side},
                    lambda a=a: smoves.good_basis_form_check(a), _check_goodbasis,
                    {"form": (tuple(range(g)),
                              tuple(a.entries[2 * p][2 * p + 1] for p in range(g)),
                              (False,) * g)}))
    for pattern in NORMALIZE_PATTERNS:
        seq, end, top = move_sequence(rng, pattern)
        jobs.append(Job(
            "normalize", f"normalize:{seq}",
            {"moves_in": len(seq.moves), "side": top},
            lambda seq=seq: _replay_normalize(seq),
            _check_normalize, {"end": end}))
    for base, heights, status in (
            (ctx["null2"], (4, 6, 8), "found"),
            (ctx["trefoil-matrix"], (2, 4, 6), "exhausted")):
        for h in heights:
            a = tower(rng, base, h)
            jobs.append(Job(
                "reduce-" + status, f"reduce:{a}", {"side": a.side, "moves_in": h},
                lambda a=a: (a, smoves.reduce_to_null(a)),
                _check_reduce, {"status": status}))
    for _ in range(6):
        a = rand_valid_matrix(rng, (4, 4))
        p = smoves.Congruence(tuple(rand_unimodular(rng, s, ops=6)
                                    for s in a.block_sizes))
        jobs.append(Job(
            "congruence", f"congruence:{a}:{p}", {"side": a.side},
            lambda a=a, p=p: _round_trip(a, p), _check_congruence, {}))
    rng.shuffle(jobs)
    return jobs


def _replay_normalize(seq):
    seq.replay()
    return seq, smoves.normalize_sequence(seq)


def _round_trip(a, p):
    b = smoves.apply_congruence(a, p)
    return a, b, smoves.apply_congruence(b, p.inverse())


def smoves_setup(ctx: dict) -> None:
    ctx["null2"] = seifert.null_matrix(2)


# ---------------------------------------------------------------------------
# cli


@dataclass
class Proc:
    code: int | str
    stdout: str
    stderr: str
    wall: float
    maxrss_kb: int


def run_child(argv: list[str], env: dict, cwd: Path, log: Path) -> Proc:
    """Run one child to completion, one at a time, with its own rusage."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = perf_counter()
        p = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=cwd)
        _, status, usage = os.wait4(p.pid, 0)
        wall = perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, out_path.read_text(), err_path.read_text(),
                wall, usage.ru_maxrss)


def run_inproc(argv: list[str]) -> Proc:
    """cli.main on the same argv in this process; an exception, which the
    child shows as a traceback, becomes the code 'raised <type>'."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code: int | str = cli.main(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}"
    return Proc(code, out.getvalue(), err.getvalue(), perf_counter() - t0, 0)


def _check_cli(job, proc: Proc):
    out = []
    defect = job.known_defect
    if proc.code != job.expect["code"]:
        out.append((defect, f"blcert {' '.join(job.expect['argv'])}: exit "
                            f"{proc.code}, expected {job.expect['code']}"))
    if "Traceback" in proc.stderr:
        out.append((defect, "traceback on stderr: "
                            + proc.stderr.strip().splitlines()[-1]))
    inproc = job.inproc()
    if result_digest(inproc) != result_digest(proc):
        out.append((defect, f"child (exit {proc.code}) and in-process "
                            f"cli.main ({inproc.code}) disagree"))
    return out


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _cli_files(ctx: dict, rng: random.Random, k: int) -> dict[str, str]:
    d = ctx["workdir"] / f"p{k}"
    d.mkdir(parents=True, exist_ok=True)
    files = {}
    files["valid"] = _write(d / "valid.json", rand_valid_matrix(
        rng, tuple(rng.choice((2, 4)) for _ in range(rng.randint(1, 3)))).to_json())
    broken = rand_valid_matrix(rng, (2, 2))
    rows = [list(r) for r in broken.entries]
    rows[0][3] += 1
    files["invalid"] = _write(d / "invalid.json", json.dumps(
        {"m": 2, "block_sizes": [2, 2], "rows": rows}))
    g = rng.randint(2, 6)
    m = rng.randint(1, 3)
    files["wd"] = _write(d / "wd.json", seifert.whitehead_double_matrix(
        m, tuple(rng.randint(0, 1) for _ in range(g)),
        tuple(sorted(rng.randrange(m) for _ in range(g)))).to_json())
    files["reject"] = _write(d / "reject.json", reject_matrix(rng, 5).to_json())
    files["tnull"] = _write(d / "tnull.json",
                            tower(rng, ctx["null2"], 4).to_json())
    files["ttref"] = _write(d / "ttref.json",
                            tower(rng, ctx["trefoil-matrix"], 3).to_json())
    seq, _, _ = move_sequence(rng, "EERCE")
    files["start"] = _write(d / "start.json", seq.start.to_json())
    files["moves"] = _write(d / "moves.json", smoves.moves_to_json(seq.moves))
    malformed = rng.choice(['{"m": 1, "block_sizes": [2], "rows": [[0, 1], [0',
                            '{"m": 1, "block_sizes": [2], "rows": [[0, 1], [0, 0]]} x',
                            '{"m": 1, "block_sizes": [2]}',
                            '{"m": 1, "block_sizes": [2], "rows": [[0, 1, 0], [0, 0]]}'])
    files["malformed"] = _write(d / "malformed.json", malformed)
    return files


DEFECT_DOCS = ("components-list", "moves-not-objects", "ragged-congruence",
               "coerced-entries")


def _defect_argv(ctx: dict, kind: str, k: int, d: Path) -> list[str]:
    """argv of the pass's document that hits a known defect; its contracted
    exit code is 64."""
    if kind == "components-list":
        doc = json.loads(ctx["files"]["whitehead"].read_text())
        doc["components"] = [[label, ss] for label, ss in doc["components"].items()]
        return ["ht", _write(d / "components-list.json", json.dumps(doc))]
    if kind == "moves-not-objects":
        return ["replay", str(ctx["files"]["wd1"]),
                _write(d / "moves-list.json", "[1, 2]")]
    if kind == "ragged-congruence":
        moves = [{"move": "congruence", "blocks": [[[1, 0], [0]]]}]
        return ["replay", str(ctx["files"]["wd1"]),
                _write(d / "ragged.json", json.dumps(moves))]
    entry = (1.9, True, "1")[k // len(DEFECT_DOCS) % 3]
    return ["validate", _write(d / "coerced.json", json.dumps(
        {"m": 1, "block_sizes": [2], "rows": [[0, entry], [0, 0]]}))]


def cli_pass(ctx: dict, seed: int, k: int) -> list[Job]:
    rng = pass_rng(seed, "cli", k)
    f = _cli_files(ctx, rng, k)
    c = {name: str(path) for name, path in ctx["files"].items()}
    wh_index = "".join(str(x) for x in _random_index(
        rng, 2, rng.randint(3, 4), rng.randint(1, 2)))
    bor_index = "".join(str(x) for x in rng.sample((1, 2, 3), 3))
    ht_name = rng.choice(("whitehead", "unlink2", "borromean", "hopf"))
    hp_name = rng.choice(("whitehead", "unlink2", "hopf"))
    derived = [f"{n}={c[n]}" for n in ("a1", "a2", "b1", "b2")]
    specs = [
        (["validate", f["valid"]], 0), (["validate", f["invalid"]], 2),
        (["goodbasis", f["wd"]], 0), (["goodbasis", f["reject"]], 2),
        (["reduce", f["tnull"]], 0), (["reduce", f["ttref"]], 2),
        (["replay", f["start"], f["moves"]], 0),
        (["normalize", f["start"], f["moves"]], 0),
        (["mu", c["whitehead"], "--index", wh_index], 0),
        (["mu", c["borromean"], "--index", bor_index], 0),
        (["ht", c[ht_name]], 0 if ht_name in ("whitehead", "unlink2") else 2),
        (["ht", c["cable12"]], 0),
        (["htplus", c[hp_name], "--sublink", "1,2"], 2 if hp_name == "hopf" else 0),
        (["certify", c["matrix"], "--derived", *derived], 0),
        (["certify", c["matrix"]], 1),
        (["lbeta", c["beta"]], 0),
        (["catalog", "list"], 0),
        (["catalog", "export", rng.choice(ctx["entry_names"])], 0),
        (["catalog", "export", "no-such-entry"], 64),
        (["validate", f["malformed"]], 64),
        (["ht", str(ctx["workdir"] / "missing.json")], 64),
        (["mu", c["whitehead"], "--index", "1x"], 64),
    ]
    jobs = []
    for argv, code in specs:
        jobs.append(_cli_job(ctx, argv, code, ""))
    kind = DEFECT_DOCS[k % len(DEFECT_DOCS)]
    jobs.append(_cli_job(ctx, _defect_argv(ctx, kind, k, ctx["workdir"] / f"p{k}"),
                         64, kind))
    rng.shuffle(jobs)
    return jobs


def _cli_job(ctx: dict, argv: list[str], code: int, defect: str) -> Job:
    cmd = [sys.executable, "-m", "boundarylink.cli", *argv]
    log = ctx["workdir"] / "child"
    docs = hashlib.sha256(b"".join(Path(a).read_bytes() for a in argv
                                   if Path(a).is_file())).hexdigest()
    return Job(
        "cli-" + argv[0], f"cli:{argv}:{docs}", {"exit": code},
        lambda: run_child(cmd, ctx["env"], ctx["root"], log), _check_cli,
        {"code": code, "argv": argv}, known_defect=defect,
        inproc=lambda: run_inproc(argv))


def cli_setup(ctx: dict) -> None:
    work = ctx["workdir"]
    work.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in ctx["entry_names"]:
        files[name] = work / f"{name}.json"
        files[name].write_text(catalog.raw_payload(name))
    matrix, derived = milnor.build_l_beta_bundle(ctx["beta"])
    files["matrix"] = work / "matrix.json"
    files["matrix"].write_text(matrix.to_json())
    for name, d in derived.items():
        files[name] = work / f"{name}.json"
        files[name].write_text(d.to_json())
    files["cable12"] = work / "cable12.json"
    files["cable12"].write_text(dg.closure(dg.cable(ctx["beta"], (1, 2))).to_json())
    files["wd1"] = work / "wd1.json"
    files["wd1"].write_text(seifert.whitehead_double_matrix(1, (1,)).to_json())
    ctx["files"] = files
    ctx["null2"] = seifert.null_matrix(2)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    entries: tuple[str, ...]         # catalog entries loaded at set-up
    setup: Callable[[dict], None]
    make_pass: Callable[[dict, int, int], list[Job]]   # (ctx, seed, pass)
    starts_processes: bool = False   # every job runs one child process


# Why each workload exists, and what it leaves out, is in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("milnor-tables",
             ("beta", "borromean", "hopf", "whitehead", "unlink2"),
             milnor_tables_setup, milnor_tables_pass),
    Workload("mu-long", ("beta", "borromean", "whitehead"),
             mu_long_setup, mu_long_pass),
    Workload("smoves", ("trefoil-matrix", "wh-double-matrix"),
             smoves_setup, smoves_pass),
    Workload("cli", ("beta", "borromean", "hopf", "trefoil-matrix",
                     "unlink2", "wh-double-matrix", "whitehead"),
             cli_setup, cli_pass, starts_processes=True),
)}


def make_context(workload: Workload, root: Path, workdir: Path) -> dict:
    """Load the workload's catalog entries and derived inputs (untimed)."""
    ctx: dict[str, Any] = {"root": root, "workdir": workdir,
                           "entry_names": list(workload.entries)}
    for name in workload.entries:
        ctx[name] = catalog.load(name)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    ctx["env"] = env
    workload.setup(ctx)
    return ctx
