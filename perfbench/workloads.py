"""Seeded inputs and fixed op lists for the three workloads.

An op is one twistcert subcommand, run in-process as
`twistcert.cli.main(argv + ["--format", "json"])`. Each workload is a round:
a fixed list of ops that the runner repeats whole. Everything here depends
only on the seed; twistcert receives nothing but words, specs and matrix
files.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import oracle

CERTIFY_GENERA = range(2, 7)
WORDS_PER_GENUS = 24          # per block count 1, 2, 3: eight words each
NEGATIVES_PER_GENUS = 4       # words with one c-letter off the -2 grammar
EXPONENT_BOUND = 3

CLAIMS_GENERA = range(2, 9)
SYNTH_GENERA = range(2, 6)
MEMBERSHIP_GENERA = range(3, 6)
# NotInGamma inputs (Gamma element times a single C_i) per genus. Their
# cheap, like-cost class holds p50, so that p50 does not sit among the
# longer ops, whose latency swings most with the host's speed; p90 falls
# among the g = 5 syntheses.
OBSTRUCTED_PER_GENUS = 60

CLOSURE_MEMBERS = 7           # per round, and as many times C1
CLOSURE_WORD_LENGTH = (6, 12)


@dataclass
class Op:
    argv: list[str]
    cls: str                          # op class, for the README's latency table
    expect: dict                      # what checks.check_op compares against
    cache: str | None = None          # "none" | "new" | "warm" for closure ops
    cleanup: bool = False             # remove the file expect["writes"] after the op


@dataclass
class Workload:
    ops: list[Op]
    setup_ops: list[Op] = field(default_factory=list)   # untimed, once, in-process
    setup_code: str = ""      # what a fresh interpreter does once before its first op
    spawn_op: Op | None = None  # the op cli.spawn_ms runs in a fresh interpreter


def _letters_text(letters: list[tuple[str, int, int]]) -> str:
    return " ".join(f"{k}{i}" if e == 1 else f"{k}{i}^{e}" for k, i, e in letters)


def _block_letters(g: int, p: list[int], q: list[int], r: list[int]) -> list[tuple[str, int, int]]:
    """Canonical block order: d-part at -2, then b, c and a powers."""
    out = [("d", l, -2) for l in range(1, g)]
    out += [("b", j, e) for j, e in enumerate(q, 1) if e]
    out += [("c", k, e) for k, e in enumerate(r, 1) if e]
    out += [("a", i, e) for i, e in enumerate(p, 1) if e]
    return out


def _family_word(rng: random.Random, g: int, nblocks: int, negative: bool) -> dict:
    blocks = []
    for _ in range(nblocks):
        p = [rng.randint(-EXPONENT_BOUND, EXPONENT_BOUND) for _ in range(g)]
        q = [rng.randint(-EXPONENT_BOUND, EXPONENT_BOUND) for _ in range(g)]
        r = [rng.choice((0, -2)) for _ in range(g - 1)]
        blocks.append((p, q, r))
    bad = None
    if negative:
        bad_block = rng.randrange(nblocks)
        bad_index = rng.randint(1, g - 1)
        blocks[bad_block][2][bad_index - 1] = rng.choice((-1, 1, 2))
        bad = (bad_block, bad_index)
    letters: list[tuple[str, int, int]] = []
    position = None
    for b, (p, q, r) in enumerate(blocks):
        part = _block_letters(g, p, q, r)
        if bad is not None and b == bad[0]:
            position = len(letters) + part.index(("c", bad[1], r[bad[1] - 1]))
        letters += part
    return {"genus": g, "letters": letters, "text": _letters_text(letters),
            "blocks": blocks, "reject_at": position}


def certify_words(seed: int, out_dir: str) -> Workload:
    rng = random.Random(f"certify-words:{seed}")
    ops = []
    for g in CERTIFY_GENERA:
        negatives = set(rng.sample(range(WORDS_PER_GENUS), NEGATIVES_PER_GENUS))
        for n in range(WORDS_PER_GENUS):
            word = _family_word(rng, g, 1 + n % 3, n in negatives)
            for cmd in ("certify", "plan"):
                ops.append(Op([cmd, word["text"], "--genus", str(g)], f"{cmd} g={g}",
                              {"kind": cmd, **word}))
    rng.shuffle(ops)
    readme = {"kind": "certify", "genus": 2, "letters": [
        ("d", 1, -2), ("c", 1, -2), ("a", 1, 1), ("d", 1, -2), ("b", 2, 1), ("b", 1, 1)],
        "text": oracle.README_WORD, "blocks": [([1, 0], [0, 0], [-2]), ([0, 0], [1, 1], [0])],
        "reject_at": None, "readme": True}
    setup = [Op(["certify", oracle.README_WORD, "--genus", "2"], "readme example", readme)]
    return Workload(ops, setup_ops=setup, spawn_op=setup[0])


def _gen_letters(rng: random.Random, g: int, length: int) -> list[tuple[str, int, int]]:
    letters = []
    for _ in range(length):
        kind = rng.choice("ABC")
        if kind == "C":
            letters.append(("C", rng.randint(1, g - 1), rng.choice((2, -2))))
        else:
            letters.append((kind, rng.randint(1, g), rng.choice((1, -1))))
    return letters


def _write_matrix(path: str, m: list[list[int]]) -> None:
    with open(path, "w") as fh:
        fh.write("".join(" ".join(map(str, row)) + "\n" for row in m))


def _root_specs(g: int) -> list[tuple[str, int, int]]:
    specs = [("V", i, 0) for i in range(1, g + 1)] + [("W", i, 0) for i in range(1, g + 1)]
    specs += [("X", j, k) for j in range(1, g + 1) for k in range(1, g + 1) if j != k]
    specs += [(kind, j, k) for kind in "YZ" for j in range(1, g + 1) for k in range(j + 1, g + 1)]
    return specs


def spec_text(kind: str, i: int, j: int, t: int) -> str:
    return f"{kind}{i}^{t}" if kind in "VW" else f"{kind}{i},{j}^{t}"


def gamma_claims(seed: int, out_dir: str) -> Workload:
    rng = random.Random(f"gamma-claims:{seed}")
    ops = [Op(["verify-claims", "--genus", str(g)], f"verify-claims g={g}",
              {"kind": "verify-claims", "genus": g}) for g in CLAIMS_GENERA]
    for g in SYNTH_GENERA:
        t = 2 ** (g - 1)
        for kind, i, j in _root_specs(g):
            ops.append(Op(["synthesize", spec_text(kind, i, j, t), "--genus", str(g)],
                          f"synthesize g={g}",
                          {"kind": "synthesize", "genus": g, "spec": (kind, i, j, t)}))
    for g in MEMBERSHIP_GENERA:
        for n, kind in enumerate("VWXYZ"):
            if kind in "VW":
                i, j = rng.randint(1, g), 0
            else:
                i = rng.randint(1, g - 1)
                i, j = (i, i + 1) if kind != "X" or rng.random() < 0.5 else (i + 1, i)
            t = 2 ** (g - 1)
            path = os.path.join(out_dir, f"root-g{g}-{n}.txt")
            m = oracle.root_matrix(kind, i, j, t, g)
            _write_matrix(path, m)
            ops.append(Op(["membership", path, "--genus", str(g)], f"membership root g={g}",
                          {"kind": "membership", "genus": g, "matrix": m, "member": True,
                           "witness": True}))
        for n in range(OBSTRUCTED_PER_GENUS):
            word = _gen_letters(rng, g, 10)
            c = ("C", rng.randint(1, g - 1), 1)
            m = oracle.eval_gen_word(word + [c], g)
            path = os.path.join(out_dir, f"obstructed-g{g}-{n}.txt")
            _write_matrix(path, m)
            ops.append(Op(["membership", path, "--genus", str(g)],
                          f"membership obstructed g={g}",
                          {"kind": "membership", "genus": g, "matrix": m, "member": False}))
    rng.shuffle(ops)
    return Workload(ops,
                    spawn_op=Op(["verify-claims", "--genus", "2"], "spawn",
                                {"kind": "verify-claims", "genus": 2}))


def gamma_closure(seed: int, out_dir: str) -> Workload:
    rng = random.Random(f"gamma-closure:{seed}")
    shared = os.path.join(out_dir, "closure.cache")
    fresh = os.path.join(out_dir, "fresh.cache")
    for stale in (shared, fresh):      # left by an interrupted run
        if os.path.exists(stale):
            os.remove(stale)
    index = {"kind": "index"}
    ops = [Op(["index"], "index cold", index, cache="none") for _ in range(2)]
    ops += [Op(["index", "--cache", fresh], "index cold+write", {**index, "writes": fresh},
               cache="new", cleanup=True) for _ in range(2)]
    ops += [Op(["index", "--cache", shared], "index warm", index, cache="warm") for _ in range(2)]
    for n in range(CLOSURE_MEMBERS):
        word = _gen_letters(rng, 2, rng.randint(*CLOSURE_WORD_LENGTH))
        for member, letters in ((True, word), (False, word + [("C", 1, 1)])):
            m = oracle.eval_gen_word(letters, 2)
            path = os.path.join(out_dir, f"closure-{'in' if member else 'out'}-{n}.txt")
            _write_matrix(path, m)
            ops.append(Op(["membership", path, "--genus", "2", "--cache", shared],
                          "membership warm",
                          {"kind": "membership", "genus": 2, "matrix": m, "member": member,
                           "witness": False}, cache="warm"))
    rng.shuffle(ops)
    setup = [Op(["index", "--cache", shared], "set-up: cache write", {**index, "writes": shared},
                cache="new")]
    # a fresh interpreter's once-only work: the first cold closure build,
    # which writes the cache every later warm op reads
    code = ("import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['index', '--cache', CACHE, '--format', 'json'])\n")
    return Workload(ops, setup_ops=setup, setup_code=code,
                    spawn_op=next(op for op in ops if op.cls == "membership warm"))


BUILDERS = {"certify-words": certify_words, "gamma-claims": gamma_claims,
            "gamma-closure": gamma_closure}
