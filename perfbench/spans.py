"""Span tracing around twistcert's public functions, from outside the package.

Each traced function is replaced by a wrapper in every twistcert module that
holds it by name, so calls through `from .matrices import mat_mul` and calls
through the defining module's globals are both seen. A span is (function,
start, end, parent span, op id); spans stay in memory in flat arrays and are
written out once, when the run ends. Self time is a span's duration minus
the durations of its traced children.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, function) pairs, grouped by layer
TRACED = [
    ("cli", "main"),
    ("words", "parse_word"), ("words", "eval_word"), ("words", "validate_family_T"),
    ("matrices", "mat_mul"), ("matrices", "mat_pow"), ("matrices", "sp_check"),
    ("polynomials", "charpoly"), ("polynomials", "factor_over_Z"),
    ("polynomials", "is_symplectically_irreducible"),
    ("polynomials", "is_cyclotomic_product"),
    ("certify", "certify_report"), ("certify", "pa_failure_reasons"),
    ("surgery", "plan_from_T_word"), ("surgery", "monodromy_from_plan"),
    ("congruence", "verify_identities"), ("congruence", "synthesize_root"),
    ("congruence", "eval_gen_word"), ("congruence", "quotient_closure"),
    ("congruence", "membership"), ("congruence", "gamma_index"),
]

CLOSURE = "congruence.quotient_closure"


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.func = array("B")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.letters = 0              # letters of every word passed to eval_word
        self.closure_s = {"cold": [], "warm": []}
        self.op_id = -1
        self.op_cache: str | None = None   # cache class of the running op
        self._stack: list[list] = []       # [span index, traced child seconds]
        self._patches: list[tuple] = []

    def _count_letters(self, args: tuple, dur: float) -> None:
        self.letters += len(args[0].letters)

    def _closure_time(self, args: tuple, dur: float) -> None:
        if self.op_cache:
            self.closure_s["warm" if self.op_cache == "warm" else "cold"].append(dur)

    def _wrap(self, nid: int, fn):
        start, end, parent, op, func = self.start, self.end, self.parent, self.op, self.func
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        hook = {"words.eval_word": self._count_letters,
                CLOSURE: self._closure_time}.get(self.names[nid])
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1][0] if stack else -1)
            op.append(tracer.op_id)
            func.append(nid)
            end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[idx] = t1
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if hook is not None:
                    hook(args, dur)

        return traced

    def _find_patches(self) -> list[tuple]:
        """(module, attribute, original, wrapper) for each place a twistcert
        module binds a traced function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "twistcert" or n.startswith("twistcert.")]
        patches = []
        for nid, (mod, fn) in enumerate(TRACED):
            orig = getattr(sys.modules[f"twistcert.{mod}"], fn)
            wrapper = self._wrap(nid, orig)
            for m in modules:
                patches += [(m, attr, orig, wrapper)
                            for attr, value in vars(m).items() if value is orig]
        return patches

    def install(self) -> None:
        if not self._patches:
            self._patches = self._find_patches()
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig, _ in self._patches:
            setattr(m, attr, orig)

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls_per_op"] = (self.calls[nid] / ops, "1")
            out[f"{name}.self_ms_per_op"] = (1000 * self.self_s[nid] / ops, "ms")
        out["words.eval_word.letters_per_op"] = (self.letters / ops, "1")
        for kind, spans in self.closure_s.items():
            ms = 1000 * sorted(spans)[len(spans) // 2] if spans else 0.0
            out[f"{CLOSURE}.{kind}_ms"] = (ms, "ms")
        return out

    def write(self, path: str) -> None:
        """One JSON header line, then the span arrays in header order."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["func", "B"], ["start", "d"], ["end", "d"],
                             ["parent", "i"], ["op", "i"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.func, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)
