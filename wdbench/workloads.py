"""The workloads: inputs, one round of program work, and the output checks.

A workload's inputs come from a fixed pool of rounds, and `order(pool_size,
seed)` is the seed's permutation of the pool.  `run(wd, entry)` does the
program work of one round through wdexp's public entry points and times it.
`throughput_per_s` is a round's items over the time of its operations of
the workload's `item_kind`: bound checks per second of sweep, queries per
second of query time, tensor pairs per second of oracle.
`verify(wd, entry, out, expected)` checks the round's outputs outside the
timed region and returns (attempted, failed) operation counts; a round's
`fingerprint` is compared with the one recorded for its pool entry.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import re
from time import perf_counter

OUT_DIR = ".bench_out"


@dataclasses.dataclass
class RoundOutput:
    ops: list            # (kind, start, end) perf_counter readings of each timed operation
    items: int           # work items done by the ops of the workload's item_kind
    data: dict           # what verify() needs


def order(pool_size: int, seed: int) -> list[int]:
    idx = list(range(pool_size))
    random.Random(seed).shuffle(idx)
    return idx


def _sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def run_cli(wd, argv) -> tuple[int | None, str, tuple]:
    """One in-process `wdexp` command: (exit code or None if it raised,
    stdout, (start, end))."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = wd.cli.run_command(argv)
    except Exception:  # a traceback is a failed operation, not a benchmark crash
        code = None
    return code, out.getvalue(), (start, perf_counter())


# -- sweep ------------------------------------------------------------------------


class Sweep:
    name = "sweep"
    item_kind = "sweep"
    pool_size = 12
    models_per_round = 10
    pairs_per_model = 50
    families = ("A", "AS", "B", "BS", "C", "CS")
    levels = "0,1/2,1,2"
    max_terms = 3
    max_r = 4

    def _gen(self, wd):
        return wd.generator.GenParams.from_strings(self.levels)

    def run(self, wd, entry: int) -> RoundOutput:
        gen = self._gen(wd)
        samples = []
        start = perf_counter()
        results, _summary = wd.bounds.run_sweep(
            self.families, self.models_per_round, self.pairs_per_model, gen,
            entry * self.models_per_round, self.max_terms, self.max_r,
            sample_hook=lambda m, x, y: samples.append((m, x, y)),
        )
        text = wd.bounds.results_to_json(results)
        gaps = [wd.bounds.swan_bridge_gap(x, y, m) for m, x, y in samples]
        return RoundOutput([("sweep", start, perf_counter())], len(results),
                           {"results": results, "text": text, "gaps": gaps, "samples": samples})

    def fingerprint(self, out: RoundOutput) -> str:
        rows = []
        for r in out.data["results"]:
            i = r.inputs
            rows.append("\t".join(str(v) for v in (
                r.theorem, r.lhs, r.rhs, r.holds, r.equality, r.precondition_failed,
                i["x"], i["y"], i["model"])))
        return _sha256_lines(rows)

    def verify(self, wd, entry: int, out: RoundOutput, expected: str | None):
        results, gaps = out.data["results"], out.data["gaps"]
        attempted = len(results) + len(gaps) + 2
        failed = sum(1 for r in results if not r.holds and not r.precondition_failed)
        failed += sum(1 for g in gaps if g < 0)
        failed += len(json.loads(out.data["text"])) != len(results)
        failed += self.fingerprint(out) != expected
        models = []
        for m, _x, _y in out.data["samples"]:
            if not models or models[-1] is not m:
                models.append(m)
        gen = self._gen(wd)
        attempted += 2 * self.models_per_round
        failed += 2 * max(0, self.models_per_round - len(models))
        for k, m in enumerate(models):
            failed += not wd.model.validate_model(m).ok
            again = wd.generator.gen_model(
                dataclasses.replace(gen, seed=entry * self.models_per_round + k))
            failed += again.digest() != m.digest()
        return attempted, failed


# -- large_model --------------------------------------------------------------------


class LargeModel:
    name = "large_model"
    item_kind = "query"
    pool_size = 4
    classes_per_level = 20
    queries = ("eval", "tensor", "minimal")
    max_terms = 6
    max_r = 8
    model_path = os.path.join(OUT_DIR, "large_model.json")

    def _shapes(self, entry: int):
        """Per query, the representations to pass as (Sp-length, class
        index) terms; class indices are reduced modulo the model's size."""
        rng = random.Random(entry)

        def rep():
            return [(1 + rng.randrange(self.max_r), rng.randrange(1 << 30))
                    for _ in range(1 + rng.randrange(self.max_terms))]

        return [(q, rep(), rep()) for q in self.queries]

    @staticmethod
    def _expr(shape, ids) -> str:
        return " + ".join(f"Sp_{r}({ids[k % len(ids)]})" for r, k in shape)

    def run(self, wd, entry: int) -> RoundOutput:
        path = self.model_path
        os.makedirs(OUT_DIR, exist_ok=True)
        code, text, span = run_cli(wd, ["gen-model", "--seed", str(entry), "--classes-per-level",
                                        str(self.classes_per_level), "-o", path])
        ops, codes, lines = [("gen_model", *span)], [code], text.splitlines()
        try:
            with open(path, encoding="utf-8") as fh:
                ids = sorted(c["id"] for c in json.load(fh)["classes"])
        except (OSError, ValueError, KeyError, TypeError):
            ids = ["u"]
        for kind, a, b in self._shapes(entry):
            if kind == "tensor":
                argv = ["tensor", "-m", path, "-a", self._expr(a, ids), "-b", self._expr(b, ids)]
            elif kind == "minimal":
                argv = ["minimal", "-m", path, "-e", self._expr(a, ids),
                        "--mode", "eta" if entry % 2 == 0 else "sigma"]
            else:
                argv = ["eval", "-m", path, "-e", self._expr(a, ids)]
            code, text, span = run_cli(wd, argv)
            ops.append(("query", *span))
            codes.append(code)
            lines.extend(text.splitlines())
        return RoundOutput(ops, len(ops) - 1, {"codes": codes, "lines": lines})

    def fingerprint(self, out: RoundOutput) -> str:
        return _sha256_lines(out.data["lines"])

    def verify(self, wd, entry: int, out: RoundOutput, expected: str | None):
        codes, lines = out.data["codes"], out.data["lines"]
        failed = sum(1 for c in codes if c != 0)
        failed += self.fingerprint(out) != expected
        # The digest gen-model printed must be the digest of the file it wrote.
        printed = re.match(r"model ([0-9a-f]{64}) ", lines[0]) if lines else None
        try:
            written = wd.model.load_model(self.model_path).digest()
        except (OSError, ValueError, KeyError, TypeError):
            written = None
        failed += printed is None or printed.group(1) != written
        return len(codes) + 2, failed


# -- oracle ---------------------------------------------------------------------------


class Oracle:
    name = "oracle"
    item_kind = "oracle"
    pool_size = 1
    argv = ("oracle", "--max-r", "8", "--max-terms", "3")
    _line = re.compile(r"oracle: (\d+) tensor pairs checked, (\d+) mismatches; "
                       r"(\d+) block pairs, (\d+) failures")

    def run(self, wd, entry: int) -> RoundOutput:
        code, text, span = run_cli(wd, list(self.argv))
        found = self._line.search(text)
        pairs = int(found.group(1)) if found else 0
        return RoundOutput([("oracle", *span)], pairs, {"code": code, "text": text, "found": found})

    def fingerprint(self, out: RoundOutput) -> str:
        return _sha256_lines(out.data["text"].splitlines())

    def verify(self, wd, entry: int, out: RoundOutput, expected: str | None):
        found = out.data["found"]
        if found is None:
            return 2, 2
        pairs, mismatches, blocks, block_fail = (int(g) for g in found.groups())
        failed = mismatches + block_fail + (out.data["code"] != 0) + (self.fingerprint(out) != expected)
        return pairs + blocks + 2, failed


WORKLOADS = {w.name: w for w in (Sweep(), LargeModel(), Oracle())}
