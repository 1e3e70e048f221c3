"""The three benchmark workloads and their correctness oracles.

A workload is built from the seed alone (``texts`` holds the input files
the set-up probes parse), then ``setup`` parses them in-process.
``prepare(j)`` makes pass ``j``'s inputs, outside the timed region;
``run_pass(j, on_op)`` runs pass ``j`` and returns one latency and one
output per op; ``check`` runs the oracle on a pass's outputs outside the
timed region and returns how many ops failed.  ``corrupt`` returns a pass's outputs with one
deliberately wrong entry, for the oracle self-check.

The library is reached through module attributes at call time (for example
``hilbert.graded_dim``), so names wrapped by the tracer are the ones called.
Import this module only once ``quiver_regrade`` is importable.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import re
from math import comb
from time import perf_counter

import inputs
from quiver_regrade import cli, fields, fileformat, hilbert, verify

# the package exports a function named `regrade`, so fetch the module itself
regrade_mod = importlib.import_module("quiver_regrade.regrade")

# ---------------------------------------------------------------------------
# hilbert-tables


KXY_DEGREE = 13
KXYZ_DEGREE = 5
TRIANGLES = 3
TRIANGLE_DEGREE = 7
NAIVE_DEGREE = 5  # graded_dim_naive is cheap up to here on the triangles


class HilbertTables:
    """Graded dimensions, one op per graded piece (one `hilbert` output line).

    kxy and k[x,y,z] over F_p and Q have closed forms; three seeded
    three-vertex presentations and their regrades are checked against
    ``graded_dim_naive`` at low degree and by F_p >= Q everywhere.
    """

    name = "hilbert-tables"

    def __init__(self, seed: int):
        rng = random.Random(f"hilbert-tables|{seed}")
        self.texts = [inputs.KXY, inputs.KXYZ] + [
            inputs.triangle_presentation(rng) for _ in range(TRIANGLES)
        ]

    def setup(self):
        fp, qq = fields.GF(fields.default_prime()), fields.QQ
        parsed = [fileformat.parse_presentation(t) for t in self.texts]
        # (quiver, ideal, vertex, max degree, closed form or None)
        tables = [
            (*parsed[0], None, KXY_DEGREE, lambda d: d // 2 + 1),
            (*parsed[1], None, KXYZ_DEGREE, lambda d: comb(d + 2, 2)),
        ]
        for q, ideal in parsed[2:]:
            res = regrade_mod.regrade(q, ideal)
            for v in inputs.TRIANGLE_VERTICES:
                tables.append((q, ideal, v, TRIANGLE_DEGREE, None))
                tables.append((res.final_quiver, res.final_ideal, v, TRIANGLE_DEGREE, None))
        self.ops = []  # (field, quiver, ideal, vertex, degree)
        self.expected = []  # per op: the value it must equal, or None
        self.pairs = []  # (F_p op index, Q op index) of the same graded piece
        for q, ideal, vertex, top, closed in tables:
            for d in range(top + 1):
                for field in (fp, qq):
                    self.ops.append((field, q, ideal, vertex, d))
                    if closed is not None:
                        want = closed(d)
                    elif d <= NAIVE_DEGREE:
                        want = hilbert.graded_dim_naive(q, ideal, d, vertex=vertex, field=field)
                    else:
                        want = None
                    self.expected.append(want)
                self.pairs.append((len(self.ops) - 2, len(self.ops) - 1))
        self.reference = None

    def prepare(self, j: int):
        pass

    def run_pass(self, j: int, on_op):
        lat, out = [], []
        for field, q, ideal, vertex, d in self.ops:
            on_op()
            t0 = perf_counter()
            dim = hilbert.graded_dim(q, ideal, d, vertex=vertex, field=field)
            lat.append(perf_counter() - t0)
            out.append(dim)
        return lat, out

    def check(self, out) -> int:
        bad = set()
        for i, (got, want) in enumerate(zip(out, self.expected)):
            if not isinstance(got, int) or got < 0 or (want is not None and got != want):
                bad.add(i)
        for ip, iq in self.pairs:
            if ip not in bad and iq not in bad and out[ip] < out[iq]:
                bad.add(ip)  # mod p a rank can only drop, so dims only grow
        if not bad and self.reference is None:
            self.reference = list(out)
        elif self.reference is not None:
            bad.update(i for i, (a, b) in enumerate(zip(out, self.reference)) if a != b)
        return len(bad) + max(0, len(self.ops) - len(out))

    def corrupt(self, out):
        wrong = list(out)
        i = next(i for i, want in enumerate(self.expected) if want is not None and i > 10)
        wrong[i] += 1
        return wrong


# ---------------------------------------------------------------------------
# regrade-large


# the presentations of a pass have 36, 44, ..., 148 relations: real inputs
# vary in size, and the spread of sizes, not the host, sets op_s.p90.  With
# fifteen sizes the median and the 90th percentile of a run's ops fall inside
# one size (the 8th and the 14th), not between two.
LARGE_SIZES = tuple(range(36, 149, 8))


class RegradeLarge:
    """Parse -> regrade -> render of large presentations, one op each.

    Every pass runs fifteen presentations of its own, one of each size in
    ``LARGE_SIZES``, drawn from the seed and the pass number, so a run's op
    latencies cover many inputs rather than the same few again; the set-up
    probes parse those of pass 0.  The oracle checks that the output
    re-parses, has discrepancy 0 after exactly the input discrepancy many
    splits, and keeps every relation's endpoints and degree.
    """

    name = "regrade-large"

    def __init__(self, seed: int):
        self.seed = seed
        self.prepare(0)
        self.texts = self.pass_texts

    def prepare(self, j: int):
        rng = random.Random(f"regrade-large|{self.seed}|{j}")
        made = [inputs.large_presentation(rng, size) for size in LARGE_SIZES]
        self.pass_texts = [text for text, _ in made]
        self.facts = [facts for _, facts in made]

    def setup(self):
        pass

    def run_pass(self, j: int, on_op):
        lat, out = [], []
        for text in self.pass_texts:
            on_op()
            t0 = perf_counter()
            q, ideal = fileformat.parse_presentation(text)
            rendered = cli.render_regrade(regrade_mod.regrade(q, ideal))
            lat.append(perf_counter() - t0)
            out.append(rendered)
        return lat, out

    def check(self, out) -> int:
        failed = max(0, len(self.pass_texts) - len(out))
        return failed + sum(
            not self._check_one(facts, rendered) for facts, rendered in zip(self.facts, out)
        )

    @staticmethod
    def _check_one(facts: dict, rendered: str) -> bool:
        splits = facts["discrepancy"]
        header = re.match(r"# regrade: (\d+) splits?\n", rendered)
        if header is None or int(header.group(1)) != splits:
            return False
        if rendered.count("\n# split ") != splits:
            return False
        try:
            q, ideal = fileformat.parse_presentation(rendered)
        except fileformat.PresentationError:
            return False
        if len(q.arrows) != facts["arrows"] + splits:
            return False
        if sum(a.degree for a in q.arrows) != len(q.arrows):
            return False
        shapes = [(g.source, g.target, g.degree) for g in ideal]
        return shapes == facts["shapes"]

    def corrupt(self, out):
        # the first arrow of degree 1 becomes degree 2: discrepancy 1 remains
        wrong = list(out)
        wrong[0] = re.sub(r"^(arrow \S+ \S+ \S+) 1$", r"\1 2", wrong[0], count=1, flags=re.M)
        return wrong


# ---------------------------------------------------------------------------
# verify-all


VERIFY_SUITES = ("split", "functor", "hilbert")
VERIFY_TRIALS = 200
VERIFY_PROPERTIES = 18
# sha256 of `verify --suite all --seed 7` stdout (1105 bytes)
VERIFY_SEED7_SHA256 = "4488dae582db5d1800819edb4d271d541e5f5a390d754a87c23b314ed3b10037"


class VerifyAll:
    """All three `verify` suites at 200 trials; one op per randomized trial.

    A trial starts where the property asks ``rng_for`` for its trial stream
    and ends at the next such call or when the property returns; a property
    with no random trials is one op.  Properties hold 1-200 trials each, so
    per-property latencies are too few and too unlike to give a stable
    median, while the ~2600 trials of a pass do.

    Pass 0 runs the workload seed itself; later passes run seeds derived
    from it, so a run averages over more random trials.  Every property must
    PASS (an op fails with its property), and at seed 7 the report must
    match the reference bytes.
    """

    name = "verify-all"

    def __init__(self, seed: int):
        self.seed = seed
        self.texts: list[str] = []

    def pass_seed(self, j: int) -> int:
        return self.seed if j == 0 else self.seed + 100_003 * j

    def prepare(self, j: int):
        pass

    def setup(self):
        self._on_op = None
        self._lat: list[float] = []
        self._ops: dict[str, int] = {}  # property -> ops in this pass
        self._current = ""
        self._in_trial = False
        self._op_start = 0.0
        for attr in sorted(vars(verify)):
            if attr.startswith("prop_"):
                setattr(verify, attr, self._property(attr[len("prop_"):], getattr(verify, attr)))
        rng_for = verify.rng_for

        def trial_stream(*parts):
            if self._in_trial:
                self._close_op()
                self._open_op()
            self._in_trial = True
            return rng_for(*parts)

        verify.rng_for = trial_stream

    def _open_op(self):
        self._on_op()
        self._ops[self._current] += 1
        self._op_start = perf_counter()

    def _close_op(self):
        self._lat.append(perf_counter() - self._op_start)

    def _property(self, name: str, fn):
        def prop(cfg):
            # the first op also holds the property's set-up before trial 0
            self._current, self._in_trial = name, False
            self._ops[name] = 0
            self._open_op()
            result = fn(cfg)
            self._close_op()
            return result
        return prop

    def run_pass(self, j: int, on_op):
        self._lat, self._ops, self._on_op = [], {}, on_op
        reports = verify.run_suites(
            VERIFY_SUITES, verify.SuiteConfig(seed=self.pass_seed(j), trials=VERIFY_TRIALS)
        )
        text = verify.render_reports(reports)
        return self._lat, [(self.pass_seed(j), text, dict(self._ops))]

    def check(self, out) -> int:
        failed = 0
        for seed, text, ops in out:
            total = sum(ops.values())
            lines = re.findall(r"^  (PASS|FAIL) (\w+) ", text, flags=re.M)
            if len(lines) != VERIFY_PROPERTIES or {name for _, name in lines} != set(ops):
                failed += total
            elif seed == 7 and hashlib.sha256(text.encode()).hexdigest() != VERIFY_SEED7_SHA256:
                failed += total
            else:
                failed += sum(ops[name] for status, name in lines if status == "FAIL")
        return failed

    def corrupt(self, out):
        seed, text, ops = out[0]
        return [(seed, text.replace("  PASS ", "  FAIL ", 1), ops)]


WORKLOADS = {w.name: w for w in (HilbertTables, RegradeLarge, VerifyAll)}
