#!/usr/bin/env python3
"""The clustercrypt benchmark: cipher sessions in two field regimes and the analyst's work.

Run from the root of a clustercrypt checkout:

    python3 bench/run.py --workload session-small --seed 1 --seconds 35 --trace 0

One process, one closed-loop client, no threads.  The program is imported
from ./src; user-facing commands go through clustercrypt.cli.main(argv)
in-process (stdout/stderr captured, files in a private directory under
./.bench_out), and the analysis functions the CLI does not expose are
called through the library.  Every output is checked; the last stdout line
is the JSON result.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a traced run.  bench/README.md lists both.

The only other process is the fresh interpreter that times set-up
(import plus params load); each one is waited for before the next starts.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import io
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
MAX_ATTEMPTS = 200  # re-keys per session before the session counts as failed
SETUP_REPEATS = 15
KINDS = ("graph", "probe", "path", "certify")
FINGERPRINT_PRIME = (1 << 61) - 1
POINT_SEED = 0x5EED
EX_USAGE = 64

# Machine-speed probe: a fixed pure-Python kernel timed between operations
# (at most every PROBE_INTERVAL_S).  Each operation's time is reported at
# reference speed, raw time * REFERENCE_PROBE_S / the probe time around it
# (the median of the probes within PROBE_WINDOW_S of it),
# so that a neighbour slowing the shared CPU for a while does not read as a
# regression.  The raw figures are kept in the run record.
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW_S = 1.0
REFERENCE_PROBE_S = 0.0025

# Worked-example known answers, kept here independently of the program.
KNOWN_ANSWERS = (
    ((2, 5, (1, 0, 1, 0, 0, 1), "A", 5), (0, (1, 4, 0, 3, 1)), "F", 6, [11, 18, 4, 7, 25]),
    (
        (101, 7, (46, 0, 1, 1, 0, 74, 0, 1), "D", 7),
        (3, (2, 3, 4, 3)),
        38927,
        38927,
        [1, 101, 46596680922228, 12799379480831, 58938867466645, 10510100501, 1061520150601],
    ),
)


@dataclass(frozen=True)
class Regime:
    """One field GF(p^r) with the diagram the cipher runs on."""

    p: int
    r: int
    f: tuple
    family: str
    rank: int

    @property
    def label(self):
        return f"{self.family}{self.rank}"

    @property
    def q(self):
        return self.p**self.r


EX1 = Regime(2, 5, (1, 0, 1, 0, 0, 1), "A", 5)
EX2 = Regime(101, 7, (46, 0, 1, 1, 0, 74, 0, 1), "D", 7)
GF49 = Regime(7, 2, (3, 1, 1), "A", 2)
GF125 = Regime(5, 3, (3, 4, 0, 1), "A", 3)


@dataclass(frozen=True)
class Workload:
    """Sessions (the cipher user's work) interleaved with the analyst's work.

    The analyst's work comes in four kinds, each a fixed list of items run
    in passes: `graph` commands, one `probe` command, `path` counts, and
    `certify` (one fast-vs-reference cross-check per seeded triple, then
    the symbolic certifications).  Round 0 is one pass of every kind and
    `sessions_per_round` sessions.  After it, each kind runs its next item
    whenever its time falls below its share of the run, so every kind is
    sampled throughout the run.
    """

    name: str
    regimes: tuple  # params written for each; certification triples cycle through them
    session_regime: Regime
    key_lengths: tuple  # inclusive range of t
    letters: tuple  # inclusive word-length range; None: one integer message
    sessions_per_round: int
    graphs: tuple  # (family, rank); None means `graph --params` on the regime
    probe: tuple  # probe arguments
    path_graphs: tuple  # (family, rank) graphs for path_count
    path_lengths: tuple
    bijections: tuple  # (family, rank) for check_denominator_bijection
    root_axioms: tuple  # (family, rank) for check_root_axioms
    certify_triples: int
    shares: dict  # kind -> share of the run's time


# Why each workload exists is in bench/README.md.  The analyst work of the
# session workloads checks the session's own diagram family at a size that
# keeps sessions the dominant cost: dense path counting is cubic in the
# vertex count, so it runs on the family's rank-4 graph.
WORKLOADS = {
    "session-small": Workload(
        name="session-small",
        regimes=(EX1,),
        session_regime=EX1,
        key_lengths=(5, 8),
        letters=(4, 8),
        sessions_per_round=150,
        graphs=(None,),
        probe=("--families", "A", "--max-rank", "5"),
        path_graphs=(("A", 4),),
        path_lengths=(5, 6, 7, 8),
        bijections=(("A", 3),),
        root_axioms=(("A", 5),),
        certify_triples=24,
        shares={"graph": 0.03, "probe": 0.03, "path": 0.05, "certify": 0.06},
    ),
    "session-large": Workload(
        name="session-large",
        regimes=(EX2,),
        session_regime=EX2,
        key_lengths=(20, 20),
        letters=(12, 24),
        sessions_per_round=50,
        graphs=(None,),
        probe=("--families", "D", "--max-rank", "5"),
        path_graphs=(("D", 4),),
        path_lengths=(20,),
        bijections=(("D", 4),),
        root_axioms=(("D", 7),),
        certify_triples=20,
        shares={"graph": 0.12, "probe": 0.03, "path": 0.03, "certify": 0.08},
    ),
    "analysis": Workload(
        name="analysis",
        regimes=(GF49, GF125, EX1),
        session_regime=EX1,
        key_lengths=(5, 8),
        letters=None,
        sessions_per_round=40,
        graphs=(("D", 6), ("E", 6), ("A", 7), ("E", 7), ("A", 8)),
        probe=("--families", "A,B,C,D", "--max-rank", "6"),
        path_graphs=(("A", 5), ("D", 5)),
        path_lengths=(8,),
        bijections=(("B", 4), ("D", 4)),
        root_axioms=(("E", 8),),
        certify_triples=30,
        shares={"graph": 0.40, "probe": 0.15, "path": 0.22, "certify": 0.14},
    ),
}

END_TO_END_UNITS = {
    "encrypt_records_per_s": "1/s",
    "decrypt_records_per_s": "1/s",
    "session_ms_p50": "ms",
    "session_ms_p90": "ms",
    "graph_vertices_per_s": "1/s",
    "probe_s": "s",
    "path_count_s": "s",
    "certify_s": "s",
    "setup_s": "s",
}

# Per-step and per-element calls: aggregated only, never kept one by one.
HOT_SPANS = (
    "fields.ext_add",
    "fields.ext_mul",
    "fields.ext_inv",
    "fields.ext_pow",
    "fields.element_to_int",
    "fields.int_to_element",
    "fields.FieldParams",
    "cluster.matrix_mutate",
    "cluster.numeric_mutate",
    "cluster.ExchangeMatrix",
    "cluster.dynkin_exchange_matrix",
    "crypto.validate_key",
    "crypto.encode_message",
    "crypto.decode_message",
    "crypto.serialize_ciphertext",
    "crypto.deserialize_ciphertext",
    "symbolic.rf_mutate",
    "symbolic.initial_symbolic_seed",
    "symbolic.evaluate",
    "symbolic.substitute",
)
LAYERS = ("fields", "cluster", "symbolic", "crypto", "roots", "analysis", "cli", "bench")


# --- independent checks ---------------------------------------------------------


def class_count(family, rank):
    """Mutation classes of a finite-type diagram, from the closed forms."""
    if family == "A":
        return math.comb(2 * rank + 2, rank + 1) // (rank + 2)
    if family in ("B", "C"):
        return math.comb(2 * rank, rank)
    if family == "D":
        return (3 * rank - 2) * math.comb(2 * rank - 2, rank - 1) // rank
    return {("E", 6): 833, ("E", 7): 4160, ("E", 8): 25080, ("F", 4): 105, ("G", 2): 8}[
        (family, rank)
    ]


def walk_count(adjacency, u, v, t):
    """Walks of length t from u to v, by dynamic programming over adjacency lists."""
    counts = {u: 1}
    for _ in range(t):
        following = defaultdict(int)
        for x, c in counts.items():
            for y in adjacency[x]:
                following[y] += c
        counts = following
    return counts.get(v, 0)


def point_retries(point, rank):
    """Which attempt's fingerprint point the graph used (0 means no retry)."""
    for attempt in range(10):
        rng = random.Random(POINT_SEED * 1_000_003 + attempt)
        if [rng.randrange(2, FINGERPRINT_PRIME - 1) for _ in range(rank)] == list(point):
            return attempt
    return None


def mutate_rows(rows, k):
    """Matrix mutation at k, for the computed field-op counts."""
    n = len(rows)
    return tuple(
        tuple(
            -rows[i][j]
            if i == k or j == k
            else rows[i][j]
            + (abs(rows[i][k]) * rows[k][j] + rows[i][k] * abs(rows[k][j])) // 2
            for j in range(n)
        )
        for i in range(n)
    )


def field_ops(rows, seq):
    """GF(p^r) calls numeric mutation makes along seq: per nonzero b_kj one
    ext_pow (bit length + popcount multiplies) and one multiply, then one
    add, one inverse and one multiply per step."""
    ops = 0
    for k in seq:
        for b in rows[k]:
            if b:
                ops += abs(b).bit_length() + bin(abs(b)).count("1") + 2
        ops += 3
        rows = mutate_rows(rows, k)
    return ops, rows


def probe_kernel():
    """Fixed pure-Python work that does not touch the program."""
    acc = [1, 2, 3, 4, 5, 6, 7]
    seen = {}
    for i in range(1500):
        row = tuple((a * (i + j) + j + 1) % 101 for j, a in enumerate(acc))
        seen[row] = seen.get(row, 0) + 1
        acc = list(row)
    return len(seen)


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else 0.0


# --- the run ----------------------------------------------------------------------


class Run:
    def __init__(self, cc, workload, seed, seconds, tracer, tmp):
        self.cc = cc
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.tmp = tmp
        self.main = cc.cli.main
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.params_files = {}
        self.probes = []  # (start, seconds) of each speed probe
        self.last_probe = -1.0
        # timed operations: kind -> (start, end, seconds, item index); seconds
        # is end - start except for set-up, which the fresh interpreter times
        self.ops = defaultdict(list)
        self.enc_records = 0
        self.dec_records = 0
        self.spent = dict.fromkeys(KINDS, 0.0)
        self.position = dict.fromkeys(KINDS, 0)
        self.passes = dict.fromkeys(KINDS, 0)
        self.pass_counts = {kind: {} for kind in KINDS}
        self.first_pass = {}  # kind -> the exact counts of its first pass
        self.enumerated = 0  # vertices enumerated by graph and probe commands
        # exact counts, taken over round 0
        self.exact = {}
        self.round0_counts = {"attempts": 0, "rekeys": 0, "steps": 0, "ops": 0, "records": 0}
        self.ct_values = defaultdict(list)  # regime -> round 0 ciphertext ints
        self.keys = []  # (regime, seq) of round 0's delivered keys
        self.exponents = set()

    # --- bookkeeping ----------------------------------------------------------

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def cli(self, argv, span=None):
        """clustercrypt.cli.main(argv) in-process: exit code, stdout, stderr, (start, end, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with self.tracer.span(span or "cli." + argv[0]):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else EX_USAGE
                except Exception as exc:  # counted as a failed operation by the caller
                    code = None
                    err.write(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        return code, out.getvalue(), err.getvalue(), (start, end, end - start)

    def probe_speed(self, force=False):
        now = time.perf_counter()
        if force or now - self.last_probe >= PROBE_INTERVAL_S:
            probe_kernel()
            self.last_probe = time.perf_counter()
            self.probes.append((now, self.last_probe - now))

    def speed(self):
        """Machine speed over the run relative to the reference: >1 means slower."""
        return median([seconds for _, seconds in self.probes]) / REFERENCE_PROBE_S

    def at_reference_speed(self, kind):
        """(seconds, item) of each operation of a kind, scaled by the probes around it.

        The median of the probes within PROBE_WINDOW_S before the operation's
        start and after its end gives the machine's speed while it ran; the
        median keeps one disturbed probe from skewing a long operation.
        """
        starts = [start for start, _ in self.probes]
        scaled = []
        for start, end, seconds, item in self.ops[kind]:
            first = bisect.bisect_left(starts, start - PROBE_WINDOW_S)
            last = bisect.bisect_right(starts, end + PROBE_WINDOW_S)
            around = [probe for _, probe in self.probes[first:last]]
            scaled.append((seconds * REFERENCE_PROBE_S / median(around), item))
        return scaled

    # --- set-up ---------------------------------------------------------------

    def known_answers(self):
        lib = self.cc
        for (p, r, f, family, rank), (k0, seq), message, number, expected in KNOWN_ANSWERS:
            try:
                params = lib.SystemParams(lib.FieldParams(p, r, f), lib.DynkinSpec(family, rank))
                key = lib.SecretKey(k0, seq)
                ct = lib.encrypt(params, key, lib.encode_message(message, params))
                got = [lib.element_to_int(v, params.field) for v in ct.values]
                back = lib.decode_message(lib.decrypt(params, key, ct), params).number
            except lib.ClusterCryptError as exc:
                got = back = exc
            self.check(got == expected, f"worked example {family}{rank}: {got} != {expected}")
            self.check(back == number, f"worked example {family}{rank} decrypts to {back}")

    def write_params(self):
        for regime in self.w.regimes:
            path = str(self.tmp / f"params-{regime.label}.json")
            code, out, err, _ = self.cli(
                [
                    "params",
                    "--p", str(regime.p),
                    "--r", str(regime.r),
                    "--f", ",".join(map(str, regime.f)),
                    "--family", regime.family,
                    "--rank", str(regime.rank),
                    "--out", path,
                ]
            )
            self.check(code == 0 and f"= {regime.q} elements" in out, f"params {regime}: {code} {err}")
            self.params_files[regime] = path

    def library_graph(self, family, rank):
        graph = self.cc.enumerate_exchange_graph(
            self.cc.dynkin_exchange_matrix(self.cc.DynkinSpec(family, rank))
        )
        self.check(
            graph.n_vertices == class_count(family, rank),
            f"{family}{rank}: {graph.n_vertices} vertices",
        )
        self.check(point_retries(graph.point, rank) == 0, f"{family}{rank}: point retried")
        return graph

    def prepare(self):
        """Known answers, params files and the fixed inputs of the analyst work."""
        self.known_answers()
        self.write_params()
        self.path_graphs = [self.library_graph(f, r) for f, r in self.w.path_graphs]
        self.a3_graph = self.library_graph("A", 3)
        self.bijection_matrices = [
            self.cc.dynkin_exchange_matrix(self.cc.DynkinSpec(f, r)) for f, r in self.w.bijections
        ]
        # The certification triples are a fixed suite of the workload, like
        # its diagrams: reference-path cost has a heavy tail in the key, so
        # drawing them from the run seed would make certify_s measure the
        # draw.  The run seed varies the sessions and the path end points.
        self.triples = []
        for k in range(self.w.certify_triples):
            rng = random.Random(f"{self.w.name}/certify/{k}")
            regime = self.w.regimes[k % len(self.w.regimes)]
            message = self.message(rng, regime, single=True)
            key = self.tmp / f"certify-{k}.json"
            # lengths cycle through the range in each regime
            low, high = self.w.key_lengths
            length = str(low + k // len(self.w.regimes) % (high - low + 1))
            argv = ["keygen", "--params", self.params_files[regime], "--length", length]
            code, _, err, _ = self.cli(
                [*argv, "--rng-seed", str(rng.randrange(2**31)), "--out", str(key)]
            )
            self.check(code == 0, f"certification keygen: {err}")
            self.triples.append((regime, message, str(key)))
        self.build_items()

    def message(self, rng, regime, single=False):
        if self.w.letters is None:
            return str(rng.randrange(1, regime.q))
        length = 1 if single else rng.randint(*self.w.letters)
        return "".join(rng.choice(ALPHABET) for _ in range(length))

    def measure_setup(self):
        """Time fresh interpreters importing clustercrypt and loading the params files."""
        script = (
            "import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import clustercrypt\n"
            f"for path in {sorted(self.params_files.values())!r}:\n"
            "    with open(path, 'rb') as handle:\n"
            "        clustercrypt.deserialize_params(handle.read())\n"
            "print(time.perf_counter() - t0)\n"
        )
        for repeat in range(SETUP_REPEATS + 1):  # the first one also writes bytecode
            self.probe_speed(force=True)
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-I", "-c", script],
                cwd=self.tmp,
                capture_output=True,
                text=True,
                timeout=60,
            )
            end = time.perf_counter()
            ok = self.check(done.returncode == 0, f"setup interpreter: {done.stderr.strip()}")
            if ok and repeat:
                self.ops["setup"].append((start, end, float(done.stdout), None))
        self.probe_speed(force=True)

    # --- the analyst work -------------------------------------------------------

    def graph_commands(self):
        for spec in self.w.graphs:
            if spec is None:
                regime = self.w.regimes[0]
                yield regime.family, regime.rank, ["--params", self.params_files[regime]]
            else:
                family, rank = spec
                yield family, rank, ["--family", family, "--rank", str(rank)]

    def build_items(self):
        """One pass of each kind of analyst work, as callables -> (seconds, counts)."""
        self.items = {
            "graph": [
                functools.partial(self.graph_item, family, rank, argv)
                for family, rank, argv in self.graph_commands()
            ],
            "probe": [self.probe_item],
            "path": [
                functools.partial(self.path_item, graph, t)
                for graph in self.path_graphs
                for t in self.w.path_lengths
            ],
            "certify": [
                functools.partial(self.cross_check, k, *triple)
                for k, triple in enumerate(self.triples)
            ]
            + [self.symbolic_item],
        }

    def run_item(self, kind):
        """The next item of one kind; a finished pass is checked against the first."""
        self.probe_speed()
        items = self.items[kind]
        self.tracer.session = f"{kind}{self.passes[kind]}"
        with self.tracer.span("bench." + kind):
            (start, end, seconds), counts = items[self.position[kind]]()
        self.tracer.session = ""
        self.spent[kind] += seconds
        self.ops[kind].append((start, end, seconds, self.position[kind]))
        self.pass_counts[kind].update(counts)
        self.position[kind] += 1
        if self.position[kind] == len(items):
            counts = self.pass_counts[kind]
            if self.passes[kind] == 0:
                self.first_pass[kind] = counts
            else:
                self.check(counts == self.first_pass[kind], f"{kind} pass counts {counts}")
            self.position[kind] = 0
            self.passes[kind] += 1
            self.pass_counts[kind] = {}

    def graph_item(self, family, rank, argv):
        self.tracer.session = f"graph:{family}{rank}"
        code, out, err, op = self.cli(["graph", *argv, "--format", "json"])
        try:
            info = json.loads(out)
        except ValueError:
            info = {}
        vertices = info.get("vertices")
        retries = point_retries(info.get("fingerprint_point", ()), rank)
        self.check(
            code == 0
            and vertices == class_count(family, rank)
            and info.get("regular") is True
            and info.get("connected") is True,
            f"graph {family}{rank}: exit {code}, {vertices} vertices {err}",
        )
        self.check(retries is not None, f"graph {family}{rank}: unknown fingerprint point")
        self.enumerated += vertices or 0
        label = f"{family}{rank}"
        return op, {f"{label}.vertices": vertices, f"{label}.point_retries": retries}

    def probe_item(self):
        code, out, err, op = self.cli(["probe", *self.w.probe, "--format", "csv"])
        return op, {"probe.rows": self.check_probe(code, out, err)}

    def path_item(self, graph, t):
        rng = random.Random(f"{self.w.name}/{self.seed}/path/{self.passes['path']}/{graph.rank}/{t}")
        u, v = rng.randrange(graph.n_vertices), rng.randrange(graph.n_vertices)
        start = time.perf_counter()
        count = self.cc.path_count(graph, u, v, t)
        end = time.perf_counter()
        self.check(
            count == walk_count(graph.adjacency, u, v, t),
            f"path_count on {graph.n_vertices} vertices ({u},{v},{t}) = {count}",
        )
        return (start, end, end - start), {}

    def symbolic_item(self):
        start = time.perf_counter()
        report = self.cc.verify_seed_list_a3(self.a3_graph)
        self.check(report.ok, f"verify_seed_list_a3: {report}")
        for matrix, spec in zip(self.bijection_matrices, self.w.bijections):
            report = self.cc.check_denominator_bijection(matrix)
            self.check(report.ok, f"denominator bijection {spec}: {report}")
        for family, rank in self.w.root_axioms:
            roots = self.cc.generate_root_system(self.cc.standard_cartan(family, rank))
            report = self.cc.check_root_axioms(roots)
            self.check(report.ok, f"root axioms {family}{rank}: {report}")
        end = time.perf_counter()
        return (start, end, end - start), {}

    def cross_check(self, k, regime, message, key):
        """Fast and reference encryption of one triple: same bytes or the same failing step."""
        params = self.params_files[regime]
        fast, ref = self.tmp / "certify-fast", self.tmp / "certify-ref"
        for path in (fast, ref):
            path.unlink(missing_ok=True)
        argv = ["encrypt", "--params", params, "--key", key, "--message", message]
        code, _, err, op = self.cli([*argv, "--out", str(fast)])
        ref_code, _, ref_err, ref_op = self.cli(
            [*argv, "--reference-path", "--out", str(ref)], span="cli.encrypt-reference"
        )
        if code == 0:
            same = ref_code == 0 and fast.read_bytes() == ref.read_bytes()
        else:
            same = code == ref_code == 2 and err == ref_err and "failed at step" in err
        self.check(same, f"reference path differs on {message}: {code}/{ref_code} {err!r} {ref_err!r}")
        return (op[0], ref_op[1], op[2] + ref_op[2]), {f"triple{k}.exit": code}

    def check_probe(self, code, out, err):
        families = self.w.probe[self.w.probe.index("--families") + 1].split(",")
        max_rank = int(self.w.probe[self.w.probe.index("--max-rank") + 1])
        expected = {
            (family, rank): class_count(family, rank)
            for family in families
            for rank in range({"D": 4}.get(family, 2), max_rank + 1)
        }
        found = {}
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            if len(cells) >= 4 and cells[2]:
                found[(cells[0], int(cells[1]))] = (int(cells[2]), int(cells[3]))
        ok = code == 0 and found == {key: (n, n) for key, n in expected.items()}
        self.check(ok, f"probe: exit {code}, rows {found} {err}")
        self.enumerated += sum(n for n, _ in found.values())
        return len(found)

    # --- sessions -------------------------------------------------------------------

    def session(self, index, round0):
        """One session, with its spans tagged by the session's index."""
        self.probe_speed()
        self.tracer.session = f"s{index}"
        try:
            self._session(index, round0)
        finally:
            self.tracer.session = ""

    def _session(self, index, round0):
        """keygen, encrypt (re-keying on exit 2), decrypt; checked and timed."""
        w = self.w
        rng = random.Random(f"{w.name}/{self.seed}/session/{index}")
        regime = w.session_regime
        t = rng.randint(*w.key_lengths)
        message = self.message(rng, regime)
        records = 1 if w.letters is None else len(message)
        key_seed = rng.randrange(2**31)
        params = self.params_files[regime]
        key_path, ct_path = self.tmp / "key", self.tmp / "ct"
        steps = 0
        start = time.perf_counter()
        with self.tracer.span("bench.session"):
            for attempt in range(MAX_ATTEMPTS):
                code, out, err, _ = self.cli(
                    [
                        "keygen",
                        "--params", params,
                        "--length", str(t),
                        "--rng-seed", str(key_seed + attempt),
                        "--out", str(key_path),
                    ]
                )
                if not self.check(code == 0, f"keygen exit {code}: {err}"):
                    return
                ct_path.unlink(missing_ok=True)
                code, out, err, op = self.cli(
                    [
                        "encrypt",
                        "--params", params,
                        "--key", str(key_path),
                        "--message", message,
                        "--out", str(ct_path),
                    ]
                )
                self.ops["encrypt"].append((*op, None))
                done = out.count(" -> values ")
                if round0:
                    self.round0_counts["attempts"] += 1
                if code == 2:
                    failed_at = re.search(r"encryption failed at step (\d+)", err)
                    if not self.check(failed_at is not None, f"exit 2 without a step: {err}"):
                        return
                    steps += t * done + int(failed_at.group(1))
                    if round0:
                        self.round0_counts["rekeys"] += 1
                    continue
                if not self.check(code == 0 and done == records, f"encrypt exit {code}: {err}"):
                    return
                self.enc_records += records
                steps += t * records
                if round0:
                    self.record_round0(regime, key_path, out, records)
                break
            else:
                self.check(False, f"session {index}: no key in {MAX_ATTEMPTS} attempts")
                return
            code, out, err, op = self.cli(
                [
                    "decrypt",
                    "--params", params,
                    "--key", str(key_path),
                    "--ciphertext", str(ct_path),
                    "--format", "json",
                ]
            )
            self.ops["decrypt"].append((*op, None))
            try:
                decoded = json.loads(out)
            except ValueError:
                decoded = None
            if not isinstance(decoded, list):
                ok = False
            elif w.letters is None:
                ok = [d["number"] for d in decoded] == [int(message)]
            else:
                ok = "".join(d["letter"] or "?" for d in decoded) == message
            if not self.check(code == 0 and ok, f"decrypt exit {code}: {out!r} {err}"):
                return
            self.dec_records += records
            steps += t * records
        end = time.perf_counter()
        self.ops["session"].append((start, end, end - start, None))
        if round0:
            self.round0_counts["steps"] += steps

    def record_round0(self, regime, key_path, out, records):
        key = json.loads(key_path.read_bytes())
        rows = self.cc.dynkin_exchange_matrix(self.cc.DynkinSpec(regime.family, regime.rank)).rows
        encrypt_ops, final = field_ops(rows, key["seq"])
        decrypt_ops, _ = field_ops(final, key["seq"][::-1])
        self.round0_counts["ops"] += (encrypt_ops + decrypt_ops) * records
        self.round0_counts["records"] += records
        self.keys.append((regime, tuple(key["seq"])))
        for line in out.splitlines():
            found = re.search(r"-> values \[([0-9, ]*)\]", line)
            if found:
                self.ct_values[regime].extend(int(v) for v in found.group(1).split(","))
        for row in rows:
            self.exponents.update(abs(b) for b in row if b)

    # --- the loop ----------------------------------------------------------------------

    def round0(self):
        """Round 0: one pass of every kind and a round of sessions; it fixes the exact counts."""
        self.first_passes()
        self.first_sessions()

    def first_passes(self):
        for kind in KINDS:
            for _ in self.items[kind]:
                self.run_item(kind)

    def first_sessions(self):
        for index in range(self.w.sessions_per_round):
            self.session(index, round0=True)
        r0 = self.round0_counts
        first = {key: value for kind in KINDS for key, value in self.first_pass[kind].items()}
        self.exact.update(
            analyst=first,
            certify_failed_alike=sum(v == 2 for k, v in first.items() if k.endswith(".exit")),
            rekey_ratio=r0["rekeys"] / max(r0["attempts"], 1),
            steps_per_session=r0["steps"] / self.w.sessions_per_round,
            ops_per_record=r0["ops"] / max(r0["records"], 1),
            point_retries=sum(v for k, v in first.items() if k.endswith("point_retries")),
            vertices_per_pass=sum(v for k, v in first.items() if k.endswith("vertices")),
        )

    def loop(self, start, first_index):
        """Sessions until the deadline, each kind of analyst work kept at its share."""
        index = first_index
        while time.perf_counter() - start < self.seconds:
            for kind in KINDS:
                if self.spent[kind] < self.w.shares[kind] * (time.perf_counter() - start):
                    self.run_item(kind)
            self.session(index, round0=False)
            index += 1

    def end_to_end(self):
        """The end-to-end metrics at reference speed, and the same figures raw."""
        self.probe_speed(force=True)  # the last operation's "after" probe
        vertices = sum(class_count(family, rank) for family, rank, _ in self.graph_commands())

        def summary(scaled):
            def seconds(kind):
                if scaled:
                    return self.at_reference_speed(kind)
                return [(op[2], op[3]) for op in self.ops[kind]]

            def pass_time(kind):
                """One pass of a kind: the sum over its items of each item's median."""
                runs = defaultdict(list)
                for value, item in seconds(kind):
                    runs[item].append(value)
                return sum(median(values) for values in runs.values())

            def total(kind):
                return sum(value for value, _ in seconds(kind))

            sessions_ms = [value * 1000 for value, _ in seconds("session")]
            return {
                "encrypt_records_per_s": self.enc_records / total("encrypt"),
                "decrypt_records_per_s": self.dec_records / total("decrypt"),
                "session_ms_p50": median(sessions_ms),
                "session_ms_p90": p90(sessions_ms),
                "graph_vertices_per_s": vertices / pass_time("graph"),
                "probe_s": pass_time("probe"),
                "path_count_s": pass_time("path"),
                "certify_s": pass_time("certify"),
                "setup_s": median([value for value, _ in seconds("setup")]),
            }

        scaled = summary(True)
        metrics = {
            name: {"value": scaled[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
        }
        return metrics, summary(False)


# --- the traced run -------------------------------------------------------------


def trace_targets(cc):
    fields, cluster, symbolic, crypto = cc.fields, cc.cluster, cc.symbolic, cc.crypto

    def encrypt_name(args, kwargs):
        reference = kwargs.get("reference_path", args[3] if len(args) > 3 else False)
        return "crypto.reference_encrypt" if reference else "crypto.encrypt"

    functions = [
        (f"{module.__name__.rsplit('.', 1)[1]}.{attr}", module, attr, None)
        for module, attrs in (
            (fields, ("ext_add", "ext_mul", "ext_inv", "ext_pow", "element_to_int", "int_to_element")),
            (cluster, ("matrix_mutate", "numeric_mutate", "is_finite_type", "dynkin_exchange_matrix")),
            (symbolic, ("rf_mutate", "initial_symbolic_seed")),
            (
                crypto,
                (
                    "keygen", "validate_key", "decrypt", "encode_message", "decode_message",
                    "serialize_ciphertext", "deserialize_ciphertext", "serialize_params",
                    "deserialize_params", "serialize_key", "deserialize_key",
                ),
            ),
            (
                cc.analysis,
                (
                    "enumerate_exchange_graph", "path_count", "key_recovery_probability",
                    "probability_report", "verify_seed_list_a3", "check_denominator_bijection",
                    "enumerate_symbolic_seeds", "cluster_variables",
                ),
            ),
            (cc.roots, ("generate_root_system", "check_root_axioms")),
        )
        for attr in attrs
    ]
    functions.append(("crypto.encrypt", crypto, "encrypt", encrypt_name))
    methods = [
        ("fields.FieldParams", fields.FieldParams, "__post_init__"),
        ("cluster.ExchangeMatrix", cluster.ExchangeMatrix, "__post_init__"),
        ("symbolic.evaluate", symbolic.RationalFunction, "evaluate"),
        ("symbolic.substitute", symbolic.RationalFunction, "substitute"),
    ]
    return functions, methods


def timed_per_call(tracer, name, calls, repeats=5):
    """Median over repeats of seconds per call, running all calls each repeat."""
    samples = []
    for _ in range(repeats):
        with tracer.span(name):
            start = time.perf_counter()
            for call in calls:
                call()
            samples.append((time.perf_counter() - start) / len(calls))
    return statistics.median(samples)


def microbenchmarks(run, tracer):
    """Field and symbolic costs on the workload's own ciphertext values and keys."""
    cc = run.cc
    fields = cc.fields
    mul, inv, power, exps = [], [], [], sorted(run.exponents)
    for regime, ints in run.ct_values.items():
        field = cc.FieldParams(regime.p, regime.r, regime.f)
        elements = [fields.int_to_element(v, field) for v in ints if v][:400]
        for a, b in zip(elements, elements[1:] + elements[:1]):
            mul.append(lambda a=a, b=b, F=field: fields.ext_mul(a, b, F))
        for i, a in enumerate(elements):
            inv.append(lambda a=a, F=field: fields.ext_inv(a, F))
            power.append(lambda a=a, e=exps[i % len(exps)], F=field: fields.ext_pow(a, e, F))
    result = {
        "fields.ext_mul_ns": timed_per_call(tracer, "micro.ext_mul", mul) * 1e9,
        "fields.ext_inv_ns": timed_per_call(tracer, "micro.ext_inv", inv) * 1e9,
        "fields.ext_pow_ns": timed_per_call(tracer, "micro.ext_pow", power) * 1e9,
    }
    per_step, evaluate = [], []
    for regime, seq in run.keys[:8]:
        field = cc.FieldParams(regime.p, regime.r, regime.f)
        matrix = cc.dynkin_exchange_matrix(cc.DynkinSpec(regime.family, regime.rank))
        initial = cc.symbolic.initial_symbolic_seed(matrix, regime.p)
        with tracer.span("micro.apply_symbolic_sequence"):
            start = time.perf_counter()
            seed = cc.symbolic.apply_symbolic_sequence(initial, seq)
            per_step.append((time.perf_counter() - start) / len(seq))
        point = [field.alpha_power(i) for i in range(regime.r)]
        for entry in seed.entries:
            evaluate.append(lambda e=entry, P=point, F=field: e.evaluate(P, F))
    result["symbolic.rf_mutate_us"] = median(per_step) * 1e6
    result["symbolic.evaluate_us"] = timed_per_call(tracer, "micro.evaluate", evaluate) * 1e6
    return result


def enumerate_us_per_vertex_by_diagram(tracer):
    """Per-vertex enumeration time of each `graph` diagram, from the recorded spans."""
    spent = defaultdict(int)
    runs = defaultdict(int)
    for name, session, start, end, _ in tracer.records:
        if name == "analysis.enumerate_exchange_graph" and session.startswith("graph:"):
            diagram = session[len("graph:"):]
            spent[diagram] += end - start
            runs[diagram] += 1
    return {
        diagram: spent[diagram] / runs[diagram] / class_count(diagram[0], int(diagram[1:])) / 1e3
        for diagram in sorted(spent)
    }


def per_layer(run, tracer, overhead_pct, micro):
    """The per-layer metrics; times at reference speed, counts and shares as measured."""
    t = tracer
    speed = run.speed()
    us = lambda name: t.mean_ns(name) / 1e3  # noqa: E731
    ms = lambda name: t.mean_ns(name) / 1e6  # noqa: E731
    records = t.count("crypto.encrypt") + t.count("crypto.decrypt")
    cli_self = t.self_ns("cli.encrypt") + t.self_ns("cli.decrypt")
    layers = t.layer_self_ns()
    traced_ns = sum(layers.get(layer, 0) for layer in LAYERS)
    times = {
        "fields.field_params_us": (us("fields.FieldParams"), "us"),
        "fields.ext_mul_ns": (micro["fields.ext_mul_ns"], "ns"),
        "fields.ext_inv_ns": (micro["fields.ext_inv_ns"], "ns"),
        "fields.ext_pow_ns": (micro["fields.ext_pow_ns"], "ns"),
        "cluster.matrix_mutate_us": (us("cluster.matrix_mutate"), "us"),
        "cluster.exchange_matrix_us": (us("cluster.ExchangeMatrix"), "us"),
        "cluster.numeric_mutate_us": (us("cluster.numeric_mutate"), "us"),
        "cluster.is_finite_type_ms": (ms("cluster.is_finite_type"), "ms"),
        "crypto.validate_key_us": (us("crypto.validate_key"), "us"),
        "crypto.keygen_us": (us("crypto.keygen"), "us"),
        "crypto.encrypt_us": (us("crypto.encrypt"), "us"),
        "crypto.decrypt_us": (us("crypto.decrypt"), "us"),
        "crypto.serialize_ciphertext_us": (us("crypto.serialize_ciphertext"), "us"),
        "crypto.deserialize_ciphertext_us": (us("crypto.deserialize_ciphertext"), "us"),
        "crypto.reference_encrypt_us": (us("crypto.reference_encrypt"), "us"),
        "symbolic.rf_mutate_us": (micro["symbolic.rf_mutate_us"], "us"),
        "symbolic.evaluate_us": (micro["symbolic.evaluate_us"], "us"),
        "analysis.enumerate_us_per_vertex": (
            t.totals["analysis.enumerate_exchange_graph"][1] / run.traced_vertices / 1e3,
            "us",
        ),
        "analysis.path_count_ms": (ms("analysis.path_count"), "ms"),
        "analysis.verify_seed_list_a3_ms": (ms("analysis.verify_seed_list_a3"), "ms"),
        "analysis.check_denominator_bijection_ms": (ms("analysis.check_denominator_bijection"), "ms"),
        "roots.generate_root_system_ms": (ms("roots.generate_root_system"), "ms"),
        "roots.check_root_axioms_ms": (ms("roots.check_root_axioms"), "ms"),
        **{
            f"cli.{command}_ms": (ms(f"cli.{command}"), "ms")
            for command in ("params", "keygen", "encrypt", "decrypt", "graph", "probe")
        },
        "cli.overhead_us_per_record": (cli_self / records / 1e3, "us"),
    }
    metrics = {name: {"value": value / speed, "unit": unit} for name, (value, unit) in times.items()}
    exact = run.exact
    for name, value, unit in (
        ("fields.ops_per_record", exact["ops_per_record"], "count"),
        ("cluster.steps_per_session", exact["steps_per_session"], "count"),
        ("rekey_ratio", exact["rekey_ratio"], "ratio"),
        ("analysis.point_retries", exact["point_retries"], "count"),
        *((f"{layer}.self_pct", 100 * layers.get(layer, 0) / traced_ns, "%") for layer in LAYERS),
        ("trace.overhead_pct", overhead_pct, "%"),
    ):
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def traced_run(run, tracer, start):
    """Round 0 untraced, the same round again traced, then traced rounds to the deadline."""
    cc = run.cc
    began = time.perf_counter()
    run.round0()
    untraced = time.perf_counter() - began

    functions, methods = trace_targets(cc)
    tracer.install("clustercrypt", functions, methods)
    try:
        run.tracer = tracer
        run.write_params()
        untraced_vertices = run.enumerated
        replay = Run(cc, run.w, run.seed, run.seconds, tracer, run.tmp)
        for shared in ("params_files", "path_graphs", "a3_graph", "bijection_matrices", "triples"):
            setattr(replay, shared, getattr(run, shared))
        replay.build_items()
        began = time.perf_counter()
        replay.first_passes()
        steps = -tracer.count("cluster.numeric_mutate")  # certification encrypts too
        replay.first_sessions()
        steps += tracer.count("cluster.numeric_mutate")
        traced = time.perf_counter() - began
        run.check(
            steps == run.round0_counts["steps"],
            f"traced mutation steps {steps} != modelled {run.round0_counts['steps']}",
        )
        run.check(replay.exact == run.exact, f"traced round 0 counts differ: {replay.exact}")
        run.attempted += replay.attempted
        run.failed += replay.failed
        run.failures += replay.failures
        run.probes += replay.probes
        run.loop(start, run.w.sessions_per_round)
    finally:
        tracer.uninstall()
    run.traced_vertices = replay.enumerated + run.enumerated - untraced_vertices
    micro = microbenchmarks(run, tracer)
    return untraced, traced, micro


# --- metadata -----------------------------------------------------------------------


def commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def metadata(workload, seed, trace):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "src_lines": sum(
            len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py"))
        ),
    }


# --- entry point ------------------------------------------------------------------


def load_program():
    package = SRC / "clustercrypt"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a clustercrypt checkout")
    sys.path.insert(0, str(SRC))
    import clustercrypt
    import clustercrypt.cli

    if Path(clustercrypt.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported clustercrypt from {clustercrypt.__file__}, not {package}")
    return clustercrypt


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    cc = load_program()
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir()
    meta = metadata(args.workload, args.seed, args.trace)
    print("meta", json.dumps(meta, sort_keys=True))
    run = Run(cc, workload, args.seed, args.seconds, NullTracer(), tmp)
    record = {"meta": meta}
    try:
        run.prepare()
        if args.trace:
            tracer = Tracer(HOT_SPANS)
            start = time.perf_counter()
            untraced, traced, micro = traced_run(run, tracer, start)
            overhead = 100 * (traced - untraced) / untraced
            metrics = per_layer(run, tracer, overhead, micro)
            by_diagram = enumerate_us_per_vertex_by_diagram(tracer)
            record["enumerate_us_per_vertex_by_diagram"] = by_diagram
            record["round0_seconds"] = {"untraced": untraced, "traced": traced}
            tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
            print("enumerate_us_per_vertex", json.dumps(by_diagram, sort_keys=True))
            print(
                f"trace: round 0 untraced {untraced:.3f} s, traced {traced:.3f} s, "
                f"{len(tracer.records)} spans kept"
            )
        else:
            run.measure_setup()
            start = time.perf_counter()
            run.round0()
            run.loop(start, workload.sessions_per_round)
            metrics, record["raw"] = run.end_to_end()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record.update(
        exact=run.exact,
        samples={
            "sessions": len(run.ops["session"]),
            "analyst_passes": run.passes,
            "speed_probes": len(run.probes),
            "probe_median_s": median([seconds for _, seconds in run.probes]),
        },
        failed_ratio=run.failed / run.attempted,
        failures=run.failures,
        metrics=metrics,
    )
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True)
    )
    print("exact", json.dumps(run.exact, sort_keys=True))
    print("samples", json.dumps(record["samples"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
