"""The benchmark's seeded workloads and the loop that runs them.

Each workload is one fixed configuration of the public rankfold API.
Operation i draws its inputs from `derive_seed(seed, i)`, the way the CLI
trial functions do, so the inputs are a pure function of the seed.  Every
output is checked: a decode must return exactly the planted codeword and
error, and a fold experiment must tally what it was asked to.  Every
workload stays within its decoder's stated conditions, so a decode that
reports failure is tallied here and fails the run in run.py.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from rankfold import DecodingFailure, linalg, plotkin
from rankfold.exactfield import mq_field
from rankfold.gabidulin import GabidulinCode, GabidulinMatrixCode
from rankfold.gf import ExtField, PrimeField, QuadExtField
from rankfold.linalg import ExactMatrix
from rankfold.modmat import sample_rank_exact
from rankfold.reedmuller import RMCode
from rankfold.rng import SplitMix64, derive_seed

# Failure reasons are tallied by this many leading characters.
REASON_PREFIX = 48
# The input digest covers this many leading operations of a run.
DIGEST_OPS = 100
# The untimed warm-up operation uses an index no timed operation reaches.
WARMUP_INDEX = 1 << 40


class WrongAnswer(Exception):
    """A verified-looking result that differs from the planted one."""


@dataclass
class Op:
    latency_s: float  # the timed call: one decode, or one fold experiment pair
    wall_s: float  # the whole operation, input sampling included
    items: int  # round trips or classified folds completed
    failure: str | None = None
    inputs: bytes = b""  # canonical form of the inputs, for the digest


def _matrix_bytes(M) -> bytes:
    return json.dumps([[M.field.element_to_json(e) for e in row] for row in M.entries]).encode()


class _DecodeWorkload:
    """Random codeword C plus planted error E, decoded and checked."""

    def plant(self, index):
        raise NotImplementedError

    def decode(self, Y):
        raise NotImplementedError

    def op(self, index: int, want_inputs: bool) -> Op:
        t0 = perf_counter()
        C, E = self.plant(index)
        Y = C + E
        t1 = perf_counter()
        try:
            C_hat, E_hat = self.decode(Y)
        except DecodingFailure as exc:
            t2 = perf_counter()
            failure = str(exc)[:REASON_PREFIX]
        else:
            t2 = perf_counter()
            failure = None
            if C_hat != C or E_hat != E:
                raise WrongAnswer(f"{self.name}: operation {index} decoded to a different codeword")
        wall = perf_counter() - t0
        inputs = _matrix_bytes(C) + b"|" + _matrix_bytes(E) if want_inputs else b""
        return Op(t2 - t1, wall, 1, failure, inputs)

    def finish(self) -> dict:
        return {}


class RMTower(_DecodeWorkload):
    name = "rm-tower"

    def __init__(self, seed: int):
        self.seed = seed
        self.code = RMCode(mq_field([2, 3, 5, 7]), r=1)

    def plant(self, index):
        rng = SplitMix64(derive_seed(self.seed, index))
        C = self.code.encode(self.code.random_message(rng))
        return C, self.code.sample_error(rng)

    def decode(self, Y):
        report = self.code.decode(Y)
        if not report.success:
            raise DecodingFailure(report.reason)
        return report.codeword, report.recovered_error


class _PlotkinWorkload(_DecodeWorkload):
    def __init__(self, seed: int, code, error_rank: int):
        self.seed = seed
        self.code = code
        self.error_rank = error_rank
        self.field = PrimeField(code.field.p)

    def plant(self, index):
        rng = SplitMix64(derive_seed(self.seed, index))
        C = self.code.random_codeword(rng)
        E = linalg.random_rank_matrix(self.field, rng, self.code.rows, self.code.cols, self.error_rank)
        return C, E

    def decode(self, Y):
        return self.code.decode(Y)


class PlotkinSquare(_PlotkinWorkload):
    name = "plotkin-square"

    def __init__(self, seed: int):
        super().__init__(seed, plotkin.gabidulin_plotkin(23, 8, 6, 4), error_rank=2)


class PlotkinTwisted(_PlotkinWorkload):
    """a = 5 is a non-residue mod 23, so decoding runs over GF(23^2).

    Built directly: gabidulin_plotkin(23, 8, 6, 4, a=5) sets radius
    m - k1 = 2, but decode_ext needs 2t <= D's radius of 2, so every
    decode there fails.  Here D = Gab(6, 2) has radius 2 and C = Gab(6, 5)
    takes one erasure, so t = 1 satisfies the decoder's stated condition.
    """

    name = "plotkin-twisted"

    def __init__(self, seed: int):
        f = ExtField(23, 6)
        code = plotkin.PlotkinCode(
            GabidulinMatrixCode(GabidulinCode(f, 5)), GabidulinMatrixCode(GabidulinCode(f, 2)), 5, radius=1
        )
        super().__init__(seed, code, error_rank=1)


class FoldMC:
    """fold_probability_experiment at a = 1 (square) and a = 5 (non-square)."""

    name = "fold-mc"
    q, m, t = 23, 16, 4
    twists = ((1, True), (5, False))

    def __init__(self, seed: int, trials: int = 1024):
        assert trials <= plotkin._FOLD_CHUNK, "finish() re-derives a single sampling chunk"
        self.seed = seed
        self.trials = trials
        self.first = None  # (index, drops) of the first timed operation

    def _experiments(self, index):
        s = derive_seed(self.seed, index)
        return [plotkin.fold_probability_experiment(self.q, self.m, self.t, a, self.trials, s)
                for a, _ in self.twists]

    def _errors(self, index):
        """The errors operation `index` draws; both experiments draw the same
        ones, from one chunk seeded the way the library seeds chunk 0."""
        rng = np.random.default_rng(derive_seed(derive_seed(self.seed, index), 0))
        return sample_rank_exact(rng, self.q, self.trials, 2 * self.m, 2 * self.m, self.t)

    def op(self, index: int, want_inputs: bool) -> Op:
        t0 = perf_counter()
        stats = self._experiments(index)
        wall = perf_counter() - t0
        for st, (a, square) in zip(stats, self.twists):
            if st.trials != self.trials or st.square != square or st.a != a or not 0 <= st.drops <= st.trials:
                raise WrongAnswer(f"fold-mc: operation {index} returned {st}")
        drops = [st.drops for st in stats]
        if self.first is None and index != WARMUP_INDEX:
            self.first = (index, drops)
        inputs = b""
        if want_inputs:
            # Drops are about 0 on every seed, so operation 0 also hashes its errors.
            sampled = hashlib.sha256(self._errors(index).astype("<i8").tobytes()).digest() if index == 0 else b""
            inputs = json.dumps(drops).encode() + sampled
        # One operation is the whole experiment pair, so latency and wall are one figure.
        return Op(wall, wall, len(stats) * self.trials, None, inputs)

    def finish(self) -> dict:
        """Recompute the folds of the first timed operation after the timed
        loop and rank them with the kernels plotkin calls: the drops must
        repeat, and per twist the ranks of the lowest-rank, the first and the
        middle fold must match ExactMatrix.rank.  Drops alone would pass a
        kernel that answers fast but wrong, since they are about 0 anyway."""
        if self.first is None:
            return {}
        index, drops = self.first
        E = self._errors(index)
        q, m = self.q, self.m
        E00, E01, E10, E11 = E[:, :m, :m], E[:, :m, m:], E[:, m:, :m], E[:, m:, m:]
        field = PrimeField(q)
        checked = 0
        for (a, square), want in zip(self.twists, drops):
            if square:
                b = int(field.sqrt(field.coerce(a)).inverse().val)
                A, B = (b * E00 + E01 + (b * b % q) * E10 + b * E11) % q, None
                ranks = plotkin.batch_rank_mod(A, q)
            else:
                A, B = (E01 + a * E10) % q, (E00 + E11) % q
                ranks = plotkin.batch_rank_quad(A, B, q, a)
            if int((ranks < self.t).sum()) != want:
                raise WrongAnswer(f"fold-mc: a={a} drops {want} of operation {index} not reproduced")
            for j in sorted({int(ranks.argmin()), 0, len(ranks) // 2}):
                exact = exact_rank(q, A[j], None if B is None else B[j], a)
                if exact != ranks[j]:
                    raise WrongAnswer(f"fold-mc: a={a} fold {j} of operation {index} has rank {exact}, "
                                      f"the kernel says {ranks[j]}")
                checked += 1
        return {"rerun_index": index, "rank_checks": checked}


def exact_rank(p: int, A, B=None, nonresidue=None) -> int:
    """Rank by ExactMatrix of the integer matrix A over GF(p), or, given B
    and a non-residue n, of A + B sqrt(n) over GF(p^2)."""
    if B is None:
        return ExactMatrix(PrimeField(p), A.tolist()).rank()
    field = QuadExtField(p, nonresidue)
    return ExactMatrix(field, [[field.element(u, v) for u, v in zip(ru, rv)]
                               for ru, rv in zip(A.tolist(), B.tolist())]).rank()


WORKLOADS = {cls.name: cls for cls in (RMTower, PlotkinSquare, PlotkinTwisted, FoldMC)}


@dataclass
class Tally:
    ops: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    input_hashes: list = field(default_factory=list)  # one per operation index below DIGEST_OPS

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_ops(workload, keep_going, tally: Tally, digest: bool, on_op=None, start: int = 0) -> None:
    """Run operations start, start + 1, ... while keep_going(done, elapsed_s).

    Failures are tallied by reason; operations with an index below
    DIGEST_OPS add a hash of their inputs when `digest` is set.
    """
    t0 = perf_counter()
    index = start
    done = 0
    while keep_going(done, perf_counter() - t0):
        if on_op is not None:
            on_op(index)
        want = digest and index < DIGEST_OPS
        op = workload.op(index, want)
        if want:
            tally.input_hashes.append(hashlib.sha256(index.to_bytes(8, "little") + op.inputs).hexdigest())
        if op.failure is not None:
            tally.failures[op.failure] = tally.failures.get(op.failure, 0) + 1
        tally.ops.append(op)
        index += 1
        done += 1
