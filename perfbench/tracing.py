"""Layer tracing for the traced benchmark run.

`Tracer.install()` replaces public functions and methods of rankfold's
modules with wrappers at runtime; `uninstall()` puts the originals back.
Nothing under `src/` is edited, and untraced runs never import this file.

Calls at layer boundaries become spans: (name, start, end, parent, trial),
kept in memory and written once at the end.  Element arithmetic is far
too fine-grained for a span per call, so those operations are aggregated
into a call count and a busy time.  Bookkeeping done inside a wrapper
(coefficient sizes, copies of sampled matrices) is subtracted from the
span clock, so it shows in the overhead share and not in any layer.
"""

from __future__ import annotations

import json
from time import perf_counter, perf_counter_ns

import numpy as np

from rankfold import exactfield, gabidulin, gf, linalg, modmat, plotkin, reedmuller
from rankfold.linalg import ExactMatrix

from measure import self_times
from workloads import exact_rank

NS = 1e-9


def _field_kind(field) -> str:
    if isinstance(field, (exactfield.MultiquadraticField, exactfield.RationalField)):
        return "tower"
    if isinstance(field, gf.PrimeField):
        return "prime"
    if isinstance(field, gf.ExtField):
        return "ext"
    if isinstance(field, gf.QuadExtField):
        return "quad"
    return "other"


def _coeff_bits(M: ExactMatrix) -> int:
    """Largest numerator or denominator bit length among the entries of a
    matrix over a tower (entries are MQElements) or over Q (Fractions)."""
    best = 0
    for row in M.entries:
        for e in row:
            for c in getattr(e, "coords", (e,)):
                best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class _CountingRng:
    """Forwards to a numpy Generator and counts the matrices drawn."""

    def __init__(self, rng):
        self._rng = rng
        self.drawn = 0

    def integers(self, *args, size=None, **kwargs):
        self.drawn += size[0]
        return self._rng.integers(*args, size=size, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start_ns, end_ns, parent, trial]
        self._stack: list[int] = []
        self.trial = -1
        self.excluded_ns = 0
        self.ops: dict[str, list] = {}  # aggregated element ops: [count, seconds]
        self.counters: dict[str, float] = {}
        self.samples: list[tuple] = []  # modmat results kept for exact re-checks
        self._undo: list[tuple] = []

    # -- clock and bookkeeping ---------------------------------------------------

    def now(self) -> int:
        return perf_counter_ns() - self.excluded_ns

    def _add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ----------------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; `after(args, result, dur_ns)`
        runs as excluded bookkeeping once the span has closed."""
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [nid, 0, 0, stack[-1] if stack else -1, self.trial]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = self.now()
                stack.pop()
            if after is not None:
                b0 = perf_counter_ns()
                after(args, result, rec[2] - rec[1])
                self.excluded_ns += perf_counter_ns() - b0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _op_cell(self, key: str) -> list:
        return self.ops.setdefault(key, [0, 0.0])

    def timed(self, key: str, fn):
        cell = self._op_cell(key)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            t = perf_counter()
            out = fn(*args, **kwargs)
            cell[1] += perf_counter() - t
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        cell = self._op_cell(key)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-call hooks -----------------------------------------------------------------

    def _after_rref(self, args, result, dur_ns):
        M = args[0]
        kind = _field_kind(M.field)
        self._add(f"linalg.rref.{kind}.count", 1)
        self._add(f"linalg.rref.{kind}.cells", M.rows * M.cols)
        self._add(f"linalg.rref.{kind}.s", dur_ns * NS)
        if kind == "tower":
            bits = max(_coeff_bits(M), _coeff_bits(result[0]))
            self.counters["exactfield.coeff_bits.max"] = max(self.counters.get("exactfield.coeff_bits.max", 0), bits)

    def _keep_samples(self, ranks, make):
        """Keep the lowest-rank matrix of the batch and one more, by call
        number, for an exact re-check after the run."""
        picks = {int(np.argmin(ranks)), len(self.samples) % len(ranks)}
        for j in sorted(picks):
            self.samples.append(make(j) + (int(ranks[j]),))

    def _after_rank_mod(self, args, ranks, dur_ns):
        mats, p = np.asarray(args[0]), args[1]
        self._add("modmat.batch_rank_mod.matrices", mats.shape[0])
        self._add("modmat.bytes_computed", 8 * mats.size)
        self._keep_samples(ranks, lambda j: ("mod", p, None, mats[j].copy(), None))

    def _after_rank_quad(self, args, ranks, dur_ns):
        U, V, p, nr = np.asarray(args[0]), np.asarray(args[1]), args[2], args[3]
        self._add("modmat.batch_rank_quad.matrices", U.shape[0])
        self._add("modmat.bytes_computed", 8 * (U.size + V.size))
        self._keep_samples(ranks, lambda j: ("quad", p, nr, U[j].copy(), V[j].copy()))

    def _after_matmul_mod(self, args, result, dur_ns):
        self._add("modmat.bytes_computed", 8 * (np.asarray(args[0]).size + np.asarray(args[1]).size))

    def _counting_sampler(self, fn):
        def sample_rank_exact(rng, p, count, rows, cols, t):
            proxy = _CountingRng(rng)
            out = fn(proxy, p, count, rows, cols, t)
            # X and Z are drawn together, so half the draws are attempts.
            self._add("modmat.sample_rank_exact.accepted", count)
            self._add("modmat.sample_rank_exact.attempts", proxy.drawn // 2)
            return out

        return sample_rank_exact

    # -- install / uninstall -------------------------------------------------------------

    def _patch(self, owners, attr: str, wrapper):
        for owner in owners:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def install(self):
        RM, EM = reedmuller.RMCode, ExactMatrix
        GC, GM, PC = gabidulin.GabidulinCode, gabidulin.GabidulinMatrixCode, plotkin.PlotkinCode
        spans = [
            ("reedmuller.decode", (RM,), "decode", None),
            ("reedmuller.fold", (RM,), "fold", None),
            ("reedmuller.fast_syndrome", (RM,), "fast_syndrome", None),
            ("reedmuller.erasure_decode", (RM,), "erasure_decode", None),
            ("reedmuller.encode", (RM,), "encode", None),
            ("reedmuller.sample_error", (RM,), "sample_error", None),
            ("linalg.rref", (EM,), "rref", self._after_rref),
            ("linalg.solve", (EM,), "solve", None),
            ("linalg.kernel_basis", (EM,), "kernel_basis", None),
            ("linalg.rank", (EM,), "rank", None),
            ("linalg.matmul", (EM,), "__matmul__", None),
            ("linalg.random_rank_matrix", (linalg,), "random_rank_matrix", None),
            ("gabidulin.decode_errors", (GC,), "decode_errors", None),
            ("gabidulin.decode_erasures", (GC,), "decode_erasures", None),
            ("gabidulin.parity_check_matrix", (GC,), "parity_check_matrix", None),
            ("gabidulin.decode_ext", (GM,), "decode_ext", None),
            ("gabidulin.decode_erasures_ext", (GM,), "decode_erasures_ext", None),
            ("gabidulin.basis_codewords", (GM,), "basis_codewords", None),
            ("plotkin.decode", (PC,), "decode", None),
            ("plotkin.random_codeword", (PC,), "random_codeword", None),
            ("plotkin.fold", (plotkin,), "plotkin_fold", None),
            ("plotkin.fold_experiment", (plotkin,), "fold_probability_experiment", None),
            # The kernels as plotkin sees them and as modmat calls them internally.
            ("modmat.batch_rank_mod", (plotkin, modmat), "batch_rank_mod", self._after_rank_mod),
            ("modmat.batch_rank_quad", (plotkin, modmat), "batch_rank_quad", self._after_rank_quad),
            ("modmat.batch_matmul_mod", (modmat,), "batch_matmul_mod", self._after_matmul_mod),
        ]
        for name, owners, attr, after in spans:
            for owner in owners:
                self._patch((owner,), attr, self.span(name, vars(owner)[attr], after))
        sampler = self._counting_sampler(modmat.sample_rank_exact)
        self._patch((plotkin, modmat), "sample_rank_exact", self.span("modmat.sample_rank_exact", sampler))

        MQ, EX, QE = exactfield.MQElement, gf.ExtElement, gf.QuadExtElement
        for cls, attrs, key in (
            (MQ, ("__mul__", "__rmul__"), "exactfield.mul"),
            (MQ, ("inverse",), "exactfield.inv"),
            (EX, ("__mul__", "__rmul__"), "gf.ext_mul"),
            (EX, ("inverse",), "gf.ext_inv"),
            (gf.ExtField, ("frobenius",), "gf.frobenius"),
        ):
            for attr in attrs:
                self._patch((cls,), attr, self.timed(key, vars(cls)[attr]))
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                     "conjugate", "inverse", "__truediv__", "__rtruediv__", "__pow__"):
            fn = vars(QE)[attr]
            if attr in ("__mul__", "__rmul__"):
                fn = self.timed("gf.quad_mul", fn)
            self._patch((QE,), attr, self.counted("gf.quad_ops", fn))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------------

    def verify_samples(self) -> tuple[int, list]:
        """Recompute each kept modmat rank with ExactMatrix over PrimeField
        or QuadExtField; returns (checked, mismatches)."""
        bad = []
        for kind, p, nr, A, B, rank in self.samples:
            exact = exact_rank(p, A, B, nr)
            if exact != rank:
                bad.append({"kernel": kind, "p": p, "shape": list(A.shape), "modmat": rank, "exact": exact})
        return len(self.samples), bad

    def layer_metrics(self) -> dict:
        names, spans = self.names, self.spans
        ids = self._ids
        rows = [(r[0], r[1], r[2], r[3]) for r in spans]
        dur = [e - s for _, s, e, _ in rows]
        own = self_times(rows)

        def has_ancestor(i, nid):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == nid:
                    return True
                p = spans[p][3]
            return False

        def of(name):
            nid = ids.get(name, -1)
            return [i for i, r in enumerate(spans) if r[0] == nid]

        def inclusive(name, within=None):
            nid = ids.get(name, -1)
            wid = ids.get(within, -1)
            return NS * sum(dur[i] for i in of(name)
                            if not has_ancestor(i, nid) and (within is None or has_ancestor(i, wid)))

        def self_s(name):
            return NS * sum(own[i] for i in of(name))

        def rank_checks_under(parent_name, outermost):
            pid = ids.get(parent_name, -1)
            total = 0
            for i in of("linalg.rank"):
                p = spans[i][3]
                if p >= 0 and spans[p][0] == pid and not (outermost and has_ancestor(p, pid)):
                    total += dur[i]
            return NS * total

        def ratio(num, den):
            return num / den if den else 0.0

        def children_of(parent_name, child_name):
            pid, cid = ids.get(parent_name, -1), ids.get(child_name, -1)
            return sum(1 for r in spans if r[0] == cid and r[3] >= 0 and spans[r[3]][0] == pid)

        c = self.counters
        out = {}
        for key in ("exactfield.mul", "exactfield.inv", "gf.ext_mul", "gf.ext_inv", "gf.frobenius"):
            n, secs = self.ops.get(key, (0, 0.0))
            out[f"{key}.count"] = n
            out[f"{key}.s"] = secs
        out["exactfield.coeff_bits.max"] = c.get("exactfield.coeff_bits.max", 0)
        out["gf.quad_ops.count"] = self.ops.get("gf.quad_ops", (0, 0.0))[0]
        out["gf.quad_mul.s"] = self.ops.get("gf.quad_mul", (0, 0.0))[1]
        for kind in ("tower", "prime", "ext", "quad"):
            for stat in ("count", "s", "cells"):
                out[f"linalg.rref.{kind}.{stat}"] = c.get(f"linalg.rref.{kind}.{stat}", 0)
        for name in ("linalg.solve", "linalg.kernel_basis", "linalg.rank", "linalg.matmul",
                     "linalg.random_rank_matrix"):
            out[f"{name}.s"] = inclusive(name)

        out["reedmuller.decode.s"] = inclusive("reedmuller.decode")
        out["reedmuller.decode.self_s"] = self_s("reedmuller.decode")
        for name in ("reedmuller.fold", "reedmuller.fast_syndrome", "reedmuller.erasure_decode"):
            out[f"{name}.s"] = inclusive(name, within="reedmuller.decode")
        out["reedmuller.erasure_decode.self_s"] = self_s("reedmuller.erasure_decode")
        out["reedmuller.verify.s"] = rank_checks_under("reedmuller.decode", outermost=True)
        out["reedmuller.encode.s"] = inclusive("reedmuller.encode")
        out["reedmuller.sample_error.s"] = inclusive("reedmuller.sample_error")
        out["reedmuller.sample_error.accept_ratio"] = ratio(
            len(of("reedmuller.sample_error")), children_of("reedmuller.sample_error", "linalg.matmul"))

        for name in ("gabidulin.decode_errors", "gabidulin.decode_erasures", "gabidulin.parity_check_matrix",
                     "gabidulin.decode_ext", "gabidulin.decode_erasures_ext", "gabidulin.basis_codewords"):
            out[f"{name}.s"] = inclusive(name)

        out["plotkin.decode.s"] = inclusive("plotkin.decode")
        out["plotkin.decode.self_s"] = self_s("plotkin.decode")
        out["plotkin.fold.s"] = inclusive("plotkin.fold")
        out["plotkin.verify.s"] = rank_checks_under("plotkin.decode", outermost=False)
        out["plotkin.random_codeword.s"] = inclusive("plotkin.random_codeword")
        out["plotkin.fold_experiment.self_s"] = self_s("plotkin.fold_experiment")

        out["modmat.sample_rank_exact.s"] = inclusive("modmat.sample_rank_exact")
        out["modmat.sample_rank_exact.accept_ratio"] = ratio(
            c.get("modmat.sample_rank_exact.accepted", 0), c.get("modmat.sample_rank_exact.attempts", 0))
        for name in ("modmat.batch_rank_mod", "modmat.batch_rank_quad"):
            out[f"{name}.s"] = inclusive(name)
            out[f"{name}.matrices"] = c.get(f"{name}.matrices", 0)
        out["modmat.batch_matmul_mod.s"] = inclusive("modmat.batch_matmul_mod")
        out["modmat.bytes_computed"] = c.get("modmat.bytes_computed", 0)
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: [name, start_ns, end_ns, parent, trial];
        the first line maps the format."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": ["name", "start_ns", "end_ns", "parent", "trial"]}) + "\n")
            for nid, start, end, parent, trial in self.spans:
                fh.write(json.dumps([self.names[nid], start, end, parent, trial]) + "\n")
