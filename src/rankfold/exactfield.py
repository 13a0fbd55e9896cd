"""Exact arithmetic in multiquadratic towers over the rationals.

A tower is described by nonzero rationals a_1, ..., a_m and represents
L = Q(sqrt(a_1), ..., sqrt(a_m)).  Writing alpha_i = sqrt(a_i), the
basis of L over Q is built recursively,

    B_0 = (1),    B_i = B_{i-1} followed by B_{i-1} * alpha_i,

so the basis monomial at index j is the product of the alpha_i whose bit
(i-1) is set in j.  Elements store the 2^m rational coordinates in that
order.  Every generator must stay a non-square as the tower grows
(otherwise the extension degree collapses and the coordinates stop
being unique); this is checked at construction time.

Storage.  An element is num / den: num holds 2^m Python-int coordinates
and den is a positive int with gcd(den, *num) = 1 (zero is (0, ..., 0) /
1).  The pair is canonical, so equal elements have equal storage;
`coords` gives the Fractions.  With basis monomials as bitmasks S, T,
alpha_S * alpha_T = w[S & T] * alpha_(S ^ T), where w[S] is the product
of the a_k with k in S.  Each field builds once the integer table
W[S] = w[S] * D, D the product of the generators' denominators, so the
product of X / dx and Y / dy accumulates X_i * Y_j * W[i & j] into
coordinate i ^ j over dx * dy * D.  Inverses use the norm recursion
(x0 + x1 alpha)^-1 = (x0 - x1 alpha) / (x0^2 - a x1^2) over the top
generator, through the same kernel.  Every result is divided by the gcd
of its integers.  Python ints are unbounded, so no kernel needs an
overflow bound.  Elements are immutable, so they can be shared freely
between threads and processes.  A tower is the fold algebra of plotkin
over its subtower: join(U, V) = U + alpha_m V on matrices, and split.

Elimination.  MultiquadraticField.eliminate is the hook through which
linalg.ExactMatrix.rref reduces matrices over a tower.  It runs
Gauss-Jordan with gauss_jordan's pivot rule on integer rows: a row is
its entries' coordinates over their least common denominator d (over Q,
height 0, a flat list of ints; a matrix over Q is an integer array over
one denominator, linalg's storage rule, and its rows are read off the
array through rref_array, the field's hook for Q matrices beside
matrix_array, array_entries, canonical_array, scale_array and product).
The pivot row is multiplied by the pivot's inverse.  Each other row y =
Y / dy with b = y_c becomes y - b * x for the pivot row x = X / dx,
formed as (Y * dx * D - X * b) / (dy * dx * D) through the product
kernel, and is divided by the gcd of its integers and denominator, so
they do not grow beyond those of gauss_jordan's rational values.  Only
the rows up to the rank become elements; the rows past the last pivot
are zero and hold the field's shared zero.  The reduced row echelon form
is unique, so the result equals gauss_jordan's, bit for bit.

Modular images.  For an odd prime p at which every a_k is a nonzero
square, fixing roots r_k of a_k mod p gives 2^m ring maps onto GF(p), one
per choice of signs sqrt(a_k) -> +-r_k; together they identify L mod p
with GF(p)^(2^m), so a linear system over L becomes 2^m independent
systems over GF(p).  A field finds such primes on first use (below 2^28,
by gf.is_prime), with roots from gf.sqrt_mod; the search is shared between
orderings of the same generators, such as the rotated towers of a
Reed-Muller decode.  Each field keeps its own SignEmbedding objects,
since the roots follow its generator order: `forward` scales coordinate
S by the product of the r_k with k in S and applies a Walsh-Hadamard
transform mod p, and `inverse` undoes it.  crt_extend and
rational_reconstruction (Wang 1981) lift residues back to rationals;
rational_lift returns a value within the bound that is an integer as an
int, without the Euclidean loop.
Nothing here trusts a lift: callers certify it in exact arithmetic (see
the certificates of RMCode.erasure_decode and RMCode.decode).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm, prod
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegreeCollapse, DimensionMismatch, FieldMismatch, TowerHeightZero
from .gf import _FieldElement, is_prime, sqrt_mod
from .linalg import ExactMatrix

Rational = Fraction

def is_rational_square(c: Fraction) -> bool:
    """True iff c is the square of a rational."""
    if c < 0:
        return False
    n, d = c.numerator, c.denominator
    rn, rd = isqrt(n), isqrt(d)
    return rn * rn == n and rd * rd == d


class RationalField:
    """Field handle for plain rationals, usable with the exact matrix layer."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, (Fraction, int)):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def element_to_json(self, x):
        return str(x)

    def element_from_json(self, data):
        return Fraction(data)

    def to_json(self):
        return {"rationals": True}

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


# ---------------------------------------------------------------------------
# integer coordinate vectors (lists of Python ints, length 2^height)

def _mul_into(out, xs, ys, W):
    """Add D times the product of two integer coordinate vectors into the
    list out: xs and ys are their nonzero (index, value) pairs, W the
    integer table of the module docstring.  A tower's table serves all of
    its subtowers, since only indices within the operands' one are read."""
    for i, u in xs:
        for j, v in ys:
            out[i ^ j] += u * v * W[i & j]


def _nonzero(coords):
    return [(i, c) for i, c in enumerate(coords) if c]


def _inv(X, gens, W, D):
    """(N, d) with N / d the inverse of the nonzero integer coordinate
    vector X of the subtower on `gens`, d > 0 and gcd(d, *N) = 1."""
    if not gens:
        if X[0] == 0:
            raise ZeroDivisionError("inverse of zero")
        return ([1], X[0]) if X[0] > 0 else ([-1], -X[0])
    h = len(X) // 2
    sub = gens[:-1]
    X0, X1 = X[:h], X[h:]
    if not any(X1):
        N, d = _inv(X0, sub, W, D)
        return N + [0] * h, d
    # (x0 + x1*alpha)^-1 = (x0 - x1*alpha) / (x0^2 - a*x1^2); the norm is
    # invertible in the subtower because the tower degree is exact.
    g = gcd(*X)
    x0s = [(i, u // g) for i, u in enumerate(X0) if u]
    x1s = [(i + h, -(u // g)) for i, u in enumerate(X1) if u]
    norm = [0] * h
    _mul_into(norm, x0s, x0s, W)
    _mul_into(norm, x1s, [(i, -u) for i, u in x1s], W)  # D * (x0^2 - a*x1^2)
    N, d = _inv(norm, sub, W, D)
    out = [0] * len(X)
    _mul_into(out, x0s + x1s, _nonzero(N), W)
    return _canonical(out, d * g)


def _canonical(num, den):
    """(num, den) divided by gcd(den, *num), for den > 0; zero becomes
    (0, ..., 0) / 1."""
    g = gcd(den, *num)
    if g == 1:
        return num, den
    return [s // g for s in num], den // g


def integer_coords(elements: Sequence["MQElement"]) -> tuple[int, list[int]]:
    """(d, V): the least d > 0 for which d times the elements have integer
    coordinates, and those coordinates in order."""
    d = lcm(*[e.den for e in elements])
    return d, [s * (d // e.den) for e in elements for s in e.num]


# ---------------------------------------------------------------------------
# sign embeddings modulo primes, and the lift back to Q

# Embedding primes lie below this bound, so that batched products mod p of
# inner dimension up to 2^(63 - 2*28) = 128 fit in int64.
_EMBED_PRIME_LIMIT = 1 << 28


class SignEmbedding:
    """The 2^m sign embeddings of a tower modulo one prime p.

    Every generator a_k is a nonzero square mod p, with its smaller root r_k,
    and r_S is the product of the r_k with k in S.  Each sign pattern t
    (bit k set sends sqrt(a_k) to -r_k) is a ring map onto GF(p) from the
    elements whose coordinates have denominators prime to p,

        phi_t(x) = sum_S x_S r_S (-1)^|S & t|,

    and together the 2^m maps identify those elements mod p with
    GF(p)^(2^m).  `forward` scales coordinate S by r_S and applies the
    Walsh-Hadamard transform; `inverse` applies it again and divides by
    2^m r_S.  `tables` holds data derived per prime by the field's users,
    such as a code's embedded parity checks.
    """

    def __init__(self, p: int, gens: Sequence[Fraction]):
        self.p = p
        self.roots = tuple(sqrt_mod(a.numerator * pow(a.denominator, -1, p), p) for a in gens)
        scale = [1]
        hadamard = np.ones((1, 1), dtype=np.int64)
        for r in self.roots:
            scale += [s * r % p for s in scale]
            hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
        self._scale = np.array(scale, dtype=np.int64)
        inv_dim = pow(len(scale), -1, p)
        self._unscale = np.array([pow(s, -1, p) * inv_dim % p for s in scale], dtype=np.int64)
        self._hadamard = hadamard
        self.tables: dict = {}

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Coordinates mod p on the last axis to their values in the 2^m
        embeddings, indexed by sign pattern."""
        return (np.asarray(X, dtype=np.int64) * self._scale % self.p) @ self._hadamard % self.p

    def inverse(self, V: np.ndarray) -> np.ndarray:
        """Values in the 2^m embeddings on the last axis back to coordinates
        mod p."""
        return (np.asarray(V, dtype=np.int64) @ self._hadamard % self.p) * self._unscale % self.p


class _EmbeddingPrimes:
    """The odd primes p below 2^28 at which every generator is a nonzero
    square mod p (Euler's criterion on numerator times denominator), in
    decreasing order, found on first use by a downward search.  The set
    does not depend on the order of the generators."""

    def __init__(self, gens: Sequence[Fraction]):
        self.gens = tuple(gens)
        self.primes: list[int] = []
        self._cursor = _EMBED_PRIME_LIMIT - 1

    def __getitem__(self, i: int) -> int:
        while len(self.primes) <= i:
            p = self._cursor
            while not (is_prime(p) and all(
                pow(a.numerator * a.denominator % p, (p - 1) // 2, p) == 1 for a in self.gens
            )):
                p -= 2
                if p < 3:
                    raise ValueError(f"too few embedding primes below 2^28 for {self.gens}")
            self._cursor = p - 2
            self.primes.append(p)
        return self.primes[i]


def crt_extend(residues: Sequence[int], modulus: int, new: Sequence[int], p: int) -> list[int]:
    """The residues mod modulus * p that agree with `residues` mod modulus
    and with `new` mod p (modulus and p coprime)."""
    m_inv = pow(modulus, -1, p)
    return [u + modulus * ((r - u) * m_inv % p) for u, r in zip(residues, new)]


def rational_reconstruction(u: int, modulus: int) -> Optional[Fraction]:
    """The fraction n/d = u mod modulus with |n| and d at most
    sqrt(modulus / 2), or None if there is none (Wang 1981): the extended
    Euclidean remainder sequence of (modulus, u) stops at the first
    remainder within the bound."""
    bound = isqrt(modulus // 2)
    r0, r1 = modulus, u % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if not 0 < abs(s1) <= bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def rational_lift(residues: Iterable[tuple[Sequence[int], int]], confirm: bool) -> Optional[list]:
    """Rationals from their residues modulo successive primes: after each
    (values mod p, p) from `residues`, CRT and rational reconstruction of
    every value.  Returns the first lift in which every value reconstructs
    (confirm False), or the first one that the next prime's residues agree
    with (confirm True); None when `residues` ends first.  Since
    gcd(n, d) = 1 and n = u d modulo the product of the primes, no prime
    used divides a reconstructed d, so the lift reduces to the residues.

    A value whose symmetric residue s has |s| <= sqrt(modulus / 2) comes
    back as the int s, without the Euclidean loop: s / 1 is within the
    bound, so it is what rational_reconstruction returns (its answer is
    unique).  Every other value comes back as a Fraction."""
    lift = acc = None
    modulus = 1
    for new, p in residues:
        if confirm and lift is not None and all((q.numerator - r * q.denominator) % p == 0 for q, r in zip(lift, new)):
            return lift
        acc = list(new) if acc is None else crt_extend(acc, modulus, new, p)
        modulus *= p
        bound = isqrt(modulus // 2)
        lift = []
        for u in acc:
            u %= modulus
            if u <= bound:
                lift.append(u)
            elif u >= modulus - bound:
                lift.append(u - modulus)
            else:
                q = rational_reconstruction(u, modulus)
                if q is None:
                    lift = None
                    break
                lift.append(q)
        else:
            if not confirm:
                return lift
    return None


_FIELD_CACHE: dict[tuple, "MultiquadraticField"] = {}
# the embedding-prime search of each set of generators, keyed by the sorted
# generators, so that reorderings of a tower share it
_PRIME_SEARCHES: dict[tuple[Fraction, ...], _EmbeddingPrimes] = {}


def mq_field(generators: Iterable) -> "MultiquadraticField":
    """Build (or fetch from cache) the tower Q(sqrt(a_1), ..., sqrt(a_m))."""
    key = tuple(generators)
    field = _FIELD_CACHE.get(key)
    if field is None:
        # ints and Fractions hash alike: only other spellings (str) miss here
        gens = tuple(Fraction(a) for a in key)
        field = _FIELD_CACHE.get(gens) or MultiquadraticField(gens)
        _FIELD_CACHE[key] = _FIELD_CACHE[gens] = field
    return field


class MultiquadraticField:
    """The field Q(sqrt(a_1), ..., sqrt(a_m)) with exact coordinates."""

    def __init__(self, generators: Iterable):
        gens = tuple(Fraction(a) for a in generators)
        for i, a in enumerate(gens, 1):
            if a == 0:
                raise ValueError(f"generator {i} is zero")
            # a_i must not become a square once the earlier square roots are
            # adjoined; equivalently no quotient a_i / (product of earlier
            # generators) may be a rational square.
            prev = gens[: i - 1]
            for mask in range(1 << len(prev)):
                q = a
                for j, b in enumerate(prev):
                    if mask >> j & 1:
                        q /= b
                if is_rational_square(q):
                    raise DegreeCollapse(i)
        self.gens = gens
        self.m = len(gens)
        self.dim = 1 << self.m
        # The product kernel's table: _W[S] = _D * (product of a_k, k in S),
        # an integer because _D is the product of the generators' denominators.
        self._D = prod(a.denominator for a in gens)
        W = [self._D]
        for a in gens:
            W += [w * a.numerator // a.denominator for w in W]
        self._W = tuple(W)
        self._primes = _PRIME_SEARCHES.setdefault(tuple(sorted(gens)), _EmbeddingPrimes(gens))
        self._embeddings: list[SignEmbedding] = []
        self._subfields: dict[int, MultiquadraticField] = {self.m: self}
        # data derived from this field by its users, such as a code's
        # generator and parity-check rows
        self.tables: dict = {}
        self.array_matrices = self.m == 0
        self.zero = MQElement(self, (0,) * self.dim, 1)
        self.one = self.basis_element(0)

    # -- constructors ------------------------------------------------------

    def element(self, coords: Sequence) -> "MQElement":
        """The element with the given rational coordinates."""
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        # over the least common denominator the pair is already canonical
        d = lcm(*[c.denominator for c in coords])
        return MQElement(self, tuple(c.numerator * (d // c.denominator) for c in coords), d)

    def scalar(self, c) -> "MQElement":
        c = Fraction(c)
        return MQElement(self, (c.numerator,) + (0,) * (self.dim - 1), c.denominator)

    def alpha(self, i: int) -> "MQElement":
        """The i-th square root sqrt(a_i) as an element (1-based)."""
        if not 1 <= i <= self.m:
            raise ValueError(f"no generator {i} in a height-{self.m} tower")
        return self.basis_element(1 << (i - 1))

    def basis_element(self, j: int) -> "MQElement":
        return MQElement(self, tuple(int(k == j) for k in range(self.dim)), 1)

    def coerce(self, x) -> "MQElement":
        if isinstance(x, MQElement):
            if x.field is not self and x.field != self:
                raise FieldMismatch(f"{x.field} vs {self}")
            return x
        if isinstance(x, (int, Fraction)):
            return self.scalar(x)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def random_element(self, rng, bound: int) -> "MQElement":
        """Element with integer coordinates drawn uniformly from [0, bound]."""
        return MQElement(self, tuple(rng.randints(self.dim, 0, bound)), 1)

    def _element(self, num, den) -> "MQElement":
        """The element num / den (den > 0), stored in canonical form."""
        num, den = _canonical(num, den)
        return MQElement(self, tuple(num), den)

    # -- sign embeddings mod p -----------------------------------------------

    def sign_embedding(self, i: int) -> SignEmbedding:
        """The sign embeddings modulo the i-th embedding prime (from 0),
        built on first use and kept on this field.  The primes come from an
        _EmbeddingPrimes search shared between orderings of the same
        generators; the roots follow this field's order."""
        while len(self._embeddings) <= i:
            self._embeddings.append(SignEmbedding(self._primes[len(self._embeddings)], self.gens))
        return self._embeddings[i]

    # -- elimination ---------------------------------------------------------

    def eliminate(self, entries) -> tuple[tuple, tuple[int, ...]]:
        """(rows, pivots) of the reduced row echelon form of a matrix over
        this field, given as rows of elements: the hook that
        linalg.ExactMatrix.rref consults above Q.  Over Q it also takes a
        matrix's integer array (rref_array) and gives R as a canonical
        (array, den) pair.

        Gauss-Jordan with linalg.gauss_jordan's pivot rule on integer rows
        (module docstring).  Row y is Y / d: over Q, Y holds one int per
        entry (an array's rows start at d = 1: scaling a row leaves the
        form unchanged); above Q, one list of 2^m ints per entry.
        """
        W, D, dim = self._W, self._D, self.dim
        flat, array = self.m == 0, isinstance(entries, np.ndarray)
        nonzero = bool if flat else any

        def reduced(Y, d):
            g = gcd(d, *(Y if flat else chain.from_iterable(Y)))
            if g == 1:
                return Y, d
            return ([s // g for s in Y] if flat else [[s // g for s in Yj] for Yj in Y]), d // g

        rows = [(Y, 1) for Y in entries.tolist()] if array else [
            (Y if flat else [Y[k:k + dim] for k in range(0, len(Y), dim)], d) for d, Y in map(integer_coords, entries)]
        width = entries.shape[1] if array else len(entries[0]) if entries else 0
        pivots: list[int] = []
        pr = 0
        for c in range(width):
            pivot_row = next((r for r in range(pr, len(rows)) if nonzero(rows[r][0][c])), None)
            if pivot_row is None:
                continue
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
            # the pivot row x = y / y_c
            Y = rows[pr][0]
            if flat:
                X, dx = (Y, Y[c]) if Y[c] > 0 else ([-s for s in Y], -Y[c])
            else:
                iv, di = _inv(Y[c], self.gens, W, D)
                ivs = _nonzero(iv)
                X = []
                for Yj in Y:
                    Xj = [0] * dim
                    _mul_into(Xj, ivs, _nonzero(Yj), W)
                    X.append(Xj)
                dx = di * D
            rows[pr] = X, dx = reduced(X, dx)
            # every other row y with b = y_c != 0 becomes y - b * x
            f = dx * D
            if not flat:
                xs = [(j, nz) for j, nz in enumerate(map(_nonzero, X)) if nz]
            for r, (Y, dy) in enumerate(rows):
                if r == pr or not nonzero(Y[c]):
                    continue
                if flat:
                    b = Y[c]
                    Y = [s * f - b * t for s, t in zip(Y, X)]
                else:
                    bs = [(i, -u) for i, u in _nonzero(Y[c])]
                    Y = [[s * f for s in Yj] for Yj in Y]
                    for j, nz in xs:
                        _mul_into(Y[j], bs, nz, W)
                rows[r] = reduced(Y, dy * f)
            pivots.append(c)
            pr += 1
            if pr == len(rows):
                break
        if array:  # canonical rows over their least common denominator: a canonical array
            den = lcm(*(d for _, d in rows[:pr]))
            R = [[s * (den // d) for s in Y] for Y, d in rows[:pr]] + [[0] * width] * (len(rows) - pr)
            return (np.array(R, dtype=object).reshape(entries.shape), den), tuple(pivots)
        # the rows past the last pivot are zero: the shared self.zero
        zero_row = (self.zero,) * width
        out = tuple(tuple(self._element([Yj] if flat else Yj, d) for Yj in Y) for Y, d in rows[:pr])
        return out + (zero_row,) * (len(rows) - pr), tuple(pivots)

    # -- matrices over Q (linalg's storage rule, height 0 only) ---------------

    def matrix_array(self, entries, rows: int, cols: int) -> tuple[np.ndarray, int]:
        """(A, d): integer_coords of a matrix's rows, a canonical (rows, cols) object array over d."""
        d, ints = integer_coords([e for row in entries for e in row])
        return np.array(ints, dtype=object).reshape(rows, cols), d

    def array_entries(self, A: np.ndarray, den: int) -> tuple:
        return tuple(tuple(self._element([u], den) for u in row) for row in A.tolist())

    def canonical_array(self, A: np.ndarray, den: int) -> tuple[np.ndarray, int]:
        """A / den (den > 0) divided by gcd(den, *A); zero becomes 0 / 1."""
        g = gcd(den, *A.flat)
        return (A, den) if g == 1 else (A // g, den // g)

    def scale_array(self, A: np.ndarray, den: int, c: "MQElement") -> tuple[np.ndarray, int]:
        return self.canonical_array(A * c.num[0], den * c.den)

    product = staticmethod(np.matmul)

    def rref_array(self, A: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...]]:
        (R, den), pivots = self.eliminate(A)
        return R, den, pivots


    # -- structure ---------------------------------------------------------

    def subfield(self, height: int) -> "MultiquadraticField":
        """The tower truncated to its first `height` generators."""
        sub = self._subfields.get(height)
        if sub is None:
            sub = self._subfields[height] = mq_field(self.gens[:height])
        return sub

    def join(self, U: ExactMatrix, V: ExactMatrix) -> ExactMatrix:
        """The matrix U + alpha_m V from two matrices over the subtower;
        with split, the algebra sub[x]/(x^2 - a_m) of plotkin_fold and
        doubling_decode.  Entry by entry it is MQElement.join."""
        sub = self.subfield(self.m - 1)  # Q itself when m = 0: MQElement.join refuses that
        if U.field != sub or V.field != sub:
            raise FieldMismatch("join parts must live in the subtower")
        if U.shape != V.shape:
            raise DimensionMismatch(f"join parts of shapes {U.shape} and {V.shape}")
        rows = tuple(tuple(MQElement.join(self, u, v) for u, v in zip(ru, rv)) for ru, rv in zip(U.entries, V.entries))
        return ExactMatrix(self, rows, _raw=True, cols=U.cols)

    def split(self, W: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
        """(U, V) with W = U + alpha_m V, both over the subtower; inverse
        of join.  Entry by entry it is MQElement.split."""
        if W.field != self:
            raise FieldMismatch(f"expected a matrix over {self}")
        parts = [[e.split() for e in row] for row in W.entries]
        sub = self.subfield(self.m - 1)
        return tuple(ExactMatrix(sub, tuple(tuple(p[i] for p in row) for row in parts), _raw=True, cols=W.cols)
                     for i in (0, 1))

    def basis_label(self, j: int) -> str:
        parts = [f"r{i + 1}" for i in range(self.m) if j >> i & 1]
        return "*".join(parts) if parts else "1"

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {"generators": [str(a) for a in self.gens]}

    @staticmethod
    def from_json(data) -> "MultiquadraticField":
        return mq_field([Fraction(s) for s in data["generators"]])

    def element_to_json(self, x: "MQElement"):
        return [str(c) for c in x.coords]

    def element_from_json(self, data) -> "MQElement":
        return self.element([Fraction(s) for s in data])

    def __eq__(self, other):
        return isinstance(other, MultiquadraticField) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        inside = ", ".join(str(a) for a in self.gens)
        return f"Q(sqrt: {inside})" if inside else "Q"


class MQElement(_FieldElement):
    """Element of a multiquadratic tower, num / den in canonical form (see
    the module docstring); immutable."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: MultiquadraticField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coords(self) -> tuple:
        den = self.den
        return tuple(Fraction(s, den) for s in self.num)

    # -- ring operations ---------------------------------------------------

    def _check(self, other) -> "MQElement":
        if isinstance(other, MQElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    def _plus(self, other, sign: int):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        g = gcd(self.den, other.den)
        sx, sy = other.den // g, self.den // g * sign
        return self.field._element([u * sx + v * sy for u, v in zip(self.num, other.num)], self.den * sx)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return MQElement(self.field, tuple(-u for u in self.num), self.den)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        out = [0] * field.dim
        _mul_into(out, _nonzero(self.num), _nonzero(other.num), field._W)
        return field._element(out, self.den * other.den * field._D)

    __rmul__ = __mul__

    def inverse(self) -> "MQElement":
        field = self.field
        N, d = _inv(self.num, field.gens, field._W, field._D)
        return field._element([s * self.den for s in N], d)

    def scale(self, c) -> "MQElement":
        """Multiply by a rational scalar, coordinate-wise; avoids the general
        product."""
        c = Fraction(c)
        n = c.numerator
        return self.field._element([u * n for u in self.num], self.den * c.denominator)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        if not isinstance(other, MQElement):
            if not isinstance(other, (int, Fraction)):
                return False
            other = self.field.scalar(other)
        return self.field == other.field and self.den == other.den and self.num == other.num

    def __bool__(self):
        return any(self.num)

    def __hash__(self):
        # A rational element equals its value (see __eq__), so it hashes alike.
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field.gens, self.num, self.den))

    # -- tower structure ----------------------------------------------------

    def galois(self, indices: Iterable[int]) -> "MQElement":
        """Apply the automorphism sending alpha_i -> -alpha_i for i in indices.

        A coordinate flips sign exactly when its basis monomial contains an
        odd number of the negated square roots.
        """
        mask = 0
        for i in indices:
            if not 1 <= i <= self.field.m:
                raise ValueError(f"no generator {i}")
            mask |= 1 << (i - 1)
        num = tuple(-s if (j & mask).bit_count() & 1 else s for j, s in enumerate(self.num))
        return MQElement(self.field, num, self.den)

    def mul_by_alpha(self, i: int) -> "MQElement":
        """Multiply by sqrt(a_i): a coordinate permutation plus at most
        2^m integer scalings, cheaper than a general product."""
        if not 1 <= i <= self.field.m:
            raise ValueError(f"no generator {i}")
        bit = 1 << (i - 1)
        a = self.field.gens[i - 1]
        n, d, num = a.numerator, a.denominator, self.num
        return self.field._element([num[k ^ bit] * (d if k & bit else n) for k in range(len(num))], self.den * d)

    def split(self) -> tuple["MQElement", "MQElement"]:
        """Write x = x0 + x1*alpha_m and return (x0, x1) in the subtower."""
        if self.field.m == 0:
            raise TowerHeightZero("cannot split an element of Q")
        return tuple(self.blocks_over(self.field.m - 1))

    @staticmethod
    def join(field: MultiquadraticField, x0: "MQElement", x1: "MQElement") -> "MQElement":
        """Inverse of split: x0 + x1*alpha_m inside `field`."""
        if field.m == 0:
            raise TowerHeightZero("cannot join into Q")
        sub = field.subfield(field.m - 1)
        if x0.field != sub or x1.field != sub:
            raise FieldMismatch("join parts must live in the subtower")
        return MQElement.from_blocks(field, (x0, x1))

    def blocks_over(self, height: int) -> list["MQElement"]:
        """Coordinates of x over the subtower of the given height.

        Returns 2^(m-height) subtower elements c_j with
        x = sum_j c_j * (basis monomial j in the remaining generators).
        """
        sub = self.field.subfield(height)
        w = sub.dim
        num, den = self.num, self.den
        return [sub._element(num[k:k + w], den) for k in range(0, len(num), w)]

    @staticmethod
    def from_blocks(field: MultiquadraticField, blocks: Sequence["MQElement"]) -> "MQElement":
        # over the least common denominator of canonical blocks the pair is
        # canonical again
        den, num = integer_coords(blocks)
        if len(num) != field.dim:
            raise ValueError("blocks do not fill the tower")
        return MQElement(field, tuple(num), den)

    def embed(self, field: MultiquadraticField) -> "MQElement":
        """Embed into a taller tower whose generator list extends this one."""
        if field.gens[: self.field.m] != self.field.gens:
            raise FieldMismatch("target tower does not extend the source tower")
        return MQElement(field, self.num + (0,) * (field.dim - self.field.dim), self.den)

    # -- misc ----------------------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coords):
            if c:
                label = self.field.basis_label(j)
                terms.append(str(c) if label == "1" else f"{c}*{label}")
        return " + ".join(terms) if terms else "0"
