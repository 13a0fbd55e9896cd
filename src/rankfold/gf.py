"""Finite fields: GF(p), GF(p^2) and GF(p^m) with exact integer arithmetic.

GF(p) elements wrap a residue; GF(p^2) is built from a quadratic
non-residue so that the square root of that non-residue is available by
construction; GF(p^m) uses the lexicographically first monic irreducible
modulus (coefficient tuples (c_{m-1}, ..., c_0) compared lexicographically,
i.e. minimal sum c_i * p^i), so two constructions of the same field agree
bit for bit.

GF(p^m) arithmetic is written once, as GF(p)[x] arithmetic on coefficient
lists: _pmul (product), _psub (difference), _pdivmod (division with
remainder) and _ppowmod (power mod f).  Reducing mod f (ExtField.element),
multiplication, inversion by extended Euclid, the Frobenius matrices and
the modulus check all run on these four, and one square-and-multiply
(_power) serves _ppowmod and the powers in GF(p^2) and GF(p^m).

The modulus check follows the classical criterion: f of degree m is
irreducible over GF(p) iff x^(p^m) == x (mod f) and
gcd(x^(p^i) - x, f) = 1 for 1 <= i < m.
"""

from __future__ import annotations

import operator
from itertools import zip_longest
from typing import Iterable, Optional, Sequence

from .errors import FieldMismatch, NotASquare, SingularBasis
from .linalg import ExactMatrix

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; deterministic for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p).  p may be 2 (needed by the characteristic-2 encoder variant),
    but square roots and the quadratic extension require p odd."""

    def __init__(self, p: int):
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = PrimeElement(self, 0)
        self.one = PrimeElement(self, 1)

    def element(self, v: int) -> "PrimeElement":
        return PrimeElement(self, v % self.p)

    def coerce(self, x) -> "PrimeElement":
        if isinstance(x, PrimeElement):
            if x.field != self:
                raise FieldMismatch(f"GF({x.field.p}) vs GF({self.p})")
            return x
        if isinstance(x, int):
            return PrimeElement(self, x % self.p)
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def random_element(self, rng) -> "PrimeElement":
        return PrimeElement(self, rng.randint(0, self.p - 1))

    def is_square(self, a) -> bool:
        a = self.coerce(a)
        if a.val == 0:
            return True
        if self.p == 2:
            return True
        return pow(a.val, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, a) -> "PrimeElement":
        """Tonelli-Shanks square root, canonicalized to the smaller of the
        two roots; raises NotASquare for non-residues."""
        a = self.coerce(a)
        p = self.p
        if p == 2 or a.val == 0:
            return a
        if not self.is_square(a):
            raise NotASquare(f"{a.val} is not a square mod {p}")
        if p % 4 == 3:
            r = pow(a.val, (p + 1) // 4, p)
            return PrimeElement(self, min(r, p - r))
        # Write p-1 = q * 2^s with q odd and walk the 2-Sylow subgroup.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = self.smallest_nonresidue()
        c = pow(z, q, p)
        x = pow(a.val, (q + 1) // 2, p)
        t = pow(a.val, q, p)
        m = s
        while t != 1:
            i, tt = 0, t
            while tt != 1:
                tt = tt * tt % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            x = x * b % p
            t = t * b % p * b % p
            c = b * b % p
            m = i
        return PrimeElement(self, min(x, p - x))

    def smallest_nonresidue(self) -> int:
        if self.p == 2:
            raise NotASquare("GF(2) has no non-residues")
        n = 2
        while pow(n, (self.p - 1) // 2, self.p) == 1:
            n += 1
        return n

    def to_json(self):
        return {"p": self.p}

    def element_to_json(self, x: "PrimeElement"):
        return x.val

    def element_from_json(self, data) -> "PrimeElement":
        return self.element(int(data))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("GFp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class PrimeElement:
    __slots__ = ("field", "val")

    def __init__(self, field: PrimeField, val: int):
        self.field = field
        self.val = val

    def _other(self, x):
        if isinstance(x, PrimeElement):
            if x.field != self.field:
                raise FieldMismatch("different prime fields")
            return x.val
        if isinstance(x, int):
            return x % self.field.p
        return None

    def __add__(self, x):
        v = self._other(x)
        if v is None:
            return NotImplemented
        return PrimeElement(self.field, (self.val + v) % self.field.p)

    __radd__ = __add__

    def __sub__(self, x):
        v = self._other(x)
        if v is None:
            return NotImplemented
        return PrimeElement(self.field, (self.val - v) % self.field.p)

    def __rsub__(self, x):
        return (-self) + x

    def __neg__(self):
        return PrimeElement(self.field, -self.val % self.field.p)

    def __mul__(self, x):
        v = self._other(x)
        if v is None:
            return NotImplemented
        return PrimeElement(self.field, self.val * v % self.field.p)

    __rmul__ = __mul__

    def inverse(self) -> "PrimeElement":
        if self.val == 0:
            raise ZeroDivisionError("inverse of zero")
        return PrimeElement(self.field, pow(self.val, -1, self.field.p))

    def __truediv__(self, x):
        v = self._other(x)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("division by zero")
        return PrimeElement(self.field, self.val * pow(v, -1, self.field.p) % self.field.p)

    def __rtruediv__(self, x):
        return self.inverse() * x

    def __pow__(self, n: int):
        return PrimeElement(self.field, pow(self.val, n, self.field.p))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.val == other % self.field.p
        return isinstance(other, PrimeElement) and self.field == other.field and self.val == other.val

    def __bool__(self):
        return self.val != 0

    def __hash__(self):
        return hash((self.field.p, self.val))

    def __repr__(self):
        return str(self.val)


def _power(x, k: int, one, mul=operator.mul):
    """x^k for k >= 0 by square and multiply."""
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        x = mul(x, x)
        k >>= 1
    return out


def _field_pow(x, k: int):
    """x^k in GF(p^2) or GF(p^m); a negative k inverts first."""
    if k < 0:
        return x.inverse() ** (-k)
    return _power(x, k, x.field.one)


class QuadExtField:
    """GF(p^2) presented as GF(p)[s]/(s^2 - n) for a non-residue n.

    Constructing the extension from the non-residue of interest makes its
    square root available directly: sqrt(n) = s.
    """

    def __init__(self, base: PrimeField | int, nonresidue: Optional[int] = None):
        self.base = base if isinstance(base, PrimeField) else PrimeField(base)
        if self.base.p == 2:
            raise ValueError("quadratic extension requires odd p")
        if nonresidue is None:
            nonresidue = self.base.smallest_nonresidue()
        nonresidue %= self.base.p
        if self.base.is_square(nonresidue):
            raise ValueError(f"{nonresidue} is a square mod {self.base.p}")
        self.n = nonresidue
        self.p = self.base.p
        self.zero = QuadExtElement(self, 0, 0)
        self.one = QuadExtElement(self, 1, 0)
        self.sqrt_nonresidue = QuadExtElement(self, 0, 1)

    def element(self, u: int, v: int = 0) -> "QuadExtElement":
        return QuadExtElement(self, u % self.p, v % self.p)

    def coerce(self, x) -> "QuadExtElement":
        if isinstance(x, QuadExtElement):
            if x.field != self:
                raise FieldMismatch("different quadratic extensions")
            return x
        if isinstance(x, PrimeElement):
            if x.field != self.base:
                raise FieldMismatch("wrong base field")
            return QuadExtElement(self, x.val, 0)
        if isinstance(x, int):
            return QuadExtElement(self, x % self.p, 0)
        raise TypeError(f"cannot coerce {x!r}")

    def random_element(self, rng) -> "QuadExtElement":
        return QuadExtElement(self, rng.randint(0, self.p - 1), rng.randint(0, self.p - 1))

    def join_matrix(self, U: ExactMatrix, V: ExactMatrix) -> ExactMatrix:
        """The matrix U + sV from two matrices over GF(p)."""
        rows = tuple(
            tuple(QuadExtElement(self, u.val, v.val) for u, v in zip(ru, rv))
            for ru, rv in zip(U.entries, V.entries)
        )
        return ExactMatrix(self, rows, _raw=True)

    def split_matrix(self, M: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
        """(U, V) with M = U + sV, both over GF(p); inverse of join_matrix."""
        base = self.base
        return M.map_entries(lambda e: base.element(e.u), base), M.map_entries(lambda e: base.element(e.v), base)

    def to_json(self):
        return {"p": self.p, "nonresidue": self.n}

    def element_to_json(self, x):
        return [x.u, x.v]

    def element_from_json(self, data):
        return self.element(int(data[0]), int(data[1]))

    def __eq__(self, other):
        return isinstance(other, QuadExtField) and self.p == other.p and self.n == other.n

    def __hash__(self):
        return hash(("GFp2", self.p, self.n))

    def __repr__(self):
        return f"GF({self.p}^2|s^2={self.n})"


class QuadExtElement:
    __slots__ = ("field", "u", "v")

    def __init__(self, field: QuadExtField, u: int, v: int):
        self.field = field
        self.u = u
        self.v = v

    def _pair(self, x):
        if isinstance(x, QuadExtElement):
            if x.field != self.field:
                raise FieldMismatch("different quadratic extensions")
            return x.u, x.v
        if isinstance(x, int):
            return x % self.field.p, 0
        if isinstance(x, PrimeElement) and x.field == self.field.base:
            return x.val, 0
        return None

    def __add__(self, x):
        pair = self._pair(x)
        if pair is None:
            return NotImplemented
        p = self.field.p
        return QuadExtElement(self.field, (self.u + pair[0]) % p, (self.v + pair[1]) % p)

    __radd__ = __add__

    def __sub__(self, x):
        pair = self._pair(x)
        if pair is None:
            return NotImplemented
        p = self.field.p
        return QuadExtElement(self.field, (self.u - pair[0]) % p, (self.v - pair[1]) % p)

    def __rsub__(self, x):
        return (-self) + x

    def __neg__(self):
        p = self.field.p
        return QuadExtElement(self.field, -self.u % p, -self.v % p)

    def __mul__(self, x):
        pair = self._pair(x)
        if pair is None:
            return NotImplemented
        p, n = self.field.p, self.field.n
        u2, v2 = pair
        return QuadExtElement(
            self.field,
            (self.u * u2 + n * self.v * v2) % p,
            (self.u * v2 + self.v * u2) % p,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExtElement":
        return QuadExtElement(self.field, self.u, -self.v % self.field.p)

    def inverse(self) -> "QuadExtElement":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        p, n = self.field.p, self.field.n
        # norm is nonzero for nonzero elements because n is a non-residue
        norm = (self.u * self.u - n * self.v * self.v) % p
        ninv = pow(norm, -1, p)
        return QuadExtElement(self.field, self.u * ninv % p, -self.v * ninv % p)

    def __truediv__(self, x):
        pair = self._pair(x)
        if pair is None:
            return NotImplemented
        return self * QuadExtElement(self.field, *pair).inverse()

    def __rtruediv__(self, x):
        return self.inverse() * x

    __pow__ = _field_pow

    def __eq__(self, other):
        if isinstance(other, QuadExtElement) and other.field != self.field:
            return False
        try:
            pair = self._pair(other) if isinstance(other, (QuadExtElement, int, PrimeElement)) else None
        except FieldMismatch:
            return False
        return pair is not None and (self.u, self.v) == pair

    def __bool__(self):
        return self.u != 0 or self.v != 0

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.u, self.v))

    def __repr__(self):
        return f"({self.u}+{self.v}s)"


# ---------------------------------------------------------------------------
# GF(p)[x], coefficient lists in increasing degree.  Inputs may be any
# sequences of integers.  _pmul multiplies over the integers and leaves the
# reduction mod p to the others, whose results are lists reduced mod p and
# trimmed (no zero leading coefficient).

def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f, g):
    """f * g, coefficients not reduced."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _psub(f, g, p):
    """f - g, padding the shorter one with zeros."""
    return _ptrim([(a - b) % p for a, b in zip_longest(f, g, fillvalue=0)])


def _pdivmod(f, g, p):
    """(q, r) with f = q g + r and deg r < deg g; g must be reduced, trimmed and nonzero."""
    r = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * (len(r) - dg)  # empty when deg f < deg g
    for d in range(len(r) - 1, dg - 1, -1):
        c = r[d] * inv % p
        if c:
            q[d - dg] = c
            for i in range(dg):
                r[d - dg + i] -= c * g[i]
    return _ptrim(q), _ptrim([c % p for c in r[:dg]])


def _ppowmod(f, k: int, mod, p):
    """f^k mod `mod`."""
    return _power(f, k, [1], lambda a, b: _pdivmod(_pmul(a, b), mod, p)[1])


def _is_irreducible(mod: Sequence[int], p: int) -> bool:
    m = len(mod) - 1
    h = [0, 1]  # x^(p^i) mod f
    for i in range(1, m):
        h = _ppowmod(h, p, mod, p)
        g, r = mod, _psub(h, [0, 1], p)
        while r:  # Euclid: g ends as gcd(f, x^(p^i) - x)
            g, r = r, _pdivmod(g, r, p)[1]
        if len(g) != 1:
            return False
    return not _psub(_ppowmod(h, p, mod, p), [0, 1], p)


def _first_irreducible(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)
    for n in range(p ** m):
        coeffs = [(n // p ** i) % p for i in range(m)] + [1]
        if coeffs[0] == 0:
            continue  # reducible: x divides
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class ExtField:
    """GF(p^m) as GF(p)[x]/(f) with a deterministic default modulus."""

    def __init__(self, p: int, m: int, modulus: Optional[Sequence[int]] = None):
        self.base = PrimeField(p)
        self.p = p
        self.m = m
        if modulus is None:
            modulus = _first_irreducible(p, m)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if m > 1 and not _is_irreducible(modulus, p):
                raise ValueError("modulus is reducible")
        self.modulus = tuple(modulus)
        self.zero = ExtElement(self, (0,) * m)
        self.one = ExtElement(self, (1,) + (0,) * (m - 1))
        self.x = ExtElement(self, ((0, 1) + (0,) * (m - 2))[:m])
        self._frob_mats: dict[int, tuple] = {}

    @property
    def order(self) -> int:
        return self.p ** self.m

    def element(self, coeffs: Sequence[int]) -> "ExtElement":
        """The residue of a polynomial over GF(p), of any degree, mod f."""
        r = _pdivmod(coeffs, self.modulus, self.p)[1]
        return ExtElement(self, tuple(r + [0] * (self.m - len(r))))

    def coerce(self, x) -> "ExtElement":
        if isinstance(x, ExtElement):
            if x.field != self:
                raise FieldMismatch("different extension fields")
            return x
        if isinstance(x, PrimeElement):
            if x.field != self.base:
                raise FieldMismatch("wrong base field")
            return self.element([x.val])
        if isinstance(x, int):
            return self.element([x])
        raise TypeError(f"cannot coerce {x!r}")

    def random_element(self, rng) -> "ExtElement":
        return ExtElement(self, tuple(rng.randint(0, self.p - 1) for _ in range(self.m)))

    def polynomial_basis(self) -> list["ExtElement"]:
        return [self.element([0] * i + [1]) for i in range(self.m)]

    def _frobenius_matrix(self, i: int) -> tuple:
        """Matrix of x -> x^(p^i) on coordinate columns, cached per power."""
        i %= self.m
        mat = self._frob_mats.get(i)
        if mat is None:
            # column j is the image of x^j, that is h^j for h = x^(p^i)
            h = _ppowmod([0, 1], self.p ** i, self.modulus, self.p)
            cols = [self.element(_ppowmod(h, j, self.modulus, self.p)).coeffs for j in range(self.m)]
            mat = tuple(zip(*cols))
            self._frob_mats[i] = mat
        return mat

    def frobenius(self, x: "ExtElement", i: int = 1) -> "ExtElement":
        """x^(p^i), applied as a precomputed GF(p)-linear map."""
        x = self.coerce(x)
        mat = self._frobenius_matrix(i)
        p = self.p
        coeffs = tuple(sum(mat[k][j] * x.coeffs[j] for j in range(self.m)) % p for k in range(self.m))
        return ExtElement(self, coeffs)

    def to_json(self):
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    def element_to_json(self, x):
        return list(x.coeffs)

    def element_from_json(self, data):
        return self.element([int(c) for c in data])

    def __eq__(self, other):
        return isinstance(other, ExtField) and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self):
        return hash(("GFpm", self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.m})"


class ExtElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _other(self, x):
        if isinstance(x, ExtElement):
            if x.field != self.field:
                raise FieldMismatch("different extension fields")
            return x
        if isinstance(x, (int, PrimeElement)):
            return self.field.coerce(x)
        return None

    def __add__(self, x):
        o = self._other(x)
        if o is None:
            return NotImplemented
        p = self.field.p
        return ExtElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, x):
        o = self._other(x)
        if o is None:
            return NotImplemented
        p = self.field.p
        return ExtElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, x):
        return (-self) + x

    def __neg__(self):
        p = self.field.p
        return ExtElement(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, x):
        o = self._other(x)
        if o is None:
            return NotImplemented
        # o is often zero or a scalar: _pmul skips the zero coefficients of its first factor
        return self.field.element(_pmul(o.coeffs, self.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "ExtElement":
        """Extended Euclid in GF(p)[x]: s * self = r (mod f) at every step,
        down to a constant r."""
        p = self.field.p
        r0, r1 = self.field.modulus, _ptrim(list(self.coeffs))
        if not r1:
            raise ZeroDivisionError("inverse of zero")
        s0, s1 = [], [1]
        while r1:
            q, r = _pdivmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1), p)
        return self.field.element(_pmul(s0, [pow(r0[0], -1, p)]))

    def __truediv__(self, x):
        o = self._other(x)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, x):
        return self.inverse() * x

    __pow__ = _field_pow

    def __eq__(self, other):
        if isinstance(other, ExtElement) and other.field != self.field:
            return False
        try:
            o = self._other(other) if isinstance(other, (ExtElement, int, PrimeElement)) else None
        except FieldMismatch:
            return False
        return o is not None and self.coeffs == o.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.coeffs))

    def __repr__(self):
        return f"ext{list(self.coeffs)}"


# ---------------------------------------------------------------------------

def expand_to_base(field: ExtField, vector: Iterable, basis: Optional[Sequence] = None) -> ExactMatrix:
    """Write a vector over GF(p^m) as an m x n matrix over GF(p).

    Column j holds the coordinates of the j-th entry in the given basis
    (default: the polynomial basis, where coordinates are the coefficient
    tuples themselves).  The expansion is GF(p)-linear in the vector, and
    the rank of the result does not depend on the basis choice.
    """
    vec = [field.coerce(v) for v in vector]
    gf = field.base
    if basis is None:
        cols = [v.coeffs for v in vec]
    else:
        basis = [field.coerce(b) for b in basis]
        if len(basis) != field.m:
            raise SingularBasis(f"need {field.m} basis elements, got {len(basis)}")
        B = ExactMatrix(gf, [[b.coeffs[i] for b in basis] for i in range(field.m)])
        aug = B.hstack(ExactMatrix.identity(gf, field.m))
        R, pivots, _ = aug.rref()
        # B is invertible exactly when all pivots fall in its own columns.
        if tuple(pivots[: field.m]) != tuple(range(field.m)):
            raise SingularBasis("basis elements are linearly dependent")
        Binv = ExactMatrix(gf, tuple(row[field.m:] for row in R.entries), _raw=True)
        cols = []
        for v in vec:
            coord = Binv @ ExactMatrix.column(gf, [gf.element(c) for c in v.coeffs])
            cols.append(tuple(coord.entries[i][0].val for i in range(field.m)))
    return ExactMatrix(gf, [[gf.element(cols[j][i]) for j in range(len(vec))] for i in range(field.m)])


def reconstruct_from_base(field: ExtField, matrix: ExactMatrix, basis: Optional[Sequence] = None) -> list:
    """Inverse of expand_to_base: columns back to GF(p^m) entries."""
    if basis is None:
        basis = field.polynomial_basis()
    basis = [field.coerce(b) for b in basis]
    if matrix.rows != field.m:
        raise SingularBasis(f"matrix must have {field.m} rows")
    out = []
    for j in range(matrix.cols):
        acc = field.zero
        for i in range(field.m):
            c = matrix.entries[i][j]
            if c:
                acc = acc + basis[i] * c.val
        out.append(acc)
    return out
