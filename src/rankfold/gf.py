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
multiplication, inversion by extended Euclid, the Frobenius table and
the modulus check all run on these four, and one square-and-multiply
(_power) serves _ppowmod and the powers in GF(p^2) and GF(p^m).  The
element types here and the tower's (exactfield) share one base,
_FieldElement, which derives c - x, c / x and x ** k from their own
negation, inverse and products.

Frobenius x -> x^(p^i) is GF(p)-linear.  ExtField builds once, on the
instance, the (m, m, m) table F with F[i, j] = (x^j)^(p^i) mod f, so the
map takes a coefficient row c to c @ F[i] mod p.  The element method
frobenius reads it in Python integers, exact for any p; frobenius_powers
applies it, as int64, to a whole (n, m) coefficient array (ExtField.coeff_array) in
one product, whose sums of m products of residues need
modmat.poly_fits_int64(p, m).

All three fields are GF(p)[x]/(f) for an f of degree m: f = x for GF(p),
x^2 - n for GF(p^2) and the modulus for GF(p^m).  Each builds once, on
the instance, its multiplication tensor T[i, j] = x^(i+j) mod f
(mul_tensor), and with it the kernels of linalg's storage rule on
(rows, cols, m) coefficient arrays: rref_coeffs (modmat.rref_poly) and
`product`, one matmul of c m products per entry for inner dimension c
while poly_fits_int64(p, c m), else each entry product reduced first.

The package's number theory lives here too: is_prime, sqrt_mod and
smallest_nonresidue serve PrimeField and the tower's sign embeddings
(exactfield).  is_prime is Miller-Rabin with the prime bases 2, ..., 41,
which decides every n below psi_13 = 3317044064679887385961981 and
raises ValueError from there on (Sorenson and Webster 2017).  The bases
up to 37 alone are not enough: psi_12 = 318665857834031151167461 =
399165290221 * 798330580441 is a strong pseudoprime to all of them.
sqrt_mod returns the smaller of the two roots.

An int equals an element only when it is the element's canonical residue
in [0, p), and elements of the base field hash like that int.

The modulus check follows the classical criterion: f of degree m is
irreducible over GF(p) iff x^(p^m) == x (mod f) and
gcd(x^(p^i) - x, f) = 1 for 1 <= i < m.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import zip_longest
from typing import Iterable, Optional, Sequence

import numpy as np

from . import modmat
from .errors import DimensionMismatch, FieldMismatch, NotASquare, SingularBasis
from .linalg import ExactMatrix

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # psi_13


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; raises ValueError from psi_13 on,
    where the fixed bases stop deciding."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
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


def smallest_nonresidue(p: int) -> int:
    """The least quadratic non-residue modulo the odd prime p."""
    if p == 2:
        raise NotASquare("GF(2) has no non-residues")
    n = 2
    while pow(n, (p - 1) // 2, p) == 1:
        n += 1
    return n


def sqrt_mod(a: int, p: int) -> int:
    """The smaller of the two square roots of a modulo the prime p, by
    Tonelli-Shanks; raises NotASquare for a non-residue."""
    a %= p
    if p == 2 or a == 0:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise NotASquare(f"{a} is not a square mod {p}")
    # Write p-1 = q * 2^s with q odd and walk the 2-Sylow subgroup; for
    # p = 3 mod 4 (s = 1) the loop never runs and r = a^((p+1)/4).
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    c = pow(smallest_nonresidue(p), q, p)
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        # the least i with t^(2^i) = 1; then r * c^(2^(s-i-1)) halves t's order
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return min(r, p - r)


class _PolyQuotient:
    """What GF(p), GF(p^2) and GF(p^m) share as GF(p)[x]/(f) with deg f =
    `degree`: the multiplication tensor and the kernels on coefficient
    arrays.  Subclasses convert between elements and coefficients."""

    degree: int

    @cached_property
    def int64_matrices(self) -> bool:
        """Whether linalg.ExactMatrix holds matrices over this field as arrays."""
        return modmat.poly_fits_int64(self.p, self.degree)

    @cached_property
    def mul_tensor(self) -> np.ndarray:
        """(m, m, m) array: T[i, j] holds the coefficients of x^(i+j) mod f."""
        m = self.degree
        basis = [self._from_coeffs([int(i == k) for k in range(m)]) for i in range(m)]
        return np.array([[self._coeffs(a * b) for b in basis] for a in basis], dtype=np.int64)

    def product(self, A: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Coefficient array of A X for a (rows, c, m) array A and a (c, m) or
        (c, s, m) array X; mult[c, b, s] is x^b times X's entry (c, s)."""
        p, m = self.p, self.degree
        rows, c = A.shape[:2]
        s = X.shape[1] if X.ndim == 3 else 1
        mult = np.einsum("csa,abl->cbsl", X.reshape(c, s, m), self.mul_tensor) % p
        if modmat.poly_fits_int64(p, c * m):
            out = A.reshape(rows, c * m) @ mult.reshape(c * m, s * m) % p
        else:
            out = (np.einsum("rcb,cbsl->rcsl", A, mult) % p).sum(axis=1) % p
        return out.reshape((rows,) + X.shape[1:])

    def scale_coeffs(self, A: np.ndarray, c) -> np.ndarray:
        """The coefficient array A with every entry multiplied by the element c."""
        return A @ (np.einsum("a,abl->bl", self._coeffs(c), self.mul_tensor) % self.p) % self.p

    def rref_coeffs(self, A: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """modmat.rref_poly of a (rows, cols, m) coefficient array over this
        field: (R, pivot columns).  Raises ValueError unless
        poly_fits_int64(p, m)."""
        return modmat.rref_poly(A, self.mul_tensor, self.p, self._inverse_coeffs)

    def _inverse_coeffs(self, coeffs):
        return self._coeffs(self._from_coeffs(coeffs).inverse())


class PrimeField(_PolyQuotient):
    """GF(p).  p may be 2 (needed by the characteristic-2 encoder variant),
    but square roots and the quadratic extension require p odd."""

    degree = 1

    def __init__(self, p: int):
        if not is_prime(p):
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

    @staticmethod
    def _coeffs(x: "PrimeElement") -> tuple:
        return (x.val,)

    def _from_coeffs(self, coeffs) -> "PrimeElement":
        return PrimeElement(self, coeffs[0])

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
        """The smaller of the two square roots (sqrt_mod); raises
        NotASquare for non-residues."""
        return PrimeElement(self, sqrt_mod(self.coerce(a).val, self.p))

    def smallest_nonresidue(self) -> int:
        return smallest_nonresidue(self.p)

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
    """x^k in GF(p^2), GF(p^m) or a multiquadratic tower; a negative k inverts first."""
    if k < 0:
        return x.inverse() ** (-k)
    return _power(x, k, x.field.one)


class _FieldElement:
    """The operators an element type derives from its own +, -, *, negation
    and inverse: c - x, c / x for a scalar c, and x ** k by _field_pow."""

    __slots__ = ()

    def __rsub__(self, x):
        return (-self) + x

    def __rtruediv__(self, x):
        return self.inverse() * x

    __pow__ = _field_pow


class PrimeElement(_FieldElement):
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

    def __pow__(self, n: int):
        return PrimeElement(self.field, pow(self.val, n, self.field.p))

    def __eq__(self, other):
        if isinstance(other, PrimeElement):
            return self.field == other.field and self.val == other.val
        if isinstance(other, int):
            return self.val == other
        return NotImplemented

    def __bool__(self):
        return self.val != 0

    def __hash__(self):
        return hash(self.val)

    def __repr__(self):
        return str(self.val)


class QuadExtField(_PolyQuotient):
    """GF(p^2) presented as GF(p)[s]/(s^2 - n) for a non-residue n.

    Constructing the extension from the non-residue of interest makes its
    square root available directly: sqrt(n) = s.
    """

    degree = 2

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

    @staticmethod
    def _coeffs(x: "QuadExtElement") -> tuple:
        return (x.u, x.v)

    def _from_coeffs(self, coeffs) -> "QuadExtElement":
        return QuadExtElement(self, coeffs[0], coeffs[1])

    def random_element(self, rng) -> "QuadExtElement":
        return QuadExtElement(self, rng.randint(0, self.p - 1), rng.randint(0, self.p - 1))

    def join(self, U: ExactMatrix, V: ExactMatrix) -> ExactMatrix:
        """U + sV for two matrices over GF(p) of one shape; with split, the
        algebra GF(p)[x]/(x^2 - n) of plotkin_fold and doubling_decode."""
        if U.shape != V.shape:
            raise DimensionMismatch(f"join parts of shapes {U.shape} and {V.shape}")
        if U.field != self.base or V.field != self.base:
            raise FieldMismatch(f"join parts must be over {self.base}")
        if self.int64_matrices:
            return ExactMatrix.from_array(self, np.concatenate((U.array, V.array), axis=2))
        return U.map_entries(self.coerce, self) + V.map_entries(self.coerce, self).scale(self.sqrt_nonresidue)

    def split(self, M: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
        """(U, V) with M = U + sV, both over GF(p); inverse of join."""
        if M.field != self:
            raise FieldMismatch(f"expected a matrix over {self}, got one over {M.field}")
        base = self.base
        if M.array is not None:
            return ExactMatrix.from_array(base, M.array[:, :, :1]), ExactMatrix.from_array(base, M.array[:, :, 1:])
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


class QuadExtElement(_FieldElement):
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

    # Bound in this class too, for tools that patch its own names.
    __rsub__ = _FieldElement.__rsub__
    __rtruediv__ = _FieldElement.__rtruediv__
    __pow__ = _FieldElement.__pow__

    def __eq__(self, other):
        if isinstance(other, QuadExtElement):
            return self.field == other.field and self.u == other.u and self.v == other.v
        if isinstance(other, PrimeElement):
            if other.field != self.field.base:
                return False
            other = other.val
        if isinstance(other, int):
            return self.v == 0 and self.u == other
        return NotImplemented

    def __bool__(self):
        return self.u != 0 or self.v != 0

    def __hash__(self):
        if self.v == 0:
            return hash(self.u)
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


class ExtField(_PolyQuotient):
    """GF(p^m) as GF(p)[x]/(f) with a deterministic default modulus."""

    def __init__(self, p: int, m: int, modulus: Optional[Sequence[int]] = None):
        if m < 1:
            raise ValueError(f"extension degree must be at least 1, got {m}")
        self.base = PrimeField(p)
        self.p = p
        self.m = self.degree = m
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

    @staticmethod
    def _coeffs(x: "ExtElement") -> tuple:
        return x.coeffs

    def _from_coeffs(self, coeffs) -> "ExtElement":
        return ExtElement(self, tuple(coeffs))

    def random_element(self, rng) -> "ExtElement":
        return ExtElement(self, tuple(rng.randint(0, self.p - 1) for _ in range(self.m)))

    def polynomial_basis(self) -> list["ExtElement"]:
        return [self.element([0] * i + [1]) for i in range(self.m)]

    def coeff_array(self, vector: Iterable) -> np.ndarray:
        """(n, m) int64 array whose row i holds the coefficients of entry i."""
        return np.array([self.coerce(v).coeffs for v in vector], dtype=np.int64).reshape(-1, self.m)

    def from_coeff_array(self, X: np.ndarray) -> list["ExtElement"]:
        """Inverse of coeff_array; the rows must be reduced mod p."""
        return [ExtElement(self, tuple(row)) for row in X.tolist()]

    @cached_property
    def frobenius_table(self) -> tuple:
        """(m, m, m) nested tuples of Python ints: F[i][j] holds the
        coefficients of (x^j)^(p^i), that is h^j for h = x^(p^i) mod f, so
        that x -> x^(p^i) takes the coefficient row c to c @ F[i] mod p."""
        p, f = self.p, self.modulus
        table = []
        for i in range(self.m):
            h = _ppowmod([0, 1], p ** i, f, p)
            table.append(tuple(self.element(_ppowmod(h, j, f, p)).coeffs for j in range(self.m)))
        return tuple(table)

    @cached_property
    def _frobenius_array(self) -> np.ndarray:
        """frobenius_table as an int64 array, for frobenius_powers and
        gabidulin.left_divide."""
        return np.array(self.frobenius_table, dtype=np.int64)

    def frobenius(self, x: "ExtElement", i: int = 1) -> "ExtElement":
        """x^(p^i), read off frobenius_table in Python integers."""
        x = self.coerce(x)
        rows = self.frobenius_table[i % self.m]
        p = self.p
        return ExtElement(self, tuple(sum(c * t for c, t in zip(x.coeffs, col)) % p for col in zip(*rows)))

    def frobenius_powers(self, X: np.ndarray, count: int) -> np.ndarray:
        """(n, count, m) array of the powers x^(p^j), j < count, of the
        entries of an (n, m) coefficient array; each is a sum of m products
        of residues, so poly_fits_int64(p, m) must hold."""
        F = self._frobenius_array[np.arange(count) % self.m]
        return np.einsum("nj,ijk->nik", X, F) % self.p

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


class ExtElement(_FieldElement):
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

    def __eq__(self, other):
        if isinstance(other, ExtElement):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, PrimeElement):
            if other.field != self.field.base:
                return False
            other = other.val
        if isinstance(other, int):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def __bool__(self):
        return any(self.coeffs)

    def __hash__(self):
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.field.p, self.field.m, self.coeffs))

    def __repr__(self):
        return f"ext{list(self.coeffs)}"


# ---------------------------------------------------------------------------

def basis_inverse(field: ExtField, basis: Sequence) -> ExactMatrix:
    """The m x m matrix over GF(p) that takes the coefficient column of an
    element of GF(p^m) to its coordinate column in `basis`."""
    basis = [field.coerce(b) for b in basis]
    if len(basis) != field.m:
        raise SingularBasis(f"need {field.m} basis elements, got {len(basis)}")
    gf = field.base
    B = ExactMatrix(gf, [[b.coeffs[i] for b in basis] for i in range(field.m)])
    R, pivots, _ = B.hstack(ExactMatrix.identity(gf, field.m)).rref()
    # B is invertible exactly when all pivots fall in its own columns.
    if tuple(pivots[: field.m]) != tuple(range(field.m)):
        raise SingularBasis("basis elements are linearly dependent")
    return R.split_blocks(field.m, field.m)[1]


def expand_to_base(field: ExtField, vector: Iterable, basis: Optional[Sequence] = None) -> ExactMatrix:
    """Write a vector over GF(p^m) as an m x n matrix over GF(p).

    Column j holds the coordinates of the j-th entry in the given basis
    (default: the polynomial basis, where coordinates are the coefficient
    tuples themselves).  The expansion is GF(p)-linear in the vector, and
    the rank of the result does not depend on the basis choice.
    """
    vec = [field.coerce(v) for v in vector]
    M = ExactMatrix(field.base, [[v.coeffs[i] for v in vec] for i in range(field.m)])
    return M if basis is None else basis_inverse(field, basis) @ M


def reconstruct_from_base(field: ExtField, matrix: ExactMatrix, basis: Optional[Sequence] = None) -> list:
    """Inverse of expand_to_base: columns over GF(p) back to GF(p^m) entries."""
    if matrix.field != field.base:
        raise FieldMismatch(f"expected a matrix over GF({field.p}), got one over {matrix.field}")
    if matrix.rows != field.m:
        raise SingularBasis(f"matrix must have {field.m} rows")
    row = ExactMatrix(field, [field.polynomial_basis() if basis is None else basis])
    return list((row @ matrix.map_entries(field.coerce, field)).entries[0])
