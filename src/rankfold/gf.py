"""Finite fields GF(p), GF(p^2) and GF(p^m), exact in Python integers.

All three are GF(p)[x]/(f) for a monic f of degree m, and an element is
its tuple of coefficients (c_0, ..., c_{m-1}), residues in [0, p).  f is
x for GF(p); x^2 - n for GF(p^2), with n a quadratic non-residue, so that
the square root of n is available by construction; and for GF(p^m) the
lexicographically first monic irreducible modulus (coefficient tuples
(c_{m-1}, ..., c_0) compared lexicographically, i.e. minimal
sum c_i * p^i), so two constructions of the same field agree bit for bit.

The ring arithmetic is written once, on the coefficient tuple mod f.
_PolyElement adds, subtracts and negates coefficient by coefficient,
multiplies by _pmul reduced mod f (_PolyQuotient._reduce), and inverts by
one extended Euclid that stops at a constant remainder, so an inverse in
GF(p) is a single pow; _PolyQuotient coerces ints and base-field elements
and draws random elements.  The element classes PrimeElement,
QuadExtElement and ExtElement add only their repr, the names val (GF(p))
and u and v (GF(p^2)) for the coefficients, and conjugate (GF(p^2)); the
fields add their constructors and JSON, GF(p) its square roots, GF(p^2)
join and split, and GF(p^m) its Frobenius maps.  These elements and the tower's (exactfield) share one base,
_FieldElement, which derives c - x, c / x and x ** k from their own
negation, inverse and products.

GF(p)[x] arithmetic on coefficient lists, _pmul (product), _psub
(difference), _pdivmod (division with remainder) and _ppowmod (power mod
f), serves products, the Frobenius table and the modulus check, and one
square-and-multiply (_power) serves _ppowmod and the powers of elements.

Frobenius x -> x^(p^i) is GF(p)-linear.  ExtField builds once, on the
instance, the (m, m, m) table F with F[i, j] = (x^j)^(p^i) mod f, so the
map takes a coefficient row c to c @ F[i] mod p.  The element method
frobenius reads it in Python integers, exact for any p; frobenius_powers
applies it, as int64, to a whole (n, m) coefficient array
(ExtField.coeff_array) in one product, whose sums of m products of
residues need modmat.poly_fits_int64(p, m).

Each field builds once, on the instance, its multiplication tensor
T[i, j] = x^(i+j) mod f (mul_tensor), and with it the kernels of linalg's
storage rule on (rows, cols, m) coefficient arrays, with den = 1:
rref_array (modmat.rref_poly) and `product`, one matmul of c m products
per entry for inner dimension c while poly_fits_int64(p, c m), else each
entry product reduced first.

The package's number theory lives here too: is_prime, sqrt_mod and
smallest_nonresidue serve PrimeField and the tower's sign embeddings
(exactfield).  is_prime is Miller-Rabin with the prime bases 2, ..., 41,
which decides every n below psi_13 = 3317044064679887385961981 and
raises ValueError from there on (Sorenson and Webster 2017).  The bases
up to 37 alone are not enough: psi_12 = 318665857834031151167461 =
399165290221 * 798330580441 is a strong pseudoprime to all of them.
sqrt_mod returns the smaller of the two roots.

An int equals an element only when it is the element's canonical residue
in [0, p), an element of the base field equals its image in an extension,
and equal values hash alike.  In every field an element of an unrelated
field raises FieldMismatch and the inverse of zero ZeroDivisionError.

The modulus check follows the classical criterion: f of degree m is
irreducible over GF(p) iff x^(p^m) == x (mod f) and
gcd(x^(p^i) - x, f) = 1 for 1 <= i < m.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import chain, zip_longest
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
    """x^k in a finite field or a multiquadratic tower; a negative k inverts first."""
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


# ---------------------------------------------------------------------------

class _PolyElement(_FieldElement):
    """An element of GF(p)[x]/(f): its field and its coefficient tuple
    (c_0, ..., c_{m-1}) of residues in [0, p).  The other operand of an
    operator may be an element of the same field or of its base field, or
    an int (_PolyQuotient._lift)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, x):
        c = self.field._lift(x)
        if c is None:
            return NotImplemented
        p = self.field.p
        return type(self)(self.field, tuple([(a + b) % p for a, b in zip(self.coeffs, c)]))

    __radd__ = __add__

    def __sub__(self, x):
        c = self.field._lift(x)
        if c is None:
            return NotImplemented
        p = self.field.p
        return type(self)(self.field, tuple([(a - b) % p for a, b in zip(self.coeffs, c)]))

    def __neg__(self):
        p = self.field.p
        return type(self)(self.field, tuple([-a % p for a in self.coeffs]))

    def __mul__(self, x):
        c = self.field._lift(x)
        if c is None:
            return NotImplemented
        # c is often zero or a scalar: _pmul skips the zero coefficients of its first factor
        return type(self)(self.field, self.field._reduce(_pmul(c, self.coeffs)))

    __rmul__ = __mul__

    def inverse(self):
        """Extended Euclid in GF(p)[x] on the pairs (r0, s0) = (f, 0) and
        (r1, s1) = (self, 1), with s * self = r (mod f) for both: c x^k times
        (r1, s1) comes off (r0, s0) until deg r0 < deg r1, then the pairs
        swap.  It stops at a constant r1, which a nonzero element of GF(p)
        is already."""
        field, p = self.field, self.field.p
        r0, r1 = field.modulus, _ptrim(list(self.coeffs))
        if not r1:
            raise ZeroDivisionError("inverse of zero")
        s0, s1 = [0], [1]
        while len(r1) > 1:
            r0, inv, d = list(r0), pow(r1[-1], -1, p), len(r1) - 1
            while len(r0) > d:
                k = len(r0) - 1 - d
                c = r0.pop() * inv % p
                for i in range(d):
                    r0[k + i] = (r0[k + i] - c * r1[i]) % p
                s0 += [0] * (k + len(s1) - len(s0))
                for i, b in enumerate(s1):
                    s0[k + i] = (s0[k + i] - c * b) % p
                _ptrim(r0)
            r0, r1, s0, s1 = r1, r0, s1, s0
        inv = pow(r1[0], -1, p)
        return type(self)(field, tuple([c * inv % p for c in s1]) + (0,) * (field.degree - len(s1)))

    def __truediv__(self, x):
        c = self.field._lift(x)
        if c is None:
            return NotImplemented
        return self * type(self)(self.field, c).inverse()

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        try:
            c = self.field._lift(other)
        except FieldMismatch:
            return False
        return NotImplemented if c is None else self.coeffs == c

    def __bool__(self):
        return any(self.coeffs)

    def __hash__(self):
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.field.p, self.field.modulus, self.coeffs))


class _PolyQuotient:
    """What GF(p), GF(p^2) and GF(p^m) share as GF(p)[x]/(f): coercion,
    reduction mod f, random elements, the multiplication tensor and the
    kernels on coefficient arrays.  `modulus` holds f's coefficients in
    increasing degree and `_element` is the field's element class."""

    _element: type

    def __init__(self, p: int, modulus: Sequence[int]):
        self.p = p
        self.modulus = tuple(modulus)
        self.degree = m = len(modulus) - 1
        # f's nonzero coefficients below x^m, which _reduce subtracts
        self._tail = tuple((i, g) for i, g in enumerate(self.modulus[:m]) if g)
        self.zero = self._element(self, (0,) * m)
        self.one = self._element(self, (1,) + (0,) * (m - 1))

    def _lift(self, x):
        """The coefficients of x in this field, for an int or an element of
        this field or of its base field; None for another type or for an
        element of an extension of this field, whose reflected operator
        then serves; FieldMismatch for an element of an unrelated field."""
        if isinstance(x, _PolyElement):
            field = x.field
            if field is self or field == self:
                return x.coeffs
            if field == getattr(self, "base", None):
                return x.coeffs + (0,) * (self.degree - 1)
            if getattr(field, "base", None) == self:
                return None
            raise FieldMismatch(f"elements of {field!r} and {self!r}")
        if isinstance(x, int):
            return (x % self.p,) + (0,) * (self.degree - 1)
        return None

    def coerce(self, x):
        c = self._lift(x)
        if c is None:
            raise TypeError(f"cannot coerce {x!r} into {self!r}")
        return self._element(self, c)

    def _reduce(self, f) -> tuple:
        """The coefficients of f mod the modulus, for a polynomial f of any
        degree with integer coefficients in increasing degree."""
        m, p = self.degree, self.p
        r = list(f)
        for d in range(len(r) - 1, m - 1, -1):
            c = r[d] % p
            if c:
                for i, g in self._tail:
                    r[d - m + i] -= c * g
        return tuple([c % p for c in r[:m]]) + (0,) * (m - len(r))

    _coeffs = staticmethod(operator.attrgetter("coeffs"))

    def _from_coeffs(self, coeffs):
        return self._element(self, tuple(coeffs))

    def random_element(self, rng):
        return self._element(self, tuple([rng.randint(0, self.p - 1) for _ in range(self.degree)]))

    @cached_property
    def array_matrices(self) -> bool:
        """Whether linalg.ExactMatrix holds matrices over this field as arrays."""
        return modmat.poly_fits_int64(self.p, self.degree)

    def matrix_array(self, entries, rows: int, cols: int) -> tuple[np.ndarray, int]:
        """(A, 1): the (rows, cols, m) coefficient array of a matrix's rows of elements."""
        values = chain.from_iterable(map(self._coeffs, chain.from_iterable(entries)))
        return np.fromiter(values, np.int64, rows * cols * self.degree).reshape(rows, cols, self.degree), 1

    def array_entries(self, A: np.ndarray, den: int) -> tuple:
        return tuple(tuple(map(self._from_coeffs, row)) for row in A.tolist())

    def canonical_array(self, A: np.ndarray, den: int) -> tuple[np.ndarray, int]:
        return A % self.p, 1

    @cached_property
    def mul_tensor(self) -> np.ndarray:
        """(m, m, m) array: T[i, j] holds the coefficients of x^(i+j) mod f."""
        m = self.degree
        return np.array([[self._reduce([0] * (i + j) + [1]) for j in range(m)] for i in range(m)], dtype=np.int64)

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

    def scale_array(self, A: np.ndarray, den: int, c) -> tuple[np.ndarray, int]:
        """(A c, 1) for the coefficient array A and the element c."""
        return A @ (np.einsum("a,abl->bl", self._coeffs(c), self.mul_tensor) % self.p) % self.p, 1

    def rref_array(self, A: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...]]:
        """modmat.rref_poly of a (rows, cols, m) coefficient array over this
        field: (R, 1, pivot columns).  Raises ValueError unless
        poly_fits_int64(p, m)."""
        R, pivots = modmat.rref_poly(A, self.mul_tensor, self.p, self._inverse_coeffs)
        return R, 1, pivots

    def _inverse_coeffs(self, coeffs):
        return self._coeffs(self._from_coeffs(coeffs).inverse())

    def __eq__(self, other):
        return type(other) is type(self) and (self.p, self.modulus) == (other.p, other.modulus)

    def __hash__(self):
        return hash((type(self).__name__, self.p, self.modulus))


class PrimeElement(_PolyElement):
    __slots__ = ()

    @property
    def val(self) -> int:
        return self.coeffs[0]

    def __repr__(self):
        return str(self.coeffs[0])


class PrimeField(_PolyQuotient):
    """GF(p) as GF(p)[x]/(x).  p may be 2; square roots and the quadratic
    extension need p odd."""

    _element = PrimeElement

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p, (0, 1))

    def element(self, v: int) -> PrimeElement:
        return PrimeElement(self, (v % self.p,))

    def is_square(self, a) -> bool:
        v = self.coerce(a).val
        return v == 0 or self.p == 2 or pow(v, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, a) -> PrimeElement:
        """The smaller of the two square roots (sqrt_mod); raises
        NotASquare for non-residues."""
        return PrimeElement(self, (sqrt_mod(self.coerce(a).val, self.p),))

    def _inverse_coeffs(self, coeffs):  # rref_array's pivot inverses, without an element
        return [pow(coeffs[0], -1, self.p)]

    def smallest_nonresidue(self) -> int:
        return smallest_nonresidue(self.p)

    def to_json(self):
        return {"p": self.p}

    def element_to_json(self, x: PrimeElement):
        return x.val

    def element_from_json(self, data) -> PrimeElement:
        return self.element(int(data))

    def __repr__(self):
        return f"GF({self.p})"


class QuadExtElement(_PolyElement):
    __slots__ = ()

    @property
    def u(self) -> int:
        return self.coeffs[0]

    @property
    def v(self) -> int:
        return self.coeffs[1]

    def conjugate(self) -> "QuadExtElement":
        u, v = self.coeffs
        return QuadExtElement(self.field, (u, -v % self.field.p))

    # Bound in this class too, for tools that patch its own names.
    __add__ = _PolyElement.__add__
    __radd__ = _PolyElement.__radd__
    __sub__ = _PolyElement.__sub__
    __rsub__ = _PolyElement.__rsub__
    __neg__ = _PolyElement.__neg__
    __mul__ = _PolyElement.__mul__
    __rmul__ = _PolyElement.__rmul__
    inverse = _PolyElement.inverse
    __truediv__ = _PolyElement.__truediv__
    __rtruediv__ = _PolyElement.__rtruediv__
    __pow__ = _PolyElement.__pow__

    def __repr__(self):
        return f"({self.coeffs[0]}+{self.coeffs[1]}s)"


class QuadExtField(_PolyQuotient):
    """GF(p^2) presented as GF(p)[s]/(s^2 - n) for a non-residue n.

    Constructing the extension from the non-residue of interest makes its
    square root available directly: sqrt(n) = s.
    """

    _element = QuadExtElement

    def __init__(self, base: PrimeField | int, nonresidue: Optional[int] = None):
        self.base = base if isinstance(base, PrimeField) else PrimeField(base)
        p = self.base.p
        if p == 2:
            raise ValueError("quadratic extension requires odd p")
        if nonresidue is None:
            nonresidue = self.base.smallest_nonresidue()
        nonresidue %= p
        if self.base.is_square(nonresidue):
            raise ValueError(f"{nonresidue} is a square mod {p}")
        self.n = nonresidue
        super().__init__(p, (-nonresidue % p, 0, 1))
        self.sqrt_nonresidue = QuadExtElement(self, (0, 1))

    def element(self, u: int, v: int = 0) -> QuadExtElement:
        return QuadExtElement(self, (u % self.p, v % self.p))

    def join(self, U: ExactMatrix, V: ExactMatrix) -> ExactMatrix:
        """U + sV for two matrices over GF(p) of one shape; with split, the
        algebra GF(p)[x]/(x^2 - n) of plotkin_fold and doubling_decode."""
        if U.shape != V.shape:
            raise DimensionMismatch(f"join parts of shapes {U.shape} and {V.shape}")
        if U.field != self.base or V.field != self.base:
            raise FieldMismatch(f"join parts must be over {self.base}")
        if self.array_matrices:
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

    def __repr__(self):
        return f"GF({self.p}^2|s^2={self.n})"


class ExtElement(_PolyElement):
    __slots__ = ()

    # Bound in this class too, for tools that patch its own names.
    __mul__ = _PolyElement.__mul__
    __rmul__ = _PolyElement.__rmul__
    inverse = _PolyElement.inverse

    def __repr__(self):
        return f"ext{list(self.coeffs)}"


class ExtField(_PolyQuotient):
    """GF(p^m) as GF(p)[x]/(f) with a deterministic default modulus."""

    _element = ExtElement

    def __init__(self, p: int, m: int, modulus: Optional[Sequence[int]] = None):
        if m < 1:
            raise ValueError(f"extension degree must be at least 1, got {m}")
        self.base = PrimeField(p)
        self.m = m
        if modulus is None:
            modulus = _first_irreducible(p, m)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if m > 1 and not _is_irreducible(modulus, p):
                raise ValueError("modulus is reducible")
        super().__init__(p, modulus)
        self.x = ExtElement(self, ((0, 1) + (0,) * (m - 2))[:m])

    @property
    def order(self) -> int:
        return self.p ** self.m

    def element(self, coeffs: Sequence[int]) -> ExtElement:
        """The residue of a polynomial over GF(p), of any degree, mod f."""
        return ExtElement(self, self._reduce(coeffs))

    def polynomial_basis(self) -> list[ExtElement]:
        return [self.element([0] * i + [1]) for i in range(self.m)]

    def coeff_array(self, vector: Iterable) -> np.ndarray:
        """(n, m) int64 array whose row i holds the coefficients of entry i."""
        return np.array([self.coerce(v).coeffs for v in vector], dtype=np.int64).reshape(-1, self.m)

    def from_coeff_array(self, X: np.ndarray) -> list[ExtElement]:
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

    def frobenius(self, x: ExtElement, i: int = 1) -> ExtElement:
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

    def __repr__(self):
        return f"GF({self.p}^{self.m})"


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
