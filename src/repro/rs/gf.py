"""Galois-field GF(2^m) arithmetic with log/antilog tables.

The paper's Reed-Solomon baseline ("for simplicity, we picked lookup
tables to implement Galois Field arithmetic", Section VII-B) is
reproduced the same way: a generator-power table and its inverse give
O(1) multiply/divide/log, which is both the hardware structure the paper
costs (the LUTs in Table V) and a fast software path.

Two execution styles share the same tables:

* scalar ``mul``/``div``/``inv`` index a *doubled* exp table
  (``exp[i % order] == _exp2[i]`` for ``i < 2 * order``) so the hot
  path needs no ``% order`` reduction;
* :meth:`GaloisField.mul_batch` / :meth:`div_batch` /
  :meth:`pow_alpha_batch` run the same lookups over whole ndarrays for
  the vectorised Reed-Solomon engine.

Symbol sizes 2..16 bits are supported — Table IV needs 5-, 6-, 7- and
8-bit symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: Primitive polynomials (with the x^m term) for each supported field size.
PRIMITIVE_POLYNOMIALS: dict[int, int] = {
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10001001,           # x^7 + x^3 + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011, # x^16 + x^12 + x^3 + x + 1
}


@dataclass
class GaloisField:
    """GF(2^m) with exp/log tables generated from a primitive element.

    ``exp[i] == alpha^i`` for ``i in [0, 2^m - 1)`` and
    ``log[exp[i]] == i``; zero has no logarithm.
    """

    m: int
    exp: list[int] = field(init=False, repr=False)
    log: list[int] = field(init=False, repr=False)
    _exp2: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.m not in PRIMITIVE_POLYNOMIALS:
            supported = sorted(PRIMITIVE_POLYNOMIALS)
            raise ValueError(f"unsupported field GF(2^{self.m}); have {supported}")
        poly = PRIMITIVE_POLYNOMIALS[self.m]
        size = 1 << self.m
        self.exp = [0] * (size - 1)
        self.log = [0] * size
        value = 1
        for i in range(size - 1):
            self.exp[i] = value
            self.log[value] = i
            value <<= 1
            if value & size:
                value ^= poly
        if value != 1:
            raise AssertionError(f"polynomial {poly:#x} is not primitive")
        # Doubled exp table: any log sum/difference offset into
        # [0, 2 * order) indexes directly, with no modular reduction.
        self._exp2 = self.exp * 2

    # ------------------------------------------------------------------
    # Field operations
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of field elements, 2^m."""
        return 1 << self.m

    @property
    def order(self) -> int:
        """Multiplicative group order, 2^m - 1."""
        return (1 << self.m) - 1

    def add(self, a: int, b: int) -> int:
        """Addition == subtraction == XOR in characteristic 2."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp2[self.log[a] + self.log[b]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero field element")
        if a == 0:
            return 0
        return self._exp2[self.log[a] - self.log[b] + self.order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._exp2[self.order - self.log[a]]

    def pow_alpha(self, i: int) -> int:
        """alpha^i for any integer i (negative allowed)."""
        return self.exp[i % self.order]

    def log_alpha(self, a: int) -> int:
        """Discrete log base alpha; raises for zero."""
        if a == 0:
            raise ValueError("zero has no discrete logarithm")
        return self.log[a]

    def poly_eval(self, coefficients: list[int], x: int) -> int:
        """Evaluate a polynomial (highest-degree coefficient first)."""
        result = 0
        for coefficient in coefficients:
            result = self.mul(result, x) ^ coefficient
        return result

    # ------------------------------------------------------------------
    # Vectorised field operations
    # ------------------------------------------------------------------

    def _nd_tables(self):
        """Lazily built ndarray views of the lookup tables.

        ``exp_nd`` is the doubled exp table (uint32, length 2 * order)
        and ``log_nd`` the log table (int64; index 0 holds a harmless 0
        sentinel — callers must mask zero operands themselves).
        """
        tables = self.__dict__.get("_nd")
        if tables is None:
            tables = (
                np.array(self._exp2, dtype=np.uint32),
                np.array(self.log, dtype=np.int64),
            )
            self.__dict__["_nd"] = tables
        return tables

    @property
    def exp_nd(self):
        """Doubled exp table as a uint32 ndarray (``exp_nd[i] == alpha^i``
        for ``0 <= i < 2 * order``)."""
        return self._nd_tables()[0]

    @property
    def log_nd(self):
        """Log table as an int64 ndarray; ``log_nd[0]`` is a 0 sentinel."""
        return self._nd_tables()[1]

    def mul_batch(self, a, b):
        """Elementwise field product of two symbol ndarrays (broadcasts)."""
        exp2, log = self._nd_tables()
        a = np.asarray(a)
        b = np.asarray(b)
        product = exp2[log[a] + log[b]]
        return np.where((a == 0) | (b == 0), np.uint32(0), product)

    def div_batch(self, a, b):
        """Elementwise field quotient; raises if any divisor is zero."""
        exp2, log = self._nd_tables()
        a = np.asarray(a)
        b = np.asarray(b)
        if np.any(b == 0):
            raise ZeroDivisionError("division by zero field element")
        quotient = exp2[log[a] - log[b] + self.order]
        return np.where(a == 0, np.uint32(0), quotient)

    def pow_alpha_batch(self, i):
        """``alpha^i`` for an ndarray of integers (negative allowed)."""
        exp2, _ = self._nd_tables()
        return exp2[np.asarray(i) % self.order]


@lru_cache(maxsize=None)
def get_field(m: int) -> GaloisField:
    """Shared per-size field instance (tables are immutable in practice)."""
    return GaloisField(m)
