"""FEBO: functional encryption for basic operations (paper Section III-B).

This is the CryptoNN paper's own contribution: an ElGamal-derived scheme
computing ``f_delta(x, y) = x delta y`` for ``delta in {+, -, *, /}`` where
``x`` is encrypted and ``y`` is the server-side plaintext operand.

* ``Setup(1^lambda)``: ``msk = s``, ``mpk = (h = g^s, g)``.
* ``Encrypt(mpk, x)``: nonce ``r``; commitment ``cmt = g^r``; ``ct = h^r g^x``.
* ``KeyDerive(msk, cmt, delta, y)``::

      sk = cmt^s * g^{-y}     (delta = +)
      sk = cmt^s * g^{y}      (delta = -)
      sk = (cmt^s)^y          (delta = *)
      sk = (cmt^s)^{y^{-1}}   (delta = /)

* ``Decrypt``: ``g^{x+y} = ct / sk`` (add/sub), ``g^{x*y} = ct^y / sk``
  (mul), ``g^{x/y} = ct^{y^{-1}} / sk`` (div), then a bounded discrete log.

Notes faithful to the paper:

* keys are **per-ciphertext** (they depend on the commitment);
* division computes ``x * y^{-1} mod q``, which equals the rational x/y
  only when ``y`` divides ``x`` -- :meth:`Febo.decrypt` therefore only
  supports exact division and raises otherwise;
* the scheme is IND-CPA under DDH (Theorem 1) but intentionally does not
  resist the *direct inference* by an authorized decryptor, which the
  framework layer mitigates with label randomization.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Sequence

from repro.fe.errors import (
    CiphertextError,
    FunctionKeyError,
    UnsupportedOperationError,
)
from repro.fe.keys import (
    FeboCiphertext,
    FeboFunctionKey,
    FeboMasterKey,
    FeboNonce,
    FeboPublicKey,
    key_fingerprint,
)
from repro.mathutils.dlog import GLOBAL_SOLVER_CACHE, DlogSolver, SolverCache
from repro.mathutils.group import GroupParams, SchnorrGroup
from repro.mathutils.modarith import batch_inverse


class FeboOp(str, enum.Enum):
    """The four permitted arithmetic operations ``delta``."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"

    @classmethod
    def coerce(cls, value: "FeboOp | str") -> "FeboOp":
        """Accept either an enum member or its symbol."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise UnsupportedOperationError(
                f"operation {value!r} not in permitted set {[o.value for o in cls]}"
            ) from None


class Febo:
    """Stateless FEBO scheme over a fixed Schnorr group."""

    def __init__(self, params: GroupParams, rng: random.Random | None = None,
                 solver_cache: SolverCache | None = None):
        self.group = SchnorrGroup(params, rng=rng)
        self._solver_cache = solver_cache or GLOBAL_SOLVER_CACHE

    # -- algorithms ---------------------------------------------------------
    def setup(self) -> tuple[FeboPublicKey, FeboMasterKey]:
        s = self.group.random_exponent()
        return (
            FeboPublicKey(params=self.group.params, h=self.group.gexp(s)),
            FeboMasterKey(s=s),
        )

    def encrypt(self, mpk: FeboPublicKey, x: int,
                nonce: FeboNonce | None = None) -> FeboCiphertext:
        """Encrypt the signed integer ``x``.

        With a precomputed ``nonce`` (commitment + mask) only the
        online half runs: one small-exponent ``g^x`` and one multiply.
        Single-use and key-fingerprint rules as in
        :meth:`repro.fe.feip.Feip.encrypt`.
        """
        group = self.group
        if nonce is not None:
            if nonce.key_fp != key_fingerprint(mpk):
                raise CiphertextError(
                    "nonce was precomputed for a different public key"
                )
            return FeboCiphertext(
                cmt=nonce.cmt,
                ct=group.mul(nonce.mask, group.gexp(int(x))),
            )
        r = group.random_exponent()
        # g and h are reused across every encryption under this key, so
        # the full-width exponentiations go through fixed-base tables.
        cmt = group.gexp(r)
        ct = group.mul(group.exp_cached(mpk.h, r), group.gexp(int(x)))
        return FeboCiphertext(cmt=cmt, ct=ct)

    def key_derive(self, msk: FeboMasterKey, cmt: int, op: FeboOp | str,
                   y: int) -> FeboFunctionKey:
        """Derive the per-ciphertext function key for ``x op y``."""
        op = FeboOp.coerce(op)
        group = self.group
        y = int(y)
        cmt_s = group.exp(cmt, msk.s)
        if op is FeboOp.ADD:
            sk = group.mul(cmt_s, group.gexp(-y))
        elif op is FeboOp.SUB:
            sk = group.mul(cmt_s, group.gexp(y))
        elif op is FeboOp.MUL:
            sk = group.exp(cmt_s, y)
        else:  # DIV
            if y % group.q == 0:
                raise FunctionKeyError("division by zero operand")
            sk = group.exp(cmt_s, group.exp_inverse(y))
        return FeboFunctionKey(op=op.value, y=y, sk=sk, cmt=cmt)

    def _numerator(self, skf: FeboFunctionKey,
                   ciphertext: FeboCiphertext) -> int:
        """``ct`` (add/sub), ``ct^y`` (mul) or ``ct^{y^-1}`` (div)."""
        if skf.cmt and skf.cmt != ciphertext.cmt:
            raise FunctionKeyError(
                "function key was derived for a different ciphertext"
            )
        op = FeboOp.coerce(skf.op)
        group = self.group
        if op in (FeboOp.ADD, FeboOp.SUB):
            return ciphertext.ct
        if op is FeboOp.MUL:
            return group.exp(ciphertext.ct, skf.y)
        # DIV
        return group.exp(ciphertext.ct, group.exp_inverse(skf.y))

    def decrypt_raw(self, mpk: FeboPublicKey, skf: FeboFunctionKey,
                    ciphertext: FeboCiphertext) -> int:
        """Return the group element ``g^{f_delta(x, y)}``."""
        return self.group.div(self._numerator(skf, ciphertext), skf.sk)

    def decrypt(self, mpk: FeboPublicKey, skf: FeboFunctionKey,
                ciphertext: FeboCiphertext, bound: int,
                solver: DlogSolver | None = None) -> int:
        """Recover ``x op y`` assuming the result is within ``[-bound, bound]``.

        For division the result is only meaningful when ``y`` divides ``x``
        exactly; otherwise ``x * y^{-1} mod q`` is (with overwhelming
        probability) outside any reasonable bound and a
        :class:`~repro.mathutils.dlog.DiscreteLogError` is raised.
        """
        element = self.decrypt_raw(mpk, skf, ciphertext)
        solver = solver or self.solver_for(bound)
        return solver.solve(element)

    def decrypt_many(self, mpk: FeboPublicKey,
                     items: "Sequence[tuple[FeboFunctionKey, FeboCiphertext]]",
                     bound: int, solver: DlogSolver | None = None
                     ) -> list[int]:
        """Batched :meth:`decrypt` over ``(key, ciphertext)`` pairs.

        FEBO keys are per-ciphertext, so unlike FEIP there are no shared
        bases to amortize.  What the batch shares is the division by
        ``sk``: every key is checked against its ciphertext's commitment
        first (:class:`FunctionKeyError`), then all ``sk`` are inverted
        with one Montgomery :func:`~repro.mathutils.modarith
        .batch_inverse` -- one modular inversion plus three multiplies
        per item instead of one inversion each -- and the raw elements
        go through the solver's batched
        :meth:`~repro.mathutils.dlog.DlogSolver.solve_many`.  Results
        equal per-item :meth:`decrypt` exactly, exact-division rule
        included.

        Raises:
            ValueError: if some ``sk`` is not invertible modulo ``p``.
        """
        numerators = [self._numerator(skf, ct) for skf, ct in items]
        p = self.group.p
        inverses = batch_inverse([skf.sk for skf, _ in items], p)
        elements = [num * inv % p for num, inv in zip(numerators, inverses)]
        solver = solver or self.solver_for(bound)
        return solver.solve_many(elements)

    def pack(self, low: FeboCiphertext, high: FeboCiphertext,
             digit_bound: int) -> FeboCiphertext:
        """Fold two ciphertexts into one encrypting ``x_low + B * x_high``.

        FEBO is ElGamal-shaped, so ``(cmt_low * cmt_high^B, ct_low *
        ct_high^B)`` is an honest ciphertext under the nonce ``r_low + B *
        r_high``, with ``B = 2 * digit_bound + 1``.  One ``*``-by-1 key for
        its commitment recovers both plaintexts through :func:`unpack`,
        provided each lies in ``[-digit_bound, digit_bound]``; that key
        follows from the two per-element keys but reveals neither.
        """
        group = self.group
        base = 2 * digit_bound + 1
        return FeboCiphertext(
            cmt=group.mul(low.cmt, group.exp(high.cmt, base)),
            ct=group.mul(low.ct, group.exp(high.ct, base)),
        )

    def solver_for(self, bound: int) -> DlogSolver:
        """Public accessor for the cached bounded-dlog solver."""
        return self._solver_cache.get(self.group, bound)


def packed_bound(digit_bound: int) -> int:
    """Exact dlog bound of a :meth:`Febo.pack` result, ``b * (B + 1)``.

    Any pair whose high digit leaves ``[-b, b]`` while the low digit stays
    inside lands beyond it, so the packed solve itself rejects it.
    """
    return digit_bound * (2 * digit_bound + 2)


def unpack(value: int, digit_bound: int) -> tuple[int, int]:
    """Split a decrypted :meth:`Febo.pack` result into ``(x_low, x_high)``.

    Balanced base-``B`` digits, each in ``[-digit_bound, digit_bound]``.
    An out-of-range low digit aliases into the high one, so callers must
    check the digits against an independent result.
    """
    base = 2 * digit_bound + 1
    low = (value + digit_bound) % base - digit_bound
    return low, (value - low) // base
