"""Fast modular exponentiation for the CryptoNN hot path.

Every expensive step of both FE schemes is a modular exponentiation:
``g^r`` / ``h_i^r`` during encryption, ``prod_i ct_i^{y_i}`` during
decryption, ``g^{s_i}`` during setup.  Three classical structures exploit
the reuse patterns of those exponentiations:

* :class:`FixedBaseExp` -- a fixed-base windowed table ("comb") for a
  base that is exponentiated thousands of times (``g``, the public
  ``h_i``).  After a one-time precomputation of ``ceil(bits/w) * 2^w``
  group elements, each exponentiation costs at most ``ceil(bits/w)``
  modular multiplications instead of a full square-and-multiply chain.
* :func:`multiexp` -- simultaneous multi-exponentiation (interleaved
  fixed windows, a generalization of Shamir's trick) for products
  ``prod_i b_i^{e_i}`` over *fresh* bases, sharing one squaring chain
  across all terms.  Signed exponents are handled by splitting the
  product by sign and paying a single modular inversion, which keeps
  small negative exponents small instead of reducing them to full-width
  residues mod the group order.
* :class:`RowPlan` -- the batched form of the same product when *many*
  exponent rows hit the *same* base tuple, which is exactly the shape
  of FEIP matrix decryption: every row key ``(y_i, sk_i)`` of ``W x``
  evaluates ``prod_j ct_j^{y_ij} * ct_0^{-sk_i}`` against one column
  ciphertext, and a training step decrypts many columns with the same
  keys.  The plan recodes the keys once (Lim-Lee fixed-base comb for
  the full-width ``-sk_i``, offset small exponents riding the bottom of
  the same squaring chain); :meth:`RowPlan.evaluate` then builds one
  set of subset-product tables per column and walks one chain per row.

All are pure Python over ``int``; they beat CPython's C ``pow`` only
because they do asymptotically less work, so the window parameters are
chosen from measured crossover points (see
``benchmarks/bench_ablation_fastexp.py``).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.mathutils.modarith import mod_inverse

#: Exponent bit-width at or below which a plain ``pow`` loop beats the
#: interleaved multi-exponentiation (C pow on a tiny exponent costs less
#: than the Python-level bookkeeping of a shared window walk).
NAIVE_MULTIEXP_BITS = 16

#: Bases per subset-product table in the small-exponent half of a
#: :class:`RowPlan` (``2^4`` entries each).
ROW_PLAN_GROUP = 4

#: Most comb entries (``v * 2^h`` group elements) a :class:`RowPlan`
#: builds per column.
ROW_PLAN_MAX_ENTRIES = 4096


def _comb_window(bits: int) -> int:
    """Default comb window width for an exponent of ``bits`` bits.

    Wider windows cost exponentially more precomputation but only
    linearly fewer multiplications per call; these break-evens were
    measured on 256-bit operands.
    """
    if bits >= 192:
        return 8
    if bits >= 96:
        return 7
    return 5


class FixedBaseExp:
    """Precomputed fixed-base exponentiation ``base ** e mod modulus``.

    The table stores ``base ** (d * 2^(i*w))`` for every window index
    ``i`` and digit ``d``; an exponentiation is then one table lookup
    plus one multiplication per non-zero window digit.  Exponents are
    reduced into ``[0, order)`` first, so callers may pass negative or
    oversized exponents exactly as with :meth:`SchnorrGroup.exp`.
    """

    def __init__(self, base: int, modulus: int, order: int,
                 window: int | None = None):
        if modulus <= 1:
            raise ValueError("modulus must be > 1")
        if order <= 0:
            raise ValueError("order must be positive")
        self.base = base % modulus
        self.modulus = modulus
        self.order = order
        bits = order.bit_length()
        self.window = _comb_window(bits) if window is None else window
        if self.window < 1:
            raise ValueError("window must be >= 1")
        self._mask = (1 << self.window) - 1
        self.num_windows = (bits + self.window - 1) // self.window
        self._tables = self._build_tables()

    def _build_tables(self) -> list[list[int]]:
        modulus = self.modulus
        per_window = 1 << self.window
        tables: list[list[int]] = []
        step = self.base
        for _ in range(self.num_windows):
            row = [1] * per_window
            acc = 1
            for d in range(1, per_window):
                acc = acc * step % modulus
                row[d] = acc
            tables.append(row)
            step = acc * step % modulus  # step ** 2^window
        return tables

    def pow(self, exponent: int) -> int:
        """Return ``base ** exponent mod modulus`` (exponent in Z_order)."""
        e = exponent % self.order
        result = 1
        modulus = self.modulus
        window, mask = self.window, self._mask
        i = 0
        while e:
            d = e & mask
            if d:
                result = result * self._tables[i][d] % modulus
            e >>= window
            i += 1
        return result

    __call__ = pow

    @property
    def table_entries(self) -> int:
        """Total precomputed group elements (memory footprint proxy)."""
        return self.num_windows * (1 << self.window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FixedBaseExp(bits={self.order.bit_length()}, "
                f"window={self.window}, entries={self.table_entries})")


def _multiexp_window(max_bits: int, n_bases: int) -> int:
    """Pick the interleaved window width minimizing total multiplications.

    Cost model per base: ``2^w - 1`` precomputed powers plus one
    multiplication per non-zero window digit (``~ceil(max_bits/w)``),
    against a shared chain of ``max_bits`` squarings that does not
    depend on ``w``.
    """
    best_w, best_cost = 1, None
    for w in range(1, 9):
        cost = n_bases * ((1 << w) - 1 + (max_bits + w - 1) // w)
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def _multiexp_nonneg(pairs: list[tuple[int, int]], modulus: int) -> int:
    """``prod b^e mod modulus`` for non-negative exponents (interleaved)."""
    if not pairs:
        return 1
    max_bits = max(e.bit_length() for _, e in pairs)
    if max_bits == 0:
        return 1
    if max_bits <= NAIVE_MULTIEXP_BITS and len(pairs) < 32:
        result = 1
        for base, e in pairs:
            result = result * pow(base, e, modulus) % modulus
        return result
    w = _multiexp_window(max_bits, len(pairs))
    mask = (1 << w) - 1
    num_windows = (max_bits + w - 1) // w
    # odd/even powers 1..2^w-1 of every base
    tables = []
    for base, _ in pairs:
        row = [1] * (1 << w)
        acc = 1
        for d in range(1, 1 << w):
            acc = acc * base % modulus
            row[d] = acc
        tables.append(row)
    exponents = [e for _, e in pairs]
    acc = 1
    for k in range(num_windows - 1, -1, -1):
        if k != num_windows - 1:
            for _ in range(w):
                acc = acc * acc % modulus
        shift = k * w
        for row, e in zip(tables, exponents):
            d = (e >> shift) & mask
            if d:
                acc = acc * row[d] % modulus
    return acc


def _balanced(e: int, order: int) -> int:
    e %= order
    return e - order if e > order // 2 else e


def multiexp(bases: Sequence[int], exponents: Sequence[int], modulus: int,
             order: int | None = None) -> int:
    """Return ``prod_i bases[i] ** exponents[i] mod modulus``.

    Exponents may be negative or exceed ``order``; when ``order`` is
    given they are first reduced to the *balanced* representation in
    ``(-order/2, order/2]``, which is only valid when every base lies in
    a subgroup whose order divides ``order`` (always true for Schnorr
    subgroup elements).  The negative-exponent part is accumulated as a
    positive product and folded in with one modular inversion, so small
    signed exponents -- the typical encoded-weight case -- never pay
    full-width exponentiations.
    """
    if len(bases) != len(exponents):
        raise ValueError("bases and exponents must have equal length")
    positive: list[tuple[int, int]] = []
    negative: list[tuple[int, int]] = []
    for base, e in zip(bases, exponents):
        e = int(e) if order is None else _balanced(int(e), order)
        if e == 0 or base == 1:
            continue
        if e > 0:
            positive.append((base % modulus, e))
        else:
            negative.append((base % modulus, -e))
    result = _multiexp_nonneg(positive, modulus)
    if negative:
        denom = _multiexp_nonneg(negative, modulus)
        result = result * mod_inverse(denom, modulus) % modulus
    return result


def _comb_shape(order_bits: int, rows: int,
                small_bits: int) -> tuple[int, int]:
    """Lim-Lee comb shape ``(h, v)`` minimizing one column's multiplies.

    The fixed exponent is cut into ``h * v`` pieces of
    ``b = ceil(bits / (h * v))`` bits, read through ``v`` tables of
    ``2^h`` subset products.  Per column that costs ``(h*v - 1) * b``
    squarings to reach the piece bases plus ``v * 2^h`` products; every
    row then walks ``max(b, small_bits)`` squarings and up to ``v * b``
    comb lookups.
    """
    def cost(shape: tuple[int, int]) -> int:
        h, v = shape
        b = -(-order_bits // (h * v))
        return ((h * v - 1) * b + v * (1 << h)
                + rows * (max(b, small_bits) + v * b))
    return min(((h, v) for h in range(1, ROW_PLAN_MAX_ENTRIES.bit_length())
                for v in range(1, 5) if v << h <= ROW_PLAN_MAX_ENTRIES),
               key=cost)


def _subset_products(elements: Sequence[int], modulus: int) -> list[int]:
    """``table[S] = prod_{j in S} elements[j]`` for every bit mask ``S``."""
    table = [1]
    for element in elements:
        table += [entry * element % modulus for entry in table]
    return table


class RowPlan:
    """Shared schedule for ``prod_j b_j^{rows[i][j]} * f^{fixed[i]}``.

    Built for FEIP decryption: one plan per key set (``rows[i] = y_i``,
    ``fixed[i] = -sk_i``), evaluated against every column ciphertext
    ``(f, b) = (ct_0, ct_1..ct_eta)`` the keys decrypt.  The plan depends
    on the exponents alone, so all recoding happens once:

    * each full-width ``fixed[i] mod order`` is cut into ``h * v`` pieces
      of ``b`` bits, read through ``v`` tables of ``2^h`` entries -- the
      Lim-Lee comb (CRYPTO '94), its shape from a cost model over
      ``(|order|, rows)``;
    * the small signed exponents are reduced to the balanced form and
      shifted by ``o = max|rows[i][j]|`` into ``[0, 2o]``, so they are
      unsigned and ride the bottom steps of the same squaring chain
      through one ``2^4``-entry table per group of four bases;
      ``prod_j b_j^{-o}`` is one correction per column;
    * for every row and chain step, the table entries it multiplies in.

    :meth:`evaluate` builds the per-column tables and walks one chain of
    ``max(b, |2o|)`` squarings per row.  Results are exact for bases in
    a subgroup whose order divides ``order``.
    """

    def __init__(self, rows: Sequence[Sequence[int]],
                 fixed_exponents: Sequence[int], order: int):
        if order <= 1:
            raise ValueError("order must be > 1")
        if len(fixed_exponents) != len(rows):
            raise ValueError("fixed_exponents must supply one exponent per row")
        rows = [[_balanced(int(e), order) for e in row] for row in rows]
        self.width = len(rows[0]) if rows else 0
        if any(len(row) != self.width for row in rows):
            raise ValueError("rows differ in length")
        self.offset = max((abs(e) for row in rows for e in row), default=0)
        small_bits = (2 * self.offset).bit_length()
        self.blocks, self.tables = _comb_shape(order.bit_length(), len(rows),
                                               small_bits)
        pieces = self.blocks * self.tables
        self.piece_bits = -(-order.bit_length() // pieces)
        self.steps = max(self.piece_bits, small_bits)
        # (table offset, first exponent, mask) per subset table; exponent
        # j of a row is fixed piece j for j < pieces, then the offset
        # small exponents (a short last group reads zero high bits)
        runs = [(k << self.blocks, k * self.blocks, (1 << self.blocks) - 1)
                for k in range(self.tables)]
        if self.offset:
            runs += [((self.tables << self.blocks)
                      + (j // ROW_PLAN_GROUP << ROW_PLAN_GROUP),
                      pieces + j, (1 << ROW_PLAN_GROUP) - 1)
                     for j in range(0, self.width, ROW_PLAN_GROUP)]
        width, steps = pieces * self.piece_bits, self.steps
        # per row, one flat list of table indices: 0 (the identity
        # entry, never read) squares, any other index multiplies
        self._schedule: list[list[int]] = []
        for row, fixed in zip(rows, fixed_exponents):
            # one binary string per exponent, last exponent first, so
            # that read column-wise, bit j of a step's word is exponent
            # j's bit at that chain step (top step first)
            strings = [format(e + self.offset, f"0{steps}b")
                       for e in reversed(row)] if self.offset else []
            fixed = format(int(fixed) % order, f"0{width}b")
            strings += [fixed[k:k + self.piece_bits].zfill(steps)
                        for k in range(0, width, self.piece_bits)]
            words = [int("".join(bits), 2) for bits in zip(*strings)]
            per_run = [[start + m if (m := w >> first & mask) else 0
                        for w in words] for start, first, mask in runs]
            schedule = []
            for step in zip(*per_run):
                schedule.append(0)
                schedule.extend(filter(None, step))
            self._schedule.append(schedule)

    def __len__(self) -> int:
        return len(self._schedule)

    def evaluate(self, bases: Sequence[int], fixed_base: int,
                 modulus: int) -> list[int]:
        """Every row's product against one ``(fixed_base, bases)`` tuple."""
        if not self._schedule:
            return []
        if len(bases) != self.width:
            raise ValueError(
                f"base count {len(bases)} != row length {self.width}")
        power = fixed_base % modulus
        powers = [power]
        for _ in range(self.blocks * self.tables - 1):
            for _ in range(self.piece_bits):
                power = power * power % modulus
            powers.append(power)
        table: list[int] = []
        for k in range(0, len(powers), self.blocks):
            table += _subset_products(powers[k:k + self.blocks], modulus)
        correction = 1
        if self.offset:
            total = 1
            for j in range(0, self.width, ROW_PLAN_GROUP):
                group = _subset_products(
                    [b % modulus for b in bases[j:j + ROW_PLAN_GROUP]],
                    modulus)
                total = total * group[-1] % modulus
                table += group
            correction = mod_inverse(pow(total, self.offset, modulus), modulus)
        results = []
        for schedule in self._schedule:
            acc = 1
            for k in schedule:
                acc = acc * (table[k] if k else acc) % modulus
            results.append(acc * correction % modulus)
        return results
