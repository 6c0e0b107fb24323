"""Unit + property tests for the FEIP inner-product scheme."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fe.errors import CiphertextError, FunctionKeyError
from repro.fe.feip import Feip
from repro.fe.keys import FeipMasterKey, FeipPublicKey
from repro.mathutils.dlog import DiscreteLogError, SolverCache
from repro.mathutils.group import GroupParams

small_ints = st.integers(min_value=-50, max_value=50)


class TestSetup:
    def test_key_lengths(self, feip):
        mpk, msk = feip.setup(4)
        assert mpk.eta == msk.eta == 4
        assert all(feip.group.contains(h) for h in mpk.h)

    def test_rejects_zero_length(self, feip):
        with pytest.raises(ValueError):
            feip.setup(0)

    def test_public_key_matches_master(self, feip):
        mpk, msk = feip.setup(3)
        assert all(feip.group.gexp(s) == h for s, h in zip(msk.s, mpk.h))


class TestCorrectness:
    def test_basic_inner_product(self, feip):
        mpk, msk = feip.setup(3)
        ct = feip.encrypt(mpk, [1, 2, 3])
        key = feip.key_derive(msk, [4, 5, 6])
        assert feip.decrypt(mpk, ct, key, bound=100) == 32

    def test_negative_entries(self, feip):
        mpk, msk = feip.setup(2)
        ct = feip.encrypt(mpk, [-7, 3])
        key = feip.key_derive(msk, [2, -5])
        assert feip.decrypt(mpk, ct, key, bound=100) == -29

    def test_zero_vector(self, feip):
        mpk, msk = feip.setup(2)
        ct = feip.encrypt(mpk, [0, 0])
        key = feip.key_derive(msk, [9, 9])
        assert feip.decrypt(mpk, ct, key, bound=10) == 0

    def test_length_one_vectors(self, feip):
        mpk, msk = feip.setup(1)
        ct = feip.encrypt(mpk, [13])
        key = feip.key_derive(msk, [-3])
        assert feip.decrypt(mpk, ct, key, bound=50) == -39

    @settings(max_examples=40, deadline=None)
    @given(x=st.lists(small_ints, min_size=1, max_size=8),
           data=st.data())
    def test_property_random_vectors(self, params, solver_cache, x, data):
        y = data.draw(st.lists(small_ints, min_size=len(x), max_size=len(x)))
        feip = Feip(params, rng=random.Random(0), solver_cache=solver_cache)
        mpk, msk = feip.setup(len(x))
        ct = feip.encrypt(mpk, x)
        key = feip.key_derive(msk, y)
        expected = sum(a * b for a, b in zip(x, y))
        bound = 50 * 50 * len(x) + 1
        assert feip.decrypt(mpk, ct, key, bound=bound) == expected


class TestFailureModes:
    def test_encrypt_length_mismatch(self, feip):
        mpk, _ = feip.setup(3)
        with pytest.raises(CiphertextError):
            feip.encrypt(mpk, [1, 2])

    def test_key_derive_length_mismatch(self, feip):
        _, msk = feip.setup(3)
        with pytest.raises(FunctionKeyError):
            feip.key_derive(msk, [1, 2, 3, 4])

    def test_decrypt_with_wrong_keypair_raises_dlog_error(self, feip):
        mpk_a, msk_a = feip.setup(2)
        mpk_b, msk_b = feip.setup(2)
        ct = feip.encrypt(mpk_a, [1, 2])
        wrong_key = feip.key_derive(msk_b, [3, 4])
        with pytest.raises(DiscreteLogError):
            feip.decrypt(mpk_a, ct, wrong_key, bound=1000)

    def test_tampered_ciphertext_detected(self, feip):
        mpk, msk = feip.setup(2)
        ct = feip.encrypt(mpk, [1, 2])
        key = feip.key_derive(msk, [3, 4])
        tampered = type(ct)(ct0=ct.ct0,
                            ct=(feip.group.mul(ct.ct[0], feip.group.gexp(99999)),
                                ct.ct[1]))
        with pytest.raises(DiscreteLogError):
            feip.decrypt(mpk, tampered, key, bound=1000)

    def test_result_outside_bound(self, feip):
        mpk, msk = feip.setup(1)
        ct = feip.encrypt(mpk, [100])
        key = feip.key_derive(msk, [100])
        with pytest.raises(DiscreteLogError):
            feip.decrypt(mpk, ct, key, bound=100)  # true value 10000


class TestDecryptRows:
    """Batched column decryption vs the per-row reference path."""

    def _setup(self, feip, rng, eta=5, m=7, magnitude=40):
        mpk, msk = feip.setup(eta)
        x = [rng.randrange(-magnitude, magnitude + 1) for _ in range(eta)]
        ct = feip.encrypt(mpk, x)
        keys = [
            feip.key_derive(
                msk, [rng.randrange(-magnitude, magnitude + 1)
                      for _ in range(eta)])
            for _ in range(m)
        ]
        bound = eta * magnitude * magnitude + 1
        return mpk, ct, keys, bound

    def test_matches_per_row_decrypt(self, feip, rng):
        mpk, ct, keys, bound = self._setup(feip, rng)
        reference = [feip.decrypt(mpk, ct, key, bound) for key in keys]
        assert feip.decrypt_rows(mpk, ct, keys, bound) == reference

    def test_matches_on_larger_group(self, solver_cache):
        import random as random_mod
        feip = Feip(GroupParams.predefined(128), rng=random_mod.Random(3),
                    solver_cache=solver_cache)
        rng = random_mod.Random(4)
        mpk, ct, keys, bound = self._setup(feip, rng, eta=4, m=12)
        reference = [feip.decrypt(mpk, ct, key, bound) for key in keys]
        assert feip.decrypt_rows(mpk, ct, keys, bound) == reference

    def test_single_row_and_empty(self, feip, rng):
        mpk, ct, keys, bound = self._setup(feip, rng, m=1)
        assert feip.decrypt_rows(mpk, ct, keys, bound) == \
            [feip.decrypt(mpk, ct, keys[0], bound)]
        assert feip.decrypt_rows(mpk, ct, [], bound) == []

    def test_out_of_bound_raises(self, feip):
        mpk, msk = feip.setup(1)
        ct = feip.encrypt(mpk, [100])
        keys = [feip.key_derive(msk, [1]), feip.key_derive(msk, [100])]
        with pytest.raises(DiscreteLogError):
            feip.decrypt_rows(mpk, ct, keys, bound=100)  # 10000 overflows

    def test_key_length_mismatch(self, feip):
        mpk, msk = feip.setup(2)
        ct = feip.encrypt(mpk, [1, 2])
        _, msk3 = feip.setup(3)
        bad = feip.key_derive(msk3, [1, 2, 3])
        with pytest.raises(CiphertextError):
            feip.decrypt_rows(mpk, ct, [bad], bound=100)


class TestSemanticBehaviour:
    def test_same_plaintext_fresh_randomness(self, feip):
        mpk, _ = feip.setup(2)
        a = feip.encrypt(mpk, [5, 5])
        b = feip.encrypt(mpk, [5, 5])
        assert a.ct0 != b.ct0
        assert a.ct != b.ct

    def test_key_is_linear_in_y(self, feip):
        """sk_{y1+y2} = sk_{y1} + sk_{y2} (mod q) -- the known FEIP
        malleability that makes authority-side policy necessary."""
        _, msk = feip.setup(2)
        k1 = feip.key_derive(msk, [1, 0])
        k2 = feip.key_derive(msk, [0, 1])
        k12 = feip.key_derive(msk, [1, 1])
        assert (k1.sk + k2.sk) % feip.group.q == k12.sk

    def test_works_on_larger_group(self, solver_cache):
        feip = Feip(GroupParams.predefined(128), rng=random.Random(5),
                    solver_cache=solver_cache)
        mpk, msk = feip.setup(4)
        ct = feip.encrypt(mpk, [10, -20, 30, -40])
        key = feip.key_derive(msk, [1, 2, 3, 4])
        assert feip.decrypt(mpk, ct, key, bound=10_000) == 10 - 40 + 90 - 160


# -- differential properties of the batched kernel ---------------------------

#: encoded first-layer magnitudes at the default config:
#: max_abs_weight * scale and max_abs_feature * scale
W_MAX, X_MAX = 200, 100
DIFF_BOUND = 9 * W_MAX * X_MAX + 1
OUT_OF_BOUND = (1 << 14) - 1  # below one W_MAX * X_MAX term

weights = st.one_of(st.sampled_from([-W_MAX, 0, W_MAX]),
                    st.integers(-W_MAX, W_MAX))


@st.composite
def columns(draw):
    """``(x, rows)``: one plaintext column and the weight rows of its keys,
    across the 4-base table boundary (eta) and the batch sizes in use (m),
    with all-zero rows (every row zero gives a zero offset)."""
    eta = draw(st.sampled_from([1, 3, 4, 5, 8, 9]))
    m = draw(st.sampled_from([1, 2, 8, 32]))
    rows = draw(st.lists(st.lists(weights, min_size=eta, max_size=eta),
                         min_size=m, max_size=m))
    zeros = draw(st.sampled_from(["none", "one", "all"]))
    if zeros == "one":
        rows[draw(st.integers(0, m - 1))] = [0] * eta
    elif zeros == "all":
        rows = [[0] * eta for _ in rows]
    x = draw(st.lists(st.integers(-X_MAX, X_MAX), min_size=eta,
                      max_size=eta))
    return x, rows


_DIFF_SCHEMES: dict[tuple[int, int], tuple] = {}


def _diff_scheme(bits: int, eta: int):
    """FEIP under a master key whose ``s`` sums to 0 mod q, shared by
    examples: any constant weight row then derives ``sk = 0``."""
    if (bits, eta) not in _DIFF_SCHEMES:
        feip = Feip(GroupParams.predefined(bits), rng=random.Random(bits),
                    solver_cache=SolverCache())
        q = feip.group.q
        s = [feip.group.random_exponent() for _ in range(eta - 1)]
        s.append(-sum(s) % q)
        mpk = FeipPublicKey(params=feip.group.params,
                            h=tuple(feip.group.gexp(si) for si in s))
        _DIFF_SCHEMES[bits, eta] = (feip, mpk, FeipMasterKey(s=tuple(s)))
    return _DIFF_SCHEMES[bits, eta]


@pytest.mark.parametrize("bits", [32, 64, 256])
class TestDecryptRowsDifferential:
    """``decrypt_rows`` (one plan, one chain per row) == per-row
    ``decrypt`` == naive ``pow`` == the plaintext inner products."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(column=columns(), constant=st.one_of(st.none(), weights))
    def test_matches_per_row_decrypt_and_pow(self, bits, column, constant):
        x, rows = column
        if constant is not None:
            rows = rows + [[constant] * len(x)]
        feip, mpk, msk = _diff_scheme(bits, len(x))
        p, q = feip.group.p, feip.group.q
        ct = feip.encrypt(mpk, x)
        keys = [feip.key_derive(msk, row) for row in rows]
        if constant is not None:
            assert keys[-1].sk == 0
        naive = [
            math.prod(pow(c, y % q, p) for c, y in zip(ct.ct, key.y))
            * pow(ct.ct0, -key.sk % q, p) % p
            for key in keys
        ]
        assert feip.plan_rows(keys).evaluate(ct.ct, ct.ct0, p) == naive
        reference = [feip.decrypt(mpk, ct, key, DIFF_BOUND) for key in keys]
        assert feip.decrypt_rows(mpk, ct, keys, DIFF_BOUND) == reference
        assert reference == [sum(a * b for a, b in zip(x, row))
                             for row in rows]

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(column=columns(), position=st.integers(0, 32))
    def test_out_of_bound_row_raises(self, bits, column, position):
        x, rows = column
        x[0] = X_MAX
        rows.insert(position % (len(rows) + 1),
                    [W_MAX] + [0] * (len(x) - 1))  # 20000 > OUT_OF_BOUND
        feip, mpk, msk = _diff_scheme(bits, len(x))
        ct = feip.encrypt(mpk, x)
        keys = [feip.key_derive(msk, row) for row in rows]
        with pytest.raises(DiscreteLogError):
            feip.decrypt_rows(mpk, ct, keys, OUT_OF_BOUND)
        with pytest.raises(DiscreteLogError):
            feip.decrypt_rows(mpk, ct, feip.plan_rows(keys), OUT_OF_BOUND)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(column=columns(), position=st.integers(0, 32))
    def test_key_length_mismatch_raises(self, bits, column, position):
        x, rows = column
        feip, mpk, msk = _diff_scheme(bits, len(x))
        _, _, wider = _diff_scheme(bits, len(x) + 1)
        ct = feip.encrypt(mpk, x)
        keys = [feip.key_derive(msk, row) for row in rows]
        stray = feip.key_derive(wider, [1] * (len(x) + 1))
        with pytest.raises(CiphertextError):  # every key too wide
            feip.decrypt_rows(mpk, ct, [stray] * len(keys), DIFF_BOUND)
        keys.insert(position % (len(keys) + 1), stray)
        with pytest.raises(CiphertextError):  # one key too wide
            feip.decrypt_rows(mpk, ct, keys, DIFF_BOUND)
