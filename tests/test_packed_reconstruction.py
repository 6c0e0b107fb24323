"""Packed FEBO feature reconstruction against the per-element reference.

The feature reconstructor folds each pair of feature ciphertexts into one
(``Febo.pack``) and decrypts both features with a single identity key.
These tests pin that it recovers exactly what per-element
``Febo.decrypt`` does across the whole feature range, and that a
plaintext outside that range, or a tampered ciphertext, still fails the
backward pass instead of decoding to a wrong feature.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CryptoNNConfig
from repro.core.encdata import EncryptedImage, EncryptedSample
from repro.core.entities import TrustedAuthority
from repro.core.secure_layers import SecureConvInput, SecureLinearInput
from repro.fe.errors import CiphertextError
from repro.fe.febo import Febo, packed_bound, unpack
from repro.fe.keys import FeboCiphertext
from repro.matrix.secure_conv import SecureConvolution
from repro.mathutils.dlog import DiscreteLogError, SolverCache
from repro.mathutils.group import (
    PAPER_SECURITY_BITS,
    TOY_SECURITY_BITS,
    GroupParams,
)
from repro.nn.conv import Conv2D
from repro.nn.layers import Dense

#: per-element dlog bound of a scaled feature at the default config
#: (``max_abs_feature * scale + 1``): the packing digit bound ``b``
DIGIT_BOUND = 101

_AUTHORITIES: dict[int, TrustedAuthority] = {}


def _authority(bits: int) -> TrustedAuthority:
    """One authority per group size, shared by hypothesis examples."""
    if bits not in _AUTHORITIES:
        _AUTHORITIES[bits] = TrustedAuthority(
            CryptoNNConfig(security_bits=bits), rng=random.Random(bits))
    return _AUTHORITIES[bits]


def _sample(authority, feip_values, febo_values=None) -> EncryptedSample:
    """A tabular sample encrypted directly, bypassing the client's range
    check, so out-of-range and FEIP/FEBO-inconsistent samples exist."""
    febo_values = feip_values if febo_values is None else febo_values
    mpk = authority.feip_public_key(len(feip_values))
    bpk = authority.febo_public_key()
    return EncryptedSample(
        features_ip=authority.feip.encrypt(mpk, list(feip_values)),
        features_bo=tuple(authority.febo.encrypt(bpk, v)
                          for v in febo_values),
    )


def _dense_layer(authority, n_features) -> SecureLinearInput:
    dense = Dense(n_features, 2, rng=np.random.default_rng(n_features))
    return SecureLinearInput(dense, authority, authority.config)


def _per_element(authority, sample) -> list[int]:
    """The reference: one identity key and one ``Febo.decrypt`` each."""
    bpk = authority.febo_public_key()
    keys = authority.derive_febo_keys(
        [(ct.cmt, "*", 1) for ct in sample.features_bo])
    return [authority.febo.decrypt(bpk, key, ct, DIGIT_BOUND)
            for key, ct in zip(keys, sample.features_bo)]


features = st.integers(min_value=-DIGIT_BOUND, max_value=DIGIT_BOUND)


@st.composite
def steps(draw):
    """Samples of one width plus a step over them with repeated indices."""
    n_features = draw(st.integers(1, 5))
    samples = draw(st.lists(
        st.lists(features, min_size=n_features, max_size=n_features),
        min_size=1, max_size=4))
    step = draw(st.lists(st.integers(0, len(samples) - 1),
                         min_size=1, max_size=6))
    return samples, step


@pytest.mark.parametrize("bits", [TOY_SECURITY_BITS, PAPER_SECURITY_BITS])
class TestPackedMatchesPerElement:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(drawn=steps())
    def test_reconstruction_equals_per_element_decrypt(self, bits, drawn):
        authority = _authority(bits)
        values, step = drawn
        samples = [_sample(authority, v) for v in values]
        batch = [samples[i] for i in step]
        secure = _dense_layer(authority, len(values[0]))
        secure.forward(batch, step)
        got = secure.reconstruct_many(
            step, [s.features_bo for s in batch], (len(values[0]),))
        scale = authority.config.scale
        expected = [[v / scale for v in _per_element(authority, samples[i])]
                    for i in step]
        assert got.tolist() == expected
        assert expected == [[v / scale for v in values[i]] for i in step]

    def test_both_range_edges_in_every_digit(self, bits):
        authority = _authority(bits)
        # pairs (-b, b), (b, -b), (-b, -b), (b, b) and an unpaired -b
        values = [-DIGIT_BOUND, DIGIT_BOUND, DIGIT_BOUND, -DIGIT_BOUND,
                  -DIGIT_BOUND, -DIGIT_BOUND, DIGIT_BOUND, DIGIT_BOUND,
                  -DIGIT_BOUND]
        sample = _sample(authority, values)
        secure = _dense_layer(authority, len(values))
        secure.forward([sample], [0])
        got = secure.reconstruct_many([0], [sample.features_bo],
                                      (len(values),))
        assert _per_element(authority, sample) == values
        assert got[0].tolist() == [v / authority.config.scale
                                   for v in values]

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(drawn=steps(), position=st.integers(0, 40))
    def test_swapped_subgroup_element_raises(self, bits, drawn, position):
        authority = _authority(bits)
        values, step = drawn
        samples = [_sample(authority, v) for v in values]
        batch = [samples[i] for i in step]
        secure = _dense_layer(authority, len(values[0]))
        secure.forward(batch, step)
        flat = [list(s.features_bo) for s in batch]
        # a repeated index is decrypted at its first position only
        row = step.index(step[position % len(step)])
        column = position % len(flat[row])
        ct = flat[row][column]
        flat[row][column] = FeboCiphertext(
            cmt=ct.cmt, ct=authority.febo.group.random_element())
        with pytest.raises(DiscreteLogError):
            secure.reconstruct_many(step, flat, (len(values[0]),))


class TestPackHelpers:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(low=features, high=features)
    def test_unpack_inverts_the_packed_plaintext(self, low, high):
        value = low + (2 * DIGIT_BOUND + 1) * high
        assert abs(value) <= packed_bound(DIGIT_BOUND)
        assert unpack(value, DIGIT_BOUND) == (low, high)

    def test_pack_decrypts_with_one_identity_key(self):
        febo = Febo(GroupParams.predefined(TOY_SECURITY_BITS),
                    rng=random.Random(3), solver_cache=SolverCache())
        mpk, msk = febo.setup()
        packed = febo.pack(febo.encrypt(mpk, -7), febo.encrypt(mpk, 101),
                           DIGIT_BOUND)
        key = febo.key_derive(msk, packed.cmt, "*", 1)
        value = febo.decrypt(mpk, key, packed, packed_bound(DIGIT_BOUND))
        assert unpack(value, DIGIT_BOUND) == (-7, 101)


class TestOutOfRangeStillRaises:
    """A feature of 150 (beyond ``b`` = 101) in either packing digit."""

    @pytest.fixture()
    def authority(self):
        return TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))

    @pytest.mark.parametrize("values, error", [
        ([150, 10], CiphertextError),   # low digit: aliases, caught by check
        ([10, 150], DiscreteLogError),  # high digit: beyond the packed bound
        ([10, 20, 150], DiscreteLogError),  # unpaired: packed with itself
    ])
    def test_dense(self, authority, values, error):
        sample = _sample(authority, values)
        secure = _dense_layer(authority, len(values))
        secure.forward([sample], [0])
        with pytest.raises(error):
            secure.backward(np.ones((1, 2)))

    def test_dense_feip_febo_disagreement(self, authority):
        sample = _sample(authority, [10, 20, 30, 40], [10, 21, 30, 40])
        secure = _dense_layer(authority, 4)
        secure.forward([sample], [0])
        with pytest.raises(CiphertextError):
            secure.backward(np.ones((1, 2)))

    @pytest.mark.parametrize("pixel, error", [
        (4, CiphertextError),   # flat position 4 pairs as the low digit
        (5, DiscreteLogError),  # flat position 5 is the high digit
    ])
    def test_conv(self, authority, pixel, error):
        pixels = np.arange(9, dtype=object).reshape(1, 3, 3) * 10
        pixels.ravel()[pixel] = 150
        mpk = authority.feip_public_key(4)
        bpk = authority.febo_public_key()
        conv_scheme = SecureConvolution(authority.feip, mpk)
        image = EncryptedImage(
            windows=conv_scheme.pre_process_encryption(pixels, 2, 1, 0),
            pixels_bo=np.array(
                [authority.febo.encrypt(bpk, int(v)) for v in pixels.ravel()],
                dtype=object).reshape(1, 3, 3),
            image_shape=(1, 3, 3),
        )
        conv = Conv2D(1, 2, filter_size=2, stride=1, padding=0,
                      rng=np.random.default_rng(5))
        secure = SecureConvInput(conv, authority, authority.config)
        out = secure.forward([image], [0])
        with pytest.raises(error):
            secure.backward(np.ones_like(out))
