"""Secure feed-forward and secure back-propagation/evaluation steps.

These classes implement the two insertions Algorithm 2 makes into normal
neural-network training (paper Fig. 1):

* **secure feed-forward** -- the computation between the encrypted input
  and the first hidden layer: :class:`SecureLinearInput` (dot product via
  FEIP, Section III-D) and :class:`SecureConvInput` (secure convolution
  via Algorithm 3, Section III-E1);
* **secure back-propagation / evaluation** -- the computation between the
  last hidden layer and the encrypted label:
  :class:`SecureSoftmaxCrossEntropy` (loss as the inner product
  ``-<y, log p>`` plus gradient ``P - Y`` via element-wise subtraction,
  Section III-E2) and :class:`SecureMSE` (the Section III-D quadratic
  cost).

Gradient of the first layer's weights
-------------------------------------
``dE/dW1 = delta1 . X^T`` needs the encrypted features.  The paper states
every label/input-adjacent computation reduces to the permitted function
set; the element-wise product is the member that applies here.  We request
FEBO multiplication keys for the feature ciphertexts, decrypt the scaled
features once per sample, and combine them with the plaintext deltas.
Features are bounded, so ciphertexts go out in homomorphically packed
pairs (:meth:`repro.fe.febo.Febo.pack`): one key per two features, and
that key follows from the two per-element keys without revealing them.
The recovered integers are checked exactly against the forward pass's
FEIP results.  That rejects an out-of-range feature the packing would
alias, or FEIP and FEBO ciphertexts that disagree, whenever the mismatch
changes the integer forward result under the current encoded weights;
whatever passes reproduces the FEIP forward exactly.
This stays inside F but *is* the direct-inference capability the paper
concedes for authorized decryptors (Section III-B remark); CryptoNN's
framework-level mitigation (random label mapping) protects the labels,
not the features.  See DESIGN.md "Threat model".
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.config import CryptoNNConfig
from repro.core.encdata import (
    DecryptionCounters,
    EncryptedImage,
    EncryptedLabel,
    EncryptedSample,
)
from repro.core.entities import TrustedAuthority
from repro.fe.errors import CiphertextError
from repro.fe.febo import packed_bound, unpack
from repro.nn.activations import log_softmax, softmax
from repro.nn.conv import Conv2D, conv_out_dims, im2col
from repro.nn.layers import Dense
from repro.matrix.parallel import SecureComputePool, resolve_pool
from repro.mathutils.dlog import GLOBAL_SOLVER_CACHE, SolverCache
from repro.mathutils.encoding import FixedPointCodec
from repro.obs.tracing import GLOBAL_TRACER


class _SecureBase:
    """Shared plumbing: codec, solver cache, counters, authority handle.

    ``pool`` is the persistent compute pool shared by a training run;
    when None and ``config.workers`` is set, the process-wide pool for
    that worker count is used, so repeated batches never respawn worker
    processes.
    """

    def __init__(self, authority: TrustedAuthority, config: CryptoNNConfig,
                 counters: DecryptionCounters | None = None,
                 solver_cache: SolverCache | None = None,
                 pool: SecureComputePool | None = None):
        self.authority = authority
        self.config = config
        self.codec = FixedPointCodec(config.scale)
        self.counters = counters or DecryptionCounters()
        self._cache = solver_cache or GLOBAL_SOLVER_CACHE
        self._feip = authority.feip
        self._febo = authority.febo
        self._pool = resolve_pool(pool, config.workers)

    def _solver(self, bound: int):
        return self._cache.get(self._feip.group, bound)

    def _request_feip_keys(self, rows):
        """Key request honoring ``config.batch_key_requests``.

        Batched requests coalesce all rows into one envelope message --
        over the RPC transport this is one round trip instead of many.
        """
        if self.config.batch_key_requests:
            return self.authority.derive_feip_keys_batch(rows)
        return self.authority.derive_feip_keys(rows)

    def _request_febo_keys(self, requests):
        if self.config.batch_key_requests:
            return self.authority.derive_febo_keys_batch(requests)
        return self.authority.derive_febo_keys(requests)


class _FeatureReconstructor(_SecureBase):
    """Recovers scaled features from FEBO ciphertexts for gradient steps.

    A training step reconstructs all of its not-yet-seen samples
    together: one key request (one envelope when
    ``config.batch_key_requests`` is set) and one
    :meth:`~repro.fe.febo.Febo.decrypt_many`.  Consecutive elements are
    packed in pairs (:meth:`~repro.fe.febo.Febo.pack`) so each identity
    key (``*`` by 1, which stays inside F without fixed-point loss)
    decrypts two features; an odd last element is packed with itself.
    The packed solve rejects an out-of-range high digit, and an exact
    comparison against the last training forward pass
    (:meth:`_forward_integers`) rejects an out-of-range low digit, which
    the packing would otherwise alias into its neighbour, whenever the
    aliasing changes the forward integers.  With encoded weights below
    ``B`` in magnitude it misses one only when the encoded weights of
    both features of the pair are all zero.
    Results are cached per sample index when the config allows, because
    every epoch revisits every sample; an index repeated within a step
    is decrypted once.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._feature_cache: dict[int, np.ndarray] = {}
        # encoded first-layer weights and the integer FEIP results (one
        # entry per sample) of the last training forward pass
        self._last_weights: np.ndarray | None = None
        self._last_z: np.ndarray | None = None

    def _decrypt_elements(self, ciphertexts: Sequence,
                          bound: int) -> list[int]:
        febo = self._febo
        n = len(ciphertexts)
        # an odd last element pairs with itself: it decrypts to x * (B + 1),
        # inside the packed bound exactly when |x| <= bound
        packed = [febo.pack(ciphertexts[k], ciphertexts[min(k + 1, n - 1)],
                            bound)
                  for k in range(0, n, 2)]
        requests = [(ct.cmt, "*", 1) for ct in packed]
        with GLOBAL_TRACER.span("key-fetch", keys=len(requests)):
            keys = self._request_febo_keys(requests)
        self.counters.febo_keys_requested += len(keys)
        bpk = self.authority.febo_public_key()
        wide = packed_bound(bound)
        solver = self._cache.get(febo.group, wide)
        values: list[int] = []
        with GLOBAL_TRACER.span("decrypt-dlog", n=n):
            for value in febo.decrypt_many(
                    bpk, list(zip(keys, packed)), wide, solver=solver):
                values.extend(unpack(value, bound))
        del values[n:]
        self.counters.febo_decrypts += n
        return values

    def _forward_integers(self, features: np.ndarray) -> np.ndarray:
        """The integer forward results of ``features`` (encoded samples)
        under ``_last_weights``, laid out like the rows of ``_last_z``."""
        raise NotImplementedError

    def reconstruct_many(self, indices: Sequence[int],
                         ciphertexts: Sequence[Sequence],
                         shape: tuple[int, ...]) -> np.ndarray:
        """Stacked scaled-feature arrays, one per sample, cached by index.

        ``ciphertexts[k]`` holds the FEBO ciphertexts of the sample at
        dataset index ``indices[k]`` -- position ``k`` of the last
        forward batch; every sample has ``shape``.
        """
        known = (self._feature_cache
                 if self.config.cache_reconstructed_features else {})
        unseen: dict[int, int] = {}  # dataset index -> batch position
        for position, index in enumerate(indices):
            if index not in known:
                unseen.setdefault(index, position)
        if unseen:
            bound = int(self.config.max_abs_feature * self.config.scale) + 1
            values = self._decrypt_elements(
                [ct for position in unseen.values()
                 for ct in ciphertexts[position]],
                bound)
            block = np.array(values, dtype=np.int64).reshape(
                len(unseen), *shape)
            if not np.array_equal(self._forward_integers(block),
                                  self._last_z[list(unseen.values())]):
                raise CiphertextError(
                    "reconstructed features disagree with the forward "
                    "pass: a feature is out of range or its FEIP and "
                    "FEBO ciphertexts differ")
            known.update(zip(unseen, block / self.config.scale))
        return np.stack([known[index] for index in indices])

    def clear_cache(self) -> None:
        self._feature_cache.clear()


class SecureLinearInput(_FeatureReconstructor):
    """Secure feed-forward + gradient for a first :class:`Dense` layer.

    Forward computes ``Z1 = X @ W + b`` where ``X`` is encrypted: one FEIP
    key per hidden unit (a column of ``W``), one decrypt per (sample,
    unit) pair -- the transfer ``a = g(skf(W) . enc(X) + b)`` of Section
    III-A.
    """

    def __init__(self, dense: Dense, authority: TrustedAuthority,
                 config: CryptoNNConfig,
                 counters: DecryptionCounters | None = None,
                 solver_cache: SolverCache | None = None,
                 pool: SecureComputePool | None = None):
        super().__init__(authority, config, counters, solver_cache, pool)
        self.dense = dense
        self._last_batch: Sequence[EncryptedSample] | None = None
        self._last_indices: Sequence[int] | None = None

    def _encoded_weight_rows(self) -> list[list[int]]:
        """Columns of W, clipped and fixed-point encoded (one per unit)."""
        w = np.clip(self.dense.params["W"], -self.config.max_abs_weight,
                    self.config.max_abs_weight)
        return [
            [self.codec.encode(v) for v in w[:, unit]]
            for unit in range(w.shape[1])
        ]

    def forward(self, batch: Sequence[EncryptedSample],
                indices: Sequence[int] | None = None,
                training: bool = True) -> np.ndarray:
        """Return pre-activations ``Z1`` of shape (N, hidden)."""
        rows = self._encoded_weight_rows()
        with GLOBAL_TRACER.span("key-fetch", keys=len(rows)):
            keys = self._request_feip_keys(rows)
        self.counters.feip_keys_requested += len(keys)
        eta = self.dense.in_features
        mpk = self.authority.feip_public_key(eta)
        bound = self.config.dot_bound(eta)
        if self._pool is not None and batch:
            # one pooled dispatch decrypts the whole (sample, unit) grid
            with GLOBAL_TRACER.span("pool-dispatch",
                                    n=len(batch) * len(keys)):
                flat = self._pool.secure_dot(
                    self.authority.params, mpk,
                    [sample.features_ip for sample in batch], keys, bound,
                )
            self.counters.feip_decrypts += len(batch) * len(keys)
            z_int = flat.T
        else:
            # batched per sample: the step's keys are recoded into one
            # plan, and each sample's ciphertext gets one set of tables
            # that every hidden unit reads
            solver = self._solver(bound)
            z_int = np.empty((len(batch), len(keys)), dtype=object)
            with GLOBAL_TRACER.span("decrypt-dlog",
                                    n=len(batch) * len(keys)):
                plan = self._feip.plan_rows(keys)
                for n, sample in enumerate(batch):
                    z_int[n] = self._feip.decrypt_rows(
                        mpk, sample.features_ip, plan, bound, solver=solver)
                    self.counters.feip_decrypts += len(keys)
        z = self.codec.decode_array(z_int, power=2)
        z += self.dense.params["b"]
        if training:
            self._last_batch = batch
            self._last_indices = list(indices) if indices is not None \
                else list(range(len(batch)))
            self._last_weights = np.array(rows, dtype=np.int64).T
            self._last_z = z_int
        return z

    def _forward_integers(self, features: np.ndarray) -> np.ndarray:
        return features @ self._last_weights

    def backward(self, grad_z: np.ndarray) -> None:
        """Fill the wrapped layer's W/b gradients from ``dL/dZ1``."""
        if self._last_batch is None or self._last_indices is None:
            raise RuntimeError("backward called before forward")
        batch = self._last_batch
        x = self.reconstruct_many(
            self._last_indices, [sample.features_bo for sample in batch],
            (batch[0].n_features,))
        self.dense.grads["W"] = x.T @ grad_z
        self.dense.grads["b"] = grad_z.sum(axis=0)


class SecureConvInput(_FeatureReconstructor):
    """Secure feed-forward + gradient for a first :class:`Conv2D` layer.

    Forward is Algorithm 3: one FEIP key per filter, one decrypt per
    (window, filter) pair.  Backward reconstructs the scaled image via
    FEBO (cached) and reuses the plaintext im2col gradient math.
    """

    def __init__(self, conv: Conv2D, authority: TrustedAuthority,
                 config: CryptoNNConfig,
                 counters: DecryptionCounters | None = None,
                 solver_cache: SolverCache | None = None,
                 pool: SecureComputePool | None = None):
        super().__init__(authority, config, counters, solver_cache, pool)
        self.conv = conv
        self._last_batch: Sequence[EncryptedImage] | None = None
        self._last_indices: Sequence[int] | None = None

    def _encoded_filter_rows(self) -> list[list[int]]:
        w = np.clip(self.conv.params["W"], -self.config.max_abs_weight,
                    self.config.max_abs_weight)
        return [
            [self.codec.encode(v) for v in w[f].ravel()]
            for f in range(w.shape[0])
        ]

    def forward(self, batch: Sequence[EncryptedImage],
                indices: Sequence[int] | None = None,
                training: bool = True) -> np.ndarray:
        """Return pre-activations of shape (N, F, out_h, out_w)."""
        rows = self._encoded_filter_rows()
        with GLOBAL_TRACER.span("key-fetch", keys=len(rows)):
            keys = self._request_feip_keys(rows)
        self.counters.feip_keys_requested += len(keys)
        window_length = (self.conv.in_channels
                         * self.conv.filter_size * self.conv.filter_size)
        mpk = self.authority.feip_public_key(window_length)
        bound = self.config.dot_bound(window_length)
        if self._pool is not None and batch:
            z_int = self._forward_parallel(batch, keys, mpk, bound)
        else:
            z_int = self._forward_serial(batch, keys, mpk, bound)
        out = self.codec.decode_array(z_int, power=2)
        out += self.conv.params["b"][np.newaxis, :, np.newaxis, np.newaxis]
        if training:
            self._last_batch = batch
            self._last_indices = list(indices) if indices is not None \
                else list(range(len(batch)))
            self._last_weights = np.array(rows, dtype=np.int64)
            self._last_z = z_int
        return out

    def _forward_serial(self, batch, keys, mpk, bound) -> np.ndarray:
        solver = self._solver(bound)
        outputs = []
        with GLOBAL_TRACER.span("decrypt-dlog", n=sum(
                len(image.windows) for image in batch) * len(keys)):
            plan = self._feip.plan_rows(keys)
            for image in batch:
                out_h, out_w = image.windows.out_shape
                z = np.empty((len(keys), out_h, out_w), dtype=object)
                for pos, window_ct in enumerate(image.windows.windows):
                    # whole filter bank against one window ciphertext:
                    # every filter reads the window's tables
                    z[:, pos // out_w, pos % out_w] = self._feip.decrypt_rows(
                        mpk, window_ct, plan, bound, solver=solver)
                    self.counters.feip_decrypts += len(keys)
                outputs.append(z)
        return np.stack(outputs)

    def _forward_parallel(self, batch, keys, mpk, bound) -> np.ndarray:
        """Batch-wide pooled decryption (paper's 'P' curves).

        All windows of all images go through the persistent worker pool,
        so executor startup is paid once per training run rather than
        per batch (let alone per image).
        """
        out_h, out_w = batch[0].windows.out_shape
        all_windows = [w for image in batch for w in image.windows.windows]
        with GLOBAL_TRACER.span("pool-dispatch",
                                n=len(all_windows) * len(keys)):
            flat = self._pool.secure_convolve(
                self.authority.params, mpk, all_windows,
                (len(batch) * out_h, out_w), keys, bound,
            )
        self.counters.feip_decrypts += len(all_windows) * len(keys)
        return flat.reshape(len(keys), len(batch), out_h, out_w).transpose(
            1, 0, 2, 3)

    def _forward_integers(self, images: np.ndarray) -> np.ndarray:
        cols, (out_h, out_w) = im2col(images, self.conv.filter_size,
                                      self.conv.stride, self.conv.padding)
        return (cols @ self._last_weights.T).reshape(
            len(images), out_h, out_w, -1).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> None:
        """Fill the wrapped conv layer's W/b gradients from dL/dZ."""
        if self._last_batch is None or self._last_indices is None:
            raise RuntimeError("backward called before forward")
        batch = self._last_batch
        images = self.reconstruct_many(
            self._last_indices, [image.pixels_bo.ravel() for image in batch],
            batch[0].image_shape)
        cols, _ = im2col(images, self.conv.filter_size, self.conv.stride,
                         self.conv.padding)
        grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(
            -1, self.conv.out_channels
        )
        self.conv.grads["W"] = (grad_flat.T @ cols).reshape(
            self.conv.params["W"].shape
        )
        self.conv.grads["b"] = grad_flat.sum(axis=0)


def _decrypt_label_subtractions(layer: _SecureBase, values: np.ndarray,
                                labels: Sequence[EncryptedLabel]
                                ) -> np.ndarray:
    """Decrypt ``Y - values`` element-wise against encrypted one-hot labels.

    Shared by both secure losses (cross-entropy gradient ``P - Y`` and
    the MSE residuals).  Keys are derived in one batched request and the
    grid is decrypted serially by one :meth:`~repro.fe.febo.Febo
    .decrypt_many`: with the inversion shared, a cell costs a few
    microseconds, less than shipping it to a pool worker.
    """
    n, num_classes = values.shape
    bpk = layer.authority.febo_public_key()
    bound = layer.config.label_sub_bound()
    cells = [labels[i].onehot_bo[c]
             for i in range(n) for c in range(num_classes)]
    requests = [
        (ct.cmt, "-", layer.codec.encode(v))
        for ct, v in zip(cells, values.ravel())
    ]
    with GLOBAL_TRACER.span("key-fetch", keys=len(requests)):
        keys = layer._request_febo_keys(requests)
    layer.counters.febo_keys_requested += len(keys)
    layer.counters.febo_decrypts += len(keys)
    solver = layer._cache.get(layer._febo.group, bound)
    with GLOBAL_TRACER.span("decrypt-dlog", n=len(keys)):
        decrypted = layer._febo.decrypt_many(
            bpk, list(zip(keys, cells)), bound, solver=solver)
    return layer.codec.decode_array(
        np.array(decrypted, dtype=object).reshape(n, num_classes))


class SecureSoftmaxCrossEntropy(_SecureBase):
    """Secure evaluation at the output layer (paper Section III-E2).

    * loss: ``L = -<y, log p>`` -- one FEIP decrypt per sample against a
      key derived for the (encoded) log-probability vector;
    * gradient: ``dL/dA = P - Y`` -- one FEBO subtraction decrypt per
      (sample, class), negated, divided by N in plaintext.
    """

    def __init__(self, authority: TrustedAuthority, config: CryptoNNConfig,
                 counters: DecryptionCounters | None = None,
                 solver_cache: SolverCache | None = None,
                 pool: SecureComputePool | None = None):
        super().__init__(authority, config, counters, solver_cache, pool)
        self._probs: np.ndarray | None = None
        # log p is clamped so its fixed-point encoding stays within the
        # loss dlog bound (p ~ 0 would otherwise explode the search window)
        self.min_log_prob = -30.0

    def forward(self, logits: np.ndarray,
                labels: Sequence[EncryptedLabel]) -> float:
        if logits.shape[0] != len(labels):
            raise ValueError("batch size mismatch between logits and labels")
        num_classes = logits.shape[1]
        probs = softmax(logits, axis=1)
        log_p = np.maximum(log_softmax(logits, axis=1), self.min_log_prob)
        mpk = self.authority.feip_public_key(num_classes)
        bound = self.config.loss_bound(-self.min_log_prob + 1.0)
        solver = self._solver(bound)
        encoded_rows = [[self.codec.encode(v) for v in log_p[n]]
                        for n in range(logits.shape[0])]
        with GLOBAL_TRACER.span("key-fetch", keys=len(encoded_rows)):
            if self.config.batch_key_requests:
                # all per-sample log-p keys in one envelope (one round
                # trip)
                keys = self._request_feip_keys(encoded_rows)
            else:
                # one request per sample, matching the unbatched
                # accounting
                keys = [self.authority.derive_feip_keys([row])[0]
                        for row in encoded_rows]
        self.counters.feip_keys_requested += len(keys)
        # bases differ per sample (each label has its own ciphertext), so
        # only the bounded dlogs batch: one shared giant-step walk
        with GLOBAL_TRACER.span("decrypt-dlog", n=len(keys)):
            elements = [self._feip.decrypt_raw(mpk, label.onehot_ip, key)
                        for label, key in zip(labels, keys)]
            self.counters.feip_decrypts += len(elements)
            total = -sum(self.codec.decode(v, power=2)
                         for v in solver.solve_many(elements))
        self._probs = probs
        return total / logits.shape[0]

    def backward(self, labels: Sequence[EncryptedLabel]) -> np.ndarray:
        """Return ``(P - Y) / N`` recovered through FEBO subtractions."""
        if self._probs is None:
            raise RuntimeError("backward called before forward")
        probs = self._probs
        n = probs.shape[0]
        y_minus_p = _decrypt_label_subtractions(self, probs, labels)
        return -y_minus_p / n

    @property
    def probabilities(self) -> np.ndarray:
        if self._probs is None:
            raise RuntimeError("no forward pass yet")
        return self._probs


class SecureMSE(_SecureBase):
    """Secure quadratic cost (paper Section III-D).

    The server recovers the residuals ``Yhat - Y`` through FEBO
    subtraction -- exactly the "compute Yhat - Y first" step of the
    paper's walkthrough -- then forms both the loss and the gradient from
    them in plaintext.
    """

    def __init__(self, authority: TrustedAuthority, config: CryptoNNConfig,
                 counters: DecryptionCounters | None = None,
                 solver_cache: SolverCache | None = None,
                 pool: SecureComputePool | None = None):
        super().__init__(authority, config, counters, solver_cache, pool)
        self._residuals: np.ndarray | None = None

    def forward(self, predictions: np.ndarray,
                labels: Sequence[EncryptedLabel]) -> float:
        if predictions.shape[0] != len(labels):
            raise ValueError("batch size mismatch")
        n = predictions.shape[0]
        residuals = -_decrypt_label_subtractions(self, predictions, labels)
        self._residuals = residuals  # yhat - y
        return float(0.5 * np.sum(residuals ** 2) / n)

    def backward(self, labels: Sequence[EncryptedLabel]) -> np.ndarray:
        if self._residuals is None:
            raise RuntimeError("backward called before forward")
        return self._residuals / self._residuals.shape[0]
