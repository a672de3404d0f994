"""Log-bilinear lexeme translator between two embedding spaces.

The score of a candidate pair is e(target)^T Omega e(source); the
conditional distribution over target words is a softmax of these scores
over the first ``normalizer_vocab_size`` rows of the target space.
Training maximizes seed-pair log-likelihood with a Frobenius penalty
pulling Omega toward the orthogonal manifold, optimized by Adam; the
learning rate halves after every epoch whose development loss went up,
and training stops once it falls below the configured minimum, or at
once on a non-finite development loss.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace
from .textio import read_float_rows, sidecar_path, write_float_rows, write_json

logger = logging.getLogger(__name__)

MODEL_MAGIC = "MORPHLEX-OMEGA"
MODEL_VERSION = "v1"

_PENALTY_NORM_FLOOR = 1e-12

# Least bytes of one block of target scores in ``retrieve``; a block may
# take a sixteenth of the target matrix instead when that is larger. The
# budget over the vocabulary size gives the block's rows (at least one), so
# memory stays flat however many queries arrive: with its second, cosine
# array of the same size, a block adds at most twice this floor or an
# eighth of the target matrix. The floor keeps small spaces' blocks
# cache-sized; the share gives a 16k x 300 space blocks of 18 rows instead
# of 1, and each block streams the target matrix once for all its rows.
SCORE_BLOCK_BYTES = 1 << 16


class ModelFormatError(ValueError):
    """A model file violates the text format."""


class NoTrainablePairsError(ValueError):
    """Every seed pair was dropped as unresolvable."""


@dataclass
class TranslationModel:
    """The mapping matrix plus the size of its softmax support."""

    omega: np.ndarray
    normalizer_vocab_size: int

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega, dtype=np.float64)
        if omega.ndim != 2:
            raise ValueError("omega must be a matrix")
        if not np.all(np.isfinite(omega)):
            raise ValueError("omega entries must be finite")
        if self.normalizer_vocab_size <= 0:
            raise ValueError("normalizer_vocab_size must be positive")
        self.omega = omega

    @property
    def target_dim(self) -> int:
        return int(self.omega.shape[0])

    @property
    def source_dim(self) -> int:
        return int(self.omega.shape[1])


@dataclass
class TrainConfig:
    alpha: float = 10.0
    learning_rate: float = 0.05
    min_learning_rate: float = 1e-8
    batch_size: int = 24
    max_epochs: int = 50
    dev_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and non-negative")
        if not (0 < self.learning_rate < math.inf and 0 < self.min_learning_rate < math.inf):
            raise ValueError("learning rates must be finite and positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        if not 0.0 < self.dev_fraction < 1.0:
            raise ValueError("dev_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class AdamState:
    """First/second-moment accumulators for one parameter matrix."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    # Adam's decay rates and denominator fuzz: class constants, not fields.
    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-8

    @classmethod
    def for_shape(cls, shape: tuple[int, ...]) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape))

    def update(self, param: np.ndarray, grad: np.ndarray, learning_rate: float) -> np.ndarray:
        """One bias-corrected Adam step; returns the updated parameter."""
        self.step += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1 ** self.step)
        v_hat = self.v / (1.0 - self.beta2 ** self.step)
        return param - learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def bilinear_score(model: TranslationModel, target_vec: np.ndarray, source_vec: np.ndarray) -> float:
    """The exponent of the translator: target^T Omega source."""
    target = np.asarray(target_vec, dtype=np.float64)
    source = np.asarray(source_vec, dtype=np.float64)
    if target.shape != (model.target_dim,):
        raise ValueError(f"target vector has shape {target.shape}, expected ({model.target_dim},)")
    if source.shape != (model.source_dim,):
        raise ValueError(f"source vector has shape {source.shape}, expected ({model.source_dim},)")
    return float(target @ model.omega @ source)


def log_softmax(scores: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax (max-subtracted)."""
    shifted = scores - np.max(scores)
    return shifted - np.log(np.sum(np.exp(shifted)))


def log_prob(
    model: TranslationModel,
    target_space: EmbeddingSpace,
    target_word: str,
    source_vec: np.ndarray,
) -> float:
    """log p(target_word | source) under the softmax normalizer."""
    index = target_space.index(target_word)
    size = model.normalizer_vocab_size
    if size > len(target_space):
        raise ValueError("normalizer support exceeds the target space")
    if index >= size:
        raise ValueError(f"{target_word!r} lies outside the normalizer support")
    source = np.asarray(source_vec, dtype=np.float64)
    scores = target_space.vectors[:size] @ (model.omega @ source)
    return float(log_softmax(scores)[index])


def orth_penalty(model: TranslationModel, alpha: float) -> float:
    """alpha times the Frobenius distance of Omega^T Omega from identity."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    gram_minus_i = model.omega.T @ model.omega - np.eye(model.source_dim)
    return float(alpha * np.linalg.norm(gram_minus_i, "fro"))


def _loss_and_grad_indexed(
    omega: np.ndarray,
    source_vecs: np.ndarray,
    target_indices: np.ndarray,
    normalizer_rows: np.ndarray,
    alpha: float,
    alpha_batch_size: int,
    want_grad: bool = True,
) -> tuple[float, np.ndarray | None]:
    batch = source_vecs.shape[0]
    projected = source_vecs @ omega.T                    # (B, N_t)
    scores = projected @ normalizer_rows.T               # (B, support)
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted[np.arange(batch), target_indices] - log_z
    loss = -float(log_probs.mean())
    grad = None
    if want_grad:
        probs = np.exp(shifted - log_z[:, None])
        expected = probs @ normalizer_rows               # (B, N_t)
        residual = expected - normalizer_rows[target_indices]
        grad = residual.T @ source_vecs / batch
    if alpha > 0.0:
        gram_minus_i = omega.T @ omega - np.eye(omega.shape[1])
        norm = float(np.linalg.norm(gram_minus_i, "fro"))
        loss += alpha / alpha_batch_size * norm
        if want_grad and norm >= _PENALTY_NORM_FLOOR:
            grad = grad + (alpha / alpha_batch_size) * 2.0 * (omega @ gram_minus_i) / norm
    return loss, grad


def loss_and_gradient(
    model: TranslationModel,
    batch: list[tuple[str, str]],
    source_space: EmbeddingSpace,
    target_space: EmbeddingSpace,
    config: TrainConfig,
) -> tuple[float, np.ndarray]:
    """Mean NLL of the batch plus the scaled orthogonality penalty,
    with the exact analytic gradient with respect to omega.

    The penalty weight is ``alpha / config.batch_size`` regardless of the
    actual batch length, keeping its strength fixed relative to the
    per-observation averaged likelihood term.
    """
    if not batch:
        raise ValueError("empty batch")
    size = model.normalizer_vocab_size
    source_rows = []
    target_indices = []
    for source_word, target_word in batch:
        source_rows.append(source_space.vectors[source_space.index(source_word)])
        index = target_space.index(target_word)
        if index >= size:
            raise ValueError(f"{target_word!r} lies outside the normalizer support")
        target_indices.append(index)
    loss, grad = _loss_and_grad_indexed(
        model.omega,
        np.vstack(source_rows),
        np.asarray(target_indices),
        target_space.vectors[:size],
        config.alpha,
        config.batch_size,
    )
    return loss, grad


@dataclass
class TrainResult:
    """Outcome of ``train``: the selected model plus run statistics.

    ``dev_losses[0]`` is the development loss of the initial parameters;
    index i is the loss after epoch i. The model is the snapshot with the
    lowest recorded development loss (possibly the initialization).
    """

    model: TranslationModel
    dev_losses: list[float]
    best_epoch: int
    epochs_run: int
    dropped_pairs: int

    @property
    def best_dev_loss(self) -> float:
        return self.dev_losses[self.best_epoch]


def train(
    seed_dict: list[tuple[str, str]],
    source_space: EmbeddingSpace,
    target_space: EmbeddingSpace,
    config: TrainConfig,
) -> TrainResult:
    """Fit omega on seed pairs with Adam, lr halving and early stopping.

    A non-finite development loss ends the run with a warning; the model
    is then the best snapshot before it.

    Pairs whose words are missing from the spaces (or whose target lies
    outside the normalizer support) are dropped and counted. Runs with
    equal seeds and inputs are bit-identical.
    """
    if not seed_dict:
        raise NoTrainablePairsError("empty seed dictionary")
    support = target_space.n_file_loaded
    if support == 0:
        raise NoTrainablePairsError("target space has no file-loaded rows")
    pairs: list[tuple[int, int]] = []
    dropped = 0
    for source_word, target_word in seed_dict:
        si = source_space.index_or_none(source_word)
        ti = target_space.index_or_none(target_word)
        if si is None or ti is None or ti >= support:
            dropped += 1
            continue
        pairs.append((si, ti))
    if not pairs:
        raise NoTrainablePairsError("no seed pair is resolvable in the embedding spaces")
    if dropped:
        logger.info("train: dropped %d unresolvable seed pairs", dropped)

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(pairs))
    n_dev = int(round(len(pairs) * config.dev_fraction))
    n_dev = min(max(n_dev, 1), len(pairs) - 1) if len(pairs) > 1 else 0
    dev_pairs = [pairs[i] for i in order[:n_dev]]
    train_pairs = [pairs[i] for i in order[n_dev:]]
    if not dev_pairs:
        dev_pairs = train_pairs  # single-pair dictionary: schedule on the training loss

    n_t, n_s = target_space.dim, source_space.dim
    omega = np.eye(n_t) if n_t == n_s else rng.uniform(-0.01, 0.01, size=(n_t, n_s))

    normalizer_rows = target_space.vectors[:support]
    dev_sources = source_space.vectors[[si for si, _ in dev_pairs]]
    dev_targets = np.asarray([ti for _, ti in dev_pairs])
    train_sources = np.asarray([si for si, _ in train_pairs])
    train_targets = np.asarray([ti for _, ti in train_pairs])

    def dev_loss(matrix: np.ndarray) -> float:
        loss, _ = _loss_and_grad_indexed(
            matrix, dev_sources, dev_targets, normalizer_rows,
            config.alpha, config.batch_size, want_grad=False,
        )
        return loss

    losses = [dev_loss(omega)]
    best_epoch = 0
    best_omega = omega.copy()
    adam = AdamState.for_shape(omega.shape)
    learning_rate = config.learning_rate
    epoch = 0
    while epoch < config.max_epochs and learning_rate >= config.min_learning_rate:
        epoch += 1
        permutation = rng.permutation(len(train_pairs))
        for lo in range(0, len(permutation), config.batch_size):
            chosen = permutation[lo : lo + config.batch_size]
            _, grad = _loss_and_grad_indexed(
                omega,
                source_space.vectors[train_sources[chosen]],
                train_targets[chosen],
                normalizer_rows,
                config.alpha,
                config.batch_size,
            )
            omega = adam.update(omega, grad, learning_rate)
        current = dev_loss(omega)
        if not np.isfinite(current):
            losses.append(current)
            logger.warning(
                "train: dev loss %r after epoch %d is not finite; stopping with "
                "the snapshot of epoch %d", current, epoch, best_epoch,
            )
            break
        if current > losses[-1]:
            learning_rate *= 0.5
        losses.append(current)
        if current < losses[best_epoch]:
            best_epoch = epoch
            best_omega = omega.copy()
    logger.info(
        "train: %d epochs, dev loss %.6f (best %.6f at epoch %d)",
        epoch, losses[-1], losses[best_epoch], best_epoch,
    )
    return TrainResult(
        model=TranslationModel(best_omega, support),
        dev_losses=losses,
        best_epoch=best_epoch,
        epochs_run=epoch,
        dropped_pairs=dropped,
    )


def score_block_rows(target_space: EmbeddingSpace) -> int:
    """Queries per block of ``retrieve``'s score matrix over ``target_space``."""
    budget = max(SCORE_BLOCK_BYTES, target_space.vectors.nbytes // 16)
    return max(1, budget // (8 * len(target_space)))


def retrieve(
    model: TranslationModel, source_vecs: np.ndarray, target_space: EmbeddingSpace
) -> tuple[np.ndarray, list[float | None]]:
    """The 1-best target row for each source vector, with its log-probability.

    One product P = S Omega^T maps the sources; each row block of
    R = P V^T then gives both the cosine winner (``_cosine_winners``: ties
    to the lower rank, zero rows never win, a zero mapped query raises)
    and the log-softmax at the winner over the first
    ``normalizer_vocab_size`` columns, which is None when the winner lies
    outside that support.
    """
    sources = np.asarray(source_vecs, dtype=np.float64)
    if sources.ndim != 2 or sources.shape[1] != model.source_dim:
        raise ValueError(f"sources have shape {sources.shape}, expected (n, {model.source_dim})")
    size = model.normalizer_vocab_size
    if size > len(target_space):
        raise ValueError("normalizer support exceeds the target space")
    projected = sources @ model.omega.T
    query_norms = np.linalg.norm(projected, axis=1)
    step = score_block_rows(target_space)
    winners = np.empty(len(sources), dtype=np.intp)
    log_probs = np.empty(len(sources))
    for lo in range(0, len(sources), step):
        block = slice(lo, lo + step)
        winners[block], log_probs[block] = _retrieve_block(
            projected[block], query_norms[block], target_space, size
        )
    return winners, [float(lp) if i < size else None for i, lp in zip(winners, log_probs)]


def _cosine_winners(
    target_space: EmbeddingSpace, products: np.ndarray, query_norms: np.ndarray
) -> np.ndarray:
    """The row of the space with the highest cosine for each query.

    ``products[i, j]`` is the dot product of query i with row j and
    ``query_norms[i]`` the norm of query i. Cosine divides by the cached
    row norms times the query norm. Exact ties go to the lower (more
    frequent) rank, and zero rows score -inf, so they never beat a
    non-zero row; a zero query raises ValueError.
    """
    if not np.all(query_norms > 0.0):
        raise ValueError("cannot rank neighbours of a zero query vector")
    scores = np.multiply.outer(query_norms, target_space.row_norms)
    zero = scores == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(products, scores, out=scores)
    scores[zero] = -np.inf
    return np.argmax(scores, axis=1)


def _retrieve_block(
    projected: np.ndarray, query_norms: np.ndarray, target_space: EmbeddingSpace, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Winners, and their log-softmax over the first ``size`` columns, for
    one block of mapped queries. The softmax runs in place on the block's
    scores once the winners' scores are read, so the block costs two
    score-sized arrays at most."""
    scores = projected @ target_space.vectors.T
    best = _cosine_winners(target_space, scores, query_norms)
    at_best = scores[np.arange(len(best)), best]
    support = scores[:, :size]
    shift = support.max(axis=1)
    support -= shift[:, None]
    log_z = np.log(np.exp(support, out=support).sum(axis=1))
    return best, at_best - shift - log_z


def save_model(model: TranslationModel, path: str, metadata: dict | None = None) -> None:
    """Write the omega text format, plus an optional metadata sidecar.

    Floats use repr, so a reload reproduces the matrix bit-exactly.
    """
    header = f"{MODEL_MAGIC} {MODEL_VERSION} {model.target_dim} {model.source_dim}"
    write_float_rows(path, f"{header} {model.normalizer_vocab_size}", model.omega)
    if metadata is not None:
        write_json(sidecar_path(path), metadata)


def load_model(path: str) -> TranslationModel:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().split()
        if len(header) != 5 or header[0] != MODEL_MAGIC or header[1] != MODEL_VERSION:
            raise ModelFormatError(f"{path}: bad model header")
        try:
            n_t, n_s, support = int(header[2]), int(header[3]), int(header[4])
        except ValueError as exc:
            raise ModelFormatError(f"{path}: non-integer header field") from exc
        if min(n_t, n_s, support) <= 0:
            raise ModelFormatError(f"{path}: invalid header values")
    _, omega = read_float_rows(path, n_s, first_lineno=2, error=ModelFormatError)
    if len(omega) != n_t:
        raise ModelFormatError(f"{path}: expected {n_t} rows, found {len(omega)}")
    return TranslationModel(omega, support)

