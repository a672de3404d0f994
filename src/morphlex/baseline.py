"""Supervised orthogonal-mapping baseline (Procrustes on the seed pairs)."""

from __future__ import annotations

import logging

import numpy as np

from .embeddings import EmbeddingSpace
from .translator import NoTrainablePairsError, TranslationModel

logger = logging.getLogger(__name__)


def procrustes_fit(
    seed_dict: list[tuple[str, str]],
    source_space: EmbeddingSpace,
    target_space: EmbeddingSpace,
) -> TranslationModel:
    """Closed-form orthogonal map from the source space to the target space.

    With the paired source vectors as columns of A and target vectors as
    columns of B, omega = U V^T from the SVD of B A^T minimizes
    ||omega A - B||_F over orthogonal matrices. The SVD runs on the
    dim-by-dim product, never on vocabulary-sized matrices.
    """
    if source_space.dim != target_space.dim:
        raise ValueError("procrustes requires equal source and target dimensions")
    source_rows = []
    target_rows = []
    dropped = 0
    for source_word, target_word in seed_dict:
        si = source_space.index_or_none(source_word)
        ti = target_space.index_or_none(target_word)
        if si is None or ti is None:
            dropped += 1
            continue
        source_rows.append(source_space.vectors[si])
        target_rows.append(target_space.vectors[ti])
    if not source_rows:
        raise NoTrainablePairsError("no seed pair is resolvable in the embedding spaces")
    if dropped:
        logger.info("procrustes_fit: dropped %d unresolvable seed pairs", dropped)
    if len(source_rows) < source_space.dim:
        logger.warning(
            "procrustes_fit: only %d pairs for dimension %d; the fit is underdetermined",
            len(source_rows), source_space.dim,
        )
    a = np.vstack(source_rows).T
    b = np.vstack(target_rows).T
    u, _, vt = np.linalg.svd(b @ a.T)
    omega = u @ vt
    support = target_space.n_file_loaded or len(target_space)
    return TranslationModel(omega, support)

