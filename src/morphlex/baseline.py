"""Supervised orthogonal-mapping baseline (Procrustes on the seed pairs)."""

from __future__ import annotations

import logging

import numpy as np

from .embeddings import EmbeddingSpace
from .translator import TranslationModel, seed_rows

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
    dim-by-dim product, never on vocabulary-sized matrices. The pairs are
    those ``seed_rows`` keeps, as for ``train``; the support is every row
    of the target.
    """
    if source_space.dim != target_space.dim:
        raise ValueError("procrustes requires equal source and target dimensions")
    seeds = seed_rows(seed_dict, source_space, target_space)
    if len(seeds.targets) < source_space.dim:
        logger.warning(
            "procrustes_fit: only %d pairs for dimension %d; the fit is underdetermined",
            len(seeds.targets), source_space.dim,
        )
    a = seeds.sources.T
    b = target_space.vectors[seeds.targets].T
    u, _, vt = np.linalg.svd(b @ a.T)
    return TranslationModel(u @ vt, len(target_space))
