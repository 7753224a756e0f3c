import numpy as np
import pytest

from affectmtl import CANONICAL_AUS

AU_IDX = {au: i for i, au in enumerate(CANONICAL_AUS)}


def _reference_compound_scores(out, classes):
    """Per-row, per-class loop over the compound score terms.

    Returns an (n, C, 4) array holding i_au, f_emo, d_va and total.
    """
    ref = np.zeros((len(out["au"]), len(classes), 4))
    for i in range(len(out["au"])):
        for k, c in enumerate(classes):
            w = np.array(list(c.au_profile.values()))
            idx = [AU_IDX[au] for au in c.au_profile]
            i_au = w @ out["au"][i, idx] / w.sum()
            f_emo = out["expr"][i, c.emo1] + out["expr"][i, c.emo2]
            d_va = 1.0 if c.requires_positive_valence and out["va"][i, 0] > 0 else 0.0
            ref[i, k] = i_au, f_emo, d_va, i_au + f_emo + d_va
    return ref


@pytest.fixture
def reference_compound_scores():
    """The per-row reference scorer that ``compound_scores`` must match."""
    return _reference_compound_scores
