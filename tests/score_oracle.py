"""Chunk-by-chunk scoring: the reference for ``model.scores``.

The windows are ordered and walked in spans exactly as ``model.scores``
walks them, and each chunk of ``SCORE_ROWS`` windows runs the window level
alone, as a batch, through the training BiLSTM (``model._bilstm``), whose
caches go at once. ``model.scores`` must equal it byte for byte.
"""

import numpy as np

from nhfm import model as m


def scores(store, params, config):
    order = np.argsort(-np.count_nonzero(store.rows[:, :-1], axis=1), kind="stable")
    out = np.empty(len(store))
    for start in range(0, len(store), m.SPAN_WINDOWS):
        span = order[start:start + m.SPAN_WINDOWS]
        rows = np.union1d(0, store.rows[span])
        events, wide, att = m._event_level(store, rows, params, config)
        local = np.searchsorted(rows, store.rows[span])
        for lo in range(0, len(span), m.SCORE_ROWS):
            chunk = span[lo:lo + m.SCORE_ROWS]
            refs = np.zeros((m.SCORE_ROWS, store.t_max), dtype=np.intp)
            refs[:len(chunk)] = local[lo:lo + m.SCORE_ROWS]
            history = refs[:, :-1]
            logit = m._window_level(
                events[refs], wide[refs], refs > 0,
                None if att is None else (att[0][history], att[1][history]),
                params, config)[0]
            out[chunk] = logit[:len(chunk)]
    return m.probabilities(out)
