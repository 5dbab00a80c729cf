"""The list-based packer that ``nhfm.model.gather`` replaced, kept as an
oracle: it flattens every slot of every window into padded arrays as wide
as the widest event among them."""

from itertools import chain

import numpy as np

from nhfm.model import Batch


def pack(sequences, rows=None) -> Batch:
    n = len(sequences)
    rows = n if rows is None else rows
    t_max = sequences[0].t_max if sequences else 0
    events = [ev.entries for s in sequences for ev in s.events]
    counts = np.fromiter(map(len, events), dtype=np.intp, count=len(events))
    width = int(counts.max(initial=0))
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(events)),
                        dtype=np.float64).reshape(-1, 2)
    present = np.zeros((rows * t_max, width), dtype=bool)
    present[:n * t_max] = np.arange(width) < counts[:, None]
    idx = np.zeros((rows * t_max, width), dtype=np.intp)
    val = np.zeros((rows * t_max, width))
    idx[present] = pairs[:, 0]
    val[present] = pairs[:, 1]
    q = np.zeros((rows, t_max), dtype=bool)
    label = np.zeros(rows)
    if n:
        q[:n] = np.array([s.q for s in sequences]) == 1
        label[:n] = [s.label for s in sequences]
    shape = (rows, t_max, width)
    return Batch(idx.reshape(shape), val.reshape(shape), q, label)
