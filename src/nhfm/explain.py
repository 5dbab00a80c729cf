"""Model explanation: feature risk ranking from the wide weights and
per-event importance from the attention weights.

The wide part is linear, so each feature's learned weight reads directly
as its marginal push toward the positive class; sorting the weights gives
high-risk and low-risk feature lists. Event importance reuses the
attention weights that the forward pass over one window of an event store
produced, joined back to the fields of the rows those weights fall on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .data import Event, EventStore, FeatureSchema, decode_event
from .model import scores, window_forward


@dataclass(frozen=True)
class RankedFeature:
    field: str
    token: str | None          # None for numerical fields
    weight: float
    index: int

    def describe(self) -> str:
        if self.token is None:
            # weight scales the normalized value of the numerical field
            return f"{self.field} (numerical, weight x normalized value)"
        return f"{self.field}={self.token}"


@dataclass(frozen=True)
class FeatureRanking:
    direction: str              # "high" or "low"
    entries: tuple[RankedFeature, ...]


@dataclass(frozen=True)
class EventImportance:
    slot: int                   # position within the padded sequence
    fields: dict[str, str | float]
    weight: float
    rank: int                   # 1 = most important


@dataclass(frozen=True)
class EventImportanceReport:
    user: str
    label: int
    y_hat: float
    events: tuple[EventImportance, ...]


def top_wide_features(ck: Checkpoint, schema: FeatureSchema, count: int,
                      direction: str = "high") -> FeatureRanking:
    """Rank features by raw wide weight, descending for "high" risk and
    ascending for "low"; ties keep feature-index order."""
    if direction not in ("high", "low"):
        raise ValueError(f"direction must be 'high' or 'low', got {direction!r}")
    ck.require_schema(schema)
    w = ck.params["wide.w"]
    if direction == "high":
        order = sorted(range(schema.n), key=lambda i: (-w[i], i))
    else:
        order = sorted(range(schema.n), key=lambda i: (w[i], i))
    entries = []
    for i in order[:count]:
        field, token = schema.describe_index(i)
        entries.append(RankedFeature(field, token, float(w[i]), i))
    return FeatureRanking(direction, tuple(entries))


def attention_report(ck: Checkpoint, store: EventStore, window: int,
                     schema: FeatureSchema) -> EventImportanceReport:
    """Attention weights over the real history events of the window at
    position ``window`` of ``store``, straight from the forward cache, with
    ranks and the fields of only those events decoded. The prediction is
    the window's :func:`~nhfm.model.scores` score, which its batchmates do
    not change, so it is the score a scoring pass over ``store`` gives."""
    ck.require_schema(schema)
    if not ck.model_config.uses_attention():
        raise ValueError(
            f"variant {ck.model_config.variant!r} has no attention weights; "
            "use a beta or full checkpoint")
    cache = window_forward(store, window, ck.params, ck.model_config)
    slots = cache.history_slots
    weights = cache.att_weights if cache.att_weights is not None else np.zeros(0)
    ranks = np.empty(len(slots), dtype=int)
    ranks[np.argsort(-weights, kind="mergesort")] = np.arange(1, len(slots) + 1)
    events = []
    for i, slot in enumerate(slots):
        row = store.rows[window, slot]
        c = store.count[row]
        event = Event(tuple(zip(store.idx[row, :c].tolist(), store.val[row, :c].tolist())))
        events.append(EventImportance(slot, decode_event(event, schema),
                                      float(weights[i]), int(ranks[i])))
    y_hat = float(scores(store.take([window]), ck.params, ck.model_config)[0])
    return EventImportanceReport(store.users[store.user[window]], int(store.label[window]),
                                 y_hat, tuple(events))


def render_feature_ranking(ranking: FeatureRanking) -> str:
    title = "High-risk features" if ranking.direction == "high" else "Low-risk features"
    lines = [title, f"{'rank':>4}  {'weight':>10}  feature"]
    for rank, f in enumerate(ranking.entries, start=1):
        lines.append(f"{rank:>4}  {f.weight:>+10.5f}  {f.describe()}")
    return "\n".join(lines) + "\n"


def render_event_report(report: EventImportanceReport) -> str:
    header = (f"user={report.user} label={report.label} "
              f"prediction={report.y_hat:.4f}")
    lines = [header, f"{'slot':>4}  {'weight':>8}  {'rank':>4}  event"]
    for ev in report.events:
        fields = ", ".join(f"{k}={v}" for k, v in sorted(ev.fields.items()))
        lines.append(f"{ev.slot:>4}  {ev.weight:>8.4f}  {ev.rank:>4}  {fields}")
    if not report.events:
        lines.append("  (no history events)")
    return "\n".join(lines) + "\n"
