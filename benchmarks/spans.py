"""Span tracing from outside the program.

``Tracer.install`` replaces module-level functions of ``nhfm`` with
wrappers that record one span per call: name, start, end, parent span and
the benchmark phase ("setup" or "round") it ran in. Every ``nhfm`` module
that imported the function by name gets the wrapper too, so calls between
modules are seen. Spans stay in memory until ``layer_metrics`` reduces them
to per-layer figures and ``write`` saves them; self time is a span's
duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) -> span name. Functions a later version of the program
# no longer has are skipped, and their layers report 0.
TARGETS = {
    ("movielens", "ingest_movielens"): "movielens.ingest",
    ("data", "fit_schema"): "data.fit_schema",
    ("data", "encode_event"): "data.encode",
    ("data", "assemble_sequences"): "data.assemble",
    ("data", "split"): "data.split",
    ("dataset_io", "write_dataset"): "dataset_io.write",
    ("dataset_io", "read_dataset"): "dataset_io.read",
    ("checkpoint", "load_checkpoint"): "checkpoint.load",
    ("model", "forward"): "model.forward",
    ("model", "embed_event"): "model.embed_event",
    ("model", "event_fm"): "model.event_fm",
    ("model", "sequence_fm"): "model.sequence_fm",
    ("model", "self_importance"): "model.self_importance",
    ("model", "bilstm"): "model.bilstm",
    ("model", "wide_term"): "model.wide_term",
    ("autodiff", "backward"): "autodiff.backward",
    ("training", "train"): "training.train",
    ("training", "optimizer_step"): "training.optimizer_step",
    ("training", "predict_scores"): "training.predict_scores",
    ("metrics", "auc"): "metrics.auc",
    ("metrics", "spauc"): "metrics.spauc",
}

# per-layer metric -> (span name, "self" or "total"); values are seconds per
# set-up plus seconds per round (see ``layer_metrics``)
TIMED_LAYERS = {
    "movielens.ingest_s": ("movielens.ingest", "self"),
    "data.fit_schema_s": ("data.fit_schema", "self"),
    "data.encode_s": ("data.encode", "self"),
    "data.assemble_s": ("data.assemble", "self"),
    "data.split_s": ("data.split", "self"),
    "dataset_io.write_s": ("dataset_io.write", "self"),
    "dataset_io.read_s": ("dataset_io.read", "self"),
    "checkpoint.load_s": ("checkpoint.load", "self"),
    "model.forward_s": ("model.forward", "total"),
    "model.embed_event_s": ("model.embed_event", "self"),
    "model.event_fm_s": ("model.event_fm", "self"),
    "model.sequence_fm_s": ("model.sequence_fm", "self"),
    "model.self_importance_s": ("model.self_importance", "self"),
    "model.bilstm_s": ("model.bilstm", "self"),
    "model.wide_term_s": ("model.wide_term", "self"),
    "model.head_s": ("model.forward", "self"),
    "autodiff.backward_s": ("autodiff.backward", "self"),
    "training.optimizer_step_s": ("training.optimizer_step", "self"),
    "training.loop_self_s": ("training.train", "self"),
    "metrics.auc_s": ("metrics.auc", "self"),
    "metrics.spauc_s": ("metrics.spauc", "self"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []       # (name, start, end, parent index, phase)
        self.tape_nodes: list[int] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_nodes = name == "model.forward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.phase)
            if count_nodes:
                tape = getattr(out, "tape", None)
                self.tape_nodes.append(len(tape.nodes) if tape is not None else 0)
            return out
        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "nhfm" or n.startswith("nhfm.")]
        for (module_name, func), span_name in TARGETS.items():
            module = importlib.import_module(f"nhfm.{module_name}")
            original = getattr(module, func, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end, parent index, phase."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [end - start - child_time[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self, n_setups: int, n_rounds: int) -> dict:
        """Per-layer figures: seconds per set-up plus seconds per round.

        A layer appears in one phase on each workload (reads happen in
        set-up on the model workloads and in the rounds of ``ingest_ml``),
        so each figure is that layer's cost per unit of its own phase.
        """
        per_phase = {"setup": max(n_setups, 1), "round": max(n_rounds, 1)}
        self_t = self.self_times()
        sums: dict = defaultdict(float)
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            sums[(name, "self")] += self_t[i] / per_phase[phase]
            sums[(name, "total")] += (end - start) / per_phase[phase]
            if parent >= 0 and self.spans[parent][0] == "training.train" \
                    and name in ("training.predict_scores", "metrics.auc"):
                sums[("validation", "total")] += (end - start) / per_phase[phase]
        out = {metric: {"value": sums[key], "unit": "s"}
               for metric, key in TIMED_LAYERS.items()}
        out["training.validation_s"] = {"value": sums[("validation", "total")], "unit": "s"}
        steps = sum(1 for s in self.spans if s[0] == "training.optimizer_step"
                    and s[4] == "round")
        out["training.optimizer_steps"] = {"value": steps / per_phase["round"],
                                           "unit": "count"}
        nodes = self.tape_nodes
        out["autodiff.tape_nodes_per_window"] = {
            "value": sum(nodes) / len(nodes) if nodes else 0, "unit": "count"}
        return out
