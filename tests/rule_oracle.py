"""The planted rule of ``nhfm.synthetic`` read from one decoded window, the
oracle for ``synthetic.rule_oracle_scores``, which reads the event store."""


def rule_fires(seq, schema, spec) -> tuple[bool, list[int]]:
    """Evaluate the planted rule directly on an encoded sequence.

    Returns whether it fires and the slots of history events carrying the
    history trigger token. Independent of generator bookkeeping: it reads
    only the encoded features.
    """
    base = schema.field_base(f"f{spec.trigger_field}")
    current_idx = base + spec.current_token
    history_idx = base + spec.history_token
    fires_current = current_idx in seq.current().indices()
    positions = [t for t in seq.history_positions()
                 if history_idx in seq.events[t].indices()]
    return fires_current and bool(positions), positions
