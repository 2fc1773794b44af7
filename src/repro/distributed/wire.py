"""Versioned, hash-stamped wire encoding of shard tasks.

A :class:`repro.faults.batch.ShardTask` that leaves the dispatching
process must survive three hazards the in-process path never sees:

* **Revision skew** — a worker built from an older checkout could
  happily execute a task whose fields it misinterprets, producing
  tallies that are *not* bit-identical to the dispatcher's contract.
  The envelope carries an explicit format name and version; decoding
  refuses anything but an exact match.
* **Corruption/truncation** — brokers and object stores occasionally
  hand back torn payloads. The envelope is stamped with the canonical
  content hash (:func:`repro.utils.canonical.content_hash`) of its
  body; decoding recomputes and refuses mismatches.
* **Ambiguous serialization** — two hosts must produce byte-identical
  encodings of the same task (unit ids and dedupe depend on it), so
  the text form is canonical JSON, never ``json.dumps`` defaults.

The payload is plain data end to end: the injector crosses as its
declarative config (:mod:`repro.faults.serialize`), never as a pickle,
so a worker trusts only the spec schema — not arbitrary bytecode — and
rebuilds behaviourally identical engines under the per-trial seeding
contract.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

from repro.faults.batch import ShardTask
from repro.utils.canonical import canonical_json, content_hash

#: Format discriminator of a shard-task envelope.
WIRE_FORMAT = "repro/shard-task"

#: Bump on any change to the task schema or its semantics. Workers and
#: dispatchers must agree exactly; there is no cross-version execution.
#: History: 1 = original schema; 2 = added the ``code`` field (pluggable
#: block-code registry) to :class:`ShardTask`; 3 = added the
#: ``kernels_name`` field (host-side kernel tier, resolved at dispatch);
#: 4 = the unit dispatch envelope (the broker payload wrapping a task
#: envelope, :func:`unit_envelope`) joined the versioned surface and may
#: carry an optional ``trace`` routing block (``{"id", "span"}``) for
#: cross-process tracing. The task schema is unchanged; the trace block
#: rides *outside* the digest-stamped body, so unit ids, content
#: digests, and dedupe keys are unaffected by whether tracing is on;
#: 5 = campaign draw contract v2 (:data:`repro.utils.rng.DRAW_CONTRACT`:
#: keyed per-trial Philox streams, sparse Bernoulli fault fields). The
#: task schema is unchanged, but the same task now yields different
#: tallies, so a worker on the old contract must not run its units;
#: 6 = campaign draw contract v3 (one Bernoulli fault field per 64-trial
#: group); the same task again yields different tallies;
#: 7 = removed the ``backend_name`` and ``kernels_name`` fields: the
#: campaign engine computes with numpy and calls no kernel tier, so a
#: worker resolves neither.
WIRE_VERSION = 7


class WireFormatError(ValueError):
    """The payload is not a valid shard-task envelope for this build."""


def task_wire_dict(task: ShardTask) -> dict:
    """The hash-stamped envelope of ``task`` (plain dict form)."""
    body = task.to_dict()
    return {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "task": body,
        "digest": _digest(body),
    }


def task_from_wire_dict(envelope: dict) -> ShardTask:
    """Decode an envelope, refusing version/digest mismatches."""
    if not isinstance(envelope, dict):
        raise WireFormatError(
            f"shard-task envelope must be an object, "
            f"got {type(envelope).__name__}")
    if envelope.get("format") != WIRE_FORMAT:
        raise WireFormatError(
            f"not a shard-task envelope: format="
            f"{envelope.get('format')!r} (expected {WIRE_FORMAT!r})")
    version = envelope.get("version")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"shard-task wire version {version!r} does not match this "
            f"build's version {WIRE_VERSION}; dispatcher and worker "
            f"must run the same revision")
    body = envelope.get("task")
    if not isinstance(body, dict):
        raise WireFormatError("shard-task envelope has no task body")
    digest = envelope.get("digest")
    expected = _digest(body)
    if digest != expected:
        raise WireFormatError(
            f"shard-task digest mismatch (stamped {str(digest)[:12]}..., "
            f"computed {expected[:12]}...); payload was altered or "
            f"produced by an incompatible spec revision")
    try:
        return ShardTask.from_dict(body)
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"undecodable shard task: {exc}") from exc


def encode_task(task: ShardTask) -> str:
    """Canonical JSON text of the envelope (byte-stable across hosts)."""
    return canonical_json(task_wire_dict(task))


def decode_task(text: str) -> ShardTask:
    """Inverse of :func:`encode_task` (same refusal semantics)."""
    try:
        envelope = json.loads(text)
    except (TypeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"shard-task payload is not JSON: "
                              f"{exc}") from exc
    return task_from_wire_dict(envelope)


def _digest(body: dict) -> str:
    """Content hash binding the envelope header to the task body."""
    return content_hash({"format": WIRE_FORMAT, "version": WIRE_VERSION,
                         "task": body})


# ---------------------------------------------------------------------- #
# Unit dispatch envelope (the broker payload around a task envelope)
# ---------------------------------------------------------------------- #

#: Keys every unit dispatch envelope must carry. ``trace`` is optional
#: routing metadata (``{"id": trace_id, "span": parent_span_id}``);
#: decoding tolerates unknown extra keys for forward compatibility.
UNIT_ENVELOPE_KEYS = frozenset({"job_key", "lo", "hi", "shard_task"})


def unit_envelope(job_key: str, lo: int, hi: int, task: ShardTask,
                  trace: dict = None) -> str:
    """Canonical JSON of one broker work-unit payload.

    The dispatcher publishes this under the unit id
    ``{job_key}:{lo}-{hi}``; byte-stability matters because republish
    idempotence compares payloads by unit id. The optional ``trace``
    block is deliberately outside the task envelope's digest — it is
    observability routing, not work content.
    """
    payload = {"job_key": job_key, "lo": lo, "hi": hi,
               "shard_task": task_wire_dict(task)}
    if trace:
        payload["trace"] = dict(trace)
    return canonical_json(payload)


def decode_unit_envelope(text: str) -> dict:
    """Parse a unit payload, refusing structural mismatches.

    Returns the envelope dict (``shard_task`` still in wire form —
    callers hand it to :func:`task_from_wire_dict` for the full
    version/digest refusal semantics). The optional ``trace`` block is
    normalized to a dict or ``None``.
    """
    try:
        envelope = json.loads(text)
    except (TypeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"unit payload is not JSON: {exc}") from exc
    if not isinstance(envelope, dict) or \
            not UNIT_ENVELOPE_KEYS <= set(envelope):
        raise WireFormatError(
            f"malformed unit envelope: expected keys "
            f"{sorted(UNIT_ENVELOPE_KEYS)}")
    trace = envelope.get("trace")
    envelope["trace"] = trace if isinstance(trace, dict) else None
    return envelope


def unit_routing(text: str
                 ) -> Optional[Tuple[str, int, int, Optional[dict]]]:
    """``(job_key, lo, hi, trace)`` of a unit payload, or ``None``.

    The cheap read a transport makes at claim time: the routing fields
    and the trace block, without the task's version/digest checks. A
    payload that does not decode reads as ``None``; the worker then
    fails it as poison.
    """
    try:
        envelope = decode_unit_envelope(text)
        return (str(envelope["job_key"]), int(envelope["lo"]),
                int(envelope["hi"]), envelope["trace"])
    except (TypeError, ValueError):  # WireFormatError is a ValueError
        return None
