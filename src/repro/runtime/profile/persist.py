"""JSON persistence for :class:`~repro.runtime.profile.store.LoopProfileStore`.

Versioned schema, atomic writes (temp file + ``os.replace``), and
defensive loading: a missing, truncated, corrupt or foreign file never
raises — the store simply starts empty and records why on
``store.load_error``.  Keys the loader does not read, such as a loop's
retired ``decisions`` counter, are ignored, so older files of the same
version still load.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

from repro.core.outcomes import ArrayTestDetail, LrpdResult, TestMode
from repro.runtime.profile.observation import RunObservation

FORMAT = "repro-loop-profiles"
VERSION = 1

_DETAIL_FIELDS = (
    "name",
    "tw",
    "tm",
    "fully_parallel",
    "privatized_elements",
    "reduction_elements",
    "failed_elements",
)


def result_to_json(result: LrpdResult) -> dict:
    return {
        "mode": result.mode.value,
        "granularity": result.granularity,
        "details": {name: asdict(d) for name, d in result.details.items()},
    }


def result_from_json(payload: dict) -> LrpdResult:
    details = {}
    for name, raw in dict(payload.get("details", {})).items():
        details[str(name)] = ArrayTestDetail(
            **{key: raw[key] for key in _DETAIL_FIELDS}
        )
    return LrpdResult(
        mode=TestMode(payload["mode"]),
        granularity=str(payload["granularity"]),
        details=details,
    )


def store_to_json(store) -> dict:
    """Serializable snapshot of a store (verdicts in LRU→MRU order)."""
    verdicts = [
        {
            "loop": loop_key,
            "signature": signature,
            "hits": entry.hits,
            "result": result_to_json(entry.result),
        }
        for loop_key, signature, entry in store.verdicts.items()
    ]
    loops = {
        loop_key: {
            "observations": [
                obs.to_json() for obs in store.observations(loop_key)
            ],
        }
        for loop_key in store.loop_keys()
    }
    return {
        "format": FORMAT,
        "version": VERSION,
        "verdicts": verdicts,
        "loops": loops,
    }


def save_store(store, path) -> None:
    """Atomically write ``store`` to ``path`` (parent dirs created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(store_to_json(store), indent=2) + "\n")
        os.replace(tmp, target)
    finally:
        if tmp.exists():
            tmp.unlink()


def load_into(store, path) -> str | None:
    """Replace ``store``'s contents from ``path``.

    Returns None on success (including "no file yet"), otherwise a short
    reason string; the store is left empty in every failure case.
    """
    store.clear()
    if path is None:
        return None
    target = Path(path)
    try:
        text = target.read_text()
    except FileNotFoundError:
        return None
    except OSError as exc:
        return f"unreadable profile file: {exc}"
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.get("format") != FORMAT:
            return "not a loop-profile file"
        if payload.get("version") != VERSION:
            return f"unsupported profile version {payload.get('version')!r}"
        _restore(store, payload)
    except (KeyError, TypeError, ValueError) as exc:
        store.clear()
        return f"corrupt profile file: {exc}"
    return None


def _restore(store, payload: dict) -> None:
    for record in list(payload.get("verdicts", [])):
        loop_key = str(record["loop"])
        signature = str(record["signature"])
        store.verdicts.record(loop_key, signature, result_from_json(record["result"]))
        entry = store.verdicts._entries.get((loop_key, signature))
        if entry is not None:
            entry.hits = int(record.get("hits", 0))
    for loop_key, raw in dict(payload.get("loops", {})).items():
        profile = store._profile(str(loop_key))
        for obs in list(raw.get("observations", [])):
            profile.observations.append(RunObservation.from_json(obs))
