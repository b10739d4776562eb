"""Resumable-run scaffold shared by every checkpointing runner: the image
runner (``pipelines.runner``, unit ``partition``) and the corpus audit
and cleaner (``pipelines.corpus``, unit ``shard``).

One copy of the invariants:

- the checkpoint is the OUTPUT, not the manifest line: a unit is
  complete iff its manifest entry matches the current fingerprints (the
  caller's ``fps`` AND the fingerprint of the unit's own input files)
  and its checkpoint file exists under ``<unit>s/<unit>=<id>/``.
  Deleting a unit directory, changing a setting carried in ``fps`` or
  rewriting a unit's input file re-runs exactly that unit;
- unit outputs are written into ``<unit dir>.tmp`` and renamed into
  place, so a kill mid-unit leaves no half-checkpoint;
- the manifest is rewritten (lock + tmp + ``os.replace``) after each
  unit commits, so a killed run loses at most the units in flight
  (``MAX_PARALLEL``); an error in one unit reaches the caller after the
  units already running have committed;
- pending units run ``MAX_PARALLEL`` at a time through driver threads
  sharing the one Ray session.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from .. import __version__

MAX_PARALLEL = 4        # units in flight at once


def _fingerprint(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.encode())
        h.update(str(os.path.getsize(p)).encode())
    return h.hexdigest()[:16]


def _atomic_write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, default=str)
    os.replace(tmp, path)


def _run_sharded(out_dir: str, unit: str, units: dict, fps: dict,
                 per_unit, manifest_seed: dict, *,
                 checkpoint_file: str):
    """Run every pending unit of ``units`` (id -> its input files).

    ``fps`` are the fingerprint fields a unit's manifest entry must
    match to count as complete, beside its own ``input_fp``;
    ``per_unit(id, tmp_dir) -> dict`` writes the unit's outputs into
    ``tmp_dir`` and returns its verdict, which lands in
    ``checkpoint_file`` and in ``manifest[<unit>s][str(id)]["verdict"]``.
    Returns (manifest, pending)."""
    key = unit + "s"
    os.makedirs(os.path.join(out_dir, key), exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest = dict(manifest_seed)
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            manifest = json.load(f)
        if manifest.get("kind") != manifest_seed.get("kind"):
            # audit and cleaner share the shard layout: resuming the
            # WRONG runner over an out_dir would rmtree+replace every
            # existing shard output — refuse instead of destroying it
            raise ValueError(
                f"{out_dir!r} holds a "
                f"{manifest.get('kind', 'pre-kind')!r} manifest; this "
                f"is a {manifest_seed.get('kind')!r} run — use a "
                "separate --out directory")

    def _unit_dir(uid) -> str:
        return os.path.join(out_dir, key, f"{unit}={uid}")

    def _fps(uid) -> dict:
        return {**fps, "input_fp": _fingerprint(units[uid])}

    def _complete(uid) -> bool:
        entry = manifest[key].get(str(uid))
        if entry is None or any(entry.get(k) != v
                                for k, v in _fps(uid).items()):
            return False
        return os.path.exists(os.path.join(_unit_dir(uid),
                                           checkpoint_file))

    pending = [u for u in sorted(units) if not _complete(u)]
    mlock = threading.Lock()

    def _one(uid) -> None:
        t0 = time.time()
        unit_dir = _unit_dir(uid)
        tmp_dir = unit_dir + ".tmp"
        if os.path.exists(tmp_dir):
            shutil.rmtree(tmp_dir)
        os.makedirs(tmp_dir)
        verdict = per_unit(uid, tmp_dir)
        _atomic_write_json(os.path.join(tmp_dir, checkpoint_file),
                           verdict)
        if os.path.exists(unit_dir):
            shutil.rmtree(unit_dir)
        os.replace(tmp_dir, unit_dir)
        with mlock:
            manifest[key][str(uid)] = {
                **_fps(uid), "inputs": units[uid], "verdict": verdict,
                "wall_s": round(time.time() - t0, 3),
                "engine_version": __version__,
                "completed_at": time.time()}
            _atomic_write_json(manifest_path, manifest)

    if pending:
        from ..context import prime_fsspec_http_stub
        prime_fsspec_http_stub()     # threaded reads race the lazy import
        with ThreadPoolExecutor(max_workers=max(
                1, min(MAX_PARALLEL, len(pending)))) as ex:
            list(ex.map(_one, pending))
    return manifest, pending


def _finish_run(manifest: dict, out_dir: str, run_entry: dict) -> dict:
    manifest["runs"].append(run_entry)
    _atomic_write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest
