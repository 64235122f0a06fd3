"""Persistence: a snapshot store for every stored state, the .npz series,
JSON check reports, and a manifest, holding the verdict, written last.

Layout of a run directory:

    config.json      the experiment configuration
    series.npz       per-step diagnostics, one float64 array per column
    snapshots.npz    snapshot index: grid (n, R, edges), times t, config hash
    snapshots.f64    one little-endian float64 row per snapshot, u then v
                     (2N values), in the order of the index's t
    checks_*.json    CheckReports, one file per verify battery
    manifest.json    the BlowupVerdict and the rejected-step count, and an
                     inventory with the sha256 of each file's bytes as they
                     were written; written last, atomically

The snapshots.* pair is the store write_snapshot writes for every state
kslab keeps; a `kslab construct` directory holds sequence.csv and a store
whose row i is the member on row i of the table (ascending k, t = 0).

A directory containing manifest.json is complete: everything else is
written first and the manifest lands via os.replace.  The .npz files are
uncompressed, so reload is bit-exact, and embed the config hash; load_run
refuses any of them, and a config.json, whose hash is not the manifest's,
and any file it reads whose sha256 is not the one the manifest lists.
They are read with allow_pickle=False: a directory may come from
elsewhere.  Every state of a store lives on one grid, stored once as its
cell edges; rebuilding the grid from them reproduces the original
quadrature weights bitwise, which center-only storage does not.  The row
file is append-only: a row is the raw bytes of (u, v), so it is read back
bit-exactly and a reader needs only the index to parse it.  Directories
of the retired one-archive-per-state layouts (a run's snap_NNNNN.npz, a
construct's datum_kNNN.npz) are refused.  Older run directories that also
hold a verdict.json load, and the verdict is still read from the manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
import zipfile
from dataclasses import dataclass
from io import BytesIO
from typing import Sequence

import numpy as np

from . import __version__ as _VERSION
from .config import ExperimentConfig, _json, config_hash
from .functionals import StatePair
from .grid import RadialField, _grid_from_edges
from .solver import SERIES_COLUMNS, BlowupVerdict, Trajectory
from .verifier import CheckReport

__all__ = [
    "persist_run",
    "load_run",
    "load_series",
    "load_snapshots",
    "write_checks",
    "RunData",
]

_INDEX_KEYS = ("n", "R", "edges", "t", "config_hash")
_ROW_DTYPE = np.dtype("<f8")


def _write(path: str, data: bytes) -> str:
    """Write `data` to `path` and return its sha256: the digest of the
    bytes as written, so no file is read back to hash it."""
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def _npz(**arrays) -> bytes:
    """The bytes of an uncompressed .npz archive of `arrays`."""
    buf = BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _read_once(path: str) -> BytesIO:
    # read once: the bytes parsed are the bytes whose sha256 is checked
    with open(path, "rb") as fh:
        buf = BytesIO(fh.read())
    buf.name = path
    return buf


def _check_sha256(name: str, digest, listed: dict | None) -> None:
    # runs after the embedded-hash check, so that a file of another run is
    # reported as such; `listed` is a manifest's file inventory
    if listed is not None and digest.hexdigest() != listed[name]["sha256"]:
        raise ValueError(
            f"{name} sha256 {digest.hexdigest()} does not match manifest")


def _load_npz(src, keys) -> dict:
    """Arrays of an .npz path or binary file object holding exactly `keys`."""
    label = getattr(src, "name", src)
    try:
        with np.load(src, allow_pickle=False) as z:
            if set(z.files) != set(keys):
                raise ValueError(f"unexpected keys {sorted(z.files)}: {label}")
            return {k: z[k] for k in z.files}
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"unreadable .npz file {label}: {exc}") from exc


def write_series(series: dict, path: str, cfg_hash: str) -> str:
    """Write a series file and return its sha256."""
    return _write(path, _npz(config_hash=np.array(cfg_hash), **{
        name: np.asarray(series[name], dtype=np.float64)
        for name in SERIES_COLUMNS}))


def load_series(path) -> tuple[dict, str]:
    """Read a series file (a path or a binary file object); returns
    (columns, embedded config hash)."""
    cols = _load_npz(path, (*SERIES_COLUMNS, "config_hash"))
    return cols, str(cols.pop("config_hash"))


def write_snapshot(states: Sequence[StatePair], directory: str,
                   cfg_hash: str) -> dict:
    """Store `states`, all on one grid, in `directory` as snapshots.npz and
    snapshots.f64, and return the sha256 of each, by file name."""
    if not states:
        raise ValueError(f"no states to store in {directory}")
    g = states[0].grid
    for i, s in enumerate(states):
        if s.grid != g:
            raise ValueError(f"snapshot {i} is not on the grid of snapshot 0")
    os.makedirs(directory, exist_ok=True)
    index = _write(os.path.join(directory, "snapshots.npz"), _npz(
        n=g.n, R=g.R, edges=g.edges,
        t=np.array([s.t for s in states], dtype=np.float64),
        config_hash=np.array(cfg_hash)))
    # raw rows straight from the states' arrays, no stacked copy, hashed as
    # they are written
    digest = hashlib.sha256()
    with open(os.path.join(directory, "snapshots.f64"), "wb") as fh:
        for s in states:
            for vals in (s.u.values, s.v.values):
                row = np.ascontiguousarray(vals, dtype=_ROW_DTYPE)
                fh.write(row)
                digest.update(row)
    return {"snapshots.npz": index, "snapshots.f64": digest.hexdigest()}


def load_snapshots(directory: str, cfg_hash: str,
                   listed: dict | None = None) -> list[StatePair]:
    """The states write_snapshot stored in `directory`, on one grid rebuilt
    from the stored edges.  Refuses an index that does not embed `cfg_hash`
    or lists no state, a row file with more or fewer rows than the index
    lists and, given a manifest's inventory `listed`, a file whose sha256 is
    not the listed one.
    """
    path = os.path.join(directory, "snapshots.npz")
    if not os.path.exists(path) and any(
            f.startswith("datum_k") for f in os.listdir(directory)):
        raise ValueError(
            f"{directory} stores states in the retired datum_kNNN.npz "
            "layout, which this version does not read; construct it again")
    buf = _read_once(path)
    index = _load_npz(buf, _INDEX_KEYS)
    if str(index["config_hash"]) != cfg_hash:
        raise ValueError(f"snapshots.npz config hash {index['config_hash']} "
                         f"does not match {cfg_hash}")
    _check_sha256("snapshots.npz", hashlib.sha256(buf.getvalue()), listed)
    times = index["t"]
    if times.ndim != 1:
        raise ValueError(f"inconsistent snapshot index {path}")
    if times.size == 0:
        raise ValueError(f"snapshot index {path} lists no state")
    grid = _grid_from_edges(int(index["n"]), float(index["R"]),
                            np.asarray(index["edges"], dtype=np.float64))
    # one row buffer, reused: the rows hashed are the rows parsed, and the
    # fields copy out of it
    row = np.empty((2, grid.ncells), dtype=_ROW_DTYPE)
    digest, states = hashlib.sha256(), []
    with open(os.path.join(directory, "snapshots.f64"), "rb") as fh:
        for t in times:
            if fh.readinto(row) != row.nbytes:
                raise ValueError(
                    f"snapshots.f64 holds fewer than the {times.size} rows "
                    "its index lists")
            digest.update(row)
            states.append(StatePair(RadialField(grid, row[0]),
                                    RadialField(grid, row[1]), float(t)))
        if fh.read(1):
            raise ValueError(
                f"snapshots.f64 holds more than the {times.size} rows "
                "its index lists")
    _check_sha256("snapshots.f64", digest, listed)
    return states


@dataclass
class RunData:
    directory: str
    config: ExperimentConfig
    series: dict
    snapshots: list
    verdict: BlowupVerdict
    manifest: dict

    def as_trajectory(self) -> Trajectory:
        """Rebuild a Trajectory equivalent for the verifier checks."""
        s0 = self.snapshots[0]
        return Trajectory(
            grid=s0.grid, config=self.config.solver, series=self.series,
            snapshots=self.snapshots, verdict=self.verdict,
            rejected_steps=int(self.manifest["verdict"]["rejected_steps"]),
        )


def persist_run(
    traj: Trajectory, cfg: ExperimentConfig, directory: str
) -> dict:
    """Write a complete run directory and return the manifest."""
    h = config_hash(cfg)
    # first: it refuses snapshots on two grids before any file is written
    digests = write_snapshot(traj.snapshots, directory, h)
    digests["config.json"] = _write(os.path.join(directory, "config.json"),
                                    _json(cfg.to_dict()))
    digests["series.npz"] = write_series(
        traj.series, os.path.join(directory, "series.npz"), h)

    verdict = dataclasses.asdict(traj.verdict)
    verdict["config_hash"] = h
    verdict["rejected_steps"] = traj.rejected_steps

    manifest = {
        "artifact_version": _VERSION,
        "config_hash": h,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "status": "complete",
        "name": cfg.name,
        "verdict": verdict,
        "files": {name: {"sha256": digest}
                  for name, digest in sorted(digests.items())},
    }
    _commit_manifest(manifest, directory)
    return manifest


def write_checks(
    reports: Sequence[CheckReport], directory: str, battery: str
) -> dict:
    """Add check reports to an existing run directory and recommit the
    manifest (manifest stays last: the checks file is written first).

    One file per battery, so repeated verifies do not clobber each other.
    """
    man_path = os.path.join(directory, "manifest.json")
    with open(man_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    payload = {
        "battery": battery,
        "config_hash": manifest["config_hash"],
        "all_passed": all(r.passed for r in reports),
        "reports": [dataclasses.asdict(r) for r in reports],
    }
    fname = f"checks_{battery}.json"
    manifest["files"][fname] = {
        "sha256": _write(os.path.join(directory, fname), _json(payload))}
    _commit_manifest(manifest, directory)
    return payload


def _commit_manifest(manifest: dict, directory: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".manifest.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_json(manifest))
        os.replace(tmp, os.path.join(directory, "manifest.json"))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_run(directory: str) -> RunData:
    man_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(man_path):
        raise FileNotFoundError(
            f"no manifest in {directory}: run directory incomplete")
    with open(man_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    h = manifest["config_hash"]
    if any(name.startswith("snap_") for name in manifest["files"]):
        raise ValueError(
            f"{directory} stores snapshots in the retired snap_NNNNN.npz "
            "layout, which this version does not read; simulate the run again")

    listed = manifest["files"]
    buf = _read_once(os.path.join(directory, "config.json"))
    cfg = ExperimentConfig.from_dict(json.load(buf))
    if config_hash(cfg) != h:
        raise ValueError(
            f"config.json hash {config_hash(cfg)} does not match manifest {h}")
    _check_sha256("config.json", hashlib.sha256(buf.getvalue()), listed)
    buf = _read_once(os.path.join(directory, "series.npz"))
    series, series_hash = load_series(buf)
    if series_hash != h:
        raise ValueError(
            f"series config hash {series_hash} does not match manifest {h}")
    _check_sha256("series.npz", hashlib.sha256(buf.getvalue()), listed)
    snaps = load_snapshots(directory, h, listed)
    vd = manifest["verdict"]
    # older run directories also hold a fitted "t_extrapolated", which is
    # no longer part of a verdict and is ignored
    verdict = BlowupVerdict(outcome=vd["outcome"], t_detect=vd["t_detect"],
                            trigger=vd["trigger"])
    return RunData(
        directory=directory, config=cfg, series=series,
        snapshots=snaps, verdict=verdict, manifest=manifest,
    )
