"""Run persistence: .npz series and snapshot index, a raw float64 row file
for the snapshot states, JSON check reports, and a manifest, holding the
verdict, written last.

Layout of a run directory:

    config.json      the experiment configuration
    series.npz       per-step diagnostics, one float64 array per column
    snapshots.npz    snapshot index: grid (n, R, edges), times t, config hash
    snapshots.f64    one little-endian float64 row per snapshot, u then v
                     (2N values), in the order of the index's t
    checks_*.json    CheckReports, one file per verify battery
    manifest.json    the BlowupVerdict and the rejected-step count, and an
                     inventory with file hashes; written last, atomically

A directory containing manifest.json is complete: everything else is
written first and the manifest lands via os.replace.  The .npz files are
uncompressed, so reload is bit-exact, and embed the config hash; load_run
refuses any of them, and a config.json, whose hash is not the manifest's,
and any file it reads whose sha256 is not the one the manifest lists.
They are read with allow_pickle=False: a run directory may come from
elsewhere.  Every snapshot of a run lives on one grid, stored once as its
cell edges; rebuilding the grid from them reproduces the original
quadrature weights bitwise, which center-only storage does not.  The row
file is append-only: a row is the raw bytes of (u, v), so it is read back
bit-exactly and a reader needs only the index to parse it.  Run
directories of the retired one-archive-per-snapshot layout
(snap_NNNNN.npz) are refused.  Older directories that also hold a
verdict.json load, and the verdict is still read from the manifest.

Single states written by write_snapshot (`kslab construct`'s datum files)
stay self-describing .npz archives (n, R, t, edges, r, u, v).
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
from .config import ExperimentConfig, config_hash, save_config
from .functionals import StatePair
from .grid import RadialField, _grid_from_edges
from .solver import SERIES_COLUMNS, BlowupVerdict, Trajectory
from .verifier import CheckReport

__all__ = [
    "persist_run",
    "load_run",
    "load_series",
    "load_snapshot",
    "write_checks",
    "RunData",
]

_SNAPSHOT_KEYS = ("n", "R", "t", "edges", "r", "u", "v", "config_hash")
_INDEX_KEYS = ("n", "R", "edges", "t", "config_hash")
_ROW_DTYPE = np.dtype("<f8")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _savez(path: str, **arrays) -> None:
    # through a file handle, so np.savez does not append ".npz" to the path
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


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


def write_series(series: dict, path: str, cfg_hash: str) -> None:
    _savez(path, config_hash=np.array(cfg_hash), **{
        name: np.asarray(series[name], dtype=np.float64)
        for name in SERIES_COLUMNS})


def load_series(path) -> tuple[dict, str]:
    """Read a series file (a path or a binary file object); returns
    (columns, embedded config hash)."""
    cols = _load_npz(path, (*SERIES_COLUMNS, "config_hash"))
    return cols, str(cols.pop("config_hash"))


def write_snapshot(s: StatePair, path: str, cfg_hash: str) -> None:
    g = s.grid
    _savez(path, n=g.n, R=g.R, t=s.t, edges=g.edges, r=g.centers,
           u=s.u.values, v=s.v.values, config_hash=np.array(cfg_hash))


def load_snapshot(path: str) -> StatePair:
    """Read a file written by write_snapshot, rebuilding its grid from the
    stored edges."""
    f = _load_npz(path, _SNAPSHOT_KEYS)
    edges = np.asarray(f["edges"], dtype=np.float64)
    if edges.ndim != 1 or f["r"].shape != (edges.size - 1,):
        raise ValueError(f"inconsistent snapshot {path}")
    grid = _grid_from_edges(int(f["n"]), float(f["R"]), edges)
    if not np.array_equal(grid.centers, f["r"]):
        raise ValueError(f"snapshot centers do not match rebuilt grid: {path}")
    return StatePair(RadialField(grid, f["u"]), RadialField(grid, f["v"]),
                     float(f["t"]))


def _write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_dict(rep: CheckReport) -> dict:
    d = dataclasses.asdict(rep)
    loc = d["location"]
    if loc is not None and not isinstance(loc, (int, float, str)):
        d["location"] = str(loc)
    return d


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
    g = traj.grid
    for i, s in enumerate(traj.snapshots):
        if not (s.grid is g or (s.grid.n == g.n and s.grid.R == g.R and
                                s.grid.edges.tobytes() == g.edges.tobytes())):
            raise ValueError(f"snapshot {i} is not on the trajectory's grid")
    os.makedirs(directory, exist_ok=True)
    h = config_hash(cfg)
    inventory = {}

    save_config(cfg, os.path.join(directory, "config.json"))
    inventory["config.json"] = None

    write_series(traj.series, os.path.join(directory, "series.npz"), h)
    inventory["series.npz"] = None

    _savez(os.path.join(directory, "snapshots.npz"), n=g.n, R=g.R,
           edges=g.edges,
           t=np.array([s.t for s in traj.snapshots], dtype=np.float64),
           config_hash=np.array(h))
    inventory["snapshots.npz"] = None
    # raw rows straight from the snapshots' arrays, no stacked copy, hashed
    # as they are written rather than read back
    digest = hashlib.sha256()
    with open(os.path.join(directory, "snapshots.f64"), "wb") as fh:
        for s in traj.snapshots:
            for vals in (s.u.values, s.v.values):
                row = np.ascontiguousarray(vals, dtype=_ROW_DTYPE)
                fh.write(row)
                digest.update(row)
    inventory["snapshots.f64"] = digest.hexdigest()

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
        "files": {
            name: {"sha256": digest or _sha256(os.path.join(directory, name))}
            for name, digest in sorted(inventory.items())
        },
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
        "reports": [_report_dict(r) for r in reports],
    }
    fname = f"checks_{battery}.json"
    _write_json(payload, os.path.join(directory, fname))
    manifest["files"][fname] = {
        "sha256": _sha256(os.path.join(directory, fname))
    }
    _commit_manifest(manifest, directory)
    return payload


def _commit_manifest(manifest: dict, directory: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".manifest.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
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

    def open_listed(name: str) -> BytesIO:
        # read once: the bytes parsed are the bytes check_sha256 hashes
        path = os.path.join(directory, name)
        with open(path, "rb") as fh:
            buf = BytesIO(fh.read())
        buf.name = path
        return buf

    def check_sha256(name: str, digest: str) -> None:
        # runs after the embedded-hash check, so that a file of another run
        # is reported as such
        if digest != manifest["files"][name]["sha256"]:
            raise ValueError(f"{name} sha256 {digest} does not match manifest")

    def check_buf(name: str, buf: BytesIO) -> None:
        check_sha256(name, hashlib.sha256(buf.getvalue()).hexdigest())

    buf = open_listed("config.json")
    cfg = ExperimentConfig.from_dict(json.load(buf))
    if config_hash(cfg) != h:
        raise ValueError(
            f"config.json hash {config_hash(cfg)} does not match manifest {h}")
    check_buf("config.json", buf)
    buf = open_listed("series.npz")
    series, series_hash = load_series(buf)
    if series_hash != h:
        raise ValueError(
            f"series config hash {series_hash} does not match manifest {h}")
    check_buf("series.npz", buf)
    buf = open_listed("snapshots.npz")
    index = _load_npz(buf, _INDEX_KEYS)
    if str(index["config_hash"]) != h:
        raise ValueError(f"snapshots.npz config hash {index['config_hash']} "
                         f"does not match manifest {h}")
    check_buf("snapshots.npz", buf)
    times = index["t"]
    if times.ndim != 1 or index["edges"].ndim != 1:
        raise ValueError(f"inconsistent snapshot index {buf.name}")
    grid = _grid_from_edges(int(index["n"]), float(index["R"]),
                            np.asarray(index["edges"], dtype=np.float64))
    # one row buffer, reused: the rows hashed are the rows parsed, and the
    # fields copy out of it
    row = np.empty((2, grid.ncells), dtype=_ROW_DTYPE)
    digest, snaps = hashlib.sha256(), []
    with open(os.path.join(directory, "snapshots.f64"), "rb") as fh:
        for t in times:
            if fh.readinto(row) != row.nbytes:
                raise ValueError(
                    f"snapshots.f64 holds fewer than the {times.size} rows "
                    "its index lists")
            digest.update(row)
            snaps.append(StatePair(RadialField(grid, row[0]),
                                   RadialField(grid, row[1]), float(t)))
        if fh.read(1):
            raise ValueError(
                f"snapshots.f64 holds more than the {times.size} rows "
                "its index lists")
    check_sha256("snapshots.f64", digest.hexdigest())
    vd = manifest["verdict"]
    # older run directories also hold a fitted "t_extrapolated", which is
    # no longer part of a verdict and is ignored
    verdict = BlowupVerdict(outcome=vd["outcome"], t_detect=vd["t_detect"],
                            trigger=vd["trigger"])
    return RunData(
        directory=directory, config=cfg, series=series,
        snapshots=snaps, verdict=verdict, manifest=manifest,
    )
