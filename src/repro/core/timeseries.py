"""Time-series catalogs: many timesteps of one simulation in one directory.

Both evaluation workloads are *time series* — the Coal Boiler writes
timesteps 501…4501 and the Dam Break 0…4001 — and a post-hoc analysis tool
needs to discover and navigate them. A :class:`TimeSeriesWriter` wraps the
two-phase writer, names each step's files consistently, and maintains a
small catalog file (``series.json``) recording every written step, its
particle count, data bounds, and global attribute ranges over time.
:class:`TimeSeriesDataset` reads it back and opens any step as a
:class:`~repro.core.dataset.BATDataset`.

Every reader of a source's steps — the series view, the serve tier's
:class:`~repro.serve.service.QueryService` and each shard worker — opens,
reopens, reloads and closes them through one :class:`StepTable`.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path

from ..api import QueryRequest
from ..atomic import publish_bytes
from ..machines import MachineSpec
from ..types import Box
from .dataset import BATDataset
from .rankdata import RankData
from .writer import TwoPhaseWriter, WriteReport

__all__ = ["TimeSeriesWriter", "TimeSeriesDataset", "StepRecord", "StepTable"]

CATALOG_NAME = "series.json"
CATALOG_VERSION = 1


@dataclass
class StepRecord:
    """One timestep's entry in the catalog."""

    step: int
    metadata_file: str
    n_particles: int
    n_files: int
    bounds: Box
    write_seconds: float

    def to_doc(self) -> dict:
        return {
            "step": self.step,
            "metadata": self.metadata_file,
            "particles": self.n_particles,
            "files": self.n_files,
            "bounds": [list(self.bounds.lower), list(self.bounds.upper)],
            "write_seconds": self.write_seconds,
        }

    @staticmethod
    def from_doc(doc: dict) -> "StepRecord":
        return StepRecord(
            step=doc["step"],
            metadata_file=doc["metadata"],
            n_particles=doc["particles"],
            n_files=doc["files"],
            bounds=Box(tuple(doc["bounds"][0]), tuple(doc["bounds"][1])),
            write_seconds=doc["write_seconds"],
        )


class TimeSeriesWriter:
    """Writes a simulation's timesteps and maintains the series catalog.

    Accepts the same configuration as :class:`TwoPhaseWriter` (including
    ``target_size="auto"``, which re-tunes per step as the population
    grows — the paper's recommendation for injection simulations).
    """

    def __init__(self, machine: MachineSpec, directory, **writer_kwargs):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.writer = TwoPhaseWriter(machine, **writer_kwargs)
        self._steps: dict[int, StepRecord] = {}
        catalog = self.directory / CATALOG_NAME
        if catalog.exists():
            for rec in _load_catalog(catalog):
                self._steps[rec.step] = rec

    @property
    def steps(self) -> list[int]:
        return sorted(self._steps)

    def write_step(self, step: int, data: RankData) -> WriteReport:
        """Write one timestep and update the catalog atomically-ish.

        Re-writing an existing step replaces its record (the files are
        overwritten in place, as a restarted simulation would).
        """
        if step < 0:
            raise ValueError("step must be >= 0")
        name = f"ts{step:06d}"
        report = self.writer.write(data, out_dir=self.directory, name=name)
        if report.metadata_path is None:
            raise ValueError("time-series writes require materialized data")
        bounds = Box.empty()
        for leaf in report.metadata.leaves:
            bounds = bounds.union(leaf.bounds)
        self._steps[step] = StepRecord(
            step=step,
            metadata_file=Path(report.metadata_path).name,
            n_particles=report.metadata.total_particles,
            n_files=report.n_files,
            bounds=bounds,
            write_seconds=report.elapsed,
        )
        self._save()
        return report

    def _save(self) -> None:
        doc = {
            "format": "bat-series",
            "version": CATALOG_VERSION,
            "steps": [self._steps[s].to_doc() for s in sorted(self._steps)],
        }
        publish_bytes(
            self.directory / CATALOG_NAME, json.dumps(doc, indent=1).encode()
        )


def _load_catalog(path: Path) -> list[StepRecord]:
    doc = json.loads(path.read_text())
    if doc.get("format") != "bat-series":
        raise ValueError(f"{path} is not a BAT series catalog")
    if doc.get("version") != CATALOG_VERSION:
        raise ValueError(f"unsupported series catalog version {doc.get('version')}")
    return [StepRecord.from_doc(d) for d in doc["steps"]]


class StepTable:
    """One source's timesteps, each opened once and shared by every reader.

    ``source`` is a ``*.meta.json`` manifest (step 0) or a series
    directory, whose ``series.json`` gives each step's manifest
    (``records`` keeps its entries; a lone manifest has none).
    ``opener(step, manifest)`` builds what answers a step: anything with
    ``metadata.generation`` and ``close()``. An open step is found
    without a lock; opening, reopening and closing take the one lock, so
    concurrent first requests open a step once.
    """

    def __init__(self, source, opener):
        source = Path(source)
        if source.suffix == ".json" and source.is_file():
            self.records: dict[int, StepRecord] = {}
            self.manifests = {0: source}
        else:
            self.records = {r.step: r for r in _load_catalog(source / CATALOG_NAME)}
            self.manifests = {s: source / r.metadata_file for s, r in self.records.items()}
        self._opener = opener
        self._open: dict = {}
        self._lock = threading.Lock()

    @property
    def steps(self) -> list[int]:
        return sorted(self.manifests)

    def manifest(self, step: int) -> Path:
        manifest = self.manifests.get(step)
        if manifest is None:
            raise KeyError(f"no step {step}; have {self.steps}")
        return manifest

    def peek(self, step: int):
        """The open step, or None (never opens one)."""
        return self._open.get(step)

    def get(self, step: int, generation: int = 0):
        """The open step, opened now if it is not — and reopened from its
        manifest when the open one is older than ``generation``."""
        opened = self._open.get(step)
        if opened is None or opened.metadata.generation < generation:
            with self._lock:
                opened = self._open.get(step)
                if opened is None or opened.metadata.generation < generation:
                    opened = self._reopen(step)
        return opened

    def reload(self, step: int):
        """The step opened anew from its on-disk manifest."""
        with self._lock:
            return self._reopen(step)

    def _reopen(self, step: int):
        """Close the step if it is open, then open its manifest (lock held)."""
        old = self._open.pop(step, None)
        if old is not None:
            old.close()
        opened = self._open[step] = self._opener(step, self.manifest(step))
        return opened

    def opened(self) -> dict:
        """``{step: open step}`` as of now (for snapshots)."""
        with self._lock:
            return dict(self._open)

    def close(self) -> None:
        with self._lock:
            for opened in self._open.values():
                opened.close()
            self._open.clear()


class TimeSeriesDataset:
    """Read-side view over a written time series.

    All steps share one bounded LRU cache of open leaf-file handles, so
    scrubbing back and forth through a long series re-uses mmaps without
    ever holding more than ``max_open_files`` descriptors.
    """

    def __init__(self, directory, max_open_files: int | None = None):
        from ..bat.filecache import DEFAULT_CAPACITY, BATFileCache

        self.directory = Path(directory)
        if self.directory.is_file():  # a lone manifest is a step, not a series
            raise NotADirectoryError(f"{self.directory} is not a time-series directory")
        self._steps = StepTable(self.directory, self._open_step)
        self.records = self._steps.records
        self._cache = BATFileCache(max_open_files or DEFAULT_CAPACITY)

    def _open_step(self, step: int, manifest: Path) -> BATDataset:
        return BATDataset(manifest, file_cache=self._cache)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._steps.close()
        self._cache.close()

    def __enter__(self) -> "TimeSeriesDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- navigation -------------------------------------------------------------

    @property
    def steps(self) -> list[int]:
        return sorted(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def record(self, step: int) -> StepRecord:
        return self.records[step]

    def step(self, step: int) -> BATDataset:
        """Open (and cache) one timestep."""
        return self._steps.get(step)

    def nearest_step(self, step: int) -> int:
        """The written step closest to ``step`` (scrubbing support)."""
        if not self.records:
            raise ValueError("empty time series")
        return min(self.records, key=lambda s: (abs(s - step), s))

    # -- series-level queries ------------------------------------------------------

    def particle_counts(self) -> dict[int, int]:
        return {s: self.records[s].n_particles for s in self.steps}

    def attr_range_over_time(self, name: str) -> dict[int, tuple[float, float]]:
        """Global range of one attribute at every step (opens metadata only)."""
        out = {}
        for s in self.steps:
            ds = self.step(s)
            if name not in ds.attr_ranges:
                raise KeyError(f"no attribute {name!r} at step {s}")
            out[s] = ds.attr_ranges[name]
        return out

    def query_over_time(self, request: QueryRequest | None = None, steps=None):
        """Run the same query against several steps; yields (step, batch, stats).

        ``request`` is a :class:`~repro.api.QueryRequest` replayed against
        every step (default: a full-quality read of everything); ``steps``
        restricts which written steps are visited.
        """
        for s in steps if steps is not None else self.steps:
            batch, stats = self.step(s).query(request)
            yield s, batch, stats
