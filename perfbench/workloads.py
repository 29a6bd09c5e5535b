"""The benchmark's three workloads and their seeded source generators.

Each workload is one trace *file* plus the replay job's settings for
it.  The job only ever sees the generated file; the seed reaches the
program through the file's contents (and the serving arrival seed).
Sources are written by :func:`generate` in a process of their own, so
neither the job's wall time nor its peak RSS includes generation.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import bootstrap  # noqa: F401  (puts the checkout's src/ first on sys.path)
from repro.core.fast import FAST_POLICY_NAMES
from repro.workloads import markov_spatial, zipf_items

#: A matrix cell: (policy name, capacity).
Cell = Tuple[str, int]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``convert_to_rtc`` format of the source file.
    fmt: str
    block_size: int
    #: Capacity of the IBLP cluster/serve/observe stages (and the
    #: single-capacity matrix cells).
    k: int
    #: Accesses in the generated trace (MSR: approximate — records are
    #: expanded to pages, see :func:`write_msr_csv`).
    length: int
    #: Universe of the synthetic generators (MSR: number of extents).
    universe: int
    params: Dict[str, float] = field(default_factory=dict)
    #: Capacities of the item-lru/block-lru Mattson cells (empty: the
    #: matrix is every fast kernel at ``k``).
    mattson_caps: Tuple[int, ...] = ()

    @property
    def source_name(self) -> str:
        return f"{self.name}.{'csv' if self.fmt == 'msr' else 'trace'}.gz"

    def cells(self) -> List[Cell]:
        if not self.mattson_caps:
            return [(name, self.k) for name in FAST_POLICY_NAMES]
        cells = [(p, c) for p in ("item-lru", "block-lru") for c in self.mattson_caps]
        return cells + [("iblp", self.k)]


WORKLOADS: Dict[str, Workload] = {
    # The paper's spatial-locality case, where the miss path dominates:
    # block-granular kernels miss on ~20 % of accesses and load 8 items
    # each time, item kernels miss on ~66 %.  Most of the job is the
    # 17-cell matrix, and the GCM family takes most of that.
    "markov-spatial": Workload(
        name="markov-spatial",
        fmt="text",
        block_size=8,
        k=256,
        length=8_000,
        universe=65_536,
        params={"stay": 0.8},
    ),
    # The hit-path control: Zipf ranks shuffled across blocks, so there
    # is no spatial locality.  Item-LRU misses on ~12 % of accesses,
    # IBLP ~15 %, block-LRU ~22 %, item-MRU ~34 %, every other kernel
    # <= 26 %.  A miss-path optimisation predicts no change to
    # matrix_cell_acc_per_s here; serving and observation carry a larger
    # share of the job.  Universe and k are a quarter of a 100k-access
    # (16 384, 4096) set-up, scaled with the trace so jobs stay short.
    "zipf-hot": Workload(
        name="zipf-hot",
        fmt="text",
        block_size=8,
        k=1024,
        length=16_000,
        universe=4096,
        params={"alpha": 1.2},
    ),
    # The same layers used differently: MSR-Cambridge CSV parsing, page
    # expansion and densify at ingest; the Mattson multi-capacity pass
    # instead of steppers in the matrix (8 of 9 cells collapse); and the
    # referee-driven serve and observe stages take most of the job.
    "msr-storage": Workload(
        name="msr-storage",
        fmt="msr",
        block_size=8,
        k=1024,
        length=24_000,
        universe=4096,
        params={"alpha": 1.1, "hot_page_p": 0.15, "write_share": 0.3, "seq_share": 0.25},
        mattson_caps=(256, 512, 1024, 2048),
    ),
}


# -- source generators -------------------------------------------------------

def _write_text(trace, path: Path) -> None:
    """Write a generated trace in the repo's text format, gzip-compressed."""
    body = "\n".join(map(str, trace.items.tolist()))
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=6) as fh:
        fh.write(f"# universe: {trace.universe}\n# block_size: {trace.block_size}\n")
        fh.write(body + "\n")


#: Request sizes of the random (non-sequential) MSR records, in bytes.
_RANDOM_SIZES = (4096, 8192)
_SEQ_BYTES = 64 * 1024
_EXTENT_BYTES = 256 * 1024
#: Windows FILETIME of the first record (MSR traces use 100 ns ticks).
_T0 = 128_166_372_000_000_000


def write_msr_csv(wl: Workload, seed: int, path: Path) -> int:
    """Write an MSR-Cambridge-format block CSV; return its page accesses.

    ``wl.universe`` extents of 256 KiB sit at sparse 40-bit offsets on
    three disks and are picked with Zipf(``alpha``) popularity.  A
    ``seq_share`` of the records are 64 KiB requests that stream
    sequentially through their extent; the rest are 4 or 8 KiB requests
    at a random 4 KiB page of it, geometric(``hot_page_p``) from the
    extent's start, so each extent has hot pages.  ``write_share`` of
    the records are writes.  Records are added until the page expansion
    reaches ``wl.length`` accesses.
    """
    rng = np.random.default_rng(seed)
    alpha = wl.params["alpha"]
    n_ext = wl.universe
    slots = np.int64(1 << 40) // _EXTENT_BYTES
    bases = rng.choice(slots, size=n_ext, replace=False).astype(np.int64) * _EXTENT_BYTES
    disks = rng.integers(0, 3, size=n_ext)
    weights = np.arange(1, n_ext + 1, dtype=float) ** -alpha
    weights /= weights.sum()
    cursor = np.zeros(n_ext, dtype=np.int64)
    pages_per_seq = _SEQ_BYTES // 4096
    lines: List[str] = []
    pages = 0
    t = _T0
    batch = 4096
    while pages < wl.length:
        ext = rng.choice(n_ext, size=batch, p=weights)
        seq = rng.random(batch) < wl.params["seq_share"]
        write = rng.random(batch) < wl.params["write_share"]
        sizes = rng.choice(_RANDOM_SIZES, size=batch)
        pos = np.minimum(rng.geometric(wl.params["hot_page_p"], size=batch) - 1,
                         _EXTENT_BYTES // 4096 - 2) * 4096
        gaps = rng.integers(1_000, 50_000, size=batch)
        lat = rng.integers(50, 20_000, size=batch)
        for i in range(batch):
            e = int(ext[i])
            if seq[i]:
                off = int(bases[e] + cursor[e])
                cursor[e] = (cursor[e] + _SEQ_BYTES) % _EXTENT_BYTES
                size = _SEQ_BYTES
                pages += pages_per_seq
            else:
                off = int(bases[e] + pos[i])
                size = int(sizes[i])
                pages += size // 4096
            t += int(gaps[i])
            op = "Write" if write[i] else "Read"
            lines.append(f"{t},usr,{int(disks[e])},{op},{off},{size},{int(lat[i])}")
            if pages >= wl.length:
                break
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=6) as fh:
        fh.write("\n".join(lines) + "\n")
    return pages


def generate(wl: Workload, seed: int, directory: Path) -> Dict[str, object]:
    """Write ``wl``'s source file for ``seed`` into ``directory``.

    Returns (and writes as ``source.json``) the source description the
    job and the checks read: file name, format, and — for the text
    sources — the in-memory trace's fingerprint, which the converted
    ``.rtc`` file must reproduce.
    """
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / wl.source_name
    info: Dict[str, object] = {"workload": wl.name, "seed": seed, "file": wl.source_name}
    if wl.fmt == "msr":
        info["accesses"] = write_msr_csv(wl, seed, path)
        info["fingerprint"] = None
    else:
        if wl.name == "markov-spatial":
            trace = markov_spatial(
                wl.length, wl.universe, wl.block_size, stay=wl.params["stay"], seed=seed
            )
        else:
            trace = zipf_items(
                wl.length, wl.universe, alpha=wl.params["alpha"],
                block_size=wl.block_size, seed=seed, shuffle_ranks=True,
            )
        _write_text(trace, path)
        info["accesses"] = len(trace)
        info["fingerprint"] = trace.fingerprint()
    (directory / "source.json").write_text(json.dumps(info, sort_keys=True))
    return info


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description="Write one workload's seeded source file.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ns = ap.parse_args()
    generate(WORKLOADS[ns.workload], ns.seed, ns.dir)
