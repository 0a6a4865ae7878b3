"""Low-memory proof: an mmap column store answers a workload bigger than RAM.

The smoke runs under a hard ``RLIMIT_AS`` address-space cap (applied
here, and belt-and-braces via ``ulimit -v`` in CI) and

1. **streams** a histogram column set *larger than the cap* to disk
   through :meth:`MmapStore.build` — the build peak is one row block,
   never a full column;
2. proves the cap is real: materialising any single flat column with
   ``np.empty`` raises ``MemoryError``;
3. opens the file as a :class:`PagedDistributionPack` and sweeps the
   cdf kernel over **every** row through the bounded window pool,
   comparing spot-checked row blocks **bit for bit** against reference
   blocks regenerated from the same seeds;
4. asserts the buffer-pool accounting shows real out-of-core behaviour:
   faults exceed the pool capacity, evictions happened, and resident
   bytes never exceeded the configured budget.

Usage::

    python scripts/out_of_core_smoke.py            # 512 MiB cap
    OUT_OF_CORE_CAP_MB=1024 python scripts/out_of_core_smoke.py

Exit code 0 means every assertion held.
"""

import os

# One BLAS thread: thread pools reserve hundreds of MB of address
# space per thread, which would eat the cap before the test starts.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from repro.storage import MmapStore  # noqa: E402
from repro.uncertainty.columnar import DistributionPack  # noqa: E402

CAP_MB = int(os.environ.get("OUT_OF_CORE_CAP_MB", "512"))
SEED = 20080612
BINS = 64
ROW_BLOCK = 8192

#: Evaluation points for the full-corpus sweep (scalar per pass keeps
#: the output at 8·N bytes — the corpus, not the answer, is what must
#: not fit).
SWEEP_XS = (3.0, 11.0, 42.0)


def _cap_address_space() -> int:
    """Apply the RLIMIT_AS cap (no-op if the shell already set a
    tighter one via ``ulimit -v``); returns the effective cap bytes."""
    want = CAP_MB << 20
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY and soft <= want:
        return soft
    resource.setrlimit(resource.RLIMIT_AS, (want, hard))
    return want


def _block_arrays(block: int, n_rows: int) -> dict:
    """Deterministic histogram rows for block ``block`` — regenerable
    at any time from ``(SEED, block)``, so reference data never has to
    stay resident."""
    rng = np.random.default_rng((SEED, block))
    lo = rng.uniform(0.0, 50.0, n_rows)
    widths = rng.uniform(1e-3, 2.0, (n_rows, BINS))
    edges = np.concatenate(
        [lo[:, None], lo[:, None] + np.cumsum(widths, axis=1)], axis=1
    )
    densities = rng.uniform(1e-6, 3.0, (n_rows, BINS))
    mass = densities * widths
    mass /= mass.sum(axis=1)[:, None]
    knots = np.concatenate(
        [np.zeros((n_rows, 1)), np.cumsum(mass, axis=1)], axis=1
    )
    densities = mass / widths
    return {
        "edges": edges,
        "knots": knots,
        "densities": densities,
        "sizes": np.full(n_rows, BINS + 1, dtype=np.int64),
        "totals": knots[:, -1].copy(),
        "near": edges[:, 0].copy(),
        "far": edges[:, -1].copy(),
    }


def _reference_pack(block: int, n_rows: int) -> DistributionPack:
    """Rows of ``block`` as a resident pack, rebuilt from the seed."""
    arrays = _block_arrays(block, n_rows)
    pack = object.__new__(DistributionPack)
    pack._finish(
        arrays["edges"].reshape(-1),
        arrays["knots"].reshape(-1),
        arrays["densities"].reshape(-1),
        arrays["sizes"].astype(np.intp),
    )
    return pack


def build_corpus(target_bytes: int, directory: str | None) -> tuple:
    """Stream blocks to disk until the file exceeds ``target_bytes``."""
    bytes_per_row = 8 * (2 * (BINS + 1) + BINS) + 8 * 4
    n_rows = -(-target_bytes // bytes_per_row)  # ceil
    n_rows = -(-n_rows // ROW_BLOCK) * ROW_BLOCK  # whole blocks
    n_edges = n_rows * (BINS + 1)
    writer = MmapStore.build(
        {
            "edges": (np.float64, (n_edges,)),
            "knots": (np.float64, (n_edges,)),
            "densities": (np.float64, (n_rows * BINS,)),
            "sizes": (np.int64, (n_rows,)),
            "totals": (np.float64, (n_rows,)),
            "near": (np.float64, (n_rows,)),
            "far": (np.float64, (n_rows,)),
        },
        directory=directory,
        page_bytes=1 << 20,
        pool_pages=8,
    )
    try:
        for block in range(n_rows // ROW_BLOCK):
            arrays = _block_arrays(block, ROW_BLOCK)
            for name, chunk in arrays.items():
                writer.append(
                    name, chunk.reshape(-1) if chunk.ndim > 1 else chunk
                )
    except BaseException:
        writer.abort()
        raise
    store = writer.finish()
    return store, n_rows


def check_corpus(store: MmapStore, n_rows: int, cap_bytes: int) -> None:
    nbytes = store.descriptor().nbytes
    assert nbytes > cap_bytes, (
        f"corpus {nbytes >> 20} MiB does not exceed the {cap_bytes >> 20} "
        "MiB cap — the smoke proves nothing"
    )
    print(f"corpus: {n_rows} rows, {nbytes >> 20} MiB on disk "
          f"(cap {cap_bytes >> 20} MiB)", flush=True)

    # The cap is real: a buffer the size of the corpus (which exceeds
    # the cap by construction) cannot be allocated at all.
    try:
        full = np.empty(nbytes, dtype=np.uint8)
    except MemoryError:
        pass
    else:  # pragma: no cover - only on a mis-capped run
        del full
        raise AssertionError(
            "np.empty materialised a corpus-sized buffer — RLIMIT_AS "
            "cap is not in effect"
        )
    print("cap proof: corpus-sized np.empty raises MemoryError", flush=True)

    pack = DistributionPack.from_store(store)
    assert pack.size == n_rows

    # Full-corpus sweeps: every row's cdf at each point, streamed
    # through the window pool.  Output is 8·N bytes per pass.
    store.reset_stats()
    sweeps = [pack.cdf_many(x) for x in SWEEP_XS]
    stats = store.stats()
    assert stats["page_faults"] > stats["pool_pages"], stats
    assert stats["evictions"] > 0, stats
    assert stats["resident_bytes"] <= stats["pool_pages"] * stats["page_bytes"], stats
    print(
        f"sweep: {len(SWEEP_XS)} passes x {n_rows} rows — "
        f"{stats['page_faults']} faults, {stats['evictions']} evictions, "
        f"resident <= {stats['resident_bytes'] >> 20} MiB, "
        f"hit rate {stats['hit_rate']:.3f}",
        flush=True,
    )

    # Spot-check blocks bit for bit against regenerated references.
    n_blocks = n_rows // ROW_BLOCK
    rng = np.random.default_rng(SEED + 1)
    checked = sorted(
        {0, n_blocks // 2, n_blocks - 1}
        | set(map(int, rng.integers(0, n_blocks, 3)))
    )
    xs = np.sort(rng.uniform(-5.0, 200.0, 48))
    for block in checked:
        r0 = block * ROW_BLOCK
        ref = _reference_pack(block, ROW_BLOCK)
        sub = pack.take(np.arange(r0, r0 + ROW_BLOCK))
        got = sub.cdf_many(xs)
        want = ref.cdf_many(xs)
        assert np.array_equal(got, want), f"cdf mismatch in block {block}"
        for x, sweep in zip(SWEEP_XS, sweeps):
            assert np.array_equal(
                sweep[r0 : r0 + ROW_BLOCK], ref.cdf_many(float(x))
            ), f"sweep mismatch in block {block} at x={x}"
    print(f"bit-identity: blocks {checked} match regenerated references",
          flush=True)


def main() -> int:
    cap_bytes = _cap_address_space()
    target = int(cap_bytes * 1.5)
    store, n_rows = build_corpus(
        target, os.environ.get("OUT_OF_CORE_DIR") or None
    )
    try:
        check_corpus(store, n_rows, cap_bytes)
    finally:
        store.close()
    assert not os.path.exists(store.path), "store file survived close()"
    print("out-of-core smoke: OK", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
