//! Warm-state spill and crash recovery: periodically persist the arena
//! registry next to the graph cache, and reload it on restart so a
//! crashed (or cleanly restarted) server answers its first repeat query
//! with `rr_topup=0` instead of regenerating every RR set.
//!
//! ## Format
//!
//! One little-endian binary file:
//!
//! ```text
//! magic           8 bytes  "UICWSPL2"
//! num_nodes       u32      (must match the resident graph)
//! arena_count     u32
//! per arena:
//!   model_key     u8       (0 = IC, 1 = LT)
//!   seed          u64
//!   num_sets      u64      (offsets.len() - 1)
//!   data_len      u64
//!   total_width   u64
//!   offsets       (num_sets + 1) × u64
//!   data          data_len × u32
//! checksum        u64      uic_util::Checksum of every preceding byte,
//!                          folded as one run
//! ```
//!
//! ## Durability and integrity
//!
//! Writes go to a `tmp-{pid}` sibling and land with an atomic rename,
//! so a crash mid-spill leaves the previous complete file in place. On
//! load, the trailing checksum is verified before anything is decoded
//! and every length is bounds-checked against the actual file, so a
//! torn or corrupt spill (e.g. a crash mid-rename on a filesystem
//! without atomic rename) is detected and reported — the server then
//! falls back to a cold start, which is always correct: the spill is a
//! pure cache, and [`RrCollection::from_warm_parts`] re-validates the
//! CSR invariants on top.
//!
//! A reloaded arena continues the *identical* sample stream: RR set `j`
//! is a pure function of `(model, seed, j)`, so warm-reloaded answers
//! remain bit-identical to cold ones (the chaos suite asserts this
//! across a kill-and-restart).

use crate::engine::Engine;
use crate::shard::{model_key, model_of_key};
use std::io::{self, Write};
use std::path::Path;
use uic_im::RrCollection;
use uic_util::Checksum;

/// The format magic (versioned: bump the trailing digit on change).
pub const SPILL_MAGIC: &[u8; 8] = b"UICWSPL2";

/// What a completed spill wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillStats {
    /// Arenas persisted.
    pub arenas: usize,
    /// RR sets persisted across all arenas.
    pub sets: u64,
    /// File size in bytes.
    pub bytes: usize,
}

/// Serializes every resident warm arena and lands it at `path` via
/// tmp-file + atomic rename. Poisoned arenas are skipped (they will be
/// rebuilt anyway). Counts into `spills_total` on success.
pub fn save(engine: &Engine, path: &Path) -> io::Result<SpillStats> {
    let cells = engine.arenas().cells();
    let mut body = Vec::new();
    body.extend_from_slice(SPILL_MAGIC);
    body.extend_from_slice(&engine.graph().num_nodes().to_le_bytes());
    let count_at = body.len();
    body.extend_from_slice(&0u32.to_le_bytes());
    let mut arenas = 0u32;
    let mut sets = 0u64;
    for cell in &cells {
        let encoded = cell.with_read(|coll| {
            let (offsets, data) = coll.arena_parts();
            let mut buf = Vec::with_capacity(1 + 8 * 4 + offsets.len() * 8 + data.len() * 4);
            buf.push(model_key(coll.model()));
            buf.extend_from_slice(&coll.base_seed().to_le_bytes());
            buf.extend_from_slice(&(coll.len() as u64).to_le_bytes());
            buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
            buf.extend_from_slice(&coll.total_width().to_le_bytes());
            for &o in offsets {
                buf.extend_from_slice(&(o as u64).to_le_bytes());
            }
            for &v in data {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            (buf, coll.len() as u64)
        });
        if let Some((buf, n)) = encoded {
            body.extend_from_slice(&buf);
            arenas += 1;
            sets += n;
        }
    }
    body[count_at..count_at + 4].copy_from_slice(&arenas.to_le_bytes());
    let checksum = Checksum::of(&body);
    body.extend_from_slice(&checksum.to_le_bytes());

    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    let result = (|| -> io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&body)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result?;
    engine.metrics().spills_total.inc();
    Ok(SpillStats {
        arenas: arenas as usize,
        sets,
        bytes: body.len(),
    })
}

/// A bounds-checked little-endian cursor over the spill body.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("spill truncated at byte {}", self.at))?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

/// Loads a spill file and installs every arena whose key is not already
/// resident. Returns the number of arenas restored warm (also counted
/// into `warm_reloaded_arenas`).
///
/// # Errors
/// A typed message for every way the file can be missing, torn, or
/// corrupt — the caller treats any error as "start cold".
pub fn load(engine: &Engine, path: &Path) -> Result<u64, String> {
    uic_util::fail_point!("serve.spill.load", || Err(
        "injected fault: spill load (failpoint `serve.spill.load`)".to_string()
    ));
    let raw = std::fs::read(path).map_err(|e| format!("cannot read spill {path:?}: {e}"))?;
    if raw.len() < SPILL_MAGIC.len() + 4 + 4 + 8 {
        return Err(format!("spill {path:?} too short ({} bytes)", raw.len()));
    }
    // Magic first: a spill from another format version is refused as
    // such, not misreported as a torn write.
    if &raw[..SPILL_MAGIC.len()] != SPILL_MAGIC {
        return Err(format!("spill {path:?} has a foreign magic/version"));
    }
    let (body, tail) = raw.split_at(raw.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    let computed = Checksum::of(body);
    if stored != computed {
        return Err(format!(
            "spill {path:?} checksum mismatch (stored {stored:#x}, computed {computed:#x}): torn or corrupt write"
        ));
    }
    let mut c = Cursor {
        buf: body,
        at: SPILL_MAGIC.len(),
    };
    let num_nodes = c.u32()?;
    if num_nodes != engine.graph().num_nodes() {
        return Err(format!(
            "spill {path:?} was taken over a graph with {num_nodes} nodes; resident graph has {}",
            engine.graph().num_nodes()
        ));
    }
    let arena_count = c.u32()?;
    let mut restored = 0u64;
    for i in 0..arena_count {
        let mk = c.u8()?;
        let model = model_of_key(mk).ok_or_else(|| format!("arena {i}: unknown model key {mk}"))?;
        let seed = c.u64()?;
        let num_sets = c.u64()? as usize;
        let data_len = c.u64()? as usize;
        let total_width = c.u64()?;
        let offsets: Vec<usize> = {
            let n = num_sets
                .checked_add(1)
                .and_then(|n| n.checked_mul(8))
                .ok_or_else(|| format!("arena {i}: offset count overflow"))?;
            c.take(n)?
                .chunks_exact(8)
                .map(|ch| u64::from_le_bytes(ch.try_into().expect("8")) as usize)
                .collect()
        };
        let data: Vec<u32> = {
            let n = data_len
                .checked_mul(4)
                .ok_or_else(|| format!("arena {i}: member count overflow"))?;
            c.take(n)?
                .chunks_exact(4)
                .map(|ch| u32::from_le_bytes(ch.try_into().expect("4")))
                .collect()
        };
        let coll =
            RrCollection::from_warm_parts(num_nodes, model, seed, offsets, data, total_width)
                .map_err(|e| format!("arena {i} (model {mk}, seed {seed}): {e}"))?;
        if engine.arenas().install_warm(coll) {
            restored += 1;
        }
    }
    if c.at != body.len() {
        return Err(format!(
            "spill {path:?} carries {} trailing bytes past the last arena",
            body.len() - c.at
        ));
    }
    engine.metrics().warm_reloaded_arenas.add(restored);
    Ok(restored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uic_im::{DiffusionModel, WarmArena as _};

    fn hub_graph() -> Arc<uic_graph::Graph> {
        let mut b = uic_graph::GraphBuilder::new(30);
        for leaf in 2..20u32 {
            b.add_edge(0, leaf, 0.6);
        }
        for leaf in 20..28u32 {
            b.add_edge(1, leaf, 0.6);
        }
        Arc::new(b.build(uic_graph::Weighting::AsGiven, 0))
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("uic-spill-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("warm.spill")
    }

    fn warmed_engine() -> Engine {
        let engine = Engine::new(hub_graph());
        let g = engine.graph().clone();
        for seed in [7u64, 9] {
            engine
                .arenas()
                .checkout(&g, DiffusionModel::IC, seed)
                .prepare(&g, 64)
                .unwrap();
        }
        engine
    }

    #[test]
    fn spill_round_trips_warm_and_stream_continues() {
        let path = temp_path("roundtrip");
        let engine = warmed_engine();
        let stats = save(&engine, &path).unwrap();
        assert_eq!((stats.arenas, stats.sets), (2, 128));
        assert_eq!(engine.metrics().spills_total.get(), 1);

        let restarted = Engine::new(hub_graph());
        let restored = load(&restarted, &path).unwrap();
        assert_eq!(restored, 2);
        assert_eq!(restarted.metrics().warm_reloaded_arenas.get(), 2);
        assert_eq!(restarted.arena_sets_total(), 128);

        // The reloaded arena serves the same prefix with zero top-up …
        let g = restarted.graph().clone();
        let h = restarted.arenas().checkout(&g, DiffusionModel::IC, 7);
        h.prepare(&g, 64).unwrap();
        assert_eq!(h.topup(), 0, "warm reload must not regenerate");
        // … and growing past it continues the identical sample stream.
        h.prepare(&g, 96).unwrap();
        let fresh = Engine::new(hub_graph());
        let g2 = fresh.graph().clone();
        let cold = fresh.arenas().checkout(&g2, DiffusionModel::IC, 7);
        cold.prepare(&g2, 96).unwrap();
        let warm_parts = h.read(|c| {
            let (o, d) = c.arena_parts();
            (o.to_vec(), d.to_vec())
        });
        let cold_parts = cold.read(|c| {
            let (o, d) = c.arena_parts();
            (o.to_vec(), d.to_vec())
        });
        assert_eq!(
            warm_parts, cold_parts,
            "stream must continue bit-identically"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_keys_are_not_overwritten_on_load() {
        let path = temp_path("duplicate");
        let engine = warmed_engine();
        save(&engine, &path).unwrap();
        // A restarted engine that already rebuilt seed 7 keeps it.
        let restarted = Engine::new(hub_graph());
        let g = restarted.graph().clone();
        restarted
            .arenas()
            .checkout(&g, DiffusionModel::IC, 7)
            .prepare(&g, 16)
            .unwrap();
        let restored = load(&restarted, &path).unwrap();
        assert_eq!(restored, 1, "only the absent arena (seed 9) installs");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_and_corrupt_spills_are_detected() {
        let path = temp_path("torn");
        let engine = warmed_engine();
        let stats = save(&engine, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        assert_eq!(good.len(), stats.bytes);

        // Truncation (torn write).
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let err = load(&Engine::new(hub_graph()), &path).unwrap_err();
        assert!(
            err.contains("checksum mismatch") || err.contains("too short"),
            "{err}"
        );

        // Single flipped byte deep in an arena body.
        let mut evil = good.clone();
        evil[good.len() / 2] ^= 0x40;
        std::fs::write(&path, &evil).unwrap();
        let err = load(&Engine::new(hub_graph()), &path).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");

        // A spill in the previous format (magic `UICWSPL1`, trailing
        // FNV-1a) is refused as foreign, whatever its body holds.
        let mut previous = good[..good.len() - 8].to_vec();
        previous[..8].copy_from_slice(b"UICWSPL1");
        let fnv = uic_util::fnv1a64(&previous);
        previous.extend_from_slice(&fnv.to_le_bytes());
        std::fs::write(&path, &previous).unwrap();
        let err = load(&Engine::new(hub_graph()), &path).unwrap_err();
        assert!(err.contains("foreign magic"), "{err}");

        // A valid file for a different graph is refused.
        std::fs::write(&path, &good).unwrap();
        let other = Engine::new(Arc::new(
            uic_graph::GraphBuilder::new(5).build(uic_graph::Weighting::AsGiven, 0),
        ));
        let err = load(&other, &path).unwrap_err();
        assert!(err.contains("nodes"), "{err}");

        // Missing file: an error, not a panic.
        std::fs::remove_file(&path).unwrap();
        assert!(load(&Engine::new(hub_graph()), &path).is_err());
    }

    #[test]
    fn a_cold_engine_spills_an_empty_but_loadable_file() {
        let path = temp_path("empty");
        let engine = Engine::new(hub_graph());
        let stats = save(&engine, &path).unwrap();
        assert_eq!(stats.arenas, 0);
        assert_eq!(load(&Engine::new(hub_graph()), &path).unwrap(), 0);
        std::fs::remove_file(&path).ok();
    }
}
