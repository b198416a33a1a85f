//! Checkpoints: a full structural snapshot, written atomically.
//!
//! A checkpoint file freezes the spanning forest and the non-spanning
//! adjacency levels — everything `Hdt::bulk_build_levels` needs to
//! rebuild the structure, in linear time, without replaying history. Recovery then only
//! replays the WAL *tail* past the checkpoint's `covered_seq`.
//!
//! # Format (version 1), file `ck-NNNNNNNNNNNNNNNN.dcc`
//!
//! The file-name number is `covered_seq` (zero-padded decimal), so sorting
//! names newest-first is sorting checkpoints newest-first without opening
//! them.
//!
//! ```text
//! magic        b"DCCK"          (4 bytes)
//! version      u16 LE           (currently 1)
//! covered_seq  u64 LE           (all batches with seq ≤ this are included)
//! vertices     u64 LE
//! spanning     varint count, then per edge: varint u, varint v, u8 level
//! nonspanning  varint count, same shape
//! checksum     u64 LE           (FNV-1a of every preceding byte)
//! ```
//!
//! Atomicity: the bytes are written to `<name>.tmp`, synced, then renamed
//! into place. Recovery ignores `.tmp` files, so a crash anywhere during a
//! checkpoint leaves the previous checkpoint authoritative. A checkpoint
//! that fails validation (torn, flipped bit) is *skipped*, not fatal — an
//! older checkpoint plus more WAL replay reconstructs the same state.

use crate::fault::DurableFs;
use dc_sync::wire::{self, Fnv64};
use dynconn::Hdt;
use std::io;
use std::path::{Path, PathBuf};

/// Checkpoint format version.
pub const CHECKPOINT_VERSION: u16 = 1;

pub(crate) const CHECKPOINT_MAGIC: [u8; 4] = *b"DCCK";

/// Checkpoint file name for a covered sequence number.
pub(crate) fn checkpoint_file_name(covered_seq: u64) -> String {
    format!("ck-{covered_seq:016}.dcc")
}

/// Parses `covered_seq` back out of a checkpoint file name.
pub(crate) fn parse_checkpoint_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("ck-")?.strip_suffix(".dcc")?;
    if stem.len() < 16 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// Serializes the live structure into checkpoint bytes. Must run with the
/// structure write-quiescent (the engine's leader lock held) — the export
/// it uses is a `_locked` operation.
pub(crate) fn encode_checkpoint(hdt: &Hdt, covered_seq: u64) -> Vec<u8> {
    let tree_edges = hdt.forest(0).num_tree_edges();
    let mut spanning = Vec::with_capacity(tree_edges);
    let mut nonspanning = Vec::with_capacity(hdt.num_edges().saturating_sub(tree_edges));
    hdt.export_edges_locked(
        |u, v, level| spanning.push((u, v, level)),
        |u, v, level| nonspanning.push((u, v, level)),
    );
    // Header, two counts and checksum, plus per edge a level byte and two
    // vertex-id varints, each no longer than the largest id's.
    let vertices = hdt.num_vertices() as u64;
    let id_len = wire::varint_encode(vertices.saturating_sub(1)).1;
    let edges = spanning.len() + nonspanning.len();
    let mut bytes =
        Vec::with_capacity(22 + 2 * wire::MAX_VARINT_LEN + edges * (2 * id_len + 1) + 8);
    bytes.extend_from_slice(&CHECKPOINT_MAGIC);
    bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&covered_seq.to_le_bytes());
    bytes.extend_from_slice(&vertices.to_le_bytes());
    for class in [&spanning, &nonspanning] {
        wire::push_varint(&mut bytes, class.len() as u64);
        for &(u, v, level) in class.iter() {
            wire::push_varint(&mut bytes, u as u64);
            wire::push_varint(&mut bytes, v as u64);
            bytes.push(level);
        }
    }
    let checksum = Fnv64::hash(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Writes a checkpoint atomically: `<name>.tmp`, sync, rename.
pub(crate) fn write_checkpoint(
    fs: &dyn DurableFs,
    dir: &Path,
    hdt: &Hdt,
    covered_seq: u64,
) -> io::Result<PathBuf> {
    let bytes = encode_checkpoint(hdt, covered_seq);
    let final_path = dir.join(checkpoint_file_name(covered_seq));
    let tmp_path = dir.join(format!("{}.tmp", checkpoint_file_name(covered_seq)));
    {
        let mut writer = fs.create(&tmp_path)?;
        writer.write_all(&bytes)?;
        writer.sync()?;
    }
    fs.rename(&tmp_path, &final_path)?;
    Ok(final_path)
}

/// A decoded, validated checkpoint.
pub(crate) struct CheckpointData {
    pub(crate) covered_seq: u64,
    pub(crate) vertices: u64,
    pub(crate) spanning: Vec<(u32, u32, u8)>,
    pub(crate) nonspanning: Vec<(u32, u32, u8)>,
}

/// Decodes checkpoint bytes, validating structure and checksum. Any failure
/// is reported as a skippable error string (the caller falls back to an
/// older checkpoint or a full replay).
pub(crate) fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointData, String> {
    if bytes.len() < 22 + 8 {
        return Err("truncated header".into());
    }
    if bytes[0..4] != CHECKPOINT_MAGIC {
        return Err("bad magic".into());
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != CHECKPOINT_VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let body_end = bytes.len() - 8;
    let expect = Fnv64::hash(&bytes[..body_end]);
    let found = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
    if expect != found {
        return Err(format!(
            "checksum mismatch: computed {expect:#018x}, stored {found:#018x}"
        ));
    }
    let covered_seq = u64::from_le_bytes(bytes[6..14].try_into().unwrap());
    let vertices = u64::from_le_bytes(bytes[14..22].try_into().unwrap());
    let mut pos = 22usize;
    let read_class = |pos: &mut usize| -> Result<Vec<(u32, u32, u8)>, String> {
        let n = wire::varint_decode_slice(&bytes[..body_end], pos)
            .ok_or_else(|| "truncated edge count".to_string())?;
        if n > ((body_end - *pos) / 3) as u64 {
            return Err(format!("edge count {n} exceeds file size"));
        }
        let mut edges = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let u = wire::varint_decode_slice(&bytes[..body_end], pos)
                .ok_or_else(|| "truncated edge".to_string())?;
            let v = wire::varint_decode_slice(&bytes[..body_end], pos)
                .ok_or_else(|| "truncated edge".to_string())?;
            if *pos >= body_end {
                return Err("truncated level byte".into());
            }
            let level = bytes[*pos];
            *pos += 1;
            if u == v || u >= vertices || v >= vertices {
                return Err(format!("invalid edge ({u}, {v})"));
            }
            edges.push((u as u32, v as u32, level));
        }
        Ok(edges)
    };
    let spanning = read_class(&mut pos)?;
    let nonspanning = read_class(&mut pos)?;
    if pos != body_end {
        return Err(format!(
            "{} trailing bytes after edge lists",
            body_end - pos
        ));
    }
    Ok(CheckpointData {
        covered_seq,
        vertices,
        spanning,
        nonspanning,
    })
}

/// Restores a decoded checkpoint into a fresh structure with the bulk
/// builder: every edge at its recorded level, each level's forest built
/// once from the spanning edges of that level or higher (which form a
/// forest, so the build never meets a cycle). Both lists are first sorted
/// by `(u, v)` in place: the export writes them in hash order, and the
/// builders run faster over edges in vertex order.
pub(crate) fn restore_into(hdt: &Hdt, data: &mut CheckpointData) {
    data.spanning.sort_unstable_by_key(|&(u, v, _)| (u, v));
    data.nonspanning.sort_unstable_by_key(|&(u, v, _)| (u, v));
    hdt.bulk_build_levels(&data.spanning, &data.nonspanning);
}

/// Lists checkpoint files in `dir`, newest (highest `covered_seq`) first,
/// plus the count of leftover `.tmp` files (ignored by recovery, reported).
pub(crate) fn list_checkpoints(dir: &Path) -> io::Result<(Vec<(u64, PathBuf)>, usize)> {
    let mut checkpoints = Vec::new();
    let mut tmp_ignored = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if name.starts_with("ck-") && name.ends_with(".tmp") {
                tmp_ignored += 1;
            } else if let Some(seq) = parse_checkpoint_file_name(name) {
                checkpoints.push((seq, entry.path()));
            }
        }
    }
    checkpoints.sort_by_key(|c| std::cmp::Reverse(c.0));
    Ok((checkpoints, tmp_ignored))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_file_names_round_trip() {
        assert_eq!(checkpoint_file_name(7), "ck-0000000000000007.dcc");
        assert_eq!(
            parse_checkpoint_file_name("ck-0000000000000007.dcc"),
            Some(7)
        );
        assert_eq!(
            parse_checkpoint_file_name("ck-0000000000000007.dcc.tmp"),
            None
        );
        assert_eq!(parse_checkpoint_file_name("wal-00000001.dcw"), None);
    }

    /// Every decoded edge as `(u, v, spanning, level)`, sorted.
    fn edge_set(data: &CheckpointData) -> Vec<(u32, u32, bool, u8)> {
        let spanning = data.spanning.iter().map(|&(u, v, l)| (u, v, true, l));
        let nonspanning = data.nonspanning.iter().map(|&(u, v, l)| (u, v, false, l));
        let mut all: Vec<_> = spanning.chain(nonspanning).collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn encode_decode_round_trip_on_a_live_structure() {
        // Sampling off: the failed replacement searches below promote.
        let hdt = Hdt::with_sampling(16, 0);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)] {
            hdt.add_edge_locked(u, v);
        }
        for _ in 0..3 {
            hdt.remove_edge_locked(1, 2);
            hdt.add_edge_locked(1, 2);
        }
        let bytes = encode_checkpoint(&hdt, 42);
        let mut data = decode_checkpoint(&bytes).unwrap();
        assert_eq!(data.covered_seq, 42);
        assert_eq!(data.vertices, 16);
        assert_eq!(data.spanning.len() + data.nonspanning.len(), 7);
        let edges = edge_set(&data);
        assert!(
            edges.iter().any(|e| e.3 >= 1),
            "no edge was promoted: {edges:?}"
        );

        let restored = Hdt::new(16);
        restore_into(&restored, &mut data);
        restored.validate();
        for u in 0..16u32 {
            for v in (u + 1)..16 {
                assert_eq!(
                    restored.connected(u, v),
                    hdt.connected(u, v),
                    "({u}, {v}) connectivity diverged after restore"
                );
            }
        }
        let again = decode_checkpoint(&encode_checkpoint(&restored, 42)).unwrap();
        assert_eq!(edge_set(&again), edges);
    }

    /// The restore fixed point is a set: a restored structure exports the
    /// same `(edge, class, level)` set it was built from, though in an
    /// order of its own. Churn with sampling off climbs a few levels.
    #[test]
    fn a_restored_multi_level_structure_exports_the_same_edge_set() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const N: u32 = 4096;
        const COMMUNITY: u32 = 16;
        let mut rng = StdRng::seed_from_u64(9);
        let live = Hdt::with_sampling(N as usize, 0);
        for base in (0..N).step_by(COMMUNITY as usize) {
            for u in base..base + COMMUNITY {
                for v in u + 1..base + COMMUNITY {
                    if rng.gen_range(0..2) == 0 {
                        live.add_edge_locked(u, v);
                    }
                }
            }
        }
        let mut updates = 0;
        while live.materialized_forest_levels() < 3 {
            let base = rng.gen_range(0..N / COMMUNITY) * COMMUNITY;
            let (u, v) = (
                base + rng.gen_range(0..COMMUNITY),
                base + rng.gen_range(0..COMMUNITY),
            );
            if !live.remove_edge_locked(u, v) {
                live.add_edge_locked(u, v);
            }
            updates += 1;
            assert!(updates < 200_000, "churn never reached level 2");
        }

        let mut first = decode_checkpoint(&encode_checkpoint(&live, 7)).unwrap();
        let edges = edge_set(&first);
        assert!(
            edges.iter().any(|e| e.2 && e.3 >= 2),
            "no spanning edge at level 2"
        );
        let restored = Hdt::new(N as usize);
        restore_into(&restored, &mut first);
        restored.validate();
        let second = decode_checkpoint(&encode_checkpoint(&restored, 7)).unwrap();
        assert_eq!(edge_set(&second), edges);
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let hdt = Hdt::new(8);
        hdt.add_edge_locked(0, 1);
        hdt.add_edge_locked(1, 2);
        hdt.add_edge_locked(0, 2);
        let bytes = encode_checkpoint(&hdt, 5);
        assert!(decode_checkpoint(&bytes).is_ok());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(decode_checkpoint(&corrupt).is_err(), "flip at byte {i}");
        }
        for cut in 0..bytes.len() {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
