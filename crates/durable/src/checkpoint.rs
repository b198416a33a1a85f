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

use crate::error::DurableError;
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
/// structure write-quiescent (the engine's leader lock held) — the walkers
/// it uses are `_locked` operations.
pub(crate) fn encode_checkpoint(hdt: &Hdt, covered_seq: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(&CHECKPOINT_MAGIC);
    bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&covered_seq.to_le_bytes());
    bytes.extend_from_slice(&(hdt.num_vertices() as u64).to_le_bytes());

    let mut spanning: Vec<(u32, u32, u8)> = Vec::new();
    let mut nonspanning: Vec<(u32, u32, u8)> = Vec::new();
    hdt.export_edges_locked(
        |u, v, level| spanning.push((u, v, level)),
        |u, v, level| nonspanning.push((u, v, level)),
    );
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
/// forest, so the build never meets a cycle).
pub(crate) fn restore_into(hdt: &Hdt, data: &CheckpointData) {
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

/// Maps a skippable checkpoint-decode failure into the fatal form, for
/// callers that need a hard error instead of fallback.
#[allow(dead_code)]
pub(crate) fn fatal(path: &Path, detail: String) -> DurableError {
    DurableError::Malformed(format!("checkpoint {}: {detail}", path.display()))
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

    #[test]
    fn encode_decode_round_trip_on_a_live_structure() {
        let hdt = Hdt::new(16);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)] {
            hdt.add_edge_locked(u, v);
        }
        // Force some level promotions so levels are non-trivial.
        for _ in 0..3 {
            hdt.remove_edge_locked(1, 2);
            hdt.add_edge_locked(1, 2);
        }
        let bytes = encode_checkpoint(&hdt, 42);
        let data = decode_checkpoint(&bytes).unwrap();
        assert_eq!(data.covered_seq, 42);
        assert_eq!(data.vertices, 16);
        assert_eq!(data.spanning.len() + data.nonspanning.len(), 7);

        let restored = Hdt::new(16);
        restore_into(&restored, &data);
        for u in 0..16u32 {
            for v in (u + 1)..16 {
                assert_eq!(
                    restored.connected(u, v),
                    hdt.connected(u, v),
                    "({u}, {v}) connectivity diverged after restore"
                );
            }
        }
        // The restored structure serializes to the identical checkpoint.
        assert_eq!(encode_checkpoint(&restored, 42), bytes);
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
