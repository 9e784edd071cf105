//! Line-delimited results journal for resumable studies, plus the
//! durable checksummed **journal v2** framing used by crash-safe
//! consumers (`tsdist serve`'s request log).
//!
//! # v1 — plain NDJSON
//!
//! Every completed cell appends exactly one line to
//! `results/<study>/journal.ndjson`-style plain-text files — one JSON
//! object per line, hand-serialized and hand-parsed (no external
//! crates):
//!
//! ```text
//! {"study":"table5","cell":"MSM [LOOCCV]::synthetic/shape-00","outcome":"ok","seconds":1.25,"accuracy":0.9375,"train_accuracy":0.96875}
//! {"study":"table5","cell":"Chaos(ED)::synthetic/shape-01","outcome":"failed","seconds":0.01,"error":"panicked: chaos: injected panic at call 0"}
//! {"study":"table5","cell":"Slow::synthetic/shape-02","outcome":"timeout","seconds":5.0}
//! ```
//!
//! Accuracies are written with Rust's shortest-round-trip float
//! formatting, so a resumed study reproduces *bit-identical* tables from
//! replayed cells. Loading tolerates corrupt or truncated lines (a study
//! killed mid-append leaves a partial last line); those cells simply
//! re-run. When a cell appears more than once, the last entry wins.
//!
//! # v2 — durable checksummed records
//!
//! v1 tolerates only *trailing* corruption: a torn write or bit flip in
//! the middle of the file silently merges two lines or corrupts one
//! record while the rest still "parse". [`DurableJournal`] frames each
//! payload as
//!
//! ```text
//! [magic b"TSJ2"][len u32 LE][crc32 u32 LE][payload]
//! ```
//!
//! and [`recover_lines`] scans for intact records *anywhere* in the
//! file: a record is accepted only if the magic, a sane length, and the
//! payload CRC all agree, otherwise the scanner resynchronizes on the
//! next magic and counts the skipped region as corrupt. Replay over the
//! surviving records is byte-identical to the writes — the payloads are
//! the exact NDJSON lines v1 would have written.
//!
//! Writers rotate to a new segment file (`<base>`, `<base>.seg2`,
//! `<base>.seg3`, ...) once the active one exceeds the configured size,
//! and flush according to a [`FsyncPolicy`]: `Never` (OS decides),
//! `OnRotate` (each sealed segment is synced), or `EveryN(n)` (sync
//! every n-th append — `EveryN(1)` is classic write-ahead durability).

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::cell::{CellError, CellOutcome, Evaluation};
use crate::wire::{get_num, get_str, json_number, json_string, parse_json_object};

/// One parsed journal line.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Study identifier.
    pub study: String,
    /// Cell key.
    pub cell: String,
    /// Final outcome of the cell ([`CellOutcome::Skipped`] is never
    /// journaled; a failed entry round-trips as
    /// [`CellError::Panicked`] carrying the rendered message).
    pub outcome: CellOutcome,
    /// Wall-clock seconds the cell took.
    pub seconds: f64,
}

impl JournalEntry {
    /// Serializes the entry as one journal line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\"study\":{},\"cell\":{},\"outcome\":\"{}\",\"seconds\":{}",
            json_string(&self.study),
            json_string(&self.cell),
            self.outcome.label(),
            json_number(self.seconds),
        );
        match &self.outcome {
            CellOutcome::Ok(e) => {
                out.push_str(&format!(",\"accuracy\":{}", json_number(e.accuracy)));
                if let Some(t) = e.train_accuracy {
                    out.push_str(&format!(",\"train_accuracy\":{}", json_number(t)));
                }
            }
            CellOutcome::Failed(e) => {
                out.push_str(&format!(",\"error\":{}", json_string(&e.to_string())));
            }
            CellOutcome::TimedOut | CellOutcome::Skipped => {}
        }
        out.push('}');
        out
    }

    /// Parses one journal line.
    pub fn parse(line: &str) -> Result<JournalEntry, String> {
        let fields = parse_json_object(line)?;
        let string = |key: &str| {
            get_str(&fields, key).ok_or_else(|| format!("missing string field {key:?}"))
        };
        let study = string("study")?.to_string();
        let cell = string("cell")?.to_string();
        let seconds = get_num(&fields, "seconds").ok_or("missing number field \"seconds\"")?;
        let outcome = match string("outcome")? {
            "ok" => CellOutcome::Ok(Evaluation {
                accuracy: get_num(&fields, "accuracy").ok_or("ok entry without accuracy")?,
                train_accuracy: get_num(&fields, "train_accuracy"),
            }),
            "failed" => CellOutcome::Failed(CellError::Panicked {
                message: string("error").unwrap_or_default().to_string(),
            }),
            "timeout" => CellOutcome::TimedOut,
            other => return Err(format!("unknown outcome {other:?}")),
        };
        Ok(JournalEntry {
            study,
            cell,
            outcome,
            seconds,
        })
    }
}

/// The entries of a loaded journal plus how many lines failed to parse
/// (e.g. a line truncated by a mid-write kill).
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Parsed entries, in file order.
    pub entries: Vec<JournalEntry>,
    /// Number of unparseable lines that were skipped.
    pub corrupt_lines: usize,
}

/// Reads a journal file; a missing file is an empty replay. Unparseable
/// lines are counted, not fatal — the corresponding cells just re-run.
pub fn read_journal(path: &Path) -> std::io::Result<JournalReplay> {
    let mut replay = JournalReplay::default();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(replay),
        Err(e) => return Err(e),
    };
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match JournalEntry::parse(line) {
            Ok(entry) => replay.entries.push(entry),
            Err(_) => replay.corrupt_lines += 1,
        }
    }
    Ok(replay)
}

/// An append-only journal writer; every append is flushed so a killed
/// process loses at most the line being written.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

impl Journal {
    /// Opens (creating parents and the file as needed) `path` for
    /// appending.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal {
            path,
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one entry and flushes.
    pub fn append(&self, entry: &JournalEntry) -> std::io::Result<()> {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        writeln!(writer, "{}", entry.render())?;
        writer.flush()
    }
}

/// Rewrites the journal at `path` so `study`'s lines for `cells` come in
/// the order of `cells` (a study's grid, entrant-major), after every other
/// line. The sort is stable, so a cell journaled more than once keeps its
/// last entry last and replay is unchanged; no line is added or dropped.
/// Appends land in completion order, which races between cells running in
/// parallel; the rewrite makes a finished study's journal deterministic.
/// The new text goes to a temporary file beside the journal, is synced,
/// and is renamed over it (then the directory is synced), so a crash
/// leaves one whole version.
pub fn rewrite_journal_in_order(path: &Path, study: &str, cells: &[String]) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path)?;
    let rank: std::collections::BTreeMap<&str, usize> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| (cell.as_str(), i + 1))
        .collect();
    let mut lines: Vec<(usize, &str)> = text
        .lines()
        .map(|line| match JournalEntry::parse(line) {
            Ok(entry) if entry.study == study => {
                (rank.get(entry.cell.as_str()).copied().unwrap_or(0), line)
            }
            _ => (0, line),
        })
        .collect();
    lines.sort_by_key(|&(rank, _)| rank);
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = File::create(&tmp)?;
    for (_, line) in &lines {
        writeln!(file, "{line}")?;
    }
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

// ---------------------------------------------------------------------
// Journal v2: durable checksummed records
// ---------------------------------------------------------------------

/// The 4-byte record magic of the v2 framing.
pub const V2_MAGIC: [u8; 4] = *b"TSJ2";

/// Sanity cap the recovery scanner places on a record's claimed payload
/// length; anything larger is treated as a corrupt header.
pub const V2_MAX_RECORD: usize = 64 * 1024 * 1024;

const V2_HEADER: usize = 12; // magic + len + crc

/// The slice-by-8 tables of [`crc32`], built at compile time: `[0]` is
/// the classic bytewise table, and `[k]` advances a byte's contribution
/// past `k` further zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-8: eight bytes
/// per step through eight lookup tables, the tail a byte at a time. No
/// allocation, no external crates.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |w: u32, shift: u32| ((w >> shift) & 0xff) as usize;
    let mut c = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in chunks.remainder() {
        c = t[0][byte(c ^ u32::from(b), 0)] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync; the OS flushes on its own schedule (fastest, loses
    /// the tail of the active segment on power failure).
    Never,
    /// Fsync each segment as it is sealed at rotation.
    OnRotate,
    /// Fsync after every `n`-th append (`EveryN(1)` syncs every record).
    EveryN(u32),
}

impl FsyncPolicy {
    /// Parses a policy spec: `never`, `rotate`, or `every-<n>`.
    pub fn parse(spec: &str) -> Result<FsyncPolicy, String> {
        match spec {
            "never" => Ok(FsyncPolicy::Never),
            "rotate" => Ok(FsyncPolicy::OnRotate),
            other => match other.strip_prefix("every-") {
                Some(n) => n
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n > 0)
                    .map(FsyncPolicy::EveryN)
                    .ok_or_else(|| format!("bad fsync period {n:?}")),
                None => Err(format!(
                    "unknown fsync policy {other:?} (never, rotate, every-<n>)"
                )),
            },
        }
    }
}

/// Tuning of a [`DurableJournal`].
#[derive(Debug, Clone, Copy)]
pub struct DurableConfig {
    /// Rotate to a new segment once the active one exceeds this many
    /// bytes (checked after each append; segments end on record
    /// boundaries).
    pub segment_bytes: u64,
    /// When records reach the disk.
    pub fsync: FsyncPolicy,
}

impl Default for DurableConfig {
    fn default() -> DurableConfig {
        DurableConfig {
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::Never,
        }
    }
}

/// The ordered segment files of a v2 journal at `base`: `<base>`,
/// `<base>.seg2`, `<base>.seg3`, ... — only those that exist.
pub fn v2_segments(base: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if base.exists() {
        out.push(base.to_path_buf());
    }
    let mut i = 2u32;
    loop {
        let seg = segment_path(base, i);
        if !seg.exists() {
            break;
        }
        out.push(seg);
        i += 1;
    }
    out
}

fn segment_path(base: &Path, index: u32) -> PathBuf {
    if index <= 1 {
        base.to_path_buf()
    } else {
        let mut name = base.as_os_str().to_os_string();
        name.push(format!(".seg{index}"));
        PathBuf::from(name)
    }
}

/// Whether the file at `path` starts with the v2 record magic (a cheap
/// format sniff so readers can fall back to v1 NDJSON).
pub fn is_v2_journal(path: &Path) -> bool {
    let mut head = [0u8; 4];
    match File::open(path) {
        Ok(mut f) => f.read_exact(&mut head).is_ok() && head == V2_MAGIC,
        Err(_) => false,
    }
}

/// An append-only v2 journal writer with segment rotation and a
/// configurable fsync policy. Thread-safe: appends serialize on an
/// internal lock, and each record hits the file in one `write_all`.
#[derive(Debug)]
pub struct DurableJournal {
    base: PathBuf,
    config: DurableConfig,
    state: Mutex<DurableState>,
}

#[derive(Debug)]
struct DurableState {
    file: File,
    segment: u32,
    written: u64,
    unsynced: u32,
}

impl DurableJournal {
    /// Opens (creating parents as needed) the journal at `base` for
    /// appending, resuming after the highest existing segment.
    pub fn open(
        base: impl Into<PathBuf>,
        config: DurableConfig,
    ) -> std::io::Result<DurableJournal> {
        let base = base.into();
        if let Some(parent) = base.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let segment = v2_segments(&base).len().max(1) as u32;
        let path = segment_path(&base, segment);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata()?.len();
        Ok(DurableJournal {
            base,
            config,
            state: Mutex::new(DurableState {
                file,
                segment,
                written,
                unsynced: 0,
            }),
        })
    }

    /// The base path (the first segment).
    pub fn base(&self) -> &Path {
        &self.base
    }

    /// Frames `line` as one checksummed record and appends it, applying
    /// the fsync policy and rotating the segment when it is full.
    pub fn append_line(&self, line: &str) -> std::io::Result<()> {
        let payload = line.as_bytes();
        if payload.len() > V2_MAX_RECORD {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("record of {} bytes exceeds V2_MAX_RECORD", payload.len()),
            ));
        }
        let mut record = Vec::with_capacity(V2_HEADER + payload.len());
        record.extend_from_slice(&V2_MAGIC);
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(payload).to_le_bytes());
        record.extend_from_slice(payload);

        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        // Lazy rotation: a segment that crossed the size cap is sealed
        // when the *next* record arrives, so rotation never leaves an
        // empty trailing file behind.
        if state.written >= self.config.segment_bytes {
            if self.config.fsync != FsyncPolicy::Never {
                state.file.sync_data()?;
            }
            state.segment += 1;
            let path = segment_path(&self.base, state.segment);
            state.file = OpenOptions::new().create(true).append(true).open(&path)?;
            state.written = 0;
            state.unsynced = 0;
        }
        state.file.write_all(&record)?;
        state.written += record.len() as u64;
        state.unsynced += 1;
        if let FsyncPolicy::EveryN(n) = self.config.fsync {
            if state.unsynced >= n {
                state.file.sync_data()?;
                state.unsynced = 0;
            }
        }
        Ok(())
    }

    /// Flushes and syncs the active segment.
    pub fn sync(&self) -> std::io::Result<()> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.file.sync_data()
    }
}

/// What [`recover_lines`] found.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DurableReplay {
    /// Payloads of every CRC-intact record, in write order.
    pub lines: Vec<String>,
    /// Number of corrupt regions skipped (each contiguous run of
    /// unusable bytes — a torn write, a bit flip, an interleaved partial
    /// record — counts once).
    pub corrupt_records: usize,
    /// Total bytes the scanner had to skip.
    pub bytes_skipped: u64,
    /// Number of segment files read.
    pub segments: usize,
}

/// Scans every segment of the v2 journal at `base`, returning all
/// CRC-intact record payloads in order. Corruption *anywhere* — not just
/// a torn tail — is skipped and counted: the scanner resynchronizes on
/// the next record magic whose header and payload CRC both validate.
pub fn recover_lines(base: &Path) -> std::io::Result<DurableReplay> {
    let mut replay = DurableReplay::default();
    for segment in v2_segments(base) {
        let bytes = std::fs::read(&segment)?;
        replay.segments += 1;
        scan_segment(&bytes, &mut replay);
    }
    Ok(replay)
}

/// One segment's scan: at each position try to decode a record; on any
/// mismatch advance to the next candidate magic. `in_corruption` tracks
/// whether we are inside a skipped region so a multi-byte gap counts as
/// one corrupt record.
fn scan_segment(bytes: &[u8], replay: &mut DurableReplay) {
    let mut pos = 0usize;
    let mut in_corruption = false;
    while pos < bytes.len() {
        match decode_record(&bytes[pos..]) {
            Some((payload, consumed)) => {
                replay.lines.push(payload);
                pos += consumed;
                in_corruption = false;
            }
            None => {
                if !in_corruption {
                    replay.corrupt_records += 1;
                    in_corruption = true;
                }
                // Resync: jump to the next candidate magic byte, or EOF.
                let next = bytes[pos + 1..]
                    .windows(V2_MAGIC.len())
                    .position(|w| w == V2_MAGIC)
                    .map(|off| pos + 1 + off)
                    .unwrap_or(bytes.len());
                replay.bytes_skipped += (next - pos) as u64;
                pos = next;
            }
        }
    }
}

/// Decodes one record at the start of `bytes`; `None` unless the magic,
/// length bounds, payload CRC, and UTF-8 all validate.
fn decode_record(bytes: &[u8]) -> Option<(String, usize)> {
    if bytes.len() < V2_HEADER || bytes[..4] != V2_MAGIC {
        return None;
    }
    let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    let crc = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if len > V2_MAX_RECORD || bytes.len() < V2_HEADER + len {
        return None;
    }
    let payload = &bytes[V2_HEADER..V2_HEADER + len];
    if crc32(payload) != crc {
        return None;
    }
    match std::str::from_utf8(payload) {
        Ok(text) => Some((text.to_string(), V2_HEADER + len)),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_entry(accuracy: f64, train: Option<f64>) -> JournalEntry {
        JournalEntry {
            study: "s".into(),
            cell: "m::d".into(),
            outcome: CellOutcome::Ok(Evaluation {
                accuracy,
                train_accuracy: train,
            }),
            seconds: 0.25,
        }
    }

    #[test]
    fn ok_entries_roundtrip_bit_exactly() {
        for accuracy in [
            0.0,
            1.0,
            1.0 / 3.0,
            0.123_456_789_012_345_68,
            f64::MIN_POSITIVE,
        ] {
            let entry = ok_entry(accuracy, Some(accuracy / 7.0));
            let back = JournalEntry::parse(&entry.render()).unwrap();
            assert_eq!(back, entry);
            match back.outcome {
                CellOutcome::Ok(e) => {
                    assert_eq!(e.accuracy.to_bits(), accuracy.to_bits());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn rewrite_in_order_sorts_the_study_grid_and_keeps_every_line() {
        let dir = std::env::temp_dir().join(format!("tsdist-rewrite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.ndjson");
        let line = |study: &str, cell: &str, accuracy: f64| {
            let mut entry = ok_entry(accuracy, None);
            entry.study = study.into();
            entry.cell = cell.into();
            entry.render()
        };
        let written = [
            line("s", "b::d2", 0.1),
            line("other", "a::d1", 0.2),
            line("s", "a::d2", 0.3),
            "{\"study\":\"s\",\"cell\"".to_string(),
            line("s", "a::d1", 0.4),
            line("s", "b::d2", 0.5),
        ];
        std::fs::write(&path, written.join("\n") + "\n").unwrap();
        let grid: Vec<String> = ["a::d1", "a::d2", "b::d2"].map(String::from).to_vec();
        rewrite_journal_in_order(&path, "s", &grid).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let got: Vec<&str> = text.lines().collect();
        let want = [
            &written[1],
            &written[3],
            &written[4],
            &written[2],
            &written[0],
            &written[5],
        ];
        assert_eq!(got, want);
        assert!(!dir.join("j.ndjson.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_and_timeout_entries_roundtrip() {
        let failed = JournalEntry {
            study: "s".into(),
            cell: "chaos::\"quoted\"\nname".into(),
            outcome: CellOutcome::Failed(CellError::Panicked {
                message: "boom \\ \"quote\"".into(),
            }),
            seconds: 1.5,
        };
        let back = JournalEntry::parse(&failed.render()).unwrap();
        assert_eq!(back.cell, failed.cell);
        assert!(matches!(back.outcome, CellOutcome::Failed(_)));

        let timeout = JournalEntry {
            study: "s".into(),
            cell: "slow::d".into(),
            outcome: CellOutcome::TimedOut,
            seconds: 5.0,
        };
        assert_eq!(JournalEntry::parse(&timeout.render()).unwrap(), timeout);
    }

    #[test]
    fn corrupt_lines_are_counted_not_fatal() {
        let dir = std::env::temp_dir().join("tsdist_journal_corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.ndjson");
        let good = ok_entry(0.5, None).render();
        std::fs::write(&path, format!("{good}\n{{\"study\":\"s\",\"cel")).unwrap();
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.entries.len(), 1);
        assert_eq!(replay.corrupt_lines, 1);
    }

    #[test]
    fn missing_journal_is_empty() {
        let replay = read_journal(Path::new("/nonexistent/journal.ndjson")).unwrap();
        assert!(replay.entries.is_empty());
        assert_eq!(replay.corrupt_lines, 0);
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_crc() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let buf: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            // The bytewise reference, one byte further per length: its
            // register before the final inversion after `len` bytes.
            let mut c = 0xffff_ffffu32;
            for len in 0..=4096 {
                if len > 0 {
                    let b = buf[start + len - 1];
                    c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
                }
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), c ^ 0xffff_ffff, "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn fsync_policy_specs_parse() {
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(FsyncPolicy::parse("rotate").unwrap(), FsyncPolicy::OnRotate);
        assert_eq!(
            FsyncPolicy::parse("every-8").unwrap(),
            FsyncPolicy::EveryN(8)
        );
        for bad in ["", "always", "every-0", "every-x"] {
            assert!(FsyncPolicy::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn v2_roundtrips_and_rotates_segments() {
        let dir = std::env::temp_dir().join(format!("tsdist_j2_rotate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = dir.join("requests.j2");
        let config = DurableConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::EveryN(2),
        };
        let journal = DurableJournal::open(&base, config).unwrap();
        let lines: Vec<String> = (0..20)
            .map(|i| {
                format!(
                    "{{\"op\":\"query\",\"id\":{i},\"x\":\"{}\"}}",
                    "y".repeat(i)
                )
            })
            .collect();
        for line in &lines {
            journal.append_line(line).unwrap();
        }
        journal.sync().unwrap();
        assert!(
            v2_segments(&base).len() > 1,
            "256-byte segments must rotate"
        );
        assert!(is_v2_journal(&base));

        let replay = recover_lines(&base).unwrap();
        assert_eq!(replay.lines, lines);
        assert_eq!(replay.corrupt_records, 0);
        assert_eq!(replay.bytes_skipped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_reopen_resumes_after_highest_segment() {
        let dir = std::env::temp_dir().join(format!("tsdist_j2_reopen_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = dir.join("j.j2");
        let config = DurableConfig {
            segment_bytes: 64,
            fsync: FsyncPolicy::OnRotate,
        };
        {
            let journal = DurableJournal::open(&base, config).unwrap();
            for i in 0..8 {
                journal.append_line(&format!("first-{i}")).unwrap();
            }
        }
        let segments_before = v2_segments(&base).len();
        {
            let journal = DurableJournal::open(&base, config).unwrap();
            journal.append_line("second").unwrap();
        }
        let replay = recover_lines(&base).unwrap();
        assert_eq!(replay.lines.len(), 9);
        assert_eq!(replay.lines[8], "second");
        assert!(v2_segments(&base).len() >= segments_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_mid_file_corruption_is_skipped_and_counted() {
        let dir = std::env::temp_dir().join(format!("tsdist_j2_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = dir.join("j.j2");
        let journal = DurableJournal::open(&base, DurableConfig::default()).unwrap();
        for i in 0..5 {
            journal.append_line(&format!("record-{i}")).unwrap();
        }
        drop(journal);

        // Flip one payload byte in the middle of the file: exactly that
        // record dies; everything before AND after survives.
        let mut bytes = std::fs::read(&base).unwrap();
        let record = 12 + "record-0".len();
        bytes[2 * record + 12] ^= 0x40; // payload byte of record-2
        std::fs::write(&base, &bytes).unwrap();

        let replay = recover_lines(&base).unwrap();
        assert_eq!(
            replay.lines,
            vec!["record-0", "record-1", "record-3", "record-4"]
        );
        assert_eq!(replay.corrupt_records, 1);
        assert!(replay.bytes_skipped > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_interleaved_partial_record_resyncs() {
        let dir = std::env::temp_dir().join(format!("tsdist_j2_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = dir.join("j.j2");
        let journal = DurableJournal::open(&base, DurableConfig::default()).unwrap();
        journal.append_line("alpha").unwrap();
        journal.append_line("omega").unwrap();
        drop(journal);

        // Simulate a torn write between the two records: a record header
        // whose payload never made it, followed by the intact record.
        let bytes = std::fs::read(&base).unwrap();
        let first = 12 + "alpha".len();
        let mut torn = bytes[..first].to_vec();
        torn.extend_from_slice(&V2_MAGIC);
        torn.extend_from_slice(&999u32.to_le_bytes());
        torn.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        torn.extend_from_slice(b"partial garbage");
        torn.extend_from_slice(&bytes[first..]);
        std::fs::write(&base, &torn).unwrap();

        let replay = recover_lines(&base).unwrap();
        assert_eq!(replay.lines, vec!["alpha", "omega"]);
        assert_eq!(replay.corrupt_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_appends_and_reads_back() {
        let dir = std::env::temp_dir().join("tsdist_journal_append");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sub").join("j.ndjson");
        let journal = Journal::open(&path).unwrap();
        journal.append(&ok_entry(0.75, None)).unwrap();
        journal
            .append(&JournalEntry {
                study: "s".into(),
                cell: "x::y".into(),
                outcome: CellOutcome::TimedOut,
                seconds: 2.0,
            })
            .unwrap();
        let replay = read_journal(&path).unwrap();
        assert_eq!(replay.entries.len(), 2);
        assert_eq!(replay.entries[1].outcome, CellOutcome::TimedOut);
    }
}
