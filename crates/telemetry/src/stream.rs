//! Streaming JSONL sink, and the writer of the one trace file format: a
//! [`HEADER`] line, then every completed record as one JSON line, so long
//! `experiments` runs can be traced without holding the trace in memory,
//! and a crashed run still leaves a readable (partial) trace behind.
//! [`Trace::parse_jsonl`] reads it back.
//!
//! Architecture: the recording side (called under the global telemetry
//! mutex, on whatever thread a span closes) does **no I/O and no
//! serialisation** — it pushes the record into a small batch buffer and,
//! every [`BATCH`] records (or after [`MAX_BATCH_DELAY`] of quiet), sends
//! the batch over a bounded [`std::sync::mpsc::sync_channel`]. Batching is
//! what keeps the recording side cheap: an un-batched send to an idle
//! channel wakes the blocked writer thread every time (a context switch per
//! record — measured at ~90% overhead on a real tuning run), while one
//! wakeup per 64 records is noise. A dedicated writer thread drains the
//! channel, serialises each batch into a reused string buffer (direct
//! pushes, no per-record allocation tree — the writer competes with the
//! traced program for cores), and writes through a [`BufWriter`]; it
//! flushes whenever the channel runs
//! empty, so `tail`ing the file during a run shows records within one
//! batch + drain-cycle of real time. The channel bound turns a
//! pathologically slow disk into backpressure on the traced program instead
//! of unbounded queue growth.
//!
//! Dropping the sink closes the channel, joins the writer, and flushes —
//! [`crate::disable`] returns the boxed sink, so `drop(disable())` is the
//! "finish the trace file" idiom. Write errors are deferred to drop (the
//! recording path has no way to surface them) and reported on stderr.

use crate::{EventRecord, Record, SpanRecord, TelemetrySink, Trace};
use citroen_rt::json::escape_into;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Records per channel message: one writer wakeup amortises over this many.
const BATCH: usize = 64;
/// A partial batch is sent anyway once this much time has passed since the
/// last send, so a quiet run still reaches the file promptly (liveness for
/// `tail`); the check costs one `Instant` comparison per record.
const MAX_BATCH_DELAY: Duration = Duration::from_millis(50);
/// Queue bound between the recording side and the writer thread, in
/// batches (× [`BATCH`] records).
const CHANNEL_BOUND: usize = 64;
/// The first line of every trace file (and of every rotated generation).
pub(crate) const HEADER: &str = "{\"t\":\"meta\",\"version\":1}\n";

impl Record<'_> {
    /// Serialise as one JSONL line (newline included): the only trace
    /// encoder. Built by direct string pushes rather than a `Value` tree:
    /// the writer thread shares the host's cores with the traced program
    /// (on a single-core host it *is* stolen compute time), so skipping the
    /// per-record allocation tree measurably lowers the streaming overhead
    /// the `micro --stream-gate` pins.
    pub(crate) fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Record::Span(s) => {
                out.push_str("{\"t\":\"span\",\"id\":");
                let _ = write!(out, "{}", s.id);
                out.push_str(",\"parent\":");
                let _ = write!(out, "{}", s.parent);
                out.push_str(",\"name\":\"");
                escape_into(&s.name, out);
                out.push_str("\",\"thread\":");
                let _ = write!(out, "{}", s.thread);
                out.push_str(",\"start_ns\":");
                let _ = write!(out, "{}", s.start_ns);
                out.push_str(",\"dur_ns\":");
                let _ = write!(out, "{}", s.dur_ns);
                out.push('}');
            }
            Record::Event(e) => {
                out.push_str("{\"t\":\"event\",\"name\":\"");
                escape_into(&e.name, out);
                out.push_str("\",\"span\":");
                let _ = write!(out, "{}", e.span);
                out.push_str(",\"thread\":");
                let _ = write!(out, "{}", e.thread);
                out.push_str(",\"at_ns\":");
                let _ = write!(out, "{}", e.at_ns);
                out.push_str(",\"fields\":{");
                for (i, (k, v)) in e.fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    let _ = write!(out, "{}", v);
                }
                out.push_str("}}");
            }
            Record::Counter(name, delta) => {
                out.push_str("{\"t\":\"counter\",\"name\":\"");
                escape_into(name, out);
                out.push_str("\",\"delta\":");
                let _ = write!(out, "{}", delta);
                out.push('}');
            }
            Record::Value(name, value) => {
                out.push_str("{\"t\":\"value\",\"name\":\"");
                escape_into(name, out);
                out.push_str("\",\"value\":");
                let _ = write!(out, "{}", value);
                out.push('}');
            }
        }
        out.push('\n');
    }
}

/// The writer thread's output target: the live file plus size-cap rotation
/// bookkeeping. With a byte cap, the file is rotated shift-style before a
/// record that would push it past the cap: `FILE.1` becomes `FILE.2`
/// (overwriting it), the live file becomes `FILE.1`, and a fresh live file
/// opens with its own `meta` header — so every generation parses on its own
/// and total disk usage is bounded by ~3 × cap however long the run is.
struct RotatingFile {
    out: BufWriter<File>,
    path: PathBuf,
    /// Rotate before a record that would push the file past this many bytes.
    cap: Option<u64>,
    /// Bytes written to the current generation, `meta` header included.
    written: u64,
    /// Size of the header alone — a generation holding no records yet is
    /// never rotated (rotating it would loop without making room).
    header: u64,
}

impl RotatingFile {
    fn create(path: PathBuf, cap: Option<u64>) -> io::Result<RotatingFile> {
        let (out, header) = RotatingFile::open(&path)?;
        Ok(RotatingFile { out, path, cap, written: header, header })
    }

    /// Create/truncate `path` and write the [`HEADER`] line, returning the
    /// writer and the header size.
    fn open(path: &Path) -> io::Result<(BufWriter<File>, u64)> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(HEADER.as_bytes())?;
        out.flush()?;
        Ok((out, HEADER.len() as u64))
    }

    /// The sibling path `FILE.n`.
    fn generation(&self, n: u32) -> PathBuf {
        let mut name = self.path.as_os_str().to_os_string();
        name.push(format!(".{n}"));
        PathBuf::from(name)
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.out.flush()?;
        let (p1, p2) = (self.generation(1), self.generation(2));
        // `.1 -> .2` may fail only because no `.1` exists yet; the live
        // rename and reopen below are the ones that must succeed.
        let _ = std::fs::rename(&p1, &p2);
        std::fs::rename(&self.path, &p1)?;
        let (out, header) = RotatingFile::open(&self.path)?;
        self.out = out;
        self.written = header;
        Ok(())
    }

    /// Write `bytes` (one or more whole JSONL lines), rotating first when a
    /// cap is set and the write would overflow it. Records are never torn
    /// across generations; a single record larger than the cap still goes
    /// out in one piece.
    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        if let Some(cap) = self.cap {
            if self.written > self.header && self.written + bytes.len() as u64 > cap {
                self.rotate()?;
            }
        }
        self.written += bytes.len() as u64;
        self.out.write_all(bytes)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// A [`TelemetrySink`] that streams records to a JSONL file through a
/// dedicated writer thread. Install with [`crate::install`] (or the
/// [`crate::enable_stream`] shorthand); finish the file by dropping the sink
/// (`drop(citroen_telemetry::disable())`).
pub struct StreamSink {
    tx: Option<SyncSender<Vec<Record<'static>>>>,
    writer: Option<JoinHandle<io::Result<u64>>>,
    /// Pending records not yet sent (fewer than a batch, recent).
    buf: Vec<Record<'static>>,
    /// When the last batch was sent (drives the liveness flush).
    last_send: Instant,
    /// Records dropped because the writer died mid-run (write error).
    lost: u64,
}

impl StreamSink {
    /// Create (truncating) `path` and start the writer thread. The `meta`
    /// header line is written before this returns an `Ok`, so an empty run
    /// still yields a parseable trace.
    pub fn create(path: impl AsRef<Path>) -> io::Result<StreamSink> {
        StreamSink::create_with_cap(path, None)
    }

    /// [`create`](StreamSink::create) with an optional byte cap: once the
    /// live file would exceed `cap` bytes, it is rotated to `FILE.1`
    /// (pushing any previous `FILE.1` to `FILE.2`) and a fresh header-bearing
    /// file takes its place. Bounds the disk footprint of arbitrarily long
    /// runs at roughly three caps while keeping the most recent records.
    pub fn create_with_cap(path: impl AsRef<Path>, cap: Option<u64>) -> io::Result<StreamSink> {
        let out = RotatingFile::create(path.as_ref().to_path_buf(), cap)?;
        let (tx, rx) = mpsc::sync_channel(CHANNEL_BOUND);
        let writer = std::thread::Builder::new()
            .name("citroen-stream-sink".into())
            .spawn(move || writer_loop(rx, out))?;
        Ok(StreamSink {
            tx: Some(tx),
            writer: Some(writer),
            buf: Vec::with_capacity(BATCH),
            last_send: Instant::now(),
            lost: 0,
        })
    }

    fn send(&mut self, rec: Record<'static>) {
        self.buf.push(rec);
        if self.buf.len() >= BATCH || self.last_send.elapsed() >= MAX_BATCH_DELAY {
            self.send_batch();
        }
    }

    fn send_batch(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let batch = std::mem::replace(&mut self.buf, Vec::with_capacity(BATCH));
        // A send can only fail if the writer thread died on a write error;
        // count the loss and let drop report the underlying cause.
        if let Some(tx) = &self.tx {
            if tx.send(batch).is_err() {
                self.lost += 1;
            }
        }
        self.last_send = Instant::now();
    }

    /// Close the channel, join the writer, and return the number of record
    /// lines it wrote (not counting the `meta` header). Called by drop; only
    /// needed directly by tests and tools that want the count or the error.
    pub fn finish(&mut self) -> io::Result<u64> {
        self.send_batch();
        drop(self.tx.take());
        let lines = match self.writer.take() {
            Some(h) => h
                .join()
                .map_err(|_| io::Error::other("stream-sink writer thread panicked"))??,
            None => 0,
        };
        if self.lost > 0 {
            return Err(io::Error::other(format!(
                "stream sink lost {} records after a write error",
                self.lost
            )));
        }
        Ok(lines)
    }
}

impl Drop for StreamSink {
    fn drop(&mut self) {
        if self.writer.is_some() || self.lost > 0 || !self.buf.is_empty() {
            if let Err(e) = self.finish() {
                eprintln!("citroen-telemetry: stream sink: {e}");
            }
        }
    }
}

impl TelemetrySink for StreamSink {
    fn record_span(&mut self, rec: SpanRecord) {
        self.send(Record::Span(rec));
    }
    fn add_counter(&mut self, name: &str, delta: u64) {
        self.send(Record::Counter(name.to_owned().into(), delta));
    }
    fn record_value(&mut self, name: &str, value: u64) {
        self.send(Record::Value(name.to_owned().into(), value));
    }
    fn record_event(&mut self, rec: EventRecord) {
        self.send(Record::Event(rec));
    }
    fn take_trace(&mut self) -> Option<Trace> {
        None // the trace lives in the file; replay with `Trace::parse_jsonl`
    }
}

/// The writer thread: block for the next batch, then opportunistically
/// drain whatever else is queued, flushing each time the channel runs dry.
/// Uncapped, each batch is serialised into one reused `String` and written
/// with a single `write_all`; with a byte cap the records go out one at a
/// time instead, so the rotation point is checked per record and each
/// generation honours the cap tightly (capped streams are a debugging
/// configuration — the extra write calls are an accepted cost there). Exits
/// when every sender is gone (sink dropped) or on the first write error
/// (which `finish` surfaces).
fn writer_loop(rx: Receiver<Vec<Record<'static>>>, mut out: RotatingFile) -> io::Result<u64> {
    let mut lines = 0u64;
    let mut buf = String::with_capacity(16 * 1024);
    let capped = out.cap.is_some();
    let mut write_batch = |out: &mut RotatingFile, batch: Vec<Record<'static>>| -> io::Result<()> {
        buf.clear();
        for rec in &batch {
            rec.write_jsonl(&mut buf);
            lines += 1;
            if capped {
                out.write(buf.as_bytes())?;
                buf.clear();
            }
        }
        out.write(buf.as_bytes())
    };
    while let Ok(batch) = rx.recv() {
        write_batch(&mut out, batch)?;
        loop {
            match rx.try_recv() {
                Ok(batch) => write_batch(&mut out, batch)?,
                Err(TryRecvError::Empty) => {
                    out.flush()?;
                    break;
                }
                Err(TryRecvError::Disconnected) => {
                    out.flush()?;
                    return Ok(lines);
                }
            }
        }
    }
    out.flush()?;
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests use the sink directly (no global install), so they need no
    // serialising lock.

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("citroen-stream-{}-{}", std::process::id(), name));
        p
    }

    /// Every record kind survives the file unchanged, escaping-hostile
    /// names (newline, quote, tab, control character, non-ASCII) and
    /// `u64::MAX` fields included.
    #[test]
    fn streams_records_and_replays_to_equal_trace() {
        let path = tmp("roundtrip.jsonl");
        let mut sink = StreamSink::create(&path).unwrap();
        let span = SpanRecord {
            id: 7,
            parent: 1,
            name: "nasty\n\"span\"\té \u{1}".into(),
            thread: 2,
            start_ns: 5,
            dur_ns: u64::MAX,
        };
        let event = EventRecord {
            name: "progress \"x\"\t\u{1}é".into(),
            span: 7,
            thread: 2,
            at_ns: 9,
            fields: vec![("iter".into(), 0), ("best\nns é".into(), u64::MAX)],
        };
        sink.record_span(span.clone());
        sink.add_counter("c\nx", 2);
        sink.add_counter("c\nx", 3);
        sink.add_counter("\"max\"", u64::MAX);
        sink.record_value("h\té", 17);
        sink.record_value("h\té", u64::MAX);
        sink.record_event(event.clone());
        assert_eq!(sink.finish().unwrap(), 7);
        drop(sink);

        let text = std::fs::read_to_string(&path).unwrap();
        let t = Trace::parse_jsonl(&text).unwrap();
        assert_eq!(t.spans, vec![span]);
        assert_eq!(t.events, vec![event]);
        assert_eq!(t.counters["c\nx"], 5);
        assert_eq!(t.counters["\"max\""], u64::MAX);
        let mut h = crate::Histogram::new();
        h.record(17);
        h.record(u64::MAX);
        assert_eq!(t.hists["h\té"], h);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_sink_leaves_parseable_header() {
        let path = tmp("empty.jsonl");
        drop(StreamSink::create(&path).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let t = Trace::parse_jsonl(&text).unwrap();
        assert!(t.spans.is_empty() && t.counters.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiny_cap_rotates_and_every_generation_parses() {
        let path = tmp("rotate.jsonl");
        let mut sink = StreamSink::create_with_cap(&path, Some(256)).unwrap();
        for i in 0..200u64 {
            sink.record_value("spin", i);
        }
        assert_eq!(sink.finish().unwrap(), 200);
        drop(sink);

        // The live file and both rotated generations exist, each starts with
        // its own meta header (parses standalone), and each honours the cap.
        let mut survivors = 0u64;
        for p in [path.clone(), suffixed(&path, 1), suffixed(&path, 2)] {
            let text = std::fs::read_to_string(&p)
                .unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            assert!(text.len() as u64 <= 256, "{}: {} bytes over cap", p.display(), text.len());
            let t = Trace::parse_jsonl(&text).unwrap();
            survivors += t.hists.get("spin").map_or(0, |h| h.count);
            std::fs::remove_file(&p).ok();
        }
        // Rotation keeps only the newest generations: some records survive,
        // most of the 200 are gone.
        assert!(survivors > 0 && survivors < 200, "survivors: {survivors}");
    }

    fn suffixed(p: &std::path::Path, n: u32) -> std::path::PathBuf {
        let mut name = p.as_os_str().to_os_string();
        name.push(format!(".{n}"));
        std::path::PathBuf::from(name)
    }

    #[test]
    fn create_fails_on_unwritable_path() {
        assert!(StreamSink::create("/nonexistent-dir-xyz/trace.jsonl").is_err());
    }
}
