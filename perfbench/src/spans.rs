//! The traced run's span recorder, and the wrappers that record connector
//! spans around every call the engine makes into an SHC relation.
//!
//! Spans are recorded from benchmark code only: around `Session::sql` and
//! `DataFrame::optimized_plan` (plan), `DataFrame::collect` (collect),
//! `TableProvider::scan` (scan), each `ScanPartition` execution
//! (partition), each `on_batch` callback the engine hands a partition
//! (callback), and each `write_rows` call (write_batch). They stay in memory
//! until the run ends.

use parking_lot::Mutex;
use shc_engine::columnar::ColumnarBatch;
use shc_engine::datasource::{ScanPartition, TableProvider};
use shc_engine::error::Result;
use shc_engine::row::Row;
use shc_engine::schema::Schema;
use shc_engine::source_filter::SourceFilter;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One finished span. `op` is shared by every span of one operation;
/// `count` is rows for partitions and callbacks, partitions for scans.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Operation and `collect` span of the traced query in flight. One
    /// client thread issues traced queries, so a single slot is enough for
    /// partitions running on executor threads to find their parent.
    current: Mutex<(u64, u64)>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            current: Mutex::new((0, 0)),
        })
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span that started at `start_ns` and ends now.
    pub fn close(
        &self,
        id: u64,
        parent: u64,
        op: u64,
        name: &'static str,
        start_ns: u64,
        count: u64,
    ) {
        let end_ns = self.now_ns();
        self.spans.lock().push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
            count,
        });
    }

    /// Run `f` inside a fresh span and return its result.
    pub fn span<T>(&self, parent: u64, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.new_id();
        let start = self.now_ns();
        let out = f();
        self.close(id, parent, op, name, start, 0);
        out
    }

    pub fn set_current(&self, op: u64, collect_span: u64) {
        *self.current.lock() = (op, collect_span);
    }

    fn current(&self) -> (u64, u64) {
        *self.current.lock()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// A table provider that forwards every trait method to `inner`, recording
/// a span around `scan` and wrapping each returned partition.
pub struct TracedProvider {
    pub inner: Arc<dyn TableProvider>,
    pub recorder: Arc<Recorder>,
}

impl TableProvider for TracedProvider {
    fn schema(&self) -> Schema {
        self.inner.schema()
    }

    fn supports_projection(&self) -> bool {
        self.inner.supports_projection()
    }

    fn unhandled_filters(&self, filters: &[SourceFilter]) -> Vec<SourceFilter> {
        self.inner.unhandled_filters(filters)
    }

    fn scan(
        &self,
        projection: Option<&[usize]>,
        filters: &[SourceFilter],
    ) -> Result<Vec<Arc<dyn ScanPartition>>> {
        let rec = &self.recorder;
        let (op, collect_span) = rec.current();
        let id = rec.new_id();
        let start = rec.now_ns();
        let partitions = self.inner.scan(projection, filters);
        let count = partitions.as_ref().map_or(0, |p| p.len() as u64);
        rec.close(id, collect_span, op, "scan", start, count);
        Ok(partitions?
            .into_iter()
            .map(|inner| {
                Arc::new(TracedPartition {
                    inner,
                    recorder: Arc::clone(rec),
                    op,
                    parent: collect_span,
                }) as Arc<dyn ScanPartition>
            })
            .collect())
    }

    fn insert(&self, rows: &[Row]) -> Result<u64> {
        self.inner.insert(rows)
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn estimated_row_count(&self) -> Option<u64> {
        self.inner.estimated_row_count()
    }
}

/// A scan partition that forwards every trait method to `inner`, recording
/// a partition span around each execution and a callback span around each
/// batch handed back to the engine.
pub struct TracedPartition {
    inner: Arc<dyn ScanPartition>,
    recorder: Arc<Recorder>,
    op: u64,
    parent: u64,
}

impl ScanPartition for TracedPartition {
    fn preferred_host(&self) -> Option<&str> {
        self.inner.preferred_host()
    }

    fn execute(&self, running_on: &str) -> Result<Vec<Row>> {
        let rec = &self.recorder;
        let id = rec.new_id();
        let start = rec.now_ns();
        let rows = self.inner.execute(running_on);
        let count = rows.as_ref().map_or(0, |r| r.len() as u64);
        rec.close(id, self.parent, self.op, "partition", start, count);
        rows
    }

    fn execute_batched(
        &self,
        running_on: &str,
        on_batch: &mut dyn FnMut(Vec<Row>) -> Result<()>,
    ) -> Result<()> {
        let rec = &self.recorder;
        let id = rec.new_id();
        let start = rec.now_ns();
        let mut rows = 0u64;
        let result = self
            .inner
            .execute_batched(running_on, &mut |batch: Vec<Row>| {
                let n = batch.len() as u64;
                rows += n;
                let cb = rec.new_id();
                let cb_start = rec.now_ns();
                let r = on_batch(batch);
                rec.close(cb, id, self.op, "callback", cb_start, n);
                r
            });
        rec.close(id, self.parent, self.op, "partition", start, rows);
        result
    }

    fn execute_columnar(
        &self,
        running_on: &str,
        batch_size: usize,
        on_batch: &mut dyn FnMut(ColumnarBatch) -> Result<()>,
    ) -> Result<bool> {
        let rec = &self.recorder;
        let id = rec.new_id();
        let start = rec.now_ns();
        let mut rows = 0u64;
        let served = self
            .inner
            .execute_columnar(running_on, batch_size, &mut |batch| {
                let n = batch.num_rows() as u64;
                rows += n;
                let cb = rec.new_id();
                let cb_start = rec.now_ns();
                let r = on_batch(batch);
                rec.close(cb, id, self.op, "callback", cb_start, n);
                r
            });
        // A provider without a columnar path declines at once; the engine
        // then calls `execute_batched`, which records the partition.
        if !matches!(served, Ok(false)) {
            rec.close(id, self.parent, self.op, "partition", start, rows);
        }
        served
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}
