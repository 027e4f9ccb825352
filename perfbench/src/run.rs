//! Timed runs. The measured run reports the end-to-end metrics with tracing
//! off; the traced run reports the per-layer metrics.

use crate::layers;
use crate::setup::{Deployment, WriteLog, INGEST_BATCH_ROWS, SERVERS};
use crate::spans::{Recorder, Span};
use crate::stats::{self, median, percentile, process_cpu, ratio};
use crate::workload::{Checker, Kept, Query, QueryStream, Workload, QUERY_KINDS};
use shc_core::conf::SHCConf;
use shc_engine::columnar::DEFAULT_BATCH_ROWS;
use shc_engine::row::Row;
use shc_engine::session::Session;
use shc_tpcds::Table;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per measured run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Queries per slice of the window. Throughput and p95 are taken per
/// slice and reported as the median over slices, so that a stall of the
/// shared machine during one slice moves them no more than a slow slice.
/// A window of fewer than two slices is taken whole.
const SLICE_QUERIES: usize = 500;
/// Stream salts: the measured stream and the warm-up stream differ.
const MEASURED: u64 = 1;
const WARMUP: u64 = 2;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context printed beside the metrics.
    pub notes: Vec<String>,
}

/// A session the client sends queries to, traced when it has a recorder.
struct Lane {
    session: Arc<Session>,
    recorder: Option<Arc<Recorder>>,
}

/// One read query as executed.
struct Executed {
    query: Query,
    result: Result<Kept, String>,
    start: Instant,
    end: Instant,
    ms: f64,
    lane: usize,
}

fn execute(lane: &Lane, sql: &str) -> Result<Vec<Row>, String> {
    let session = &lane.session;
    match &lane.recorder {
        None => session.sql(sql).and_then(|df| df.collect()),
        Some(rec) => {
            let op = rec.new_id();
            let start = rec.now_ns();
            let rows = rec
                .span(op, op, "plan", || {
                    session
                        .sql(sql)
                        .and_then(|df| df.optimized_plan().map(|_| df))
                })
                .and_then(|df| {
                    let id = rec.new_id();
                    rec.set_current(op, id);
                    let collect_start = rec.now_ns();
                    let rows = df.collect();
                    rec.close(id, op, op, "collect", collect_start, 0);
                    rows
                });
            rec.close(op, 0, op, "query", start, 0);
            rows
        }
    }
    .map_err(|e| e.to_string())
}

/// Closed loop: the next query goes out when the previous one returns,
/// until `stop(queries sent)` holds. Lanes take turns by whole rounds of
/// the stream's query kinds, so every lane sees the same mix.
fn drive(lanes: &[Lane], stream: &mut QueryStream, stop: impl Fn(usize) -> bool) -> Vec<Executed> {
    let mut done = Vec::new();
    while !stop(done.len()) {
        let lane = done.len() / QUERY_KINDS % lanes.len();
        let query = stream.next().expect("query streams are endless");
        let sql = query.sql();
        let start = Instant::now();
        let result = execute(&lanes[lane], &sql);
        let end = Instant::now();
        done.push(Executed {
            result: result.map(|rows| query.keep(rows)),
            query,
            start,
            end,
            ms: (end - start).as_secs_f64() * 1e3,
            lane,
        });
    }
    done
}

/// Fill caches and finish lazy set-up before timing.
fn warm_up(d: &Deployment, lanes: &[Lane]) {
    let per_lane = match d.workload {
        Workload::Lookup => 300,
        _ => 3,
    };
    let mut stream = QueryStream::new(d.workload, &d.generator, d.seed, WARMUP);
    drive(lanes, &mut stream, |n| n >= per_lane * lanes.len());
}

struct Window {
    reads: Vec<Executed>,
    writes: WriteLog,
    seconds: f64,
    cpu: Duration,
}

/// The timed window: `seconds` of closed-loop queries for `analytic` and
/// `lookup`; for `ingest`, the writer's fixed volume with the reader beside
/// it.
fn timed_window(
    d: &Deployment,
    lanes: &[Lane],
    seconds: f64,
    recorder: Option<&Recorder>,
) -> Window {
    let mut stream = QueryStream::new(d.workload, &d.generator, d.seed, MEASURED);
    let cpu = process_cpu();
    let start = Instant::now();
    let (reads, writes) = match d.workload {
        Workload::Ingest => {
            let writer_done = AtomicBool::new(false);
            std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let mut log = WriteLog::default();
                    let catalog = &d.table(Table::StoreSales).catalog;
                    log.write(
                        &d.cluster,
                        catalog,
                        &SHCConf::default(),
                        &d.ingest_rows,
                        INGEST_BATCH_ROWS,
                        recorder,
                    );
                    writer_done.store(true, Ordering::SeqCst);
                    log
                });
                let reads = drive(lanes, &mut stream, |_| writer_done.load(Ordering::SeqCst));
                (reads, writer.join().expect("writer thread panicked"))
            })
        }
        _ => {
            let reads = drive(lanes, &mut stream, |_| {
                start.elapsed().as_secs_f64() >= seconds
            });
            (reads, WriteLog::default())
        }
    };
    Window {
        reads,
        writes,
        seconds: start.elapsed().as_secs_f64(),
        cpu: process_cpu() - cpu,
    }
}

/// `f` of each `SLICE_QUERIES`-query slice of the window, median over the
/// slices; `f` of the whole window when it holds fewer than two slices.
fn sliced(reads: &[Executed], f: impl Fn(&[Executed]) -> f64) -> f64 {
    if reads.len() < 2 * SLICE_QUERIES {
        return if reads.is_empty() { 0.0 } else { f(reads) };
    }
    median(&reads.chunks_exact(SLICE_QUERIES).map(f).collect::<Vec<_>>())
}

/// Operations the window ran: queries, plus write batches in `ingest`.
fn ops(w: &Window) -> u64 {
    w.reads.len() as u64 + w.writes.calls
}

/// Check every result outside the timed window. Returns (attempted,
/// failed); `ingest` adds two read-back checks, before and after every
/// server crashes and restarts.
fn check(d: &Deployment, session: &Arc<Session>, w: &Window) -> Result<(u64, u64), String> {
    let mut checker = Checker::new(d.workload, &d.generator, &d.ingest_rows);
    let mut attempted = ops(w);
    let mut failed = w.writes.failed_batches;
    for e in &w.reads {
        let ok = match &e.result {
            Ok(kept) => checker.check(&e.query, kept),
            Err(_) => false,
        };
        failed += u64::from(!ok);
    }
    if d.workload == Workload::Ingest {
        attempted += 2;
        d.cluster.quiesce();
        failed += u64::from(!read_back(d, session, &w.writes));
        for id in 0..SERVERS as u64 {
            d.cluster.server(id).map_err(|e| e.to_string())?.crash();
        }
        for id in 0..SERVERS as u64 {
            let server = d.cluster.server(id).map_err(|e| e.to_string())?;
            server.try_restart().map_err(|e| format!("restart: {e}"))?;
        }
        failed += u64::from(!read_back(d, session, &w.writes));
    }
    Ok((attempted, failed))
}

/// Every acknowledged `store_sales` row reads back with its last-written
/// value, and nothing else is there except rows of batches that failed.
fn read_back(d: &Deployment, session: &Arc<Session>, writes: &WriteLog) -> bool {
    let key = |r: &Row| format!("{:?}", &r.values[..3]);
    let unsure: HashSet<String> = writes.failed_rows.iter().map(key).collect();
    let preloaded = d.generator.rows(Table::StoreSales);
    let written = &d.ingest_rows[..writes.rows as usize + writes.failed_rows.len()];
    let expected: HashMap<String, &Row> = preloaded
        .iter()
        .chain(written)
        .map(|r| (key(r), r))
        .filter(|(k, _)| !unsure.contains(k))
        .collect();
    let sql = "SELECT ss_sold_date_sk, ss_item_sk, ss_customer_sk, ss_quantity, \
               ss_sales_price FROM store_sales";
    let Ok(got) = session.sql(sql).and_then(|df| df.collect()) else {
        return false;
    };
    let mut seen = HashSet::new();
    got.iter().all(|row| {
        let k = key(row);
        match expected.get(&k) {
            Some(e) => *e == row && seen.insert(k),
            None => unsure.contains(&k),
        }
    }) && seen.len() == expected.len()
}

/// The measured run: end-to-end metrics, tracing off.
pub fn measured(args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut loads = Vec::new();
    let mut deployment = None;
    for _ in 0..SETUPS {
        // Drop the previous cluster first, so set-ups do not overlap.
        drop(deployment.take());
        let d = Deployment::build(args.workload, args.seed)?;
        setup_s.push(d.setup_s);
        loads.push(d.load.clone());
        deployment = Some(d);
    }
    let d = deployment.expect("at least one set-up");
    let lanes = [Lane {
        session: d.session(None, true),
        recorder: None,
    }];
    warm_up(&d, &lanes);
    let w = timed_window(&d, &lanes, args.seconds, None);
    let peak_rss = stats::peak_rss_mib();
    let (attempted, failed) = check(&d, &lanes[0].session, &w)?;
    // Space at rest: every memstore flushed, as set-up leaves the tables.
    // Right after background flushes go quiet, the bytes still on disk
    // depend on whether the last memstore crossed its watermark in time.
    d.cluster
        .flush_all()
        .map_err(|e| format!("final flush: {e}"))?;
    d.cluster.quiesce();
    let payload = d.load.payload_bytes + w.writes.payload_bytes;
    let stored = d.stored_bytes();
    let space_amp = ratio(stored as f64, payload as f64);

    let read_ms: Vec<f64> = w.reads.iter().map(|e| e.ms).collect();
    let reads = read_ms.len() as u64;
    // `ingest` times its writer. The other workloads write only while
    // setting up, so the writer is measured on the set-up loads, each
    // statistic taken per set-up and the median reported.
    let writes = match d.workload {
        Workload::Ingest => vec![w.writes.clone()],
        _ => loads,
    };
    let over_writes =
        |f: &dyn Fn(&WriteLog) -> f64| median(&writes.iter().map(f).collect::<Vec<_>>());
    let rows_per_s = over_writes(&|l| ratio(l.rows as f64, l.seconds));
    let batch_p50 = over_writes(&|l| percentile(&l.batch_ms, 50.0));
    let batch_p95 = over_writes(&|l| percentile(&l.batch_ms, 95.0));
    let batches = writes.iter().map(|l| l.batch_ms.len() as u64).sum();
    let op_count = match d.workload {
        Workload::Ingest => w.writes.calls,
        _ => reads,
    };
    let per_s = sliced(&w.reads, |slice| {
        let span = slice.last().expect("non-empty slice").end - slice[0].start;
        ratio(slice.len() as f64, span.as_secs_f64())
    });
    let p95 = sliced(&w.reads, |slice| {
        percentile(&slice.iter().map(|e| e.ms).collect::<Vec<_>>(), 95.0)
    });
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s", SETUPS as u64),
        metric("query_per_s", per_s, "queries/s", reads),
        metric("query_p50_ms", percentile(&read_ms, 50.0), "ms", reads),
        metric("query_p95_ms", p95, "ms", reads),
        metric("write_rows_per_s", rows_per_s, "rows/s", batches),
        metric("write_batch_p50_ms", batch_p50, "ms", batches),
        metric("write_batch_p95_ms", batch_p95, "ms", batches),
        metric(
            "cpu_ms_per_op",
            ratio(w.cpu.as_secs_f64() * 1e3, op_count as f64),
            "ms",
            op_count,
        ),
        metric("peak_rss_mb", peak_rss, "MiB", 1),
        metric("space_amp", space_amp, "ratio", 1),
    ];
    let mut kinds: Vec<&str> = Vec::new();
    for e in &w.reads {
        if !kinds.contains(&e.query.kind()) {
            kinds.push(e.query.kind());
        }
    }
    let by_kind: Vec<String> = kinds
        .iter()
        .map(|k| {
            let ms: Vec<f64> = w
                .reads
                .iter()
                .filter(|e| e.query.kind() == *k)
                .map(|e| e.ms)
                .collect();
            format!("{k} {:.3} (n={})", median(&ms), ms.len())
        })
        .collect();
    let mut per_server: HashMap<String, u64> = HashMap::new();
    for (host, load) in d.cluster.region_loads() {
        *per_server.entry(host).or_default() += load.store_file_bytes;
    }
    let cache_share: Vec<String> = stats::sorted(
        &per_server
            .values()
            .map(|&b| ratio(d.cluster.config.block_cache_bytes as f64, b as f64))
            .collect::<Vec<_>>(),
    )
    .iter()
    .map(|r| format!("{r:.2}"))
    .collect();
    let notes = vec![
        format!("window_s = {:.3}", w.seconds),
        format!("query p50 ms by kind: {}", by_kind.join(", ")),
        format!(
            "block cache / store-file bytes, per server: {}",
            cache_share.join(" ")
        ),
        format!(
            "setup_s samples = {:?}",
            setup_s
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
        ),
        format!("stored_bytes = {stored} payload_bytes = {payload}"),
    ];
    Ok(Report {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// A fixed number of queries from the measured stream, sent by one client
/// to a fresh deployment, with the counters they moved.
pub struct Replay {
    pub queries: Vec<Query>,
    pub rows: Vec<Vec<Row>>,
    pub rpc_count: u64,
    pub cells_scanned: u64,
    pub shuffle_bytes: u64,
    pub failed: u64,
}

/// Replay `queries` queries of `analytic` or `lookup`, traced or not.
pub fn replay(
    workload: Workload,
    seed: u64,
    queries: usize,
    traced: bool,
) -> Result<Replay, String> {
    let d = Deployment::build(workload, seed)?;
    let recorder = Recorder::new();
    let lane = Lane {
        session: d.session(traced.then_some(&recorder), true),
        recorder: traced.then(|| Arc::clone(&recorder)),
    };
    let mut checker = Checker::new(workload, &d.generator, &d.ingest_rows);
    let cluster_before = d.cluster.metrics.snapshot();
    let engine_before = lane.session.metrics.snapshot();
    let mut out = Replay {
        queries: Vec::new(),
        rows: Vec::new(),
        rpc_count: 0,
        cells_scanned: 0,
        shuffle_bytes: 0,
        failed: 0,
    };
    for query in QueryStream::new(workload, &d.generator, seed, MEASURED).take(queries) {
        let rows = execute(&lane, &query.sql())?;
        out.failed += u64::from(!checker.check(&query, &query.keep(rows.clone())));
        out.queries.push(query);
        out.rows.push(rows);
    }
    let c = d.cluster.metrics.snapshot().delta_since(&cluster_before);
    let e = lane.session.metrics.snapshot().delta_since(&engine_before);
    out.rpc_count = c.rpc_count;
    out.cells_scanned = c.cells_scanned;
    out.shuffle_bytes = e.shuffle_bytes;
    Ok(out)
}

/// Per-query self times taken from the spans of traced queries.
#[derive(Debug, Default)]
struct SpanLayers {
    queries: u64,
    plan_us: f64,
    exec_self_us: f64,
    scan_plan_us: f64,
    partitions: f64,
    scan_self_us: f64,
    rows_delivered: f64,
    unattributed_pct: f64,
}

fn span_layers(spans: &[Span]) -> SpanLayers {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let kids = |id: u64| children.get(&id).map(Vec::as_slice).unwrap_or(&[]);
    let mut out = SpanLayers::default();
    let (mut total_ns, mut gap_ns) = (0u64, 0u64);
    let mut sums = [0f64; 6];
    for root in spans.iter().filter(|s| s.name == "query") {
        out.queries += 1;
        total_ns += root.dur_ns();
        let mut covered: Vec<(u64, u64)> = kids(root.id)
            .iter()
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        gap_ns += root.dur_ns() - stats::union_len(root.start_ns, root.end_ns, &mut covered);
        for child in kids(root.id) {
            match child.name {
                "plan" => sums[0] += child.dur_ns() as f64,
                "collect" => {
                    let connector = kids(child.id);
                    let mut busy: Vec<(u64, u64)> =
                        connector.iter().map(|c| (c.start_ns, c.end_ns)).collect();
                    let busy_ns = stats::union_len(child.start_ns, child.end_ns, &mut busy);
                    sums[1] += (child.dur_ns() - busy_ns) as f64;
                    for c in connector {
                        match c.name {
                            "scan" => {
                                sums[2] += c.dur_ns() as f64;
                                sums[3] += c.count as f64;
                            }
                            _ => {
                                let callbacks: u64 = kids(c.id).iter().map(|cb| cb.dur_ns()).sum();
                                sums[4] += c.dur_ns().saturating_sub(callbacks) as f64;
                                sums[5] += c.count as f64;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let per_query = |ns: f64| ratio(ns, out.queries as f64);
    out.plan_us = per_query(sums[0]) / 1e3;
    out.exec_self_us = per_query(sums[1]) / 1e3;
    out.scan_plan_us = per_query(sums[2]) / 1e3;
    out.partitions = per_query(sums[3]);
    out.scan_self_us = per_query(sums[4]) / 1e3;
    out.rows_delivered = per_query(sums[5]);
    out.unattributed_pct = ratio(gap_ns as f64, total_ns as f64) * 100.0;
    out
}

/// The traced run: per-layer metrics. The client turns over three sessions
/// on the same providers: untraced, traced, and untraced without a query
/// log, so that the tracing and query-log overheads are measured on
/// interleaved queries.
pub fn traced(args: &Args) -> Result<Report, String> {
    let d = Deployment::build(args.workload, args.seed)?;
    let recorder = Recorder::new();
    let lanes = [
        Lane {
            session: d.session(None, true),
            recorder: None,
        },
        Lane {
            session: d.session(Some(&recorder), true),
            recorder: Some(Arc::clone(&recorder)),
        },
        Lane {
            session: d.session(None, false),
            recorder: None,
        },
    ];
    warm_up(&d, &lanes);
    let cluster_before = d.cluster.metrics.snapshot();
    let engine_before = lanes[1].session.metrics.snapshot();
    let w = timed_window(&d, &lanes, args.seconds, Some(&recorder));
    d.cluster.quiesce();
    let c = d.cluster.metrics.snapshot().delta_since(&cluster_before);
    let e = lanes[1]
        .session
        .metrics
        .snapshot()
        .delta_since(&engine_before);
    let passes = layers::run(&d)?;
    let (attempted, failed) = check(&d, &lanes[0].session, &w)?;

    let layers = span_layers(&recorder.spans());
    let lane_ms = |lane: usize| -> Vec<f64> {
        w.reads
            .iter()
            .filter(|x| x.lane == lane)
            .map(|x| x.ms)
            .collect()
    };
    let (plain, traced, unlogged) = (
        median(&lane_ms(0)),
        median(&lane_ms(1)),
        median(&lane_ms(2)),
    );
    let op_count = ops(&w) as f64;
    let per_op = |v: u64| ratio(v as f64, op_count);
    let q = layers.queries;
    let per_query = |v: u64| ratio(v as f64, q as f64);
    let connection_setup_ms = d.cluster.network().connection_setup.as_secs_f64() * 1e3;
    let network_ms =
        c.rpc_latency_us.sum as f64 / 1e3 + c.connections_created as f64 * connection_setup_ms;
    let rows_written = w.writes.rows as f64;
    let metrics = vec![
        metric("engine.plan_us", layers.plan_us, "us/op", q),
        metric("engine.exec_self_us", layers.exec_self_us, "us/op", q),
        metric("engine.tasks", per_query(e.tasks), "tasks/op", q),
        metric(
            "engine.shuffle_bytes",
            per_query(e.shuffle_bytes),
            "B/op",
            q,
        ),
        metric(
            "engine.batch_fill",
            ratio(
                e.batch_rows as f64,
                (e.batches_built * DEFAULT_BATCH_ROWS as u64) as f64,
            ),
            "ratio",
            e.batches_built,
        ),
        metric("engine.peak_bytes", e.peak_bytes as f64, "B", q),
        metric("core.scan_plan_us", layers.scan_plan_us, "us/op", q),
        metric("core.partitions", layers.partitions, "count/op", q),
        metric("core.scan_self_us", layers.scan_self_us, "us/op", q),
        metric("core.rows_delivered", layers.rows_delivered, "rows/op", q),
        metric(
            "core.decode_ns_per_cell",
            passes.decode_ns_per_cell,
            "ns",
            1,
        ),
        metric("core.encode_us_per_row", passes.encode_us_per_row, "us", 1),
        metric(
            "kvstore.region_scan_ns_per_row",
            passes.region_scan_ns_per_row,
            "ns",
            1,
        ),
        metric("kvstore.get_us", passes.get_us, "us", 1),
        metric("kvstore.put_us_per_row", passes.put_us_per_row, "us", 1),
        metric("kvstore.rpcs", per_op(c.rpc_count), "count/op", ops(&w)),
        metric(
            "kvstore.bytes_shipped",
            per_op(c.bytes_returned),
            "B/op",
            ops(&w),
        ),
        metric(
            "kvstore.cells_returned_per_scanned",
            ratio(c.cells_returned as f64, c.cells_scanned as f64),
            "ratio",
            c.cells_scanned,
        ),
        metric(
            "kvstore.block_cache_hit_ratio",
            ratio(
                c.block_cache_hits as f64,
                (c.block_cache_hits + c.block_cache_misses) as f64,
            ),
            "ratio",
            c.block_cache_hits + c.block_cache_misses,
        ),
        metric(
            "kvstore.block_cache_evictions",
            per_op(c.block_cache_evictions),
            "count/op",
            ops(&w),
        ),
        metric(
            "kvstore.connections",
            per_op(c.connections_created),
            "count/op",
            ops(&w),
        ),
        metric(
            "kvstore.network_modeled_ms",
            ratio(network_ms, op_count),
            "ms/op",
            ops(&w),
        ),
        metric(
            "kvstore.write_amp",
            ratio(
                (c.wal_bytes_written + c.flush_bytes_written + c.compaction_bytes_rewritten) as f64,
                c.bytes_written as f64,
            ),
            "ratio",
            1,
        ),
        metric(
            "kvstore.wal_fsyncs_per_row",
            ratio(c.wal_fsyncs as f64, rows_written),
            "count/row",
            w.writes.rows,
        ),
        metric(
            "kvstore.flushes",
            (c.flushes_memstore_pressure + c.flushes_wal_pressure + c.flushes_explicit) as f64,
            "count",
            1,
        ),
        metric(
            "kvstore.compaction_bytes",
            c.compaction_bytes_rewritten as f64,
            "B",
            1,
        ),
        metric(
            "kvstore.write_stall_ms",
            per_op(c.write_stall_ms),
            "ms/op",
            c.write_stalls,
        ),
        metric(
            "obs.query_log_overhead_pct",
            ratio(plain - unlogged, unlogged) * 100.0,
            "%",
            lane_ms(2).len() as u64,
        ),
        metric(
            "trace.overhead_pct",
            ratio(traced - plain, plain) * 100.0,
            "%",
            lane_ms(1).len() as u64,
        ),
        metric("trace.unattributed_pct", layers.unattributed_pct, "%", q),
    ];
    let spans_dir = std::path::Path::new(crate::setup::DATA_DIR);
    std::fs::create_dir_all(spans_dir).map_err(|e| e.to_string())?;
    let spans_file = spans_dir.join(format!("spans-{}-{}.jsonl", d.workload.name(), d.seed));
    recorder
        .write_jsonl(&spans_file)
        .map_err(|e| format!("{}: {e}", spans_file.display()))?;
    let notes = vec![
        format!("window_s = {:.3}", w.seconds),
        format!(
            "query p50 ms: untraced {plain:.4}, traced {traced:.4}, without query log {unlogged:.4}"
        ),
        format!(
            "spans = {} written to {}",
            recorder.spans().len(),
            spans_file.display()
        ),
    ];
    Ok(Report {
        attempted,
        failed,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
            count,
        }
    }

    #[test]
    fn self_times_subtract_the_union_of_children() {
        // query [0,100): plan [0,10), collect [12,100); inside collect a
        // scan [12,20) with 2 partitions, and two partitions running in
        // parallel, [20,60) and [30,90), the first with a callback of 15.
        let spans = vec![
            span(1, 0, "query", 0, 100, 0),
            span(2, 1, "plan", 0, 10, 0),
            span(3, 1, "collect", 12, 100, 0),
            span(4, 3, "scan", 12, 20, 2),
            span(5, 3, "partition", 20, 60, 7),
            span(6, 5, "callback", 40, 55, 7),
            span(7, 3, "partition", 30, 90, 5),
        ];
        let l = span_layers(&spans);
        assert_eq!(l.queries, 1);
        assert_eq!(l.plan_us, 10.0 / 1e3);
        // collect 88 minus the union of [12,20), [20,60), [30,90) = 78.
        assert_eq!(l.exec_self_us, 10.0 / 1e3);
        assert_eq!(l.scan_plan_us, 8.0 / 1e3);
        assert_eq!(l.partitions, 2.0);
        assert_eq!(l.scan_self_us, (40.0 - 15.0 + 60.0) / 1e3);
        assert_eq!(l.rows_delivered, 12.0);
        // Only [10,12) of the query is covered by no span.
        assert_eq!(l.unattributed_pct, 2.0);
    }
}
