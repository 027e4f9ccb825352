//! Building a workload's cluster and data, and connecting sessions to it.

use crate::spans::{Recorder, TracedProvider};
use crate::workload::Workload;
use bytes::Bytes;
use shc_core::catalog::HBaseTableCatalog;
use shc_core::conf::SHCConf;
use shc_core::conn_cache::ConnectionCache;
use shc_core::introspect::register_system_tables;
use shc_core::relation::HBaseRelation;
use shc_core::rowkey::encode_rowkey;
use shc_core::writer::write_rows;
use shc_engine::datasource::TableProvider;
use shc_engine::row::Row;
use shc_engine::scheduler::ExecutorConfig;
use shc_engine::session::{Session, SessionConfig};
use shc_kvstore::cluster::{ClusterConfig, HBaseCluster};
use shc_kvstore::network::NetworkSim;
use shc_kvstore::types::{FamilyDescriptor, TableDescriptor};
use shc_tpcds::{Generator, Scale, Table};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nominal dataset size: 24,000 `inventory` and 12,000 `store_sales` rows.
pub const SCALE_GB: f64 = 20.0;
/// The paper's testbed: five region servers, five executors.
pub const SERVERS: usize = 5;
pub const EXECUTORS: usize = 5;
pub const CODER: &str = "PrimitiveType";
/// Rows per `write_rows` call while loading at set-up.
pub const LOAD_BATCH_ROWS: usize = 250;
/// Rows per `write_rows` call of the `ingest` writer.
pub const INGEST_BATCH_ROWS: usize = 200;
/// New `store_sales` rows the `ingest` writer sends. Large enough that
/// memstore flushes fire under the default flush policy.
pub const INGEST_ROWS: usize = 120_000;
/// Per-server block cache of `lookup`: about a quarter of a server's
/// store-file bytes at `SCALE_GB`, so the working set does not fit.
pub const LOOKUP_BLOCK_CACHE_BYTES: usize = 224 << 10;
/// Where the durable `ingest` cluster keeps its files, relative to the
/// working directory.
pub const DATA_DIR: &str = ".perfbench_data";

/// Writes timed one `write_rows` call at a time.
#[derive(Clone, Debug, Default)]
pub struct WriteLog {
    pub calls: u64,
    pub rows: u64,
    pub payload_bytes: u64,
    pub seconds: f64,
    /// Latency of each full-size batch; the short last batch of a table is
    /// left out so that every sample writes the same number of rows.
    pub batch_ms: Vec<f64>,
    /// Rows whose `write_rows` call returned an error.
    pub failed_rows: Vec<Row>,
    pub failed_batches: u64,
}

impl WriteLog {
    /// Write `rows` in `batch_rows`-row `write_rows` calls, timing each,
    /// and recording a `write_batch` span around each when traced.
    pub fn write(
        &mut self,
        cluster: &Arc<HBaseCluster>,
        catalog: &HBaseTableCatalog,
        conf: &SHCConf,
        rows: &[Row],
        batch_rows: usize,
        recorder: Option<&Recorder>,
    ) {
        for batch in rows.chunks(batch_rows) {
            let start = Instant::now();
            let written = match recorder {
                Some(rec) => {
                    let op = rec.new_id();
                    let span_start = rec.now_ns();
                    let written = write_rows(cluster, catalog, conf, batch);
                    rec.close(op, 0, op, "write_batch", span_start, batch.len() as u64);
                    written
                }
                None => write_rows(cluster, catalog, conf, batch),
            };
            let took = start.elapsed().as_secs_f64();
            self.calls += 1;
            self.seconds += took;
            if batch.len() == batch_rows {
                self.batch_ms.push(took * 1e3);
            }
            match written {
                Ok(bytes) => {
                    self.rows += batch.len() as u64;
                    self.payload_bytes += bytes;
                }
                Err(_) => {
                    self.failed_batches += 1;
                    self.failed_rows.extend_from_slice(batch);
                }
            }
        }
    }
}

/// One loaded table.
pub struct LoadedTable {
    pub table: Table,
    pub catalog: Arc<HBaseTableCatalog>,
    pub relation: Arc<HBaseRelation>,
}

/// A workload's cluster with its data loaded and flushed.
pub struct Deployment {
    pub workload: Workload,
    pub seed: u64,
    pub cluster: Arc<HBaseCluster>,
    pub generator: Generator,
    pub tables: Vec<LoadedTable>,
    /// The set-up load through the writer.
    pub load: WriteLog,
    /// `ingest`: the new rows the writer sends.
    pub ingest_rows: Vec<Row>,
    pub setup_s: f64,
    /// Dropped last, after the cluster, so the files go with it.
    data_dir: Option<DataDir>,
}

impl Deployment {
    /// Start the cluster, generate the data, load it through the writer and
    /// flush it to store files. `setup_s` times all of it.
    pub fn build(workload: Workload, seed: u64) -> Result<Deployment, String> {
        let start = Instant::now();
        let (config, data_dir) = cluster_config(workload)?;
        let cluster = HBaseCluster::start(config);
        let generator = Generator::new(Scale::from_gb(SCALE_GB), seed);
        let mut load = WriteLog::default();
        let mut tables = Vec::new();
        for &table in workload.tables() {
            let catalog = Arc::new(
                HBaseTableCatalog::parse_simple(&table.catalog_json(CODER))
                    .map_err(|e| format!("{} catalog: {e}", table.name()))?,
            );
            let rows = generator.rows(table);
            if rows.len() > 500 {
                presplit(&cluster, &catalog, &rows)?;
            }
            let conf = SHCConf::default();
            load.write(&cluster, &catalog, &conf, &rows, LOAD_BATCH_ROWS, None);
            let relation = HBaseRelation::new(
                Arc::clone(&cluster),
                Arc::clone(&catalog),
                SHCConf::default(),
            );
            tables.push(LoadedTable {
                table,
                catalog,
                relation,
            });
        }
        if load.failed_batches > 0 {
            return Err(format!(
                "{} set-up load batches failed",
                load.failed_batches
            ));
        }
        cluster
            .flush_all()
            .map_err(|e| format!("set-up flush: {e}"))?;
        cluster.quiesce();
        let ingest_rows = match workload {
            Workload::Ingest => new_sales_rows(&generator, seed),
            _ => Vec::new(),
        };
        Ok(Deployment {
            workload,
            seed,
            cluster,
            generator,
            tables,
            load,
            ingest_rows,
            setup_s: start.elapsed().as_secs_f64(),
            data_dir,
        })
    }

    pub fn table(&self, table: Table) -> &LoadedTable {
        self.tables
            .iter()
            .find(|t| t.table == table)
            .expect("table is loaded")
    }

    /// A session over this cluster's tables, registered the way a user
    /// connects one (SHC relations plus the system tables). With a
    /// recorder, every relation is wrapped to record connector spans.
    pub fn session(&self, recorder: Option<&Arc<Recorder>>, query_log: bool) -> Arc<Session> {
        let defaults = SessionConfig::default();
        let session = Session::new(SessionConfig {
            executors: ExecutorConfig {
                num_executors: EXECUTORS,
                hosts: self.cluster.hostnames(),
                task_retries: 1,
            },
            // Joins go through the exchange, as Spark's sort-merge default
            // does for large tables, matching the paper's set-up.
            broadcast_threshold: 0,
            query_log_capacity: if query_log {
                defaults.query_log_capacity
            } else {
                0
            },
            ..defaults
        });
        for t in &self.tables {
            let relation: Arc<dyn TableProvider> = t.relation.clone();
            let provider: Arc<dyn TableProvider> = match recorder {
                Some(rec) => Arc::new(TracedProvider {
                    inner: relation,
                    recorder: Arc::clone(rec),
                }),
                None => relation,
            };
            session.register_table(t.table.name(), provider);
        }
        register_system_tables(&session, &self.cluster);
        session
    }

    /// Bytes the store holds: every file of a durable cluster, or the
    /// in-memory store files of one that is not.
    pub fn stored_bytes(&self) -> u64 {
        match &self.data_dir {
            Some(dir) => dir_bytes(&dir.0),
            None => self
                .cluster
                .region_loads()
                .iter()
                .map(|(_, l)| l.store_file_bytes)
                .sum(),
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        // The shared connection cache would otherwise keep this cluster
        // alive after the deployment is gone.
        ConnectionCache::global().evict_idle(Duration::ZERO);
    }
}

fn cluster_config(workload: Workload) -> Result<(ClusterConfig, Option<DataDir>), String> {
    let base = ClusterConfig {
        num_servers: SERVERS,
        ..Default::default()
    };
    Ok(match workload {
        Workload::Analytic => (
            ClusterConfig {
                network: NetworkSim::off(),
                ..base
            },
            None,
        ),
        Workload::Lookup => (
            ClusterConfig {
                network: NetworkSim::off(),
                block_cache_bytes: LOOKUP_BLOCK_CACHE_BYTES,
                ..base
            },
            None,
        ),
        Workload::Ingest => {
            // `durable_temp` storage (fsync per WAL append, default
            // watermarks), rooted under the working directory instead of
            // the system temp directory, with the background flusher on.
            let dir = DataDir::create()?;
            (
                ClusterConfig {
                    network: NetworkSim::gigabit(),
                    data_dir: Some(dir.0.clone()),
                    background_flush: true,
                    ..base
                },
                Some(dir),
            )
        }
    })
}

/// Create a big table split into `SERVERS` regions at quantiles of all its
/// row keys, the layout one `write_rows` call over the whole table makes.
/// Loading in batches would otherwise split at quantiles of the first
/// batch, and region sizes would vary with the seed.
fn presplit(
    cluster: &HBaseCluster,
    catalog: &HBaseTableCatalog,
    rows: &[Row],
) -> Result<(), String> {
    let mut keys = rows
        .iter()
        .map(|row| {
            let values: Vec<_> = catalog
                .row_key
                .iter()
                .map(|&i| row.get(i).clone())
                .collect();
            encode_rowkey(catalog, &values)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("row key: {e}"))?;
    keys.sort();
    keys.dedup();
    let splits = (1..SERVERS)
        .map(|i| Bytes::from(keys[i * keys.len() / SERVERS].clone()))
        .collect();
    let mut descriptor = TableDescriptor::new(catalog.table.clone()).with_split_keys(splits);
    for family in catalog.families() {
        descriptor = descriptor.with_family(
            FamilyDescriptor::new(family.as_bytes().to_vec())
                .with_max_versions(SHCConf::default().max_versions.max(3)),
        );
    }
    cluster
        .create_table(descriptor)
        .map_err(|e| format!("create {}: {e}", catalog.table))
}

/// New `store_sales` rows for the `ingest` writer: seeded like the table,
/// drawn from a larger key space, and never a key already loaded.
fn new_sales_rows(generator: &Generator, seed: u64) -> Vec<Row> {
    let key = |r: &Row| {
        (
            r.get(0).as_i64().expect("date key"),
            r.get(1).as_i64().expect("item key"),
            r.get(2).as_i64().expect("customer key"),
        )
    };
    let loaded: HashSet<_> = generator.rows(Table::StoreSales).iter().map(key).collect();
    // 201 nominal GB yields 120,600 distinct rows, a margin over INGEST_ROWS
    // for the few keys the preload already holds.
    let fresh = Generator::new(Scale::from_gb(201.0), seed ^ 0x1A6E_57ED);
    let rows: Vec<Row> = fresh
        .rows(Table::StoreSales)
        .into_iter()
        .filter(|r| !loaded.contains(&key(r)))
        .take(INGEST_ROWS)
        .collect();
    assert_eq!(rows.len(), INGEST_ROWS, "enough fresh store_sales keys");
    rows
}

/// A durable cluster's directory, removed when dropped.
struct DataDir(PathBuf);

impl DataDir {
    fn create() -> Result<DataDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::current_dir()
            .map_err(|e| format!("working directory: {e}"))?
            .join(DATA_DIR)
            .join(format!(
                "ingest-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(DataDir(path))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent when other runs' files are still in it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn dir_bytes(path: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
