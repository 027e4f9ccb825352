//! Per-layer passes of the traced run that call one layer directly: a raw
//! region scan, cell decoding, point gets, puts and put encoding. Each runs
//! after the timed window, over the workload's own tables and keys.

use crate::setup::Deployment;
use crate::stats;
use crate::workload::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shc_core::rowkey::{decode_rowkey, encode_rowkey};
use shc_core::writer::encode_put;
use shc_engine::row::Row;
use shc_engine::value::Value;
use shc_kvstore::client::Connection;
use shc_kvstore::types::{FamilyDescriptor, Get, RowResult, Scan, TableDescriptor, TableName};
use shc_tpcds::Table;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const GETS: usize = 400;
const PUT_ROWS: usize = 2_000;
const PUT_BATCH_ROWS: usize = 200;
const ENCODE_ROWS: usize = 24_000;
const SCRATCH_TABLE: &str = "perfbench_put_scratch";

pub struct LayerPasses {
    pub region_scan_ns_per_row: f64,
    pub decode_ns_per_cell: f64,
    pub get_us: f64,
    pub put_us_per_row: f64,
    pub encode_us_per_row: f64,
}

/// The table whose rows the write-side passes encode and put.
fn main_table(workload: Workload) -> Table {
    match workload {
        Workload::Analytic | Workload::Lookup => Table::Inventory,
        Workload::Ingest => Table::StoreSales,
    }
}

pub fn run(d: &Deployment) -> Result<LayerPasses, String> {
    let connection = Connection::open(Arc::clone(&d.cluster), None);
    let (region_scan_ns_per_row, decode_ns_per_cell) = scan_and_decode(d, &connection)?;
    let rows = write_rows_of(d);
    Ok(LayerPasses {
        region_scan_ns_per_row,
        decode_ns_per_cell,
        get_us: get_p50_us(d, &connection)?,
        put_us_per_row: put_us_per_row(d, &connection, &rows)?,
        encode_us_per_row: encode_us_per_row(d, &rows)?,
    })
}

fn write_rows_of(d: &Deployment) -> Vec<Row> {
    let mut rows = match d.workload {
        Workload::Ingest => d.ingest_rows.clone(),
        w => d.generator.rows(main_table(w)),
    };
    rows.truncate(ENCODE_ROWS);
    rows
}

/// Scan every region of the scanned tables through `Table::region_scanner`
/// without decoding, then decode every row key and cell of the result.
fn scan_and_decode(d: &Deployment, connection: &Arc<Connection>) -> Result<(f64, f64), String> {
    let mut scanned: Vec<(usize, Vec<RowResult>)> = Vec::new();
    let start = Instant::now();
    for &table in d.workload.scanned_tables() {
        let t = d.table(table);
        let index = d
            .tables
            .iter()
            .position(|x| x.table == table)
            .expect("loaded");
        let client = connection.table(t.catalog.table.clone());
        let locations = connection
            .locate_regions(&t.catalog.table)
            .map_err(|e| e.to_string())?;
        let mut rows = Vec::new();
        for location in &locations {
            let mut scanner =
                client.region_scanner(location, &Scan::new(), Some(&location.hostname));
            while let Some(batch) = scanner.next_batch().map_err(|e| e.to_string())? {
                rows.extend(batch);
            }
        }
        scanned.push((index, rows));
    }
    let scan_ns = start.elapsed().as_nanos() as f64;
    let rows: usize = scanned.iter().map(|(_, r)| r.len()).sum();

    let mut cells = 0usize;
    let mut decode_ns = 0f64;
    for (index, rows) in &scanned {
        let catalog = &d.tables[*index].catalog;
        let start = Instant::now();
        for row in rows {
            let key = decode_rowkey(catalog, &row.row).map_err(|e| e.to_string())?;
            black_box(key);
            for cell in &row.cells {
                let col = catalog
                    .columns
                    .iter()
                    .find(|c| {
                        !c.is_rowkey()
                            && c.qualifier.as_bytes() == &cell.key.qualifier[..]
                            && c.family.as_bytes() == &cell.key.family[..]
                    })
                    .ok_or("a scanned cell maps to no catalog column")?;
                let value = col
                    .codec
                    .decode(&cell.value, col.data_type)
                    .map_err(|e| e.to_string())?;
                black_box(value);
            }
            cells += row.cells.len();
        }
        decode_ns += start.elapsed().as_nanos() as f64;
    }
    Ok((
        stats::ratio(scan_ns, rows as f64),
        stats::ratio(decode_ns, cells as f64),
    ))
}

/// Median latency of a raw `Table::get` on seeded full keys of the table
/// the workload's point reads target.
fn get_p50_us(d: &Deployment, connection: &Arc<Connection>) -> Result<f64, String> {
    let table = match d.workload {
        Workload::Lookup => Table::Item,
        w => main_table(w),
    };
    let t = d.table(table);
    let rows = d.generator.rows(table);
    let client = connection.table(t.catalog.table.clone());
    let mut rng = StdRng::seed_from_u64(d.seed ^ 0x6E75);
    let mut us = Vec::with_capacity(GETS);
    for _ in 0..GETS {
        let row = &rows[rng.gen_range(0..rows.len())];
        let key_values: Vec<Value> = t
            .catalog
            .row_key
            .iter()
            .map(|&i| row.get(i).clone())
            .collect();
        let key = encode_rowkey(&t.catalog, &key_values).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let got = client.get(Get::new(key)).map_err(|e| e.to_string())?;
        us.push(start.elapsed().as_nanos() as f64 / 1e3);
        if got.is_empty() {
            return Err("raw get missed a loaded key".into());
        }
    }
    Ok(stats::median(&us))
}

/// Raw `Table::put_batch` of the workload's rows into a scratch table, so
/// the workload's own tables are left as they were.
fn put_us_per_row(
    d: &Deployment,
    connection: &Arc<Connection>,
    rows: &[Row],
) -> Result<f64, String> {
    let catalog = &d.table(main_table(d.workload)).catalog;
    let name = TableName::default_ns(SCRATCH_TABLE);
    let mut descriptor = TableDescriptor::new(name.clone());
    for family in catalog.families() {
        descriptor = descriptor.with_family(FamilyDescriptor::new(family.as_bytes().to_vec()));
    }
    d.cluster
        .create_table(descriptor)
        .map_err(|e| e.to_string())?;
    let client = connection.table(name);
    let rows = &rows[..PUT_ROWS.min(rows.len())];
    let mut ns = 0f64;
    for batch in rows.chunks(PUT_BATCH_ROWS) {
        let puts = batch
            .iter()
            .map(|r| encode_put(catalog, r))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let start = Instant::now();
        client.put_batch(puts).map_err(|e| e.to_string())?;
        ns += start.elapsed().as_nanos() as f64;
    }
    Ok(stats::ratio(ns / 1e3, rows.len() as f64))
}

fn encode_us_per_row(d: &Deployment, rows: &[Row]) -> Result<f64, String> {
    let catalog = &d.table(main_table(d.workload)).catalog;
    let start = Instant::now();
    for row in rows {
        black_box(encode_put(catalog, row).map_err(|e| e.to_string())?);
    }
    Ok(stats::ratio(
        start.elapsed().as_nanos() as f64 / 1e3,
        rows.len() as f64,
    ))
}
