//! The three workloads: their query streams, drawn from the seed, and the
//! checks that every result is right.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shc_engine::row::Row;
use shc_engine::session::Session;
use shc_engine::value::Value;
use shc_tpcds::{queries, Generator, Table};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The only year the TPC-DS-lite calendar covers (120 days from
/// 2001-01-01), so the seed draws the month.
pub const YEAR: i32 = 2001;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Analytic,
    Lookup,
    Ingest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "analytic" => Some(Workload::Analytic),
            "lookup" => Some(Workload::Lookup),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Analytic => "analytic",
            Workload::Lookup => "lookup",
            Workload::Ingest => "ingest",
        }
    }

    /// Tables loaded at set-up.
    pub fn tables(self) -> &'static [Table] {
        match self {
            Workload::Analytic | Workload::Lookup => &Table::ALL,
            Workload::Ingest => &[Table::StoreSales],
        }
    }

    /// Tables the workload's queries read; the per-layer passes scan these.
    pub fn scanned_tables(self) -> &'static [Table] {
        match self {
            Workload::Analytic => &Table::ALL,
            Workload::Lookup => &[Table::Item, Table::Inventory],
            Workload::Ingest => &[Table::StoreSales],
        }
    }
}

/// One read query with the parameters its expected result derives from.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    Q39a {
        moy: i32,
    },
    Q39b {
        moy: i32,
    },
    Q38,
    /// Full-key point lookup on `item`.
    ItemPoint {
        item: i64,
    },
    /// `inventory` prefix scan on the first two key columns.
    InventoryKeys {
        date: i64,
        item: i64,
    },
    /// `inventory` prefix scan on the first key column plus a pushed
    /// non-key filter.
    InventoryFiltered {
        date: i64,
        min_qty: i32,
    },
    /// Range aggregate on `store_sales`: a first-key-column range plus a
    /// pushed non-key filter.
    SalesRange {
        first: i64,
        last: i64,
        min_price: i64,
    },
}

/// What the client keeps of a result until it is checked: lookups keep a
/// digest, so that memory does not grow with the number of queries.
#[derive(Clone, Debug, PartialEq)]
pub enum Kept {
    Rows(Vec<Row>),
    Digest(RowsDigest),
}

/// Row count plus an order-independent hash of a multiset of rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowsDigest {
    pub rows: usize,
    pub hash: u64,
}

impl RowsDigest {
    pub fn of(rows: &[Row]) -> RowsDigest {
        let hash = rows.iter().fold(0u64, |acc, row| {
            let mut h = DefaultHasher::new();
            for v in &row.values {
                std::mem::discriminant(v).hash(&mut h);
                v.group_hash(&mut h);
            }
            acc.wrapping_add(h.finish())
        });
        RowsDigest {
            rows: rows.len(),
            hash,
        }
    }
}

impl Query {
    pub fn keep(&self, rows: Vec<Row>) -> Kept {
        match self {
            Query::ItemPoint { .. }
            | Query::InventoryKeys { .. }
            | Query::InventoryFiltered { .. } => Kept::Digest(RowsDigest::of(&rows)),
            _ => Kept::Rows(rows),
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Query::Q39a { .. } => "q39a",
            Query::Q39b { .. } => "q39b",
            Query::Q38 => "q38",
            Query::ItemPoint { .. } => "item_point",
            Query::InventoryKeys { .. } => "inventory_keys",
            Query::InventoryFiltered { .. } => "inventory_filtered",
            Query::SalesRange { .. } => "sales_range",
        }
    }

    pub fn sql(&self) -> String {
        match *self {
            Query::Q39a { moy } => queries::q39a(YEAR, moy),
            Query::Q39b { moy } => queries::q39b(YEAR, moy),
            Query::Q38 => queries::q38(YEAR),
            Query::ItemPoint { item } => format!(
                "SELECT i_item_sk, i_item_id, i_category, i_current_price \
                 FROM item WHERE i_item_sk = {item}"
            ),
            Query::InventoryKeys { date, item } => format!(
                "SELECT inv_warehouse_sk, inv_quantity_on_hand FROM inventory \
                 WHERE inv_date_sk = {date} AND inv_item_sk = {item}"
            ),
            Query::InventoryFiltered { date, min_qty } => format!(
                "SELECT inv_item_sk, inv_warehouse_sk, inv_quantity_on_hand FROM inventory \
                 WHERE inv_date_sk = {date} AND inv_quantity_on_hand >= {min_qty}"
            ),
            Query::SalesRange {
                first,
                last,
                min_price,
            } => format!(
                "SELECT COUNT(*) n, SUM(ss_quantity) q FROM store_sales \
                 WHERE ss_sold_date_sk BETWEEN {first} AND {last} \
                 AND ss_sales_price > {min_price}.0"
            ),
        }
    }
}

/// Query kinds a stream sends in turn (the `ingest` reader sends one kind).
pub const QUERY_KINDS: usize = 3;

/// The seeded stream of read queries a workload's client sends.
pub struct QueryStream {
    workload: Workload,
    rng: StdRng,
    sent: u64,
    days: i64,
    items: i64,
    /// `(date, item)` keys present in `inventory`, so that key lookups
    /// find rows.
    inventory_keys: Vec<(i64, i64)>,
}

impl QueryStream {
    /// `salt` separates independent streams drawn from one seed (the
    /// measured stream, warm-up, and per-layer key samples).
    pub fn new(workload: Workload, generator: &Generator, seed: u64, salt: u64) -> QueryStream {
        let scale = generator.scale();
        let inventory_keys = if workload == Workload::Lookup {
            let rows = generator.rows(Table::Inventory);
            rows.iter().map(|r| (int(r, 0), int(r, 1))).collect()
        } else {
            Vec::new()
        };
        QueryStream {
            workload,
            rng: StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)),
            sent: 0,
            days: scale.days as i64,
            items: scale.items as i64,
            inventory_keys,
        }
    }
}

impl Iterator for QueryStream {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let turn = self.sent % QUERY_KINDS as u64;
        self.sent += 1;
        let rng = &mut self.rng;
        Some(match (self.workload, turn) {
            // q39 joins month `moy` with `moy + 1`; the calendar has four.
            (Workload::Analytic, 0) => Query::Q39a {
                moy: rng.gen_range(1..=3),
            },
            (Workload::Analytic, 1) => Query::Q39b {
                moy: rng.gen_range(1..=3),
            },
            (Workload::Analytic, _) => Query::Q38,
            (Workload::Lookup, 0) => Query::ItemPoint {
                item: rng.gen_range(1..=self.items),
            },
            (Workload::Lookup, 1) => {
                let (date, item) = self.inventory_keys[rng.gen_range(0..self.inventory_keys.len())];
                Query::InventoryKeys { date, item }
            }
            (Workload::Lookup, _) => Query::InventoryFiltered {
                date: rng.gen_range(1..=self.days),
                min_qty: rng.gen_range(190..=215),
            },
            (Workload::Ingest, _) => {
                let first = rng.gen_range(1..=self.days - 9);
                Query::SalesRange {
                    first,
                    last: first + 9,
                    min_price: rng.gen_range(20..=80i64),
                }
            }
        })
    }
}

fn int(row: &Row, i: usize) -> i64 {
    row.get(i).as_i64().expect("integer column")
}

/// Expected results, derived from the generator outside the timed window.
pub struct Checker {
    /// Analytic: an in-memory session over the same generated tables.
    reference: Option<Arc<Session>>,
    reference_results: HashMap<String, Vec<Row>>,
    items: Vec<Row>,
    inventory_by_date: HashMap<i64, Vec<Row>>,
    /// Ingest: `(ss_quantity, ss_sales_price)` by sale date, of
    /// `store_sales` as preloaded and of the rows the writer sends.
    sales_before: HashMap<i64, Vec<(i64, f64)>>,
    sales_written: HashMap<i64, Vec<(i64, f64)>>,
}

impl Checker {
    pub fn new(workload: Workload, generator: &Generator, written: &[Row]) -> Checker {
        let mut checker = Checker {
            reference: None,
            reference_results: HashMap::new(),
            items: Vec::new(),
            inventory_by_date: HashMap::new(),
            sales_before: HashMap::new(),
            sales_written: sales_by_date(written),
        };
        match workload {
            Workload::Analytic => {
                let session = Session::new_default();
                shc_tpcds::load_into_memory(&session, generator, &Table::ALL, 4);
                checker.reference = Some(session);
            }
            Workload::Lookup => {
                checker.items = generator.rows(Table::Item);
                for row in generator.rows(Table::Inventory) {
                    checker
                        .inventory_by_date
                        .entry(int(&row, 0))
                        .or_default()
                        .push(row);
                }
            }
            Workload::Ingest => {
                checker.sales_before = sales_by_date(&generator.rows(Table::StoreSales))
            }
        }
        checker
    }

    /// Whether `got` is a correct result of `query`.
    pub fn check(&mut self, query: &Query, got: &Kept) -> bool {
        match (query, got) {
            (Query::Q39a { .. } | Query::Q39b { .. } | Query::Q38, Kept::Rows(got)) => {
                let sql = query.sql();
                if !self.reference_results.contains_key(&sql) {
                    let session = self.reference.as_ref().expect("analytic reference session");
                    let rows = session
                        .sql(&sql)
                        .and_then(|df| df.collect())
                        .expect("reference query runs");
                    self.reference_results.insert(sql.clone(), rows);
                }
                rows_approx_eq(got, &self.reference_results[&sql])
            }
            (&Query::ItemPoint { item }, Kept::Digest(d)) => {
                let expected = self.items[(item - 1) as usize].project(&[0, 1, 3, 4]);
                *d == RowsDigest::of(&[expected])
            }
            (&Query::InventoryKeys { date, item }, Kept::Digest(d)) => {
                *d == RowsDigest::of(&self.inventory_on(date, |r| int(r, 1) == item, &[2, 3]))
            }
            (&Query::InventoryFiltered { date, min_qty }, Kept::Digest(d)) => {
                let keep = |r: &Row| int(r, 3) >= i64::from(min_qty);
                *d == RowsDigest::of(&self.inventory_on(date, keep, &[1, 2, 3]))
            }
            (Query::SalesRange { .. }, Kept::Rows(got)) => {
                // Rows are only added while the reader runs, so the answer
                // lies between the preloaded table's and the final table's.
                let (Some(count), Some(qty)) = (got_int(got, 0), got_int(got, 1)) else {
                    return false;
                };
                let low = sales_aggregate(query, &self.sales_before);
                let added = sales_aggregate(query, &self.sales_written);
                (low.0..=low.0 + added.0).contains(&count)
                    && (low.1..=low.1 + added.1).contains(&qty)
            }
            _ => false,
        }
    }

    fn inventory_on(&self, date: i64, keep: impl Fn(&Row) -> bool, cols: &[usize]) -> Vec<Row> {
        self.inventory_by_date
            .get(&date)
            .map(|rows| {
                rows.iter()
                    .filter(|r| keep(r))
                    .map(|r| r.project(cols))
                    .collect()
            })
            .unwrap_or_default()
    }
}

fn got_int(rows: &[Row], col: usize) -> Option<i64> {
    match rows {
        [row] => match row.get(col) {
            Value::Null => Some(0),
            v => v.as_i64(),
        },
        _ => None,
    }
}

fn sales_by_date(rows: &[Row]) -> HashMap<i64, Vec<(i64, f64)>> {
    let mut by_date: HashMap<i64, Vec<(i64, f64)>> = HashMap::new();
    for r in rows {
        let price = r.get(4).as_f64().expect("price column");
        by_date
            .entry(int(r, 0))
            .or_default()
            .push((int(r, 3), price));
    }
    by_date
}

/// `(COUNT(*), SUM(ss_quantity))` of `query` over sales grouped by date.
fn sales_aggregate(query: &Query, by_date: &HashMap<i64, Vec<(i64, f64)>>) -> (i64, i64) {
    let Query::SalesRange {
        first,
        last,
        min_price,
    } = *query
    else {
        unreachable!("sales aggregate of a non-sales query");
    };
    (first..=last)
        .filter_map(|date| by_date.get(&date))
        .flatten()
        .filter(|(_, price)| *price > min_price as f64)
        .fold((0, 0), |(n, q), (qty, _)| (n + 1, q + qty))
}

/// Exact equality on everything except Float64, which is compared within a
/// 1e-9 relative tolerance: the two plans partition the data differently,
/// so floating-point aggregates may differ in the last bits.
pub fn rows_approx_eq(got: &[Row], expected: &[Row]) -> bool {
    got.len() == expected.len()
        && got.iter().zip(expected).all(|(g, e)| {
            g.len() == e.len()
                && g.values
                    .iter()
                    .zip(&e.values)
                    .all(|(gv, ev)| match (gv, ev) {
                        (Value::Float64(a), Value::Float64(b)) => {
                            (a - b).abs() <= 1e-9 * b.abs().max(1.0)
                        }
                        _ => gv == ev,
                    })
        })
}
