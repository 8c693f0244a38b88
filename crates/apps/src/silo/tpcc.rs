//! TPC-C on the Silo engine (§5.2, Figure 12; Table 2).
//!
//! The paper drives Silo with "the TPC-C benchmark with a scaling
//! factor of 200 (about 20 GB total working set)… five request types in
//! the following distribution: New-Order (44.5 %), Payment (43.1 %),
//! Order-Status (4.1 %), Delivery (4.2 %), and Stock-Level (4.1 %)".
//!
//! This module implements the five transactions over [`Engine`] with
//! spec-level input generation: NURand key selection, 60 % of Payments
//! and Order-Status by customer *last name* through an in-arena
//! secondary index (middle-row rule), 15 % of Payments against a
//! remote warehouse's customer, and 1 % of New-Order lines supplied by
//! a remote warehouse. One simplification remains (documented in
//! `DESIGN.md`): the new-order queue is represented by per-district
//! `(no_oldest, next_o_id)` counters instead of a separate NEW-ORDER
//! table. Row paddings reproduce realistic row footprints so the page
//! working set matches the paper's profile.
//!
//! Concurrency: transactions are generated in worker-sized batches
//! that execute against a common snapshot and commit in sequence, so
//! contended rows (warehouse/district YTD, district `next_o_id`) cause
//! real OCC validation failures, aborts and re-executions.

use std::cell::Cell;
use std::ops::Deref;

use desim::Rng;
use paging::trace::Trace;
use paging::TraceRecorder;
use runtime::Workload;

use super::{Abort, Engine, TableId, TableSpec, Txn};

/// Table ids (fixed layout).
pub const WAREHOUSE: TableId = TableId(0);
/// District table.
pub const DISTRICT: TableId = TableId(1);
/// Customer table.
pub const CUSTOMER: TableId = TableId(2);
/// Item catalogue (shared across warehouses).
pub const ITEM: TableId = TableId(3);
/// Stock table.
pub const STOCK: TableId = TableId(4);
/// Orders table.
pub const ORDERS: TableId = TableId(5);
/// Order-line table.
pub const ORDER_LINE: TableId = TableId(6);
/// History append table.
pub const HISTORY: TableId = TableId(7);
/// Customer last-name secondary index (bucket rows per district).
pub const CUSTOMER_NAME: TableId = TableId(8);

// Field indices.
const W_YTD: usize = 0;
const W_TAX: usize = 1;
const D_YTD: usize = 0;
const D_TAX: usize = 1;
const D_NEXT_O: usize = 2;
const D_NO_OLDEST: usize = 3;
const C_BAL: usize = 0;
const C_YTD_PAY: usize = 1;
const C_PAY_CNT: usize = 2;
const C_DLV_CNT: usize = 3;
const C_LAST_O: usize = 4;
const C_DISC: usize = 5;
#[cfg_attr(not(test), allow(dead_code))]
const C_NAME: usize = 6;
const I_PRICE: usize = 0;
const S_QTY: usize = 0;
const S_YTD: usize = 1;
const S_CNT: usize = 2;
const O_C: usize = 0;
const O_CARRIER: usize = 2;
const O_OLCNT: usize = 3;
const OL_I: usize = 0;
const OL_AMT: usize = 2;
const OL_DLV: usize = 3;
/// Name-bucket row: [count, customer ids…].
const NB_COUNT: usize = 0;
/// Max customers recorded per name bucket.
const NB_CAP: usize = 15;

/// Per-district order-id key space.
const O_SPACE: u64 = 1 << 30;

#[inline]
fn i2u(v: i64) -> u64 {
    v as u64
}

#[inline]
fn u2i(v: u64) -> i64 {
    v as i64
}

/// Scale of the TPC-C deployment.
#[derive(Debug, Clone, Copy)]
pub struct TpccScale {
    /// Warehouses (paper: scale factor 200).
    pub warehouses: u64,
    /// Districts per warehouse (spec: 10).
    pub districts_per_w: u64,
    /// Customers per district (spec: 3000).
    pub customers_per_d: u64,
    /// Items in the catalogue (spec: 100 000).
    pub items: u64,
    /// Pre-loaded orders per district (spec: 3000).
    pub preload_orders: u64,
    /// Row headroom for runtime order inserts (global).
    pub extra_orders: u64,
}

impl TpccScale {
    /// A spec-shaped deployment scaled to `warehouses` (districts,
    /// customers, items at spec values).
    pub fn paper_like(warehouses: u64) -> TpccScale {
        TpccScale {
            warehouses,
            districts_per_w: 10,
            customers_per_d: 3000,
            items: 100_000,
            preload_orders: 3000,
            // Headroom for runtime New-Order inserts across a full
            // multi-point sweep (~180 K at the Full scale's grid).
            extra_orders: 450_000,
        }
    }

    /// A tiny deployment for unit tests.
    pub fn tiny() -> TpccScale {
        TpccScale {
            warehouses: 1,
            districts_per_w: 2,
            customers_per_d: 100,
            items: 500,
            preload_orders: 50,
            extra_orders: 20_000,
        }
    }

    fn districts_total(&self) -> u64 {
        self.warehouses * self.districts_per_w
    }

    /// Distinct customer last names per district (spec: 1000, clamped
    /// so every name is populated at tiny scales).
    pub fn name_count(&self) -> u64 {
        self.customers_per_d.min(1000)
    }
}

/// The TPC-C database: Silo engine + schema knowledge.
pub struct SiloDb {
    engine: Engine,
    scale: TpccScale,
    history_seq: Cell<u64>,
}

/// How a transaction picks its customer (spec: 60 % by last name via
/// the secondary index, 40 % by id).
#[derive(Debug, Clone, Copy)]
pub enum CustomerSel {
    /// Direct customer id.
    ById(u64),
    /// Last-name lookup: all matches, middle row (spec clause 2.5.2.2).
    ByName(u64),
}

/// Most lines a New-Order carries (spec 2.4.1.3: 5 to 15).
const MAX_LINES: usize = 15;

/// The `(item, quantity, supplying warehouse)` lines of one New-Order,
/// stored inline so drawing an order allocates nothing; derefs to the
/// slice of drawn lines.
#[derive(Debug, Clone, Copy)]
pub struct OrderLines {
    len: usize,
    lines: [(u64, u64, u64); MAX_LINES],
}

impl Deref for OrderLines {
    type Target = [(u64, u64, u64)];

    fn deref(&self) -> &Self::Target {
        &self.lines[..self.len]
    }
}

/// Drawn parameters of one transaction (reused verbatim on retry, as
/// the spec requires).
// New-Order is 44.5 % of the mix, and boxing its lines is the
// per-request allocation `OrderLines` exists to avoid.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum TxnParams {
    /// New-Order: 44.5 %.
    NewOrder {
        /// Home warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Customer.
        c: u64,
        /// `(item, quantity, supplying warehouse)` per line — 1 % of
        /// lines are supplied remotely when more than one warehouse
        /// exists.
        lines: OrderLines,
        /// 1 % of new-orders carry an invalid item and roll back.
        rollback: bool,
    },
    /// Payment: 43.1 %.
    Payment {
        /// Warehouse receiving the payment.
        w: u64,
        /// District.
        d: u64,
        /// The paying customer's warehouse (15 % remote when W > 1).
        c_w: u64,
        /// The paying customer's district.
        c_d: u64,
        /// Customer selection.
        c: CustomerSel,
        /// Amount in cents.
        amount: u64,
    },
    /// Order-Status: 4.1 %.
    OrderStatus {
        /// Warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Customer selection.
        c: CustomerSel,
    },
    /// Delivery: 4.2 %.
    Delivery {
        /// Warehouse.
        w: u64,
        /// Carrier id.
        carrier: u64,
    },
    /// Stock-Level: 4.1 %.
    StockLevel {
        /// Warehouse.
        w: u64,
        /// District.
        d: u64,
        /// Quantity threshold.
        threshold: u64,
    },
}

impl TxnParams {
    /// Request class index (order matches [`TpccWorkload::classes`]).
    pub fn class(&self) -> u16 {
        match self {
            TxnParams::NewOrder { .. } => 0,
            TxnParams::Payment { .. } => 1,
            TxnParams::OrderStatus { .. } => 2,
            TxnParams::Delivery { .. } => 3,
            TxnParams::StockLevel { .. } => 4,
        }
    }
}

/// TPC-C NURand.
fn nurand(rng: &mut Rng, a: u64, n: u64) -> u64 {
    const C: u64 = 123;
    ((rng.gen_range(a + 1) | rng.gen_range(n)) + C) % n
}

impl SiloDb {
    /// Builds and populates the database.
    pub fn build(scale: TpccScale, seed: u64) -> SiloDb {
        let dt = scale.districts_total();
        let customers = dt * scale.customers_per_d;
        let stock = scale.warehouses * scale.items;
        let preloaded_orders = dt * scale.preload_orders;
        let max_orders = preloaded_orders + scale.extra_orders;
        let max_lines = max_orders * 15;
        let specs = [
            // warehouse: [ytd, tax], 96 B rows.
            TableSpec {
                max_rows: scale.warehouses,
                fields: 2,
                pad: 72,
            },
            // district: [ytd, tax, next_o, no_oldest], 96 B.
            TableSpec {
                max_rows: dt,
                fields: 4,
                pad: 56,
            },
            // customer: 640 B rows (spec-sized footprint).
            TableSpec {
                max_rows: customers,
                fields: 7,
                pad: 576,
            },
            // item: [price], 88 B.
            TableSpec {
                max_rows: scale.items,
                fields: 1,
                pad: 72,
            },
            // stock: [qty, ytd, cnt], 328 B.
            TableSpec {
                max_rows: stock,
                fields: 3,
                pad: 296,
            },
            // orders: [c, entry, carrier, ol_cnt], 48 B.
            TableSpec {
                max_rows: max_orders,
                fields: 4,
                pad: 8,
            },
            // order_line: [i, qty, amount, dlv], 64 B.
            TableSpec {
                max_rows: max_lines,
                fields: 4,
                pad: 24,
            },
            // history: [w, d, amount, ts], 48 B.
            TableSpec {
                max_rows: customers + scale.extra_orders,
                fields: 4,
                pad: 8,
            },
            // customer-name buckets: [count, ids…], one row per
            // (district, last name).
            TableSpec {
                max_rows: dt * scale.name_count(),
                fields: 1 + NB_CAP,
                pad: 0,
            },
        ];
        let mut engine = Engine::build(&specs, 0);
        let mut rng = Rng::new(seed ^ 0x79CC);

        // Items.
        for i in 0..scale.items {
            let price = 100 + rng.gen_range(9_900);
            engine.load_row(ITEM, i, &[price]);
        }
        // Warehouses and districts: W_YTD = Σ D_YTD from the start
        // (TPC-C consistency condition 1).
        let d_ytd = 3_000_000u64; // $30,000.00 in cents (spec initial D_YTD)
        for w in 0..scale.warehouses {
            engine.load_row(
                WAREHOUSE,
                w,
                &[d_ytd * scale.districts_per_w, rng.gen_range(2000)],
            );
            for d in 0..scale.districts_per_w {
                let did = w * scale.districts_per_w + d;
                let next_o = scale.preload_orders;
                let no_oldest = scale.preload_orders * 7 / 10;
                engine.load_row(
                    DISTRICT,
                    did,
                    &[d_ytd, rng.gen_range(2000), next_o, no_oldest],
                );
            }
        }
        // Customers, plus the last-name secondary index (spec: names
        // are drawn from a fixed syllable table; `c % name_count` keeps
        // every name populated at every scale).
        let names = scale.name_count();
        for did in 0..dt {
            for name in 0..names {
                engine.load_row(CUSTOMER_NAME, did * names + name, &[0; 1 + NB_CAP]);
            }
            for c in 0..scale.customers_per_d {
                let key = did * scale.customers_per_d + c;
                let name = c % names;
                engine.load_row(
                    CUSTOMER,
                    key,
                    &[i2u(-10_00), 10_00, 1, 0, 0, rng.gen_range(5000), name],
                );
                let bkey = did * names + name;
                let count = engine.peek_field(CUSTOMER_NAME, bkey, NB_COUNT).unwrap();
                if (count as usize) < NB_CAP {
                    engine.poke_field(CUSTOMER_NAME, bkey, 1 + count as usize, c);
                    engine.poke_field(CUSTOMER_NAME, bkey, NB_COUNT, count + 1);
                }
            }
        }
        // Stock.
        for w in 0..scale.warehouses {
            for i in 0..scale.items {
                engine.load_row(STOCK, w * scale.items + i, &[10 + rng.gen_range(91), 0, 0]);
            }
        }
        // Pre-loaded orders + order lines; orders below `no_oldest` are
        // delivered (carrier set, delivery dates stamped).
        for did in 0..dt {
            let no_oldest = scale.preload_orders * 7 / 10;
            for o in 0..scale.preload_orders {
                let c = rng.gen_range(scale.customers_per_d);
                let ol_cnt = 5 + rng.gen_range(11);
                let delivered = o < no_oldest;
                let carrier = if delivered { 1 + rng.gen_range(10) } else { 0 };
                engine.load_row(ORDERS, did * O_SPACE + o, &[c, o, carrier, ol_cnt]);
                for ol in 0..ol_cnt {
                    let i = rng.gen_range(scale.items);
                    let qty = 5;
                    let amount = if delivered {
                        rng.gen_range(9_999) + 1
                    } else {
                        0
                    };
                    let dlv = if delivered { o } else { 0 };
                    engine.load_row(
                        ORDER_LINE,
                        (did * O_SPACE + o) * 16 + ol,
                        &[i, qty, amount, dlv],
                    );
                }
                // Track the customer's most recent order (load phase).
                let ckey = did * scale.customers_per_d + c;
                engine.poke_field(CUSTOMER, ckey, C_LAST_O, o);
            }
        }

        SiloDb {
            engine,
            scale,
            history_seq: Cell::new(0),
        }
    }

    /// The engine (tests and invariant checks).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (commit phase).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Deployment scale.
    pub fn scale(&self) -> TpccScale {
        self.scale
    }

    /// Draws one transaction's parameters with the paper's mix.
    pub fn draw(&self, rng: &mut Rng) -> TxnParams {
        let w = rng.gen_range(self.scale.warehouses);
        let roll = rng.gen_range(1000);
        if roll < 445 {
            let d = rng.gen_range(self.scale.districts_per_w);
            let c = nurand(rng, 1023, self.scale.customers_per_d);
            let mut lines = OrderLines {
                len: 5 + rng.gen_range(11) as usize,
                lines: [(0, 0, 0); MAX_LINES],
            };
            for line in &mut lines.lines[..lines.len] {
                let item = nurand(rng, 8191, self.scale.items);
                let qty = 1 + rng.gen_range(10);
                // Spec 2.4.1.5: 1 % of lines are supplied remotely.
                let supply_w = if self.scale.warehouses > 1 && rng.gen_bool(0.01) {
                    self.other_warehouse(w, rng)
                } else {
                    w
                };
                *line = (item, qty, supply_w);
            }
            TxnParams::NewOrder {
                w,
                d,
                c,
                lines,
                rollback: rng.gen_bool(0.01),
            }
        } else if roll < 876 {
            // Spec 2.5.1.2: 85 % home customer, 15 % remote warehouse.
            let (c_w, c_d) = if self.scale.warehouses > 1 && rng.gen_bool(0.15) {
                (
                    self.other_warehouse(w, rng),
                    rng.gen_range(self.scale.districts_per_w),
                )
            } else {
                (w, rng.gen_range(self.scale.districts_per_w))
            };
            TxnParams::Payment {
                w,
                d: rng.gen_range(self.scale.districts_per_w),
                c_w,
                c_d,
                c: self.draw_customer(rng),
                amount: 100 + rng.gen_range(500_000), // $1.00–$5,000.00 in cents
            }
        } else if roll < 917 {
            TxnParams::OrderStatus {
                w,
                d: rng.gen_range(self.scale.districts_per_w),
                c: self.draw_customer(rng),
            }
        } else if roll < 959 {
            TxnParams::Delivery {
                w,
                carrier: 1 + rng.gen_range(10),
            }
        } else {
            TxnParams::StockLevel {
                w,
                d: rng.gen_range(self.scale.districts_per_w),
                threshold: 10 + rng.gen_range(11),
            }
        }
    }

    fn did(&self, w: u64, d: u64) -> u64 {
        w * self.scale.districts_per_w + d
    }

    fn other_warehouse(&self, w: u64, rng: &mut Rng) -> u64 {
        let o = rng.gen_range(self.scale.warehouses - 1);
        if o >= w {
            o + 1
        } else {
            o
        }
    }

    /// Spec 2.5.1.2 / 2.6.1.2: 60 % by last name, 40 % by id.
    fn draw_customer(&self, rng: &mut Rng) -> CustomerSel {
        if rng.gen_bool(0.6) {
            CustomerSel::ByName(nurand(rng, 255, self.scale.name_count()))
        } else {
            CustomerSel::ById(nurand(rng, 1023, self.scale.customers_per_d))
        }
    }

    /// Resolves a customer selection to a customer id within `did`,
    /// recording the secondary-index touches; last-name lookups return
    /// the middle matching row (spec 2.5.2.2).
    fn resolve_customer(
        &self,
        did: u64,
        sel: CustomerSel,
        txn: &mut Txn,
        rec: &mut TraceRecorder,
    ) -> u64 {
        match sel {
            CustomerSel::ById(c) => c,
            CustomerSel::ByName(name) => {
                let bkey = did * self.scale.name_count() + name;
                let row = self
                    .engine
                    .read(CUSTOMER_NAME, bkey, txn, rec)
                    .expect("name bucket loaded");
                let count = self.engine.field(row, NB_COUNT, rec).max(1);
                // Sorting by first name then taking ceil(n/2) — the
                // bucket is insertion-ordered, which is id order here.
                let middle = (count as usize).div_ceil(2) - 1;
                rec.compute_ns(30.0 * count as f64); // sort-by-first-name
                self.engine.field(row, 1 + middle.min(NB_CAP - 1), rec)
            }
        }
    }

    fn ckey(&self, did: u64, c: u64) -> u64 {
        did * self.scale.customers_per_d + c
    }

    /// Executes a transaction against the current snapshot, buffering
    /// its effects in `txn`. Returns `false` for a user-initiated
    /// rollback (1 % of new-orders).
    pub fn execute(&self, p: &TxnParams, txn: &mut Txn, rec: &mut TraceRecorder) -> bool {
        match p {
            TxnParams::NewOrder {
                w,
                d,
                c,
                lines,
                rollback,
            } => self.exec_new_order(*w, *d, *c, lines, *rollback, txn, rec),
            TxnParams::Payment {
                w,
                d,
                c_w,
                c_d,
                c,
                amount,
            } => {
                self.exec_payment(*w, *d, *c_w, *c_d, *c, *amount, txn, rec);
                true
            }
            TxnParams::OrderStatus { w, d, c } => {
                self.exec_order_status(*w, *d, *c, txn, rec);
                true
            }
            TxnParams::Delivery { w, carrier } => {
                self.exec_delivery(*w, *carrier, txn, rec);
                true
            }
            TxnParams::StockLevel { w, d, threshold } => {
                self.exec_stock_level(*w, *d, *threshold, txn, rec);
                true
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_new_order(
        &self,
        w: u64,
        d: u64,
        c: u64,
        lines: &[(u64, u64, u64)],
        rollback: bool,
        txn: &mut Txn,
        rec: &mut TraceRecorder,
    ) -> bool {
        let e = &self.engine;
        let wrow = e.read(WAREHOUSE, w, txn, rec).expect("warehouse");
        let w_tax = e.field(wrow, W_TAX, rec);
        let did = self.did(w, d);
        let drow = e.read(DISTRICT, did, txn, rec).expect("district");
        let d_tax = e.field(drow, D_TAX, rec);
        let o_id = e.field(drow, D_NEXT_O, rec);
        e.write_field(txn, drow, D_NEXT_O, o_id + 1);
        let ckey = self.ckey(did, c);
        let crow = e.read(CUSTOMER, ckey, txn, rec).expect("customer");
        let disc = e.field(crow, C_DISC, rec);
        e.write_field(txn, crow, C_LAST_O, o_id);

        let mut total = 0u64;
        for (li, &(item, qty, supply_w)) in lines.iter().enumerate() {
            if rollback && li == lines.len() - 1 {
                // Unused item number: the spec's intentional rollback.
                rec.compute_ns(50.0);
                return false;
            }
            let irow = e.read(ITEM, item, txn, rec).expect("item");
            let price = e.field(irow, I_PRICE, rec);
            let skey = supply_w * self.scale.items + item;
            let srow = e.read(STOCK, skey, txn, rec).expect("stock");
            let s_qty = e.field(srow, S_QTY, rec);
            let new_qty = if s_qty > qty + 10 {
                s_qty - qty
            } else {
                s_qty + 91 - qty
            };
            e.write_field(txn, srow, S_QTY, new_qty);
            e.write_field(txn, srow, S_YTD, e.field(srow, S_YTD, rec) + qty);
            e.write_field(txn, srow, S_CNT, e.field(srow, S_CNT, rec) + 1);
            let amount = qty * price;
            total += amount;
            e.insert(
                txn,
                ORDER_LINE,
                (did * O_SPACE + o_id) * 16 + li as u64,
                &[item, qty, amount, 0],
            );
            // Per-line application logic.
            rec.compute_ns(40.0);
        }
        let _ = (w_tax, d_tax, disc, total);
        e.insert(
            txn,
            ORDERS,
            did * O_SPACE + o_id,
            &[c, o_id, 0, lines.len() as u64],
        );
        rec.compute_ns(120.0);
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_payment(
        &self,
        w: u64,
        d: u64,
        c_w: u64,
        c_d: u64,
        c: CustomerSel,
        amount: u64,
        txn: &mut Txn,
        rec: &mut TraceRecorder,
    ) {
        let e = &self.engine;
        let wrow = e.read(WAREHOUSE, w, txn, rec).expect("warehouse");
        e.write_field(txn, wrow, W_YTD, e.field(wrow, W_YTD, rec) + amount);
        let did = self.did(w, d);
        let drow = e.read(DISTRICT, did, txn, rec).expect("district");
        e.write_field(txn, drow, D_YTD, e.field(drow, D_YTD, rec) + amount);
        // The paying customer may live in a remote warehouse (15 %).
        let c_did = self.did(c_w, c_d);
        let c = self.resolve_customer(c_did, c, txn, rec);
        let ckey = self.ckey(c_did, c);
        let crow = e.read(CUSTOMER, ckey, txn, rec).expect("customer");
        let bal = u2i(e.field(crow, C_BAL, rec));
        e.write_field(txn, crow, C_BAL, i2u(bal - amount as i64));
        e.write_field(txn, crow, C_YTD_PAY, e.field(crow, C_YTD_PAY, rec) + amount);
        e.write_field(txn, crow, C_PAY_CNT, e.field(crow, C_PAY_CNT, rec) + 1);
        let seq = self.history_seq.get();
        self.history_seq.set(seq + 1);
        e.insert(txn, HISTORY, seq, &[w, d, amount, seq]);
        rec.compute_ns(100.0);
    }

    fn exec_order_status(
        &self,
        w: u64,
        d: u64,
        c: CustomerSel,
        txn: &mut Txn,
        rec: &mut TraceRecorder,
    ) {
        let e = &self.engine;
        let did = self.did(w, d);
        let c = self.resolve_customer(did, c, txn, rec);
        let ckey = self.ckey(did, c);
        let crow = e.read(CUSTOMER, ckey, txn, rec).expect("customer");
        let _bal = e.field(crow, C_BAL, rec);
        let last_o = e.field(crow, C_LAST_O, rec);
        if let Some(orow) = e.read(ORDERS, did * O_SPACE + last_o, txn, rec) {
            let ol_cnt = e.field(orow, O_OLCNT, rec);
            let _carrier = e.field(orow, O_CARRIER, rec);
            for ol in 0..ol_cnt {
                if let Some(lrow) = e.read(ORDER_LINE, (did * O_SPACE + last_o) * 16 + ol, txn, rec)
                {
                    let _ = e.field(lrow, OL_AMT, rec);
                }
            }
        }
        rec.compute_ns(80.0);
    }

    fn exec_delivery(&self, w: u64, carrier: u64, txn: &mut Txn, rec: &mut TraceRecorder) {
        let e = &self.engine;
        for d in 0..self.scale.districts_per_w {
            let did = self.did(w, d);
            let drow = e.read(DISTRICT, did, txn, rec).expect("district");
            let oldest = e.field(drow, D_NO_OLDEST, rec);
            let next_o = e.field(drow, D_NEXT_O, rec);
            if oldest >= next_o {
                continue; // no undelivered order in this district
            }
            e.write_field(txn, drow, D_NO_OLDEST, oldest + 1);
            let okey = did * O_SPACE + oldest;
            let Some(orow) = e.read(ORDERS, okey, txn, rec) else {
                continue;
            };
            let c = e.field(orow, O_C, rec);
            let ol_cnt = e.field(orow, O_OLCNT, rec);
            e.write_field(txn, orow, O_CARRIER, carrier);
            let mut sum = 0u64;
            for ol in 0..ol_cnt {
                if let Some(lrow) = e.read(ORDER_LINE, okey * 16 + ol, txn, rec) {
                    sum += e.field(lrow, OL_AMT, rec);
                    e.write_field(txn, lrow, OL_DLV, 1);
                }
            }
            let ckey = self.ckey(did, c);
            let crow = e.read(CUSTOMER, ckey, txn, rec).expect("customer");
            let bal = u2i(e.field(crow, C_BAL, rec));
            e.write_field(txn, crow, C_BAL, i2u(bal + sum as i64));
            e.write_field(txn, crow, C_DLV_CNT, e.field(crow, C_DLV_CNT, rec) + 1);
            rec.compute_ns(120.0);
        }
    }

    fn exec_stock_level(
        &self,
        w: u64,
        d: u64,
        threshold: u64,
        txn: &mut Txn,
        rec: &mut TraceRecorder,
    ) {
        let e = &self.engine;
        let did = self.did(w, d);
        let drow = e.read(DISTRICT, did, txn, rec).expect("district");
        let next_o = e.field(drow, D_NEXT_O, rec);
        let from = next_o.saturating_sub(20);
        let mut low = 0u64;
        for o in from..next_o {
            let okey = did * O_SPACE + o;
            let Some(orow) = e.read(ORDERS, okey, txn, rec) else {
                continue;
            };
            let ol_cnt = e.field(orow, O_OLCNT, rec);
            for ol in 0..ol_cnt {
                let Some(lrow) = e.read(ORDER_LINE, okey * 16 + ol, txn, rec) else {
                    continue;
                };
                let item = e.field(lrow, OL_I, rec);
                let srow = e
                    .read(STOCK, w * self.scale.items + item, txn, rec)
                    .expect("stock");
                if e.field(srow, S_QTY, rec) < threshold {
                    low += 1;
                }
                rec.compute_ns(15.0);
            }
        }
        let _ = low;
        rec.compute_ns(150.0);
    }
}

/// Per-class commit statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TpccStats {
    /// Committed transactions per class.
    pub commits: [u64; 5],
    /// OCC retries (validation failures that re-executed).
    pub retries: u64,
    /// Transactions given up after the retry budget.
    pub failed: u64,
    /// User-initiated rollbacks (1 % of new-orders).
    pub user_aborts: u64,
}

/// Transactions in flight per batch; mirrors the worker count.
const BATCH: usize = 8;

/// One in-flight transaction's reusable state: its read/write/insert
/// sets and, once the batch has committed, its finished trace.
#[derive(Default)]
struct Slot {
    txn: Txn,
    trace: Trace,
}

/// The TPC-C workload adapter (implements [`Workload`]).
pub struct TpccWorkload {
    db: SiloDb,
    /// The current batch. A finished trace is handed out by swapping it
    /// with the caller's buffer, which then records the next batch: in
    /// steady state a batch allocates nothing.
    slots: [Slot; BATCH],
    /// Next slot to hand out; `BATCH` when the batch is spent.
    next: usize,
    /// Each slot's drawn parameters, recorder and whether it survived
    /// execution, between a batch's execute and commit phases.
    staged: Vec<(TxnParams, TraceRecorder, bool)>,
    stats: TpccStats,
}

impl TpccWorkload {
    /// Builds the database and the workload.
    pub fn new(scale: TpccScale, seed: u64) -> TpccWorkload {
        TpccWorkload {
            db: SiloDb::build(scale, seed),
            slots: Default::default(),
            next: BATCH,
            staged: Vec::with_capacity(BATCH),
            stats: TpccStats::default(),
        }
    }

    /// The database (invariant checks).
    pub fn db(&self) -> &SiloDb {
        &self.db
    }

    /// Commit statistics.
    pub fn stats(&self) -> TpccStats {
        self.stats
    }

    fn generate_batch(&mut self, rng: &mut Rng) {
        // Phase 1: execute all against the same snapshot (drawing
        // parameters reads no database state, so it interleaves).
        for slot in &mut self.slots {
            let p = self.db.draw(rng);
            let mut rec = TraceRecorder::reusing(&mut slot.trace);
            rec.compute_ns(150.0); // request parse
            slot.txn.clear();
            let ok = self.db.execute(&p, &mut slot.txn, &mut rec);
            self.staged.push((p, rec, ok));
        }
        // Phase 2: commit in order; conflicting transactions abort and
        // re-execute against the updated state.
        for (slot, (p, mut rec, ok)) in self.slots.iter_mut().zip(self.staged.drain(..)) {
            let class = p.class();
            if !ok {
                self.stats.user_aborts += 1;
                rec.compute_ns(80.0);
                rec.finish_into(&mut slot.trace, class, 128, 32);
                continue;
            }
            let mut tries = 0;
            loop {
                match self.db.engine.commit(&slot.txn, &mut rec) {
                    Ok(_) => {
                        self.stats.commits[class as usize] += 1;
                        break;
                    }
                    Err(Abort::ReadValidation) => {
                        tries += 1;
                        self.stats.retries += 1;
                        if tries > 5 {
                            self.stats.failed += 1;
                            break;
                        }
                        rec.compute_ns(120.0); // abort handling
                        slot.txn.clear();
                        if !self.db.execute(&p, &mut slot.txn, &mut rec) {
                            self.stats.user_aborts += 1;
                            break;
                        }
                    }
                }
            }
            rec.compute_ns(80.0); // reply serialization
            rec.finish_into(&mut slot.trace, class, 128, 64);
        }
    }
}

impl Workload for TpccWorkload {
    fn classes(&self) -> &'static [&'static str] {
        &[
            "NewOrder",
            "Payment",
            "OrderStatus",
            "Delivery",
            "StockLevel",
        ]
    }

    fn total_pages(&self) -> u64 {
        self.db.engine.total_pages()
    }

    fn next_request_into(&mut self, rng: &mut Rng, buf: &mut Trace) {
        if self.next == BATCH {
            self.generate_batch(rng);
            self.next = 0;
        }
        std::mem::swap(buf, &mut self.slots[self.next].trace);
        self.next += 1;
    }
}

#[cfg(test)]
mod tests {
    use paging::trace::CostModel;

    use super::*;

    fn run_requests(w: &mut TpccWorkload, n: usize, seed: u64) {
        let mut rng = Rng::new(seed);
        for _ in 0..n {
            let t = w.next_request(&mut rng);
            assert!(!t.steps.is_empty(), "every txn touches pages");
        }
    }

    #[test]
    fn warehouse_ytd_equals_sum_of_district_ytd() {
        // TPC-C consistency condition 1, maintained by Payment.
        let mut w = TpccWorkload::new(TpccScale::tiny(), 3);
        run_requests(&mut w, 600, 5);
        let db = w.db();
        let scale = db.scale();
        for wh in 0..scale.warehouses {
            let w_ytd = db.engine().peek_field(WAREHOUSE, wh, W_YTD).unwrap();
            let d_sum: u64 = (0..scale.districts_per_w)
                .map(|d| {
                    db.engine()
                        .peek_field(DISTRICT, wh * scale.districts_per_w + d, D_YTD)
                        .unwrap()
                })
                .sum();
            assert_eq!(w_ytd, d_sum, "warehouse {wh}");
        }
    }

    #[test]
    fn next_o_id_matches_committed_new_orders() {
        // TPC-C consistency condition 2 analogue.
        let mut w = TpccWorkload::new(TpccScale::tiny(), 4);
        run_requests(&mut w, 800, 6);
        let db = w.db();
        let scale = db.scale();
        let mut inserted = 0;
        for did in 0..scale.districts_total() {
            let next_o = db.engine().peek_field(DISTRICT, did, D_NEXT_O).unwrap();
            inserted += next_o - scale.preload_orders;
            // Every order id below next_o exists.
            for o in [0, next_o - 1] {
                assert!(
                    db.engine()
                        .peek_field(ORDERS, did * O_SPACE + o, O_OLCNT)
                        .is_some(),
                    "order {o} of district {did} missing"
                );
            }
        }
        assert_eq!(
            inserted,
            w.stats().commits[0],
            "district counters vs committed NewOrders"
        );
    }

    #[test]
    fn order_lines_match_ol_cnt() {
        let mut w = TpccWorkload::new(TpccScale::tiny(), 8);
        run_requests(&mut w, 400, 9);
        let db = w.db();
        let scale = db.scale();
        for did in 0..scale.districts_total() {
            let next_o = db.engine().peek_field(DISTRICT, did, D_NEXT_O).unwrap();
            // Check the most recent runtime-inserted order.
            if next_o > scale.preload_orders {
                let o = next_o - 1;
                let okey = did * O_SPACE + o;
                let ol_cnt = db.engine().peek_field(ORDERS, okey, O_OLCNT).unwrap();
                for ol in 0..ol_cnt {
                    assert!(
                        db.engine()
                            .peek_field(ORDER_LINE, okey * 16 + ol, OL_I)
                            .is_some(),
                        "order line {ol} of order {o} missing"
                    );
                }
                assert!(
                    db.engine()
                        .peek_field(ORDER_LINE, okey * 16 + ol_cnt, OL_I)
                        .is_none(),
                    "no extra lines"
                );
            }
        }
    }

    #[test]
    fn delivery_advances_oldest_pointer() {
        let mut w = TpccWorkload::new(TpccScale::tiny(), 10);
        run_requests(&mut w, 1000, 11);
        let db = w.db();
        let scale = db.scale();
        for did in 0..scale.districts_total() {
            let oldest = db.engine().peek_field(DISTRICT, did, D_NO_OLDEST).unwrap();
            let next_o = db.engine().peek_field(DISTRICT, did, D_NEXT_O).unwrap();
            assert!(oldest <= next_o, "district {did}: {oldest} > {next_o}");
            assert!(oldest >= scale.preload_orders * 7 / 10);
        }
    }

    #[test]
    fn contention_causes_occ_retries() {
        // One warehouse, payment-heavy mix, batch of 8: warehouse-row
        // conflicts are guaranteed.
        let mut w = TpccWorkload::new(TpccScale::tiny(), 12);
        run_requests(&mut w, 500, 13);
        assert!(w.stats().retries > 0, "expected OCC retries");
        assert_eq!(w.stats().failed, 0, "retry budget should suffice");
    }

    #[test]
    fn mix_matches_paper_distribution() {
        let db = SiloDb::build(TpccScale::tiny(), 14);
        let mut rng = Rng::new(15);
        let mut counts = [0u32; 5];
        for _ in 0..20_000 {
            counts[db.draw(&mut rng).class() as usize] += 1;
        }
        let frac = |i: usize| counts[i] as f64 / 20_000.0;
        assert!((frac(0) - 0.445).abs() < 0.02, "NewOrder {}", frac(0));
        assert!((frac(1) - 0.431).abs() < 0.02, "Payment {}", frac(1));
        assert!((frac(2) - 0.041).abs() < 0.01);
        assert!((frac(3) - 0.042).abs() < 0.01);
        assert!((frac(4) - 0.041).abs() < 0.01);
    }

    #[test]
    fn traces_have_five_classes() {
        let mut w = TpccWorkload::new(TpccScale::tiny(), 16);
        let mut rng = Rng::new(17);
        let mut seen = [false; 5];
        for _ in 0..300 {
            let t = w.next_request(&mut rng);
            seen[t.class as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() >= 4, "{seen:?}");
    }

    #[test]
    fn name_index_middle_row_rule() {
        let db = SiloDb::build(TpccScale::tiny(), 21);
        let names = db.scale().name_count();
        let mut rng = Rng::new(22);
        for did in 0..db.scale().districts_total() {
            for name in 0..names.min(20) {
                let mut txn = db.engine().begin();
                let mut rec = TraceRecorder::new(CostModel::default());
                let c = db.resolve_customer(did, CustomerSel::ByName(name), &mut txn, &mut rec);
                // The resolved customer must actually carry that name.
                let ckey = did * db.scale().customers_per_d + c;
                assert_eq!(
                    db.engine().peek_field(CUSTOMER, ckey, C_NAME),
                    Some(name),
                    "district {did} name {name} resolved to customer {c}"
                );
                // And the lookup touched the secondary index pages.
                let t = rec.finish(0, 0, 0);
                assert!(t.accesses() >= 1);
            }
        }
        let _ = rng.next_u64();
    }

    #[test]
    fn by_name_selection_draws_sixty_percent() {
        let db = SiloDb::build(TpccScale::tiny(), 23);
        let mut rng = Rng::new(24);
        let mut by_name = 0;
        let mut total = 0;
        for _ in 0..20_000 {
            match db.draw(&mut rng) {
                TxnParams::Payment { c, .. } | TxnParams::OrderStatus { c, .. } => {
                    total += 1;
                    if matches!(c, CustomerSel::ByName(_)) {
                        by_name += 1;
                    }
                }
                _ => {}
            }
        }
        let frac = by_name as f64 / total as f64;
        assert!((frac - 0.6).abs() < 0.03, "by-name fraction {frac}");
    }

    #[test]
    fn remote_lines_and_payments_appear_with_multiple_warehouses() {
        let scale = TpccScale {
            warehouses: 3,
            ..TpccScale::tiny()
        };
        let db = SiloDb::build(scale, 25);
        let mut rng = Rng::new(26);
        let mut remote_lines = 0u64;
        let mut remote_pay = 0u64;
        let mut lines_total = 0u64;
        let mut pay_total = 0u64;
        for _ in 0..30_000 {
            match db.draw(&mut rng) {
                TxnParams::NewOrder { w, lines, .. } => {
                    lines_total += lines.len() as u64;
                    remote_lines += lines.iter().filter(|&&(_, _, sw)| sw != w).count() as u64;
                }
                TxnParams::Payment { w, c_w, .. } => {
                    pay_total += 1;
                    if c_w != w {
                        remote_pay += 1;
                    }
                }
                _ => {}
            }
        }
        let line_frac = remote_lines as f64 / lines_total as f64;
        let pay_frac = remote_pay as f64 / pay_total as f64;
        assert!((line_frac - 0.01).abs() < 0.005, "remote lines {line_frac}");
        assert!((pay_frac - 0.15).abs() < 0.02, "remote payments {pay_frac}");
    }

    #[test]
    fn remote_payment_credits_the_receiving_warehouse() {
        // Consistency condition 1 must hold even with cross-warehouse
        // payments: the receiving warehouse's W_YTD/D_YTD move together
        // regardless of where the customer lives.
        let scale = TpccScale {
            warehouses: 2,
            ..TpccScale::tiny()
        };
        let mut w = TpccWorkload::new(scale, 27);
        run_requests(&mut w, 800, 28);
        let db = w.db();
        for wh in 0..2 {
            let w_ytd = db.engine().peek_field(WAREHOUSE, wh, W_YTD).unwrap();
            let d_sum: u64 = (0..db.scale().districts_per_w)
                .map(|d| {
                    db.engine()
                        .peek_field(DISTRICT, wh * db.scale().districts_per_w + d, D_YTD)
                        .unwrap()
                })
                .sum();
            assert_eq!(w_ytd, d_sum, "warehouse {wh}");
        }
    }

    #[test]
    fn user_rollbacks_happen() {
        let mut w = TpccWorkload::new(TpccScale::tiny(), 18);
        run_requests(&mut w, 3000, 19);
        assert!(w.stats().user_aborts > 0, "1 % of new-orders roll back");
    }
}
