//! Silo-style OCC engine (§5.2, Figure 12).
//!
//! The paper ports the Caladan-variant Silo — an in-memory OLTP engine
//! with optimistic concurrency control (SOSP '13) — onto its unithreads
//! and runs TPC-C. This module implements the Silo commit protocol over
//! arena-resident tables:
//!
//! - every row carries a **TID word**; transactions read optimistically
//!   and remember the TID of each row they saw;
//! - writes and inserts are **buffered** in the transaction until
//!   commit;
//! - commit **validates** the read set (every TID unchanged), then
//!   installs the write set with a fresh TID.
//!
//! Concurrency is emulated the way the simulator executes requests: the
//! TPC-C workload runs transactions in worker-sized batches that all
//! *execute* against the same snapshot and then *commit* in sequence —
//! so conflicting transactions really do fail validation, abort and
//! re-execute, with the retry's page touches appended to the request's
//! trace (see [`tpcc`]).

pub mod tpcc;

pub use tpcc::{SiloDb, TpccScale, TpccWorkload};

use paging::{PagedArena, TraceRecorder};

use crate::hashidx::HashIndex;

/// Identifies a table in the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableId(pub usize);

/// A located row (address of its TID word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRef {
    addr: u64,
}

/// Why a transaction failed to commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    /// A row read by the transaction changed before commit.
    ReadValidation,
}

/// One table: an in-arena primary index plus a fixed-size-row region.
pub(crate) struct Table {
    index: HashIndex,
    row_bytes: u64,
    fields: usize,
    region_base: u64,
    cursor: u64,
    capacity_rows: u64,
}

/// Specification used to size a table at build time.
#[derive(Debug, Clone, Copy)]
pub struct TableSpec {
    /// Maximum rows (preloaded + runtime inserts).
    pub max_rows: u64,
    /// `u64` fields per row (after the TID word).
    pub fields: usize,
    /// Padding bytes to reach a realistic row footprint.
    pub pad: u64,
}

impl TableSpec {
    fn row_bytes(&self) -> u64 {
        (8 + self.fields as u64 * 8 + self.pad).next_multiple_of(8)
    }
}

/// The storage engine: arena, tables and the global TID counter.
pub struct Engine {
    pub(crate) arena: PagedArena,
    tables: Vec<Table>,
    next_tid: u64,
    commits: u64,
    aborts: u64,
}

/// An in-flight transaction: read set, buffered writes and inserts.
///
/// A `Txn` is reusable scratch: [`Txn::clear`] empties it and keeps its
/// storage, so a workload that owns its transactions buffers the next
/// one without allocating.
#[derive(Default)]
pub struct Txn {
    reads: Vec<(u64, u64)>,
    writes: Vec<(u64, usize, u64)>,
    /// `(table, key, field count)` per insert; the fields sit back to
    /// back in `insert_fields`, in insert order.
    inserts: Vec<(TableId, u64, usize)>,
    insert_fields: Vec<u64>,
}

impl Txn {
    /// Empties the transaction for reuse (a retry, or the next one).
    pub fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.inserts.clear();
        self.insert_fields.clear();
    }
}

impl Engine {
    /// Builds an engine with the given table specs (plus `extra_bytes`
    /// of arena slack for auxiliary regions).
    pub fn build(specs: &[TableSpec], extra_bytes: u64) -> Engine {
        let mut capacity = extra_bytes + (4 << 20);
        for s in specs {
            capacity += s.max_rows * s.row_bytes();
            capacity += (s.max_rows as f64 / 0.7 * 16.0) as u64 * 2 + paging::PAGE_SIZE;
        }
        let mut arena = PagedArena::new(capacity);
        let tables = specs
            .iter()
            .map(|s| {
                let index = HashIndex::build(&mut arena, s.max_rows);
                let region_base = arena.alloc(s.max_rows * s.row_bytes(), paging::PAGE_SIZE);
                Table {
                    index,
                    row_bytes: s.row_bytes(),
                    fields: s.fields,
                    region_base,
                    cursor: 0,
                    capacity_rows: s.max_rows,
                }
            })
            .collect();
        Engine {
            arena,
            tables,
            next_tid: 1,
            commits: 0,
            aborts: 0,
        }
    }

    /// Starts a transaction.
    pub fn begin(&self) -> Txn {
        Txn::default()
    }

    /// Loads a row at build time (untracked, unversioned beyond TID 0).
    ///
    /// # Panics
    ///
    /// Panics if the table region or field list overflows its spec.
    pub fn load_row(&mut self, t: TableId, key: u64, fields: &[u64]) {
        let addr = self.alloc_row(t, fields.len());
        self.arena.poke_u64(addr, 0); // TID 0
        for (i, &f) in fields.iter().enumerate() {
            self.arena.poke_u64(addr + 8 + i as u64 * 8, f);
        }
        let table = &self.tables[t.0];
        table.index.insert_untraced(&mut self.arena, key, addr);
    }

    fn alloc_row(&mut self, t: TableId, fields: usize) -> u64 {
        let table = &mut self.tables[t.0];
        assert!(fields <= table.fields, "row has too many fields");
        assert!(
            table.cursor < table.capacity_rows,
            "table {} out of row capacity",
            t.0
        );
        let addr = table.region_base + table.cursor * table.row_bytes;
        table.cursor += 1;
        addr
    }

    /// Optimistic read: locates the row, records its TID in the read
    /// set, and records the page touches.
    pub fn read(
        &self,
        t: TableId,
        key: u64,
        txn: &mut Txn,
        rec: &mut TraceRecorder,
    ) -> Option<RowRef> {
        let addr = self.tables[t.0].index.get(&self.arena, key, rec)?;
        let tid = self.arena.read_u64(addr, rec);
        txn.reads.push((addr, tid));
        Some(RowRef { addr })
    }

    /// Reads field `i` of a located row.
    pub fn field(&self, row: RowRef, i: usize, rec: &mut TraceRecorder) -> u64 {
        self.arena.read_u64(row.addr + 8 + i as u64 * 8, rec)
    }

    /// Reads a field without recording (consistency checks in tests).
    pub fn peek_field(&self, t: TableId, key: u64, i: usize) -> Option<u64> {
        let addr = self.tables[t.0].index.get_untraced(&self.arena, key)?;
        Some(self.arena.peek_u64(addr + 8 + i as u64 * 8))
    }

    /// Writes a field without recording or versioning (load phase).
    ///
    /// # Panics
    ///
    /// Panics if the row does not exist.
    pub fn poke_field(&mut self, t: TableId, key: u64, i: usize, value: u64) {
        let addr = self.tables[t.0]
            .index
            .get_untraced(&self.arena, key)
            .expect("poke_field of a missing row");
        self.arena.poke_u64(addr + 8 + i as u64 * 8, value);
    }

    /// Buffers a field write.
    pub fn write_field(&self, txn: &mut Txn, row: RowRef, i: usize, value: u64) {
        txn.writes.push((row.addr, i, value));
    }

    /// Buffers an insert.
    pub fn insert(&self, txn: &mut Txn, t: TableId, key: u64, fields: &[u64]) {
        txn.inserts.push((t, key, fields.len()));
        txn.insert_fields.extend_from_slice(fields);
    }

    /// Silo commit: validate the read set, then install writes and
    /// inserts under a fresh TID (all touches recorded).
    pub fn commit(&mut self, txn: &Txn, rec: &mut TraceRecorder) -> Result<u64, Abort> {
        // Validation phase: every read row must still carry the TID we
        // saw (Silo re-reads the TID words).
        for &(addr, tid) in &txn.reads {
            rec.compute_ns(4.0);
            if self.arena.read_u64(addr, rec) != tid {
                self.aborts += 1;
                return Err(Abort::ReadValidation);
            }
        }
        let tid = self.next_tid;
        self.next_tid += 1;
        // Install phase.
        for &(addr, i, value) in &txn.writes {
            self.arena.write_u64(addr + 8 + i as u64 * 8, value, rec);
            self.arena.write_u64(addr, tid, rec);
        }
        let mut unplaced = txn.insert_fields.as_slice();
        for &(t, key, field_count) in &txn.inserts {
            let (fields, rest) = unplaced.split_at(field_count);
            unplaced = rest;
            let addr = self.alloc_row(t, fields.len());
            self.arena.write_u64(addr, tid, rec);
            for (i, &f) in fields.iter().enumerate() {
                self.arena.write_u64(addr + 8 + i as u64 * 8, f, rec);
            }
            let table = &self.tables[t.0];
            let index = table.index;
            index.insert(&mut self.arena, key, addr, rec);
        }
        self.commits += 1;
        Ok(tid)
    }

    /// Committed transactions so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Aborted commit attempts so far.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Total pages of the arena (working set).
    pub fn total_pages(&self) -> u64 {
        self.arena.total_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paging::trace::CostModel;

    const T: TableId = TableId(0);

    fn engine() -> Engine {
        Engine::build(
            &[TableSpec {
                max_rows: 1000,
                fields: 3,
                pad: 16,
            }],
            0,
        )
    }

    fn rec() -> TraceRecorder {
        TraceRecorder::new(CostModel::default())
    }

    #[test]
    fn read_write_commit() {
        let mut e = engine();
        e.load_row(T, 1, &[10, 20, 30]);
        let mut txn = e.begin();
        let mut r = rec();
        let row = e.read(T, 1, &mut txn, &mut r).unwrap();
        assert_eq!(e.field(row, 1, &mut r), 20);
        e.write_field(&mut txn, row, 1, 21);
        e.commit(&txn, &mut r).unwrap();
        assert_eq!(e.peek_field(T, 1, 1), Some(21));
        assert_eq!(e.commits(), 1);
    }

    #[test]
    fn conflicting_txn_aborts() {
        let mut e = engine();
        e.load_row(T, 7, &[100, 0, 0]);
        let mut r = rec();

        // Both transactions read the same snapshot.
        let mut t1 = e.begin();
        let row1 = e.read(T, 7, &mut t1, &mut r).unwrap();
        let v = e.field(row1, 0, &mut r);
        e.write_field(&mut t1, row1, 0, v + 1);

        let mut t2 = e.begin();
        let row2 = e.read(T, 7, &mut t2, &mut r).unwrap();
        let v2 = e.field(row2, 0, &mut r);
        e.write_field(&mut t2, row2, 0, v2 + 1);

        // t1 commits; t2 must fail read validation.
        e.commit(&t1, &mut r).unwrap();
        assert_eq!(e.commit(&t2, &mut r), Err(Abort::ReadValidation));
        assert_eq!(e.peek_field(T, 7, 0), Some(101), "lost update prevented");
        assert_eq!(e.aborts(), 1);
    }

    #[test]
    fn read_only_txn_validates_cheaply() {
        let mut e = engine();
        e.load_row(T, 2, &[5, 0, 0]);
        let mut r = rec();
        let mut t1 = e.begin();
        e.read(T, 2, &mut t1, &mut r).unwrap();
        assert!(e.commit(&t1, &mut r).is_ok());
    }

    #[test]
    fn disjoint_txns_both_commit() {
        let mut e = engine();
        e.load_row(T, 1, &[1, 0, 0]);
        e.load_row(T, 2, &[2, 0, 0]);
        let mut r = rec();
        let mut t1 = e.begin();
        let r1 = e.read(T, 1, &mut t1, &mut r).unwrap();
        e.write_field(&mut t1, r1, 0, 11);
        let mut t2 = e.begin();
        let r2 = e.read(T, 2, &mut t2, &mut r).unwrap();
        e.write_field(&mut t2, r2, 0, 22);
        assert!(e.commit(&t1, &mut r).is_ok());
        assert!(e.commit(&t2, &mut r).is_ok());
        assert_eq!(e.peek_field(T, 1, 0), Some(11));
        assert_eq!(e.peek_field(T, 2, 0), Some(22));
    }

    #[test]
    fn inserts_visible_after_commit() {
        let mut e = engine();
        let mut r = rec();
        let mut t1 = e.begin();
        e.insert(&mut t1, T, 99, &[7, 8, 9]);
        e.commit(&t1, &mut r).unwrap();
        assert_eq!(e.peek_field(T, 99, 2), Some(9));
        // Readable by a later transaction.
        let mut t2 = e.begin();
        assert!(e.read(T, 99, &mut t2, &mut r).is_some());
    }

    #[test]
    fn tids_are_monotonic() {
        let mut e = engine();
        e.load_row(T, 1, &[0, 0, 0]);
        let mut r = rec();
        let mut last = 0;
        for _ in 0..5 {
            let mut t1 = e.begin();
            let row = e.read(T, 1, &mut t1, &mut r).unwrap();
            e.write_field(&mut t1, row, 0, 1);
            let tid = e.commit(&t1, &mut r).unwrap();
            assert!(tid > last);
            last = tid;
        }
    }

    /// Serializability oracle: random read-modify-write transactions
    /// executed through OCC in batches must leave the same final state
    /// as replaying the *committed* transactions serially in commit
    /// order against a plain map.
    #[test]
    fn occ_matches_serial_oracle() {
        use desim::Rng;
        use paging::trace::CostModel;

        let mut e = Engine::build(
            &[TableSpec {
                max_rows: 64,
                fields: 1,
                pad: 0,
            }],
            0,
        );
        for k in 0..16u64 {
            e.load_row(T, k, &[k * 100]);
        }
        let mut oracle: std::collections::HashMap<u64, u64> =
            (0..16).map(|k| (k, k * 100)).collect();

        let mut rng = Rng::new(77);
        for _batch in 0..50 {
            // Build a batch of 4 txns against the same snapshot: each
            // reads two rows and writes src+dst (a transfer-like RMW).
            let mut staged = Vec::new();
            for _ in 0..4 {
                let src = rng.gen_range(16);
                // Distinct rows: a same-row transfer reads once and
                // buffers two conflicting writes, which is a different
                // program than the oracle's sequential -=1/+=1.
                let dst = (src + 1 + rng.gen_range(15)) % 16;
                let mut txn = e.begin();
                let mut r = TraceRecorder::new(CostModel::default());
                let rs = e.read(T, src, &mut txn, &mut r).unwrap();
                let rd = e.read(T, dst, &mut txn, &mut r).unwrap();
                let vs = e.field(rs, 0, &mut r);
                let vd = e.field(rd, 0, &mut r);
                e.write_field(&mut txn, rs, 0, vs.wrapping_sub(1));
                e.write_field(&mut txn, rd, 0, vd.wrapping_add(1));
                staged.push((txn, src, dst));
            }
            for (txn, src, dst) in staged {
                let mut r = TraceRecorder::new(CostModel::default());
                if e.commit(&txn, &mut r).is_ok() {
                    // Apply the same semantic operation serially. Note:
                    // the oracle re-reads current values — valid because
                    // OCC only commits if the txn's reads were still
                    // current, making its effect equal to a serial RMW.
                    *oracle.get_mut(&src).unwrap() = oracle[&src].wrapping_sub(1);
                    *oracle.get_mut(&dst).unwrap() = oracle[&dst].wrapping_add(1);
                }
            }
        }
        for k in 0..16u64 {
            assert_eq!(
                e.peek_field(T, k, 0),
                Some(oracle[&k]),
                "row {k} diverged from the serial oracle"
            );
        }
        assert!(e.aborts() > 0, "contended batches must produce aborts");
    }

    #[test]
    fn write_skew_on_same_row_is_prevented() {
        // Classic OCC check: increment through read-modify-write from
        // two txns on the same snapshot never loses an update.
        let mut e = engine();
        e.load_row(T, 3, &[0, 0, 0]);
        let mut committed = 0;
        for round in 0..10 {
            let mut r = rec();
            let mut pair = Vec::new();
            for _ in 0..2 {
                let mut t = e.begin();
                let row = e.read(T, 3, &mut t, &mut r).unwrap();
                let v = e.field(row, 0, &mut r);
                e.write_field(&mut t, row, 0, v + 1);
                pair.push(t);
            }
            for t in pair {
                if e.commit(&t, &mut r).is_ok() {
                    committed += 1;
                }
            }
            let _ = round;
        }
        assert_eq!(e.peek_field(T, 3, 0), Some(committed));
    }
}
