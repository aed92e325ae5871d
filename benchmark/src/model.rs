//! The "shop" data model and its input generator — one for all workloads.
//!
//! Everything here is plain data: relation shapes, rule and template
//! text, and a generator that turns `(seed, stream, k)` into operations
//! with **known expected verdicts** and a model of the state they must
//! leave behind. The product crates only ever see what this module
//! generates (through `sut.rs`).
//!
//! Relations: `item(id, price)`, `stock(item, qty)`,
//! `orders(id, item, price, qty)`, `payments(order_id, amount)`,
//! `ledger(order_id, amount)`, plus a wide *cold* catalog: relations
//! `cold0..` each guarded by alarm rules no measured transaction ever
//! triggers, so trigger-index rule selection always has a catalog to skip.
//!
//! Rules (see `README.md` for why the shapes differ from ISSUE 11's
//! sketch — each difference is forced by the seed's cost model):
//!
//! * `order_item_exists` — referential, RL with the explicit trigger
//!   `INS(orders)`: an order line names an item **at its listed price**,
//!   so the specialized check keys every column of `item` and runs as one
//!   set lookup (a partial-key probe is a scan in the seed);
//! * `order_qty_positive`, `stock_non_negative`, `payment_non_negative` —
//!   CL domain constraints;
//! * `ledger_mirror` — RL compensating rule: every inserted payment is
//!   copied into `ledger`.
//!
//! One cycle of a stream is `new_order(k)`, `pay(k)`, `deliver(k − W)`
//! over a pre-loaded window of `W` live orders, so state, memory and
//! per-transaction cost are stationary for any run length. One order in
//! [`BAD_ONE_IN`] names a missing item and must abort; its payment
//! carries a negative amount and must abort too.

use crate::rng::mix;

/// Rows of `item` and of `stock`.
pub const ITEMS: i64 = 1_000;
/// Order lines draw from items `0..ITEMS_ORDERED`; the rest are only ever
/// written by the re-pricing client of `concurrent_contended`, so an
/// order's verdict never depends on how a race with a re-price fell.
pub const ITEMS_ORDERED: i64 = 900;
/// Listed price of item `i` before any re-pricing is `BASE_PRICE + i`.
pub const BASE_PRICE: i64 = 10;
/// Initial `stock.qty` of every item.
pub const STOCK_QTY: i64 = 1_000_000;
/// One order in this many names a missing item.
pub const BAD_ONE_IN: u64 = 20;
/// Key space of one stream: order ids are `stream · STREAM_STRIDE + k`.
pub const STREAM_STRIDE: i64 = 1 << 40;

/// Size parameters of a run. `full()` is what is reported; `smoke()` is
/// 1/50 of it and is never reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Live orders over all streams of a prepared workload.
    pub window: i64,
    /// Live orders of `adhoc_churn` (its generic checks scale with it).
    pub adhoc_window: i64,
    /// Cold relations.
    pub cold_relations: usize,
    /// Alarm rules per cold relation.
    pub cold_rules_each: usize,
    /// Cycles per stream per round on the in-process prepared paths.
    pub round_cycles: usize,
    /// Cycles of the depth ladder.
    pub ladder_cycles: usize,
}

impl Sizes {
    /// The reported configuration. The cold catalog is 150 × 10 rules
    /// rather than ISSUE 11's 300 × 10: adding a rule costs O(catalog) in
    /// the seed, 3 000 rules take 2.2 s to declare, and set-up is built
    /// three times per run.
    pub fn full() -> Sizes {
        Sizes {
            window: 100_000,
            adhoc_window: 20_000,
            cold_relations: 150,
            cold_rules_each: 10,
            round_cycles: 4_096,
            ladder_cycles: 16_384,
        }
    }

    /// 1/50 of [`Sizes::full`], for `--smoke` and the self-tests.
    pub fn smoke() -> Sizes {
        Sizes {
            window: 2_000,
            adhoc_window: 400,
            cold_relations: 3,
            cold_rules_each: 10,
            round_cycles: 128,
            ladder_cycles: 512,
        }
    }
}

/// `(name, attributes)` of the five shop relations; every attribute is an
/// integer.
pub const RELATIONS: [(&str, &[&str]); 5] = [
    ("item", &["id", "price"]),
    ("stock", &["item", "qty"]),
    ("orders", &["id", "item", "price", "qty"]),
    ("payments", &["order_id", "amount"]),
    ("ledger", &["order_id", "amount"]),
];

/// CL constraints declared through `Engine::define_constraint`.
pub const CONSTRAINTS: [(&str, &str); 3] = [
    (
        "order_qty_positive",
        "forall o (o in orders implies o.qty >= 1)",
    ),
    (
        "stock_non_negative",
        "forall s (s in stock implies s.qty >= 0)",
    ),
    (
        "payment_non_negative",
        "forall p (p in payments implies p.amount >= 0)",
    ),
];

/// RL rules declared through `Engine::add_rule_text`.
pub const RULES: [(&str, &str); 2] = [
    (
        "order_item_exists",
        "RULE order_item_exists WHEN INS(orders) IF NOT forall o (o in orders implies \
         exists i (i in item and o.item = i.id and o.price = i.price)) THEN abort",
    ),
    (
        "ledger_mirror",
        "RULE ledger_mirror WHEN INS(payments) IF NOT 1 = 1 \
         THEN insert(ledger, payments@ins) NON-TRIGGERING",
    ),
];

/// The constraint `adhoc_churn` defines and removes to stale live plans.
pub const CHURN_CONSTRAINT: (&str, &str) = (
    "order_qty_capped",
    "forall o (o in orders implies o.qty <= 1000)",
);

/// Name of cold relation `r`.
pub fn cold_relation(r: usize) -> String {
    format!("cold{r}")
}

/// `(name, RL text)` of alarm rule `i` on cold relation `r`.
pub fn cold_rule(r: usize, i: usize) -> (String, String) {
    (
        format!("cold_{r}_{i}"),
        format!(
            "WHEN INS(cold{r}) IF NOT 1 = 1 THEN \
             alarm(select[#1 < 0 and #0 >= {i}](cold{r}@ins))"
        ),
    )
}

/// What an operation does; also the index of its prepared template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// 1-row insert into `orders`.
    NewOrder = 0,
    /// 1-row insert into `payments`; fires `ledger_mirror`.
    Pay = 1,
    /// 3-statement delete of the ledger, payment and order rows.
    Deliver = 2,
    /// Delete + insert of one `item` row (`concurrent_contended` only).
    Reprice = 3,
}

/// Prepared templates, indexed by [`Kind`].
pub const TEMPLATES: [&str; 4] = [
    "insert(orders, row(?0, ?1, ?2, ?3))",
    "insert(payments, row(?0, ?1))",
    "delete(ledger, row(?0, ?1)); delete(payments, row(?0, ?1)); \
     delete(orders, row(?0, ?2, ?3, ?4))",
    "delete(item, row(?0, ?1)); insert(item, row(?0, ?2))",
];

/// Short names of the templates, for spans and reports.
pub const KIND_NAMES: [&str; 4] = ["new_order", "pay", "deliver", "reprice"];

/// One generated operation: the template, its binding, and the verdict
/// the generator expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Which template.
    pub kind: Kind,
    /// The binding, in placeholder order.
    pub args: Vec<i64>,
    /// `true` = must commit, `false` = must abort on an integrity rule.
    pub commit: bool,
}

/// The order line of key `k` in `stream` — a pure function of its
/// arguments, so `deliver` can name the row `new_order` inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// Order id.
    pub id: i64,
    /// Item named (a missing one when `bad`).
    pub item: i64,
    /// Price quoted.
    pub price: i64,
    /// Quantity.
    pub qty: i64,
    /// Whether the order names a missing item and must abort.
    pub bad: bool,
}

impl Line {
    /// The line of `(seed, stream, k)`.
    pub fn of(seed: u64, stream: u64, k: i64) -> Line {
        let h = mix(seed ^ mix(stream.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ k as u64));
        let item = (h % ITEMS_ORDERED as u64) as i64;
        let bad = (h >> 40).is_multiple_of(BAD_ONE_IN);
        Line {
            id: stream as i64 * STREAM_STRIDE + k,
            // A bad order names an item id no `item` row carries.
            item: if bad { ITEMS + item } else { item },
            price: BASE_PRICE + item,
            qty: 1 + ((h >> 20) % 9) as i64,
            bad,
        }
    }

    /// Amount of the order's payment; negative for a bad order, so the
    /// payment aborts on `payment_non_negative` and no payment ever
    /// exists without its order.
    pub fn amount(&self) -> i64 {
        let a = self.price * self.qty;
        if self.bad {
            -a
        } else {
            a
        }
    }

    /// The order's `new_order` operation.
    pub fn new_order(&self) -> Op {
        Op {
            kind: Kind::NewOrder,
            args: vec![self.id, self.item, self.price, self.qty],
            commit: !self.bad,
        }
    }

    /// The order's `pay` operation.
    pub fn pay(&self) -> Op {
        Op {
            kind: Kind::Pay,
            args: vec![self.id, self.amount()],
            commit: !self.bad,
        }
    }

    /// The order's `deliver` operation. Deleting rows that were never
    /// inserted (a bad order's) is a no-op and commits.
    pub fn deliver(&self) -> Op {
        Op {
            kind: Kind::Deliver,
            args: vec![self.id, self.amount(), self.item, self.price, self.qty],
            commit: true,
        }
    }
}

/// Rows to pre-load for one stream: `(orders, payments)`; the ledger
/// starts as a copy of the payments.
pub type Preload = (Vec<Vec<i64>>, Vec<Vec<i64>>);

/// Expected cardinalities of the three windowed relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cardinalities {
    /// Rows of `orders`.
    pub orders: usize,
    /// Rows of `payments`.
    pub payments: usize,
    /// Rows of `ledger`.
    pub ledger: usize,
}

/// One client's operation stream: cycles `new_order(k)`, `pay(k)`,
/// `deliver(k − window)` over its own key range.
#[derive(Debug, Clone)]
pub struct Stream {
    seed: u64,
    stream: u64,
    window: i64,
    next: i64,
    /// Every this many cycle ops, one re-price op is interleaved
    /// (0 = never).
    reprice_every: usize,
    reprices: i64,
    since_reprice: usize,
    flip_next: bool,
}

impl Stream {
    /// Stream number `stream` of a run seeded `seed`, owning `window`
    /// pre-loaded live orders (`k` in `0..window`).
    pub fn new(seed: u64, stream: u64, window: i64) -> Stream {
        Stream {
            seed,
            stream,
            window,
            next: window,
            reprice_every: 0,
            reprices: 0,
            since_reprice: 0,
            flip_next: false,
        }
    }

    /// Make the next generated operation expect the wrong verdict — the
    /// self-test that a wrong answer is caught (`--flip-verdict`).
    pub fn flip_next_verdict(&mut self) {
        self.flip_next = true;
    }

    /// Live orders this stream keeps.
    pub fn window(&self) -> i64 {
        self.window
    }

    /// Also re-price one reserved item after every `every` cycle ops —
    /// `every = 9` makes a tenth of the stream's ops re-prices.
    pub fn with_reprice_every(mut self, every: usize) -> Stream {
        self.reprice_every = every;
        self
    }

    /// The rows to pre-load for this stream: `(orders, payments)`; the
    /// ledger starts as a copy of the payments. Bad lines are absent,
    /// exactly as if the stream had run from `k = 0`.
    pub fn preload(&self) -> Preload {
        let mut orders = Vec::new();
        let mut payments = Vec::new();
        for k in 0..self.window {
            let l = Line::of(self.seed, self.stream, k);
            if !l.bad {
                orders.push(vec![l.id, l.item, l.price, l.qty]);
                payments.push(vec![l.id, l.amount()]);
            }
        }
        (orders, payments)
    }

    fn reprice(&mut self) -> Op {
        let reserved = ITEMS - ITEMS_ORDERED;
        let r = self.reprices;
        self.reprices += 1;
        let item = ITEMS_ORDERED + r % reserved;
        let old = BASE_PRICE + item + r / reserved;
        Op {
            kind: Kind::Reprice,
            args: vec![item, old, old + 1],
            commit: true,
        }
    }

    /// Append the next `cycles` cycles to `out`.
    pub fn extend(&mut self, cycles: usize, out: &mut Vec<Op>) {
        for _ in 0..cycles {
            let k = self.next;
            self.next += 1;
            let line = Line::of(self.seed, self.stream, k);
            let gone = Line::of(self.seed, self.stream, k - self.window);
            for mut op in [line.new_order(), line.pay(), gone.deliver()] {
                op.commit ^= std::mem::take(&mut self.flip_next);
                out.push(op);
                self.since_reprice += 1;
                if self.reprice_every > 0 && self.since_reprice == self.reprice_every {
                    self.since_reprice = 0;
                    out.push(self.reprice());
                }
            }
        }
    }

    /// Cardinalities this stream's live window contributes.
    pub fn cardinalities(&self) -> Cardinalities {
        let good = (self.next - self.window..self.next)
            .filter(|&k| !Line::of(self.seed, self.stream, k).bad)
            .count();
        Cardinalities {
            orders: good,
            payments: good,
            ledger: good,
        }
    }

    /// Rows of `item` after this stream's re-prices (the initial price
    /// list when it made none).
    pub fn item_rows(&self) -> Vec<Vec<i64>> {
        let reserved = ITEMS - ITEMS_ORDERED;
        (0..ITEMS)
            .map(|i| {
                let bumps = if i >= ITEMS_ORDERED {
                    let slot = i - ITEMS_ORDERED;
                    // Re-price r hits slot r % reserved.
                    (self.reprices - slot + reserved - 1).max(0) / reserved
                } else {
                    0
                };
                vec![i, BASE_PRICE + i + bumps]
            })
            .collect()
    }
}

/// Initial rows of `item`.
pub fn item_rows() -> Vec<Vec<i64>> {
    (0..ITEMS).map(|i| vec![i, BASE_PRICE + i]).collect()
}

/// Initial rows of `stock`.
pub fn stock_rows() -> Vec<Vec<i64>> {
    (0..ITEMS).map(|i| vec![i, STOCK_QTY]).collect()
}

/// FNV-1a over a stream of operations — the digest the self-tests pin
/// seeds with.
pub fn digest(ops: &[Op]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for op in ops {
        eat(op.kind as u64);
        eat(u64::from(op.commit));
        for &a in &op.args {
            eat(a as u64);
        }
    }
    h
}

// ---------------------------------------------------------------------------
// adhoc_churn: the same cycle as RA text, plus set-oriented transactions
// and catalog churn.
// ---------------------------------------------------------------------------

/// Every this many ops of `adhoc_churn`, one is a set-oriented transaction.
pub const SET_EVERY: usize = 16;
/// Every this many ops of `adhoc_churn`, one is a catalog (DDL) step.
pub const DDL_EVERY: usize = 1_000;
/// Rows of the literal-relation insert in a set-oriented transaction.
pub const BULK_ROWS: i64 = 32;
/// Items re-stocked by one set-oriented transaction.
pub const RESTOCK_SPAN: i64 = 50;
/// Key-space offset of bulk orders, clear of every cycle key.
const BULK_BASE: i64 = 1 << 50;

/// One operation of `adhoc_churn`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdhocOp {
    /// A ground transaction as RA text, parsed and modified per call.
    Tx {
        /// What it is, for spans (`new_order`, `pay`, `deliver`,
        /// `set_oriented`).
        name: &'static str,
        /// The program text.
        text: String,
        /// Expected verdict.
        commit: bool,
    },
    /// A catalog step: define ([`CHURN_CONSTRAINT`]) when `define`, else
    /// remove it; the three live prepared statements go stale.
    Ddl {
        /// Define or remove.
        define: bool,
    },
}

fn row_text(args: &[i64]) -> String {
    let cells: Vec<String> = args.iter().map(i64::to_string).collect();
    format!("({})", cells.join(", "))
}

/// The text generator of `adhoc_churn`, wrapping a cycle [`Stream`].
#[derive(Debug, Clone)]
pub struct AdhocStream {
    cycle: Stream,
    pending: std::collections::VecDeque<Op>,
    emitted: usize,
    bulks: i64,
    /// Model of `stock.qty`, bumped by every re-stock.
    stock: Vec<i64>,
    constraint_defined: bool,
}

impl AdhocStream {
    /// The stream of a run seeded `seed` over `window` live orders.
    pub fn new(seed: u64, window: i64) -> AdhocStream {
        AdhocStream {
            cycle: Stream::new(seed, 0, window),
            pending: std::collections::VecDeque::new(),
            emitted: 0,
            bulks: 0,
            stock: vec![STOCK_QTY; ITEMS as usize],
            constraint_defined: false,
        }
    }

    /// Rows to pre-load — see [`Stream::preload`].
    pub fn preload(&self) -> Preload {
        self.cycle.preload()
    }

    /// The cycle stream underneath (ageing runs it directly).
    pub fn cycle_mut(&mut self) -> &mut Stream {
        &mut self.cycle
    }

    fn bulk_rows(&self, batch: i64) -> Vec<Vec<i64>> {
        (0..BULK_ROWS)
            .map(|j| {
                let l = Line::of(self.cycle.seed, u64::MAX, batch * BULK_ROWS + j);
                let item = l.item % ITEMS_ORDERED; // bulk lines are all good
                vec![
                    BULK_BASE + batch * BULK_ROWS + j,
                    item,
                    BASE_PRICE + item,
                    l.qty,
                ]
            })
            .collect()
    }

    /// A range re-stock written as delete + insert over a select/project
    /// of `stock`, plus a literal-relation insert into `orders` replacing
    /// the previous one — set-oriented statements the specializer cannot
    /// reduce to point probes.
    fn set_oriented(&mut self) -> AdhocOp {
        let b = self.bulks;
        self.bulks += 1;
        let lo = (b * RESTOCK_SPAN) % ITEMS;
        let hi = lo + RESTOCK_SPAN;
        for q in &mut self.stock[lo as usize..hi as usize] {
            *q += 1;
        }
        let literal = |rows: Vec<Vec<i64>>| {
            let rows: Vec<String> = rows.iter().map(|r| row_text(r)).collect();
            format!("{{{}}}", rows.join(", "))
        };
        let mut text = format!(
            "restock := select[#0 >= {lo} and #0 < {hi}](stock); \
             delete(stock, restock); \
             insert(stock, project[#0, #1 + 1](restock)); "
        );
        if b > 0 {
            text.push_str(&format!(
                "delete(orders, {}); ",
                literal(self.bulk_rows(b - 1))
            ));
        }
        text.push_str(&format!("insert(orders, {})", literal(self.bulk_rows(b))));
        AdhocOp::Tx {
            name: "set_oriented",
            text,
            commit: true,
        }
    }

    /// Append the next `n` operations to `out`.
    pub fn extend(&mut self, n: usize, out: &mut Vec<AdhocOp>) {
        for _ in 0..n {
            self.emitted += 1;
            if self.emitted.is_multiple_of(DDL_EVERY) {
                self.constraint_defined = !self.constraint_defined;
                out.push(AdhocOp::Ddl {
                    define: self.constraint_defined,
                });
            } else if self.emitted.is_multiple_of(SET_EVERY) {
                let op = self.set_oriented();
                out.push(op);
            } else {
                if self.pending.is_empty() {
                    let mut ops = Vec::with_capacity(3);
                    self.cycle.extend(1, &mut ops);
                    self.pending.extend(ops);
                }
                let op = self.pending.pop_front().expect("cycle just refilled");
                let text = match op.kind {
                    Kind::NewOrder => format!("insert(orders, {{{}}})", row_text(&op.args)),
                    Kind::Pay => format!("insert(payments, {{{}}})", row_text(&op.args)),
                    Kind::Deliver => format!(
                        "delete(ledger, {{{}}}); delete(payments, {{{}}}); delete(orders, {{{}}})",
                        row_text(&op.args[..2]),
                        row_text(&op.args[..2]),
                        row_text(&[op.args[0], op.args[2], op.args[3], op.args[4]]),
                    ),
                    Kind::Reprice => unreachable!("adhoc streams never re-price"),
                };
                out.push(AdhocOp::Tx {
                    name: KIND_NAMES[op.kind as usize],
                    text,
                    commit: op.commit,
                });
            }
        }
    }

    /// Expected cardinalities: the cycle window — with the cycle's
    /// not-yet-emitted tail (a started cycle whose `pay`/`deliver` are
    /// still pending) accounted row by row — plus the live bulk batch.
    pub fn cardinalities(&self) -> Cardinalities {
        let mut c = self.cycle.cardinalities();
        for op in &self.pending {
            // Undo what the model assumed these pending ops already did.
            match op.kind {
                Kind::Pay if op.commit => {
                    c.payments -= 1;
                    c.ledger -= 1;
                }
                // A good line's amount is positive, a bad one's negative.
                Kind::Deliver if op.args[1] > 0 => {
                    c.orders += 1;
                    c.payments += 1;
                    c.ledger += 1;
                }
                _ => {}
            }
        }
        if self.bulks > 0 {
            c.orders += BULK_ROWS as usize;
        }
        c
    }

    /// Expected rows of `stock`.
    pub fn stock_rows(&self) -> Vec<Vec<i64>> {
        self.stock
            .iter()
            .enumerate()
            .map(|(i, &q)| vec![i as i64, q])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reprice_model_matches_the_ops() {
        let mut s = Stream::new(3, 0, 10).with_reprice_every(9);
        let mut ops = Vec::new();
        s.extend(400, &mut ops);
        let mut rows = item_rows();
        let mut n = 0;
        for op in ops.iter().filter(|o| o.kind == Kind::Reprice) {
            let row = &mut rows[op.args[0] as usize];
            assert_eq!(row[1], op.args[1], "re-price {n} names the current price");
            row[1] = op.args[2];
            n += 1;
        }
        assert!(n > (ITEMS - ITEMS_ORDERED) as usize, "wraps at least once");
        assert_eq!(ops.len(), 400 * 3 + n);
        assert_eq!(s.item_rows(), rows);
    }

    #[test]
    fn one_in_twenty_is_bad_and_pay_follows_the_order() {
        let mut s = Stream::new(1, 0, 1000);
        let mut ops = Vec::new();
        s.extend(20_000, &mut ops);
        let bad = ops
            .iter()
            .filter(|o| o.kind == Kind::NewOrder && !o.commit)
            .count();
        assert!((800..1200).contains(&bad), "{bad} of 20000");
        for c in ops.chunks(3) {
            assert_eq!(c[0].commit, c[1].commit);
            assert!(c[2].commit);
            assert_eq!(c[1].args[1] < 0, !c[1].commit);
        }
    }

    #[test]
    fn adhoc_cardinalities_track_partial_cycles() {
        // Replay the text-free model: count rows by interpreting the ops.
        for n in [1usize, 2, 3, 15, 16, 17, 100] {
            let mut s = AdhocStream::new(5, 50);
            let (orders, payments) = s.preload();
            let mut c = Cardinalities {
                orders: orders.len(),
                payments: payments.len(),
                ledger: payments.len(),
            };
            let mut ops = Vec::new();
            s.extend(n, &mut ops);
            let mut first_bulk = true;
            for op in &ops {
                let AdhocOp::Tx { name, commit, text } = op else {
                    continue;
                };
                match *name {
                    "new_order" if *commit => c.orders += 1,
                    "pay" if *commit => {
                        c.payments += 1;
                        c.ledger += 1;
                    }
                    // A delivered line is live iff its pay amount is
                    // positive (bad lines carry a negative one).
                    "deliver" if !text.contains("(-") && !text.contains(", -") => {
                        c.orders -= 1;
                        c.payments -= 1;
                        c.ledger -= 1;
                    }
                    "set_oriented" if first_bulk => {
                        c.orders += BULK_ROWS as usize;
                        first_bulk = false;
                    }
                    _ => {}
                }
            }
            assert_eq!(s.cardinalities(), c, "after {n} ops");
        }
    }
}
