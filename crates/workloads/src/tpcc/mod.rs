//! The TPC-C benchmark — the OLTP workload of §VI-A.
//!
//! A structurally faithful scaled-down port of the TPC-C order-processing
//! schema and the three write-transaction profiles the paper evaluates:
//!
//! * `neworder` — the NewOrder profile (Fig 4(a)): reads Warehouse and
//!   Customer, *increments the District's next-order id* (the hot spot),
//!   updates one Stock row per order line and inserts Order / NewOrder /
//!   OrderLine rows whose ids derive from the District counter.
//! * `payment` — the Payment profile (Fig 4(b)): updates Warehouse and
//!   District year-to-date totals (both hot), the Customer balance and a
//!   History row.
//! * `delivery` — the Delivery profile (Fig 4(d)): touches Order,
//!   NewOrder, OrderLine and Customer rows drawn from large pools, so
//!   "the difference between their contention levels is not significant"
//!   and closed nesting cannot help — the overhead probe.
//!
//! Index derivation (dense u64 keys): `district = w·10 + d`,
//! `customer = district·10_000 + c`, `stock = w·1_000_000 + item`,
//! `order = district·1_000_000 + o_id`, `order_line = order·16 + line`.

mod delivery;
mod neworder;
mod payment;

use crate::schema::{D_TAX, ITEM, I_PRICE, STOCK, S_QTY, WAREHOUSE, W_TAX};
use crate::workload::{TxnRequest, Workload};
use acn_dtm::DtmClient;
use acn_txir::{DependencyModel, FieldId, ObjectId, Program, UnitBlockId, Value};
use rand::rngs::StdRng;
use rand::Rng;

use crate::schema::DISTRICT;

/// Scale parameters (scaled down from the TPC-C specification so that a
/// laptop-sized cluster sees paper-like contention).
#[derive(Debug, Clone, Copy)]
pub struct TpccConfig {
    /// Number of warehouses.
    pub warehouses: u64,
    /// Districts per warehouse (spec: 10).
    pub districts_per_warehouse: u64,
    /// Customers per district.
    pub customers_per_district: u64,
    /// Catalogue size.
    pub items: u64,
    /// Minimum order-line count for NewOrder (spec: 5–15).
    pub ol_min: usize,
    /// Maximum order-line count for NewOrder.
    pub ol_max: usize,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 10,
            customers_per_district: 100,
            items: 200,
            ol_min: 5,
            ol_max: 10,
        }
    }
}

/// Transaction mix (percentages; must sum to 100).
#[derive(Debug, Clone, Copy)]
pub struct TpccMix {
    /// NewOrder share.
    pub neworder: u8,
    /// Payment share.
    pub payment: u8,
    /// Delivery share.
    pub delivery: u8,
}

impl TpccMix {
    /// 100 % NewOrder (Fig 4(a)).
    pub const NEW_ORDER: TpccMix = TpccMix {
        neworder: 100,
        payment: 0,
        delivery: 0,
    };
    /// 100 % Payment (Fig 4(b)).
    pub const PAYMENT: TpccMix = TpccMix {
        neworder: 0,
        payment: 100,
        delivery: 0,
    };
    /// 50 % NewOrder + 50 % Payment (Fig 4(c)).
    pub const MIXED: TpccMix = TpccMix {
        neworder: 50,
        payment: 50,
        delivery: 0,
    };
    /// 100 % Delivery (Fig 4(d)).
    pub const DELIVERY: TpccMix = TpccMix {
        neworder: 0,
        payment: 0,
        delivery: 100,
    };
}

/// The TPC-C workload. Template layout: `[payment, delivery,
/// neworder(ol_min), …, neworder(ol_max)]`.
pub struct Tpcc {
    cfg: TpccConfig,
    mix: TpccMix,
    templates: Vec<Program>,
}

impl Tpcc {
    /// Build the benchmark with explicit scale and mix.
    pub fn new(cfg: TpccConfig, mix: TpccMix) -> Self {
        assert_eq!(
            mix.neworder as u16 + mix.payment as u16 + mix.delivery as u16,
            100,
            "mix must sum to 100"
        );
        assert!(cfg.ol_min >= 1 && cfg.ol_min <= cfg.ol_max);
        let mut templates = vec![payment::template(), delivery::template()];
        for k in cfg.ol_min..=cfg.ol_max {
            templates.push(neworder::template(k));
        }
        Tpcc {
            cfg,
            mix,
            templates,
        }
    }

    /// The scale parameters this instance runs with.
    pub fn config(&self) -> TpccConfig {
        self.cfg
    }

    /// Dense key of district `d` of warehouse `w`.
    pub fn district_index(&self, w: u64, d: u64) -> u64 {
        w * self.cfg.districts_per_warehouse + d
    }

    /// Dense key of customer `c` of district `d_index`.
    pub fn customer_index(&self, d_index: u64, c: u64) -> u64 {
        d_index * 10_000 + c
    }

    /// Dense key of `item`'s stock row in warehouse `w`.
    pub fn stock_index(&self, w: u64, item: u64) -> u64 {
        w * 1_000_000 + item
    }

    fn template_index_for_ol(&self, k: usize) -> usize {
        2 + (k - self.cfg.ol_min)
    }
}

impl Default for Tpcc {
    fn default() -> Self {
        Self::new(TpccConfig::default(), TpccMix::NEW_ORDER)
    }
}

impl Workload for Tpcc {
    fn name(&self) -> &str {
        "tpcc"
    }

    fn templates(&self) -> &[Program] {
        &self.templates
    }

    fn manual_groups(&self, t: usize, dm: &DependencyModel) -> Vec<Vec<UnitBlockId>> {
        match t {
            0 => payment::manual_groups(dm),
            1 => delivery::manual_groups(dm),
            _ => neworder::manual_groups(dm, self.cfg.ol_min + (t - 2)),
        }
    }

    fn next(&self, rng: &mut StdRng, _phase: usize) -> TxnRequest {
        let roll = rng.gen_range(0..100u8);
        if roll < self.mix.neworder {
            let k = rng.gen_range(self.cfg.ol_min..=self.cfg.ol_max);
            TxnRequest {
                template: self.template_index_for_ol(k),
                params: neworder::params(self, rng, k),
            }
        } else if roll < self.mix.neworder + self.mix.payment {
            TxnRequest {
                template: 0,
                params: payment::params(self, rng),
            }
        } else {
            TxnRequest {
                template: 1,
                params: delivery::params(self, rng),
            }
        }
    }

    /// Seed item prices, warehouse/district taxes and initial stock so the
    /// monetary arithmetic produces non-trivial values.
    fn seed(&self, client: &mut DtmClient) {
        // Items + stock, chunked to bound read-set sizes.
        for chunk in (0..self.cfg.items).collect::<Vec<_>>().chunks(25) {
            let mut rows = Vec::new();
            for &i in chunk {
                let price = Value::Int(100 + (i as i64 % 900));
                rows.push((ObjectId::new(ITEM, i), I_PRICE, price));
                for w in 0..self.cfg.warehouses {
                    let stock = ObjectId::new(STOCK, self.stock_index(w, i));
                    rows.push((stock, S_QTY, Value::Int(1_000)));
                }
            }
            seed_rows(client, &rows);
        }
        let mut rows = Vec::new();
        for w in 0..self.cfg.warehouses {
            rows.push((ObjectId::new(WAREHOUSE, w), W_TAX, Value::Int(8)));
            for d in 0..self.cfg.districts_per_warehouse {
                let dist = ObjectId::new(DISTRICT, self.district_index(w, d));
                rows.push((dist, D_TAX, Value::Int(2)));
            }
        }
        seed_rows(client, &rows);
    }
}

/// One seeding transaction: a single read round opens every row, then each
/// (now local) open records update intent and one field is set.
fn seed_rows(client: &mut DtmClient, rows: &[(ObjectId, FieldId, Value)]) {
    let objs: Vec<ObjectId> = rows.iter().map(|&(obj, _, _)| obj).collect();
    crate::seed_txn(client, |client, ctx| {
        ctx.open_batch(client, &objs)?;
        for (obj, field, value) in rows {
            ctx.open(client, *obj, true)?;
            ctx.set_field(*obj, *field, value.clone());
        }
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn template_layout_matches_mix_dispatch() {
        let t = Tpcc::default();
        assert_eq!(t.templates()[0].name, "tpcc/payment");
        assert_eq!(t.templates()[1].name, "tpcc/delivery");
        assert_eq!(t.templates()[2].name, "tpcc/neworder/5");
        let last = t.templates().last().unwrap();
        assert_eq!(last.name, "tpcc/neworder/10");
    }

    #[test]
    fn mixes_dispatch_to_right_templates() {
        let mut rng = StdRng::seed_from_u64(5);
        let no = Tpcc::new(TpccConfig::default(), TpccMix::NEW_ORDER);
        for _ in 0..50 {
            assert!(no.next(&mut rng, 0).template >= 2);
        }
        let pay = Tpcc::new(TpccConfig::default(), TpccMix::PAYMENT);
        for _ in 0..50 {
            assert_eq!(pay.next(&mut rng, 0).template, 0);
        }
        let del = Tpcc::new(TpccConfig::default(), TpccMix::DELIVERY);
        for _ in 0..50 {
            assert_eq!(del.next(&mut rng, 0).template, 1);
        }
        let mixed = Tpcc::new(TpccConfig::default(), TpccMix::MIXED);
        let (mut n, mut p) = (0, 0);
        for _ in 0..400 {
            match mixed.next(&mut rng, 0).template {
                0 => p += 1,
                t if t >= 2 => n += 1,
                other => panic!("unexpected template {other}"),
            }
        }
        assert!(n > 120 && p > 120, "n={n} p={p}");
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_mix_is_rejected() {
        let _ = Tpcc::new(
            TpccConfig::default(),
            TpccMix {
                neworder: 50,
                payment: 20,
                delivery: 10,
            },
        );
    }

    #[test]
    fn index_derivations_are_disjoint() {
        let t = Tpcc::default();
        let d01 = t.district_index(0, 1);
        let d10 = t.district_index(1, 0);
        assert_ne!(d01, d10);
        assert_ne!(t.customer_index(d01, 5), t.customer_index(d10, 5));
        assert_ne!(t.stock_index(0, 7), t.stock_index(1, 7));
    }

    #[test]
    fn all_templates_analyze() {
        let t = Tpcc::default();
        for p in t.templates() {
            let dm = DependencyModel::analyze(p.clone()).unwrap();
            assert!(
                dm.unit_count() >= 4,
                "{} has {} units",
                p.name,
                dm.unit_count()
            );
        }
    }

    #[test]
    fn manual_groups_are_legal_for_all_templates() {
        let t = Tpcc::default();
        for (idx, p) in t.templates().iter().enumerate() {
            let dm = DependencyModel::analyze(p.clone()).unwrap();
            let groups = t.manual_groups(idx, &dm);
            let seq = acn_core::BlockSeq::group_units(&dm, &groups);
            assert!(seq.len() >= 2, "{} manual nesting is trivial", p.name);
        }
    }
}
